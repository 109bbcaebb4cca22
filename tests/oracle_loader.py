"""The csv.reader loader that `hiermf.market_data.load_prices_csv` replaced.

It tokenizes every row with csv.reader and parses every cell with float(),
parsing LOAD_BLOCK_ROWS kept rows at a time. It is kept, unchanged, only as
the oracle that the numpy block parser is checked against: the same
PricePanel, LoadReport and error messages on any file.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from pathlib import Path
from typing import Sequence

import numpy as np

from hiermf.market_data import LOAD_BLOCK_ROWS, CsvSchema, LoadReport, PricePanel
from hiermf.util import input_lines


def oracle_load_prices_csv(
    path: str | Path, schema: CsvSchema | None = None
) -> tuple[PricePanel, LoadReport]:
    """Read every ticker column of a header-row CSV into one PricePanel.

    A missing, non-finite or non-positive price is NaN in the panel and
    counts as a dropped row of that ticker only; the per-ticker drop counts
    are returned in the LoadReport. Each ticker needs at least 2 valid rows.
    Dates must be strictly increasing over the whole file, compared as text:
    ISO dates sort correctly, and integer day numbers must be zero-padded.

    A cell is read with `float()` after stripping whitespace; a cell it
    rejects counts as missing. Blank lines are skipped and a short row reads
    as missing cells. A price column named twice among the tickers read is
    an error; a repeated date column, or a repeated name picked once through
    `CsvSchema.price_columns`, reads the last column of that name. Line
    numbers in errors are physical lines of the file.

    The file is read once and parsed every LOAD_BLOCK_ROWS kept rows, so a
    load holds the price array plus one block's cell strings.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    reader = csv.reader(input_lines(path), delimiter=schema.delimiter)
    header = next(reader, None)
    if header is None or schema.date_column not in header:
        raise ValueError(f"{path}: missing date column {schema.date_column!r}")
    tickers = list(schema.price_columns or [c for c in header if c != schema.date_column])
    for t in tickers:
        if t not in header:
            raise ValueError(f"{path}: missing price column {t!r}")
    if not tickers:
        raise ValueError(f"{path}: no price columns")
    if len(set(tickers)) < len(tickers):
        dup = next(t for k, t in enumerate(tickers) if t in tickers[:k])
        raise ValueError(f"{path}: duplicate price column {dup!r}")
    # the last column of a repeated name wins
    position = {name: j for j, name in enumerate(header)}
    picked = [position[schema.date_column], *(position[t] for t in tickers)]
    pick, width = operator.itemgetter(*picked), 1 + max(picked)
    # parse every LOAD_BLOCK_ROWS kept rows, so only one block's cell strings are alive
    rows, lines, dates, blocks = [], [], [], []
    for row in reader:
        if row:
            rows.append(row)
            # the physical line each kept row ends on, for error messages
            lines.append(reader.line_num)
            if len(rows) == LOAD_BLOCK_ROWS:
                blocks.append(_parse_block(rows, width, pick, dates))
                rows = []
    if rows:
        blocks.append(_parse_block(rows, width, pick, dates))
        del rows
    if not blocks:
        raise ValueError(f"{path}: no data rows")

    dates = tuple(dates)
    _check_dates(path, dates, lines)
    prices = np.concatenate(blocks)
    del blocks
    valid = _valid(prices)
    prices[~valid] = math.nan
    kept = np.count_nonzero(valid, axis=0)
    if np.any(kept < 2):
        raise ValueError(f"{path}: {_short_ticker(tickers, kept)}")
    report = LoadReport(
        source=str(path), schema=schema, drop_counts=dict(zip(tickers, (len(dates) - kept).tolist()))
    )
    return PricePanel(dates=dates, tickers=tickers, prices=prices), report


def _valid(prices: np.ndarray) -> np.ndarray:
    """True where a price is finite and positive; NaN compares false."""
    return (prices > 0) & (prices < math.inf)


def _parse_block(
    rows: list[list[str]], width: int, pick: operator.itemgetter, dates: list[str]
) -> np.ndarray:
    """Prices of a block of rows, as (rows x tickers); appends the rows' dates to `dates`.

    `pick` selects the date cell and then each ticker's cell of a row. A short
    row reads as blank cells, and a blank cell is NaN. float() parses the rest,
    and only a block holding a cell that float() rejects goes cell by cell.
    """
    if min(map(len, rows)) < width:
        rows = [r if len(r) >= width else r + [""] * (width - len(r)) for r in rows]
    cells = list(map(str.strip, itertools.chain.from_iterable(map(pick, rows))))
    stride = len(cells) // len(rows)  # the date cell and each ticker's
    dates += cells[::stride]
    del cells[::stride]
    if "" in cells:
        cells = [c or "nan" for c in cells]
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = np.fromiter(map(_parse_cell, cells), float, len(cells))
    return values.reshape(len(rows), stride - 1)


def _parse_cell(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _check_dates(path: Path, dates: tuple[str, ...], lines: Sequence[int]) -> None:
    """Raise on the first empty or out-of-order date, naming the physical line in `lines`."""
    if all(dates) and all(map(operator.lt, dates, dates[1:])):
        return
    for k, date in enumerate(dates):
        if not date:
            raise ValueError(f"{path}:{lines[k]}: empty date")
        if k and not dates[k - 1] < date:
            raise ValueError(
                f"{path}:{lines[k]}: dates not strictly "
                f"increasing ({date!r} after {dates[k - 1]!r})"
            )


def _short_ticker(tickers: Sequence[str], kept: np.ndarray) -> str:
    """Name the first ticker with fewer than 2 valid rows."""
    return f"ticker {tickers[np.argmax(kept < 2)]!r} has fewer than 2 valid rows"
