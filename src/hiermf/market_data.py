"""Price ingestion, log-returns at arbitrary scales, and rolling panel windows.

Dates are treated as opaque ordered labels throughout; every duration in this
package is a count of trading days, never calendar arithmetic.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from hiermf.util import input_lines

# rows parsed at a time: a load holds the price array plus one block's cell strings
LOAD_BLOCK_ROWS = 256

__all__ = [
    "PricePanel",
    "ReturnsPanel",
    "WindowSpec",
    "CsvSchema",
    "LoadReport",
    "load_prices_csv",
    "log_returns",
    "rolling_windows",
    "returns_panel",
]


@dataclass(frozen=True)
class PricePanel:
    """Daily prices of several tickers on one date column: prices[row, ticker].

    A missing cell is NaN. `returns_panel` keeps only the rows where every
    ticker has a finite positive price.
    """

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if not self.tickers:
            raise ValueError("no price columns")
        if prices.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(
                f"prices of shape {prices.shape} vs {len(self.dates)} dates "
                f"and {len(self.tickers)} tickers"
            )


@dataclass(frozen=True)
class ReturnsPanel:
    """Time x asset matrix of daily (scale-1) log-returns."""

    assets: tuple[str, ...]
    times: tuple | range  # a range (simulated step indices) stays lazy
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "assets", tuple(self.assets))
        if not isinstance(self.times, range):
            object.__setattr__(self, "times", tuple(self.times))
        if values.ndim != 2:
            raise ValueError("values must be a 2-d (time x asset) array")
        if values.shape[1] != len(self.assets):
            raise ValueError(f"{values.shape[1]} columns vs {len(self.assets)} assets")
        if values.shape[0] != len(self.times):
            raise ValueError(f"{values.shape[0]} rows vs {len(self.times)} times")
        # a finite sum means finite entries; only a NaN, an inf or an overflowing
        # sum pays for the elementwise check and its panel-sized temporary
        with np.errstate(over="ignore", invalid="ignore"):
            finite_sum = np.isfinite(values.sum())
        if not finite_sum and not np.all(np.isfinite(values)):
            raise ValueError("panel contains non-finite entries")

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]

    def log_price_paths(self) -> np.ndarray:
        """Cumulative log-prices (anchored at 0), one column per asset.

        Increments of the result at scale l telescope back to l-day returns.
        """
        out = np.zeros((self.n_times + 1, self.n_assets))
        np.cumsum(self.values, axis=0, out=out[1:])
        return out


@dataclass(frozen=True)
class WindowSpec:
    """`count` equal-length windows tiling a sample; stride derived at slicing time."""

    length: int
    count: int

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("window length must be >= 2")
        if self.count < 1:
            raise ValueError("window count must be >= 1")

    def starts(self, n_times: int) -> list[int]:
        """First row of each window; the last window always ends at the final row.

        The derived stride must land in [1, length] so consecutive windows
        overlap or abut: the windows tile the whole sample.
        """
        if self.length > n_times:
            raise ValueError(f"window length {self.length} exceeds sample length {n_times}")
        if self.count == 1:
            return [0]
        stride = (n_times - self.length) // (self.count - 1)
        if stride < 1:
            raise ValueError(
                f"{self.count} windows of length {self.length} do not fit in {n_times} rows"
            )
        starts = [i * stride for i in range(self.count)]
        starts[-1] = n_times - self.length
        # the final window may jump stride plus the division remainder
        if starts[-1] - starts[-2] > self.length or stride > self.length:
            raise ValueError(
                f"{self.count} windows of length {self.length} do not tile {n_times} rows"
            )
        return starts


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for price CSVs: one date column, price columns by name.

    `price_columns=None` means every non-date column.
    """

    date_column: str = "date"
    price_columns: tuple[str, ...] | None = None
    delimiter: str = ","

    def __post_init__(self):
        # csv.reader takes one character, and a quote or a line break would split the header wrongly
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ValueError(
                f"delimiter must be one character other than a quote or a line break, got {self.delimiter!r}"
            )


@dataclass
class LoadReport:
    """Per-ticker ingestion provenance (rows dropped for missing/non-positive prices)."""

    source: str
    schema: CsvSchema
    drop_counts: dict[str, int] = field(default_factory=dict)

    def to_sidecar(self) -> dict:
        return {
            "source": self.source,
            "date_column": self.schema.date_column,
            "price_columns": list(self.schema.price_columns or []),
            "drop_counts": dict(sorted(self.drop_counts.items())),
        }


def load_prices_csv(
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


def log_returns(prices: np.ndarray, scale: int = 1) -> np.ndarray:
    """Log-returns log p[t+scale] - log p[t] over all overlapping offsets.

    Takes positive prices with time along the first axis; output length is
    len(prices) - scale.
    """
    prices = np.asarray(prices, dtype=float)
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if scale >= prices.shape[0]:
        raise ValueError(f"scale {scale} >= series length {prices.shape[0]}")
    logs = np.log(prices)
    return logs[scale:] - logs[:-scale]


def rolling_windows(panel: ReturnsPanel, spec: WindowSpec) -> list[ReturnsPanel]:
    """Slice the panel into spec.count windows (views, no copies)."""
    starts = spec.starts(panel.n_times)
    return [
        ReturnsPanel(
            assets=panel.assets,
            times=panel.times[s : s + spec.length],
            values=panel.values[s : s + spec.length],
        )
        for s in starts
    ]


def returns_panel(panel: PricePanel) -> ReturnsPanel:
    """Daily log-returns on the rows where every ticker has a valid price.

    Those rows are the intersection of the tickers' dates: continuously
    traded tickers keep their full span, and a ticker's missing rows shrink
    the common index for everyone.
    """
    valid = _valid(panel.prices)
    common = np.logical_and.reduce(valid, axis=1)
    if np.count_nonzero(common) < 2:
        raise ValueError(_too_few_common_rows(panel.tickers, valid))
    dates = tuple(itertools.compress(panel.dates, common.tolist()))
    return ReturnsPanel(assets=panel.tickers, times=dates[1:], values=log_returns(panel.prices[common]))


def _too_few_common_rows(tickers: tuple[str, ...], valid: np.ndarray) -> str:
    """Name the ticker to blame when fewer than 2 rows are valid for every ticker."""
    kept = np.count_nonzero(valid, axis=0)
    if np.any(kept < 2):
        return _short_ticker(tickers, kept)
    # rows valid for every ticker up to and including each one
    running = np.count_nonzero(np.logical_and.accumulate(valid, axis=1), axis=0)
    k = int(np.argmax(running < 2))
    return (
        f"fewer than 2 common dates across tickers; ticker {tickers[k]!r} ({kept[k]} dates) "
        f"leaves {running[k]} in common with the tickers before it"
    )


def _short_ticker(tickers: Sequence[str], kept: np.ndarray) -> str:
    """Name the first ticker with fewer than 2 valid rows."""
    return f"ticker {tickers[np.argmax(kept < 2)]!r} has fewer than 2 valid rows"
