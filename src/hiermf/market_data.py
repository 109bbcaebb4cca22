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
from typing import Mapping, Sequence

import numpy as np

from hiermf.util import decoded_lines

__all__ = [
    "PriceSeries",
    "ReturnsPanel",
    "WindowSpec",
    "CsvSchema",
    "LoadReport",
    "load_prices_csv",
    "log_returns",
    "rolling_windows",
    "align_series",
    "returns_panel",
]


@dataclass(frozen=True)
class PriceSeries:
    """Strictly positive daily prices for one ticker on an increasing date index."""

    ticker: str
    timestamps: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if len(self.timestamps) != prices.shape[0]:
            raise ValueError(
                f"{self.ticker}: {len(self.timestamps)} timestamps vs {prices.shape[0]} prices"
            )
        if prices.shape[0] < 2:
            raise ValueError(f"{self.ticker}: need at least 2 prices, got {prices.shape[0]}")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0):
            raise ValueError(f"{self.ticker}: prices must be finite and strictly positive")
        ts = self.timestamps
        if not all(map(operator.lt, ts, ts[1:])):
            for a, b in zip(ts, ts[1:]):
                if not a < b:
                    raise ValueError(f"{self.ticker}: timestamps not strictly increasing at {b!r}")
        prices.flags.writeable = False

    def __len__(self) -> int:
        return self.prices.shape[0]

    @property
    def log_prices(self) -> np.ndarray:
        return np.log(self.prices)


@dataclass(frozen=True)
class ReturnsPanel:
    """Time x asset matrix of log-returns at a common scale (in trading days)."""

    assets: tuple[str, ...]
    times: tuple
    values: np.ndarray
    scale: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "assets", tuple(self.assets))
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
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]

    def log_price_paths(self) -> np.ndarray:
        """Cumulative scale-1 log-prices (anchored at 0), one column per asset.

        Only meaningful for scale-1 panels; increments of the result at scale
        l telescope exactly back to l-day returns.
        """
        if self.scale != 1:
            raise ValueError("log-price reconstruction requires a scale-1 panel")
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
) -> tuple[dict[str, PriceSeries], LoadReport]:
    """Read one PriceSeries per ticker column from a header-row CSV.

    Rows with a missing or non-positive price are dropped for that ticker
    only; the per-ticker drop counts are returned in the LoadReport. Dates
    must be strictly increasing over the whole file.

    A cell is read with `float()` after stripping whitespace; a cell it
    rejects counts as missing. Blank lines are skipped and a short row reads
    as missing cells. A price column named twice among the tickers read is
    an error; a repeated date column, or a repeated name picked once through
    `CsvSchema.price_columns`, reads the last column of that name. Line
    numbers in errors are physical lines of the file.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(decoded_lines(fh, path), delimiter=schema.delimiter)
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
        # each kept row with the physical line it ends on, for error messages
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    # the last column of a repeated name wins
    position = {name: j for j, name in enumerate(header)}
    width = 1 + max(position[c] for c in (schema.date_column, *tickers))
    if min(map(len, rows)) < width:
        rows = [r if len(r) >= width else r + [""] * (width - len(r)) for r in rows]
    columns = list(zip(*rows))
    del rows

    dates = tuple(map(str.strip, columns[position[schema.date_column]]))
    _check_dates(path, dates, lines)

    report = LoadReport(source=str(path), schema=schema, drop_counts={})
    series: dict[str, PriceSeries] = {}
    for t in tickers:
        prices = _parse_column(columns[position[t]])
        columns[position[t]] = ()  # release the parsed cells before the next column
        valid = np.isfinite(prices)
        valid[valid] = prices[valid] > 0  # NaN never enters a comparison
        kept = int(np.count_nonzero(valid))
        report.drop_counts[t] = len(dates) - kept
        if kept < 2:
            raise ValueError(f"{path}: ticker {t!r} has fewer than 2 valid rows")
        stamps = tuple(itertools.compress(dates, valid.tolist()))
        series[t] = PriceSeries(ticker=t, timestamps=stamps, prices=prices[valid])
    return series, report


def _parse_column(cells: Sequence[str]) -> np.ndarray:
    """float() of each stripped cell; a cell float() rejects becomes NaN."""
    try:
        return np.array(list(map(float, map(str.strip, cells))))
    except ValueError:
        return np.array([_parse_cell(c.strip()) for c in cells])


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


def log_returns(series: PriceSeries | np.ndarray, scale: int = 1) -> np.ndarray:
    """Log-returns log p[t+scale] - log p[t] over all overlapping offsets.

    Accepts a PriceSeries or a raw positive price array with time along its
    first axis; output length is len(series) - scale.
    """
    prices = series.prices if isinstance(series, PriceSeries) else np.asarray(series, dtype=float)
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
            scale=panel.scale,
        )
        for s in starts
    ]


def align_series(series: Sequence[PriceSeries]) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Intersect date indices and return (dates, tickers, price matrix).

    Continuously traded assets keep their full span; assets with dropped rows
    shrink the common index for everyone (intersection alignment).
    """
    if not series:
        raise ValueError("no series to align")
    common = set(series[0].timestamps).intersection(*(s.timestamps for s in series[1:]))
    if len(common) < 2:
        # every series has at least 2 dates, so some later ticker shrinks the running set
        running = set(series[0].timestamps)
        for s in series[1:]:
            running.intersection_update(s.timestamps)
            if len(running) < 2:
                break
        raise ValueError(
            f"fewer than 2 common dates across tickers; ticker {s.ticker!r} ({len(s)} dates) "
            f"leaves {len(running)} in common with the tickers before it"
        )
    # every index is strictly increasing, so filtering any of them keeps date order
    dates = tuple(filter(common.__contains__, series[0].timestamps))
    tickers = tuple(s.ticker for s in series)
    matrix = np.column_stack([
        s.prices[np.fromiter(map(common.__contains__, s.timestamps), bool, len(s))]
        for s in series
    ])
    return dates, tickers, matrix


def returns_panel(series: Sequence[PriceSeries] | Mapping[str, PriceSeries], scale: int = 1) -> ReturnsPanel:
    """Intersection-align tickers and assemble the scale-`scale` returns panel."""
    if isinstance(series, Mapping):
        series = [series[k] for k in series]
    dates, tickers, prices = align_series(series)
    if scale >= len(dates):
        raise ValueError(f"scale {scale} >= aligned length {len(dates)}")
    values = log_returns(prices, scale)
    return ReturnsPanel(assets=tickers, times=dates[scale:], values=values, scale=scale)
