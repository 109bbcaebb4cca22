"""Statistics linking scaling width to hierarchy depth, plus stylized-fact probes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "OrderProfileStats",
    "TrendTest",
    "QuantileSummary",
    "order_conditional_mean",
    "trend_test",
    "acf",
    "fit_powerlaw_decay",
    "excess_kurtosis",
    "hill_alpha",
    "quantile_summary",
]


@dataclass(frozen=True)
class OrderProfileStats:
    """Mean multiscaling width per hierarchical order, with dispersion and counts."""

    orders: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]  # nan flags a single-member order
    std_errors: tuple[float, ...]
    counts: tuple[int, ...]

    def rows(self):
        return zip(self.orders, self.means, self.stds, self.std_errors, self.counts)


def order_conditional_mean(
    delta_h: Mapping[str, float], orders: Mapping[str, int]
) -> OrderProfileStats:
    """Group dH by hierarchical order: mean, standard deviation, s/sqrt(N), count.

    Orders with a single member report nan for s and the standard error.
    """
    if not delta_h:
        raise ValueError("empty input")
    if set(delta_h) != set(orders):
        raise ValueError("delta_h and orders must cover the same assets")
    groups: dict[int, list[float]] = {}
    for asset, value in delta_h.items():
        groups.setdefault(orders[asset], []).append(float(value))
    out_orders = tuple(sorted(groups))
    means, stds, ses, counts = [], [], [], []
    for n in out_orders:
        values = np.asarray(groups[n])
        means.append(float(values.mean()))
        counts.append(values.size)
        if values.size > 1:
            s = float(values.std(ddof=1))
            stds.append(s)
            ses.append(s / math.sqrt(values.size))
        else:
            stds.append(math.nan)
            ses.append(math.nan)
    return OrderProfileStats(
        orders=out_orders,
        means=tuple(means),
        stds=tuple(stds),
        std_errors=tuple(ses),
        counts=tuple(counts),
    )


@dataclass(frozen=True)
class TrendTest:
    """Pearson correlation with its t statistic and two-sided p-value."""

    r: float
    t: float
    p_value: float
    n: int

    def to_json(self) -> dict:
        return {"r": self.r, "t": self.t, "p_value": self.p_value, "n": self.n}


def trend_test(x: Sequence[float], y: Sequence[float]) -> TrendTest:
    """t-test on the Pearson correlation: t = r sqrt((n-2)/(1-r^2)), Student-t(n-2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    for name, v in (("x", x), ("y", y)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} contains non-finite values")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0 or sy == 0:
        raise ValueError("zero variance input")
    r = float(xc @ yc) / math.sqrt(sx * sy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return TrendTest(r=r, t=math.copysign(math.inf, r), p_value=0.0, n=n)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    # stats.t.sf(|t|, df) evaluates stdtr(df, -|t|); calling it directly spares importing scipy.stats
    from scipy.special import stdtr

    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return TrendTest(r=r, t=t, p_value=p, n=n)


def acf(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag with the biased 1/N normalization."""
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if not 1 <= max_lag < n / 4:
        raise ValueError(f"max_lag must be in [1, length/4), got {max_lag}")
    xc = x - x.mean()
    c0 = float(xc @ xc) / n
    if c0 == 0:
        raise ValueError("constant series has no autocorrelation")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for h in range(1, max_lag + 1):
        out[h] = float(xc[:-h] @ xc[h:]) / n / c0
    return out


def fit_powerlaw_decay(
    acf_values: np.ndarray, lag_range: tuple[int, int] = (1, 100)
) -> float:
    """Decay exponent beta from an OLS fit of log ACF against log lag.

    `acf_values[h]` is the autocorrelation at lag h (index 0 unused by the
    fit). All values over the lag range must be positive.
    """
    values = np.asarray(acf_values, dtype=float)
    lo, hi = lag_range
    if not 1 <= lo < hi:
        raise ValueError(f"bad lag range {lag_range}")
    if hi >= values.shape[0]:
        raise ValueError(f"ACF provides lags up to {values.shape[0] - 1}, need {hi}")
    window = values[lo : hi + 1]
    if np.any(window <= 0):
        raise ValueError("non-positive ACF values in the fit range; shorten the range")
    log_h = np.log(np.arange(lo, hi + 1, dtype=float))
    log_c = np.log(window)
    slope = np.polyfit(log_h, log_c, 1)[0]
    return float(-slope)


def excess_kurtosis(series: np.ndarray) -> float:
    """m4 / m2^2 - 3 with central sample moments."""
    x = np.asarray(series, dtype=float)
    if x.shape[0] < 4:
        raise ValueError("need at least 4 observations")
    xc = x - x.mean()
    m2 = float(np.mean(xc**2))
    if m2 == 0:
        raise ValueError("zero variance input")
    return float(np.mean(xc**4)) / (m2 * m2) - 3.0


def hill_alpha(series: np.ndarray, tail_fraction: float = 0.05) -> float:
    """Hill tail-index estimate on the upper order statistics of |series|.

    alpha-hat = k / sum(log(x_(i) / x_(k+1))) over the k largest magnitudes,
    with k = floor(tail_fraction * n).
    """
    if not 0 < tail_fraction <= 0.5:
        raise ValueError("tail_fraction must be in (0, 0.5]")
    x = np.abs(np.asarray(series, dtype=float))
    n = x.shape[0]
    k = int(tail_fraction * n)
    if k < 20:
        raise ValueError(f"tail has {k} points; need at least 20")
    top = np.sort(x)[-(k + 1) :]
    threshold = top[0]
    if threshold <= 0:
        raise ValueError("tail threshold is zero; series has too many zeros")
    return float(k / np.sum(np.log(top[1:] / threshold)))


@dataclass(frozen=True)
class QuantileSummary:
    """Linear-interpolation quantiles of one labeled sample."""

    label: str
    levels: tuple[float, ...]
    values: tuple[float, ...]


def quantile_summary(
    groups: Mapping[str, np.ndarray], levels: Sequence[float] = (0.025, 0.5, 0.975)
) -> list[QuantileSummary]:
    """Per-group quantiles at the requested levels (type-7 linear interpolation)."""
    levels = tuple(sorted(float(q) for q in levels))
    if any(not 0 <= q <= 1 for q in levels):
        raise ValueError("levels must lie in [0, 1]")
    out = []
    for label, sample in groups.items():
        sample = np.asarray(sample, dtype=float)
        if sample.size == 0:
            raise ValueError(f"group {label!r} is empty")
        values = np.quantile(sample, levels, method="linear")
        out.append(
            QuantileSummary(label=label, levels=levels, values=tuple(float(v) for v in values))
        )
    return out
