"""Generalized Hurst exponents, fractional Brownian motion, and the
multiscaling significance threshold.

H(q) is read off the scaling of absolute q-moments of log-price increments,
M(q, l) ~ l^(q H(q)), averaged over least-squares fits with the upper fit
scale swept across a range. The multifractality proxy is dH = H(1) - H(2),
which vanishes for uniscaling processes; its significance threshold is
calibrated on exact fractional Brownian motion paths.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from hiermf.market_data import WindowSpec
from hiermf.util import derived_rng, parallel_map

__all__ = [
    "GheEstimate",
    "DegenerateMomentError",
    "FbmSpec",
    "ThresholdCalibration",
    "DEFAULT_Q",
    "DEFAULT_LMAX_RANGE",
    "MIN_SERIES_LENGTH",
    "q_moment",
    "estimate_ghe",
    "ghe_from_moments",
    "delta_h",
    "fgn_autocovariance",
    "generate_fbm",
    "calibrate_threshold",
]

DEFAULT_Q = (1.0, 2.0)
DEFAULT_LMAX_RANGE = (5, 19)
# shortest log-price series estimate_ghe accepts at the default scales
MIN_SERIES_LENGTH = 10 * DEFAULT_LMAX_RANGE[1]


@dataclass(frozen=True)
class GheEstimate:
    """H(q) with per-fit slopes and dispersion across upper fit scales."""

    q_values: tuple[float, ...]
    h_values: tuple[float, ...]
    slopes: np.ndarray  # shape (len(q_values), number of lmax fits)
    lmax_range: tuple[int, int]
    std_errors: tuple[float, ...]

    def h(self, q: float) -> float:
        for qi, hi in zip(self.q_values, self.h_values):
            if qi == q:
                return hi
        raise ValueError(f"q={q} not estimated (have {self.q_values})")


class DegenerateMomentError(ValueError):
    """A q-moment of exactly 0: the column's increments vanish at that scale.

    `column` indexes the fitted stack's columns and `window` its windows
    (None for a stack without windows), so a caller can name the series.
    """

    def __init__(self, q: float, scale: int, column: int, window: int | None):
        place = f"column {column}" if window is None else f"window {window}, column {column}"
        super().__init__(f"degenerate q-moment M(q={q}, l={scale}) = 0 in {place}")
        self.q, self.scale, self.column, self.window = q, scale, column, window


def delta_h(est: GheEstimate) -> float:
    """H(1) - H(2), the multiscaling width between the first two moments."""
    return est.h(1.0) - est.h(2.0)


def _moment_table(series: np.ndarray, q_values, scales, starts=(0,), span=None) -> np.ndarray:
    """M[w, j, i, k] = mean |x_j[t + l] - x_j[t]|^q_i at l = scales[k] over window w.

    Window w holds the `span` points of each row x_j of `series` from
    starts[w] on (default: one window over the whole series). Each scale's
    increments and their powers are computed once over the whole series;
    every window then sums its own slice [s, s + span - l) of them.

    `series` is (assets, time) and contiguous along time, so numpy reduces
    each row slice with the same pairwise summation as a lone 1-D series of
    those values: a single window over row j equals the table of x_j alone
    bit for bit. Two (assets, time) buffers are reused across scales instead
    of fresh temporaries; the second is never written when only the last q
    differs from 1, as with the default (1, 2), so it costs no resident
    memory then.
    """
    n_assets, n_times = series.shape
    span = n_times if span is None else span
    sums = np.empty((len(starts), n_assets, len(q_values), len(scales)))
    inc = np.empty((n_assets, n_times - 1))
    powered = np.empty_like(inc)
    for k, scale in enumerate(scales):
        width = n_times - scale
        d = inc[:, :width]
        np.subtract(series[:, scale:], series[:, :width], out=d)
        np.abs(d, out=d)
        for i, q in enumerate(q_values):
            # the last power may overwrite the increments; earlier ones may not
            out = d if i == len(q_values) - 1 else powered[:, :width]
            term = d if q == 1.0 else np.power(d, q, out=out)
            for w, s in enumerate(starts):
                np.add.reduce(term[:, s : s + span - scale], axis=1, out=sums[w, :, i, k])
    # np.mean is this sum divided by the count
    return sums / (span - np.asarray(scales, dtype=float))


def q_moment(log_prices, q: float, scale: int) -> float:
    """Mean absolute q-th moment of increments at the given scale.

    Uses every overlapping increment x[t+scale] - x[t] of a log-price array.
    A return of exactly 0.0 marks a degenerate scale (all increments zero).
    """
    x = np.asarray(log_prices, dtype=float)
    if q <= 0:
        raise ValueError("q must be positive")
    if not 1 <= scale <= x.shape[0] - 1:
        raise ValueError(f"scale {scale} out of range for series of length {x.shape[0]}")
    return float(_moment_table(x[None, :], (q,), (scale,))[0, 0, 0, 0])


def ghe_from_moments(
    moments: np.ndarray,
    q_values: tuple[float, ...],
    lmax_range: tuple[int, int] = DEFAULT_LMAX_RANGE,
) -> GheEstimate | list[GheEstimate] | list[list[GheEstimate]]:
    """Fit H(q) from a precomputed moment table M[q_index, scale-1].

    For each upper scale lmax in the range, the slope of log M against log l
    over l = 1..lmax estimates q*H(q); H(q) is the mean of slope/q over the
    sweep and its standard error is the standard deviation across fits.

    A stack of tables M[column, q_index, scale-1] is fitted in one pass and
    gives a list with one estimate per column; a stack
    M[window, column, q_index, scale-1] gives one such list per window.
    """
    lo, hi = lmax_range
    if not 2 <= lo <= hi:
        raise ValueError(f"invalid lmax range {lmax_range}")
    moments = np.asarray(moments, dtype=float)
    if moments.ndim not in (2, 3, 4):
        raise ValueError(f"expected a table or a stack of tables, got shape {moments.shape}")
    if moments.shape[-1] < hi:
        raise ValueError(f"need moments up to scale {hi}, got {moments.shape[-1]}")
    if moments.ndim == 2:
        return ghe_from_moments(moments[None], q_values, lmax_range)[0]
    zero = np.argwhere(moments[..., :hi] == 0.0)
    if zero.size:
        *where, qi, li = zero[0].tolist()
        window = where[0] if len(where) == 2 else None
        raise DegenerateMomentError(q_values[qi], li + 1, where[-1], window)

    # column k of `weights` holds the least-squares slope weights over l = 1..lmax
    log_l = np.log(np.arange(1, hi + 1, dtype=float))
    weights = np.zeros((hi, hi - lo + 1))
    for k, lmax in enumerate(range(lo, hi + 1)):
        xc = log_l[:lmax] - log_l[:lmax].mean()
        weights[:lmax, k] = xc / (xc @ xc)
    log_m = np.log(moments[..., :hi].reshape(-1, moments.shape[-2], hi))
    # the weights sum to zero only up to rounding; measuring log M from its
    # l = 1 value keeps that residue from scaling with the size of log M
    slopes = (log_m - log_m[..., :1]) @ weights

    h_per_fit = slopes / np.asarray(q_values, dtype=float)[:, None]
    h_values = h_per_fit.mean(axis=-1).tolist()
    std_errors = h_per_fit.std(axis=-1, ddof=1).tolist()
    slopes.flags.writeable = False
    q_values = tuple(float(q) for q in q_values)
    estimates = [
        GheEstimate(
            q_values=q_values,
            h_values=tuple(h_values[j]),
            slopes=slopes[j],
            lmax_range=(lo, hi),
            std_errors=tuple(std_errors[j]),
        )
        for j in range(slopes.shape[0])
    ]
    if moments.ndim == 3:
        return estimates
    n_columns = moments.shape[1]
    return [estimates[w : w + n_columns] for w in range(0, len(estimates), n_columns)]


def estimate_ghe(
    log_prices: np.ndarray,
    q_values: tuple[float, ...] = DEFAULT_Q,
    lmax_range: tuple[int, int] = DEFAULT_LMAX_RANGE,
    windows: WindowSpec | None = None,
) -> GheEstimate | list[GheEstimate] | list[list[GheEstimate]]:
    """Generalized Hurst exponents of a log-price sequence.

    A 1-D series gives one estimate. A 2-D (time, assets) array, laid out
    like ReturnsPanel.log_price_paths(), gives a list with one estimate per
    column, each equal to the estimate of that column alone.

    With `windows`, the series holds the log-prices of a whole returns panel
    and the result has one entry per window of `windows.starts(rows - 1)`:
    the estimate (1-D) or list of estimates (2-D) of the `windows.length + 1`
    log-prices from the window's start on. Each scale's increments and
    powers are formed once for all windows, and each window's sums are
    pairwise over its own slice, so the result differs from estimating each
    window's own log_price_paths() only by the rounding of the increments
    (differences of the whole series' running sums): under 1e-12 in H.
    """
    x = np.asarray(log_prices, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a series or a (time, assets) array, got shape {x.shape}")
    lo, hi = lmax_range
    starts, span = (0,), x.shape[0]
    if windows is not None:
        starts, span = windows.starts(x.shape[0] - 1), windows.length + 1
    if span < 10 * hi:
        raise ValueError(f"series length {span} < 10 * max scale {hi}")
    series = x[None, :] if x.ndim == 1 else np.ascontiguousarray(x.T)
    moments = _moment_table(series, q_values, range(1, hi + 1), starts, span)
    if windows is None:
        moments = moments[0]
    estimates = ghe_from_moments(moments, tuple(q_values), lmax_range)
    if x.ndim == 2:
        return estimates
    return estimates[0] if windows is None else [columns[0] for columns in estimates]


@dataclass(frozen=True)
class FbmSpec:
    """Fractional Brownian motion path request (unit-variance increments)."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0 < self.hurst < 1:
            raise ValueError(f"hurst must be in (0, 1), got {self.hurst}")
        if self.length < 2:
            raise ValueError("length must be >= 2")


def fgn_autocovariance(hurst: float, lags: np.ndarray | int) -> np.ndarray:
    """gamma(h) = (|h+1|^2H - 2|h|^2H + |h-1|^2H) / 2 for fractional Gaussian noise."""
    h = np.atleast_1d(np.abs(np.asarray(lags, dtype=float)))
    two_h = 2.0 * hurst
    return 0.5 * ((h + 1) ** two_h - 2 * h**two_h + np.abs(h - 1) ** two_h)


def _embedding_eigenvalues(cov: np.ndarray, clip_negative: bool) -> tuple[np.ndarray, float]:
    """Eigenvalues of the circulant embedding of autocovariances at lags 0..n.

    Negative eigenvalues are clipped to zero and the rest rescaled so the
    marginal variance (mean eigenvalue) is preserved. Returns (eigenvalues,
    clipped_mass), where clipped_mass is the fraction of total eigenvalue
    magnitude removed (0 when the embedding is nonnegative definite). With
    clip_negative=False a materially negative eigenvalue raises instead.
    """
    n = cov.shape[0] - 1
    if n < 1:
        raise ValueError("need covariances at lags 0..n with n >= 1")
    first_row = np.concatenate((cov, cov[-2:0:-1]))
    eig = np.fft.fft(first_row).real
    if not clip_negative and eig.min() < -1e-8 * eig.max():
        raise ValueError(
            f"circulant embedding has negative eigenvalue {eig.min():.3e} beyond tolerance"
        )
    negative = eig < 0
    total_mass = float(np.abs(eig).sum())
    # negate before summing: an empty sum is 0.0, where -(0.0) would write -0.0
    clipped = float((-eig[negative]).sum()) / total_mass if total_mass > 0 else 0.0
    if negative.any():
        eig = np.where(negative, 0.0, eig)
        eig *= first_row[0] * (2 * n) / eig.sum()
    return eig, clipped


def _circulant_sample(cov: np.ndarray, rng: np.random.Generator, clip_negative: bool = False):
    """Exact stationary Gaussian sample by circulant embedding.

    `cov` holds autocovariances at lags 0..n, producing a sample of length n
    whose covariances at lags 0..n-1 are exact. Returns (sample,
    clipped_mass) as described in _embedding_eigenvalues.
    """
    eig, clipped = _embedding_eigenvalues(cov, clip_negative)
    m = eig.shape[0]
    n = m // 2
    z = np.empty(m, dtype=complex)
    v = rng.standard_normal((n - 1, 2))
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1 :] = np.conj(z[1:n][::-1])
    sample = np.sqrt(m) * np.fft.ifft(np.sqrt(eig) * z).real[:n]
    return sample, clipped


def _fbm_path(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """fBm path of `length` points anchored at 0, its increments exact fGn."""
    cov = fgn_autocovariance(hurst, np.arange(length))
    fgn, _ = _circulant_sample(cov, rng, clip_negative=False)
    path = np.empty(length)
    path[0] = 0.0
    np.cumsum(fgn, out=path[1:])
    return path


def generate_fbm(spec: FbmSpec) -> np.ndarray:
    """fBm path of spec.length points anchored at 0.

    Increments are exact fractional Gaussian noise (circulant embedding, no
    approximation); the same spec always yields the identical path.
    """
    return _fbm_path(spec.length, spec.hurst, np.random.default_rng(spec.seed))


@dataclass(frozen=True)
class ThresholdCalibration:
    """Multiscaling significance cutoff from uniscaling null paths."""

    count: int
    hurst_range: tuple[float, float]
    length: int
    seed: int
    threshold: float
    percentile_rule: str
    delta_h_sample: np.ndarray

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "hurst_range": list(self.hurst_range),
            "length": self.length,
            "seed": self.seed,
            "threshold": self.threshold,
            "percentile_rule": self.percentile_rule,
        }


def _calibration_draw(index: int, seed: int, lo: float, hi: float, length: int) -> float:
    rng = derived_rng(seed, index)
    hurst = rng.uniform(lo, hi)
    return delta_h(estimate_ghe(_fbm_path(length, hurst, rng)))


def calibrate_threshold(
    count: int,
    hurst_range: tuple[float, float] = (0.1, 0.9),
    length: int = 4026,
    seed: int = 0,
    jobs: int = 1,
) -> ThresholdCalibration:
    """97.5th percentile of dH over fBm paths with Hurst drawn in the range.

    dH on uniscaling paths is centered at zero, so the upper edge of the
    two-sided 95% band is the one-sided exceedance cutoff used to flag
    significant multiscaling. Realizations use derived seeds (seed, index) so
    the result is identical for any worker count. Counts below 100 warn: the
    upper percentile gets unstable.
    """
    if count < 10:
        raise ValueError("need at least 10 realizations")
    lo, hi = float(hurst_range[0]), float(hurst_range[1])
    if lo > hi:
        raise ValueError(f"hurst range {hurst_range} is inverted")
    if not (0 < lo <= hi < 1):
        raise ValueError(f"hurst range {hurst_range} not inside (0, 1)")
    if count < 100:
        warnings.warn("low realization count", UserWarning, stacklevel=2)
    worker = functools.partial(_calibration_draw, seed=seed, lo=lo, hi=hi, length=length)
    sample = np.asarray(parallel_map(worker, range(count), jobs=jobs))
    threshold = float(np.percentile(sample, 97.5))
    sample.flags.writeable = False
    return ThresholdCalibration(
        count=count,
        hurst_range=(lo, hi),
        length=length,
        seed=seed,
        threshold=threshold,
        percentile_rule="97.5th percentile of signed dH (two-sided 95%)",
        delta_h_sample=sample,
    )
