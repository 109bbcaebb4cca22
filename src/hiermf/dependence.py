"""Weighted Pearson correlation, Kendall's tau, and the correlation metric.

Correlations that feed the clustering are estimated with exponential weights
so remote history counts less than recent history; the decay constant
defaults to a third of the window length.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from hiermf.market_data import ReturnsPanel
from hiermf.util import decoded_lines, write_csv

__all__ = [
    "WeightScheme",
    "CorrelationMatrix",
    "exp_weights",
    "flat_weights",
    "weighted_pearson_matrix",
    "one_factor_correlation",
    "kendall_tau",
    "elliptical_tau",
    "corr_to_distance",
    "write_correlation_csv",
    "read_correlation_csv",
]

PSD_TOLERANCE = -1e-8


@dataclass(frozen=True)
class WeightScheme:
    """Normalized exponential observation weights over a window of delta_t rows."""

    delta_t: int
    theta: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.delta_t,):
            raise ValueError(f"expected {self.delta_t} weights, got {w.shape}")
        if not np.all(w > 0):  # negated tests, so that a NaN weight fails them
            raise ValueError("weights must be strictly positive")
        if not abs(w.sum() - 1.0) <= 1e-9:
            raise ValueError("weights must sum to 1")
        w.flags.writeable = False


def exp_weights(delta_t: int, theta: float) -> WeightScheme:
    """w_t proportional to exp((t - delta_t) / theta) for t = 1..delta_t, summing to 1.

    The most recent row carries the largest weight; theta -> infinity recovers
    flat weights.
    """
    if delta_t < 2:
        raise ValueError("delta_t must be >= 2")
    if not theta > 0:  # a NaN theta fails too
        raise ValueError("theta must be positive")
    t = np.arange(1, delta_t + 1, dtype=float)
    w = np.exp((t - delta_t) / theta)
    w /= w.sum()
    return WeightScheme(delta_t=delta_t, theta=float(theta), weights=w)


def flat_weights(delta_t: int) -> WeightScheme:
    """Uniform scheme, for unweighted estimation through the same code path."""
    return WeightScheme(delta_t=delta_t, theta=math.inf, weights=np.full(delta_t, 1.0 / delta_t))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal correlation with the scheme that produced it."""

    assets: tuple[str, ...]
    values: np.ndarray
    scheme: WeightScheme | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "assets", tuple(self.assets))
        n = len(self.assets)
        if v.shape != (n, n):
            raise ValueError(f"matrix shape {v.shape} does not match {n} assets")
        if not np.allclose(v, v.T, atol=1e-10):
            raise ValueError("correlation matrix not symmetric")
        if not np.allclose(np.diag(v), 1.0, atol=1e-12):
            raise ValueError("correlation diagonal must be 1")
        if np.any(np.abs(v) > 1 + 1e-10):
            raise ValueError("correlation entries outside [-1, 1]")
        eigmin = float(np.linalg.eigvalsh(v).min())
        if eigmin < PSD_TOLERANCE:
            raise ValueError(f"correlation matrix not PSD (min eigenvalue {eigmin:.3e})")
        v.flags.writeable = False

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def offdiagonal(self) -> np.ndarray:
        """Upper-triangle entries, row-major."""
        iu = np.triu_indices(self.n_assets, k=1)
        return self.values[iu]


def weighted_pearson_matrix(panel: ReturnsPanel, scheme: WeightScheme) -> CorrelationMatrix:
    """Pearson correlation with per-row weights (weighted means and variances)."""
    if scheme.delta_t != panel.n_times:
        raise ValueError(
            f"scheme covers {scheme.delta_t} rows but panel has {panel.n_times}"
        )
    w = scheme.weights
    x = panel.values
    mu = w @ x
    xc = x - mu
    cov = (xc * w[:, None]).T @ xc
    var = np.diag(cov).copy()
    # relative floor: exactly-constant columns leave O(eps^2) residue
    floor = 1e-26 * np.maximum(w @ (x * x), np.finfo(float).tiny)
    bad = np.flatnonzero(var <= floor)
    if bad.size:
        raise ValueError(f"zero weighted variance in column {panel.assets[bad[0]]!r}")
    corr = cov / np.sqrt(np.outer(var, var))
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(assets=panel.assets, values=corr, scheme=scheme)


def one_factor_correlation(labels, rng: np.random.Generator) -> CorrelationMatrix:
    """Random PSD correlation with every off-diagonal entry in [0.2, 0.8]."""
    loadings = rng.uniform(np.sqrt(0.2), np.sqrt(0.8), size=len(labels))
    values = np.outer(loadings, loadings)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(assets=tuple(labels), values=values)


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Tie-corrected Kendall tau-b, by scipy's O(n log n) method (Knight 1966).

    Agrees with full pair enumeration; ties in either variable are handled by
    the tau-b normalization.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    for name, v in (("x", x), ("y", y)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} contains non-finite values")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("tau undefined for a constant input")
    return float(stats.kendalltau(x, y).statistic)


def elliptical_tau(rho: float) -> float:
    """tau = 2/pi * arcsin(rho), exact for elliptically distributed pairs."""
    if abs(rho) > 1:
        raise ValueError(f"rho must be in [-1, 1], got {rho}")
    return 2.0 / math.pi * math.asin(rho)


def corr_to_distance(matrix: CorrelationMatrix) -> np.ndarray:
    """d_ij = sqrt(2 (1 - rho_ij)), the standard correlation metric in [0, 2]."""
    d = np.sqrt(np.maximum(2.0 * (1.0 - matrix.values), 0.0))
    np.fill_diagonal(d, 0.0)
    return d


def write_correlation_csv(matrix: CorrelationMatrix, path: str | Path) -> None:
    """Labeled square CSV: header row of assets, one labeled row per asset."""
    write_csv(
        path,
        ["", *matrix.assets],
        ([label, *row.tolist()] for label, row in zip(matrix.assets, matrix.values)),
    )


def _read_labeled_matrix(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and values of a labeled square CSV; each row label must match its column.

    Blank lines are skipped. A row with the wrong number of cells, or a cell
    that is not a number, is an error naming the file and the row label.
    """
    with open(path, newline="") as fh:
        rows = list(filter(None, csv.reader(decoded_lines(fh, path))))
    if not rows or len(rows[0]) < 2:
        raise ValueError(f"{path}: not a labeled correlation CSV")
    assets = tuple(rows[0][1:])
    if len(rows) != len(assets) + 1:
        raise ValueError(f"{path}: expected {len(assets)} data rows, got {len(rows) - 1}")
    values = np.empty((len(assets), len(assets)))
    for i, row in enumerate(rows[1:]):
        if row[0] != assets[i]:
            raise ValueError(f"{path}: row label {row[0]!r} does not match column {assets[i]!r}")
        if len(row) != len(assets) + 1:
            raise ValueError(
                f"{path}: row {row[0]!r} has {len(row) - 1} values, expected {len(assets)}"
            )
        try:
            values[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: row {row[0]!r}: {exc}") from None
    return assets, values


def read_correlation_csv(path: str | Path) -> CorrelationMatrix:
    """Inverse of write_correlation_csv (the weighting scheme is not recoverable)."""
    assets, values = _read_labeled_matrix(path)
    return CorrelationMatrix(assets=assets, values=values)
