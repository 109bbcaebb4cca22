"""Weighted Pearson correlation, Kendall's tau, and the correlation metric.

Correlations that feed the clustering are estimated with exponential weights
so remote history counts less than recent history; the decay constant
defaults to a third of the window length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hiermf.market_data import ReturnsPanel
from hiermf.util import csv_rows, input_lines, write_table_csv

__all__ = [
    "WeightScheme",
    "CorrelationMatrix",
    "exp_weights",
    "flat_weights",
    "weighted_pearson_matrix",
    "one_factor_correlation",
    "kendall_tau",
    "kendall_tau_matrix",
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
    """Tie-corrected Kendall tau-b in O(n log n) (Knight 1966); see kendall_tau_matrix.

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
    return float(_tau_b(np.stack((x, y)))[0, 1])


def kendall_tau_matrix(values: np.ndarray) -> np.ndarray:
    """Kendall tau-b of every column pair of an observations x variables array.

    Laid out like np.corrcoef(values, rowvar=False), with a unit diagonal.
    Entry [i, j] equals scipy.stats.kendalltau(values[:, i], values[:, j])
    bitwise, so the matrix can differ from its transpose in the last bit
    where both columns hold ties. A NaN, an infinity or a constant column is
    an error naming the column's index.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("values must be a 2-d array with at least 2 rows")
    return _tau_b(np.ascontiguousarray(v.T))


# pairs are counted in chunks of about this many cells, which stay in cache
_CHUNK_CELLS = 1 << 16
# the count's merges start from sorted blocks of this many cells
_BASE_BLOCK = 16


def _tau_b(columns: np.ndarray) -> np.ndarray:
    """kendall_tau_matrix of the k x n array `columns`, one variable per row.

    Each variable is ranked once. A pair whose variables are both tie-free
    is the gather rank_b[order_a]; a pair with ties is sorted by a, then b.
    Either way the pair becomes a permutation whose inversions are its
    discordant pairs. The tau-b formula is scipy's, term for term.
    """
    k, n = columns.shape
    bad = np.flatnonzero(~np.isfinite(columns).all(axis=1))
    if bad.size:
        raise ValueError(f"column {bad[0]} contains non-finite values")
    order = np.argsort(columns, axis=1)
    steps = np.diff(np.take_along_axis(columns, order, axis=1), axis=1) != 0
    constant = np.flatnonzero(~steps.any(axis=1))
    if constant.size:
        raise ValueError(f"tau undefined for constant column {constant[0]}")
    dense = np.zeros((k, n), dtype=np.int32 if n < 2**31 else np.int64)
    np.cumsum(steps, axis=1, out=dense[:, 1:])
    rank = np.empty_like(dense)  # dense rank of each observation; ordinal where tie-free
    np.put_along_axis(rank, order, dense, axis=1)
    tied = ~steps.all(axis=1)
    ties = np.array([_tied_pairs(np.bincount(r)) if t else 0 for r, t in zip(rank, tied)])

    first, second = np.triu_indices(k, 1)
    dis = np.empty(first.size, dtype=np.int64)
    joint = np.zeros(first.size, dtype=np.int64)
    rows = max(1, _CHUNK_CELLS // n)
    for start in range(0, first.size, rows):
        block = []
        for p in range(start, min(start + rows, first.size)):
            a, b = first[p], second[p]
            if tied[a] or tied[b]:
                seq, joint[p] = _tied_sequence(rank[a], rank[b])
            else:
                seq = rank[b][order[a]]
            block.append(seq)
        dis[start:start + len(block)] = _discordant_pairs(np.stack(block))

    tot = n * (n - 1) // 2
    scale = np.sqrt(tot - ties)
    con_minus_dis = tot - ties[first] - ties[second] + joint - 2 * dis
    tau = np.ones((k, k))
    tau[first, second] = con_minus_dis / scale[first] / scale[second]
    tau[second, first] = con_minus_dis / scale[second] / scale[first]
    return np.clip(tau, -1.0, 1.0)


def _tied_pairs(counts: np.ndarray) -> int:
    """Pairs within groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _tied_sequence(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """A permutation whose inversions are the discordant pairs of dense ranks a and b, and
    the pairs tied in both.

    The permutation lists each observation's position in (a, b) order, taking
    the observations in (b, a) order, with a pair tied in both kept in its
    (a, b) order. A pair tied in a or in b is in the same order in both, so
    only discordant pairs invert.
    """
    n = a.size
    ab = a.astype(np.int64) * n + b
    by_ab = np.argsort(ab)
    position = np.empty(n, dtype=np.int64)
    position[by_ab] = np.arange(n)
    runs = np.diff(np.flatnonzero(np.diff(ab[by_ab], prepend=-1, append=-1)))
    return np.sort(b.astype(np.int64) * n + position) % n, _tied_pairs(runs)


def _discordant_pairs(seq: np.ndarray) -> np.ndarray:
    """Inversions of each row of `seq`, an m x n array whose rows are permutations of 0..n-1.

    A bottom-up merge sort in numpy: rows are padded with n, n+1, ... to a
    power of two, which adds no inversion; blocks of _BASE_BLOCK cells are
    compared cell by cell and sorted, and each merge of two sorted halves of
    S cells counts the pairs it reverses. The right half's cells are tagged
    in the lowest bit; after the merge sort, a right cell at block position q
    that was the j-th of its half passed S - (q - j) left cells, so the block
    adds S*S + S*(S-1)/2 minus the sum of the tagged positions. O(n log n)
    time and O(n) memory per row.
    """
    m, n = seq.shape
    total = np.zeros(m, dtype=np.int64)
    if n < 2:
        return total
    width = 1 << (n - 1).bit_length()
    keys = np.empty((m, width), dtype=np.int32 if width <= 2**30 else np.int64)
    keys[:, :n] = seq
    keys[:, n:] = np.arange(n, width)
    size = min(_BASE_BLOCK, width)
    blocks = keys.reshape(m, -1, size)
    for shift in range(1, size):
        total += np.count_nonzero(blocks[:, :, :-shift] > blocks[:, :, shift:], axis=(1, 2))
    blocks.sort(axis=2)
    keys <<= 1
    # a float dot is exact while every sum of positions stays below 2**53
    position = np.arange(width, dtype=np.float64 if width <= 2**26 else np.int64)
    half = size
    while half < width:
        count = width // (2 * half)
        blocks = keys.reshape(m, count, 2 * half)
        blocks[:, :, half:] |= 1
        blocks.sort(axis=2)
        tags = keys & 1
        # the tagged positions are global; each block's start counts once per right cell
        total += (
            count * (half * half + half * (half - 1) // 2)
            + half * 2 * half * count * (count - 1) // 2
            - (tags @ position).astype(np.int64)
        )
        keys ^= tags
        half *= 2
    return total


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
    write_table_csv(path, ["", *matrix.assets], matrix.assets, matrix.values)


def _read_labeled_matrix(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and values of a labeled square CSV; each row label must match its column.

    Blank lines are skipped. A row with the wrong number of cells, or a cell
    that is not a number, is an error naming the file and the row label; a
    line csv.reader cannot read is one naming the file and the line.
    """
    rows = [row for _, row in csv_rows(input_lines(path), path) if row]
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
