"""Dynamical hierarchical market model.

Returns are r[i,t] = eps[i,t] * x[t] * Y[i,t]: correlated Gaussian noise, a
common lognormal volatility with log-correlated memory, and a multiplicative
risk term Y[i,t] = exp(sum of active Bernoulli risks along leaf i's
dendrogram path). Activating risks heterogeneously across the tree perturbs
every pair correlation by a closed-form factor F <= 1 that depends only on
the non-shared path nodes; this module provides both the simulator and that
closed form so they can be checked against each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from hiermf.dependence import CorrelationMatrix, _read_labeled_matrix
from hiermf.hierarchy import Dendrogram, leaf_path, parse_dendrogram
from hiermf.market_data import ReturnsPanel
from hiermf.scaling import _circulant_sample, _embedding_eigenvalues
from hiermf.util import checked_int, checked_number, checked_type, derived_rng, input_lines

__all__ = [
    "RiskTree",
    "LogVolSpec",
    "Regime",
    "DhmSpec",
    "Activations",
    "SimulationOutput",
    "zeta1",
    "zeta2",
    "xi_covariance",
    "simulate_xi",
    "xi_embedding_report",
    "sample_activations",
    "hierarchical_factor",
    "simulate_returns",
    "simulation_params",
    "sample_correlation",
    "perturbation_factor",
    "theoretical_correlation",
    "draw_probabilities",
    "load_dhm_config",
    "load_dhm_config_dict",
]

MAX_CLIPPED_EIGENVALUE_MASS = 0.01
# rows of noise, activations and the risk factor built at a time by the simulator
BLOCK_ROWS = 16_384


@dataclass(frozen=True)
class RiskTree:
    """Dendrogram whose every internal node carries an activation probability."""

    tree: Dendrogram

    def __post_init__(self):
        missing = [n.id for n in self.tree.nodes if n.p is None]
        if missing:
            raise ValueError(f"risk tree nodes without probabilities: {missing}")

    @property
    def leaves(self) -> tuple[str, ...]:
        return self.tree.leaves

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.tree.nodes)

    def probability(self, node_id: int) -> float:
        return self.tree.node(node_id).p


def draw_probabilities(
    tree: Dendrogram,
    low: float,
    high: float,
    rng: np.random.Generator,
    inherit: Mapping[int, float] | None = None,
) -> RiskTree:
    """Assign node probabilities uniformly in [low, high].

    Nodes whose id appears in `inherit` keep that value, so a risk persisting
    across regimes keeps its probability while new risks draw fresh ones.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"probability range [{low}, {high}] outside [0, 1]")
    inherit = inherit or {}
    probs = {}
    for node in tree.nodes:
        if node.id in inherit:
            probs[node.id] = float(inherit[node.id])
        else:
            probs[node.id] = float(rng.uniform(low, high))
    return RiskTree(tree.with_probabilities(probs))


@dataclass(frozen=True)
class LogVolSpec:
    """Common volatility x = exp(xi): lam sets intermittency, horizon the memory span."""

    lam: float = 0.2
    horizon: int = 800

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.horizon < 2:
            raise ValueError("horizon must be > 1")


def xi_covariance(spec: LogVolSpec, lags: np.ndarray | int) -> np.ndarray:
    """Cov(xi_t, xi_{t+h}) = lam^2 log(horizon / (1+h)), zero from h = horizon-1 on."""
    h = np.atleast_1d(np.asarray(lags, dtype=float))
    cov = spec.lam**2 * np.log(spec.horizon / (1.0 + h))
    return np.where(h >= spec.horizon - 1, 0.0, cov)


def simulate_xi(spec: LogVolSpec, length: int, seed: int | np.random.Generator) -> np.ndarray:
    """Stationary mean-zero Gaussian path with the log-correlated covariance.

    `seed` is a seed or a Generator, which is drawn from as it stands.
    Circulant embedding; negative embedding eigenvalues are clipped to zero
    and the lost mass redistributed, erroring when it exceeds
    MAX_CLIPPED_EIGENVALUE_MASS of the total.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    cov = xi_covariance(spec, np.arange(length + 1))
    sample, clipped = _circulant_sample(cov, np.random.default_rng(seed), clip_negative=True)
    if clipped > MAX_CLIPPED_EIGENVALUE_MASS:
        raise ValueError(
            f"embedding clipped {clipped:.2%} of eigenvalue mass; use a longer path"
        )
    return sample


def xi_embedding_report(spec: LogVolSpec, length: int) -> dict:
    """Achieved-vs-target covariance deviation of the clipped embedding."""
    target = xi_covariance(spec, np.arange(length + 1))
    eig, clipped_mass = _embedding_eigenvalues(target, clip_negative=True)
    achieved = np.fft.ifft(eig).real[: length + 1]
    return {
        "clipped_eigenvalue_mass": clipped_mass,
        "max_abs_covariance_error": float(np.max(np.abs(achieved - target))),
    }


@dataclass(frozen=True)
class Activations:
    """Bernoulli risk draws K[m, t]; one row per tree node, shared by all leaves under it."""

    node_ids: tuple[int, ...]
    values: np.ndarray  # (n_nodes, length) of {0, 1}


def sample_activations(tree: RiskTree, length: int, seed_or_rng) -> Activations:
    """Independent K[m, t] ~ Bernoulli(p_m) across nodes and times.

    `seed_or_rng` is a seed or a Generator, which is drawn from as it stands.
    Drawn one node row at a time straight into uint8; the generator fills
    arrays in C order, so this is the same stream as one (nodes, length) draw.
    """
    rng = np.random.default_rng(seed_or_rng)
    ids = tree.node_ids
    draws = np.empty((len(ids), length), dtype=np.uint8)
    for k, node_id in enumerate(ids):
        np.less(rng.random(length), tree.probability(node_id), out=draws[k])
    return Activations(node_ids=ids, values=draws)


class _ActivationStream:
    """`sample_activations(tree, duration, derived_rng(*key))`, drawn a block of steps at a time.

    Node m reads stream `key` from offset m * duration, through its own
    generator of that stream with the PCG64 state advanced there.
    Generator.random takes one 64-bit output per double, so the blocks of
    successive `fill` calls concatenate to bitwise the whole draw.
    """

    def __init__(self, tree: RiskTree, duration: int, key: tuple[int, ...]):
        self.probabilities = [tree.probability(i) for i in tree.node_ids]
        self._nodes = [derived_rng(*key) for _ in self.probabilities]
        for m, node in enumerate(self._nodes):
            node.bit_generator.advance(m * duration)

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Draw the next out.shape[1] steps of every node into the (nodes, steps) uint8 `out`."""
        for node, p, row in zip(self._nodes, self.probabilities, out):
            np.less(node.random(row.size), p, out=row)
        return out


def hierarchical_factor(tree: RiskTree, activations: Activations, leaf: str, t: int) -> float:
    """Y[leaf, t] = exp(number of active path risks at t)."""
    paths = _leaf_paths(tree, activations.node_ids, (leaf,))
    return float(_risk_factors(paths, activations.values[:, [t]])[0, 0])


def _leaf_paths(tree: RiskTree, node_ids: Sequence[int], leaves: Sequence[str]) -> list[list[int]]:
    """Per leaf, the activation rows (positions in `node_ids`) of its ancestors."""
    index = {node_id: k for k, node_id in enumerate(node_ids)}
    return [[index[i] for i in leaf_path(tree.tree, leaf)] for leaf in leaves]


def _risk_factors(paths: Sequence[Sequence[int]], values: np.ndarray) -> np.ndarray:
    """Y as a (times, leaves) array for the activation columns in `values`.

    Counts each leaf's active ancestors in the narrowest type that holds its
    depth (uint8 for uint8 activations up to depth 255), then reads
    exp(count) from a table.
    """
    depth = max(map(len, paths))
    dtype = np.promote_types(np.min_scalar_type(depth), values.dtype)
    counts = np.zeros((len(paths), values.shape[1]), dtype=dtype)
    for j, path in enumerate(paths):
        for k in path:
            counts[j] += values[k]
    return np.exp(np.arange(depth + 1, dtype=float))[counts.T]


@dataclass(frozen=True)
class Regime:
    """One tranche of the simulation: a risk tree held for `duration` days."""

    tree: RiskTree
    duration: int

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("regime duration must be >= 1")


@dataclass(frozen=True)
class DhmSpec:
    """Full generative specification; identical specs yield identical output.

    `logvol=None` switches the common volatility off (x identically 1),
    leaving only noise and risk activations. The model works on the noise
    *correlation*; when a covariance was supplied, its diagonal is kept in
    `noise_variances` for the record but never enters the simulation.
    """

    noise: CorrelationMatrix
    regimes: tuple[Regime, ...]
    logvol: LogVolSpec | None
    length: int
    seed: int
    noise_variances: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        if not self.regimes:
            raise ValueError("need at least one regime")
        total = sum(r.duration for r in self.regimes)
        if total != self.length:
            raise ValueError(f"regime durations sum to {total}, expected length {self.length}")
        asset_set = set(self.noise.assets)
        for k, regime in enumerate(self.regimes):
            if set(regime.tree.leaves) != asset_set:
                raise ValueError(f"regime {k} leaves do not match the noise correlation assets")


@dataclass(frozen=True)
class SimulationOutput:
    """Simulated panel plus its volatility path x = exp(xi) and each regime's activations."""

    returns: ReturnsPanel
    activations: tuple[Activations, ...]
    x: np.ndarray
    xi: np.ndarray
    regime_starts: tuple[int, ...]


def _noise_transform(noise: CorrelationMatrix) -> np.ndarray:
    """Symmetric square root with tiny negative eigenvalues clipped, unit variances."""
    w, v = np.linalg.eigh(noise.values)
    w = np.clip(w, 0.0, None)
    a = (v * np.sqrt(w)) @ v.T
    scale = np.sqrt(np.einsum("ij,ij->i", a, a))
    return a / scale[:, None]


def _row_blocks(length: int) -> list[tuple[int, int]]:
    """[start, stop) blocks of BLOCK_ROWS rows covering `length`.

    A 1-row tail joins the block before it: BLAS multiplies a single row by a
    matrix-vector kernel whose rounding differs from the matrix-matrix one.
    """
    starts = list(range(0, length, BLOCK_ROWS))
    if len(starts) > 1 and length - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], length]))


def _xi_path(spec: DhmSpec) -> np.ndarray | None:
    """xi over the whole length from stream (seed, 1); None when the volatility is off."""
    if spec.logvol is None:
        return None
    return simulate_xi(spec.logvol, spec.length, derived_rng(spec.seed, 1))


def _return_blocks(
    spec: DhmSpec,
    x: np.ndarray | None,
    out: np.ndarray | None = None,
    activations: Sequence[np.ndarray] | None = None,
) -> Iterator[np.ndarray]:
    """The returns of each `_row_blocks(spec.length)` block, in row order.

    The noise epsilon is one stream (seed, 0) over the whole length. `x` of
    None leaves the volatility out, which is exact when it is identically 1.
    Regime k's activations are stream (seed, 2, k), drawn block by block. A
    block that crosses a regime boundary takes each regime's risk factors
    for its own rows. With `out`, a (length, assets) array, each block is
    written into its rows and yielded as a view; otherwise each block is new.
    With `activations`, one (nodes, duration) uint8 array per regime, the
    draws are written into their columns; otherwise each block's are dropped.
    """
    assets = spec.noise.assets
    transform = _noise_transform(spec.noise)
    eps_rng = derived_rng(spec.seed, 0)
    regimes = []  # (first row, end row, leaf paths, activation stream, activation values)
    t0 = 0
    for k, regime in enumerate(spec.regimes):
        paths = _leaf_paths(regime.tree, regime.tree.node_ids, assets)
        stream = _ActivationStream(regime.tree, regime.duration, (spec.seed, 2, k))
        values = None if activations is None else activations[k]
        regimes.append((t0, t0 + regime.duration, paths, stream, values))
        t0 += regime.duration
    for a, b in _row_blocks(spec.length):
        returns = np.empty((b - a, len(assets))) if out is None else out[a:b]
        np.matmul(eps_rng.standard_normal((b - a, len(assets))), transform, out=returns)
        if x is not None:
            returns *= x[a:b, None]
        for start, end, paths, stream, values in regimes:
            lo, hi = max(a, start), min(b, end)
            if lo < hi:
                if values is None:
                    block = np.empty((len(stream.probabilities), hi - lo), dtype=np.uint8)
                else:
                    block = values[:, lo - start : hi - start]
                returns[lo - a : hi - a] *= _risk_factors(paths, stream.fill(block))
        yield returns


def simulate_returns(spec: DhmSpec) -> SimulationOutput:
    """Sample the model: r = eps * x * Y with eps and x continued across regimes.

    The tree (and so Y) switches per regime; eps and x are single stationary
    paths over the whole length, so only the risk layout changes at a
    boundary. Noise and Y are built in row blocks, so memory beyond the
    returned arrays stays at about one block.
    """
    # x first: the temporaries of its circulant draw are freed before the output exists
    xi = _xi_path(spec)
    if xi is None:
        xi = np.zeros(spec.length)
    x = np.exp(xi)
    activations = tuple(
        Activations(r.tree.node_ids, np.empty((len(r.tree.node_ids), r.duration), dtype=np.uint8))
        for r in spec.regimes
    )

    values = np.empty((spec.length, spec.noise.n_assets))
    for _ in _return_blocks(spec, x, out=values, activations=[a.values for a in activations]):
        pass

    return SimulationOutput(
        returns=ReturnsPanel(assets=spec.noise.assets, times=range(spec.length), values=values),
        activations=activations,
        x=x,
        xi=xi,
        regime_starts=tuple(accumulate((r.duration for r in spec.regimes[:-1]), initial=0)),
    )


def simulation_params(spec: DhmSpec, result: SimulationOutput) -> dict:
    """A run's params.json record: seed and sizes, plus xi's embedding and x's autocovariances."""
    params = {
        "seed": spec.seed,
        "length": spec.length,
        "assets": list(spec.noise.assets),
        "regime_durations": [r.duration for r in spec.regimes],
    }
    if spec.logvol is not None:
        params["lambda"] = spec.logvol.lam
        params["horizon"] = spec.logvol.horizon
        params["xi_embedding"] = xi_embedding_report(spec.logvol, spec.length)
        x_centered = result.x - result.x.mean()
        params["x_autocovariance"] = {
            str(lag): float(x_centered[:-lag] @ x_centered[lag:] / x_centered.size)
            for lag in (1, 5, 10, 50)
            if lag < spec.length
        }
    if spec.noise_variances is not None:
        params["noise_variances"] = [float(v) for v in spec.noise_variances]
    return params


def sample_correlation(spec: DhmSpec) -> np.ndarray:
    """Sample correlation of the returns `simulate_returns(spec)` gives, without holding them.

    Each row block folds into a running count, mean and centred
    cross-product matrix C by the pairwise update of Chan, Golub & LeVeque
    (1983, Am. Stat. 37:242); the result is C / sqrt(outer(diag C, diag C)).
    Memory is x when the volatility is on and a few blocks of returns and
    activations: no (length, assets) or (nodes, length) array is built. It
    agrees with np.corrcoef of the whole panel to rounding, and a column
    with zero variance gives NaN.
    """
    x = None if spec.logvol is None else np.exp(_xi_path(spec))
    n = spec.noise.n_assets
    count, mean, cross = 0, np.zeros(n), np.zeros((n, n))
    for returns in _return_blocks(spec, x):
        rows = returns.shape[0]
        block_mean = returns.mean(axis=0)
        returns -= block_mean
        delta = block_mean - mean
        total = count + rows
        cross += returns.T @ returns
        cross += np.outer(delta, delta) * (count * rows / total)
        mean += delta * (rows / total)
        count = total
    scale = np.sqrt(np.diag(cross))
    return cross / np.outer(scale, scale)


E1 = math.e - 1.0
E2 = math.e**2 - 1.0


def _exp_bernoulli_moment(p, e_minus_one: float):
    """p(c - 1) + 1, the mean of exp(kK) for K ~ Bernoulli(p) and c = e^k."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p must lie in [0, 1]")
    out = p * e_minus_one + 1.0
    return float(out) if out.ndim == 0 else out


def zeta1(p):
    """First moment of exp(K) for K ~ Bernoulli(p): p(e-1) + 1."""
    return _exp_bernoulli_moment(p, E1)


def zeta2(p):
    """Second moment of exp(K) for K ~ Bernoulli(p): p(e^2-1) + 1."""
    return _exp_bernoulli_moment(p, E2)


def _perturbation_matrix(tree: RiskTree, leaves: Sequence[str]) -> np.ndarray:
    """F[i, j] for every pair of `leaves`, with a unit diagonal.

    Each leaf carries a running product of zeta1 / sqrt(zeta2) over its
    ancestors, multiplied in from the leaf upward. The leaves under a node's
    two children meet at that node, so a pair's factor is the product of
    their two running values there: exactly the non-shared path nodes. Nodes
    above the lowest common ancestor never enter the arithmetic.
    """
    unknown = set(leaves) - set(tree.leaves)
    if unknown:
        raise ValueError(f"unknown leaf {sorted(unknown)[0]!r}")
    f = np.eye(len(leaves))
    # leaf or node -> (positions of the leaves under it, their running products)
    below = {leaf: (np.array([k]), np.ones(1)) for k, leaf in enumerate(leaves)}
    nothing = (np.empty(0, dtype=int), np.empty(0))
    # reversed pre-order visits children before parents
    nodes = [tree.tree.node(i) for i in reversed(tree.tree._preorder)]
    p = np.array([node.p for node in nodes])
    for node, g in zip(nodes, (zeta1(p) / np.sqrt(zeta2(p))).tolist()):
        (li, lp), (ri, rp) = below.pop(node.left, nothing), below.pop(node.right, nothing)
        f[np.ix_(li, ri)] = np.outer(lp, rp)
        f[np.ix_(ri, li)] = f[np.ix_(li, ri)].T
        below[node.id] = (np.concatenate((li, ri)), np.concatenate((lp, rp)) * g)
    return f


def perturbation_factor(tree: RiskTree, leaf_i: str, leaf_j: str) -> float:
    """Correlation shrinkage from non-shared path risks.

    Product of zeta1 / sqrt(zeta2) over the symmetric difference of the two
    leaf paths. Shared ancestors cancel exactly; all-zero or all-one
    probabilities give 1.
    """
    if leaf_i == leaf_j:
        raise ValueError("perturbation factor is defined for distinct leaves")
    return float(_perturbation_matrix(tree, (leaf_i, leaf_j))[0, 1])


def _noise_from_config(noise_cfg, leaves: tuple[str, ...], base_dir):
    """Noise correlation plus per-asset variances when a covariance file is given.

    Files may hold either a correlation or a covariance matrix; covariances
    are normalized to unit diagonal and the variances kept separately.
    """
    if noise_cfg is not None:
        checked_type(noise_cfg, Mapping, "model config key 'noise'", "an object")
    if noise_cfg is None or noise_cfg.get("identity"):
        return CorrelationMatrix(assets=leaves, values=np.eye(len(leaves))), None
    if "constant" in noise_cfg:
        c = checked_number(noise_cfg["constant"], "model config key 'noise.constant'")
        values = np.full((len(leaves), len(leaves)), c)
        np.fill_diagonal(values, 1.0)
        return CorrelationMatrix(assets=leaves, values=values), None
    if "file" in noise_cfg:
        path = base_dir / checked_type(
            noise_cfg["file"], str, "model config key 'noise.file'", "a file name"
        )
        assets, values = _read_labeled_matrix(path)
        diag = np.diag(values).copy()
        if np.allclose(diag, 1.0, atol=1e-12):
            return CorrelationMatrix(assets=assets, values=values), None
        for asset, variance in zip(assets, diag):
            if not (math.isfinite(variance) and variance > 0):
                raise ValueError(
                    f"{path}: variance of {asset!r} is {variance}; it must be finite and positive"
                )
        scale = np.sqrt(diag)
        corr = values / np.outer(scale, scale)
        corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(corr, 1.0)
        return CorrelationMatrix(assets=assets, values=corr), diag
    raise ValueError(f"unrecognized noise specification {noise_cfg!r}")


def _risk_tree_from_config(
    tree: Dendrogram,
    p_range: tuple[float, float] | None,
    inherit: Mapping[int, float] | None,
    rng: np.random.Generator,
) -> RiskTree:
    """Probabilities: explicit file value, then inherited, then drawn from p_range."""
    known = {**(inherit or {}), **{n.id: n.p for n in tree.nodes if n.p is not None}}
    if p_range is None:
        missing = [n.id for n in tree.nodes if n.id not in known]
        if missing:
            raise ValueError(
                f"node {missing[0]} has no probability; set 'p' in the tree file or "
                "'p_range' on the regime"
            )
        p_range = (0.0, 1.0)  # every node is known, so nothing is drawn
    return draw_probabilities(tree, *p_range, rng, inherit=known)


def load_dhm_config_dict(config: Mapping, base_dir, seed_override: int | None = None) -> DhmSpec:
    """Build a DhmSpec from a parsed config mapping (see README for the schema).

    Tree and correlation files resolve relative to `base_dir`. Missing node
    probabilities draw from the regime's p_range with a stream derived from
    the seed; by default a node id seen in the previous regime keeps its value.
    Integer keys must hold JSON integers and real ones JSON numbers (never a
    bool or a string), and every other key its own JSON type; an error names
    the key and, inside a regime, its index.
    """
    base_dir = Path(base_dir)
    for key in ("length", "regimes"):
        if key not in config:
            raise ValueError(f"model config missing key {key!r}")
    if seed_override is not None:
        seed = int(seed_override)
    elif config.get("seed") is None:
        raise ValueError("model config needs a seed")
    else:
        seed = checked_int(config["seed"], "model config key 'seed'", 0)
    length = checked_int(config["length"], "model config key 'length'")

    logvol_cfg = config.get("logvol", {})
    if logvol_cfg is None:
        logvol = None
    else:
        checked_type(logvol_cfg, Mapping, "model config key 'logvol'", "an object or null")
        lam = checked_number(logvol_cfg.get("lambda", 0.2), "model config key 'logvol.lambda'")
        horizon = checked_int(logvol_cfg.get("horizon", 800), "model config key 'logvol.horizon'")
        logvol = LogVolSpec(lam=lam, horizon=horizon)

    regimes = []
    previous: dict[int, float] | None = None
    regime_cfgs = checked_type(
        config["regimes"], (list, tuple), "model config key 'regimes'", "a list"
    )
    if not regime_cfgs:
        raise ValueError("model config key 'regimes' must list at least one regime")
    for k, regime_cfg in enumerate(regime_cfgs):
        checked_type(regime_cfg, Mapping, f"regime {k}", "an object")
        if "tree" not in regime_cfg or "duration" not in regime_cfg:
            raise ValueError(f"regime {k} needs 'tree' and 'duration'")
        duration = checked_int(regime_cfg["duration"], f"regime {k} key 'duration'")
        tree_file = checked_type(regime_cfg["tree"], str, f"regime {k} key 'tree'", "a file name")
        tree = parse_dendrogram(base_dir / tree_file)
        p_range = regime_cfg.get("p_range")
        if p_range is not None:
            name = f"regime {k} key 'p_range'"
            if not isinstance(p_range, (list, tuple)) or len(p_range) != 2:
                raise ValueError(f"{name} must be [low, high], got {p_range!r}")
            p_range = tuple(checked_number(p, f"{name} entry {i}") for i, p in enumerate(p_range))
        inherit_previous = checked_type(
            regime_cfg.get("inherit_previous", True), bool,
            f"regime {k} key 'inherit_previous'", "true or false",
        )
        inherit = previous if inherit_previous else None
        risk_tree = _risk_tree_from_config(
            tree, p_range, inherit, derived_rng(seed, 3, k)
        )
        previous = {i: risk_tree.probability(i) for i in risk_tree.node_ids}
        regimes.append(Regime(tree=risk_tree, duration=duration))

    leaves = tuple(sorted(regimes[0].tree.leaves))
    noise, variances = _noise_from_config(config.get("noise"), leaves, base_dir)
    return DhmSpec(
        noise=noise,
        regimes=tuple(regimes),
        logvol=logvol,
        length=length,
        seed=seed,
        noise_variances=variances,
    )


def load_dhm_config(path) -> DhmSpec:
    """Read a model spec JSON file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        config = json.loads("".join(input_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc} (at {path})") from exc
    return load_dhm_config_dict(config, path.parent)


def theoretical_correlation(noise: CorrelationMatrix, tree: RiskTree) -> CorrelationMatrix:
    """Model correlation: entrywise noise correlation times the perturbation factor."""
    if set(noise.assets) != set(tree.leaves):
        raise ValueError("correlation assets do not match tree leaves")
    upper = np.triu(noise.values * _perturbation_matrix(tree, noise.assets), k=1)
    values = upper + upper.T + np.eye(noise.n_assets)
    return CorrelationMatrix(assets=noise.assets, values=values, scheme=noise.scheme)
