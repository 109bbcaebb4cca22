import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import equicorrelation, one_factor_correlation
from hiermf import dhm
from hiermf.dependence import CorrelationMatrix
from hiermf.dhm import (
    BLOCK_ROWS,
    Activations,
    DhmSpec,
    LogVolSpec,
    Regime,
    RiskTree,
    draw_probabilities,
    hierarchical_factor,
    load_dhm_config,
    perturbation_factor,
    sample_activations,
    simulate_returns,
    simulate_xi,
    theoretical_correlation,
    xi_covariance,
    xi_embedding_report,
    zeta1,
    zeta2,
)
from hiermf.hierarchy import (
    Dendrogram, comb_tree, leaf_path, order_profile, parse_dendrogram, random_binary_tree, serialize_dendrogram,
)
from hiermf.scaling import _circulant_sample
from hiermf.util import derived_rng

E = math.e


def risk_comb(n, p, labels=None):
    tree = comb_tree(n, labels)
    return RiskTree(tree.with_probabilities({node.id: p for node in tree.nodes}))


# --- moment helpers ---


def test_zeta_endpoints():
    assert zeta1(0.0) == 1.0 and zeta2(0.0) == 1.0
    assert zeta1(1.0) == pytest.approx(E)
    assert zeta2(1.0) == pytest.approx(E**2)


def test_zeta_midpoint():
    assert zeta1(0.5) == pytest.approx(1.8591409142295225, abs=1e-12)
    assert zeta2(0.5) == pytest.approx(4.194528049465324, abs=1e-12)


def test_zeta_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            zeta1(bad)
        with pytest.raises(ValueError):
            zeta2(bad)


def test_zeta_vectorized():
    p = np.linspace(0, 1, 11)
    assert zeta1(p).shape == (11,)
    assert np.all(zeta1(p) ** 2 <= zeta2(p) + 1e-12)


def reference_zeta(p, e_minus_one):
    """zeta1 (e - 1) and zeta2 (e^2 - 1) as each was written before they shared a body."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p must lie in [0, 1]")
    out = p * e_minus_one + 1.0
    return float(out) if out.ndim == 0 else out


def reference_perturbation_matrix(tree, leaves):
    """_perturbation_matrix with its own scalar (p(e-1)+1)/sqrt(p(e^2-1)+1) per node."""
    f = np.eye(len(leaves))
    below = {leaf: (np.array([k]), np.ones(1)) for k, leaf in enumerate(leaves)}
    nothing = (np.empty(0, dtype=int), np.empty(0))
    nodes, stack = [], [tree.tree.root]
    while stack:
        nodes.append(tree.tree.node(stack.pop()))
        stack.extend(c for c in (nodes[-1].left, nodes[-1].right) if isinstance(c, int))
    for node in reversed(nodes):
        (li, lp), (ri, rp) = below.pop(node.left, nothing), below.pop(node.right, nothing)
        f[np.ix_(li, ri)] = np.outer(lp, rp)
        f[np.ix_(ri, li)] = f[np.ix_(li, ri)].T
        g = (node.p * dhm.E1 + 1.0) / math.sqrt(node.p * dhm.E2 + 1.0)
        below[node.id] = (np.concatenate((li, ri)), np.concatenate((lp, rp)) * g)
    return f


def test_zeta_and_perturbation_are_bitwise_equal_to_the_old_formulas(tmp_path):
    rng = np.random.default_rng(23)
    p = np.concatenate(([0.0, 1.0, 0.5], rng.random(1000)))
    for new, e_minus_one in ((zeta1, dhm.E1), (zeta2, dhm.E2)):
        assert np.array_equal(new(p), reference_zeta(p, e_minus_one))
        assert all(new(float(v)) == reference_zeta(float(v), e_minus_one) for v in p[:50])
    for n_leaves in (2, 3, 9, 40):
        labels = [f"L{i}" for i in range(n_leaves)]
        tree = draw_probabilities(random_binary_tree(n_leaves, rng, labels), 0.0, 1.0, rng)
        leaves = list(rng.permutation(labels))
        assert np.array_equal(
            dhm._perturbation_matrix(tree, leaves), reference_perturbation_matrix(tree, leaves)
        )
    # the last tree again, read from JSON that lists its nodes root-first instead of in merge order
    serialize_dendrogram(tree.tree, tmp_path / "tree.json")
    payload = json.loads((tmp_path / "tree.json").read_text())
    (tmp_path / "tree.json").write_text(json.dumps({**payload, "nodes": payload["nodes"][::-1]}))
    root_first = RiskTree(parse_dendrogram(tmp_path / "tree.json"))
    assert root_first.tree.nodes[0].id == root_first.tree.root
    assert np.array_equal(
        dhm._perturbation_matrix(root_first, leaves), reference_perturbation_matrix(root_first, leaves)
    )


# --- log-correlated volatility ---


def test_xi_covariance_shape():
    spec = LogVolSpec()
    assert xi_covariance(spec, 0)[0] == pytest.approx(0.04 * math.log(800.0))
    assert xi_covariance(spec, spec.horizon - 1)[0] == 0.0
    assert xi_covariance(spec, spec.horizon)[0] == 0.0
    assert xi_covariance(spec, 10 * spec.horizon)[0] == 0.0


def test_xi_variance_matches_target():
    spec = LogVolSpec()
    second_moments = [np.mean(simulate_xi(spec, 2048, seed) ** 2) for seed in range(500)]
    assert np.mean(second_moments) == pytest.approx(0.04 * math.log(800.0), abs=0.01)


def test_xi_deterministic():
    spec = LogVolSpec()
    assert np.array_equal(simulate_xi(spec, 1024, 3), simulate_xi(spec, 1024, 3))


def test_xi_takes_a_seed_or_a_generator_and_any_positive_length():
    spec = LogVolSpec()
    assert np.array_equal(simulate_xi(spec, 1024, np.random.default_rng(3)), simulate_xi(spec, 1024, 3))
    assert simulate_xi(spec, 1, 3).shape == (1,)
    with pytest.raises(ValueError, match="length must be >= 1"):
        simulate_xi(spec, 0, 3)


def test_xi_embedding_is_clean_at_default_parameters():
    report = xi_embedding_report(LogVolSpec(), 4026)
    assert report["clipped_eigenvalue_mass"] <= 0.0 + 1e-15
    assert report["max_abs_covariance_error"] < 1e-12


def test_circulant_guard_and_clipping():
    # an indefinite "covariance" exercises both the error and the clip path
    bad = np.array([1.0, 0.9, -0.9, 0.9, -0.9, 0.9])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        _circulant_sample(bad, rng, clip_negative=False)
    _, clipped = _circulant_sample(bad, rng, clip_negative=True)
    assert clipped > 0


def test_x_mean_matches_lognormal_identity():
    spec = LogVolSpec()
    means = [np.mean(np.exp(simulate_xi(spec, 2048, seed))) for seed in range(500)]
    assert np.mean(means) == pytest.approx(1.1430409769881058, abs=0.02)


def test_logvol_validation():
    with pytest.raises(ValueError):
        LogVolSpec(lam=0.0)
    with pytest.raises(ValueError):
        LogVolSpec(horizon=1)


# --- activations and the hierarchical factor ---


def test_activations_all_off_and_all_on():
    for p, expected in ((0.0, 0), (1.0, 1)):
        acts = sample_activations(risk_comb(5, p), 200, seed_or_rng=1)
        assert np.all(acts.values == expected)


def test_activation_rates_in_binomial_band():
    acts = sample_activations(risk_comb(8, 0.5), 100_000, seed_or_rng=2)
    rates = acts.values.mean(axis=1)
    assert np.all((rates >= 0.494) & (rates <= 0.506))


def test_activations_take_a_seed_or_a_generator():
    tree = risk_comb(6, 0.5)
    by_seed = sample_activations(tree, 300, seed_or_rng=4)
    by_rng = sample_activations(tree, 300, seed_or_rng=np.random.default_rng(4))
    assert np.array_equal(by_seed.values, by_rng.values)


def test_hierarchical_factor_counts_active_ancestors(example_tree):
    tree = RiskTree(example_tree)
    ids = tuple(n.id for n in example_tree.nodes)
    values = np.zeros((len(ids), 1), dtype=np.uint8)
    acts = Activations(node_ids=ids, values=values)
    assert hierarchical_factor(tree, acts, "i", 0) == pytest.approx(1.0)

    values[ids.index(10), 0] = 1
    values[ids.index(4), 0] = 1
    assert hierarchical_factor(tree, acts, "i", 0) == pytest.approx(E**2)

    for node_id in (1, 2, 4, 5, 8, 10):
        values[ids.index(node_id), 0] = 1
    assert hierarchical_factor(tree, acts, "i", 0) == pytest.approx(E**6)


def test_factor_ignores_off_path_nodes(example_tree):
    tree = RiskTree(example_tree)
    ids = tuple(n.id for n in example_tree.nodes)
    values = np.zeros((len(ids), 1), dtype=np.uint8)
    for node_id in (3, 6, 7, 9):  # none of these sit above leaf i
        values[ids.index(node_id), 0] = 1
    acts = Activations(node_ids=ids, values=values)
    assert hierarchical_factor(tree, acts, "i", 0) == pytest.approx(1.0)


def test_risk_tree_requires_probabilities(example_tree):
    bare = comb_tree(3)
    with pytest.raises(ValueError, match="without probabilities"):
        RiskTree(bare)
    RiskTree(example_tree)  # fixture carries p on every node


# --- the closed-form perturbation ---


def test_perturbation_empty_difference_is_one():
    # the two deepest comb leaves share their entire ancestor chain
    tree = risk_comb(4, 0.37, ["a", "b", "c", "d"])
    assert perturbation_factor(tree, "a", "b") == 1.0


def test_perturbation_limit_probabilities():
    for p in (0.0, 1.0):
        tree = risk_comb(6, p)
        leaves = tree.leaves
        assert perturbation_factor(tree, leaves[0], leaves[-1]) == pytest.approx(1.0)


def test_perturbation_single_node():
    # ((i, k), j): i and j differ by exactly one node, i's parent
    tree = comb_tree(3, ["i", "k", "j"])
    probs = {node.id: 0.5 for node in tree.nodes}
    rt = RiskTree(tree.with_probabilities(probs))
    assert perturbation_factor(rt, "i", "j") == pytest.approx(0.907759404705863, abs=1e-12)


def test_perturbation_below_one_for_intermediate_p():
    rng = np.random.default_rng(5)
    tree = draw_probabilities(random_binary_tree(10, rng), 0.2, 0.8, rng)
    leaves = tree.leaves
    for i in range(3):
        f = perturbation_factor(tree, leaves[i], leaves[-1 - i])
        assert 0 < f <= 1.0


def test_perturbation_distinct_leaves_required():
    tree = risk_comb(3, 0.5)
    with pytest.raises(ValueError):
        perturbation_factor(tree, tree.leaves[0], tree.leaves[0])


def test_perturbation_monte_carlo_cross_check():
    tree = comb_tree(3, ["i", "k", "j"])
    rt = RiskTree(tree.with_probabilities({node.id: 0.5 for node in tree.nodes}))
    noise = equicorrelation(sorted(["i", "k", "j"]), rho=0.6)
    spec = DhmSpec(noise=noise, regimes=(Regime(rt, 10**6),), logvol=None, length=10**6, seed=17)
    out = simulate_returns(spec)
    sample = np.corrcoef(out.returns.values.T)
    i_col = out.returns.assets.index("i")
    j_col = out.returns.assets.index("j")
    assert sample[i_col, j_col] == pytest.approx(0.6 * 0.907759404705863, abs=0.005)


def test_theoretical_correlation_values():
    tree = comb_tree(3, ["i", "k", "j"])
    rt = RiskTree(tree.with_probabilities({node.id: 0.5 for node in tree.nodes}))
    noise = equicorrelation(["i", "j", "k"], rho=0.6)
    theory = theoretical_correlation(noise, rt)
    i, j = theory.assets.index("i"), theory.assets.index("j")
    assert theory.values[i, j] == pytest.approx(0.5446556428235177, abs=1e-12)
    assert np.all(np.abs(theory.values) <= np.abs(noise.values) + 1e-15)
    assert np.all(np.diag(theory.values) == 1.0)


def test_theoretical_correlation_all_on_equals_noise():
    rng = np.random.default_rng(6)
    labels = [f"A{i}" for i in range(7)]
    tree = draw_probabilities(random_binary_tree(7, rng, labels), 1.0, 1.0, rng)
    noise = one_factor_correlation(labels, rng)
    assert np.allclose(theoretical_correlation(noise, tree).values, noise.values, atol=1e-14)


def _pairwise_loop_correlation(noise, tree):
    """Reference: the pair-by-pair double loop the matrix kernel replaced."""
    assets = noise.assets
    paths = {leaf: frozenset(leaf_path(tree.tree, leaf)) for leaf in assets}
    probs = {node_id: tree.probability(node_id) for node_id in tree.node_ids}
    n = len(assets)
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            diff = paths[assets[i]] ^ paths[assets[j]]
            f = 1.0
            for m in diff:
                p = probs[m]
                f *= (p * (E - 1.0) + 1.0) / math.sqrt(p * (E**2 - 1.0) + 1.0)
            values[i, j] = values[j, i] = noise.values[i, j] * f
    return values


@pytest.mark.parametrize("n_leaves", [2, 3, 17, 120, 400])
def test_theoretical_correlation_matches_pairwise_loop(n_leaves):
    rng = np.random.default_rng(n_leaves)
    labels = [f"A{i:03d}" for i in range(n_leaves)]
    shape = comb_tree(n_leaves, labels) if n_leaves == 120 else random_binary_tree(n_leaves, rng, labels)
    tree = draw_probabilities(shape, 0.0, 1.0, rng)
    noise = one_factor_correlation(labels, rng)
    theory = theoretical_correlation(noise, tree).values
    reference = _pairwise_loop_correlation(noise, tree)
    assert np.max(np.abs(theory - reference)) <= 1e-14
    assert np.array_equal(theory, theory.T) and np.all(np.diag(theory) == 1.0)
    for i, j in ((0, n_leaves - 1), (n_leaves // 2, 0)):
        if i != j:
            f = perturbation_factor(tree, labels[i], labels[j])
            assert f == pytest.approx(reference[i, j] / noise.values[i, j], abs=1e-14)


def test_perturbation_factor_unknown_leaf():
    tree = risk_comb(3, 0.5)
    with pytest.raises(ValueError, match="unknown leaf"):
        perturbation_factor(tree, tree.leaves[0], "nope")


def test_shared_ancestor_cancellation():
    rng = np.random.default_rng(7)
    base = random_binary_tree(6, rng)
    probs = {n.id: float(rng.random()) for n in base.nodes}
    rt = RiskTree(base.with_probabilities(probs))
    f_before = perturbation_factor(rt, base.leaves[0], base.leaves[3])
    # wrap the whole tree under a fresh root: a risk shared by everyone
    from hiermf.hierarchy import Dendrogram, TreeNode

    new_root = max(n.id for n in base.nodes) + 1
    wrapped = Dendrogram(
        leaves=base.leaves + ("extra",),
        nodes=base.nodes
        + (TreeNode(new_root, base.root, "extra", max(n.height for n in base.nodes) + 1.0),),
        root=new_root,
    )
    probs[new_root] = 0.77
    wrapped_rt = RiskTree(wrapped.with_probabilities(probs))
    assert perturbation_factor(wrapped_rt, base.leaves[0], base.leaves[3]) == f_before


# --- the simulator ---


def test_degenerate_limit_is_standard_gaussian():
    labels = ["a", "b"]
    tree = risk_comb(2, 0.0, labels)
    spec = DhmSpec(
        noise=CorrelationMatrix(assets=tuple(labels), values=np.eye(2)),
        regimes=(Regime(tree, 100_000),),
        logvol=None,
        length=100_000,
        seed=4,
    )
    vals = simulate_returns(spec).returns.values
    assert np.mean(vals[:, 0]) == pytest.approx(0.0, abs=0.02)
    assert np.var(vals[:, 0]) == pytest.approx(1.0, abs=0.02)
    kurt = np.mean((vals[:, 0] - vals[:, 0].mean()) ** 4) / np.var(vals[:, 0]) ** 2 - 3
    assert kurt == pytest.approx(0.0, abs=0.1)
    corr = np.corrcoef(vals.T)[0, 1]
    assert corr == pytest.approx(0.0, abs=0.02)


def test_all_on_equals_scaled_all_off():
    # with shared seed the draws coincide, so p=1 output is exactly the p=0
    # output scaled by exp(order) per asset
    labels = [f"x{i}" for i in range(5)]
    noise = equicorrelation(labels, 0.4)
    on = risk_comb(5, 1.0, labels)
    off = risk_comb(5, 0.0, labels)
    orders = order_profile(on.tree)
    base = dict(logvol=LogVolSpec(), length=5000, seed=21)
    out_on = simulate_returns(DhmSpec(noise=noise, regimes=(Regime(on, 5000),), **base))
    out_off = simulate_returns(DhmSpec(noise=noise, regimes=(Regime(off, 5000),), **base))
    factors = np.array([math.exp(orders[a]) for a in out_on.returns.assets])
    assert np.allclose(out_on.returns.values, out_off.returns.values * factors, rtol=1e-12)


def test_reconstruction_from_logs():
    rng = np.random.default_rng(8)
    labels = [f"A{i}" for i in range(6)]
    tree = draw_probabilities(random_binary_tree(6, rng, labels), 0.2, 0.8, rng)
    noise = one_factor_correlation(labels, rng)
    spec = DhmSpec(noise=noise, regimes=(Regime(tree, 3000),), logvol=LogVolSpec(), length=3000, seed=9)
    out = simulate_returns(spec)
    epsilon = reference_simulate_returns(spec)[1]
    paths = {leaf: frozenset(leaf_path(tree.tree, leaf)) for leaf in labels}
    ids = out.activations[0].node_ids
    for j, asset in enumerate(out.returns.assets):
        rows = [ids.index(i) for i in paths[asset]]
        y = np.exp(out.activations[0].values[rows].sum(axis=0))
        expected = epsilon[:, j] * out.x * y
        assert np.allclose(out.returns.values[:, j], expected, atol=1e-12)


def test_epsilon_and_x_continue_across_regimes():
    """A second regime switches only Y: the returns are the one-regime run's eps * x times Y."""
    labels = [f"A{i}" for i in range(4)]
    rng = np.random.default_rng(10)
    tree = draw_probabilities(random_binary_tree(4, rng, labels), 0.3, 0.7, rng)
    noise = equicorrelation(labels, 0.25)
    one = DhmSpec(noise=noise, regimes=(Regime(tree, 2000),), logvol=LogVolSpec(), length=2000, seed=5)
    two = DhmSpec(
        noise=noise,
        regimes=(Regime(tree, 900), Regime(tree, 1100)),
        logvol=LogVolSpec(),
        length=2000,
        seed=5,
    )
    a, b = simulate_returns(one), simulate_returns(two)
    assert np.array_equal(a.x, b.x)
    assert b.regime_starts == (0, 900)
    expected = reference_simulate_returns(one)[1] * a.x[:, None]
    for regime, acts, t0 in zip(two.regimes, b.activations, b.regime_starts):
        expected[t0 : t0 + regime.duration] *= reference_leaf_factors(regime.tree, acts, labels)
    assert_bitwise(b.returns.values, expected)


def test_simulation_deterministic():
    rng = np.random.default_rng(11)
    labels = [f"A{i}" for i in range(5)]
    tree = draw_probabilities(random_binary_tree(5, rng, labels), 0.0, 1.0, rng)
    spec = DhmSpec(
        noise=one_factor_correlation(labels, rng),
        regimes=(Regime(tree, 1500),),
        logvol=LogVolSpec(),
        length=1500,
        seed=123,
    )
    a, b = simulate_returns(spec), simulate_returns(spec)
    assert np.array_equal(a.returns.values, b.returns.values)
    assert np.array_equal(a.activations[0].values, b.activations[0].values)


def test_spec_validation():
    labels = ["a", "b", "c"]
    tree = risk_comb(3, 0.5, labels)
    noise = equicorrelation(labels, 0.2)
    with pytest.raises(ValueError, match="durations"):
        DhmSpec(noise=noise, regimes=(Regime(tree, 10),), logvol=None, length=20, seed=0)
    other = equicorrelation(["a", "b", "d"], 0.2)
    with pytest.raises(ValueError, match="leaves"):
        DhmSpec(noise=other, regimes=(Regime(tree, 10),), logvol=None, length=10, seed=0)


def test_median_correlation_shift():
    rng = np.random.default_rng(12)
    labels = [f"A{i}" for i in range(12)]
    base = random_binary_tree(12, rng, labels)
    noise = one_factor_correlation(labels, rng)
    medians = {}
    for tag, (lo, hi) in {"hier": (0.1, 0.4), "flat": (1.0, 1.0)}.items():
        tree = draw_probabilities(base, lo, hi, derived_rng(3, tag == "hier"))
        spec = DhmSpec(noise=noise, regimes=(Regime(tree, 4026),), logvol=LogVolSpec(), length=4026, seed=6)
        corr = np.corrcoef(simulate_returns(spec).returns.values.T)
        medians[tag] = np.median(corr[np.triu_indices(12, 1)])
    assert medians["hier"] < medians["flat"]


# --- the block simulator against the whole-array oracle ---


def reference_sample_activations(tree, length, rng):
    """The (nodes, length) float64 draw that sample_activations replaced.

    Kept only as the oracle for the row-at-a-time uint8 draw.
    """
    ids = tree.node_ids
    probs = np.array([tree.probability(i) for i in ids])
    draws = (rng.random((len(ids), length)) < probs[:, None]).astype(np.uint8)
    return Activations(node_ids=ids, values=draws)


def reference_leaf_factors(tree, activations, leaves):
    """Y as a (length, n_leaves) array; exp of per-time active-ancestor counts."""
    index = {node_id: k for k, node_id in enumerate(activations.node_ids)}
    length = activations.values.shape[1]
    counts = np.zeros((len(leaves), length), dtype=np.int64)
    for j, leaf in enumerate(leaves):
        for node_id in leaf_path(tree.tree, leaf):
            counts[j] += activations.values[index[node_id]]
    return np.exp(counts.T.astype(float))


def reference_simulate_returns(spec):
    """The whole-array simulator that simulate_returns replaced.

    Kept only as the oracle for the block simulator. Returns
    (returns, epsilon, x, xi, activation arrays).
    """
    assets = spec.noise.assets
    z = derived_rng(spec.seed, 0).standard_normal((spec.length, len(assets)))
    epsilon = z @ dhm._noise_transform(spec.noise)
    if spec.logvol is None:
        xi = np.zeros(spec.length)
    else:
        xi = dhm.simulate_xi(spec.logvol, spec.length, derived_rng(spec.seed, 1))
    x = np.exp(xi)
    values = epsilon * x[:, None]
    activations = []
    t0 = 0
    for k, regime in enumerate(spec.regimes):
        acts = reference_sample_activations(regime.tree, regime.duration, derived_rng(spec.seed, 2, k))
        activations.append(acts.values)
        values[t0 : t0 + regime.duration] *= reference_leaf_factors(regime.tree, acts, assets)
        t0 += regime.duration
    return values, epsilon, x, xi, activations


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def oracle_spec(length, n_regimes, logvol, n_leaves=6, seed=0):
    """Regimes of unequal length on fresh random trees; boundaries miss the block grid."""
    rng = derived_rng(seed, length, n_regimes)
    labels = [f"A{i}" for i in range(n_leaves)]
    cuts = [
        min(length * (k + 1) // n_regimes + 7, length - (n_regimes - 1 - k))
        for k in range(n_regimes - 1)
    ]
    bounds = [0, *cuts, length]
    regimes = tuple(
        Regime(
            tree=draw_probabilities(random_binary_tree(n_leaves, rng, labels), 0.05, 0.95, rng),
            duration=b - a,
        )
        for a, b in zip(bounds, bounds[1:])
    )
    return DhmSpec(
        noise=one_factor_correlation(labels, rng),
        regimes=regimes,
        logvol=LogVolSpec() if logvol else None,
        length=length,
        seed=int(rng.integers(0, 2**63)),
    )


B = BLOCK_ROWS
# The whole-panel comparisons run at and around multiples of SPAN, a whole
# number of blocks, so each length sits on, one short of or one past a block
# edge. SPAN is fixed so that their test ids do not move with the block size.
SPAN = 65_536
assert SPAN % B == 0


@pytest.mark.parametrize(
    "length, n_regimes, logvol",
    [
        (1, 1, False),
        (1, 1, True),
        (2, 2, False),
        (2, 1, True),
        (SPAN - 1, 3, True),
        (SPAN, 2, False),
        (SPAN + 1, 1, True),  # a 1-row tail would go through BLAS gemv
        (SPAN + 1, 3, False),
        (SPAN + 2, 2, True),
        (2 * SPAN - 1, 1, False),
        (2 * SPAN, 3, True),
        (2 * SPAN + 1, 2, True),
    ],
)
def test_block_simulator_is_bitwise_equal_to_oracle(length, n_regimes, logvol):
    spec = oracle_spec(length, n_regimes, logvol)
    out = simulate_returns(spec)
    values, _, x, xi, activations = reference_simulate_returns(spec)
    assert_bitwise(out.returns.values, values)
    assert_bitwise(out.x, x)
    assert_bitwise(out.xi, xi)
    assert len(out.activations) == len(activations)
    for acts, expected in zip(out.activations, activations):
        assert_bitwise(acts.values, expected)


@pytest.mark.parametrize("length", [1, B - 1, B, B + 1, 2 * B + 1])
def test_block_activation_draws_concatenate_to_sample_activations(monkeypatch, length):
    """The blocks sample_correlation draws are the whole-regime draw, cut at the block grid."""
    spec = oracle_spec(length, min(length, 3), False)
    blocks = {}  # activation stream -> its blocks, in regime order
    fill = dhm._ActivationStream.fill

    def recording_fill(stream, out):
        blocks.setdefault(stream, []).append(fill(stream, out).copy())
        return out

    monkeypatch.setattr(dhm._ActivationStream, "fill", recording_fill)
    with np.errstate(invalid="ignore"):  # one row has no variance
        dhm.sample_correlation(spec)
    assert len(blocks) == len(spec.regimes)
    for k, (regime, drawn) in enumerate(zip(spec.regimes, blocks.values())):
        assert all(block.shape[1] <= B for block in drawn)
        expected = sample_activations(regime.tree, regime.duration, derived_rng(spec.seed, 2, k))
        assert_bitwise(np.concatenate(drawn, axis=1), expected.values)


def test_row_blocks_never_leave_a_single_row():
    for length in (1, 2, B - 1, B, B + 1, B + 2, 3 * B + 1):
        blocks = dhm._row_blocks(length)
        assert blocks[0][0] == 0 and blocks[-1][1] == length
        assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
        assert all(b - a >= 2 for a, b in blocks) or length == 1


def test_hierarchical_factor_matches_simulated_factor():
    spec = oracle_spec(300, 1, False)
    out = simulate_returns(spec)
    epsilon = reference_simulate_returns(spec)[1]
    tree, acts = spec.regimes[0].tree, out.activations[0]
    for j, leaf in enumerate(spec.noise.assets):
        for t in (0, 17, 299, -1):
            y = hierarchical_factor(tree, acts, leaf, t)
            assert epsilon[t, j] * y == out.returns.values[t, j]


def traced_simulation(spec):
    """simulate_returns(spec) with the traced bytes it retains and its traced peak, both above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = simulate_returns(spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained - base, peak - base


def test_simulator_peak_memory_is_output_plus_one_block():
    """Without the volatility, the traced peak stays within 1.2x of what the output retains.

    The whole-array simulator peaked at over 2x: a full noise draw, int64
    counts and float factors lived beside the output arrays.
    """
    out, retained, peak = traced_simulation(oracle_spec(5 * B + 3, 2, False, n_leaves=8))
    assert out.returns.values.nbytes <= retained
    assert peak < 1.2 * retained


def test_simulator_peak_memory_with_the_volatility_on():
    """With the volatility on, the peak stays under 1.2x the output plus one returns-sized array.

    Here the peak comes before any output array exists: the circulant draw of
    xi holds complex arrays of twice the length, which outweigh the retained
    returns (a 12.6 MB peak against 5.2 MB for these 81,923 x 8 returns).
    """
    out, retained, peak = traced_simulation(oracle_spec(5 * B + 3, 2, True, n_leaves=8))
    assert out.returns.values.nbytes <= retained
    assert peak < 1.2 * (retained + out.returns.values.nbytes)


def test_simulated_times_are_a_range_of_the_steps():
    """Step indices stay a lazy range: a tuple held 38 MiB of ints at 10^6 steps."""
    spec = oracle_spec(B + 1, 2, False)
    times = simulate_returns(spec).returns.times
    assert isinstance(times, range)
    assert times == range(B + 1)


def test_simulation_params_record_the_run():
    tree = risk_comb(4, 0.5)
    noise = equicorrelation(tree.leaves, 0.3)
    spec = DhmSpec(noise=noise, regimes=(Regime(tree, 20), Regime(tree, 20)),
                   logvol=LogVolSpec(lam=0.3, horizon=50), length=40, seed=8)
    result = simulate_returns(spec)
    params = dhm.simulation_params(spec, result)
    assert params["assets"] == list(tree.leaves)
    assert (params["seed"], params["length"], params["regime_durations"]) == (8, 40, [20, 20])
    assert (params["lambda"], params["horizon"]) == (0.3, 50)
    assert params["xi_embedding"] == xi_embedding_report(spec.logvol, 40)
    # lag 50 is not below the length, so it is left out
    assert list(params["x_autocovariance"]) == ["1", "5", "10"]
    x = result.x - result.x.mean()
    assert params["x_autocovariance"]["5"] == pytest.approx(np.mean(x[:-5] * x[5:]) * 35 / 40, rel=1e-12)
    assert "noise_variances" not in params

    flat = dataclasses.replace(spec, logvol=None, noise_variances=np.array([1.0, 2.0, 3.0, 4.0]))
    params = dhm.simulation_params(flat, simulate_returns(flat))
    assert params["noise_variances"] == [1.0, 2.0, 3.0, 4.0]
    assert not {"lambda", "horizon", "xi_embedding", "x_autocovariance"} & set(params)
    json.dumps(params)  # every value is a JSON type


# --- the streamed sample correlation against np.corrcoef of the whole panel ---


def forbid_whole_panels(monkeypatch):
    """Make building the whole returns panel inside dhm an error."""

    def whole_panel(*args, **kwargs):
        raise AssertionError("built the whole returns panel")

    monkeypatch.setattr(dhm, "simulate_returns", whole_panel)
    monkeypatch.setattr(dhm, "ReturnsPanel", whole_panel)


@pytest.mark.parametrize(
    "length, n_regimes, logvol",
    [
        (length, n_regimes, logvol)
        for length in (2, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 1)
        for n_regimes in (1, 2, 3)
        if n_regimes <= length  # every regime needs a row
        for logvol in (False, True)
    ],
)
def test_sample_correlation_matches_corrcoef_of_the_simulated_panel(
    monkeypatch, length, n_regimes, logvol
):
    spec = oracle_spec(length, n_regimes, logvol)
    expected = np.corrcoef(simulate_returns(spec).returns.values.T)
    forbid_whole_panels(monkeypatch)
    assert np.max(np.abs(dhm.sample_correlation(spec) - expected)) <= 1e-13


def test_sample_correlation_is_nan_for_a_zero_variance_column(monkeypatch):
    spec = oracle_spec(B + 1, 2, True)
    transform = dhm._noise_transform
    # a zero first column of the noise transform makes asset 0's returns all zero
    monkeypatch.setattr(dhm, "_noise_transform", lambda noise: transform(noise) * [0, 1, 1, 1, 1, 1])
    forbid_whole_panels(monkeypatch)
    with np.errstate(invalid="ignore"):
        corr = dhm.sample_correlation(spec)
    assert np.isnan(corr[0]).all() and np.isnan(corr[:, 0]).all()
    assert np.isfinite(corr[1:, 1:]).all()


def test_sample_correlation_memory_does_not_grow_with_the_panel():
    """From 2 to 10 blocks the traced peak grows by under 1/64 of one returns array.

    Returns and activations are both drawn a block at a time, so nothing
    length-sized is held; whole-regime uint8 activations grew by one byte per
    node and step, and np.corrcoef of the whole panel grows by the returns and
    a centred copy.
    """
    peaks = {}
    for blocks in (2, 10):
        spec = oracle_spec(blocks * B, 2, False, n_leaves=16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dhm.sample_correlation(spec)
            peaks[blocks] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    returns_growth = 8 * B * 16 * np.dtype(float).itemsize
    assert peaks[10] - peaks[2] < returns_growth / 64


# --- probability assignment and config loading ---


def test_draw_probabilities_range_and_inherit():
    rng = np.random.default_rng(13)
    base = random_binary_tree(8, rng)
    first = draw_probabilities(base, 0.4, 0.6, rng)
    probs = {i: first.probability(i) for i in first.node_ids}
    assert all(0.4 <= p_val <= 0.6 for p_val in probs.values())
    second = draw_probabilities(base, 0.0, 1.0, rng, inherit=probs)
    assert all(second.probability(i) == probs[i] for i in first.node_ids)
    with pytest.raises(ValueError):
        draw_probabilities(base, -0.1, 0.5, rng)


def test_load_dhm_config_two_regimes(tmp_path):
    labels = [f"A{i}" for i in range(6)]
    rng = np.random.default_rng(14)
    tree_a = random_binary_tree(6, rng, labels)
    tree_b = random_binary_tree(6, rng, labels)
    serialize_dendrogram(tree_a, tmp_path / "a.json")
    serialize_dendrogram(tree_b, tmp_path / "b.json")
    config = {
        "length": 400,
        "seed": 3,
        "logvol": {"lambda": 0.2, "horizon": 800},
        "noise": {"constant": 0.3},
        "regimes": [
            {"tree": "a.json", "duration": 150, "p_range": [0.4, 0.6]},
            {"tree": "b.json", "duration": 250, "p_range": [0.4, 0.6]},
        ],
    }
    (tmp_path / "model.json").write_text(json.dumps(config))
    spec = load_dhm_config(tmp_path / "model.json")
    assert spec.length == 400
    assert [r.duration for r in spec.regimes] == [150, 250]
    # same node ids persist across regimes, so inherited values match
    first = {i: spec.regimes[0].tree.probability(i) for i in spec.regimes[0].tree.node_ids}
    second = {i: spec.regimes[1].tree.probability(i) for i in spec.regimes[1].tree.node_ids}
    shared = set(first) & set(second)
    assert shared and all(first[i] == second[i] for i in shared)
    simulate_returns(spec)  # loadable specs must be runnable


def test_load_dhm_config_inherit_previous_false_draws_fresh_probabilities(tmp_path):
    serialize_dendrogram(random_binary_tree(6, np.random.default_rng(14)), tmp_path / "a.json")
    regimes = [
        {"tree": "a.json", "duration": 150, "p_range": [0.4, 0.6]},
        {"tree": "a.json", "duration": 250, "p_range": [0.4, 0.6]},
    ]
    probabilities = []
    for inherit in (True, False):
        regimes[1]["inherit_previous"] = inherit
        config = {"length": 400, "seed": 3, "regimes": regimes}
        (tmp_path / "model.json").write_text(json.dumps(config))
        first, second = (r.tree for r in load_dhm_config(tmp_path / "model.json").regimes)
        probabilities.append([(first.probability(i), second.probability(i))
                              for i in first.node_ids])
    # the same tree in both regimes: inherited values match, fresh draws do not
    assert all(a == b for a, b in probabilities[0])
    assert all(a != b for a, b in probabilities[1])


def test_load_dhm_config_missing_probability(tmp_path):
    tree = random_binary_tree(3, np.random.default_rng(15))
    serialize_dendrogram(tree, tmp_path / "t.json")
    config = {"length": 10, "seed": 1, "regimes": [{"tree": "t.json", "duration": 10}]}
    (tmp_path / "m.json").write_text(json.dumps(config))
    with pytest.raises(ValueError, match="no probability"):
        load_dhm_config(tmp_path / "m.json")


@pytest.mark.parametrize("p_range", [[0.6, 0.4], [0.5, 1.5]], ids=["reversed", "above_one"])
def test_load_dhm_config_rejects_a_bad_p_range(tmp_path, p_range):
    serialize_dendrogram(random_binary_tree(3, np.random.default_rng(15)), tmp_path / "t.json")
    config = {
        "length": 10, "seed": 1,
        "regimes": [{"tree": "t.json", "duration": 10, "p_range": p_range}],
    }
    (tmp_path / "m.json").write_text(json.dumps(config))
    with pytest.raises(ValueError, match=r"probability range \[.*\] outside \[0, 1\]"):
        load_dhm_config(tmp_path / "m.json")


def test_load_dhm_config_covariance_file_is_normalized(tmp_path):
    labels = ["a", "b", "c"]
    tree = comb_tree(3, labels)
    tree = tree.with_probabilities({n.id: 0.5 for n in tree.nodes})
    serialize_dendrogram(tree, tmp_path / "t.json")
    variances = np.array([4.0, 9.0, 0.25])
    corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    cov = corr * np.sqrt(np.outer(variances, variances))
    lines = ["," + ",".join(labels)]
    for lab, row in zip(labels, cov):
        lines.append(lab + "," + ",".join(repr(float(v)) for v in row))
    (tmp_path / "cov.csv").write_text("\n".join(lines) + "\n")
    config = {
        "length": 10,
        "seed": 1,
        "noise": {"file": "cov.csv"},
        "regimes": [{"tree": "t.json", "duration": 10}],
    }
    (tmp_path / "m.json").write_text(json.dumps(config))
    spec = load_dhm_config(tmp_path / "m.json")
    assert np.allclose(spec.noise.values, corr, atol=1e-12)
    assert np.allclose(spec.noise_variances, variances)


def test_load_dhm_config_rejects_mislabeled_noise_rows(tmp_path):
    # rows a and b are swapped, labels included, under an unchanged header
    labels = ["a", "b", "c"]
    tree = comb_tree(3, labels)
    serialize_dendrogram(tree.with_probabilities({n.id: 0.5 for n in tree.nodes}), tmp_path / "t.json")
    cov = np.array([[4.0, 3.0, 0.2], [3.0, 9.0, 0.45], [0.2, 0.45, 0.25]])
    lines = [",a,b,c"]
    for lab, row in zip(["b", "a", "c"], cov[[1, 0, 2]]):
        lines.append(lab + "," + ",".join(repr(float(v)) for v in row))
    (tmp_path / "cov.csv").write_text("\n".join(lines) + "\n")
    config = {
        "length": 10,
        "seed": 1,
        "noise": {"file": "cov.csv"},
        "regimes": [{"tree": "t.json", "duration": 10}],
    }
    (tmp_path / "m.json").write_text(json.dumps(config))
    with pytest.raises(ValueError, match=r"cov\.csv: row label 'b'"):
        load_dhm_config(tmp_path / "m.json")


def test_load_dhm_config_rejects_zero_noise_variance(tmp_path):
    labels = ["a", "b", "c"]
    tree = comb_tree(3, labels)
    serialize_dendrogram(tree.with_probabilities({n.id: 0.5 for n in tree.nodes}), tmp_path / "t.json")
    cov = np.array([[4.0, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.0, 0.25]])
    lines = [",a,b,c"]
    for lab, row in zip(labels, cov):
        lines.append(lab + "," + ",".join(repr(float(v)) for v in row))
    (tmp_path / "cov.csv").write_text("\n".join(lines) + "\n")
    config = {
        "length": 10,
        "seed": 1,
        "noise": {"file": "cov.csv"},
        "regimes": [{"tree": "t.json", "duration": 10}],
    }
    (tmp_path / "m.json").write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"cov\.csv: variance of 'b' is 0\.0"):
            load_dhm_config(tmp_path / "m.json")


def test_load_dhm_config_explicit_p_wins(tmp_path):
    tree = random_binary_tree(3, np.random.default_rng(16))
    tree = tree.with_probabilities({n.id: 0.25 for n in tree.nodes})
    serialize_dendrogram(tree, tmp_path / "t.json")
    config = {
        "length": 10,
        "seed": 1,
        "logvol": None,
        "regimes": [{"tree": "t.json", "duration": 10, "p_range": [0.9, 1.0]}],
    }
    (tmp_path / "m.json").write_text(json.dumps(config))
    spec = load_dhm_config(tmp_path / "m.json")
    assert all(spec.regimes[0].tree.probability(i) == 0.25 for i in spec.regimes[0].tree.node_ids)
    assert spec.logvol is None


def reference_risk_tree_from_config(tree, p_range, inherit, rng):
    """The node loop _risk_tree_from_config ran before it called draw_probabilities."""
    probs = {}
    for node in tree.nodes:
        if node.p is not None:
            probs[node.id] = node.p
        elif inherit and node.id in inherit:
            probs[node.id] = inherit[node.id]
        elif p_range is not None:
            probs[node.id] = float(rng.uniform(p_range[0], p_range[1]))
        else:
            raise ValueError(f"node {node.id} has no probability")
    return RiskTree(tree.with_probabilities(probs))


@pytest.mark.parametrize(
    "seed, message",
    [("7", "must be an integer, got '7'"), (2.7, "must be an integer, got 2.7"),
     (True, "must be an integer, got True"), (-3, "must be >= 0, got -3")],
    ids=["string", "float", "bool", "negative"],
)
def test_load_dhm_config_names_a_seed_that_is_not_a_non_negative_integer(tmp_path, seed, message):
    serialize_dendrogram(random_binary_tree(3, np.random.default_rng(15)), tmp_path / "t.json")
    config = {
        "length": 10, "seed": seed,
        "regimes": [{"tree": "t.json", "duration": 10, "p_range": [0.4, 0.6]}],
    }
    (tmp_path / "m.json").write_text(json.dumps(config))
    with pytest.raises(ValueError) as info:
        load_dhm_config(tmp_path / "m.json")
    assert str(info.value) == f"model config key 'seed' {message}"


def test_load_dhm_config_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"length": 5,')
    with pytest.raises(json.JSONDecodeError) as reason:
        json.loads(path.read_text())
    with pytest.raises(ValueError) as info:
        load_dhm_config(path)
    assert str(info.value) == f"not valid JSON: {reason.value} (at {path})"


def test_risk_tree_from_config_matches_the_old_node_loop():
    rng = np.random.default_rng(29)
    outcomes = {"tree": 0, "error": 0}
    for k in range(300):
        n_leaves = int(rng.integers(2, 12))
        tree = random_binary_tree(n_leaves, rng)
        # each node: explicit p, inherited p, both, or neither
        kinds = rng.integers(0, 4, size=len(tree.nodes))
        explicit = {n.id: float(rng.random()) for n, c in zip(tree.nodes, kinds) if c in (1, 3)}
        tree = Dendrogram(tree.leaves, tuple(
            dataclasses.replace(n, p=explicit.get(n.id)) for n in tree.nodes
        ), tree.root)
        inherit = {n.id: float(rng.random()) for n, c in zip(tree.nodes, kinds) if c in (2, 3)}
        inherit[10_000] = 0.5  # an id of an earlier regime's tree only
        inherit = inherit if k % 5 else None
        p_range = (0.2, 0.7) if k % 3 else None
        old_rng, new_rng = derived_rng(k), derived_rng(k)
        try:
            want = reference_risk_tree_from_config(tree, p_range, inherit, old_rng)
        except ValueError:
            with pytest.raises(ValueError, match=r"node \d+ has no probability"):
                dhm._risk_tree_from_config(tree, p_range, inherit, new_rng)
            outcomes["error"] += 1
            continue
        assert dhm._risk_tree_from_config(tree, p_range, inherit, new_rng) == want
        assert new_rng.random() == old_rng.random()  # the same draws were taken
        outcomes["tree"] += 1
    assert min(outcomes.values()) > 30
