"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line with the measured quantities; tolerances
are fixed here, not tuned at runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from conftest import PROFILE_DEPTHS, PROFILE_LABELS, equicorrelation, one_factor_correlation
from hiermf.dependence import elliptical_tau, flat_weights, kendall_tau
from hiermf.dhm import (
    DhmSpec,
    LogVolSpec,
    Regime,
    RiskTree,
    draw_probabilities,
    perturbation_factor,
    sample_correlation,
    simulate_returns,
    simulate_xi,
    theoretical_correlation,
    zeta1,
    zeta2,
)
from hiermf.diagnostics import acf, fit_powerlaw_decay, hill_alpha, order_conditional_mean, trend_test
from hiermf.hierarchy import (
    bootstrap_orders,
    comb_tree,
    linkage_cluster,
    order_profile,
    parse_dendrogram,
    random_binary_tree,
    serialize_dendrogram,
    tree_from_leaf_depths,
)
from hiermf.market_data import ReturnsPanel
from hiermf.scaling import FbmSpec, calibrate_threshold, delta_h, estimate_ghe, generate_fbm
from hiermf.util import derived_rng, parallel_map

SEED = 20130


def _random_setup(key: int, n_leaves: int, p_low: float, p_high: float):
    rng = derived_rng(SEED, key)
    labels = [f"A{i:02d}" for i in range(n_leaves)]
    tree = draw_probabilities(random_binary_tree(n_leaves, rng, labels), p_low, p_high, rng)
    noise = one_factor_correlation(labels, rng)
    run_seed = int(rng.integers(0, 2**63))
    return tree, noise, run_seed


def _equivalence_deviation(args) -> float:
    k, with_volatility = args
    rng = derived_rng(SEED, 100, k)
    n_leaves = int(rng.integers(4, 17))
    labels = [f"A{i:02d}" for i in range(n_leaves)]
    tree = draw_probabilities(random_binary_tree(n_leaves, rng, labels), 0.0, 1.0, rng)
    noise = one_factor_correlation(labels, rng)
    spec = DhmSpec(
        noise=noise,
        regimes=(Regime(tree=tree, duration=10**6),),
        logvol=LogVolSpec() if with_volatility else None,
        length=10**6,
        seed=int(rng.integers(0, 2**63)),
    )
    sample = sample_correlation(spec)
    theory = theoretical_correlation(noise, tree).values
    return float(np.max(np.abs(sample - theory)))


def test_01_closed_form_equivalence():
    # the common volatility cancels in the correlation identically, so the
    # shrinkage formula is checked with it off; the volatility-on mode is
    # covered by the companion invariant below and by criterion 2
    deviations = parallel_map(_equivalence_deviation, [(k, False) for k in range(50)], jobs=2)
    worst = max(deviations)
    assert worst <= 0.02, f"worst deviation {worst:.4f} exceeds 0.02"
    print(f"\n[PASS] criterion 1 - closed-form vs simulation on 50 random trees "
          f"(1e6 steps each): max |rho_mc - rho_theory| = {worst:.4f} <= 0.02")


def test_01b_equivalence_holds_in_both_volatility_modes():
    results = {}
    for with_volatility in (True, False):
        devs = [
            _equivalence_deviation((k, with_volatility))
            for k in range(60, 66)
        ]
        results["on" if with_volatility else "off"] = max(devs)
    assert all(v <= 0.02 for v in results.values()), results
    print(f"\n[PASS] criterion 1 companion - equivalence with the common volatility "
          f"on/off: max deviation {results['on']:.4f} / {results['off']:.4f}, both <= 0.02")


def test_02_limit_cases_recover_noise_correlation():
    worst = 0.0
    for key, p in ((201, 0.0), (202, 1.0)):
        tree, noise, run_seed = _random_setup(key, 16, p, p)
        spec = DhmSpec(
            noise=noise, regimes=(Regime(tree, 10**6),), logvol=LogVolSpec(),
            length=10**6, seed=run_seed,
        )
        sample = sample_correlation(spec)
        worst = max(worst, float(np.max(np.abs(sample - noise.values))))
    assert worst <= 0.01, f"max |rho - Sigma| = {worst:.4f} exceeds 0.01"
    print(f"\n[PASS] criterion 2 - all-off/all-on risks leave correlations at the "
          f"noise values: max |rho - Sigma| = {worst:.4f} <= 0.01")


@pytest.fixture(scope="module")
def profile_tree_25():
    return tree_from_leaf_depths(PROFILE_DEPTHS, PROFILE_LABELS)


def test_03_depth_multiscaling_trend(profile_tree_25):
    orders = order_profile(profile_tree_25)
    noise = equicorrelation(PROFILE_LABELS, 0.3)
    pooled_dh: dict[str, float] = {}
    pooled_orders: dict[str, int] = {}
    realizations = 200
    for r in range(realizations):
        tree = draw_probabilities(profile_tree_25, 0.0, 1.0, derived_rng(SEED, 300, r))
        spec = DhmSpec(
            noise=noise, regimes=(Regime(tree, 4026),), logvol=LogVolSpec(),
            length=4026, seed=int(derived_rng(SEED, 301, r).integers(0, 2**63)),
        )
        log_prices = simulate_returns(spec).returns.log_price_paths()
        for j, asset in enumerate(PROFILE_LABELS):
            key = f"{asset}#{r}"
            pooled_dh[key] = delta_h(estimate_ghe(log_prices[:, j]))
            pooled_orders[key] = orders[asset]
    stats = order_conditional_mean(pooled_dh, pooled_orders)
    trend = trend_test(stats.orders, stats.means)
    inversions = int(np.sum(np.diff(stats.means) < 0))
    assert trend.r > 0
    assert trend.p_value < 0.05
    assert inversions <= 1
    means = ", ".join(f"n={n}: {m:.3f}" for n, m in zip(stats.orders, stats.means))
    print(f"\n[PASS] criterion 3 - deeper assets scale wider over {realizations} runs: "
          f"r = {trend.r:.3f}, p = {trend.p_value:.2g}, inversions = {inversions} ({means})")


def test_04_two_regime_median_shift():
    labels = [f"s{i:02d}" for i in range(20)]
    depths_1 = [3] * 4 + [4] * 4 + [5] * 4 + [6] * 8
    tree_1 = tree_from_leaf_depths(depths_1, labels)
    tree_2 = tree_from_leaf_depths(depths_1[::-1], labels)
    orders_1, orders_2 = order_profile(tree_1), order_profile(tree_2)
    increasing = [a for a in labels if orders_2[a] > orders_1[a]]
    decreasing = [a for a in labels if orders_2[a] < orders_1[a]]
    noise = equicorrelation(labels, 0.3)

    first: dict[str, list[float]] = {a: [] for a in labels}
    second: dict[str, list[float]] = {a: [] for a in labels}
    for r in range(100):
        risk_1 = draw_probabilities(tree_1, 0.4, 0.6, derived_rng(SEED, 400, r))
        risk_2 = draw_probabilities(tree_2, 0.4, 0.6, derived_rng(SEED, 401, r))
        spec = DhmSpec(
            noise=noise,
            regimes=(Regime(risk_1, 2013), Regime(risk_2, 2013)),
            logvol=LogVolSpec(),
            length=4026,
            seed=int(derived_rng(SEED, 402, r).integers(0, 2**63)),
        )
        log_prices = simulate_returns(spec).returns.log_price_paths()
        for j, asset in enumerate(labels):
            first[asset].append(delta_h(estimate_ghe(log_prices[: 2013 + 1, j])))
            second[asset].append(delta_h(estimate_ghe(log_prices[2013:, j])))

    up_hits = sum(np.median(second[a]) > np.median(first[a]) for a in increasing)
    down_hits = sum(np.median(second[a]) < np.median(first[a]) for a in decreasing)
    assert up_hits >= 0.8 * len(increasing)
    assert down_hits >= 0.8 * len(decreasing)
    print(f"\n[PASS] criterion 4 - two-regime shift over 100 runs: deeper-moving assets "
          f"{up_hits}/{len(increasing)} raised their median dH, shallower-moving "
          f"{down_hits}/{len(decreasing)} lowered it (>= 80% required)")


def test_05_hierarchy_lowers_median_correlation():
    wins = 0
    for r in range(100):
        rng = derived_rng(SEED, 500, r)
        labels = [f"A{i:02d}" for i in range(16)]
        base = random_binary_tree(16, rng, labels)
        noise = one_factor_correlation(labels, rng)
        run_seed = int(rng.integers(0, 2**63))
        medians = {}
        for tag, (lo, hi) in {"hier": (0.1, 0.4), "flat": (1.0, 1.0)}.items():
            tree = draw_probabilities(base, lo, hi, derived_rng(SEED, 501, r))
            spec = DhmSpec(
                noise=noise, regimes=(Regime(tree, 4026),), logvol=LogVolSpec(),
                length=4026, seed=run_seed,
            )
            corr = np.corrcoef(simulate_returns(spec).returns.values.T)
            medians[tag] = float(np.median(corr[np.triu_indices(16, 1)]))
        wins += medians["hier"] < medians["flat"]
    assert wins == 100, f"median shifted down in only {wins}/100 paired runs"
    print(f"\n[PASS] criterion 5 - heterogeneous risks lower the median pair "
          f"correlation in {wins}/100 paired runs")


def test_06_tau_rho_dispersion_ratio():
    rms = {"hier": [], "flat": []}
    for r in range(20):
        rng = derived_rng(SEED, 600, r)
        labels = [f"A{i:02d}" for i in range(16)]
        base = random_binary_tree(16, rng, labels)
        noise = one_factor_correlation(labels, rng)
        run_seed = int(rng.integers(0, 2**63))
        for tag, (lo, hi) in {"hier": (0.4, 0.6), "flat": (1.0, 1.0)}.items():
            tree = draw_probabilities(base, lo, hi, derived_rng(SEED, 601, r))
            spec = DhmSpec(
                noise=noise, regimes=(Regime(tree, 4026),), logvol=LogVolSpec(),
                length=4026, seed=run_seed,
            )
            values = simulate_returns(spec).returns.values
            devs = []
            for i in range(16):
                for j in range(i + 1, 16):
                    rho = float(np.corrcoef(values[:, i], values[:, j])[0, 1])
                    devs.append(kendall_tau(values[:, i], values[:, j]) - elliptical_tau(rho))
            rms[tag].append(float(np.sqrt(np.mean(np.square(devs)))))
    ratio = float(np.mean(rms["hier"]) / np.mean(rms["flat"]))
    assert ratio >= 1.5, f"dispersion ratio {ratio:.2f} below 1.5"
    print(f"\n[PASS] criterion 6 - scatter around tau = 2/pi arcsin(rho) is "
          f"{ratio:.2f}x wider with heterogeneous risks (>= 1.5x required, 20 seeds)")


def test_07_threshold_calibration_band_and_golden():
    calibration = calibrate_threshold(1000, (0.1, 0.9), 4026, seed=SEED)
    assert 0.008 <= calibration.threshold <= 0.025
    assert round(calibration.threshold, 6) == 0.008865
    print(f"\n[PASS] criterion 7 - uniscaling-null threshold from 1000 exact fBm paths: "
          f"{calibration.threshold:.6f} in [0.008, 0.025], golden 0.008865")


def test_08_squared_return_acf_decay(profile_tree_25):
    noise = equicorrelation(PROFILE_LABELS, 0.3)
    betas = []
    for r in range(10):
        tree = draw_probabilities(profile_tree_25, 0.0, 1.0, derived_rng(SEED, 800, r))
        spec = DhmSpec(
            noise=noise, regimes=(Regime(tree, 2**16),), logvol=LogVolSpec(),
            length=2**16, seed=int(derived_rng(SEED, 801, r).integers(0, 2**63)),
        )
        values = simulate_returns(spec).returns.values
        mean_acf = np.mean([acf(values[:, j] ** 2, 100) for j in range(values.shape[1])], axis=0)
        betas.append(fit_powerlaw_decay(mean_acf, (1, 100)))
    in_band = sum(0.25 <= b <= 0.65 for b in betas)
    assert in_band >= 9, f"only {in_band}/10 exponents inside [0.25, 0.65]: {betas}"
    print(f"\n[PASS] criterion 8 - squared-return memory decays as a power law: "
          f"beta in [0.25, 0.65] for {in_band}/10 runs "
          f"(values {', '.join(f'{b:.2f}' for b in betas)})")


def test_09_hurst_estimator_on_exact_fbm():
    report = []
    for hurst in (0.3, 0.5, 0.7):
        h2, dh = [], []
        for s in range(100):
            path = generate_fbm(FbmSpec(hurst=hurst, length=2**14, seed=s))
            est = estimate_ghe(path)
            h2.append(est.h(2.0))
            dh.append(delta_h(est))
        assert np.mean(h2) == pytest.approx(hurst, abs=0.03)
        assert abs(np.mean(dh)) < 0.01
        report.append(f"H={hurst}: mean H2 = {np.mean(h2):.3f}, mean dH = {np.mean(dh):+.4f}")
    print(f"\n[PASS] criterion 9 - estimator recovers exact fBm exponents "
          f"(100 seeds each): {'; '.join(report)}")


def test_10_property_sweep_under_a_minute():
    started = time.perf_counter()

    # moment inequality across the probability grid
    grid = np.linspace(0.0, 1.0, 1001)
    assert np.all(zeta1(grid) ** 2 <= zeta2(grid) + 1e-12)

    # shrinkage never exceeds one; shared root risks cancel exactly
    from hiermf.hierarchy import Dendrogram, TreeNode

    for k in range(1000):
        rng = derived_rng(SEED, 1000, k)
        n = int(rng.integers(3, 13))
        tree = random_binary_tree(n, rng)
        probs = {node.id: float(rng.random()) for node in tree.nodes}
        rt = RiskTree(tree.with_probabilities(probs))
        i, j = rng.choice(n, 2, replace=False)
        a, b = tree.leaves[int(i)], tree.leaves[int(j)]
        f = perturbation_factor(rt, a, b)
        assert f <= 1.0 + 1e-12
        new_root = max(node.id for node in tree.nodes) + 1
        wrapped = Dendrogram(
            leaves=tree.leaves + ("__w__",),
            nodes=tree.nodes
            + (TreeNode(new_root, tree.root, "__w__", max(x.height for x in tree.nodes) + 1),),
            root=new_root,
        )
        wrapped_rt = RiskTree(wrapped.with_probabilities({**probs, new_root: float(rng.random())}))
        assert perturbation_factor(wrapped_rt, a, b) == f

    # merge counting agrees with full pair enumeration on tie-free vectors
    for k in range(1000):
        rng = derived_rng(SEED, 1100, k)
        n = int(rng.integers(2, 201))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        fast = kendall_tau(x, y)
        dx = np.sign(x[:, None] - x[None, :])
        dy = np.sign(y[:, None] - y[None, :])
        iu = np.triu_indices(n, 1)
        s = dx[iu] * dy[iu]
        brute = ((s > 0).sum() - (s < 0).sum()) / (n * (n - 1) / 2)
        assert fast == pytest.approx(brute, abs=1e-12)

    # merge order of min/max linkages is blind to monotone rescalings
    def signature(tree):
        out = []
        for node in sorted(tree.nodes, key=lambda nd: nd.id):
            stack, leaves = [node.id], set()
            while stack:
                ref = stack.pop()
                if isinstance(ref, str):
                    leaves.add(ref)
                else:
                    inner = tree.node(ref)
                    stack.extend([inner.left, inner.right])
            out.append(frozenset(leaves))
        return out

    for k in range(30):
        rng = derived_rng(SEED, 1200, k)
        points = rng.standard_normal((12, 2))
        d = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
        labels = [f"p{i}" for i in range(12)]
        for method in ("single", "complete"):
            base = signature(linkage_cluster(d, labels, method))
            for transform in (lambda v: v**3, np.expm1, lambda v: v / (1.0 + v)):
                assert signature(linkage_cluster(transform(d), labels, method)) == base

    # interchange round trip preserves the tree exactly
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for k in range(25):
            rng = derived_rng(SEED, 1300, k)
            tree = random_binary_tree(int(rng.integers(2, 65)), rng)
            if k % 2:
                tree = tree.with_probabilities({n.id: float(rng.random()) for n in tree.nodes})
            path = Path(tmp) / f"t{k}.json"
            serialize_dendrogram(tree, path)
            back = parse_dendrogram(path)
            assert back.leaves == tree.leaves and back.root == tree.root
            assert sorted(back.nodes, key=lambda n: n.id) == sorted(tree.nodes, key=lambda n: n.id)

    # fixed seeds reproduce bit-identical results everywhere
    spec_fbm = FbmSpec(hurst=0.37, length=2048, seed=11)
    assert np.array_equal(generate_fbm(spec_fbm), generate_fbm(spec_fbm))
    assert np.array_equal(simulate_xi(LogVolSpec(), 1024, 7), simulate_xi(LogVolSpec(), 1024, 7))

    labels = [f"A{i}" for i in range(6)]
    rng = derived_rng(SEED, 1400)
    tree = draw_probabilities(random_binary_tree(6, rng, labels), 0.0, 1.0, rng)
    spec = DhmSpec(
        noise=one_factor_correlation(labels, rng),
        regimes=(Regime(tree, 2000),), logvol=LogVolSpec(), length=2000, seed=77,
    )
    a, b = simulate_returns(spec), simulate_returns(spec)
    assert np.array_equal(a.returns.values, b.returns.values)
    assert np.array_equal(a.xi, b.xi)

    panel_rng = derived_rng(SEED, 1500)
    panel = ReturnsPanel(
        assets=tuple(f"c{i}" for i in range(5)),
        times=tuple(range(300)),
        values=panel_rng.standard_normal((300, 5)) + 0.5 * panel_rng.standard_normal((300, 1)),
    )
    boot_a = bootstrap_orders(panel, flat_weights(300), "average", resamples=50, seed=9)
    boot_b = bootstrap_orders(panel, flat_weights(300), "average", resamples=50, seed=9)
    assert boot_a == boot_b

    cal_a = calibrate_threshold(100, (0.2, 0.8), 512, seed=13)
    cal_b = calibrate_threshold(100, (0.2, 0.8), 512, seed=13)
    assert cal_a.threshold == cal_b.threshold

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"property sweep took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 10 - property sweep (moment inequality, shrinkage bound "
          f"and cancellation, merge-count vs enumeration, linkage order invariance, "
          f"round trips, determinism) in {elapsed:.1f}s < 60s")


def test_11_hierarchical_risks_thicken_tails():
    alpha_pareto_3 = hill_alpha((1 - derived_rng(SEED, 1600).random(100_000)) ** (-1 / 3.0))
    alpha_pareto_15 = hill_alpha((1 - derived_rng(SEED, 1601).random(100_000)) ** (-1 / 1.5))
    assert alpha_pareto_3 == pytest.approx(3.0, rel=0.10)
    assert alpha_pareto_15 == pytest.approx(1.5, rel=0.10)

    labels = [f"c{i:02d}" for i in range(11)]
    base = comb_tree(11, labels)
    noise = equicorrelation(labels, 0.3)
    thickened = 0
    alphas = {"hier": [], "base": []}
    for r in range(50):
        run_seed = int(derived_rng(SEED, 1602, r).integers(0, 2**63))
        current = {}
        for tag, (lo, hi) in {"hier": (0.5, 1.0), "base": (0.0, 0.0)}.items():
            tree = draw_probabilities(base, lo, hi, derived_rng(SEED, 1603, r))
            spec = DhmSpec(
                noise=noise, regimes=(Regime(tree, 4026),), logvol=LogVolSpec(),
                length=4026, seed=run_seed,
            )
            pooled = np.abs(simulate_returns(spec).returns.values).ravel()
            current[tag] = hill_alpha(pooled)
            alphas[tag].append(current[tag])
        thickened += current["hier"] < current["base"]
    assert thickened >= 45, f"tails thickened in only {thickened}/50 paired runs"
    print(f"\n[PASS] criterion 11 - deep risk chains thicken tails in {thickened}/50 "
          f"paired runs (mean alpha {np.mean(alphas['hier']):.2f} vs "
          f"{np.mean(alphas['base']):.2f}); Hill validated on Pareto oracles "
          f"({alpha_pareto_3:.2f} for 3, {alpha_pareto_15:.2f} for 1.5)")
