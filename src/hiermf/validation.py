"""Checks of the hierarchical model: Monte Carlo against the closed form, and two stylized facts.

Each check returns the JSON-ready dict that `validate-model` writes, with a boolean "passed".
"""

from __future__ import annotations

import numpy as np

from hiermf import dhm
from hiermf.dependence import elliptical_tau, kendall_tau_matrix, one_factor_correlation
from hiermf.hierarchy import random_binary_tree
from hiermf.util import derived_rng

# leaves of each median-shift and dispersion tree, and of the largest equivalence tree
VALIDATION_LEAVES = 16


def check_equivalence(n_trees: int, steps: int, seed: int, tolerance: float) -> dict:
    """Sample correlations vs the closed-form perturbation, over random trees.

    The common volatility cancels in the correlation, so it stays off here.
    """
    per_tree = []
    for k in range(n_trees):
        rng = derived_rng(seed, 10, k)
        n_leaves = int(rng.integers(4, VALIDATION_LEAVES + 1))
        tree = dhm.draw_probabilities(random_binary_tree(n_leaves, rng), 0.0, 1.0, rng)
        noise = one_factor_correlation(tree.leaves, rng)
        spec = dhm.DhmSpec(
            noise=noise,
            regimes=(dhm.Regime(tree=tree, duration=steps),),
            logvol=None,
            length=steps,
            seed=int(derived_rng(seed, 11, k).integers(0, 2**63)),
        )
        sample = dhm.sample_correlation(spec)
        theory = dhm.theoretical_correlation(noise, tree).values
        dev = float(np.max(np.abs(sample - theory)))
        per_tree.append({"leaves": n_leaves, "max_abs_deviation": dev})
    # np.max keeps a NaN deviation, so a check that measured nothing fails
    worst = float(np.max([t["max_abs_deviation"] for t in per_tree], initial=0.0))
    return {
        "check": "mc_vs_closed_form",
        "trees": n_trees, "steps": steps, "tolerance": tolerance,
        "max_abs_deviation": worst, "per_tree": per_tree,
        "passed": worst <= tolerance,
    }


def _hier_flat_returns(
    seed: int, stream: int, k: int, n_leaves: int, length: int, hier_p: tuple[float, float]
) -> dict[str, np.ndarray]:
    """Returns of one random tree and noise under heterogeneous and all-on risks."""
    rng = derived_rng(seed, stream, k)
    base = random_binary_tree(n_leaves, rng)
    noise = one_factor_correlation(base.leaves, rng)
    run_seed = int(rng.integers(0, 2**63))
    returns = {}
    for tag, (lo, hi) in {"hier": hier_p, "flat": (1.0, 1.0)}.items():
        tree = dhm.draw_probabilities(base, lo, hi, derived_rng(seed, stream + 1, k))
        spec = dhm.DhmSpec(
            noise=noise, regimes=(dhm.Regime(tree=tree, duration=length),),
            logvol=dhm.LogVolSpec(), length=length, seed=run_seed,
        )
        returns[tag] = dhm.simulate_returns(spec).returns.values
    return returns


def check_median_shift(n_runs: int, length: int, seed: int) -> dict:
    """Median pair correlation must drop when risks fire heterogeneously."""
    upper = np.triu_indices(VALIDATION_LEAVES, k=1)
    shifts = []
    for k in range(n_runs):
        returns = _hier_flat_returns(seed, 20, k, VALIDATION_LEAVES, length, (0.1, 0.4))
        shifts.append({
            tag: float(np.median(np.corrcoef(values.T)[upper]))
            for tag, values in returns.items()
        })
    passed = all(m["hier"] < m["flat"] for m in shifts)
    return {
        "check": "correlation_median_shift", "runs": n_runs, "length": length,
        "medians": shifts, "passed": passed,
    }


def check_tau_dispersion(n_seeds: int, length: int, seed: int, min_ratio: float = 1.0) -> dict:
    """(rho, tau) scatter must sit farther from the elliptical curve under hierarchy."""
    rms = {"hier": [], "flat": []}
    for k in range(n_seeds):
        returns = _hier_flat_returns(seed, 30, k, VALIDATION_LEAVES, length, (0.4, 0.6))
        for tag, values in returns.items():
            corr = np.corrcoef(values.T)
            tau = kendall_tau_matrix(values)
            devs = [
                tau[i, j] - elliptical_tau(float(corr[i, j]))
                for i in range(VALIDATION_LEAVES)
                for j in range(i + 1, VALIDATION_LEAVES)
            ]
            rms[tag].append(float(np.sqrt(np.mean(np.square(devs)))))
    ratio = float(np.mean(rms["hier"]) / np.mean(rms["flat"]))
    return {
        "check": "tau_rho_dispersion", "seeds": n_seeds, "length": length,
        "rms_hier": rms["hier"], "rms_flat": rms["flat"],
        "ratio": ratio, "min_ratio": min_ratio, "passed": ratio >= min_ratio,
    }
