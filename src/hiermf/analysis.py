"""The paper's analysis of a returns panel: multiscaling width dH against hierarchical order.

`analyze_panel` and `rolling_rows` compute what `hiermf analyze` and `hiermf rolling` write;
`bootstrap_orders` tests the orders' stability. Errors name the ticker and window, not the file.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from hiermf.dependence import CorrelationMatrix, WeightScheme, corr_to_distance, weighted_pearson_matrix
from hiermf.diagnostics import OrderProfileStats, order_conditional_mean, quantile_summary, trend_test
from hiermf.hierarchy import Dendrogram, cluster_cut, linkage_cluster, order_profile
from hiermf.market_data import ReturnsPanel, WindowSpec, rolling_windows
from hiermf.scaling import DegenerateMomentError, GheEstimate, delta_h, estimate_ghe
from hiermf.util import derived_rng

ROLLING_COLUMNS = ("window", "start", "end", "rho_mean", "rho_q025", "rho_q25",
                   "rho_q75", "rho_q975", "n_clusters", "mean_dH", "mean_order")


def _window_name(index: int, window: ReturnsPanel) -> str:
    return f"window {index} ({window.times[0]} to {window.times[-1]})"


def _unfittable(exc: DegenerateMomentError, assets: tuple[str, ...], windows=None) -> ValueError:
    """The scaling error restated with the ticker and, for a window, its dates."""
    where = f"ticker {assets[exc.column]!r}"
    if exc.window is not None:
        where += f" in {_window_name(exc.window, windows[exc.window])}"
    return ValueError(f"{where} has no price change at lag {exc.scale}, so M(q={exc.q}, "
                      f"l={exc.scale}) = 0 and its Hurst exponents cannot be fitted")


@dataclass(frozen=True)
class PanelAnalysis:
    """One panel's correlation, tree and orders, and every asset's Hurst fit and dH.

    `stats` and the trend test cover the `retained` assets only; `trend` is the
    test's JSON, or a note when those assets span fewer than 3 orders.
    """

    correlation: CorrelationMatrix
    tree: Dendrogram
    orders: dict[str, int]
    ghe: dict[str, GheEstimate]
    dh: dict[str, float]
    retained: tuple[str, ...]
    stats: OrderProfileStats
    trend: dict


def analyze_panel(returns: ReturnsPanel, scheme: WeightScheme, method: str = "average",
                  threshold: float = 0.015, tree: Dendrogram | None = None) -> PanelAnalysis:
    """dH = H(1) - H(2) of every asset against its order in the correlation hierarchy.

    `tree`, whose leaves must be the assets, replaces the linkage tree. Assets with dH at or
    below `threshold` are dropped (<= 0 keeps all); fewer than 3 left is an error.
    """
    if tree is not None and set(tree.leaves) != set(returns.assets):
        raise ValueError("the tree's leaves are not the panel's assets")
    corr = weighted_pearson_matrix(returns, scheme)
    if tree is None:
        tree = linkage_cluster(corr_to_distance(corr), returns.assets, method)
    orders = order_profile(tree)

    try:
        ghe = dict(zip(returns.assets, estimate_ghe(returns.log_price_paths())))
    except DegenerateMomentError as exc:
        raise _unfittable(exc, returns.assets) from exc
    dh = {a: delta_h(est) for a, est in ghe.items()}
    retained = tuple(a for a in returns.assets if threshold <= 0 or dh[a] > threshold)
    if len(retained) < 3:
        raise ValueError(f"fewer than 3 assets survive the multiscaling threshold {threshold}")

    stats = order_conditional_mean({a: dh[a] for a in retained}, {a: orders[a] for a in retained})
    trend = {"note": "fewer than 3 distinct orders; trend test skipped"}
    if len(stats.orders) >= 3:
        trend = trend_test(stats.orders, stats.means).to_json()
    else:
        warnings.warn(trend["note"])
    return PanelAnalysis(corr, tree, orders, ghe, dh, retained, stats, trend)


def rolling_rows(returns: ReturnsPanel, spec: WindowSpec, scheme: WeightScheme,
                 method: str = "average") -> list[list]:
    """One row of ROLLING_COLUMNS per window of `spec` (largest-gap cut for the cluster count).

    One `estimate_ghe` pass over the whole panel shares each scale's increments across windows.
    """
    windows = rolling_windows(returns, spec)
    try:
        window_ghe = estimate_ghe(returns.log_price_paths(), windows=spec)
    except DegenerateMomentError as exc:
        raise _unfittable(exc, returns.assets, windows) from exc
    rows = []
    for w_index, (window, estimates) in enumerate(zip(windows, window_ghe)):
        try:
            corr = weighted_pearson_matrix(window, scheme)
        except ValueError as exc:  # a zero-variance error names the ticker but not the window
            raise ValueError(f"{exc} in {_window_name(w_index, window)}") from exc
        off = corr.offdiagonal()
        tree = linkage_cluster(corr_to_distance(corr), window.assets, method)
        mean_order = float(np.mean(list(order_profile(tree).values())))
        n_clusters = cluster_cut(tree).count
        (quantiles,) = quantile_summary({"rho": off}, levels=(0.025, 0.25, 0.75, 0.975))
        mean_dh = float(np.mean([delta_h(est) for est in estimates]))
        rows.append([w_index, window.times[0], window.times[-1], float(off.mean()),
                     *quantiles.values, n_clusters, mean_dh, mean_order])
    return rows


@dataclass(frozen=True)
class BootstrapReport:
    """Stability of per-leaf orders under row resampling with replacement."""

    resamples: int
    point_orders: dict[str, int]
    order_histograms: dict[str, dict[int, int]]
    retained: tuple[str, ...]
    redraws: int
    stability_rule: str


def bootstrap_orders(panel: ReturnsPanel, scheme: WeightScheme, method: str, resamples: int,
                     seed: int, modal_share: float = 0.67, max_shift: int = 1) -> BootstrapReport:
    """Recompute correlation, tree, and orders on row-resampled panels.

    A leaf is retained when its modal order appears in at least `modal_share`
    of resamples and sits within `max_shift` of the point estimate.
    Degenerate resamples (a zero-variance column) are redrawn and counted.
    """
    if resamples < 50:
        raise ValueError("need at least 50 resamples")
    point_corr = weighted_pearson_matrix(panel, scheme)
    point_orders = order_profile(linkage_cluster(corr_to_distance(point_corr), panel.assets, method))

    histograms: dict[str, Counter] = {leaf: Counter() for leaf in panel.assets}
    redraws = 0
    t = panel.n_times
    for r in range(resamples):
        for attempt in range(100):
            rng = derived_rng(seed, r, attempt)
            rows = rng.integers(0, t, size=t)
            resampled = ReturnsPanel(assets=panel.assets, times=range(t), values=panel.values[rows])
            try:
                corr = weighted_pearson_matrix(resampled, scheme)
            except ValueError:
                redraws += 1
                continue
            break
        else:
            raise ValueError("resampling kept producing zero-variance columns")
        tree = linkage_cluster(corr_to_distance(corr), panel.assets, method)
        for leaf, order in order_profile(tree).items():
            histograms[leaf][order] += 1

    retained = []
    for leaf in panel.assets:
        modal_order, modal_count = histograms[leaf].most_common(1)[0]
        if modal_count >= modal_share * resamples and abs(modal_order - point_orders[leaf]) <= max_shift:
            retained.append(leaf)
    return BootstrapReport(
        resamples=resamples,
        point_orders=dict(point_orders),
        order_histograms={leaf: dict(sorted(h.items())) for leaf, h in histograms.items()},
        retained=tuple(retained),
        redraws=redraws,
        stability_rule=f"modal order in >= {modal_share:.0%} of resamples and within "
        f"{max_shift} of the point estimate",
    )
