"""Command-line pipelines: analyze, simulate, rolling, validate-model, calibrate.

Every run writes into its own output directory: data CSVs, JSON sidecars,
and a manifest.json written last (a missing manifest marks an aborted run).
Identical config and seed give byte-identical data files; manifests differ
only in timings.

Exit codes: 0 success, 1 usage/config/data error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from hiermf import __version__
from hiermf import dhm as dhm_mod
from hiermf.dependence import (
    corr_to_distance,
    elliptical_tau,
    exp_weights,
    kendall_tau,
    one_factor_correlation,
    weighted_pearson_matrix,
    write_correlation_csv,
)
from hiermf.diagnostics import order_conditional_mean, quantile_summary, trend_test
from hiermf.hierarchy import (
    LINKAGE_METHODS,
    cluster_cut,
    linkage_cluster,
    order_profile,
    parse_dendrogram,
    random_binary_tree,
    serialize_dendrogram,
)
from hiermf.market_data import CsvSchema, ReturnsPanel, WindowSpec, load_prices_csv, returns_panel, rolling_windows
from hiermf.scaling import (
    MIN_SERIES_LENGTH,
    DegenerateMomentError,
    calibrate_threshold,
    delta_h,
    estimate_ghe,
)
from hiermf.util import (
    checked_int,
    checked_number,
    checked_type,
    decoded_lines,
    derived_rng,
    format_float,
    parallel_map,
    write_csv,
    write_json_atomic,
)


class UsageError(Exception):
    """Bad flags, config, or input data; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class Manifest:
    """Collects the stage timings and outputs of a run; written atomically last."""

    def __init__(self, out_dir: Path, command: str):
        self.out_dir = out_dir
        self.command = command
        self.stages: dict[str, float] = {}
        self.outputs: list[str] = []
        self._t0 = time.perf_counter()
        self._stage_start = self._t0

    def stage(self, name: str):
        now = time.perf_counter()
        self.stages[name] = round(now - self._stage_start, 6)
        self._stage_start = now

    def record(self, name: str | Path) -> Path:
        """Path of output `name`, given relative to the run directory, listed as an output."""
        self.outputs.append(str(name))
        return self.out_dir / name

    def write(self, config: dict, warning_messages: list[str]):
        digest = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest()
        payload = {
            "version": __version__,
            "command": self.command,
            "config": config,
            "config_sha256": digest,
            "wall_clock_seconds": round(time.perf_counter() - self._t0, 6),
            "stage_seconds": self.stages,
            "warnings": warning_messages,
            "outputs": sorted(self.outputs),
        }
        write_json_atomic(self.out_dir / "manifest.json", payload)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.loads("".join(decoded_lines(fh, path)))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return config


_METHOD = (LINKAGE_METHODS, "average", None, "linkage of the clustering")
_PRICES = {
    "data": (str, None, None, "prices CSV (one date column, one column per ticker)"),
    "date-column": (str, "date", None, "header of the price file's date column"),
    "delimiter": (str, ",", None, "the price file's one-character cell separator"),
}

# Each command's settings in the order they are read: name -> (kind, default, minimum, help).
# kind is int, float, str or a tuple of allowed strings. A callable default gets the values
# read before it; a None default leaves an unset setting None. An int is at least its
# minimum, a float above it. A help of None means config-only; --seed is a common flag.
SETTINGS = {
    "analyze": {
        "threshold": (float, 0.015, None, "dH significance cutoff; <= 0 disables"),
        "theta": (float, None, 0, "weight decay in rows (default rows/3)"),
        "method": _METHOD,
        "tree": (str, None, None, "import a dendrogram JSON instead of clustering"),
        **_PRICES,
    },
    "simulate": {
        "repeat": (int, 1, 1, "independent realizations"),
        "seed": (int, None, 0, "master seed"),
    },
    "rolling": {
        "window-length": (int, 752, None, "returns per window"),
        "window-count": (int, 50, 1, "number of windows"),
        "theta": (float, 250.0, 0, "weight decay in rows"),
        "method": _METHOD,
        **_PRICES,
    },
    "validate-model": {
        "seed": (int, 0, 0, "master seed"),
        "steps": (int, 1_000_000, 2, "steps of each equivalence run"),
        # the default band is calibrated at 1e6 steps; scale it for shorter runs
        "tolerance": (float, lambda read: 0.02 * max(1.0, (1_000_000 / read["steps"]) ** 0.5),
                      None, "deviation bound (default 0.02 * max(1, sqrt(10^6 / steps)))"),
        "trees": (int, 3, 1, "random trees of the equivalence check"),
        # two steps are the fewest a correlation can be measured on
        "length": (int, 4026, 2, "steps of each median-shift and dispersion run"),
        "dispersion-seeds": (int, 3, 1, None),
        "min-dispersion-ratio": (float, 1.0, None, None),
    },
    "calibrate": {
        "count": (int, 1000, 10, "fBm realizations"),
        "hurst-min": (float, 0.1, None, "lowest Hurst exponent drawn"),
        "hurst-max": (float, 0.9, None, "highest Hurst exponent drawn"),
        "length": (int, 4026, None, "points per fBm path"),
        "seed": (int, 0, 0, "master seed"),
    },
}


def _checked(value, kind, minimum, source: str):
    """`value` if it is of `kind` and within `minimum`; errors name the flag or key `source`."""
    if kind is int:
        return checked_int(value, source, minimum)
    if kind is float:
        number = checked_number(value, source)
        if minimum is not None and number <= minimum:
            raise UsageError(f"{source} must be > {minimum}, got {number!r}")
        return number
    checked_type(value, str, source, "a string")
    if isinstance(kind, tuple) and value not in kind:
        raise UsageError(f"{source} must be one of {kind}, got {value!r}")
    return value


class Settings(dict):
    """The command's settings by name: the flag if given, else the config key, else the default.

    The constructor checks the command's whole SETTINGS table, so a bad value fails before any work.
    """

    def __init__(self, args, config: dict):
        super().__init__()
        self.args = args
        self.config = config
        for name, (kind, default, minimum, _) in SETTINGS[args.command].items():
            if callable(default):
                default = default(self)
            value = self._flag(name)
            if value is None:
                value = config.get(name, default)
            if value is not None or default is not None:
                value = _checked(value, kind, minimum, self.source(name))
            self[name] = value

    def _flag(self, name: str):
        return getattr(self.args, name.replace("-", "_"), None)

    def given(self, name: str) -> bool:
        """Whether the flag or the config key sets `name`."""
        return self._flag(name) is not None or name in self.config

    def source(self, name: str) -> str:
        """How the user set `name`: the flag when given, else the config key."""
        return f"--{name}" if self._flag(name) is not None else f"config key {name!r}"


def _worker_count(text: str) -> int:
    """argparse type of --jobs: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_panel(settings: Settings, min_rows: int) -> tuple[ReturnsPanel, dict]:
    """Aligned scale-1 panel and its ingestion sidecar; fewer than `min_rows` returns is an error."""
    data = settings["data"]
    if not data:
        raise UsageError("no input panel; pass --data or set 'data' in the config")
    try:
        schema = CsvSchema(date_column=settings["date-column"], delimiter=settings["delimiter"])
    except ValueError as exc:  # the delimiter is the field CsvSchema checks
        raise UsageError(f"{settings.source('delimiter')}: {exc}") from exc
    try:
        prices, report = load_prices_csv(data, schema)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        panel = returns_panel(prices)
    except ValueError as exc:  # alignment errors do not know the file
        raise UsageError(f"{data}: {exc}") from exc
    if panel.n_times < min_rows:
        message = f"{data}: {panel.n_times} aligned returns, need at least {min_rows}"
        worst = max(report.drop_counts, key=report.drop_counts.get)
        dropped = report.drop_counts[worst]
        if dropped:
            message += f"; ticker {worst!r} dropped {dropped} of {len(prices.dates)}"
        raise UsageError(message)
    sidecar = report.to_sidecar()
    sidecar["aligned_rows"] = panel.n_times
    return panel, sidecar


def _unfittable(
    exc: DegenerateMomentError, data: str, panel: ReturnsPanel,
    windows: list[ReturnsPanel] | None = None,
) -> UsageError:
    """The scaling error restated with the price file, the ticker and the window's dates."""
    where = f"{data}: ticker {panel.assets[exc.column]!r}"
    if exc.window is not None:
        times = windows[exc.window].times
        where += f" in window {exc.window} ({times[0]} to {times[-1]})"
    return UsageError(
        f"{where} has no price change at lag {exc.scale}, so M(q={exc.q}, l={exc.scale}) = 0 "
        "and its Hurst exponents cannot be fitted"
    )


def cmd_analyze(settings: Settings, manifest: Manifest) -> int:
    threshold, tree_file, data = settings["threshold"], settings["tree"], settings["data"]
    # the Hurst fit needs MIN_SERIES_LENGTH log-prices, one more than returns
    panel, ingestion = _load_panel(settings, MIN_SERIES_LENGTH - 1)
    manifest.stage("load")

    scheme = exp_weights(panel.n_times, settings["theta"] or panel.n_times / 3.0)
    try:
        corr = weighted_pearson_matrix(panel, scheme)
    except ValueError as exc:  # a zero-variance error names the ticker but not the file
        raise UsageError(f"{data}: {exc}") from exc
    if tree_file:
        try:
            tree = parse_dendrogram(tree_file)
        except OSError as exc:
            raise UsageError(f"cannot read tree {tree_file}: {exc.strerror}") from exc
        if set(tree.leaves) != set(panel.assets):
            raise UsageError("imported tree leaves do not match panel assets")
    else:
        tree = linkage_cluster(corr_to_distance(corr), panel.assets, settings["method"])
    orders = order_profile(tree)
    manifest.stage("dependence")

    try:
        ghe = dict(zip(panel.assets, estimate_ghe(panel.log_price_paths())))
    except DegenerateMomentError as exc:
        raise _unfittable(exc, data, panel) from exc
    dh = {a: delta_h(est) for a, est in ghe.items()}
    retained = [a for a in panel.assets if threshold <= 0 or dh[a] > threshold]
    if len(retained) < 3:
        raise UsageError(
            f"fewer than 3 assets survive the multiscaling threshold {threshold}"
        )
    manifest.stage("ghe")

    stats = order_conditional_mean({a: dh[a] for a in retained}, {a: orders[a] for a in retained})
    if len(stats.orders) >= 3:
        trend = trend_test(stats.orders, stats.means)
        trend_payload = trend.to_json()
    else:
        note = "fewer than 3 distinct orders; trend test skipped"
        trend_payload = {"note": note}
        warnings.warn(note)

    write_csv(
        manifest.record("per_asset.csv"),
        ["asset", "H1", "H2", "dH12", "se_H1", "se_H2", "order", "retained"],
        [
            [a, est.h(1.0), est.h(2.0), dh[a],
             *(est.std_errors[est.q_values.index(q)] for q in (1.0, 2.0)),
             orders[a], int(a in retained)]
            for a, est in ghe.items()
        ],
    )
    write_csv(
        manifest.record("orders.csv"),
        ["asset", "n"],
        [[a, orders[a]] for a in panel.assets],
    )
    write_csv(
        manifest.record("order_stats.csv"),
        ["order", "mean_dH", "std", "std_error", "count"],
        list(stats.rows()),
    )
    write_json_atomic(manifest.record("trend_test.json"), trend_payload)
    write_correlation_csv(corr, manifest.record("correlation.csv"))
    write_json_atomic(
        manifest.record("correlation.meta.json"),
        {"delta_t": scheme.delta_t, "theta": scheme.theta},
    )
    write_json_atomic(manifest.record("ingestion.json"), ingestion, indent=None)
    serialize_dendrogram(tree, manifest.record("tree.json"))
    manifest.stage("write")
    return 0


def _simulate_one(item: tuple[int, dict], out_dir: str) -> str:
    run_index, spec_payload = item
    spec = dhm_mod.load_dhm_config_dict(
        spec_payload["config"], Path(spec_payload["base_dir"]),
        seed_override=spec_payload["seed"],
    )
    result = dhm_mod.simulate_returns(spec)
    run_dir = Path(out_dir) / f"run_{run_index:04d}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        run_dir / "returns.csv",
        ["t", *result.returns.assets],
        ([t, *row.tolist()] for t, row in zip(result.returns.times, result.returns.values)),
    )
    for k, acts in enumerate(result.activations):
        start = result.regime_starts[k]
        write_csv(
            run_dir / f"activations_regime_{k:02d}.csv",
            ["t", *[f"node_{i}" for i in acts.node_ids]],
            ([start + t, *row] for t, row in enumerate(acts.values.T.tolist())),
        )
    params = {
        "seed": spec.seed,
        "length": spec.length,
        "assets": list(spec.noise.assets),
        "regime_durations": [r.duration for r in spec.regimes],
    }
    if spec.logvol is not None:
        params["lambda"] = spec.logvol.lam
        params["horizon"] = spec.logvol.horizon
        params["xi_embedding"] = dhm_mod.xi_embedding_report(spec.logvol, spec.length)
        x_centered = result.x - result.x.mean()
        params["x_autocovariance"] = {
            str(lag): float(x_centered[:-lag] @ x_centered[lag:] / x_centered.size)
            for lag in (1, 5, 10, 50)
            if lag < spec.length
        }
    if spec.noise_variances is not None:
        params["noise_variances"] = [float(v) for v in spec.noise_variances]
    write_json_atomic(run_dir / "params.json", params)
    return str(run_dir)


def cmd_simulate(settings: Settings, manifest: Manifest) -> int:
    if not settings.args.config:
        raise UsageError("simulate requires --config pointing at a model spec")
    base_seed = settings["seed"]
    if base_seed is None:
        raise UsageError("simulate needs a seed (flag --seed or config key 'seed')")

    base_dir = Path(settings.args.config).resolve().parent
    # validate the spec once up front so errors surface before any run
    try:
        dhm_mod.load_dhm_config_dict(settings.config, base_dir, seed_override=base_seed)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad model spec: {exc}") from exc
    manifest.stage("validate")

    payloads = [
        {"config": settings.config, "base_dir": str(base_dir), "seed": base_seed + r}
        for r in range(settings["repeat"])
    ]
    worker = functools.partial(_simulate_one, out_dir=str(manifest.out_dir))
    run_dirs = parallel_map(worker, list(enumerate(payloads)), jobs=settings.args.jobs)
    for d in run_dirs:
        for f in sorted(Path(d).iterdir()):
            manifest.record(f.relative_to(manifest.out_dir))
    manifest.stage("simulate")
    return 0


def cmd_rolling(settings: Settings, manifest: Manifest) -> int:
    length, count, theta = settings["window-length"], settings["window-count"], settings["theta"]
    # a window of `length` returns gives length + 1 log-prices to estimate_ghe
    if length + 1 < MIN_SERIES_LENGTH:
        raise UsageError(
            f"{settings.source('window-length')} {length} is too short for the Hurst fit; "
            f"need at least {MIN_SERIES_LENGTH - 1} returns per window"
        )

    panel, ingestion = _load_panel(settings, length)
    spec = WindowSpec(length=length, count=count)
    try:
        windows = rolling_windows(panel, spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_json_atomic(manifest.record("ingestion.json"), ingestion, indent=None)
    manifest.stage("load")

    scheme = exp_weights(length, theta)
    # one pass over the whole panel shares each scale's increments across windows
    try:
        window_ghe = estimate_ghe(panel.log_price_paths(), windows=spec)
    except DegenerateMomentError as exc:
        raise _unfittable(exc, settings["data"], panel, windows) from exc
    rows = []
    for w_index, (window, estimates) in enumerate(zip(windows, window_ghe)):
        corr = weighted_pearson_matrix(window, scheme)
        off = corr.offdiagonal()
        tree = linkage_cluster(corr_to_distance(corr), window.assets, settings["method"])
        orders = order_profile(tree)
        cut = cluster_cut(tree)
        dhs = [delta_h(est) for est in estimates]
        (quantiles,) = quantile_summary({"rho": off}, levels=(0.025, 0.25, 0.75, 0.975))
        rows.append([
            w_index, window.times[0], window.times[-1],
            float(off.mean()), *quantiles.values,
            cut.count, float(np.mean(dhs)), float(np.mean(list(orders.values()))),
        ])
    manifest.stage("windows")

    write_csv(
        manifest.record("rolling.csv"),
        ["window", "start", "end", "rho_mean", "rho_q025", "rho_q25",
         "rho_q75", "rho_q975", "n_clusters", "mean_dH", "mean_order"],
        rows,
    )
    write_json_atomic(
        manifest.record("rolling.meta.json"),
        {"cluster_criterion": "largest-gap cut on the linkage dendrogram",
         "theta": theta, "window_length": length, "window_count": count},
    )
    manifest.stage("write")
    return 0


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
        labels = [f"A{i:02d}" for i in range(n_leaves)]
        tree = dhm_mod.draw_probabilities(
            random_binary_tree(n_leaves, rng, labels), 0.0, 1.0, rng
        )
        noise = one_factor_correlation(labels, rng)
        spec = dhm_mod.DhmSpec(
            noise=noise,
            regimes=(dhm_mod.Regime(tree=tree, duration=steps),),
            logvol=None,
            length=steps,
            seed=int(derived_rng(seed, 11, k).integers(0, 2**63)),
        )
        sample = dhm_mod.sample_correlation(spec)
        theory = dhm_mod.theoretical_correlation(noise, tree).values
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
    labels = [f"A{i:02d}" for i in range(n_leaves)]
    base = random_binary_tree(n_leaves, rng, labels)
    noise = one_factor_correlation(labels, rng)
    run_seed = int(rng.integers(0, 2**63))
    returns = {}
    for tag, (lo, hi) in {"hier": hier_p, "flat": (1.0, 1.0)}.items():
        tree = dhm_mod.draw_probabilities(base, lo, hi, derived_rng(seed, stream + 1, k))
        spec = dhm_mod.DhmSpec(
            noise=noise, regimes=(dhm_mod.Regime(tree=tree, duration=length),),
            logvol=dhm_mod.LogVolSpec(), length=length, seed=run_seed,
        )
        returns[tag] = dhm_mod.simulate_returns(spec).returns.values
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
            devs = [
                kendall_tau(values[:, i], values[:, j]) - elliptical_tau(float(corr[i, j]))
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


def cmd_validate_model(settings: Settings, manifest: Manifest) -> int:
    seed, steps, tolerance = settings["seed"], settings["steps"], settings["tolerance"]
    n_seeds, min_ratio = settings["dispersion-seeds"], settings["min-dispersion-ratio"]
    if tolerance >= 2:  # no correlation deviation exceeds 2, so no check could fail
        name = "tolerance" if settings.given("tolerance") else "steps"
        raise UsageError(
            f"{settings.source(name)} gives a tolerance of {tolerance:g}; it must be below 2 "
            "(the default tolerance is, from 101 steps on)"
        )

    checks = []
    checks.append(check_equivalence(settings["trees"], steps, seed, tolerance))
    manifest.stage("equivalence")
    checks.append(check_median_shift(5, settings["length"], seed))
    manifest.stage("median_shift")
    checks.append(check_tau_dispersion(n_seeds, settings["length"], seed, min_ratio=min_ratio))
    manifest.stage("tau_dispersion")

    passed = all(c["passed"] for c in checks)
    write_json_atomic(
        manifest.record("validation.json"),
        {"passed": passed, "checks": checks},
    )
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['check']}")
    return 0 if passed else 2


def cmd_calibrate(settings: Settings, manifest: Manifest) -> int:
    length = settings["length"]
    if length < MIN_SERIES_LENGTH:
        raise UsageError(
            f"{settings.source('length')} {length} is too short for the Hurst fit; "
            f"need at least {MIN_SERIES_LENGTH}"
        )
    calibration = calibrate_threshold(
        settings["count"], (settings["hurst-min"], settings["hurst-max"]), length,
        settings["seed"], jobs=settings.args.jobs,
    )
    manifest.stage("calibrate")
    write_json_atomic(manifest.record("threshold.json"), calibration.to_json())
    print(f"threshold = {format_float(calibration.threshold)}")
    return 0


_COMMANDS = {
    "analyze": (cmd_analyze, "orders + multiscaling on a price panel"),
    "simulate": (cmd_simulate, "simulate the hierarchical model"),
    "rolling": (cmd_rolling, "windowed dependence/scaling report"),
    "validate-model": (cmd_validate_model, "simulator-vs-closed-form checks"),
    "calibrate": (cmd_calibrate, "multiscaling threshold from fBm nulls"),
}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--jobs", type=_worker_count, default=1, help="worker processes")
    common.add_argument("--out", help="output directory (default hiermf-out)")

    parser = _Parser(prog="hiermf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=summary)
        for name, (kind, default, _, text) in SETTINGS[command].items():
            if text is None or name == "seed":  # config-only, or the common --seed
                continue
            if default is not None and not callable(default):
                text += f" (default {default!r})"
            kind_arg = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(f"--{name}", help=text, **kind_arg)
    return parser


def _messages(caught: list[warnings.WarningMessage]) -> list[str]:
    """Each distinct warning message once, in first-seen order."""
    return list(dict.fromkeys(str(w.message) for w in caught))


def main(argv=None) -> int:
    """Run one command; its warnings go to the manifest, or to stderr if it fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            settings = Settings(args, _load_config_file(args.config))
            out = Path(args.out or "hiermf-out")
            out.mkdir(parents=True, exist_ok=True)
            manifest = Manifest(out, args.command)
            status = _COMMANDS[args.command][0](settings, manifest)
        except (UsageError, ValueError) as exc:
            for message in _messages(caught):
                print(f"warning: {message}", file=sys.stderr)
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # the config file's keys, with every setting the command read laid over them
    manifest.write({**settings.config, **settings}, _messages(caught))
    return status


if __name__ == "__main__":
    sys.exit(main())
