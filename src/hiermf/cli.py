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
import json
import sys
import warnings
from pathlib import Path

from hiermf import dhm as dhm_mod
from hiermf.analysis import ROLLING_COLUMNS, analyze_panel, rolling_rows
from hiermf.dependence import (
    WeightScheme,
    exp_weights,
    kendall_tau,  # perfbench/selftest.py patches kendall_tau in this namespace
    write_correlation_csv,
)
from hiermf.hierarchy import LINKAGE_METHODS, parse_dendrogram, serialize_dendrogram
from hiermf.market_data import CsvSchema, ReturnsPanel, WindowSpec, load_prices_csv, returns_panel
from hiermf.run import Manifest, _messages
from hiermf.scaling import MIN_SERIES_LENGTH, calibrate_threshold
from hiermf.util import (
    checked_int,
    checked_number,
    checked_type,
    format_float,
    input_lines,
    parallel_map,
    write_csv,
    write_json_atomic,
    write_table_csv,
)
from hiermf.validation import check_equivalence, check_median_shift, check_tau_dispersion


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = json.loads("".join(input_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
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
            raise ValueError(f"{source} must be > {minimum}, got {number!r}")
        return number
    checked_type(value, str, source, "a string")
    if isinstance(kind, tuple) and value not in kind:
        raise ValueError(f"{source} must be one of {kind}, got {value!r}")
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
        raise ValueError("no input panel; pass --data or set 'data' in the config")
    try:
        schema = CsvSchema(date_column=settings["date-column"], delimiter=settings["delimiter"])
    except ValueError as exc:  # the delimiter is the field CsvSchema checks
        raise ValueError(f"{settings.source('delimiter')}: {exc}") from exc
    prices, report = load_prices_csv(data, schema)
    if len(prices.tickers) < 2:
        raise ValueError(f"{data}: 1 ticker; need at least 2")
    try:
        panel = returns_panel(prices)
    except ValueError as exc:  # alignment errors do not know the file
        raise ValueError(f"{data}: {exc}") from exc
    if panel.n_times < min_rows:
        message = f"{data}: {panel.n_times} aligned returns, need at least {min_rows}"
        worst = max(report.drop_counts, key=report.drop_counts.get)
        dropped = report.drop_counts[worst]
        if dropped:
            message += f"; ticker {worst!r} dropped {dropped} of {len(prices.dates)}"
        raise ValueError(message)
    sidecar = report.to_sidecar()
    sidecar["aligned_rows"] = panel.n_times
    return panel, sidecar


def _weights(settings: Settings, rows: int, theta: float) -> WeightScheme:
    """exp_weights over `rows` rows; a theta whose oldest weight underflows names the setting."""
    try:
        return exp_weights(rows, theta)
    except ValueError as exc:  # rows >= 2 and theta > 0 here, so only a zero weight is left
        raise ValueError(
            f"{settings.source('theta')} {theta!r} is too small for {rows} rows: "
            "the oldest weight underflows to 0"
        ) from exc


def cmd_analyze(settings: Settings, manifest: Manifest) -> int:
    tree_file, data = settings["tree"], settings["data"]
    # the Hurst fit needs MIN_SERIES_LENGTH log-prices, one more than returns
    panel, ingestion = _load_panel(settings, MIN_SERIES_LENGTH - 1)
    scheme = _weights(settings, panel.n_times, settings["theta"] or panel.n_times / 3.0)
    tree = None
    if tree_file:
        tree = parse_dendrogram(tree_file)
        if set(tree.leaves) != set(panel.assets):
            leaf = next((x for x in tree.leaves if x not in panel.assets), None)
            if leaf is not None:
                raise ValueError(f"{tree_file}: leaf {leaf!r} is not a ticker of {data}")
            ticker = next(a for a in panel.assets if a not in tree.leaves)
            raise ValueError(f"{tree_file}: ticker {ticker!r} of {data} is not a leaf")
    manifest.stage("load")

    try:
        result = analyze_panel(panel, scheme, settings["method"], settings["threshold"], tree)
    except ValueError as exc:  # the library names tickers and windows but not the file
        raise ValueError(f"{data}: {exc}") from exc
    manifest.stage("analysis")

    write_csv(
        manifest.record("per_asset.csv"),
        ["asset", "H1", "H2", "dH12", "se_H1", "se_H2", "order", "retained"],
        [
            [a, est.h(1.0), est.h(2.0), result.dh[a],
             *(est.std_errors[est.q_values.index(q)] for q in (1.0, 2.0)),
             result.orders[a], int(a in result.retained)]
            for a, est in result.ghe.items()
        ],
    )
    write_csv(manifest.record("orders.csv"), ["asset", "n"],
              [[a, result.orders[a]] for a in panel.assets])
    write_csv(manifest.record("order_stats.csv"), ["order", "mean_dH", "std", "std_error", "count"],
              list(result.stats.rows()))
    write_json_atomic(manifest.record("trend_test.json"), result.trend)
    write_correlation_csv(result.correlation, manifest.record("correlation.csv"))
    write_json_atomic(manifest.record("correlation.meta.json"),
                      {"delta_t": scheme.delta_t, "theta": scheme.theta})
    write_json_atomic(manifest.record("ingestion.json"), ingestion, indent=None)
    serialize_dendrogram(result.tree, manifest.record("tree.json"))
    manifest.stage("write")
    return 0


def _simulate_one(item: tuple[int, dhm_mod.DhmSpec], out_dir: str) -> str:
    run_index, spec = item
    result = dhm_mod.simulate_returns(spec)
    run_dir = Path(out_dir) / f"run_{run_index:04d}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # simulate_returns numbers the steps range(spec.length)
    write_table_csv(run_dir / "returns.csv", ["t", *result.returns.assets], 0, result.returns.values)
    for k, acts in enumerate(result.activations):
        write_table_csv(
            run_dir / f"activations_regime_{k:02d}.csv",
            ["t", *[f"node_{i}" for i in acts.node_ids]],
            result.regime_starts[k],
            acts.values.T,
        )
    write_json_atomic(run_dir / "params.json", dhm_mod.simulation_params(spec, result))
    return str(run_dir)


def cmd_simulate(settings: Settings, manifest: Manifest) -> int:
    if not settings.args.config:
        raise ValueError("simulate requires --config pointing at a model spec")
    base_seed = settings["seed"]
    if base_seed is None:
        raise ValueError("simulate needs a seed (flag --seed or config key 'seed')")

    base_dir = Path(settings.args.config).resolve().parent
    # every run's spec is built here, so errors surface before any run
    try:
        specs = [
            dhm_mod.load_dhm_config_dict(settings.config, base_dir, seed_override=base_seed + r)
            for r in range(settings["repeat"])
        ]
    except ValueError as exc:
        raise ValueError(f"bad model spec: {exc}") from exc
    manifest.stage("validate")

    worker = functools.partial(_simulate_one, out_dir=str(manifest.out_dir))
    run_dirs = parallel_map(worker, list(enumerate(specs)), jobs=settings.args.jobs)
    for d in run_dirs:
        for f in sorted(Path(d).iterdir()):
            manifest.record(f.relative_to(manifest.out_dir))
    manifest.stage("simulate")
    return 0


def cmd_rolling(settings: Settings, manifest: Manifest) -> int:
    length, count, theta = settings["window-length"], settings["window-count"], settings["theta"]
    # a window of `length` returns gives length + 1 log-prices to estimate_ghe
    if length + 1 < MIN_SERIES_LENGTH:
        raise ValueError(
            f"{settings.source('window-length')} {length} is too short for the Hurst fit; "
            f"need at least {MIN_SERIES_LENGTH - 1} returns per window"
        )
    scheme = _weights(settings, length, theta)

    panel, ingestion = _load_panel(settings, length)
    write_json_atomic(manifest.record("ingestion.json"), ingestion, indent=None)
    manifest.stage("load")

    try:
        rows = rolling_rows(panel, WindowSpec(length=length, count=count), scheme, settings["method"])
    except ValueError as exc:  # the library names tickers and windows but not the file
        raise ValueError(f"{settings['data']}: {exc}") from exc
    manifest.stage("windows")

    write_csv(manifest.record("rolling.csv"), ROLLING_COLUMNS, rows)
    write_json_atomic(
        manifest.record("rolling.meta.json"),
        {"cluster_criterion": "largest-gap cut on the linkage dendrogram",
         "theta": theta, "window_length": length, "window_count": count},
    )
    manifest.stage("write")
    return 0


def cmd_validate_model(settings: Settings, manifest: Manifest) -> int:
    seed, steps, tolerance = settings["seed"], settings["steps"], settings["tolerance"]
    n_seeds, min_ratio = settings["dispersion-seeds"], settings["min-dispersion-ratio"]
    if tolerance >= 2:  # no correlation deviation exceeds 2, so no check could fail
        name = "tolerance" if settings.given("tolerance") else "steps"
        raise ValueError(
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
    lo, hi = settings["hurst-min"], settings["hurst-max"]
    for name, value in (("hurst-min", lo), ("hurst-max", hi)):
        if not 0 < value < 1:  # a default is inside, so the bad end was set
            raise ValueError(f"{settings.source(name)} must be inside (0, 1), got {value!r}")
    if lo > hi:
        ends = [f"{settings.source(name)} {settings[name]!r}" if settings.given(name)
                else f"the default {name} {settings[name]!r}" for name in ("hurst-min", "hurst-max")]
        raise ValueError(f"the Hurst range is inverted: {ends[0]} is above {ends[1]}")
    length = settings["length"]
    if length < MIN_SERIES_LENGTH:
        raise ValueError(
            f"{settings.source('length')} {length} is too short for the Hurst fit; "
            f"need at least {MIN_SERIES_LENGTH}"
        )
    calibration = calibrate_threshold(
        settings["count"], (lo, hi), length,
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


def main(argv=None) -> int:
    """Run one command; its warnings go to the manifest, or to stderr if it fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            settings = Settings(args, _load_config_file(args.config))
            out = Path(args.out or "hiermf-out")
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"cannot create output directory {out}: {exc.strerror}") from exc
            manifest = Manifest(out, args.command)
            manifest.remove_stale()
            status = _COMMANDS[args.command][0](settings, manifest)
        except ValueError as exc:
            for message in _messages(caught):
                print(f"warning: {message}", file=sys.stderr)
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # the config file's keys, with every setting the command read laid over them
    manifest.write({**settings.config, **settings}, _messages(caught))
    return status


if __name__ == "__main__":
    sys.exit(main())
