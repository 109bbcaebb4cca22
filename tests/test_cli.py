import codecs
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from hiermf import analysis, cli, dependence, validation
from hiermf.cli import main
from hiermf.dhm import RiskTree, simulate_returns, DhmSpec, Regime, LogVolSpec, load_dhm_config
from hiermf.dependence import CorrelationMatrix, read_correlation_csv
from hiermf.hierarchy import comb_tree, random_binary_tree, serialize_dendrogram
from hiermf.market_data import WindowSpec
from hiermf.scaling import delta_h, estimate_ghe
from hiermf.util import write_csv
from hiermf.validation import check_equivalence


def write_price_csv(path, n_assets=8, length=600, seed=0, drift_vol=0.01):
    rng = np.random.default_rng(seed)
    logs = np.cumsum(drift_vol * rng.standard_normal((length, n_assets)), axis=0)
    lines = ["date," + ",".join(f"T{j}" for j in range(n_assets))]
    for t in range(length):
        cells = ",".join(f"{100 * math.exp(v):.10f}" for v in logs[t])
        lines.append(f"{10000 + t},{cells}")
    path.write_text("\n".join(lines) + "\n")


def write_model_config(tmp_path, n_leaves=5, length=300, regimes=None, seed=3):
    tree = random_binary_tree(n_leaves, np.random.default_rng(1))
    serialize_dendrogram(tree, tmp_path / "tree.json")
    config = {
        "length": length,
        "seed": seed,
        "logvol": {"lambda": 0.2, "horizon": 800},
        "noise": {"constant": 0.25},
        "regimes": regimes
        or [{"tree": "tree.json", "duration": length, "p_range": [0.4, 0.6]}],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return path


# --- calibrate ---


def test_calibrate_writes_threshold_and_manifest(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "calibrate", "--count", "120", "--length", "400",
        "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "threshold.json").read_text())
    assert payload["threshold"] > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "threshold.json" in manifest["outputs"]
    assert manifest["warnings"] == []


def test_calibrate_reproducible(tmp_path):
    args = ["calibrate", "--count", "100", "--length", "400", "--seed", "7"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a/threshold.json").read_bytes() == (tmp_path / "b/threshold.json").read_bytes()


def test_calibrate_worker_count_invariant(tmp_path):
    for jobs in ("1", "2"):
        args = ["calibrate", "--count", "20", "--length", "200", "--jobs", jobs]
        assert main(args + ["--out", str(tmp_path / f"j{jobs}")]) == 0
    assert (tmp_path / "j1/threshold.json").read_bytes() == (tmp_path / "j2/threshold.json").read_bytes()


def test_calibrate_rejects_short_length_up_front(tmp_path, capsys):
    rc = main(["calibrate", "--count", "10", "--length", "50", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--length 50" in capsys.readouterr().err


def test_calibrate_names_count_below_ten(tmp_path, capsys):
    rc = main(["calibrate", "--count", "5", "--length", "400", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --count must be >= 10, got 5\n"


def test_calibrate_low_count_warns_in_manifest(tmp_path):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        rc = main(["calibrate", "--count", "10", "--length", "400", "--seed", "1", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the library warning is recorded once, in the manifest, and not printed
    assert manifest["warnings"] == ["low realization count"]
    assert not [w for w in leaked if issubclass(w.category, UserWarning)]


# --- simulate ---


def test_simulate_single_run(tmp_path):
    config = write_model_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config), "--out", str(out)])
    assert rc == 0
    run = out / "run_0000"
    returns = (run / "returns.csv").read_text().splitlines()
    assert len(returns) == 301  # header + rows
    assert (run / "params.json").exists()
    assert (run / "activations_regime_00.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"


def test_simulate_repeat_directories(tmp_path):
    config = write_model_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config), "--repeat", "3", "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("run_*")) == ["run_0000", "run_0001", "run_0002"]
    a = (out / "run_0000/returns.csv").read_bytes()
    b = (out / "run_0001/returns.csv").read_bytes()
    assert a != b  # independent realizations


@pytest.mark.parametrize(
    "flags, config_repeat, named",
    [(["--repeat", "0"], None, "--repeat"), ([], 0, "config key 'repeat'")],
)
def test_simulate_rejects_zero_repeat(tmp_path, capsys, flags, config_repeat, named):
    config = write_model_config(tmp_path)
    if config_repeat is not None:
        config.write_text(json.dumps({**json.loads(config.read_text()), "repeat": config_repeat}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), *flags, "--out", str(out)]) == 1
    assert f"{named} must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "run_0000").exists()


def test_simulate_worker_count_invariant(tmp_path):
    config = write_model_config(tmp_path)
    for jobs in ("1", "2"):
        args = ["simulate", "--config", str(config), "--repeat", "2", "--jobs", jobs]
        assert main(args + ["--out", str(tmp_path / f"j{jobs}")]) == 0
    for run in ("run_0000", "run_0001"):
        for name in ("returns.csv", "params.json"):
            assert (tmp_path / "j1" / run / name).read_bytes() == (
                tmp_path / "j2" / run / name
            ).read_bytes()


def test_simulate_identical_bytes_across_reruns(tmp_path):
    config = write_model_config(tmp_path)
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/run_0000/returns.csv").read_bytes() == (
        tmp_path / "b/run_0000/returns.csv"
    ).read_bytes()


def test_simulate_returns_csv_bytes_match_tuple_times(tmp_path, monkeypatch):
    """The range of step indices writes the same bytes the old tuple of ints wrote."""
    config = write_model_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "range")]) == 0
    simulate = cli.dhm_mod.simulate_returns

    def with_tuple_times(spec):
        out = simulate(spec)
        returns = dataclasses.replace(out.returns, times=tuple(out.returns.times))
        return dataclasses.replace(out, returns=returns)

    monkeypatch.setattr(cli.dhm_mod, "simulate_returns", with_tuple_times)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "tuple")]) == 0
    lazy = (tmp_path / "range/run_0000/returns.csv").read_bytes()
    assert lazy == (tmp_path / "tuple/run_0000/returns.csv").read_bytes()
    assert [line.split(b",")[0] for line in lazy.splitlines()[1:]] == [
        str(t).encode() for t in range(300)
    ]


def test_simulate_two_regime_full_span(tmp_path):
    config = write_model_config(
        tmp_path,
        length=4026,
        regimes=[
            {"tree": "tree.json", "duration": 2013, "p_range": [0.4, 0.6]},
            {"tree": "tree.json", "duration": 2013, "p_range": [0.4, 0.6]},
        ],
    )
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config), "--out", str(out)])
    assert rc == 0
    rows = (out / "run_0000/returns.csv").read_text().splitlines()
    assert len(rows) == 4027
    assert (out / "run_0000/activations_regime_01.csv").exists()


def test_simulate_activation_files_are_write_csv_of_the_draws(tmp_path):
    """Each regime's table numbers its rows by the step; the second regime starts at 7."""
    config = write_model_config(
        tmp_path,
        length=10_005,
        regimes=[
            {"tree": "tree.json", "duration": 7, "p_range": [0.4, 0.6]},
            {"tree": "tree.json", "duration": 9_998, "p_range": [0.2, 0.8]},
        ],
    )
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    result = simulate_returns(load_dhm_config(config))
    for k, (acts, start) in enumerate(zip(result.activations, result.regime_starts)):
        expected = tmp_path / f"expected_{k}.csv"
        write_csv(expected, ["t", *[f"node_{i}" for i in acts.node_ids]],
                  ([start + t, *row] for t, row in enumerate(acts.values.T.tolist())))
        written = tmp_path / f"out/run_0000/activations_regime_{k:02d}.csv"
        assert written.read_bytes() == expected.read_bytes()


def test_simulate_requires_config(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == 1


def test_simulate_bad_durations(tmp_path):
    config = write_model_config(
        tmp_path, length=100, regimes=[{"tree": "tree.json", "duration": 60, "p_range": [0.4, 0.6]}]
    )
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def _set_path(config, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        config = config[int(key) if key.isdigit() else key]
    config[last] = value


BAD_MODEL_SPECS = [
    ({"length": True, "regimes.0.duration": True},
     "model config key 'length' must be an integer, got True"),
    ({"length": 300.9}, "model config key 'length' must be an integer, got 300.9"),
    ({"length": "300"}, "model config key 'length' must be an integer, got '300'"),
    ({"regimes.0.duration": 300.0}, "regime 0 key 'duration' must be an integer, got 300.0"),
    ({"logvol.horizon": 800.5}, "model config key 'logvol.horizon' must be an integer, got 800.5"),
    ({"logvol.lambda": "0.2"}, "model config key 'logvol.lambda' must be a number, got '0.2'"),
    ({"regimes.0.p_range": ["0.4", 0.6]},
     "regime 0 key 'p_range' entry 0 must be a number, got '0.4'"),
    ({"noise.constant": "0.25"}, "model config key 'noise.constant' must be a number, got '0.25'"),
    # sections of the wrong JSON type
    ({"regimes": 5}, "model config key 'regimes' must be a list, got 5"),
    ({"regimes": [5]}, "regime 0 must be an object, got 5"),
    ({"regimes": []}, "model config key 'regimes' must list at least one regime"),
    ({"logvol": 5}, "model config key 'logvol' must be an object or null, got 5"),
    ({"noise": [1]}, "model config key 'noise' must be an object, got [1]"),
    ({"noise": {"file": 5}}, "model config key 'noise.file' must be a file name, got 5"),
    ({"regimes.0.tree": 5}, "regime 0 key 'tree' must be a file name, got 5"),
    ({"regimes.0.inherit_previous": "no"},
     "regime 0 key 'inherit_previous' must be true or false, got 'no'"),
    # NaN and infinities, which JSON parsing accepts
    ({"logvol.lambda": math.nan},
     "model config key 'logvol.lambda' must be a finite number, got nan"),
    ({"noise.constant": math.nan},
     "model config key 'noise.constant' must be a finite number, got nan"),
    ({"regimes.0.p_range": [0.4, math.inf]},
     "regime 0 key 'p_range' entry 1 must be a finite number, got inf"),
]


@pytest.mark.parametrize(
    "changes, named", BAD_MODEL_SPECS,
    ids=["-".join(f"{k}={v!r}" for k, v in changes.items()) for changes, _ in BAD_MODEL_SPECS],
)
def test_model_spec_numbers_of_the_wrong_type_name_the_key(tmp_path, capsys, changes, named):
    path = write_model_config(tmp_path)
    config = json.loads(path.read_text())
    for dotted, value in changes.items():
        _set_path(config, dotted, value)
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bad model spec: {named}\n"
    assert not (out / "run_0000").exists()


def test_simulate_rejects_mislabeled_noise_rows(tmp_path, capsys):
    config = write_model_config(tmp_path, n_leaves=3)
    labels = ["A00", "A01", "A02"]
    values = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
    lines = ["," + ",".join(labels)]
    for label, row in zip(["A01", "A00", "A02"], values):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    (tmp_path / "noise.csv").write_text("\n".join(lines) + "\n")
    payload = json.loads(config.read_text())
    payload["noise"] = {"file": "noise.csv"}
    config.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "noise.csv" in err and "'A01'" in err


MALFORMED_TREES = [
    (5, "top level must be an object, got 5"),
    ({"leaves": ["A00"], "nodes": 5, "root": 1}, "key 'nodes' must be a list, got 5"),
    ({"leaves": 5, "nodes": [], "root": 1}, "key 'leaves' must be a list, got 5"),
    ({"leaves": ["A00"], "nodes": [], "root": [1]}, "key 'root' must be a node id, got [1]"),
]


@pytest.mark.parametrize(
    "payload, named", MALFORMED_TREES, ids=["top-level", "nodes", "leaves", "root"]
)
def test_malformed_tree_names_file_and_key(tmp_path, capsys, payload, named):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    config = write_model_config(tmp_path)  # its regime reads tree.json
    tree = tmp_path.resolve() / "tree.json"
    tree.write_text(json.dumps(payload))
    rc = main(["analyze", "--data", str(data), "--tree", str(tree), "--out", str(tmp_path / "a")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named} (at {tree})\n"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: bad model spec: {named} (at {tree})\n"


@pytest.mark.parametrize(
    "record, named",
    [
        ({"id": 5, "left": "leaf:A00", "right": "leaf:A01"}, "bad node record: 'height'"),
        ({"id": 5, "left": None, "right": "leaf:A01", "height": 1.0}, "bad child reference None"),
        (7, "node record must be an object, got 7"),
    ],
    ids=["no-height", "bad-child", "not-an-object"],
)
def test_malformed_node_record_names_the_tree_file(tmp_path, capsys, record, named):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    config = write_model_config(tmp_path)  # its regime reads tree.json
    tree = tmp_path.resolve() / "tree.json"
    tree.write_text(json.dumps({"leaves": ["A00", "A01"], "nodes": [record], "root": 5}))
    rc = main(["analyze", "--data", str(data), "--tree", str(tree), "--out", str(tmp_path / "a")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named} (at nodes[0] of {tree})\n"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: bad model spec: {named} (at nodes[0] of {tree})\n"


def test_non_utf8_inputs_name_the_file(tmp_path, capsys):
    undecodable = b"\xff\xfe not text\n"
    reason = "not utf-8 text (invalid start byte)"
    bad_config = tmp_path / "bad_config.json"
    bad_config.write_bytes(undecodable)
    assert main(["calibrate", "--config", str(bad_config), "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err == f"error: {bad_config}: {reason}\n"

    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    tree = tmp_path / "bad_tree.json"
    tree.write_bytes(undecodable)
    rc = main(["analyze", "--data", str(data), "--tree", str(tree), "--out", str(tmp_path / "a")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {tree}: {reason}\n"

    (tmp_path / "noise.csv").write_bytes(undecodable)
    for key, value, name in (
        ("regimes.0.tree", "bad_tree.json", "bad_tree.json"),
        ("noise", {"file": "noise.csv"}, "noise.csv"),
    ):
        path = write_model_config(tmp_path)
        spec = json.loads(path.read_text())
        _set_path(spec, key, value)
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad model spec: {tmp_path.resolve() / name}: {reason}\n"


def _missing_input_run(tmp_path, case):
    """argv of a run whose input `case` names a file that does not exist, and that file."""
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    missing = tmp_path / "nope"
    out = ["--out", str(tmp_path / "o")]
    if case == "prices":
        return ["analyze", "--data", str(missing), *out], missing
    if case == "config":
        return ["calibrate", "--config", str(missing), *out], missing
    if case == "tree":
        return ["analyze", "--data", str(data), "--tree", str(missing), *out], missing
    path = write_model_config(tmp_path)
    spec = json.loads(path.read_text())
    if case == "regime-tree":
        spec["regimes"][0]["tree"] = "nope"
    else:
        spec["noise"] = {"file": "nope"}
    path.write_text(json.dumps(spec))
    return ["simulate", "--config", str(path), *out], tmp_path.resolve() / "nope"


@pytest.mark.parametrize("case", ["prices", "config", "tree", "regime-tree", "noise"])
def test_a_missing_input_file_is_named(tmp_path, capsys, case):
    argv, missing = _missing_input_run(tmp_path, case)
    assert main(argv) == 1
    prefix = "bad model spec: " if argv[0] == "simulate" else ""
    reason = os.strerror(errno.ENOENT)
    assert capsys.readouterr().err == f"error: {prefix}cannot read {missing}: {reason}\n"


def _with_bom(path):
    """A copy of `path` that starts with a UTF-8 byte-order mark."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def test_a_price_file_with_a_byte_order_mark_reads_like_the_plain_file(tmp_path, monkeypatch):
    outputs = []
    for name in ("plain", "bom"):
        run = tmp_path / name
        run.mkdir()
        data = run / "prices.csv"
        write_price_csv(data, n_assets=5)
        if name == "bom":
            data.write_bytes(codecs.BOM_UTF8 + data.read_bytes())
        monkeypatch.chdir(run)  # the same relative --data, so ingestion.json may compare too
        assert main(["analyze", "--data", "prices.csv", "--threshold", "0", "--out", "out"]) == 0
        outputs.append({f.name: f.read_bytes() for f in (run / "out").iterdir()
                        if f.name != "manifest.json"})
    assert len(outputs[0]) == 8 and outputs[0] == outputs[1]


def test_a_config_with_a_byte_order_mark_reads_like_the_plain_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 10, "length": 200, "seed": 4}))
    for path, out in ((config, "plain"), (_with_bom(config), "bom")):
        assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / out)]) == 0
    manifests = [json.loads((tmp_path / out / "manifest.json").read_text()) for out in ("plain", "bom")]
    assert manifests[0]["config"] == manifests[1]["config"]
    assert manifests[0]["config"]["count"] == 10
    assert (tmp_path / "plain/threshold.json").read_bytes() == (tmp_path / "bom/threshold.json").read_bytes()


def test_a_tree_with_a_byte_order_mark_reads_like_the_plain_file(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    tree = tmp_path / "tree.json"
    serialize_dendrogram(comb_tree(5, [f"T{j}" for j in range(5)]), tree)
    for path, out in ((tree, "plain"), (_with_bom(tree), "bom")):
        argv = ["analyze", "--data", str(data), "--threshold", "0", "--tree", str(path)]
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
    for name in ("per_asset.csv", "tree.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "bom" / name).read_bytes()


def test_a_noise_file_with_a_byte_order_mark_reads_like_the_plain_file(tmp_path):
    labels = ["A00", "A01", "A02"]
    lines = ["," + ",".join(labels)]
    for i, label in enumerate(labels):
        lines.append(label + "," + ",".join("1.0" if j == i else "0.3" for j in range(3)))
    noise = tmp_path / "noise.csv"
    noise.write_text("\n".join(lines) + "\n")
    config = write_model_config(tmp_path, n_leaves=3)
    spec = json.loads(config.read_text())
    for path, out in ((noise, "plain"), (_with_bom(noise), "bom")):
        spec["noise"] = {"file": path.name}
        config.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    returns = [(tmp_path / out / "run_0000" / "returns.csv").read_bytes() for out in ("plain", "bom")]
    assert returns[0] == returns[1]


# --- analyze ---


def test_analyze_pipeline(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data)
    out = tmp_path / "out"
    rc = main(["analyze", "--data", str(data), "--threshold", "0", "--out", str(out)])
    assert rc == 0
    per_asset = (out / "per_asset.csv").read_text().splitlines()
    assert per_asset[0] == "asset,H1,H2,dH12,se_H1,se_H2,order,retained"
    assert len(per_asset) == 9
    assert all(line.endswith(",1") for line in per_asset[1:])  # threshold 0 keeps all
    orders_rows = (out / "orders.csv").read_text().splitlines()
    assert orders_rows[0] == "asset,n"
    assert len(orders_rows) == 9
    assert (out / "order_stats.csv").exists()
    assert (out / "trend_test.json").exists()
    assert (out / "correlation.csv").exists()
    assert (out / "tree.json").exists()
    meta = json.loads((out / "correlation.meta.json").read_text())
    assert meta["theta"] == pytest.approx(599 / 3, rel=1e-9)


def test_json_outputs_get_the_mode_of_csv_outputs(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data)
    out = tmp_path / "out"
    umask = os.umask(0o022)
    try:
        assert main(["analyze", "--data", str(data), "--threshold", "0", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    modes = {name: stat.S_IMODE((out / name).stat().st_mode)
             for name in ("manifest.json", "tree.json", "per_asset.csv")}
    assert modes == dict.fromkeys(modes, 0o644)


def test_analyze_quotes_a_ticker_that_holds_a_comma(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    text = data.read_text()
    data.write_text(text.replace("date,T0,", 'date,"X,Y",', 1))
    out = tmp_path / "out"
    rc = main(["analyze", "--data", str(data), "--threshold", "0", "--out", str(out)])
    assert rc == 0
    for name, width in (("per_asset.csv", 8), ("orders.csv", 2)):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [width] * 6, name
        assert sorted(row[0] for row in rows[1:]) == ["T1", "T2", "T3", "T4", "X,Y"]


def test_non_utf8_price_file_names_the_file(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    data.write_bytes(b"date,A,B\n2020-01-01,100,\xff\n")
    rc = main(["analyze", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(data) in err and "utf-8" in err


@pytest.mark.parametrize("command", ["analyze", "rolling"])
def test_a_price_cell_over_the_csv_field_limit_names_file_and_line(tmp_path, capsys, command):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=3, length=60)
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "1" * (csv.field_size_limit() + 1)
    lines[5] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    assert main([command, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == f"error: {data}:6: field larger than field limit ({limit})\n"


def test_a_noise_cell_over_the_csv_field_limit_names_file_and_line(tmp_path, capsys):
    config = write_model_config(tmp_path, n_leaves=3)
    labels = ["A00", "A01", "A02"]
    lines = ["," + ",".join(labels)]
    for label, row in zip(labels, np.full((3, 3), 0.3) + 0.7 * np.eye(3)):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    lines[2] += "0" * csv.field_size_limit()
    (tmp_path / "noise.csv").write_text("\n".join(lines) + "\n")
    payload = json.loads(config.read_text())
    payload["noise"] = {"file": "noise.csv"}
    config.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    noise, limit = tmp_path.resolve() / "noise.csv", csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"error: bad model spec: {noise}:3: field larger than field limit ({limit})\n"
    )


def test_analyze_threshold_filters_everything(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data)  # random walks are uniscaling, high cutoff drops them
    rc = main(["analyze", "--data", str(data), "--threshold", "0.5", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_analyze_with_imported_tree(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    tree = comb_tree(5, [f"T{j}" for j in range(5)])
    serialize_dendrogram(tree, tmp_path / "tree.json")
    out = tmp_path / "out"
    rc = main([
        "analyze", "--data", str(data), "--threshold", "0",
        "--tree", str(tmp_path / "tree.json"), "--out", str(out),
    ])
    assert rc == 0
    per_asset = (out / "per_asset.csv").read_text().splitlines()[1:]
    orders = {line.split(",")[0]: int(line.split(",")[6]) for line in per_asset}
    assert orders == {"T0": 4, "T1": 4, "T2": 3, "T3": 2, "T4": 1}


def test_analyze_imported_tree_leaf_mismatch(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=4)
    serialize_dendrogram(comb_tree(4, ["X0", "X1", "X2", "X3"]), tmp_path / "tree.json")
    rc = main([
        "analyze", "--data", str(data), "--threshold", "0",
        "--tree", str(tmp_path / "tree.json"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1


@pytest.mark.parametrize(
    "leaves, named",
    [(["T0", "T1", "T2", "T3", "X"], "leaf 'X' is not a ticker of {data}"),
     (["T0", "T1", "T2", "T3"], "ticker 'T4' of {data} is not a leaf")],
    ids=["extra-leaf", "missing-ticker"],
)
def test_analyze_imported_tree_names_a_label_on_the_side_that_differs(tmp_path, capsys, leaves, named):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=5)
    tree = tmp_path / "tree.json"
    serialize_dendrogram(comb_tree(len(leaves), leaves), tree)
    rc = main(["analyze", "--data", str(data), "--tree", str(tree), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {tree}: {named.format(data=data)}\n"


def test_analyze_missing_tree_file(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=4)
    missing = tmp_path / "missing.json"
    rc = main([
        "analyze", "--data", str(data), "--tree", str(missing), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(missing) in err


def write_overflowing_price_csv(path, overflow_after=21):
    """400 rows of 4 tickers; T1 reads inf from row `overflow_after` on."""
    write_price_csv(path, n_assets=4, length=400)
    lines = path.read_text().splitlines()
    for t in range(1 + overflow_after, len(lines)):
        cells = lines[t].split(",")
        cells[2] = "inf"
        lines[t] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "command, flags, need",
    [("analyze", [], 189), ("rolling", ["--window-length", "200", "--window-count", "2"], 200)],
)
def test_too_few_aligned_rows_names_file_and_ticker(tmp_path, capsys, command, flags, need):
    data = tmp_path / "prices.csv"
    write_overflowing_price_csv(data)
    rc = main([command, "--data", str(data), *flags, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {data}: 20 aligned returns, need at least {need}; "
        "ticker 'T1' dropped 379 of 400\n"
    )


@pytest.mark.parametrize("command", ["analyze", "rolling"])
def test_disjoint_dates_name_file_and_ticker(tmp_path, capsys, command):
    # A trades only on the first two rows and B only on the last two
    data = tmp_path / "few.csv"
    data.write_text("date,A,B\n1,10.0,\n2,11.0,\n3,,20.0\n4,,21.0\n")
    assert main([command, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: fewer than 2 common dates across tickers; "
        "ticker 'B' (2 dates) leaves 0 in common with the tickers before it\n"
    )


def test_short_panel_without_drops_reports_row_count(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=4, length=150)
    assert main(["analyze", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {data}: 149 aligned returns, need at least 189\n"


@pytest.mark.parametrize("command", ["analyze", "rolling"])
def test_a_one_ticker_price_file_is_named(tmp_path, capsys, command):
    data = tmp_path / "p1.csv"
    write_price_csv(data, n_assets=1, length=400)
    assert main([command, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {data}: 1 ticker; need at least 2\n"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, flags, rows",
    [("analyze", [], 399), ("rolling", ["--window-length", "200", "--window-count", "2"], 200)],
)
def test_a_theta_whose_oldest_weight_underflows_is_named(tmp_path, capsys, command, flags, rows, source):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=4, length=400)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": 0.001}))
    theta = ["--theta", "0.001"] if source == "flag" else ["--config", str(config)]
    rc = main([command, "--data", str(data), *theta, *flags, "--out", str(tmp_path / "o")])
    assert rc == 1
    named = "--theta" if source == "flag" else "config key 'theta'"
    assert capsys.readouterr().err == (
        f"error: {named} 0.001 is too small for {rows} rows: the oldest weight underflows to 0\n"
    )


def write_price_csv_setting_t2(path, t2_price):
    """1,000 rows of 4 tickers; T2's cell on row t becomes t2_price(t) unless that is None."""
    write_price_csv(path, n_assets=4, length=1000)
    lines = path.read_text().splitlines()
    for t in range(len(lines) - 1):
        cells = lines[1 + t].split(",")
        cells[3] = t2_price(t) or cells[3]
        lines[1 + t] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_rolling_names_file_ticker_and_dates_of_a_flat_window(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv_setting_t2(data, lambda t: "100.0" if t >= 300 else None)
    rc = main(["rolling", "--data", str(data), "--window-length", "400", "--window-count", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    # window 2 holds the returns dated 10600 to 10999, all of them 0 for T2
    assert capsys.readouterr().err == (
        f"error: {data}: ticker 'T2' in window 2 (10600 to 10999) has no price change at lag 1, "
        "so M(q=1.0, l=1) = 0 and its Hurst exponents cannot be fitted\n"
    )


def test_rolling_names_file_ticker_and_dates_of_a_zero_variance_window(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    # from row 600 on T2 doubles every row: a constant return of log 2, so the Hurst fit
    # works but window 2 (returns dated 10650 to 10999) has no variance to correlate
    write_price_csv_setting_t2(data, lambda t: repr(2.0**t) if t >= 600 else None)
    rc = main(["rolling", "--data", str(data), "--window-length", "350", "--window-count", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data}: zero weighted variance in column 'T2' in window 2 (10650 to 10999)\n"
    )


def test_analyze_names_file_and_ticker_of_a_flat_price(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv_setting_t2(data, lambda t: "100.0")
    assert main(["analyze", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {data}: zero weighted variance in column 'T2'\n"


def test_analyze_names_file_and_ticker_of_a_price_with_no_lag_2_change(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv_setting_t2(data, lambda t: "101.0" if t % 2 else "100.0")
    assert main(["analyze", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: ticker 'T2' has no price change at lag 2, "
        "so M(q=1.0, l=2) = 0 and its Hurst exponents cannot be fitted\n"
    )


def test_analyze_names_the_file_when_too_few_assets_pass_the_threshold(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=4)
    assert main(["analyze", "--data", str(data), "--threshold", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: fewer than 3 assets survive the multiscaling threshold 1.0\n"
    )


def test_analyze_reproducible(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data)
    args = ["analyze", "--data", str(data), "--threshold", "0"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for name in ("per_asset.csv", "order_stats.csv", "correlation.csv", "tree.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _per_asset(out):
    with open(out / "per_asset.csv", newline="") as fh:
        return {row["asset"]: row for row in csv.DictReader(fh)}


@pytest.mark.parametrize("transform", [0, 1, "scale"])
def test_analyze_per_asset_results_do_not_depend_on_ticker_order(tmp_path, transform):
    """Shuffled ticker columns (a permutation seed) give bitwise-equal dH.

    The "scale" case multiplies T3's prices by 1000 instead: its log returns
    change by rounding only, so dH moves by rounding and orders stay.
    """
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=12)
    rows = [line.split(",") for line in data.read_text().splitlines()]
    if transform == "scale":
        rows = [rows[0], *([*r[:4], repr(float(r[4]) * 1000), *r[5:]] for r in rows[1:])]
        perm, dh_tolerance = range(1, 13), 1e-12
    else:
        perm, dh_tolerance = np.random.default_rng(transform).permutation(12) + 1, 0.0
        assert list(perm) != list(range(1, 13))
    transformed = tmp_path / "transformed.csv"
    transformed.write_text("".join(",".join([r[0], *(r[k] for k in perm)]) + "\n" for r in rows))

    # half the smallest positive dH keeps the assets with dH > 0 and drops the others
    assert main(["analyze", "--data", str(data), "--threshold", "0", "--out", str(tmp_path / "all")]) == 0
    dh = [float(row["dH12"]) for row in _per_asset(tmp_path / "all").values()]
    threshold = repr(min(d for d in dh if d > 0) / 2)
    for name, path in (("a", data), ("b", transformed)):
        rc = main(["analyze", "--data", str(path), "--threshold", threshold,
                   "--out", str(tmp_path / name)])
        assert rc == 0
    a, b = _per_asset(tmp_path / "a"), _per_asset(tmp_path / "b")
    assert 3 <= sum(row["retained"] == "1" for row in a.values()) < 12
    for asset, row in a.items():
        for column in ("order", "retained"):
            assert b[asset][column] == row[column], (asset, column)
        assert abs(float(b[asset]["dH12"]) - float(row["dH12"])) <= dh_tolerance, asset
    # order_conditional_mean sums each order's dH in asset order, so the trend may move in the last bits
    trend_a, trend_b = (json.loads((tmp_path / name / "trend_test.json").read_text()) for name in "ab")
    assert trend_b["n"] == trend_a["n"] >= 3
    for key in ("r", "t", "p_value"):
        assert trend_b[key] == pytest.approx(trend_a[key], rel=1e-12, abs=1e-12), key


def test_analyze_data_files_ignore_rows_before_a_late_listing(tmp_path):
    """Leading rows on which T2 is blank fall outside the intersection: only its drop count changes."""
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=6)
    header, *rows = data.read_text().splitlines()
    # dates compare as text, so 09995 to 09999 come before 10000
    early = [f"0999{5 + t},{101 + t}.5,{99 - t}.25,,100.0,98.5,102.75" for t in range(5)]
    late = tmp_path / "late.csv"
    late.write_text("\n".join([header, *early, *rows]) + "\n")
    for name, path in (("a", data), ("b", late)):
        rc = main(["analyze", "--data", str(path), "--threshold", "0", "--out", str(tmp_path / name)])
        assert rc == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in set(files) - {"ingestion.json", "manifest.json"}:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name
    a, b = (json.loads((tmp_path / name / "ingestion.json").read_text()) for name in "ab")
    assert b == {**a, "source": str(late), "drop_counts": {**a["drop_counts"], "T2": 5}}


def test_analyze_notes_skipped_trend_test_once_in_manifest(tmp_path, capsys):
    from hiermf.hierarchy import tree_from_leaf_depths

    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=4)
    # a balanced tree gives every leaf order 2: one distinct order
    labels = [f"T{j}" for j in range(4)]
    serialize_dendrogram(tree_from_leaf_depths([2, 2, 2, 2], labels), tmp_path / "tree.json")
    out = tmp_path / "out"
    rc = main(["analyze", "--data", str(data), "--threshold", "0",
               "--tree", str(tmp_path / "tree.json"), "--out", str(out)])
    assert rc == 0
    note = "fewer than 3 distinct orders; trend test skipped"
    assert json.loads((out / "manifest.json").read_text())["warnings"] == [note]
    assert json.loads((out / "trend_test.json").read_text()) == {"note": note}
    assert capsys.readouterr() == ("", "")


def test_analyze_names_the_file_without_the_date_column(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=3)
    data.write_text(data.read_text().replace("date,", "day,", 1))
    rc = main(["analyze", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {data}: missing date column 'date'\n"


def test_analyze_missing_data_flag(tmp_path):
    assert main(["analyze", "--out", str(tmp_path)]) == 1


# --- pipeline consistency with the direct computation ---


def test_analyze_matches_direct_univariate_computation(tmp_path):
    # all-on risks and identity noise: each asset is a lognormal-volatility
    # series scaled by exp(order); dH must match the direct estimate exactly
    labels = ["A0", "A1", "A2"]
    tree = comb_tree(3, labels)
    risk = RiskTree(tree.with_probabilities({n.id: 1.0 for n in tree.nodes}))
    noise = CorrelationMatrix(assets=tuple(labels), values=np.eye(3))
    spec = DhmSpec(noise=noise, regimes=(Regime(risk, 600),), logvol=LogVolSpec(), length=600, seed=2)
    out_sim = simulate_returns(spec)

    # dH is scale invariant, so damp the returns to keep prices representable
    scaled = 0.01 * out_sim.returns.values
    data = tmp_path / "prices.csv"
    lines = ["date," + ",".join(labels)]
    logs = np.vstack([np.zeros(3), np.cumsum(scaled, axis=0)])
    for t in range(601):
        cells = ",".join(f"{100 * math.exp(v):.12f}" for v in logs[t])
        lines.append(f"{10000 + t},{cells}")
    data.write_text("\n".join(lines) + "\n")

    out = tmp_path / "out"
    assert main(["analyze", "--data", str(data), "--threshold", "0", "--out", str(out)]) == 0
    rows = (out / "per_asset.csv").read_text().splitlines()[1:]
    reported = {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
    for j, label in enumerate(labels):
        direct = delta_h(estimate_ghe(np.concatenate(([0.0], np.cumsum(out_sim.returns.values[:, j])))))
        assert reported[label] == pytest.approx(direct, abs=1e-9)


def test_analyze_recovers_depth_trend_on_model_panel(tmp_path):
    # simulate a panel whose generating tree is known, import that tree,
    # and the per-order dH means must rise with depth
    from conftest import PROFILE_DEPTHS, PROFILE_LABELS, equicorrelation
    from hiermf.dhm import draw_probabilities
    from hiermf.hierarchy import tree_from_leaf_depths

    labels = [f"T{i:02d}" for i in range(25)]
    tree = tree_from_leaf_depths(PROFILE_DEPTHS, labels)
    serialize_dendrogram(tree, tmp_path / "tree.json")
    risk = draw_probabilities(tree, 0.3, 0.7, np.random.default_rng(1))
    spec = DhmSpec(
        noise=equicorrelation(labels, 0.3),
        regimes=(Regime(risk, 4026),),
        logvol=LogVolSpec(),
        length=4026,
        seed=9,
    )
    values = simulate_returns(spec).returns.values
    logs = np.vstack([np.zeros(25), np.cumsum(values, axis=0)])
    logs *= 0.5 / np.abs(logs).max()  # keep prices representable
    data = tmp_path / "prices.csv"
    with open(data, "w") as fh:
        fh.write("date," + ",".join(labels) + "\n")
        for t in range(4027):
            fh.write(f"{100000 + t}," + ",".join(repr(100 * math.exp(v)) for v in logs[t]) + "\n")

    out = tmp_path / "out"
    rc = main([
        "analyze", "--data", str(data), "--threshold", "0",
        "--tree", str(tmp_path / "tree.json"), "--out", str(out),
    ])
    assert rc == 0
    trend = json.loads((out / "trend_test.json").read_text())
    assert trend["r"] > 0
    assert trend["p_value"] < 0.05


# --- rolling ---


def test_rolling_report(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=6, length=400)
    out = tmp_path / "out"
    rc = main([
        "rolling", "--data", str(data), "--window-length", "200",
        "--window-count", "5", "--theta", "66", "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "rolling.csv").read_text().splitlines()
    assert rows[0].startswith("window,start,end,rho_mean")
    assert len(rows) == 6
    meta = json.loads((out / "rolling.meta.json").read_text())
    assert "largest-gap" in meta["cluster_criterion"]


def test_rolling_windows_match_analyze_on_their_slices(tmp_path):
    """Window k is analyze's panel over price rows starts[k] to starts[k] + length.

    The window's returns are the slice's returns, so orders and correlations
    agree; the Hurst fit cumulates log-prices from a different anchor, so dH
    may move by rounding.
    """
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=8, length=700, seed=4)
    length, count = 250, 5
    assert main(["rolling", "--data", str(data), "--window-length", str(length),
                 "--window-count", str(count), "--out", str(tmp_path / "rolling")]) == 0
    with open(tmp_path / "rolling" / "rolling.csv", newline="") as fh:
        windows = list(csv.DictReader(fh))
    header, *rows = data.read_text().splitlines()
    starts = WindowSpec(length, count).starts(len(rows) - 1)
    assert len(windows) == len(starts) == count
    assert starts[0] == 0 and starts[-1] + length == len(rows) - 1
    for window, start in zip(windows, starts):
        piece, out = tmp_path / f"slice{start}.csv", tmp_path / f"analyze{start}"
        piece.write_text("\n".join([header, *rows[start : start + length + 1]]) + "\n")
        assert main(["analyze", "--data", str(piece), "--threshold", "0", "--theta", "250",
                     "--out", str(out)]) == 0
        per_asset = _per_asset(out).values()
        corr = read_correlation_csv(out / "correlation.csv")
        # the window's first return is dated at the slice's second price row
        dates = [row.split(",")[0] for row in rows[start + 1 : start + length + 1]]
        assert (window["start"], window["end"]) == (dates[0], dates[-1])
        assert float(window["mean_order"]) == np.mean([int(row["order"]) for row in per_asset])
        assert abs(float(window["mean_dH"]) - np.mean([float(row["dH12"]) for row in per_asset])) <= 1e-12
        assert abs(float(window["rho_mean"]) - corr.offdiagonal().mean()) <= 1e-12


def test_rolling_stationary_panel_is_flat(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=6, length=1200, seed=5)
    out = tmp_path / "out"
    rc = main([
        "rolling", "--data", str(data), "--window-length", "400",
        "--window-count", "4", "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "rolling.csv").read_text().splitlines()[1:]
    means = [float(r.split(",")[3]) for r in rows]
    assert max(means) - min(means) < 0.15


def test_rolling_warning_raised_per_window_is_listed_once(tmp_path, monkeypatch):
    original = analysis.quantile_summary

    def warning_summary(*args, **kwargs):
        warnings.warn("probe warning")
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "quantile_summary", warning_summary)
    data = tmp_path / "prices.csv"
    write_price_csv(data, n_assets=6, length=400)
    out = tmp_path / "out"
    rc = main(["rolling", "--data", str(data), "--window-length", "200", "--window-count", "3",
               "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["warnings"] == ["probe warning"]


def test_rolling_infeasible_windows(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data, length=300)
    rc = main([
        "rolling", "--data", str(data), "--window-length", "299",
        "--window-count", "50", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {data}: 50 windows of length 299 do not fit in 299 rows\n"


def test_rolling_rejects_short_window_before_any_window(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data, length=300)
    out = tmp_path / "o"
    rc = main([
        "rolling", "--data", str(data), "--window-length", "150",
        "--window-count", "40", "--out", str(out),
    ])
    assert rc == 1
    assert "--window-length 150" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# --- validate-model ---


def test_validate_model_passes_at_default_tolerance(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "validate-model", "--seed", "4", "--trees", "1", "--steps", "50000",
        "--length", "400", "--tolerance", "0.15", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    assert {c["check"] for c in report["checks"]} == {
        "mc_vs_closed_form", "correlation_median_shift", "tau_rho_dispersion",
    }


def test_validate_model_zero_tolerance_fails(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "validate-model", "--seed", "4", "--trees", "1", "--steps", "5000",
        "--length", "400", "--tolerance", "0", "--out", str(out),
    ])
    assert rc == 2
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is False


@pytest.mark.parametrize(
    "flags, config, named",
    [
        (["--steps", "1"], {}, "--steps"),
        (["--steps", "0"], {}, "--steps"),
        (["--trees", "0"], {}, "--trees"),
        ([], {"steps": 1}, "config key 'steps'"),
        ([], {"dispersion-seeds": 0}, "config key 'dispersion-seeds'"),
        # no correlation deviation exceeds 2, so a tolerance of 2 or more checks nothing
        (["--steps", "100"], {}, "--steps gives a tolerance of 2;"),
        ([], {"steps": 50}, "config key 'steps' gives a tolerance of 2.82843;"),
        (["--tolerance", "2"], {}, "--tolerance gives a tolerance of 2;"),
        ([], {"tolerance": 3.5}, "config key 'tolerance' gives a tolerance of 3.5;"),
        # two steps are the fewest a correlation can be measured on
        (["--length", "1"], {}, "--length must be >= 2, got 1"),
        ([], {"length": 0}, "config key 'length' must be >= 2, got 0"),
    ],
)
def test_validate_model_rejects_empty_runs_before_simulating(
    tmp_path, capsys, monkeypatch, flags, config, named
):
    def no_simulation(spec):
        raise AssertionError("simulated before the settings were checked")

    monkeypatch.setattr(cli.dhm_mod, "simulate_returns", no_simulation)
    monkeypatch.setattr(cli.dhm_mod, "sample_correlation", no_simulation)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["validate-model", "--config", str(path), *flags, "--out", str(out)])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not (out / "validation.json").exists()


def test_cli_holds_the_names_the_benchmark_traces():
    # the benchmark traces the checks as cli.check_* and its self-test patches cli.kendall_tau
    assert cli.check_equivalence is validation.check_equivalence
    assert cli.check_median_shift is validation.check_median_shift
    assert cli.check_tau_dispersion is validation.check_tau_dispersion
    assert cli.kendall_tau is dependence.kendall_tau


def test_equivalence_check_fails_when_the_deviation_is_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = check_equivalence(n_trees=2, steps=1, seed=0, tolerance=0.5)
    assert math.isnan(report["max_abs_deviation"])
    assert report["passed"] is False


def test_equivalence_check_fails_on_a_zero_variance_column(monkeypatch):
    transform = cli.dhm_mod._noise_transform

    def first_asset_silenced(noise):
        t = transform(noise)
        t[:, 0] = 0.0  # asset 0's noise, and so its returns, are all zero
        return t

    monkeypatch.setattr(cli.dhm_mod, "_noise_transform", first_asset_silenced)
    monkeypatch.setattr(cli.dhm_mod, "simulate_returns", _no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = check_equivalence(n_trees=1, steps=1000, seed=0, tolerance=0.5)
    assert math.isnan(report["max_abs_deviation"])
    assert report["passed"] is False


# --- config value types ---


def _no_work(*args, **kwargs):
    raise AssertionError("ran before the settings were checked")


BAD_DELIMITER = "delimiter must be one character other than a quote or a line break"

BAD_SETTINGS = [
    # integers
    ("validate-model", {"trees": 2.7}, "config key 'trees' must be an integer, got 2.7"),
    ("validate-model", {"steps": "lots"}, "config key 'steps' must be an integer, got 'lots'"),
    ("validate-model", {"dispersion-seeds": True},
     "config key 'dispersion-seeds' must be an integer, got True"),
    ("validate-model", {"length": 400.5}, "config key 'length' must be an integer, got 400.5"),
    ("calibrate", {"count": "100"}, "config key 'count' must be an integer, got '100'"),
    ("calibrate", {"length": 400.0}, "config key 'length' must be an integer, got 400.0"),
    ("simulate", {"repeat": 2.5}, "config key 'repeat' must be an integer, got 2.5"),
    ("rolling", {"window-length": 200.9}, "config key 'window-length' must be an integer, got 200.9"),
    ("rolling", {"window-count": "5"}, "config key 'window-count' must be an integer, got '5'"),
    ("rolling", {"window-count": 0}, "config key 'window-count' must be >= 1, got 0"),
    ("calibrate", {"count": 5}, "config key 'count' must be >= 10, got 5"),
    # too short for the Hurst fit
    ("rolling", {"window-length": 100},
     "config key 'window-length' 100 is too short for the Hurst fit; "
     "need at least 189 returns per window"),
    ("calibrate", {"length": 100},
     "config key 'length' 100 is too short for the Hurst fit; need at least 190"),
    # seeds
    ("validate-model", {"seed": "7"}, "config key 'seed' must be an integer, got '7'"),
    ("validate-model", {"seed": 7.9}, "config key 'seed' must be an integer, got 7.9"),
    ("calibrate", {"seed": "7"}, "config key 'seed' must be an integer, got '7'"),
    ("calibrate", {"seed": 7.9}, "config key 'seed' must be an integer, got 7.9"),
    ("calibrate", {"seed": -1}, "config key 'seed' must be >= 0, got -1"),
    ("simulate", {"seed": "7"}, "config key 'seed' must be an integer, got '7'"),
    ("simulate", {"seed": 7.9}, "config key 'seed' must be an integer, got 7.9"),
    # real numbers
    ("analyze", {"threshold": "abc"}, "config key 'threshold' must be a number, got 'abc'"),
    ("analyze", {"theta": True}, "config key 'theta' must be a number, got True"),
    ("rolling", {"theta": "abc"}, "config key 'theta' must be a number, got 'abc'"),
    ("validate-model", {"tolerance": "abc"}, "config key 'tolerance' must be a number, got 'abc'"),
    ("validate-model", {"min-dispersion-ratio": True},
     "config key 'min-dispersion-ratio' must be a number, got True"),
    ("calibrate", {"hurst-min": "abc"}, "config key 'hurst-min' must be a number, got 'abc'"),
    ("calibrate", {"hurst-max": True}, "config key 'hurst-max' must be a number, got True"),
    # strings
    ("analyze", {"data": 5}, "config key 'data' must be a string, got 5"),
    ("analyze", {"tree": 5}, "config key 'tree' must be a string, got 5"),
    ("rolling", {"method": ["single"]}, "config key 'method' must be a string, got ['single']"),
    ("rolling", {"delimiter": 5}, "config key 'delimiter' must be a string, got 5"),
    ("analyze", {"date-column": True}, "config key 'date-column' must be a string, got True"),
    # null, where the setting has a default
    ("analyze", {"threshold": None}, "config key 'threshold' must be a number, got None"),
    ("rolling", {"theta": None}, "config key 'theta' must be a number, got None"),
    ("validate-model", {"tolerance": None}, "config key 'tolerance' must be a number, got None"),
    ("calibrate", {"hurst-max": None}, "config key 'hurst-max' must be a number, got None"),
    # choices, checked before the panel is loaded
    ("analyze", {"method": "bogus"},
     "config key 'method' must be one of ('single', 'average', 'complete'), got 'bogus'"),
    ("rolling", {"method": "bogus"},
     "config key 'method' must be one of ('single', 'average', 'complete'), got 'bogus'"),
    # a delimiter csv.reader cannot take, or one that splits the header wrongly
    ("analyze", {"delimiter": ";;"}, f"config key 'delimiter': {BAD_DELIMITER}, got ';;'"),
    ("rolling", {"delimiter": ""}, f"config key 'delimiter': {BAD_DELIMITER}, got ''"),
    ("analyze", {"delimiter": '"'}, f"config key 'delimiter': {BAD_DELIMITER}, got '\"'"),
    ("rolling", {"delimiter": "\n"}, f"config key 'delimiter': {BAD_DELIMITER}, got '\\n'"),
    ("analyze", {"delimiter": "\r"}, f"config key 'delimiter': {BAD_DELIMITER}, got '\\r'"),
    # NaN and infinities, which JSON parsing accepts
    ("analyze", {"theta": math.nan}, "config key 'theta' must be a finite number, got nan"),
    ("rolling", {"theta": math.inf}, "config key 'theta' must be a finite number, got inf"),
    ("analyze", {"threshold": math.nan},
     "config key 'threshold' must be a finite number, got nan"),
    ("validate-model", {"tolerance": math.nan},
     "config key 'tolerance' must be a finite number, got nan"),
    ("validate-model", {"min-dispersion-ratio": -math.inf},
     "config key 'min-dispersion-ratio' must be a finite number, got -inf"),
    ("calibrate", {"hurst-min": math.nan},
     "config key 'hurst-min' must be a finite number, got nan"),
    ("calibrate", {"hurst-max": math.inf},
     "config key 'hurst-max' must be a finite number, got inf"),
    # a weight decay must be positive, checked before the panel is loaded
    ("analyze", {"theta": 0}, "config key 'theta' must be > 0, got 0.0"),
    ("rolling", {"theta": -3}, "config key 'theta' must be > 0, got -3.0"),
    # a Hurst range outside (0, 1) or inverted, checked before the low-count warning
    ("calibrate", {"hurst-min": 0}, "config key 'hurst-min' must be inside (0, 1), got 0.0"),
    ("calibrate", {"hurst-max": 1.5}, "config key 'hurst-max' must be inside (0, 1), got 1.5"),
    ("calibrate", {"hurst-min": 0.95},
     "the Hurst range is inverted: config key 'hurst-min' 0.95 is above the default hurst-max 0.9"),
]


@pytest.mark.parametrize(
    "command, setting, named",
    BAD_SETTINGS,
    ids=[f"{command}-{key}-{type(value).__name__}-{value}" for command, setting, _ in BAD_SETTINGS
         for key, value in setting.items()],
)
def test_config_values_of_the_wrong_type_name_the_key(
    tmp_path, capsys, monkeypatch, command, setting, named
):
    monkeypatch.setattr(cli.dhm_mod, "simulate_returns", _no_work)
    monkeypatch.setattr(cli.dhm_mod, "sample_correlation", _no_work)
    monkeypatch.setattr(cli, "calibrate_threshold", _no_work)
    monkeypatch.setattr(cli, "load_prices_csv", _no_work)
    if command == "simulate":
        path = write_model_config(tmp_path)
        config = json.loads(path.read_text())
    else:
        path, config = tmp_path / "config.json", {"data": str(tmp_path / "prices.csv")}
    path.write_text(json.dumps({**config, **setting}))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["analyze", "rolling"])
@pytest.mark.parametrize("delimiter", [";;", "", '"', "\n"])
def test_bad_delimiter_flag_is_named_before_the_file_is_read(
    tmp_path, capsys, monkeypatch, command, delimiter
):
    monkeypatch.setattr(cli, "load_prices_csv", _no_work)
    data = tmp_path / "prices.csv"
    write_price_csv(data)
    out = tmp_path / "out"
    rc = main([command, "--data", str(data), f"--delimiter={delimiter}", "--out", str(out)])
    assert rc == 1
    assert f"--delimiter: {BAD_DELIMITER}, got {delimiter!r}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_integer_flag_over_a_bad_config_value_wins(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 12.5, "seed": "x"}))
    out = tmp_path / "out"
    rc = main(["calibrate", "--config", str(config), "--count", "10", "--length", "400",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "threshold.json").read_text())["count"] == 10


# --- run skeleton ---


def test_manifest_config_holds_every_setting_the_run_read(tmp_path):
    data = tmp_path / "prices.csv"
    write_price_csv(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold": 0, "method": "complete", "note": "kept"}))
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(config), "--data", str(data), "--method", "single",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    # analyze uses no seed, so none is recorded; the flag wins over the config key
    assert recorded == {
        "data": str(data), "threshold": 0.0, "theta": None, "method": "single", "tree": None,
        "date-column": "date", "delimiter": ",", "note": "kept",
    }
    assert isinstance(recorded["threshold"], float)


def test_simulate_manifest_config_is_the_spec_with_seed_and_repeat(tmp_path):
    path = write_model_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(path), "--seed", "11", "--repeat", "2",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {**json.loads(path.read_text()), "seed": 11, "repeat": 2}
    digest = hashlib.sha256(json.dumps(manifest["config"], sort_keys=True).encode()).hexdigest()
    assert manifest["config_sha256"] == digest


def test_warnings_of_a_failed_run_print_once_before_the_error(tmp_path, capsys, monkeypatch):
    def warn_then_fail(*args, **kwargs):
        for message in ("first", "second", "first"):
            warnings.warn(message)
        raise ValueError("no threshold")

    monkeypatch.setattr(cli, "calibrate_threshold", warn_then_fail)
    out = tmp_path / "out"
    assert main(["calibrate", "--count", "10", "--length", "400", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "warning: first\nwarning: second\nerror: no threshold\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("case", ["under-a-file", "a-file"])
def test_an_out_that_cannot_be_created_is_named(tmp_path, capsys, case):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out, code = (blocker / "x", errno.ENOTDIR) if case == "under-a-file" else (blocker, errno.EEXIST)
    assert main(["calibrate", "--count", "10", "--length", "200", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot create output directory {out}: {os.strerror(code)}\n"
    )


def test_a_rerun_that_fails_leaves_no_stale_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["calibrate", "--count", "10", "--length", "200", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    missing = tmp_path / "nope.csv"
    assert main(["analyze", "--data", str(missing), "--out", str(out)]) == 1
    assert f"cannot read {missing}" in capsys.readouterr().err
    # the earlier run's threshold.json stays, but no manifest claims this run succeeded
    assert (out / "threshold.json").exists()
    assert not (out / "manifest.json").exists()


def test_a_manifest_that_cannot_be_removed_is_named(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["calibrate", "--count", "10", "--length", "200", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot remove {out / 'manifest.json'}: ")


def test_an_output_that_cannot_be_written_is_named(tmp_path, capsys):
    data = tmp_path / "prices.csv"
    write_price_csv(data)
    out = tmp_path / "out"
    argv = ["analyze", "--data", str(data), "--threshold", "0", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    (out / "tree.json").unlink()
    (out / "tree.json").mkdir()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'tree.json'}: {os.strerror(errno.EISDIR)}\n"
    )
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.tmp"))


# --- argument handling ---


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_bad_flag_is_usage_error():
    assert main(["calibrate", "--no-such-flag", "1"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    rc = main(["calibrate", "--count", "10", "--length", "400", "--jobs", jobs,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["analyze", "--data", "prices.csv", "--theta", "nan"],
         "--theta must be a finite number, got nan"),
        (["analyze", "--data", "prices.csv", "--theta", "0"], "--theta must be > 0, got 0.0"),
        (["rolling", "--data", "prices.csv", "--theta=-inf"],
         "--theta must be a finite number, got -inf"),
        (["validate-model", "--tolerance", "nan"], "--tolerance must be a finite number, got nan"),
        (["calibrate", "--hurst-min", "nan"], "--hurst-min must be a finite number, got nan"),
        (["calibrate", "--hurst-min", "0.95", "--count", "10", "--length", "200"],
         "the Hurst range is inverted: --hurst-min 0.95 is above the default hurst-max 0.9"),
        (["calibrate", "--hurst-max", "0.05"],
         "the Hurst range is inverted: the default hurst-min 0.1 is above --hurst-max 0.05"),
        (["calibrate", "--hurst-max", "1"], "--hurst-max must be inside (0, 1), got 1.0"),
    ],
)
def test_non_finite_or_non_positive_flags_exit_before_any_work(
    tmp_path, capsys, monkeypatch, argv, named
):
    monkeypatch.setattr(cli.dhm_mod, "sample_correlation", _no_work)
    monkeypatch.setattr(cli, "calibrate_threshold", _no_work)
    monkeypatch.setattr(cli, "load_prices_csv", _no_work)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", list(cli.SETTINGS))
def test_help_lists_every_flag_of_the_command(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    for name, (*_, help_text) in cli.SETTINGS[command].items():
        # a setting without help is config-only
        assert (f"--{name} " in text) == (help_text is not None), name


def test_readme_lists_each_setting_under_its_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {
        kind: set(re.findall(r"`([^`]+)`", names))
        for kind, names in re.findall(
            r"^- (integer|number|string|config-only) keys[^:]*:(.*)$", readme, re.MULTILINE
        )
    }
    declared = {"integer": set(), "number": set(), "string": set(), "config-only": set()}
    for table in cli.SETTINGS.values():
        for name, (kind, _, _, help_text) in table.items():
            declared[{int: "integer", float: "number"}.get(kind, "string")].add(name)
            if help_text is None:
                declared["config-only"].add(name)
    assert listed == declared
