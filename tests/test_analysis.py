"""The library's analysis equals what `hiermf analyze` and `hiermf rolling` write."""

import csv
import json

import numpy as np
import pytest

from hiermf.analysis import ROLLING_COLUMNS, analyze_panel, rolling_rows
from hiermf.cli import main
from hiermf.dependence import exp_weights, read_correlation_csv
from hiermf.hierarchy import comb_tree, parse_dendrogram, serialize_dendrogram
from hiermf.market_data import ReturnsPanel, WindowSpec, load_prices_csv, returns_panel
from oracle_writer import format_float

TICKERS = [f"T{j}" for j in range(8)]


@pytest.fixture
def prices(tmp_path):
    rng = np.random.default_rng(3)
    logs = np.cumsum(0.01 * rng.standard_normal((600, len(TICKERS))), axis=0)
    lines = ["date," + ",".join(TICKERS)]
    lines += [f"{10000 + t}," + ",".join(f"{100 * np.exp(v):.10f}" for v in row)
              for t, row in enumerate(logs)]
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _panel(path):
    return returns_panel(load_prices_csv(path)[0])


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("imported", [False, True])
def test_analyze_panel_equals_what_analyze_writes(tmp_path, prices, imported):
    tree_flags = []
    if imported:  # a comb gives orders 1 to 7, so the trend test runs
        serialize_dendrogram(comb_tree(len(TICKERS), TICKERS), tmp_path / "tree.json")
        tree_flags = ["--tree", str(tmp_path / "tree.json")]
    out = tmp_path / "out"
    assert main(["analyze", "--data", str(prices), "--threshold", "0", *tree_flags,
                 "--out", str(out)]) == 0

    panel = _panel(prices)
    tree = parse_dendrogram(tmp_path / "tree.json") if imported else None
    result = analyze_panel(panel, exp_weights(panel.n_times, panel.n_times / 3.0),
                           threshold=0.0, tree=tree)

    per_asset = _rows(out / "per_asset.csv")
    assert [row["asset"] for row in per_asset] == list(panel.assets) == list(result.ghe)
    for row in per_asset:
        est = result.ghe[row["asset"]]
        assert float(row["H1"]) == est.h(1.0)
        assert float(row["H2"]) == est.h(2.0)
        assert float(row["dH12"]) == result.dh[row["asset"]]
        assert int(row["order"]) == result.orders[row["asset"]]
        assert row["retained"] == "1"
    assert {row["asset"]: int(row["n"]) for row in _rows(out / "orders.csv")} == result.orders
    assert result.retained == panel.assets
    stats = [[float(cell) for cell in row.values()] for row in _rows(out / "order_stats.csv")]
    np.testing.assert_array_equal(stats, np.array(list(result.stats.rows()), dtype=float))
    assert json.loads((out / "trend_test.json").read_text()) == result.trend
    assert "r" in result.trend
    assert np.array_equal(read_correlation_csv(out / "correlation.csv").values,
                          result.correlation.values)
    assert parse_dendrogram(out / "tree.json") == result.tree


def test_analyze_panel_rejects_a_tree_over_other_assets(prices):
    panel = _panel(prices)
    tree = comb_tree(len(TICKERS), [*TICKERS[:-1], "X"])
    with pytest.raises(ValueError, match="leaves are not the panel's assets"):
        analyze_panel(panel, exp_weights(panel.n_times, 100.0), threshold=0.0, tree=tree)


def test_analyze_panel_names_the_ticker_of_a_flat_price():
    values = np.random.default_rng(4).standard_normal((400, 4)) * 0.01
    values[::2, 2], values[1::2, 2] = 0.01, -0.01  # no change at lag 2
    panel = ReturnsPanel(assets=("a", "b", "c", "d"), times=tuple(range(400)), values=values)
    with pytest.raises(ValueError) as caught:
        analyze_panel(panel, exp_weights(400, 100.0), threshold=0.0)
    assert str(caught.value).startswith("ticker 'c' has no price change at lag 2")


def test_rolling_rows_equal_rolling_csv(tmp_path, prices):
    out = tmp_path / "out"
    assert main(["rolling", "--data", str(prices), "--window-length", "250",
                 "--window-count", "4", "--theta", "80", "--out", str(out)]) == 0
    panel = _panel(prices)
    rows = rolling_rows(panel, WindowSpec(length=250, count=4), exp_weights(250, 80.0), "average")
    with open(out / "rolling.csv", newline="") as fh:
        header, *written = csv.reader(fh)
    assert tuple(header) == ROLLING_COLUMNS
    assert written == [
        [format_float(c) if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
