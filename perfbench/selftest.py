#!/usr/bin/env python3
"""Self-tests of the benchmark's tracer and reference check.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import hiermf.cli  # noqa: E402
import hiermf.dependence  # noqa: E402
import refcheck  # noqa: E402
from tracer import Span, Tracer, layer_metrics, span_totals  # noqa: E402
from workloads import write_price_panel  # noqa: E402


def run_analyze(prices: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return hiermf.cli.main(["analyze", "--data", str(prices), "--out", str(out), "--jobs", "1"])


class Scratch(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        self.addCleanup(shutil.rmtree, self.dir)


class WrappingTest(Scratch):
    def test_result_and_exception_pass_through_unchanged(self):
        tracer = Tracer()
        result = object()
        error = KeyError("boom")

        def ok(a, b=0):
            return result

        def fail():
            raise error

        self.assertIs(tracer.wrap("m.ok", ok)(1, b=2), result)
        with self.assertRaises(KeyError) as caught:
            tracer.wrap("m.fail", fail)()
        self.assertIs(caught.exception, error)
        self.assertEqual([s.error for s in tracer.spans], [False, True])
        totals = span_totals(tracer.spans)
        self.assertEqual((totals["m.ok"]["errors"], totals["m.fail"]["errors"]), (0, 1))

    def test_install_patches_every_namespace_and_restores(self):
        original = hiermf.dependence.kendall_tau
        self.assertIs(hiermf.cli.kendall_tau, original)
        x = np.arange(20.0)
        y = np.sin(x)
        tracer = Tracer()
        with tracer.installed():
            self.assertIsNot(hiermf.cli.kendall_tau, original)
            self.assertIsNot(hiermf.dependence.kendall_tau, original)
            self.assertEqual(hiermf.cli.kendall_tau(x, y), original(x, y))
            with self.assertRaises(ValueError):
                hiermf.cli.kendall_tau(x, y[:3])
        self.assertIs(hiermf.cli.kendall_tau, original)
        self.assertIs(hiermf.dependence.kendall_tau, original)
        metrics = layer_metrics(tracer.spans, tracer.bytes)
        self.assertEqual(metrics["dependence.kendall_tau.calls"], 2)
        self.assertEqual(metrics["dependence.errors"], 1)

    def test_traced_cli_writes_identical_outputs(self):
        prices = self.dir / "prices.csv"
        write_price_panel(prices, 8, 300, seed=3)
        self.assertEqual(run_analyze(prices, self.dir / "plain"), 0)
        tracer = Tracer()
        with tracer.installed():
            self.assertEqual(run_analyze(prices, self.dir / "traced"), 0)
        files = sorted(p.name for p in (self.dir / "plain").iterdir() if p.name != "manifest.json")
        for name in files:
            self.assertEqual((self.dir / "plain" / name).read_bytes(),
                             (self.dir / "traced" / name).read_bytes(), name)
        metrics = tracer.take_metrics()
        self.assertEqual(metrics["market_data.load_prices_csv.calls"], 1)
        self.assertEqual(metrics["market_data.bytes_read"], prices.stat().st_size)
        self.assertEqual(metrics["scaling.estimate_ghe.calls"], 8)
        self.assertGreater(metrics["util.bytes_written"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            Span("a", 0.0, 10.0, None),   # 0: children b (3) and c (4)
            Span("b", 1.0, 4.0, 0),       # 1
            Span("c", 5.0, 9.0, 0),       # 2: child d (1)
            Span("d", 6.0, 7.0, 2),       # 3
            Span("b", 20.0, 22.0, None),  # 4: a second root span of b
        ]
        totals = span_totals(spans)
        self.assertEqual(totals["a"], {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "errors": 0})
        self.assertEqual(totals["b"], {"calls": 2, "busy_s": 5.0, "self_s": 5.0, "errors": 0})
        self.assertEqual(totals["c"], {"calls": 1, "busy_s": 4.0, "self_s": 3.0, "errors": 0})
        self.assertEqual(totals["d"]["self_s"], 1.0)

    def test_wrapper_nesting_with_a_fake_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("m.inner", lambda: None)

        def outer_body():
            inner()
            inner()

        tracer.wrap("m.outer", outer_body)()
        totals = span_totals(tracer.spans)
        # outer 0..5, inner 1..2 and 3..4
        self.assertEqual(totals["m.outer"]["busy_s"], 5.0)
        self.assertEqual(totals["m.outer"]["self_s"], 3.0)
        self.assertEqual(totals["m.inner"], {"calls": 2, "busy_s": 2.0, "self_s": 2.0, "errors": 0})


class ReferenceCheckTest(Scratch):
    def setUp(self):
        super().setUp()
        prices = self.dir / "prices.csv"
        write_price_panel(prices, 8, 300, seed=5)
        self.out = self.dir / "analyze"
        self.assertEqual(run_analyze(prices, self.out), 0)
        self.reference = refcheck.rounded(refcheck.extract("analyze", self.out))

    def rewrite_cell(self, name: str, row: int, column: str, change):
        path = self.out / name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index(column)
        rows[row + 1][col] = change(rows[row + 1][col])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def mismatches(self):
        return refcheck.compare(self.reference, refcheck.extract("analyze", self.out), "analyze")

    def test_unchanged_outputs_match_the_stored_form(self):
        self.assertEqual(self.mismatches(), [])

    def test_drift_inside_the_tolerance_passes(self):
        self.rewrite_cell("per_asset.csv", 2, "H1", lambda v: repr(float(v) * (1 + 1e-12)))
        self.assertEqual(self.mismatches(), [])

    def test_perturbed_float_is_flagged(self):
        self.rewrite_cell("per_asset.csv", 2, "H1", lambda v: repr(float(v) * (1 + 1e-5)))
        (message,) = self.mismatches()
        self.assertIn("per_asset.csv/H1[2]", message)

    def test_changed_order_is_flagged(self):
        self.rewrite_cell("orders.csv", 0, "n", lambda v: str(int(v) + 1))
        (message,) = self.mismatches()
        self.assertIn("orders.csv/n[0]", message)

    def test_child_order_and_node_ids_do_not_matter(self):
        tree = self.out / "tree.json"
        payload = json.loads(tree.read_text())
        renumber = {node["id"]: 1000 + k for k, node in enumerate(payload["nodes"])}
        for node in payload["nodes"]:
            node["id"] = renumber[node["id"]]
            node["left"], node["right"] = (renumber.get(c, c) for c in (node["right"], node["left"]))
        payload["root"] = renumber[payload["root"]]
        tree.write_text(json.dumps(payload))
        self.assertEqual(self.mismatches(), [])

    def test_changed_topology_is_flagged(self):
        # two leaves at different depths are not siblings, so swapping them changes the topology
        orders = self.reference["orders.csv"]
        by_depth = dict(zip(orders["n"], orders["asset"]))
        a, b = (f'"leaf:{by_depth[n]}"' for n in sorted(by_depth)[:2])
        tree = self.out / "tree.json"
        tree.write_text(tree.read_text().replace(a, "@").replace(b, a).replace("@", b))
        self.assertTrue(any("tree.json/topology" in m for m in self.mismatches()))


if __name__ == "__main__":
    unittest.main()
