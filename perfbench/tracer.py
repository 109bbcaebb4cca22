"""In-memory spans around hiermf's public functions, installed from outside the package.

`Tracer.installed` replaces each listed function in every hiermf module
namespace that holds a reference to it: `cli` imports names with
`from ... import` and calls `dhm_mod.<name>`, and modules call each other's
functions by global name, so patching only the defining module would miss
calls. The wrappers return the callee's result unchanged and re-raise its
exceptions after counting them. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import statistics
import sys
import time
from typing import Callable, Iterator

# Layer (module under src/hiermf) -> traced public functions.
TRACED = {
    "market_data": ("load_prices_csv", "returns_panel", "rolling_windows"),
    "dependence": ("weighted_pearson_matrix", "corr_to_distance", "kendall_tau",
                   "write_correlation_csv"),
    "hierarchy": ("linkage_cluster", "order_profile", "cluster_cut", "serialize_dendrogram",
                  "parse_dendrogram"),
    "scaling": ("estimate_ghe", "calibrate_threshold"),
    "dhm": ("simulate_returns", "theoretical_correlation", "load_dhm_config_dict",
            "xi_embedding_report"),
    "diagnostics": ("order_conditional_mean", "trend_test", "quantile_summary"),
    "util": ("write_csv", "write_json_atomic"),
    "cli": ("check_equivalence", "check_median_shift", "check_tau_dispersion"),
}

# Functions whose first argument, `path`, is a file they read or wrote -> counter.
BYTE_COUNTERS = {
    "market_data.load_prices_csv": "market_data.bytes_read",
    "util.write_csv": "util.bytes_written",
    "util.write_json_atomic": "util.bytes_written",
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    error: bool = False


class Tracer:
    """Records one span per call of a wrapped function, plus byte counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self.history: list[list[Span]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.clock(), float("nan"), self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                if counter is not None and not span.error:
                    path = args[0] if args else kwargs["path"]
                    self.bytes[counter] = self.bytes.get(counter, 0) + os.path.getsize(path)

        return wrapper

    def take_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans since the last call; the spans are kept for dump."""
        metrics = layer_metrics(self.spans, self.bytes)
        self.history.append(self.spans)
        self.spans, self.bytes = [], {}
        return metrics

    def dump(self, path) -> None:
        """Write every span taken so far, one list per take_metrics call."""
        payload = [[dataclasses.asdict(span) for span in spans] for spans in self.history]
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every hiermf namespace holding a traced function; undo on exit."""
        modules = {layer: importlib.import_module(f"hiermf.{layer}") for layer in TRACED}
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "hiermf" or name.startswith("hiermf.")]
        patched = []
        try:
            for layer, names in TRACED.items():
                for fname in names:
                    original = getattr(modules[layer], fname)
                    wrapper = self.wrap(f"{layer}.{fname}", original)
                    for module in namespaces:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time, self time and errors.

    Self time is each span's duration minus the durations of its direct
    children; children of one span never overlap, since one thread records
    them. No traced function calls itself, so busy time sums every span.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for k, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[k]
        entry["busy_s"] += duration
        entry["errors"] += span.error
    return totals


def layer_metrics(spans: list[Span], byte_counts: dict[str, int]) -> dict[str, float]:
    """Flat per-layer metrics of one repeat; functions not called read 0."""
    totals = span_totals(spans)
    metrics: dict[str, float] = {}
    for layer, names in TRACED.items():
        errors = 0
        for fname in names:
            entry = totals.get(f"{layer}.{fname}", {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            for key in ("calls", "busy_s", "self_s"):
                metrics[f"{layer}.{fname}.{key}"] = entry[key]
            errors += entry["errors"]
        metrics[f"{layer}.errors"] = errors
    for key in dict.fromkeys(BYTE_COUNTERS.values()):
        metrics[key] = byte_counts.get(key, 0)
    return metrics


def median_metrics(per_repeat: list[dict[str, float]]) -> dict[str, float]:
    """Low median of each metric over repeats, so counts stay whole numbers."""
    return {key: statistics.median_low(m[key] for m in per_repeat) for key in per_repeat[0]}
