"""Reference outputs of each CLI command and their comparison.

Each command's output directory is reduced to a JSON-able summary: the CSV
tables column by column, the dendrogram as a canonical topology string plus
its merge heights, validation and threshold JSON as written, and each
simulated returns.csv as per-column sums, sums of squares and first and last
rows. Discrete values (ints, strings, booleans: orders, topology, cluster
counts, pass flags) must match exactly. Floats must match within REL_TOL or
ABS_TOL, which leaves room for the summation-order drift the roadmap allows.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-7
ABS_TOL = 1e-10
# Recorded floats keep this many significant digits, far inside REL_TOL.
STORED_DIGITS = 10
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def csv_columns(path: Path) -> dict[str, list]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}


def tree_summary(path: Path) -> dict:
    """Topology as nested sorted leaf labels, and heights in the same order."""
    with open(path) as fh:
        payload = json.load(fh)
    nodes = {node["id"]: node for node in payload["nodes"]}

    def canonical(ref):
        if isinstance(ref, str):
            return ref.removeprefix("leaf:"), []
        node = nodes[ref]
        (a, ha), (b, hb) = sorted((canonical(node["left"]), canonical(node["right"])))
        return f"({a},{b})", [*ha, *hb, node["height"]]

    topology, heights = canonical(payload["root"])
    return {"topology": topology, "heights": heights}


def returns_digest(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "columns": header,
        "rows": int(values.shape[0]),
        "sum": values.sum(axis=0).tolist(),
        "sum_sq": (values * values).sum(axis=0).tolist(),
        "first": values[0].tolist(),
        "last": values[-1].tolist(),
    }


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def extract(command: str, out: Path) -> dict:
    """Summary of the outputs one command wrote into `out`."""
    if command == "analyze":
        return {
            "per_asset.csv": csv_columns(out / "per_asset.csv"),
            "orders.csv": csv_columns(out / "orders.csv"),
            "tree.json": tree_summary(out / "tree.json"),
        }
    if command == "rolling":
        return {"rolling.csv": csv_columns(out / "rolling.csv")}
    if command == "validate-model":
        return {"validation.json": _json(out / "validation.json")}
    if command == "simulate":
        return {f"{run.name}/returns.csv": returns_digest(run / "returns.csv")
                for run in sorted(out.glob("run_*"))}
    if command == "calibrate":
        return {"threshold.json": _json(out / "threshold.json")}
    raise ValueError(f"no reference extractor for command {command!r}")


def compare(reference, actual, where: str = "") -> list[str]:
    """Mismatches between two summaries; empty when they agree."""
    if isinstance(reference, dict) and isinstance(actual, dict):
        if reference.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(reference)}"]
        return [m for key in reference for m in compare(reference[key], actual[key], f"{where}/{key}")]
    if isinstance(reference, list) and isinstance(actual, list):
        if len(reference) != len(actual):
            return [f"{where}: length {len(actual)} != {len(reference)}"]
        return [m for i, (r, a) in enumerate(zip(reference, actual))
                for m in compare(r, a, f"{where}[{i}]")]
    if isinstance(reference, float) and isinstance(actual, float):
        if math.isnan(reference) and math.isnan(actual):
            return []
        if math.isclose(reference, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {actual!r} != {reference!r} beyond rel {REL_TOL} / abs {ABS_TOL}"]
    if type(reference) is not type(actual) or reference != actual:
        return [f"{where}: {actual!r} != {reference!r}"]
    return []


def rounded(summary):
    """Copy with floats cut to STORED_DIGITS significant digits for storage."""
    if isinstance(summary, dict):
        return {key: rounded(value) for key, value in summary.items()}
    if isinstance(summary, list):
        return [rounded(value) for value in summary]
    if isinstance(summary, float) and math.isfinite(summary):
        return float(f"{summary:.{STORED_DIGITS}g}")
    return summary


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    return _json(path) if path.is_file() else None


def save_reference(workload: str, seed: int, summaries: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(rounded(summaries), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return path
