#!/usr/bin/env python3
"""Fixed-seed benchmark of the hiermf CLI pipelines.

Run from the repository root (standard library plus hiermf's own numpy and
scipy; nothing to install):

    python3 perfbench/run.py --workload panel50 --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 0
    python3 perfbench/selftest.py

A run builds its workload's inputs from --seed with the simulator (several
times; `setup_s` is the median), then repeats the workload's command
sequence (see workloads.py) through `hiermf.cli.main` in this one process
with `--jobs 1` until --seconds are used up. Every command's outputs are
checked against the reference recorded for that workload and seed under
perfbench/references; for a seed without one, each repeat is checked against
the first. A command fails on a non-zero exit or a reference mismatch.

The last stdout line is one JSON object. With --trace 0 its metrics are the
end-to-end ones (medians over repeats); with --trace 1 repeats alternate
untraced and traced, and its metrics are the per-layer ones of the traced
repeats plus the tracing overhead. The lines before it give per-command
times, the error rate and the environment. --record writes the reference for
the seed from this checkout's outputs. Scratch files go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated at least MIN_SETUPS times and until SETUP_BUDGET_S is
# spent, so the median of a millisecond set-up is still steady.
MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_BUDGET_S = 1.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads(limit: int) -> None:
    """Single-threaded BLAS unless set otherwise, and never more threads than cores.

    Spinning BLAS workers gain nothing on these matrix sizes and take a core
    from whatever else runs on the machine, which widens the spread.
    """
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = "1"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Repeat:
    traced: bool
    times: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0
    failures: dict[str, str] = field(default_factory=dict)
    summaries: dict[str, dict] = field(default_factory=dict)
    layers: dict[str, float] | None = None


def run_command(argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, stderr) of one in-process CLI call."""
    from hiermf.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        return time.perf_counter() - start, -1, traceback.format_exc()
    return time.perf_counter() - start, code, err.getvalue()


def build_inputs(workload, seed: int, work: Path) -> tuple[dict[str, Path], list[float], bool]:
    """Inputs of the first build (in work/inputs-0), every build's time, and
    whether all builds wrote identical files."""
    times, digests, inputs = [], [], None
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        dest = work / f"inputs-{len(times)}"
        dest.mkdir()
        start = time.perf_counter()
        built = workload.build(seed, dest)
        times.append(time.perf_counter() - start)
        digests.append([hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(dest.iterdir())])
        if inputs is None:
            inputs = built
        else:
            shutil.rmtree(dest)
    return inputs, times, all(d == digests[0] for d in digests)


def run_repeat(workload, inputs, out: Path, seed: int, reference: dict | None, tracer) -> Repeat:
    """One pass of the workload's commands, timed, then checked against `reference`."""
    import refcheck

    out.mkdir()
    commands = workload.commands(inputs, out, seed)
    repeat = Repeat(traced=tracer is not None)
    gc.collect()  # garbage left by the previous repeat is not this repeat's cost
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for name, argv in commands:
            repeat.times[name], code, err = run_command(argv)
            if code != 0:
                repeat.failures[name] = f"exit {code}: {err.strip()[-2000:]}"
        repeat.wall = time.perf_counter() - start
    if tracer:
        repeat.layers = tracer.take_metrics()
    for name, _ in commands:
        if name in repeat.failures:
            continue
        try:
            repeat.summaries[name] = refcheck.extract(name, out / name)
        except (OSError, ValueError, KeyError) as exc:
            repeat.failures[name] = f"unreadable outputs: {exc!r}"
            continue
        if reference is not None:
            mismatches = refcheck.compare(reference.get(name), repeat.summaries[name], name)
            if mismatches:
                repeat.failures[name] = "reference mismatch: " + "; ".join(mismatches[:5])
    shutil.rmtree(out)
    return repeat


def environment(input_dir: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "input_bytes": {p.name: p.stat().st_size for p in sorted(input_dir.iterdir())},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    from tracer import BYTE_COUNTERS

    if name.endswith("_s"):
        return "s"
    return "bytes" if name in BYTE_COUNTERS.values() else "count"


def run_workload(args) -> dict:
    import refcheck
    import workloads
    from tracer import Tracer, median_metrics

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_times, deterministic = build_inputs(workload, args.seed, work)
        stored = None if args.record else refcheck.load_reference(args.workload, args.seed)
        reference = stored
        tracer = Tracer() if args.trace else None
        repeats: list[Repeat] = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(repeats) % 2 == 1
            repeat = run_repeat(workload, inputs, work / f"out-{len(repeats)}", args.seed,
                                reference, tracer if traced else None)
            repeats.append(repeat)
            if reference is None and not repeat.failures:
                if args.record:
                    print(f"recorded {refcheck.save_reference(args.workload, args.seed, repeat.summaries)}")
                    reference = refcheck.load_reference(args.workload, args.seed)
                else:
                    reference = repeat.summaries
            spent = time.perf_counter() - start
            typical = statistics.median(r.wall for r in repeats)
            if spent + typical > args.seconds and len(repeats) >= (2 if tracer else 1):
                break
        env = environment(work / "inputs-0")
        if tracer:
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in repeats if not r.traced]
    attempted = sum(len(r.times) for r in repeats)
    failed = sum(len(r.failures) for r in repeats)
    wall_s = statistics.median(r.wall for r in plain)
    print(f"workload {args.workload} seed {args.seed}: {len(repeats)} repeats "
          f"({len(repeats) - len(plain)} traced), {len(setup_times)} set-ups")
    for name in plain[0].times:
        times = [r.times[name] for r in plain]
        print(f"  {name.replace('-', '_')}_s {statistics.median(times):.4f} s "
              f"(median of {len(times)}, min {min(times):.4f}, max {max(times):.4f})")
    print(f"  wall_s {wall_s:.4f} s")
    print(f"  setup_s {statistics.median(setup_times):.4f} s (median of {len(setup_times)})")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"  error_rate {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    if stored is not None:
        source = refcheck.reference_path(args.workload, args.seed).relative_to(ROOT)
    else:
        source = "the first repeat (no stored reference for this seed)"
    print(f"  reference: {source}; floats within rel {refcheck.REL_TOL} / abs {refcheck.ABS_TOL}")
    if not deterministic:
        print("  set-up is not deterministic: builds of one seed differ", file=sys.stderr)
    for k, r in enumerate(repeats):
        for name, message in r.failures.items():
            print(f"  repeat {k} {name} failed: {message}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))

    if tracer:
        traced = [r for r in repeats if r.traced]
        overhead = statistics.median(r.wall for r in traced) - wall_s
        print(f"  trace_overhead_s {overhead:.4f} s (traced wall_s minus untraced wall_s)")
        metrics = {name: metric(value, layer_unit(name))
                   for name, value in median_metrics([r.layers for r in traced]).items()}
        metrics["trace_overhead_s"] = metric(overhead, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    return {"correct": failed == 0 and deterministic, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args, names) -> dict:
    """Each workload in its own process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                *(["--record"] if args.record else [])]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {child.returncode}")
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return result


def main() -> int:
    limit_blas_threads(nproc())
    if not (SRC / "hiermf" / "__init__.py").is_file():
        print(f"error: no hiermf sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hiermf
    import hiermf.cli  # noqa: F401  imported here so that no timing includes it
    import workloads

    if not Path(hiermf.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hiermf from {hiermf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the reference outputs for this seed instead of checking them")
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args, list(workloads.WORKLOADS))
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
