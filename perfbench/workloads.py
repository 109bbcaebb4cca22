"""Seeded inputs and CLI command sequences of the benchmark workloads.

Every input is drawn from the hiermf simulator through public functions only,
so nothing is downloaded and the same seed always writes the same bytes.

- panel50: the paper's shape, 50 assets x 4,027 daily prices. `analyze` and
  default `rolling` (50 windows x 752); CSV ingest and per-asset GHE do nearly
  all the work, correlation and linkage are about 10 ms.
- wide400: 400 assets x 1,260 prices, more assets than rows. The same two
  commands (rolling with 10 windows x 252) bring out the O(n^2)-O(n^3)
  layers: weighted Pearson with its PSD check, linkage, cluster cut and the
  400 x 400 correlation writer.
- model: no price CSV. `validate-model` with defaults, `simulate --repeat 2`
  of a two-regime 16-asset 20,000-step spec, and `calibrate --count 250`.
  The load falls on the simulator, Kendall tau, the circulant generators and
  the CSV writer: the write-heavy counterpart of the ingest-heavy panels.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hiermf.dependence import (
    CorrelationMatrix,
    flat_weights,
    weighted_pearson_matrix,
    write_correlation_csv,
)
from hiermf.dhm import DhmSpec, LogVolSpec, Regime, draw_probabilities, simulate_returns
from hiermf.hierarchy import random_binary_tree, serialize_dendrogram
from hiermf.util import write_csv, write_json_atomic

# Model returns carry exp(active risk count) factors that overflow exp(cumsum)
# on deep trees (400 leaves reach depth ~20). Scaling each column to this daily
# volatility keeps prices finite; correlations and Hurst exponents are
# invariant to the scale.
DAILY_VOLATILITY = 0.01
MODEL_ASSETS = 16
MODEL_STEPS = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], dict[str, Path]]
    commands: Callable[[dict[str, Path], Path, int], list[tuple[str, list[str]]]]


def _one_factor_noise(labels, rng: np.random.Generator) -> CorrelationMatrix:
    """PSD correlation with off-diagonal entries in [0.2, 0.8]."""
    loadings = rng.uniform(np.sqrt(0.2), np.sqrt(0.8), size=len(labels))
    values = np.outer(loadings, loadings)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(assets=tuple(labels), values=values)


def write_price_panel(path: Path, n_assets: int, n_rows: int, seed: int) -> None:
    """Price CSV of one simulator draw on a random tree with p in [0.1, 0.4]."""
    rng = np.random.default_rng([seed, n_assets, n_rows])
    labels = [f"S{i:03d}" for i in range(n_assets)]
    tree = draw_probabilities(random_binary_tree(n_assets, rng, labels), 0.1, 0.4, rng)
    spec = DhmSpec(
        noise=_one_factor_noise(labels, rng),
        regimes=(Regime(tree=tree, duration=n_rows - 1),),
        logvol=LogVolSpec(),
        length=n_rows - 1,
        seed=int(rng.integers(0, 2**63)),
    )
    returns = simulate_returns(spec).returns.values
    returns = returns * (DAILY_VOLATILITY / returns.std(axis=0))
    log_prices = np.vstack([np.zeros(n_assets), np.cumsum(returns, axis=0)])
    prices = 100.0 * np.exp(log_prices)
    first = datetime.date(2000, 1, 3)
    dates = [(first + datetime.timedelta(days=t)).isoformat() for t in range(n_rows)]
    write_csv(path, ["date", *labels], ([d, *row] for d, row in zip(dates, prices)))


def write_model_spec(dest: Path, seed: int) -> Path:
    """Two-regime model config with its tree files and a noise correlation file.

    The noise correlation is the sample correlation of a simulator draw on the
    first regime's tree, as if estimated from a price history.
    """
    rng = np.random.default_rng([seed, MODEL_ASSETS, MODEL_STEPS])
    labels = [f"A{i:02d}" for i in range(MODEL_ASSETS)]
    trees = [random_binary_tree(MODEL_ASSETS, rng, labels) for _ in range(2)]
    history = simulate_returns(DhmSpec(
        noise=_one_factor_noise(labels, rng),
        regimes=(Regime(tree=draw_probabilities(trees[0], 0.1, 0.4, rng), duration=MODEL_STEPS),),
        logvol=LogVolSpec(),
        length=MODEL_STEPS,
        seed=int(rng.integers(0, 2**63)),
    )).returns
    write_correlation_csv(weighted_pearson_matrix(history, flat_weights(MODEL_STEPS)),
                          dest / "noise.csv")
    regimes = []
    for k, (tree, p_range) in enumerate(zip(trees, ((0.1, 0.4), (0.3, 0.6)))):
        serialize_dendrogram(tree, dest / f"tree_{k}.json")
        regimes.append(
            {"tree": f"tree_{k}.json", "duration": MODEL_STEPS // 2, "p_range": list(p_range)}
        )
    config = {
        "length": MODEL_STEPS,
        "seed": seed,
        "logvol": {"lambda": 0.2, "horizon": 800},
        "noise": {"file": "noise.csv"},
        "regimes": regimes,
    }
    path = dest / "model.json"
    write_json_atomic(path, config)
    return path


def _panel_builder(n_assets: int, n_rows: int):
    def build(seed: int, dest: Path) -> dict[str, Path]:
        path = dest / "prices.csv"
        write_price_panel(path, n_assets, n_rows, seed)
        return {"prices": path}

    return build


def _common(out: Path, name: str) -> list[str]:
    return ["--out", str(out / name), "--jobs", "1"]


def _panel_commands(rolling_flags: list[str]):
    def commands(inputs, out: Path, seed: int):
        data = ["--data", str(inputs["prices"])]
        return [
            ("analyze", ["analyze", *data, *_common(out, "analyze")]),
            ("rolling", ["rolling", *data, *rolling_flags, *_common(out, "rolling")]),
        ]

    return commands


def _model_build(seed: int, dest: Path) -> dict[str, Path]:
    return {"config": write_model_spec(dest, seed)}


def _model_commands(inputs, out: Path, seed: int):
    s = ["--seed", str(seed)]
    # validate-model keeps its default seed: the seed sets its tree sizes
    # (4..16 leaves x 1e6 steps), so varying it would vary the work ~1.4x.
    return [
        ("validate-model", ["validate-model", *_common(out, "validate-model")]),
        ("simulate", ["simulate", "--config", str(inputs["config"]), "--repeat", "2", *s,
                      *_common(out, "simulate")]),
        ("calibrate", ["calibrate", "--count", "250", *s, *_common(out, "calibrate")]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("panel50", _panel_builder(50, 4027), _panel_commands([])),
        Workload("wide400", _panel_builder(400, 1260),
                 _panel_commands(["--window-length", "252", "--window-count", "10"])),
        Workload("model", _model_build, _model_commands),
    )
}
