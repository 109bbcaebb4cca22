"""README's library sketch runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    # 802 price rows give the 801 returns that 50 windows of 752 need at stride 1
    rng = np.random.default_rng(0)
    prices = 100 * np.exp(np.cumsum(0.01 * rng.standard_normal((802, 6)), axis=0))
    lines = ["date," + ",".join(f"T{j}" for j in range(6))]
    lines += [f"{t:05d}," + ",".join(map(repr, row)) for t, row in enumerate(prices.tolist())]
    (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)

    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

    assert namespace["returns"].n_times == 801
    assert set(namespace["orders"]) == set(namespace["returns"].assets)
    assert len(namespace["by_window"]) == 50
    result = namespace["result"]
    assert result.retained == namespace["returns"].assets
    assert result.orders == namespace["orders"]
    assert result.dh == namespace["dh"]
    # the six tickers sit at three distinct orders, so the trend test runs
    assert set(namespace["trend"]) == {"r", "t", "p_value", "n"} and namespace["trend"]["n"] == 3
    assert [row[0] for row in namespace["rows"]] == list(range(50))
    assert namespace["out"].returns.values.shape == (4026, 16)
    assert namespace["report"]["passed"]
