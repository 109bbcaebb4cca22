"""scipy loads where it is used, not when the package or its CLI is imported.

The check runs in a fresh interpreter, since the test process itself
already holds scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
def loaded():
    return {name: name in sys.modules for name in ("scipy", "scipy.special", "scipy.stats")}
steps = {}
import hiermf, hiermf.cli
steps["import"] = loaded()
from hiermf.diagnostics import trend_test
trend_test([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0])
steps["trend_test"] = loaded()
from hiermf.dependence import kendall_tau
kendall_tau([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0])
steps["kendall_tau"] = loaded()
argv = ["validate-model", "--trees", "1", "--steps", "2000", "--length", "300", "--out", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    steps["validate_status"] = hiermf.cli.main(argv)
steps["validate-model"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_loads_at_its_point_of_use(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "validate")],
        env=env, capture_output=True, text=True, check=True,
    )
    steps = json.loads(done.stdout)
    assert steps["import"] == {"scipy": False, "scipy.special": False, "scipy.stats": False}
    assert steps["trend_test"] == {"scipy": True, "scipy.special": True, "scipy.stats": False}
    assert steps["kendall_tau"] == {"scipy": True, "scipy.special": True, "scipy.stats": False}
    # validate-model computes Kendall's tau for 120 pairs per run and still needs no scipy.stats
    assert steps["validate_status"] in (0, 2)
    assert steps["validate-model"] == {"scipy": True, "scipy.special": True, "scipy.stats": False}
    assert (tmp_path / "validate" / "validation.json").is_file()
