"""Import cost: no stage loads scipy, and only the simulation path loads the thread pool."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import kyle_stability

# Runs in a fresh interpreter and prints, after each stage, the scipy and
# concurrent.futures modules loaded so far.
_CHILD = """
import contextlib, io, json, sys

def lazy_modules():
    lazy = ("scipy", "concurrent")
    return sorted(m for m in sys.modules if m.partition(".")[0] in lazy)

stages = {}
import kyle_stability
stages["import kyle_stability"] = lazy_modules()
import kyle_stability.cli as cli
stages["import kyle_stability.cli"] = lazy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["equilibrium", "--n", "3"])
stages["cli equilibrium"] = lazy_modules()
config = kyle_stability.equilibrium_config(
    kyle_stability.ModelParams(n_periods=2), n_paths=100, seed=1
)
kyle_stability.simulate(config)
stages["simulate"] = lazy_modules()
print(json.dumps({"code": code, "stages": stages}))
"""


def test_no_stage_loads_scipy():
    src = str(Path(kyle_stability.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    stages = report["stages"]
    for stage in ("import kyle_stability", "import kyle_stability.cli", "cli equilibrium"):
        assert stages[stage] == [], f"{stage} loaded {stages[stage]}"
    assert not [m for m in stages["simulate"] if m.partition(".")[0] == "scipy"]
    assert "concurrent.futures" in stages["simulate"]
