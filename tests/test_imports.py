"""Importing tmdkit loads numpy and the standard library, not scipy; layers import downward."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test session already holds do not count
    probe = "import json, sys, tmdkit; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(done.stdout)
    assert "tmdkit" in loaded
    scipy = [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert scipy == [], f"import tmdkit loaded {len(scipy)} scipy modules, e.g. {scipy[:5]}"


def test_simulator_does_not_import_the_analysis():
    # calibration and reconstruction read click tables; the shot loop only makes them
    tree = ast.parse((SRC / "tmdkit" / "montecarlo.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
            assert "reconstruct" not in {name.rpartition(".")[2] for name in names}, ast.unparse(node)
