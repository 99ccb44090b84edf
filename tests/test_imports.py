"""Importing tmdkit loads numpy and the standard library, not scipy."""

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
