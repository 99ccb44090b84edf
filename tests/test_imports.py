"""Importing tmdkit loads numpy and the standard library, not scipy; layers import downward.

The package exports only what the README's Library section documents,
and the section's examples run.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import tmdkit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _library_section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _library_examples():
    return re.findall(r"```python\n(.*?)```", _library_section(), re.S)


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


def test_every_export_is_documented_in_the_library_section():
    section = _library_section()
    named = set(re.findall(r"`(\w+)`", section))
    for example in _library_examples():
        named |= {node.id for node in ast.walk(ast.parse(example)) if isinstance(node, ast.Name)}
    assert [name for name in tmdkit.__all__ if name not in named] == []


def test_library_examples_import_only_exports():
    imported = [
        alias.name
        for example in _library_examples()
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "tmdkit"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in tmdkit.__all__] == []


def test_library_examples_run():
    # the second example reuses the first one's imports, as a reader's session would
    namespace: dict = {}
    for example in _library_examples():
        exec(compile(example, "README.md", "exec"), namespace)


def test_exports_are_sorted_and_unique():
    # constants, then classes, then functions, each in code-point order
    def kind(name):
        return 0 if name.isupper() else 1 if name[0].isupper() else 2

    assert tmdkit.__all__ == sorted(set(tmdkit.__all__), key=lambda name: (kind(name), name))
