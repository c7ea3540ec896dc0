"""The demos are scripts: each name one imports from thinsieve is checked
here against the package without running the demo, and every demo is run whole."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    imports = [node for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "thinsieve"]
    assert imports, f"{demo.name} imports nothing from thinsieve"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"


# every demo, run whole, so a change to an API that one uses fails here
# in a fresh working directory, where geodesic_arcs.py writes its arcs_*.csv
@pytest.mark.parametrize("name", [demo.name for demo in DEMOS])
def test_sifting_demos_run(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
