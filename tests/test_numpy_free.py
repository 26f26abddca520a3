"""The exact modules import no numpy: the decision path rests on integer
and rational arithmetic alone, and numpy stays with the numeric
eigenanalysis in qwalk.spectral, which the package does not import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qwalk"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", ["periodicity", "exact", "walks", "graphs", "scan", "cli"])
def test_module_imports_no_numpy(module):
    assert "numpy" not in _imported_roots(SRC / f"{module}.py")


def test_the_check_sees_numpy_where_it_is_imported():
    assert "numpy" in _imported_roots(SRC / "spectral.py")


def _run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_commands_run_with_numpy_blocked():
    # sys.modules["numpy"] = None makes every import of numpy raise
    # ImportError; each command keeps its exit code
    code = """
import contextlib, io, sys
sys.modules["numpy"] = None
from qwalk.cli import main
commands = [
    ["period", "c6"], ["period", "figure1"], ["period", "k22", "--kind", "g"],
    ["walk", "figure1"], ["verify", "figure4a"], ["scan", "--max-edges", "6"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes)
"""
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 3, 0, 0, 0, 0]"


def test_importing_the_cli_loads_no_numpy():
    done = _run_python('import sys, qwalk.cli; print("numpy" in sys.modules)')
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
