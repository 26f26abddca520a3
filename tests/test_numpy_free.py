"""The exact modules import no numpy: the decision path rests on integer
and rational arithmetic alone, and numpy stays with the numeric
eigenanalysis in qwalk.spectral."""

import ast
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
