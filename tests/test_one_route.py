"""One bipartition check and one char-poly source, by the imports.

No module of qwalk but graphs.py names `bipartition`, so every function
that takes a bipartition reaches the BFS, or the check of a given one,
through graphs.checked_bipartition.  The package namespace re-exports the
name and calls nothing, so __init__.py is left out.  periodicity.py names
no `adjacency_matrix`: its decider, table functions and phase period read
one char-poly, that of _chi, built on walks._gram's rows."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qwalk"


def _names(path: Path) -> set[str]:
    """The names a module imports from anywhere, and the attributes it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name not in ("graphs.py", "__init__.py"))
)
def test_only_graphs_names_bipartition(module):
    assert "bipartition" not in _names(SRC / module)


def test_periodicity_names_no_adjacency_matrix():
    assert "adjacency_matrix" not in _names(SRC / "periodicity.py")


def test_the_check_sees_the_names_where_they_are_imported():
    assert "bipartition" in _names(SRC / "__init__.py")
    assert "adjacency_matrix" in _names(SRC / "spectral.py")
    assert "checked_bipartition" in _names(SRC / "periodicity.py")
