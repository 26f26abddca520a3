"""One source of each graph's classes and one char-poly source.

No function that works on a bipartite walk takes a bipartition: each takes
its classes from graphs.bipartition(g), the colouring Graph caches, and no
module of qwalk defines or imports a check of a given one.  periodicity.py
names no `adjacency_matrix`: its decider, table functions and phase period
read one char-poly, that of _chi, built on walks._gram's rows."""

import ast
import inspect
from pathlib import Path

import pytest

import qwalk.periodicity
import qwalk.spectral
import qwalk.walks

SRC = Path(__file__).resolve().parent.parent / "src" / "qwalk"

TAKE_NO_BIPARTITION = (
    qwalk.periodicity.decide_periodicity,
    qwalk.periodicity.period_from_phases,
    qwalk.periodicity.spectral_test_biregular,
    qwalk.walks.build_bipartite_walk,
    qwalk.walks.cell_operator,
    qwalk.walks.block_identity_checks,
    qwalk.walks.block_identity_check,
    qwalk.spectral.walk_phases_from_graph,
)


def _names(path: Path) -> set[str]:
    """The names a module imports from anywhere, and the attributes it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined(path: Path) -> set[str]:
    return {
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("function", TAKE_NO_BIPARTITION, ids=lambda f: f.__name__)
def test_takes_no_bipartition(function):
    assert "b" not in inspect.signature(function).parameters


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_check_of_a_given_bipartition(module):
    path = SRC / module
    assert "checked_bipartition" not in _names(path) | _defined(path)


def test_periodicity_names_no_adjacency_matrix():
    assert "adjacency_matrix" not in _names(SRC / "periodicity.py")


def test_the_check_sees_the_names_where_they_are_imported():
    assert "bipartition" in _names(SRC / "__init__.py")
    assert "adjacency_matrix" in _names(SRC / "spectral.py")
    assert {"bipartition", "degree_profile"} <= _names(SRC / "periodicity.py")
    assert "bipartition" in _defined(SRC / "graphs.py")
