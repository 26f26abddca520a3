"""One source of each graph's classes and one char-poly source.

No function that works on a bipartite walk takes a bipartition: each takes
its classes from graphs.bipartition(g), the colouring Graph caches, and no
module of qwalk defines or imports a check of a given one.  Graph._colouring
is the only code that builds a Bipartition, no function under src/ has a
parameter annotated with one, and a WalkOperator stores no classes.
periodicity.py names no `adjacency_matrix`: its decider, table functions
and phase period read one char-poly, that of _chi, built on walks._gram's
rows."""

import ast
import inspect
from pathlib import Path

import pytest

import qwalk.graphs
import qwalk.periodicity
import qwalk.spectral
import qwalk.walks

SRC = Path(__file__).resolve().parent.parent / "src" / "qwalk"

TAKE_NO_BIPARTITION = (
    qwalk.periodicity.decide_periodicity,
    qwalk.periodicity.period_from_phases,
    qwalk.periodicity.spectral_test_biregular,
    qwalk.walks.build_bipartite_walk,
    qwalk.walks.build_partitions,
    qwalk.walks.cell_operator,
    qwalk.walks.block_identity_checks,
    qwalk.walks.block_identity_check,
    qwalk.spectral.walk_phases_from_graph,
    qwalk.graphs.degree_profile,
    qwalk.graphs.biadjacency,
    qwalk.graphs.adjacency_matrix,
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


def _mentions_bipartition(node: ast.AST) -> bool:
    """Whether an expression names Bipartition: as a name, an attribute or
    inside a string annotation."""
    return any(
        (isinstance(n, ast.Name) and n.id == "Bipartition")
        or (isinstance(n, ast.Attribute) and n.attr == "Bipartition")
        or (isinstance(n, ast.Constant) and isinstance(n.value, str) and "Bipartition" in n.value)
        for n in ast.walk(node)
    )


def _bipartition_uses(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The qualified names of the scopes that call Bipartition(...), and of
    the functions with a parameter annotated with it."""
    calls, params = set(), set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            every = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            if any(p.annotation is not None and _mentions_bipartition(p.annotation) for p in every):
                params.add(".".join(scope) or "<lambda>")
        if isinstance(node, ast.Call) and _mentions_bipartition(node.func):
            calls.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return calls, params


def _src_uses() -> tuple[set[str], set[str]]:
    calls, params = set(), set()
    for path in sorted(SRC.glob("*.py")):
        c, p = _bipartition_uses(ast.parse(path.read_text()))
        calls |= {f"{path.stem}.{name}" for name in c}
        params |= {f"{path.stem}.{name}" for name in p}
    return calls, params


@pytest.mark.parametrize("function", TAKE_NO_BIPARTITION, ids=lambda f: f.__name__)
def test_takes_no_bipartition(function):
    assert "b" not in inspect.signature(function).parameters


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_check_of_a_given_bipartition(module):
    path = SRC / module
    assert "checked_bipartition" not in _names(path) | _defined(path)


def test_only_the_colouring_builds_a_bipartition():
    assert _src_uses()[0] == {"graphs.Graph._colouring"}


def test_no_function_takes_a_bipartition():
    assert _src_uses()[1] == set()


def test_the_ast_check_sees_calls_and_annotations():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, *, b: 'Optional[Bipartition]' = None): return g.Bipartition(1, 2)\n"
        "def h(x: list[graphs.Bipartition]): ...\n"
        "k = lambda: Bipartition(x, y)\n"
    )
    assert _bipartition_uses(tree) == ({"A.f", ""}, {"A.f", "h"})


def test_a_walk_operator_stores_no_classes():
    assert qwalk.walks.WalkOperator._fields == ("graph", "P", "Q", "U")


def test_periodicity_names_no_adjacency_matrix():
    assert "adjacency_matrix" not in _names(SRC / "periodicity.py")


def test_the_check_sees_the_names_where_they_are_imported():
    assert "bipartition" in _names(SRC / "__init__.py")
    assert "adjacency_matrix" in _names(SRC / "spectral.py")
    assert {"bipartition", "degree_profile"} <= _names(SRC / "periodicity.py")
    assert "bipartition" in _defined(SRC / "graphs.py")
