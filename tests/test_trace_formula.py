"""The trace witness from the char-poly that q comes from: every tr(U^k)
that _scaled_traces gives against the trace of U^k formed from the built
walk; the identity charpoly(T) = (x + 1)^(n_f - n_l) x^n_l q(x + 1/x) on
the cell space; and non-periodic verdicts that build no walk."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import qwalk.periodicity
from qwalk.exact import char_poly, mat_mul
from qwalk.graphs import (
    Graph,
    bipartite_double_cover,
    bipartition,
    complete_bipartite,
    figure1_graph,
    heawood_graph,
    is_bipartite,
    path,
    petersen_graph,
    star,
    subdivision,
)
from qwalk.periodicity import TRACE_DEPTH, _gram, _scaled_traces, decide_periodicity, trace_test
from qwalk.walks import build_bipartite_walk, build_grover_walk, cell_operator
from test_cell_space import seeded_bipartite
from test_walks import random_connected_graph

CUBIC10 = Path(__file__).resolve().parent.parent / "perfbench" / "cubic10.json"


def _chi(g: Graph, kind: str):
    """chi, den and shift as decide_periodicity takes them from the Gram
    rows (the table's char-poly is the same matrix), the sizes n_l and n_f
    of the class q is taken on and of the other, and the graph walked on."""
    if kind == "grover":
        h = subdivision(g)
        b = bipartition(h)
        rows, other = b.c0, b.c1
    else:
        h, b = g, bipartition(g)
        rows, other = sorted((b.c0, b.c1), key=len)
    gram, den = _gram(h, rows, other)
    shift = den // 2 if kind == "grover" else 0
    for i, row in enumerate(gram):
        row[i] -= shift
    return char_poly(gram), den, shift, len(rows), len(other), h


def _double_cover(seed: int) -> Graph:
    rng = random.Random(seed)
    while True:
        g = random_connected_graph(rng, max_n=7)
        if not is_bipartite(g):
            return bipartite_double_cover(g)


def _tree(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def _non_regular(seed: int) -> Graph:
    rng = random.Random(seed)
    while True:
        g = random_connected_graph(rng, max_n=7)
        if len(set(g.degrees())) > 1:
            return g


FAMILIES = {
    "double-cover": (_double_cover, "bipartite"),
    "bipartite": (lambda seed: seeded_bipartite(seed, dense=True), "bipartite"),
    "sparse-bipartite": (lambda seed: seeded_bipartite(seed, dense=False), "bipartite"),
    "tree": (_tree, "bipartite"),
    "grover-non-regular": (_non_regular, "grover"),
    "grover-tree": (_tree, "grover"),  # q on the larger class of S(g): n > |E|
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_trace_matches_the_built_walk(family):
    """Seeds 0..11 of each family: tr(U^k) for every k <= TRACE_DEPTH, not
    only the first non-integral one, equals the trace of U^k formed by
    mat_mul on the U that build_bipartite_walk or build_grover_walk gives."""
    make, kind = FAMILIES[family]
    integral = non_integral = 0
    for seed in range(12):
        g = make(seed)
        chi, den, shift, n_l, n_f, h = _chi(g, kind)
        if family == "grover-tree":
            assert n_l > n_f
        u = (build_bipartite_walk if kind == "bipartite" else build_grover_walk)(g).U
        power, k = u, 0
        for k, t in enumerate(_scaled_traces(chi, den, shift, n_f, h.num_edges), 1):
            trace = Fraction(t, den**k)
            assert trace == power.trace(), (seed, k)
            integral += trace.denominator == 1
            non_integral += trace.denominator != 1
            power = mat_mul(power, u)
        assert k == TRACE_DEPTH
    assert integral and (non_integral or family == "tree")


CELL_CASES = {
    "k23": (complete_bipartite(2, 3), "bipartite"),
    "figure1": (figure1_graph(), "bipartite"),
    "heawood": (heawood_graph(), "bipartite"),
    "star4": (star(4), "bipartite"),
    "p6-grover": (path(6), "grover"),
    "petersen-grover": (petersen_graph(), "grover"),
    "paw-grover": (Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), "grover"),
}


@pytest.mark.parametrize("name", sorted(CELL_CASES))
def test_cell_char_poly_is_the_product_over_q(name):
    """charpoly(T) = (x + 1)^(n_f - n_l) prod_y (x^2 - y x + 1) over the
    roots y of q, i.e. x^n_l q(x + 1/x), against char_poly of the
    numerators that cell_operator builds; sympy does the algebra."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    chi, den, shift, n_l, n_f, h = _chi(*CELL_CASES[name])
    num, t_den, _ = cell_operator(h)
    n = len(num)
    assert n == n_l + n_f
    char_t = sum(c * (t_den * x) ** i for i, c in enumerate(char_poly(num).coeffs)) / t_den**n
    chi_at = sum(c * (sympy.Rational(den, 4) * (y + 2) - shift) ** i for i, c in enumerate(chi.coeffs))
    q = sympy.Rational(4, den) ** n_l * chi_at
    lhs = char_t * (x + 1) ** max(0, n_l - n_f)
    rhs = x**n_l * q.subs(y, x + 1 / x) * (x + 1) ** max(0, n_f - n_l)
    assert sympy.expand(lhs - rhs) == 0


def test_non_periodic_verdicts_build_no_walk(monkeypatch):
    """With cell_operator and build_bipartite_walk made to raise, the double
    covers of the 17 non-bipartite cubic graphs on 10 vertices, Heawood and
    Petersen's Grover walk still get their verdicts, with the witness that
    trace_test finds on the built U; a periodic verdict still needs T."""
    cases = [
        (bipartite_double_cover(Graph.from_edges(10, e)), "bipartite")
        for e in json.loads(CUBIC10.read_text())
    ]
    cases += [(heawood_graph(), "bipartite"), (petersen_graph(), "grover")]
    expected = [
        trace_test((build_bipartite_walk if kind == "bipartite" else build_grover_walk)(g).U)
        for g, kind in cases
    ]

    def refuse(*_args):
        raise AssertionError("a walk was built")

    monkeypatch.setattr(qwalk.periodicity, "cell_operator", refuse)
    monkeypatch.setattr(qwalk.periodicity, "build_bipartite_walk", refuse)
    assert len(cases) == 19
    for (g, kind), witness in zip(cases, expected):
        v = decide_periodicity(g, kind)
        assert not v.periodic and witness is not None
        assert v.trace_witness == (witness[0], str(witness[1]))
    with pytest.raises(AssertionError, match="^a walk was built$"):
        decide_periodicity(complete_bipartite(3, 3))
