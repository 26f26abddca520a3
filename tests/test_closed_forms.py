"""Families whose periodicity is known in closed form, as oracles.

Each expected verdict and period below comes from a formula or a known
classification, not from qwalk: the bipartite walk on C_2m has period m and
the Grover walk on C_n period n; K_{a,b} has period 2 (1 for K_{1,1}); the
only periodic hypercubes are Q_1, Q_2 and Q_4; and among complete graphs,
their line graphs T(n) and the rook's graphs K_n x K_n, the Grover walk is
periodic only on K_2, K_3, T(3), T(4) and K_2 x K_2.  Those graphs have
integer spectra, so by Niven's theorem a walk on one is periodic iff every
eigenvalue ratio lambda/d lies in {0, +-1/2, +-1}.
"""

from itertools import combinations
from typing import Optional

import pytest

from qwalk.graphs import Graph, complete_bipartite, cycle, line_graph
from qwalk.periodicity import decide_periodicity


def hypercube(d: int) -> Graph:
    """Q_d: the d-bit strings, adjacent when they differ in one bit."""
    return Graph.from_edges(
        2**d, [(v, v | 1 << i) for v in range(2**d) for i in range(d) if not v >> i & 1]
    )


def complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def rook(n: int) -> Graph:
    """K_n x K_n: the cells of an n x n board, adjacent in a row or column."""
    cells = [(r, c) for r in range(n) for c in range(n)]
    return Graph.from_edges(
        n * n,
        [(n * r + c, n * s + t) for (r, c), (s, t) in combinations(cells, 2) if r == s or c == t],
    )


def period(g: Graph, kind: str) -> Optional[int]:
    """The period of the walk, None when it is not periodic."""
    v = decide_periodicity(g, kind)
    assert v.periodic == (v.period is not None)
    return v.period


@pytest.mark.parametrize("d", range(1, 7))
def test_hypercube_bipartite_walk(d):
    assert period(hypercube(d), "bipartite") == {1: 1, 2: 2, 4: 6}.get(d)


@pytest.mark.parametrize("d", range(1, 7))
def test_hypercube_grover_walk(d):
    assert period(hypercube(d), "grover") == {1: 2, 2: 4, 4: 12}.get(d)


@pytest.mark.parametrize("m", range(2, 15))
def test_even_cycle_bipartite_walk_has_period_half_its_length(m):
    assert period(cycle(2 * m), "bipartite") == m


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_grover_walk_has_period_its_length(n):
    assert period(cycle(n), "grover") == n


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 5) for b in range(a, 6)])
def test_complete_bipartite_bipartite_walk(a, b):
    assert period(complete_bipartite(a, b), "bipartite") == (1 if a == b == 1 else 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_graph_grover_walk(n):
    assert period(complete(n), "grover") == {2: 2, 3: 3}.get(n)


@pytest.mark.parametrize("n", range(3, 7))
def test_triangular_graph_grover_walk(n):
    assert period(line_graph(complete(n)), "grover") == {3: 3, 4: 12}.get(n)


@pytest.mark.parametrize("n", range(2, 5))
def test_rook_graph_grover_walk(n):
    assert period(rook(n), "grover") == {2: 4}.get(n)
