import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.exact import RationalMatrix, mat_mul, mat_pow
from qwalk.graphs import (
    Graph,
    GraphError,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    heawood_graph,
    is_bipartite,
    petersen_graph,
)
from qwalk.walks import (
    _entries_to_strings,
    block_identity_check,
    build_bipartite_walk,
    build_grover_walk,
    grover_equals_bipartite_on_subdivision,
    grover_from_json,
    grover_to_json,
    walk_from_json,
    walk_to_json,
)

F = Fraction

# Reference 7x7 operator for the 8-vertex example graph, lexicographic edge
# order (0,1),(0,5),(1,2),(1,4),(2,3),(5,6),(6,7).  The sign at row 2,
# column 4 is forced to -1/3 by orthogonality of rows 0 and 2.
FIG1_P = [
    [F(1, 3), 0, F(1, 3), F(1, 3), 0, 0, 0],
    [0, F(1, 2), 0, 0, 0, F(1, 2), 0],
    [F(1, 3), 0, F(1, 3), F(1, 3), 0, 0, 0],
    [F(1, 3), 0, F(1, 3), F(1, 3), 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0],
    [0, F(1, 2), 0, 0, 0, F(1, 2), 0],
    [0, 0, 0, 0, 0, 0, 1],
]
FIG1_Q = [
    [F(1, 2), F(1, 2), 0, 0, 0, 0, 0],
    [F(1, 2), F(1, 2), 0, 0, 0, 0, 0],
    [0, 0, F(1, 2), 0, F(1, 2), 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, F(1, 2), 0, F(1, 2), 0, 0],
    [0, 0, 0, 0, 0, F(1, 2), F(1, 2)],
    [0, 0, 0, 0, 0, F(1, 2), F(1, 2)],
]
FIG1_U = [
    [0, -F(1, 3), 0, F(2, 3), F(2, 3), 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [0, F(2, 3), 0, F(2, 3), -F(1, 3), 0, 0],
    [0, F(2, 3), 0, -F(1, 3), F(2, 3), 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
]


def random_connected_graph(rng: random.Random, max_n: int = 8) -> Graph:
    """Random spanning tree plus a few extra edges."""
    n = rng.randint(2, max_n)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extras = rng.randint(0, n)
    for _ in range(extras):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


class TestBipartiteWalk:
    def test_figure1_matrices_exact(self):
        w = build_bipartite_walk(figure1_graph())
        assert w.P == RationalMatrix(FIG1_P)
        assert w.Q == RationalMatrix(FIG1_Q)
        assert w.U == RationalMatrix(FIG1_U)

    def test_unitarity_and_projections(self):
        w = build_bipartite_walk(cycle(8))
        assert mat_mul(w.U, w.U.transpose()).is_identity()
        assert mat_mul(w.P, w.P) == w.P
        assert mat_mul(w.Q, w.Q) == w.Q

    def test_projection_ranks_via_trace(self):
        """tr P = |C1| and tr Q = |C0| (one unit per cell)."""
        g = complete_bipartite(2, 3)
        w = build_bipartite_walk(g)
        assert w.P.trace() == len(w.bipart.c1)
        assert w.Q.trace() == len(w.bipart.c0)

    def test_rejects_non_bipartite(self):
        with pytest.raises(GraphError):
            build_bipartite_walk(cycle(5))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            build_bipartite_walk(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_json_round_trip_is_bit_exact(self):
        w = build_bipartite_walk(figure1_graph())
        w2 = walk_from_json(walk_to_json(w))
        assert w2.U == w.U and w2.P == w.P and w2.Q == w.Q
        assert w2.graph == w.graph and w2.bipart == w.bipart


class TestGroverWalk:
    def test_k11_is_swap(self):
        w = build_grover_walk(complete_bipartite(1, 1))
        assert w.U == RationalMatrix([[0, 1], [1, 0]])

    def test_arc_order_pairs_reversals(self):
        g = figure4a_graph()
        w = build_grover_walk(g)
        m = g.num_edges
        for j in range(m):
            h, t = w.arcs[j]
            assert w.arcs[m + j] == (t, h)

    def test_unitarity(self):
        w = build_grover_walk(petersen_graph())
        assert mat_mul(w.U, w.U.transpose()).is_identity()

    def test_json_round_trip(self):
        w = build_grover_walk(figure4a_graph())
        w2 = grover_from_json(grover_to_json(w))
        assert w2.U == w.U and w2.arcs == w.arcs


class TestStructuralIdentities:
    @pytest.mark.parametrize(
        "g",
        [
            figure4a_graph(),
            complete_bipartite(1, 1),
            cycle(4),
            Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
            petersen_graph(),
        ],
        ids=["figure4a", "k11", "c4", "k4", "petersen"],
    )
    def test_subdivision_equality_on_fixtures(self, g):
        ok, sigma = grover_equals_bipartite_on_subdivision(g)
        assert ok
        assert sorted(sigma) == list(range(2 * g.num_edges))

    def test_subdivision_equality_on_seeded_random_graphs(self):
        rng = random.Random(42)
        for _ in range(10):
            g = random_connected_graph(rng)
            ok, _ = grover_equals_bipartite_on_subdivision(g)
            assert ok, g

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_identity(self, k):
        for g in (cycle(6), complete_bipartite(2, 2), figure1_graph()):
            assert block_identity_check(g, k)

    def test_block_identity_on_seeded_random_bipartite(self):
        rng = random.Random(42)
        found = 0
        while found < 5:
            g = random_connected_graph(rng)
            if not is_bipartite(g):
                continue
            found += 1
            assert block_identity_check(g, 2)

    def test_even_power_consistency(self):
        """U_GW^2 restricted blocks commute with direct bipartite powers."""
        g = cycle(6)
        u_bw = build_bipartite_walk(g).U
        assert mat_pow(u_bw, 3).is_identity()
        u_gw = build_grover_walk(g).U
        assert mat_pow(u_gw, 6).is_identity()
        assert not mat_pow(u_gw, 3).is_identity()


class TestSerialization:
    @given(
        st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=30), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_entries_match_fraction_strings(self, rows):
        m = RationalMatrix(rows)
        assert _entries_to_strings(m) == [[str(Fraction(x, m.den)) for x in row] for row in m.num]

    def test_walk_json_is_frozen(self):
        """The walk documents of seven graphs, byte for byte."""
        digest = hashlib.sha256()
        for g, bipartite in (
            (figure4a_graph(), True),
            (cycle(8), True),
            (complete_bipartite(3, 3), True),
            (complete_bipartite(4, 4), True),
            (heawood_graph(), True),
            (petersen_graph(), False),
            (circulant(10, [1, 4, -1, -4]), False),
        ):
            if bipartite:
                digest.update(walk_to_json(build_bipartite_walk(g)).encode())
            digest.update(grover_to_json(build_grover_walk(g)).encode())
        assert digest.hexdigest() == "611f485a76fe5c859e30cbefd6015b5f71f8ad138f247cea8a2fc5996bb50e78"
