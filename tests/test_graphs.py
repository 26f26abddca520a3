import random
import re

import pytest

from qwalk.cli import FIXTURES
from qwalk.graphs import (
    Graph,
    GraphError,
    NotBipartiteError,
    adjacency_matrix,
    biadjacency,
    bipartite_double_cover,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    degree_profile,
    figure1_graph,
    figure7_graph,
    format_graph,
    heawood_graph,
    is_bipartite,
    line_graph,
    parse_graph,
    path,
    petersen_graph,
    star,
    subdivision,
)
from test_walks import random_connected_graph

# the fixtures and seeded random connected graphs
INCIDENCE_GRAPHS = {name: FIXTURES[name]() for name in sorted(FIXTURES)} | {
    f"random{seed}": random_connected_graph(random.Random(seed)) for seed in range(20)
}


class TestGraphConstruction:
    def test_edges_are_canonical(self):
        g = Graph.from_edges(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((0, 2), (1, 2), (1, 3))

    def test_edge_index_round_trip(self):
        g = cycle(8)
        for j, (u, v) in enumerate(g.edges):
            assert g.edge_index(u, v) == j
            assert g.edge_index(v, u) == j

    def test_missing_edge_raises(self):
        with pytest.raises(GraphError):
            cycle(4).edge_index(0, 2)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_edge_index_on_every_fixture_edge(self, name):
        g = FIXTURES[name]()
        for j, (u, v) in enumerate(g.edges):
            assert g.edge_index(u, v) == g.edge_index(v, u) == j
        # a vertex pair that is no edge, or (0, n) on a complete graph
        pairs = ((u, v) for u in range(g.n) for v in range(u + 1, g.n))
        missing = next((e for e in pairs if e not in g.edges), (0, g.n))
        with pytest.raises(GraphError, match=re.escape(f"no edge {missing}")):
            g.edge_index(*missing[::-1])

    @pytest.mark.parametrize(
        "n,edges",
        [(3, [(0, 0)]), (3, [(0, 5)]), (3, [(0, 1), (1, 0)]), (0, [])],
    )
    def test_invalid_inputs(self, n, edges):
        with pytest.raises(GraphError):
            Graph.from_edges(n, edges)

    def test_connectivity(self):
        assert cycle(5).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()

    def test_neighbors_are_built_once_and_immutable(self):
        g = figure1_graph()
        adj = g.neighbors()
        assert adj is g.neighbors()
        assert adj == ((1, 5), (0, 2, 4), (1, 3), (2,), (1,), (0, 6), (5, 7), (6,))
        with pytest.raises(TypeError):
            adj[0][0] = 3  # type: ignore[index]

    def test_degrees_are_counted_once_and_returned_as_fresh_lists(self):
        g = figure1_graph()
        d = g.degrees()
        assert d == [2, 3, 2, 1, 1, 2, 2, 1]
        d[0] = 99
        assert g.degrees() == [2, 3, 2, 1, 1, 2, 2, 1]
        assert g.degrees() is not g.degrees()
        assert g._degrees is g._degrees

    def test_too_few_edges_is_disconnected_without_a_search(self, monkeypatch):
        """n > |E| + 1 decides connectivity on the edge count: neither the
        search nor a neighbour list is built."""
        g = Graph.from_edges(10**9, [(0, 1)])

        def refuse(self):
            raise AssertionError("per-vertex adjacency built")

        def refuse_search(self):
            raise AssertionError("searched")

        monkeypatch.setattr(Graph, "neighbors", refuse)
        monkeypatch.setattr(Graph.__dict__["_search"], "func", refuse_search)
        assert not g.is_connected()
        with pytest.raises(GraphError, match="^graph is disconnected$"):
            bipartition(g)
        assert "_search" not in vars(g) and "_adjacency" not in vars(g)


class TestParsing:
    def test_round_trip(self):
        g = figure1_graph()
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# a triangle-free graph\n4\n\n0 1\n# middle\n2 3\n"
        assert parse_graph(text).edges == ((0, 1), (2, 3))

    @pytest.mark.parametrize("text", ["", "x", "3\n0 1 2", "3\n0"])
    def test_malformed(self, text):
        with pytest.raises(GraphError):
            parse_graph(text)


class TestBipartition:
    def test_vertex_zero_in_c0(self):
        b = bipartition(cycle(6))
        assert 0 in b.c0

    def test_odd_cycle_rejected(self):
        with pytest.raises(NotBipartiteError):
            bipartition(cycle(5))

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            bipartition(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_one_bfs_per_graph(self, monkeypatch):
        """A second bipartition(g) returns the first one's object with no new
        BFS.  An odd cycle raises NotBipartiteError on every call, from one
        BFS, the search that also found it connected; a disconnected graph
        raises GraphError on every call, from none."""
        runs, searches = [], []
        for name, record in (("_colouring", runs), ("_search", searches)):
            prop = Graph.__dict__[name]
            monkeypatch.setattr(prop, "func", lambda g, f=prop.func, r=record: r.append(g) or f(g))
        g, odd = complete_bipartite(2, 3), cycle(5)
        b = bipartition(g)
        assert bipartition(g) is b and b == (frozenset({0, 1}), frozenset({2, 3, 4}))
        disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
        for _ in range(2):
            with pytest.raises(NotBipartiteError, match="^graph contains an odd cycle$"):
                bipartition(odd)
            with pytest.raises(GraphError, match="^graph is disconnected$"):
                bipartition(disconnected)
        assert not is_bipartite(odd)
        assert [id(h) for h in runs] == [id(g), id(odd)]
        assert [id(h) for h in searches] == [id(g), id(odd)]

    def test_degree_profile(self):
        prof = degree_profile(complete_bipartite(2, 3))
        assert prof.is_biregular
        assert (prof.d0, prof.d1) == (3, 2)  # c0 = {0, 1}, each joined to the 3 others
        # star subdivided in the middle of a path: degrees differ on one side
        assert not degree_profile(path(4)).is_biregular

    def test_biadjacency_block_shape(self):
        c = biadjacency(complete_bipartite(2, 3))
        assert (len(c), len(c[0])) == (2, 3)
        assert all(x == 1 for row in c for x in row)
        assert biadjacency(path(3)) == [[1], [1]]  # c0 = {0, 2}, c1 = {1}

    def test_adjacency_block_structure(self):
        g = cycle(6)
        b = bipartition(g)
        a = adjacency_matrix(g)
        assert a == [list(col) for col in zip(*a)] and sum(map(sum, a)) == 2 * g.num_edges
        assert all(a[u][v] == 1 for u, v in g.edges)
        for side in b:
            assert all(a[i][j] == 0 for i in side for j in side)


class TestTransforms:
    def test_subdivision_structure(self):
        g = cycle(3)
        sg = subdivision(g)
        assert sg.n == 6 and sg.num_edges == 6
        # subdivision of any graph is bipartite, the original vertices in c0
        assert bipartition(sg).c0 == frozenset(range(3))

    def test_double_cover_of_odd_cycle(self):
        dg = bipartite_double_cover(cycle(5))
        assert dg.n == 10 and dg.num_edges == 10
        assert dg == cycle(10) or sorted(dg.degrees()) == [2] * 10
        assert bipartition(dg).c0 == frozenset(range(5))

    def test_double_cover_of_bipartite_disconnects(self):
        msg = r"^double cover is disconnected \(input was bipartite\)$"
        with pytest.raises(GraphError, match=msg):
            bipartite_double_cover(cycle(4))

    def test_double_cover_of_a_disconnected_graph_says_so(self):
        # two disjoint triangles: disconnected, and not bipartite
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(GraphError, match="^graph is disconnected$"):
            bipartite_double_cover(two_triangles)

    @pytest.mark.parametrize("transform", [subdivision, bipartite_double_cover])
    def test_too_few_edges_rejected_before_per_vertex_work(self, monkeypatch, transform):
        # 10**6 declared vertices and one edge are disconnected on the edge
        # count alone; the transform must say so before allocating per vertex
        def refuse(self):
            raise AssertionError("per-vertex adjacency built")

        monkeypatch.setattr(Graph, "neighbors", refuse)
        monkeypatch.setattr(Graph, "degrees", refuse)
        with pytest.raises(GraphError, match="disconnected"):
            transform(Graph.from_edges(10**6, [(0, 1)]))

    def test_line_graph_of_cycle_is_cycle(self):
        assert sorted(line_graph(cycle(5)).degrees()) == [2] * 5

    def test_line_graph_edge_count(self):
        """|E(L(G))| = sum of C(deg,2) over vertices."""
        g = petersen_graph()
        expected = sum(d * (d - 1) // 2 for d in g.degrees())
        assert line_graph(g).num_edges == expected


class TestIncidence:
    @pytest.mark.parametrize("g", INCIDENCE_GRAPHS.values(), ids=INCIDENCE_GRAPHS)
    def test_each_edge_is_listed_at_its_two_ends_in_ascending_order(self, g):
        inc = g.incidence()
        assert inc is g.incidence() and len(inc) == g.n
        assert all(list(cell) == sorted(set(cell)) for cell in inc)
        ends: dict[int, list[int]] = {}
        for v, cell in enumerate(inc):
            for j in cell:
                ends.setdefault(j, []).append(v)
        assert ends == {j: list(e) for j, e in enumerate(g.edges)}

    @pytest.mark.parametrize("g", INCIDENCE_GRAPHS.values(), ids=INCIDENCE_GRAPHS)
    def test_line_graph_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        index = {e: j for j, e in enumerate(g.edges)}
        edges = [(index[tuple(sorted(a))], index[tuple(sorted(b))]) for a, b in nx.line_graph(h).edges]
        assert line_graph(g) == Graph.from_edges(g.num_edges, edges)


class TestFixtures:
    def test_figure1(self):
        g = figure1_graph()
        assert (g.n, g.num_edges) == (8, 7)
        assert bipartition(g)

    def test_figure7_is_4_regular(self):
        assert set(figure7_graph().degrees()) == {4}

    def test_heawood(self):
        g = heawood_graph()
        assert (g.n, g.num_edges) == (14, 21)
        assert set(g.degrees()) == {3}
        assert bipartition(g)

    def test_petersen(self):
        g = petersen_graph()
        assert (g.n, g.num_edges) == (10, 15)
        assert set(g.degrees()) == {3}

    def test_circulant_matches_cycle(self):
        assert circulant(6, [1, -1]) == cycle(6)

    @pytest.mark.parametrize("n", [0, -3])
    def test_circulant_needs_a_vertex(self, n):
        with pytest.raises(GraphError, match="^vertex count must be positive$"):
            circulant(n, [1, -1])

    def test_star_is_complete_bipartite(self):
        assert star(3).degrees() == [3, 1, 1, 1]
