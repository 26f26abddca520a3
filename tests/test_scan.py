from collections import Counter
from itertools import permutations

import networkx as nx
import pytest
from networkx.algorithms import bipartite

from qwalk.graphs import bipartition, degree_profile
from qwalk.scan import _biadjacency_fills, _profiles, _to_graph, enumerate_biregular, scan_periodicity

# per-edge-count class counts: one star per edge count plus the classes
# with both degrees at least 2
COUNTS_10 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 3, 7: 1, 8: 3, 9: 2, 10: 3}
COUNTS_12 = {**COUNTS_10, 11: 1, 12: 8}


def biadjacency_rows(g, b):
    r0, r1 = sorted(b.c0), sorted(b.c1)
    pos1 = {v: j for j, v in enumerate(r1)}
    rows = []
    for u in r0:
        row = [0] * len(r1)
        for x, y in g.edges:
            if x == u:
                row[pos1[y]] = 1
            elif y == u:
                row[pos1[x]] = 1
        rows.append(tuple(row))
    return rows


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@pytest.fixture(scope="module")
def classes_12():
    return [to_networkx(g) for g, _ in enumerate_biregular(12)]


def bipartite_isomorphic(rows_a, rows_b):
    """Brute-force row/column permutation search (tiny sides only)."""
    if len(rows_a) != len(rows_b) or len(rows_a[0]) != len(rows_b[0]):
        return False
    target = sorted(rows_b)
    for cperm in permutations(range(len(rows_a[0]))):
        if sorted(tuple(r[c] for c in cperm) for r in rows_a) == target:
            return True
    return False


class TestEnumeration:
    def test_counts_up_to_nine_edges(self):
        graphs = list(enumerate_biregular(9))
        assert len(graphs) == 15
        by_edges = {}
        for g, _ in graphs:
            by_edges[g.num_edges] = by_edges.get(g.num_edges, 0) + 1
        # one star per edge count, plus K22, C6, K23, C8, K24, K33
        assert by_edges == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 3, 7: 1, 8: 3, 9: 2}

    def test_all_connected_and_biregular(self):
        for g, b in enumerate_biregular(8):
            assert g.is_connected()
            assert bipartition(g).c0 == b.c0
            assert degree_profile(g, b).is_biregular

    def test_pairwise_non_isomorphic_within_profile(self):
        buckets = {}
        for g, b in enumerate_biregular(10):
            prof = degree_profile(g, b)
            key = (len(b.c0), prof.d0, len(b.c1), prof.d1)
            buckets.setdefault(key, []).append(biadjacency_rows(g, b))
        for key, rows_list in buckets.items():
            for i in range(len(rows_list)):
                for j in range(i + 1, len(rows_list)):
                    assert not bipartite_isomorphic(rows_list[i], rows_list[j]), key

    def test_counts_up_to_ten_edges(self):
        graphs = list(enumerate_biregular(10))
        assert len(graphs) == 18
        assert Counter(g.num_edges for g, _ in graphs) == COUNTS_10

    def test_counts_up_to_twelve_edges(self, classes_12):
        assert len(classes_12) == 27
        assert Counter(h.number_of_edges() for h in classes_12) == COUNTS_12

    def test_twelve_edge_classes_pairwise_non_isomorphic(self, classes_12):
        for i, a in enumerate(classes_12):
            for b in classes_12[i + 1:]:
                assert not nx.is_isomorphic(a, b)

    def test_complete_against_graph_atlas(self, classes_12):
        # the atlas holds every graph on at most 7 vertices; each connected
        # biregular bipartite one with 1 to 12 edges must be enumerated
        found = 0
        for h in nx.graph_atlas_g():
            if not 1 <= h.number_of_edges() <= 12 or not nx.is_connected(h):
                continue
            if not nx.is_bipartite(h):
                continue
            if any(len({h.degree(v) for v in side}) != 1 for side in bipartite.sets(h)):
                continue
            found += 1
            assert any(nx.is_isomorphic(h, c) for c in classes_12), sorted(h.edges)
        assert found == 13

    @pytest.mark.parametrize("e", range(1, 11))
    def test_leaf_side_profiles_hold_only_the_star(self, e):
        # the exhaustive fill search, run on exactly the profiles that the
        # enumerator answers without searching
        for n0, d0, n1, d1 in _profiles(e):
            if min(d0, d1) != 1:
                continue
            connected = [rows for rows in _biadjacency_fills(n0, d0, n1, d1)
                         if _to_graph(rows)[0].is_connected()]
            if min(n0, n1) > 1:
                assert connected == [], (n0, d0, n1, d1)
            else:
                # the all-ones matrix, the star K_{n0,n1}, is the only fill
                assert connected == [((1,) * n1,) * n0], (n0, d0, n1, d1)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_biregular(13))


class TestScanPeriodicity:
    def test_stream_contains_known_fixtures(self):
        results = {
            (len(b.c0), len(b.c1), g.num_edges): v
            for g, b, v in scan_periodicity(6)
        }
        # K22 at 4 edges, C6 and K23 at 6 edges
        k22 = results[(2, 2, 4)]
        assert k22.periodic is True and k22.period == 2
        c6 = results[(3, 3, 6)]
        assert c6.periodic is True and c6.period == 3
        k23 = results[(2, 3, 6)]
        assert k23.periodic is True and k23.period == 2

    def test_verdicts_are_definite_at_small_scale(self):
        for g, b, v in scan_periodicity(8):
            assert v.periodic in (True, False)
