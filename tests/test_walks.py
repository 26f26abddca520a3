import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.exact
import qwalk.walks
from qwalk.cli import FIXTURES, main
from qwalk.exact import RationalMatrix, _nonzeros, mat_mul, mat_pow
from qwalk.graphs import (
    Graph,
    GraphError,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    format_graph,
    heawood_graph,
    is_bipartite,
    petersen_graph,
    subdivision,
)
from qwalk.walks import (
    ArcWalkOperator,
    ConstructionError,
    _averages_over,
    _projection,
    block_identity_check,
    block_identity_checks,
    build_bipartite_walk,
    build_grover_walk,
    build_partitions,
    entry_rows,
    grover_equals_bipartite_on_subdivision,
    grover_from_json,
    grover_to_json,
    walk_from_json,
    walk_to_json,
)
from test_exact import fractions_of

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


def random_connected_bipartite(rng: random.Random, max_n: int = 14) -> Graph:
    """Random spanning tree, each vertex coloured opposite to its parent,
    plus a few extra edges between the colour classes."""
    n = rng.randint(2, max_n)
    colour = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        colour[v] = 1 - colour[u]
        edges.add((u, v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        if colour[u] != colour[v]:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def random_tree(rng: random.Random, max_n: int = 14) -> Graph:
    """Random spanning tree: its leaves are cells of one edge."""
    n = rng.randint(2, max_n)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


# Seeded graph families: cells of one edge (trees), of two edges (cycles,
# where 2P - I has a zero diagonal), complete and random bipartite graphs,
# and, for the Grover walk, graphs with odd cycles.
BIPARTITE_FAMILIES = {
    "tree": random_tree,
    "even-cycle": lambda rng: cycle(2 * rng.randint(2, 8)),
    "complete-bipartite": lambda rng: complete_bipartite(rng.randint(1, 4), rng.randint(1, 4)),
    "random-bipartite": random_connected_bipartite,
}
GRAPH_FAMILIES = {
    **BIPARTITE_FAMILIES,
    "odd-cycle": lambda rng: cycle(2 * rng.randint(1, 7) + 1),
    "random": lambda rng: random_connected_graph(rng, max_n=14),
}


# Definitional operators, built entry by entry with the RationalMatrix
# operations, independently of the integer-row assembly in qwalk.walks.


def _averaging(keys: list) -> RationalMatrix:
    """The projection with entry 1/|cell| where keys[e] == keys[f]."""
    size = {key: keys.count(key) for key in keys}
    return RationalMatrix(
        [[F(1, size[a]) if a == b else 0 for b in keys] for a in keys]
    )


def _reflection(p: RationalMatrix) -> RationalMatrix:
    return p.scale(2).add(RationalMatrix.identity(p.rows).scale(-1))


def _definitional_bipartite(g: Graph) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    """(P, Q, U): P averages over edges sharing their c1 endpoint, Q over
    edges sharing their c0 endpoint, U = (2P - I)(2Q - I)."""
    b = bipartition(g)
    c1_end = [u if u in b.c1 else v for u, v in g.edges]
    c0_end = [u if u in b.c0 else v for u, v in g.edges]
    p, q = _averaging(c1_end), _averaging(c0_end)
    return p, q, mat_mul(_reflection(p), _reflection(q))


def _definitional_grover(arcs: list) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    """(R, K, U) on arcs (tail, head): R reverses arcs, K averages over
    arcs sharing their head, U = R(2K - I)."""
    r = RationalMatrix([[int(a == (h, t)) for a in arcs] for t, h in arcs])
    k = _averaging([h for _, h in arcs])
    return r, k, mat_mul(r, _reflection(k))


def _definitional_block_identity(g: Graph, j: int, gw: ArcWalkOperator | None = None) -> bool:
    """U_GW^(2j) == diag((U_BW^j)^T, U_BW^j) with the arcs into c1 first,
    each power taken afresh by mat_pow.  U_GW is the definitional one, or
    gw's U moved into that arc order by a permutation matrix."""
    b = bipartition(g)
    into_c1 = [((u, v) if v in b.c1 else (v, u)) for u, v in g.edges]
    arcs = into_c1 + [(t, o) for o, t in into_c1]
    if gw is None:
        _, _, u_gw = _definitional_grover(arcs)
    else:
        s = RationalMatrix([[int(a == c) for c in gw.arcs] for a in arcs])
        u_gw = mat_mul(mat_mul(s, gw.U), s.transpose())
    ubk = fractions_of(mat_pow(_definitional_bipartite(g)[2], j))
    m = g.num_edges
    zero = [F(0)] * m
    block = [list(col) + zero for col in zip(*ubk)] + [zero + list(row) for row in ubk]
    return mat_pow(u_gw, 2 * j) == RationalMatrix(block)


def _corrupt_built_matrix(monkeypatch, pick, change) -> list[RationalMatrix]:
    """Make the one constructor every builder's matrix passes through,
    RationalMatrix._lowest_terms (P, Q, U; R, K, U_GW, in that order),
    build change(dense numerator rows, den) in place of the first matrix
    for which pick(call index, dense numerator rows) holds.  Returns the
    list of the matrices it builds."""
    lowest_terms = RationalMatrix._lowest_terms.__func__
    calls, built = [], []

    def corrupting(cls, rows, cols, den):
        dense = [[0] * cols for _ in rows]
        for out, row in zip(dense, rows):
            for c, x in row:
                out[c] = x
        hit = not any(calls) and pick(len(calls), dense)
        calls.append(hit)
        if hit:
            rows = [[(c, x) for c, x in enumerate(row) if x] for row in change(dense, den)]
        built.append(lowest_terms(cls, rows, cols, den))
        return built[-1]

    monkeypatch.setattr(RationalMatrix, "_lowest_terms", classmethod(corrupting))
    return built


def _add(i: int, j: int, by: "int | None" = None):
    """A change for _corrupt_built_matrix: add by, or 1 (den) when by is
    None, to entry (i, j)."""

    def change(num, den):
        num = [list(row) for row in num]
        num[i][j] += den if by is None else by
        return num

    return change


def _transposed(num, den):
    return [list(col) for col in zip(*num)]


def _assert_orthogonal(u: RationalMatrix, name: str) -> None:
    """The Gram oracle: U^T U = I, so U U^T = I for the square U:
    num^T num = den^2 I, the sum over the rows of the outer products of
    their nonzeros."""
    gram = [[0] * u.cols for _ in range(u.cols)]
    for row in u.nonzeros():
        for j, x in row:
            acc = gram[j]
            for k, y in row:
                acc[k] += x * y
    c = u.den**2
    if not all(row[i] == c and row.count(0) == len(row) - 1 for i, row in enumerate(gram)):
        raise ConstructionError(f"{name} is not orthogonal")


def _assert_symmetric_idempotent(p: RationalMatrix, name: str) -> None:
    """The projection oracle: P = P^T, then P^2 = P, num num = den num
    compared on the nonzeros of the product's rows and of P's."""
    if p.num != tuple(zip(*p.num)):
        raise ConstructionError(f"{name} is not symmetric")
    nz = p.nonzeros()
    square = qwalk.exact._int_product(nz, nz, p.cols)
    if square != [tuple([(j, p.den * x) for j, x in r]) for r in nz]:
        raise ConstructionError(f"{name} is not idempotent")


def _tally_projection_work(monkeypatch) -> list[int]:
    """Make _averages_over read P's nonzeros as rows that add their length
    to a tally each time one is compared.  Returns the tallies, one per
    projection checked, in order."""
    check, tallies = qwalk.walks._averages_over, []

    class Tallied(tuple):
        def __eq__(self, other):
            tallies[-1] += len(self)
            return tuple.__eq__(self, other)

        def __ne__(self, other):
            return not self == other

        __hash__ = tuple.__hash__

    def tallied(p, cells):
        tallies.append(0)
        q = RationalMatrix.from_nonzeros(p.nonzeros(), p.cols, p.den)
        q._nonzeros = tuple(map(Tallied, q.nonzeros()))
        return check(q, cells)

    monkeypatch.setattr(qwalk.walks, "_averages_over", tallied)
    return tallies


def _entries_to_strings(m: RationalMatrix) -> list[list[str]]:
    """The writer's oracle: str(Fraction(x, den)) for each numerator x of
    the dense rows, with one gcd per distinct numerator."""
    den = m.den
    text = {
        x: str(x // g) if (g := math.gcd(x, den)) == den else f"{x // g}/{den // g}"
        for x in set(itertools.chain.from_iterable(m.num))
    }
    return [list(map(text.__getitem__, row)) for row in m.num]


def _shifted(rows, i: int, j: int, shift: int) -> list[list[tuple[int, int]]]:
    """The nonzeros of the rows with entry (i, j) shifted by shift."""
    dense = dict(rows[i])
    dense[j] = dense.get(j, 0) + shift
    out = [list(row) for row in rows]
    out[i] = sorted((c, x) for c, x in dense.items() if x)
    return out


def _call(index: int):
    return lambda n, num: n == index


def _has_negative(n: int, num) -> bool:
    return any(x < 0 for row in num for x in row)


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
        w, b = build_bipartite_walk(g), bipartition(g)
        assert w.P.trace() == len(b.c1)
        assert w.Q.trace() == len(b.c0)

    def test_rejects_non_bipartite(self):
        with pytest.raises(GraphError):
            build_bipartite_walk(cycle(5))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            build_bipartite_walk(Graph.from_edges(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("build", [build_bipartite_walk, build_grover_walk])
    def test_rejects_a_graph_with_no_edges(self, build):
        with pytest.raises(GraphError, match="^graph has no edges$"):
            build(Graph.from_edges(1, []))
        # the connectivity error comes first
        with pytest.raises(GraphError, match="^graph is disconnected$"):
            build(Graph.from_edges(2, []))

    def test_json_round_trip_is_bit_exact(self):
        w = build_bipartite_walk(figure1_graph())
        assert walk_from_json(walk_to_json(w)) == w


class TestGroverWalk:
    def test_k11_is_swap(self):
        w = build_grover_walk(complete_bipartite(1, 1))
        assert w.U == RationalMatrix([[0, 1], [1, 0]])

    def test_arc_order_pairs_reversals(self):
        g = figure4a_graph()
        w = build_grover_walk(g)
        m = g.num_edges
        for j in range(m):
            t, h = w.arcs[j]
            assert w.arcs[m + j] == (h, t)

    def test_unitarity(self):
        w = build_grover_walk(petersen_graph())
        assert mat_mul(w.U, w.U.transpose()).is_identity()

    def test_json_round_trip(self):
        w = build_grover_walk(figure4a_graph())
        assert grover_from_json(grover_to_json(w)) == w


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
        ok, sigma = grover_equals_bipartite_on_subdivision(build_grover_walk(g))
        assert ok
        assert sorted(sigma) == list(range(2 * g.num_edges))

    def test_subdivision_equality_on_seeded_random_graphs(self):
        rng = random.Random(42)
        for _ in range(10):
            g = random_connected_graph(rng)
            ok, _ = grover_equals_bipartite_on_subdivision(build_grover_walk(g))
            assert ok, g

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_identity(self, k):
        for g in (cycle(6), complete_bipartite(2, 2), figure1_graph()):
            assert block_identity_check(build_grover_walk(g), k)

    def test_block_identity_on_seeded_random_bipartite(self):
        rng = random.Random(42)
        found = 0
        while found < 5:
            g = random_connected_graph(rng)
            if not is_bipartite(g):
                continue
            found += 1
            assert block_identity_check(build_grover_walk(g), 2)

    def test_block_identity_checks_rejects_k_below_one(self):
        for check in (block_identity_checks, block_identity_check):
            with pytest.raises(ValueError, match="k must be positive"):
                check(build_grover_walk(cycle(4)), 0)

    def test_verify_builds_once_and_takes_one_product_when_the_identity_holds(
        self, monkeypatch, tmp_path
    ):
        # each walk of g is built once, U_GW(g) for both checks; U_GW^2 is
        # one product, and as it splits into U_BW's blocks, k = 2..4 pass
        # without another
        g = complete_bipartite(4, 4)
        builds, products = [], []

        def counting(build):
            def counting_build(h):
                builds.append((build.__name__, h))
                return build(h)

            return counting_build

        def counting_mul(a, b):
            products.append((a.rows, b.cols))
            return mat_mul(a, b)

        for name in ("build_bipartite_walk", "build_grover_walk"):
            counted = counting(getattr(qwalk.walks, name))
            for module in ("qwalk.walks", "qwalk.cli"):
                monkeypatch.setattr(f"{module}.{name}", counted)
        for module in ("qwalk.walks", "qwalk.exact"):
            monkeypatch.setattr(f"{module}.mat_mul", counting_mul)
        path = tmp_path / "k44.txt"
        path.write_text(format_graph(g))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", str(path)]) == 0
        expected = [
            ("build_bipartite_walk", g),
            ("build_bipartite_walk", subdivision(g)),
            ("build_grover_walk", g),
        ]
        assert len(builds) == len(expected) and all(b in builds for b in expected)
        assert len(products) == 1

    def test_a_failure_at_k1_steps_both_powers(self, monkeypatch):
        # with U = R, U_GW^(2k) = I, which splits exactly when U_BW^k = I;
        # C4's bipartite walk has order 2
        g = cycle(4)
        gw = build_grover_walk(g)
        swap = gw._replace(U=gw.R)
        products = []

        def counting_mul(a, b):
            products.append((a.rows, b.cols))
            return mat_mul(a, b)

        monkeypatch.setattr("qwalk.walks.mat_mul", counting_mul)
        checks = block_identity_checks(swap, 4)
        assert checks == [False, True, False, True]
        # U_GW^2, then one product each for U_GW^(2k) and U_BW^k, k = 2..4
        assert len(products) == 7
        assert checks == [_definitional_block_identity(g, j, swap) for j in range(1, 5)]

    def test_even_power_consistency(self):
        """U_GW^2 restricted blocks commute with direct bipartite powers."""
        g = cycle(6)
        u_bw = build_bipartite_walk(g).U
        assert mat_pow(u_bw, 3).is_identity()
        u_gw = build_grover_walk(g).U
        assert mat_pow(u_gw, 6).is_identity()
        assert not mat_pow(u_gw, 3).is_identity()


class TestConstructionChecks:
    """Every construction check fires, with its message, on a corrupted
    input: overlapping cells, or one entry of a matrix shifted as its
    constructor builds it (P, Q, R and K are the first matrices their walk
    builds; a walk operator is the first with a negative entry)."""

    def test_overlapping_cells(self):
        """Edge 1 in two cells takes the second cell's row of P, which the
        first cell's column 1 does not mirror."""
        with pytest.raises(ConstructionError) as exc:
            _projection(3, [(0, 1), (1, 2)], "P")
        assert str(exc.value) == "P is not symmetric"

    def test_a_cell_out_of_order(self):
        """Cells are placed as they come, so one that does not ascend is
        refused, not sorted."""
        with pytest.raises(ValueError, match="^not the nonzeros of a row of 3 columns"):
            _projection(3, [(1, 0), (2,)], "P")

    @pytest.mark.parametrize(
        "name,pick,entry,message",
        [
            ("P", _call(0), (0, 1), "P is not symmetric"),
            ("Q", _call(1), (0, 1), "Q is not symmetric"),
            ("P", _call(0), (0, 0), "P is not idempotent"),
            ("Q", _call(1), (0, 0), "Q is not idempotent"),
            ("U", _has_negative, (0, 1), "U is not orthogonal"),
        ],
        ids=["P-symmetric", "Q-symmetric", "P-idempotent", "Q-idempotent", "U-orthogonal"],
    )
    def test_bipartite_checks(self, monkeypatch, name, pick, entry, message):
        g = complete_bipartite(3, 3)
        _corrupt_built_matrix(monkeypatch, pick, _add(*entry))
        with pytest.raises(ConstructionError) as exc:
            build_bipartite_walk(g)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "pick,entry,message",
        [
            (_call(0), (0, 1), "R is not an involution"),
            (_call(1), (0, 1), "K is not symmetric"),
            (_call(1), (0, 0), "K is not idempotent"),
            (_has_negative, (0, 1), "U_GW is not orthogonal"),
        ],
        ids=["R-involution", "K-symmetric", "K-idempotent", "U_GW-orthogonal"],
    )
    def test_grover_checks(self, monkeypatch, pick, entry, message):
        _corrupt_built_matrix(monkeypatch, pick, _add(*entry))
        with pytest.raises(ConstructionError) as exc:
            build_grover_walk(petersen_graph())
        assert str(exc.value) == message

    def test_an_orthogonal_u_that_is_not_the_product(self, monkeypatch):
        """U^T = (2Q - I)(2P - I) in place of U is orthogonal, so the Gram
        check passes it, but (2P - I) U = 2Q - I does not."""
        g = figure1_graph()
        u = build_bipartite_walk(g).U
        assert u != u.transpose()
        built = _corrupt_built_matrix(monkeypatch, _call(2), _transposed)  # P, Q, U
        with pytest.raises(ConstructionError) as exc:
            build_bipartite_walk(g)
        assert str(exc.value) == "U is not orthogonal"
        assert len(built) == 3 and built[-1] == u.transpose()
        _assert_orthogonal(built[-1], "U")

    @pytest.mark.parametrize(
        "g", [petersen_graph(), figure4a_graph(), complete_bipartite(2, 3)],
        ids=["petersen", "figure4a", "k23"],
    )
    def test_the_transpose_of_u_gw_is_refused(self, monkeypatch, g):
        """U_GW^T = (2K - I)R in place of U_GW is orthogonal, so the Gram
        oracle passes it, but R U_GW^T = R(2K - I)R is not 2K - I."""
        u = build_grover_walk(g).U
        assert u != u.transpose()
        built = _corrupt_built_matrix(monkeypatch, _has_negative, _transposed)
        with pytest.raises(ConstructionError) as exc:
            build_grover_walk(g)
        assert str(exc.value) == "U_GW is not orthogonal"
        assert built[-1] == u.transpose()
        _assert_orthogonal(built[-1], "U_GW")

    @pytest.mark.parametrize("family", sorted(BIPARTITE_FAMILIES))
    def test_single_entry_corruptions_of_u(self, monkeypatch, family):
        """Each seeded change of one entry of U fails the build, as it fails
        the Gram check U^T U = I."""
        for seed in range(10):
            rng = random.Random(seed)
            g = BIPARTITE_FAMILIES[family](rng)
            m = g.num_edges
            i, j, shift = rng.randrange(m), rng.randrange(m), rng.choice([-2, -1, 1, 2])
            built = _corrupt_built_matrix(monkeypatch, _call(2), _add(i, j, shift))  # P, Q, U
            with pytest.raises(ConstructionError) as exc:
                build_bipartite_walk(g)
            assert str(exc.value) == "U is not orthogonal"
            monkeypatch.undo()
            assert len(built) == 3
            with pytest.raises(ConstructionError):
                _assert_orthogonal(built[-1], "U")

    @pytest.mark.parametrize("seed", range(10))
    def test_a_fault_in_the_reflection_rows_is_refused(self, monkeypatch, seed):
        """U_GW is assembled from _cell_rows' rows of 2K - I but checked
        against 2K - I from the built K's nonzeros, so one shifted entry of
        those rows is refused, though K itself is built right."""
        rng = random.Random(seed)
        g = petersen_graph() if seed % 2 else random_connected_graph(rng, max_n=10)
        n_arcs = 2 * g.num_edges
        i, j, shift = rng.randrange(n_arcs), rng.randrange(n_arcs), rng.choice([-2, -1, 1, 2])
        cell_rows = qwalk.walks._cell_rows

        def faulty(m, cells):
            p, r, den = cell_rows(m, cells)
            return p, _shifted(r, i, j, shift), den

        monkeypatch.setattr(qwalk.walks, "_cell_rows", faulty)
        with pytest.raises(ConstructionError) as exc:
            build_grover_walk(g)
        assert str(exc.value) == "U_GW is not orthogonal"

    @pytest.mark.parametrize("which", [0, 1], ids=["P", "Q"])
    @pytest.mark.parametrize(
        "graph",
        [lambda: complete_bipartite(3, 4), heawood_graph, lambda: cycle(8),
         lambda: complete_bipartite(2, 5)],
        ids=["k34", "heawood", "c8", "k25"],
    )
    def test_a_fault_in_the_bipartite_reflection_rows_is_refused(self, monkeypatch, graph, which):
        """U is assembled from _cell_rows' rows of 2P - I and 2Q - I, P's
        first, but checked against 2Q from the built Q's nonzeros, so
        one shifted entry of either's rows is refused, on 20 seeds, though
        P and Q themselves are built right."""
        g = graph()
        m = g.num_edges
        cell_rows = qwalk.walks._cell_rows
        for seed in range(20):
            rng = random.Random(seed)
            i, j, shift = rng.randrange(m), rng.randrange(m), rng.choice([-2, -1, 1, 2])
            calls = []

            def faulty(m, cells):
                p, r, den = cell_rows(m, cells)
                calls.append(cells)
                return p, (_shifted(r, i, j, shift) if len(calls) == which + 1 else r), den

            monkeypatch.setattr(qwalk.walks, "_cell_rows", faulty)
            with pytest.raises(ConstructionError) as exc:
                build_bipartite_walk(g)
            assert str(exc.value) == "U is not orthogonal", seed

    @pytest.mark.parametrize("family", ["petersen", "random"])
    @pytest.mark.parametrize(
        "name,call,message",
        [("R", 0, "R is not an involution"), ("U_GW", 2, "U_GW is not orthogonal")],  # R, K, U_GW
        ids=["R", "U_GW"],
    )
    def test_single_entry_corruptions_of_r_and_u_gw(
        self, monkeypatch, family, name, call, message
    ):
        """Each seeded change of one entry of R or of U_GW, as its
        constructor builds it, fails the build, as it fails the Gram oracle.
        No shift is -2, which would turn one of R's 1s into a -1: a signed
        permutation, which the oracle passes."""
        for seed in range(10):
            rng = random.Random(seed)
            g = petersen_graph() if family == "petersen" else random_connected_graph(rng, max_n=10)
            n_arcs = 2 * g.num_edges
            i, j, shift = rng.randrange(n_arcs), rng.randrange(n_arcs), rng.choice([-1, 1, 2])
            built = _corrupt_built_matrix(monkeypatch, _call(call), _add(i, j, shift))
            with pytest.raises(ConstructionError) as exc:
                build_grover_walk(g)
            assert str(exc.value) == message
            monkeypatch.undo()
            with pytest.raises(ConstructionError):
                _assert_orthogonal(built[-1], name)

    def test_grover_build_takes_no_product(self, monkeypatch):
        """On K_{10,10} build_grover_walk takes no integer product: each of
        K's 20 cells of 10 arcs has its 10 rows compared with the cell's
        block, 20 * 10**2 pairs, and R and U_GW are checked on their
        nonzeros."""
        products, work = [], _tally_projection_work(monkeypatch)
        for module in (qwalk.walks, qwalk.exact):
            monkeypatch.setattr(module, "_int_product", lambda *args: products.append(args))
        build_grover_walk(complete_bipartite(10, 10))
        assert products == [] and work == [20 * 10**2]

    def test_build_cost_follows_the_nonzeros(self, monkeypatch):
        """On K_{10,10} the build's one integer product is (2P - I)(2Q - I),
        nnz(U) times the largest cell at most.  P and Q take none: each
        cell's rows are compared with its block, sum |cell|^2 pairs.  U's
        check reflects U's nonzeros, two additions each.  The Gram check
        alone took sum nnz(row)^2, thirty times the whole."""
        g = complete_bipartite(10, 10)
        product, reflect = qwalk.exact._int_product, qwalk.walks._reflect
        counts = {"product": 0, "reflect": 0}

        def counting_product(a, b, cols):
            counts["product"] += sum(len(b[k]) for row in a for k, _ in row)
            return product(a, b, cols)

        def counting_reflect(rows, cells, den, n):
            counts["reflect"] += 2 * sum(map(len, rows))
            return reflect(rows, cells, den, n)

        monkeypatch.setattr(qwalk.walks, "_int_product", counting_product)
        monkeypatch.setattr(qwalk.walks, "_reflect", counting_reflect)
        work = _tally_projection_work(monkeypatch)
        u = build_bipartite_walk(g).U
        pi0, pi1 = build_partitions(g)
        largest, nnz = max(map(len, pi0 + pi1)), sum(map(len, u.nonzeros()))
        squares = [sum(len(c) ** 2 for c in pi) for pi in (pi1, pi0)]  # P, then Q
        assert work == squares
        assert counts == {"product": g.num_edges * largest**2, "reflect": 2 * nnz}
        total = sum(counts.values()) + sum(work)
        assert total <= nnz * largest + sum(squares)
        assert 30 * total <= sum(len(row) ** 2 for row in u.nonzeros())

    def test_repeated_edge_reverses_into_the_wrong_arc(self):
        # bypasses Graph.from_edges, which rejects the duplicate: both
        # copies of (0, 1) reverse into the same arc (1, 0)
        g = Graph(2, ((0, 1), (0, 1)))
        with pytest.raises(ConstructionError) as exc:
            build_grover_walk(g)
        assert str(exc.value) == "R is not an involution"

    @pytest.mark.parametrize(
        "g", [cycle(6), complete_bipartite(3, 3), petersen_graph()], ids=["c6", "k33", "petersen"]
    )
    def test_assembled_nonzeros_are_never_searched_for(self, monkeypatch, g):
        # P, Q, R, K and U_GW are assembled from their nonzeros, and U =
        # (2P - I)(2Q - I) from the pairs the integer product yields, and
        # each matrix keeps its pairs: no build, and no later nonzeros(),
        # scans dense rows with exact._nonzeros
        scanned = []
        find = qwalk.exact._nonzeros
        monkeypatch.setattr(qwalk.exact, "_nonzeros", lambda rows: scanned.append(rows) or find(rows))
        gw = build_grover_walk(g)
        assembled = [gw.R, gw.K, gw.U]
        if is_bipartite(g):
            w = build_bipartite_walk(g)
            assembled += [w.P, w.Q, w.U]
        assert scanned == []
        for m in assembled:
            assert m.nonzeros() == find(m.num)

    def test_uncorrupted_builds_pass(self, monkeypatch):
        _corrupt_built_matrix(monkeypatch, lambda n, num: False, _add(0, 0))
        build_bipartite_walk(complete_bipartite(3, 3))
        build_grover_walk(petersen_graph())


def _from_rows(num, den: int) -> RationalMatrix:
    """The matrix of the dense integer rows num over den, with columns."""
    return RationalMatrix.from_nonzeros(_nonzeros(num), len(num[0]), den)


def _refusals(monkeypatch, p: RationalMatrix, cells, name: str) -> tuple:
    """(the oracle's message, _projection's message) with p as the matrix
    built for the cells; None where the check passes."""

    def message(check) -> "str | None":
        try:
            check()
        except ConstructionError as exc:
            return str(exc)
        return None

    with monkeypatch.context() as mp:
        mp.setattr(RationalMatrix, "from_nonzeros", classmethod(lambda cls, *args: p))
        built = message(lambda: _projection(p.rows, cells, name))
    return message(lambda: _assert_symmetric_idempotent(p, name)), built


def _assert_refused_as_the_oracle_refuses(monkeypatch, p, cells, name) -> None:
    """_projection refuses p with the oracle's message, symmetry first; a
    symmetric idempotent that the oracle passes is refused by its cells."""
    oracle, built = _refusals(monkeypatch, p, cells, name)
    assert built == (oracle or f"{name} is not the projection onto its cells")


def _grover_cells(w: ArcWalkOperator) -> list[list[int]]:
    """K's cells from the arc list: the arcs into each head, ascending."""
    return [[a for a, (_, h) in enumerate(w.arcs) if h == v] for v in range(w.graph.n)]


class TestProjectionCheck:
    """_projection checks P per cell (_averages_over) and is at least as
    strict as the oracle, P = P^T and P^2 = P, with the same messages."""

    @pytest.mark.parametrize("name", ["P", "Q", "K"])
    def test_single_entry_corruptions(self, monkeypatch, name):
        for seed in range(40):
            rng = random.Random(seed)
            if name == "K":
                w = build_grover_walk(GRAPH_FAMILIES[sorted(GRAPH_FAMILIES)[seed % 6]](rng))
                p, cells = w.K, _grover_cells(w)
            else:
                g = BIPARTITE_FAMILIES[sorted(BIPARTITE_FAMILIES)[seed % 4]](rng)
                w, (pi0, pi1) = build_bipartite_walk(g), build_partitions(g)
                p, cells = (w.P, pi1) if name == "P" else (w.Q, pi0)
            assert _refusals(monkeypatch, p, cells, name) == (None, None)
            i, j = rng.randrange(p.rows), rng.randrange(p.rows)
            # den and -den move an entry by one; -den on a cell of one edge
            # leaves a symmetric idempotent, which the oracle passes
            shift = rng.choice([-2, -1, 1, 2, p.den, -p.den])
            num = [list(row) for row in p.num]
            num[i][j] += shift
            bad = _from_rows(num, p.den)
            _assert_refused_as_the_oracle_refuses(monkeypatch, bad, cells, name)

    def test_a_cell_of_one_edge_emptied(self, monkeypatch):
        """P with a singleton cell's 1 removed is a symmetric idempotent,
        which the oracle passes and the cell check refuses."""
        cells = [(0, 1), (2,)]
        p = _from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]], 2)
        refusals = _refusals(monkeypatch, p, cells, "P")
        assert refusals == (None, "P is not the projection onto its cells")

    @pytest.mark.parametrize(
        "cells,rows,message",
        [
            # overlapping cells: edge 1 takes the second cell's row
            ([(0, 1), (1, 2)], None, "P is not symmetric"),
            # an edge in two cells, the same cell twice: the second row
            # written is the first, and P is the projection onto one cell
            ([(0, 1), (0, 1)], None, "P is not the projection onto its cells"),
            # a non-empty row outside every cell, on the diagonal and off it
            ([(0, 1)], [[1, 1, 0], [1, 1, 0], [0, 0, 2]], "P is not the projection onto its cells"),
            ([(0, 1)], [[1, 1, 0], [1, 1, 0], [0, 1, 0]], "P is not symmetric"),
            ([(0, 1)], [[1, 1, 1], [1, 1, 0], [1, 0, 0]], "P is not idempotent"),
            # a cell twice, its rows right, as many nonzero rows as the two
            # copies hold: a symmetric idempotent, refused as the cells overlap
            ([(0, 1), (0, 1)], [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
             "P is not the projection onto its cells"),
            # equal entries that are not 1/|cell|: 2/5 = (2/2)/5
            ([(0, 1)], [[2, 2], [2, 2]], "P is not idempotent"),
        ],
        ids=[
            "overlap", "edge-in-two-cells", "row-outside", "row-outside-off-diagonal",
            "row-outside-symmetric", "cell-twice-and-rows-outside", "not-one-over-the-size",
        ],
    )
    def test_cells_that_do_not_partition(self, monkeypatch, cells, rows, message):
        if rows is None:  # P as _projection builds it from the cells
            with pytest.raises(ConstructionError) as exc:
                _projection(3, cells, "P")
            assert str(exc.value) == message
            nonzeros, _, den = qwalk.walks._cell_rows(3, cells)
            p = RationalMatrix.from_nonzeros(nonzeros, 3, den)
        else:
            p = _from_rows(rows, 2 if len(rows) > 2 else 5)
        assert _refusals(monkeypatch, p, cells, "P")[1] == message
        _assert_refused_as_the_oracle_refuses(monkeypatch, p, cells, "P")

    @pytest.mark.parametrize(
        "g", [cycle(6), complete_bipartite(3, 4), petersen_graph(), heawood_graph()],
        ids=["c6", "k34", "petersen", "heawood"],
    )
    def test_built_projections_pass_both(self, monkeypatch, g):
        w = build_grover_walk(g)
        checked = [(w.K, _grover_cells(w), "K")]
        if is_bipartite(g):
            b, (pi0, pi1) = build_bipartite_walk(g), build_partitions(g)
            checked += [(b.P, pi1, "P"), (b.Q, pi0, "Q")]
        for p, cells, name in checked:
            assert _averages_over(p, cells)
            assert _refusals(monkeypatch, p, cells, name) == (None, None)


def _assert_as_defined(built, defined) -> None:
    """Each built matrix has the definitional one's numerators and
    denominator, and nonzeros() are those of its numerator rows."""
    for m, d in zip(built, defined, strict=True):
        assert (m.num, m.den) == (d.num, d.den)
        assert m.nonzeros() == _nonzeros(m.num)


class TestAgainstDefinitions:
    """The nonzero assembly against the operators built from their
    definitions with scale, add and mat_mul."""

    @given(st.sampled_from(sorted(BIPARTITE_FAMILIES)), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bipartite_walk(self, family, seed):
        g = BIPARTITE_FAMILIES[family](random.Random(seed))
        w = build_bipartite_walk(g)
        _assert_as_defined((w.P, w.Q, w.U), _definitional_bipartite(g))

    @given(st.sampled_from(sorted(GRAPH_FAMILIES)), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grover_walk(self, family, seed):
        w = build_grover_walk(GRAPH_FAMILIES[family](random.Random(seed)))
        _assert_as_defined((w.R, w.K, w.U), _definitional_grover(list(w.arcs)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_block_identity_chain(self, seed, k):
        g = random_connected_bipartite(random.Random(seed), max_n=10)
        gw = build_grover_walk(g)
        checks = block_identity_checks(gw, k)
        assert len(checks) == k
        assert checks == [_definitional_block_identity(g, j) for j in range(1, k + 1)]
        assert checks[-1] == block_identity_check(gw, k)


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

    def test_verify_json_is_frozen(self):
        """The `qwalk verify` documents and exit codes of every fixture."""
        digest = hashlib.sha256()
        for name in sorted(FIXTURES):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", name])
            digest.update(f"{code}\n{out.getvalue()}".encode())
        assert digest.hexdigest() == "d8a7fea0071d20b5a5f4909fabe2c9df94955feac1d37a24a149ea186e3387e2"


def _dense_reads(monkeypatch) -> list[RationalMatrix]:
    """Record each matrix whose dense rows, RationalMatrix.num, are read."""
    reads, num = [], RationalMatrix.num
    monkeypatch.setattr(RationalMatrix, "num", property(lambda m: reads.append(m) or num.fget(m)))
    return reads


def _random_matrix(rng: random.Random) -> RationalMatrix:
    """A seeded matrix of 0-5 rows and 0-5 columns, square or not, with
    zero rows, negative numerators and denominators 1-12; built from its
    entries or from its nonzeros."""
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    entries = [0, 0, 1, -1, 2, -3, 4, 6, -12]
    num = [
        [rng.choice(entries) for _ in range(cols)] if rng.random() < 0.7 else [0] * cols
        for _ in range(rows)
    ]
    den = rng.choice([1, 1, 2, 3, 4, 6, 12])
    if rng.random() < 0.5:
        return RationalMatrix([[Fraction(x, den) for x in row] for row in num])
    return RationalMatrix.from_nonzeros(_nonzeros(num), cols, den)


class TestRepresentation:
    """Walk operators are built, checked and written from their nonzeros;
    their dense rows are formed only when read."""

    def test_writer_matches_json_dumps_of_the_dense_oracle(self):
        shapes = set()
        for seed in range(300):
            rng = random.Random(seed)
            a, b = _random_matrix(rng), _random_matrix(rng)
            shapes.add((a.rows, a.cols))
            w = SimpleNamespace(dim=3, graph=SimpleNamespace(n=2, edges=((0, 1),)), A=a, B=b)
            doc = {"kind": "k", "dim": 3, "n": 2, "edges": [[0, 1]], "f": [1, "x"]}
            doc.update(A=_entries_to_strings(a), B=_entries_to_strings(b))
            assert qwalk.walks._to_json("k", w, {"f": [1, "x"]}, ("A", "B")) == json.dumps(doc)
            assert list(entry_rows(a)) == _entries_to_strings(a)
        assert {(1, 1), (0, 0), (2, 0), (2, 3), (4, 4)} <= shapes

    @pytest.mark.parametrize(
        "g", [cycle(6), complete_bipartite(3, 4), heawood_graph()], ids=["c6", "k34", "heawood"]
    )
    def test_built_and_written_walks_form_no_dense_rows(self, monkeypatch, g):
        reads = _dense_reads(monkeypatch)
        w, gw = build_bipartite_walk(g), build_grover_walk(g)
        walk_to_json(w), grover_to_json(gw)
        assert reads == []
        assert [m.num for m in (w.P, w.Q)] == [m.num for m in _definitional_bipartite(g)[:2]]
        assert reads[0] is w.P and reads[1] is w.Q

    def test_either_constructor_compares_and_hashes_equal(self, monkeypatch):
        reads = _dense_reads(monkeypatch)
        for seed in range(100):
            rng = random.Random(seed)
            m = _random_matrix(rng)
            if not m.rows:  # entries do not tell 0 x c from 0 x 0
                continue
            num = m.num
            dense = RationalMatrix([[Fraction(x, m.den) for x in row] for row in num])
            sparse = RationalMatrix.from_nonzeros(_nonzeros(num), m.cols, m.den)
            reads.clear()
            assert sparse == dense and dense == sparse and hash(sparse) == hash(dense)
            other = RationalMatrix.from_nonzeros(_nonzeros(num), m.cols, m.den)
            assert other == sparse and hash(other) == hash(sparse)
            assert reads == []
            if m.cols:
                bumped = [list(row) for row in num]
                bumped[0][0] += 1
                assert RationalMatrix.from_nonzeros(_nonzeros(bumped), m.cols, m.den) != dense

    @pytest.mark.parametrize(
        "a,b",
        [
            (RationalMatrix.zeros(2, 3), RationalMatrix.zeros(3, 2)),
            (RationalMatrix.zeros(2, 3), RationalMatrix.zeros(3, 3)),
            (RationalMatrix.zeros(2, 2), RationalMatrix.identity(2)),
            (RationalMatrix.identity(2), RationalMatrix.identity(2).scale(Fraction(1, 2))),
        ],
    )
    def test_shape_and_entries_tell_apart(self, a, b):
        entries = RationalMatrix([[Fraction(x, b.den) for x in row] for row in b.num])
        assert a != b and b != a and entries != a


def _bump_u(doc: dict) -> None:
    doc["U"][0][0] = str(Fraction(doc["U"][0][0]) + 1)


def _swap_classes(doc: dict) -> None:
    doc["c0"], doc["c1"] = doc["c1"], doc["c0"]


def _wrong_classes(doc: dict) -> None:
    doc["c0"], doc["c1"] = [0], [1]


def _wrong_profile(doc: dict) -> None:
    doc["degree_profile"] = [7, 9]


def _bogus_arc(doc: dict) -> None:
    doc["arcs"][0] = [9, 9]


def _reverse_edges(doc: dict) -> None:
    doc["edges"].reverse()


def _boolean_ends(doc: dict) -> None:
    """Vertices 0 and 1 as JSON false and true, which equal them in Python."""
    for name in ("edges", "arcs"):
        if name in doc:
            doc[name] = [[bool(x) if x < 2 else x for x in e] for e in doc[name]]


# (loader, the walk document of C4 it reads, the tamperings that apply to it)
LOADERS = {
    "bipartite": (
        walk_from_json,
        walk_to_json(build_bipartite_walk(cycle(4))),
        (_bump_u, _swap_classes, _wrong_classes, _wrong_profile, _reverse_edges, _boolean_ends),
    ),
    "grover": (
        grover_from_json,
        grover_to_json(build_grover_walk(cycle(4))),
        (_bump_u, _bogus_arc, _reverse_edges, _boolean_ends),
    ),
}


class TestLoaders:
    """A loader rebuilds the walk from the document's graph and accepts the
    document only when the rebuilt walk serialises back to it."""

    @pytest.mark.parametrize(
        "kind,tamper",
        [(kind, t) for kind, (_, _, ts) in LOADERS.items() for t in ts],
        ids=lambda x: x if isinstance(x, str) else x.__name__.lstrip("_"),
    )
    def test_a_tampered_document_is_rejected(self, kind, tamper):
        load, text, _ = LOADERS[kind]
        doc = json.loads(text)
        tamper(doc)
        with pytest.raises(ValueError):
            load(json.dumps(doc))

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_a_document_of_the_other_kind_is_rejected(self, kind):
        (other,) = set(LOADERS) - {kind}
        with pytest.raises(ValueError):
            LOADERS[kind][0](LOADERS[other][1])

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_a_malformed_document_is_rejected(self, kind):
        load, text, _ = LOADERS[kind]
        for doc in ({**json.loads(text), "n": "4"}, {"kind": kind, "edges": [[0, 1]]}):
            with pytest.raises(ValueError):
                load(json.dumps(doc))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_walk_output_round_trips_byte_for_byte(self, name):
        loaders = {"b": (walk_from_json, walk_to_json), "g": (grover_from_json, grover_to_json)}
        written = 0
        for kind, (load, dump) in loaders.items():
            for transform in ("none", "s", "d"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(["walk", name, "--kind", kind, "--transform", transform])
                if code == 0:
                    text = out.getvalue().rstrip("\n")
                    assert dump(load(text)) == text, (kind, transform)
                    written += 1
        assert written >= 2
