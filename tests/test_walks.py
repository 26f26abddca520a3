import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

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
    _entries_to_strings,
    _projection,
    block_identity_check,
    block_identity_checks,
    build_bipartite_walk,
    build_grover_walk,
    build_partitions,
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
    ubk = mat_pow(_definitional_bipartite(g)[2], j).data
    m = g.num_edges
    zero = [F(0)] * m
    block = [list(col) + zero for col in zip(*ubk)] + [zero + list(row) for row in ubk]
    return mat_pow(u_gw, 2 * j) == RationalMatrix(block)


def _corrupt_built_matrix(monkeypatch, pick, change) -> list[RationalMatrix]:
    """Make the builders' constructors, RationalMatrix.from_nonzeros (P, Q,
    R, K, U_GW) and from_numerators (U), build change(dense numerator rows,
    den) in place of the first matrix for which pick(call index, dense
    numerator rows) holds.  Returns the list of the matrices they build."""
    from_numerators = RationalMatrix.from_numerators.__func__
    from_nonzeros = RationalMatrix.from_nonzeros.__func__
    calls, built = [], []

    def corrupt(num, den):
        hit = not any(calls) and pick(len(calls), num)
        calls.append(hit)
        return hit, change(num, den) if hit else num

    def numerators(cls, num, den):
        built.append(from_numerators(cls, corrupt(num, den)[1], den))
        return built[-1]

    def nonzeros(cls, rows, cols, den):
        dense = [[0] * cols for _ in rows]
        for out, row in zip(dense, rows):
            for c, x in row:
                out[c] = x
        hit, num = corrupt(dense, den)
        if hit:
            rows = [[(c, x) for c, x in enumerate(row) if x] for row in num]
        built.append(from_nonzeros(cls, rows, cols, den))
        return built[-1]

    monkeypatch.setattr(RationalMatrix, "from_numerators", classmethod(numerators))
    monkeypatch.setattr(RationalMatrix, "from_nonzeros", classmethod(nonzeros))
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
        from_numerators = RationalMatrix.from_numerators.__func__
        built = []

        def transposed(cls, num, den):
            built.append(from_numerators(cls, [list(col) for col in zip(*num)], den))
            return built[-1]

        g = figure1_graph()
        assert build_bipartite_walk(g).U != build_bipartite_walk(g).U.transpose()
        monkeypatch.setattr(RationalMatrix, "from_numerators", classmethod(transposed))
        with pytest.raises(ConstructionError) as exc:
            build_bipartite_walk(g)
        assert str(exc.value) == "U is not orthogonal"
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
        from_numerators = RationalMatrix.from_numerators.__func__
        for seed in range(10):
            rng = random.Random(seed)
            g = BIPARTITE_FAMILIES[family](rng)
            m = g.num_edges
            i, j, shift = rng.randrange(m), rng.randrange(m), rng.choice([-2, -1, 1, 2])
            built = []

            def corrupted(cls, num, den):
                num = [list(row) for row in num]
                num[i][j] += shift
                built.append(from_numerators(cls, num, den))
                return built[-1]

            monkeypatch.setattr(RationalMatrix, "from_numerators", classmethod(corrupted))
            with pytest.raises(ConstructionError) as exc:
                build_bipartite_walk(g)
            assert str(exc.value) == "U is not orthogonal"
            monkeypatch.undo()
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

    def test_grover_build_multiplies_only_for_ks_idempotence(self, monkeypatch):
        """On K_{10,10} the one integer product of build_grover_walk is K's
        idempotence check: the cube of each of K's 20 cells of 10 arcs.  R
        and U_GW are checked on their nonzeros."""
        product = qwalk.exact._int_product
        counts = []

        def counting_product(a, b, cols):
            counts.append(sum(len(b[k]) for row in a for k, _ in row))
            return product(a, b, cols)

        monkeypatch.setattr(qwalk.walks, "_int_product", counting_product)
        build_grover_walk(complete_bipartite(10, 10))
        assert counts == [20 * 10**3]

    def test_build_cost_follows_the_nonzeros(self, monkeypatch):
        """On K_{10,10} the build's multiply-adds stay under nnz(U) times
        the largest cell, with P's and Q's idempotence checks (the cube of
        each cell) and (2P - I)(2Q - I), integer products all three.  U's
        check reflects U's nonzeros, two additions each.  The Gram check
        alone took sum nnz(row)^2, twenty times the whole."""
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
        u = build_bipartite_walk(g).U
        cells = [c for pi in build_partitions(g) for c in pi]
        largest, nnz = max(map(len, cells)), sum(map(len, u.nonzeros()))
        projections = sum(len(c) ** 3 for c in cells)
        assert counts == {"product": projections + g.num_edges * largest**2, "reflect": 2 * nnz}
        total = sum(counts.values())
        assert total <= nnz * largest + projections + g.num_edges * largest**2
        assert 20 * total <= sum(len(row) ** 2 for row in u.nonzeros())

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
        # P, Q, R, K and U_GW are assembled from their nonzeros, which
        # from_nonzeros keeps: no build, and no later nonzeros(), scans their
        # dense rows with exact._nonzeros; only U = (2P - I)(2Q - I), an
        # integer product's dense rows, is scanned
        scanned = []
        find = qwalk.exact._nonzeros
        monkeypatch.setattr(qwalk.exact, "_nonzeros", lambda rows: scanned.append(rows) or find(rows))
        gw = build_grover_walk(g)
        assembled = [gw.R, gw.K, gw.U]
        if is_bipartite(g):
            w = build_bipartite_walk(g)
            assembled += [w.P, w.Q]
            assert [rows is w.U.num for rows in scanned] == [True]
        else:
            assert scanned == []
        for m in assembled:
            assert m.nonzeros() == find(m.num)
        assert len(scanned) == is_bipartite(g)

    def test_uncorrupted_builds_pass(self, monkeypatch):
        _corrupt_built_matrix(monkeypatch, lambda n, num: False, _add(0, 0))
        build_bipartite_walk(complete_bipartite(3, 3))
        build_grover_walk(petersen_graph())


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
