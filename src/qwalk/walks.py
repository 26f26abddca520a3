"""Construction of the two walk operators.

Bipartite walk: U = (2P - I)(2Q - I) on edge space, where P averages over
edges sharing a c1 endpoint and Q over edges sharing a c0 endpoint.  With
the breadth-first bipartition (vertex 0 in c0) this ordering of the two
reflections reproduces the worked 7x7 operator for the 8-vertex reference
graph entry for entry.

Grover (arc) walk: U_GW = R(2K - I) on arc space, with R the arc-reversal
permutation and K the head-averaging projection.  K = D*D is kept instead
of the coin matrix D itself so every entry stays rational.
Each walk, a product of two involutions, is checked by one identity on
its nonzeros: (2P - I)U = 2Q - I, and R U_GW = 2K - I.
"""

from __future__ import annotations

import json
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .exact import RationalMatrix, _int_product, _sparse_times_dense, mat_mul
from .graphs import Graph, GraphError, bipartition, degree_profile, subdivision


class ConstructionError(RuntimeError):
    """A structural invariant failed at operator construction time."""


Cells = tuple[tuple[int, ...], ...]


def build_partitions(g: Graph) -> tuple[Cells, Cells]:
    """The cells of c0 and of c1, the classes of bipartition(g): for each
    vertex of the class, in vertex order, its edge indices, ascending, from
    g.incidence().  A graph with no edges raises GraphError, after
    bipartition(g)'s own errors."""
    b = bipartition(g)
    if not g.num_edges:
        raise GraphError("graph has no edges")
    inc = g.incidence()
    return tuple(inc[v] for v in sorted(b.c0)), tuple(inc[v] for v in sorted(b.c1))


Row = tuple[tuple[int, int], ...]


def _cell_rows(m: int, cells: Sequence[Sequence[int]]) -> tuple[list[Row], list[Row], int]:
    """The nonzeros, as (column, numerator) pairs over one denominator, the
    lcm of the cell sizes, of the m rows of the projection P onto functions
    constant on the cells (a block of 1/|cell| per cell) and of its
    reflection 2P - I.  Each cell ascends, as from_nonzeros needs.  A cell
    of two edges leaves 2P - I a zero diagonal, which is dropped; an edge
    in no cell has P's row empty."""
    den = lcm(1, *map(len, cells))
    p: list[Row] = [()] * m
    r: list[Row] = [((e, -den),) for e in range(m)]
    for cell in cells:
        w = den // len(cell)
        row = tuple([(f, w) for f in cell])
        for e in cell:
            p[e] = row
            r[e] = tuple([(f, x) for f in cell if (x := 2 * w - (den if f == e else 0))])
    return p, r, den


def _rows_equal(dense: Iterable[Sequence[int]], dd: int, rows: Iterable[Row], dr: int) -> bool:
    """Whether the dense integer rows over dd equal the rows given by their
    nonzeros over dr: per row, first the count of zeros, then each nonzero,
    the denominators cross-multiplied."""
    return all(
        d.count(0) == len(d) - len(r) and all(dr * d[j] == dd * x for j, x in r)
        for d, r in zip(dense, rows)
    )


def _averages_over(p: RationalMatrix, cells: Sequence[Sequence[int]]) -> bool:
    """Whether p = sum_c 1_c 1_c^T / |c| over the cells, read from p's
    nonzeros: each row of a cell is that cell's block, the cells are
    disjoint, and p has no other nonzero row.  Such a p is a symmetric
    idempotent; the check costs sum |c|^2."""
    nz, covered = p.nonzeros(), 0
    for cell in cells:
        w, r = divmod(p.den, len(cell))
        block = tuple([(f, w) for f in cell])
        if r or any(nz[e] != block for e in cell):
            return False
        covered += len(cell)
    return covered == len(set(chain.from_iterable(cells))) == sum(map(bool, nz))


def _projection(
    m: int, cells: Sequence[Sequence[int]], name: str
) -> tuple[RationalMatrix, list[Row], int]:
    """The cell projection P, checked by _averages_over, with the nonzeros
    of the rows of 2P - I and their denominator.  A P that fails is named
    for the first it lacks: symmetry, idempotence, or its cells."""
    rows, refl, den = _cell_rows(m, cells)
    p = RationalMatrix.from_nonzeros(rows, m, den)
    if not _averages_over(p, cells):
        lacks = "symmetric" if p != p.transpose() else "idempotent" if mat_mul(p, p) != p else ""
        raise ConstructionError(f"{name} is not {lacks or 'the projection onto its cells'}")
    return p, refl, den


class WalkOperator(NamedTuple):
    """Bipartite walk operator with its exact ingredients; its classes are
    those of bipartition(graph)."""

    graph: Graph
    P: RationalMatrix
    Q: RationalMatrix
    U: RationalMatrix

    @property
    def dim(self) -> int:
        return self.U.rows


def build_bipartite_walk(g: Graph) -> WalkOperator:
    """Assemble U = (2P-I)(2Q-I) on the classes of bipartition(g); all
    invariants verified at construction.  P and Q are symmetric
    idempotents, so (2P - I)U = 2Q - I holds only for U = (2P - I)(2Q - I),
    which is orthogonal; it refuses U^T, which U^T U = I passes.  It is
    checked as (2P - I)U + I = 2Q, on _reflect's rows of U's nonzeros and
    the built Q's nonzeros, not on the rows of 2Q - I that U is built
    from."""
    pi0, pi1 = build_partitions(g)
    m = g.num_edges
    # P from the c1-keyed cells, Q from the c0-keyed cells: the assignment
    # that reproduces the reference example matrices frozen in the tests
    p, rp, dp = _projection(m, pi1, "P")
    q, rq, dq = _projection(m, pi0, "Q")
    u = RationalMatrix._lowest_terms(_int_product(rp, rq, m), m, dp * dq)
    lhs, dl = _reflect(u.nonzeros(), pi1, dp, m), u.den * dp
    for i, row in enumerate(lhs):
        row[i] += dl  # (2P - I)U + I, to compare with 2Q
    if not _rows_equal(lhs, 2 * dl, q.nonzeros(), q.den):
        raise ConstructionError("U is not orthogonal")
    return WalkOperator(g, p, q, u)


# ---------------------------------------------------------------------------
# The bipartite walk on the cell space
# ---------------------------------------------------------------------------


def _factors(
    g: Graph, rows: Iterable[int], other: Iterable[int]
) -> tuple[list[list[tuple[int, int]]], list[list[int]], int, int]:
    """(F, F', l, l') for the block C of g's adjacency from the sorted
    `rows` to the sorted `other`: F = l Dr^-1 C as the (column, value)
    pairs of its rows, F' = l' Do^-1 C^T as dense rows, l = lcm(deg rows)
    and l' = lcm(deg other), from one pass over the neighbours of `rows`.

    exact._sparse_times_dense(F, F') is L M, L = l l', for M = Dr^-1 C
    Do^-1 C^T: C C^T on a (d0, d1)-biregular graph, and (L/2)(I + D^-1 A)
    on the subdivision S(g) with rows the original vertices.  When C is
    square and symmetric, F = F' and L M = F'^2.  The decider's char-poly
    (periodicity._chi) and T (_quotient) read them.
    """
    deg, adj = g.degrees(), g.neighbors()
    rows, other = sorted(rows), sorted(other)
    col = {x: j for j, x in enumerate(other)}
    l, l_other = lcm(*(deg[v] for v in rows)), lcm(*(deg[x] for x in other))
    f, f_t = [], [[0] * len(rows) for _ in other]
    for i, v in enumerate(rows):
        w, row = l // deg[v], []
        for x in adj[v]:
            j = col[x]
            row.append((j, w))
            f_t[j][i] = l_other // deg[x]
        f.append(row)
    return f, f_t, l, l_other


def _quotient(
    g: Graph, last: Sequence[int], first: Sequence[int]
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Numerator rows of T over one denominator, and z, from the adjacency
    of g, with the basis the vertices of `last`, sorted, and then those of
    `first`.

    For U' = (2P_l - I)(2P_f - I), P_l and P_f the cell projections of the
    two classes, and D, C the degrees and the biadjacency blocks,
    T = [[4 Dl^-1 Clf Df^-1 Cfl - I, 2 Dl^-1 Clf], [-2 Df^-1 Cfl, -I]]:
    over den = L = l l', with _factors' F, F', l and l',
    T = [[4 F F' - den I, 2 l' F], [-2 l F', -den I]], its squared block
    the product of 4F's pairs and F'.
    """
    f, f_t, l, l_first = _factors(g, last, first)
    den, n_l, n_f = l * l_first, len(f), len(f_t)
    rows = _sparse_times_dense([[(j, 4 * x) for j, x in r] for r in f], f_t)
    top, bottom = 2 * l_first, -2 * l
    for i, (row, r) in enumerate(zip(rows, f)):
        row[i] -= den
        row += [0] * n_f
        for j, x in r:
            row[n_l + j] = top * x
    for j, r in enumerate(f_t):
        row = [bottom * x for x in r]
        row += [0] * n_f
        row[n_l + j] = -den
        rows.append(row)
    return rows, den, (1,) * n_l + (-1,) * n_f


def _reflect(
    rows: Sequence[Sequence[tuple[int, int]]], cells: Iterable[Sequence[int]], den: int, n: int
) -> list[list[int]]:
    """(2P - I) Y for the cell projection P, Y given by the (column, value)
    pairs of the nonzeros of its rows, one per edge: the dense rows of n
    numerators over den times those of Y.  Row e is 2 den/|cell| times the
    sum of the rows of e's cell, less den times itself."""
    sums = [[0] * n] * len(rows)  # P is 0 on an edge in no cell
    for cell in cells:
        w = 2 * (den // len(cell))
        s = [0] * n
        for e in cell:
            for c, x in rows[e]:
                s[c] += w * x
        for e in cell:
            sums[e] = s
    out = [s[:] for s in sums]
    for o, row in zip(out, rows):
        for c, x in row:
            o[c] -= den * x
    return out


def cell_operator(g: Graph) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """The bipartite walk on the (n0 + n1)-dimensional cell space: T's
    integer numerator rows over one denominator, and z = (1, ..., 1, -1,
    ..., -1), which spans ker X for the connected g.

    U is the walk on bipartition(g), and X the edge-by-vertex incidence:
    row e has a 1 at each end of edge e.  U X = X T, and U is I on X^perp,
    where both reflections are -I; so U^k = I exactly when every column of
    T^k - I is a multiple of z, and, as T z = z, tr(U^k) = tr(T^k) + |E| -
    n0 - n1.  T's basis is the class periodicity._chi takes M on, the
    smaller one (c0 on a tie), which holds the squared block, then the
    other.  When that is c0, T is the quotient of U^T = (2Q - I)
    (2P - I), which has U's order and traces.

    _quotient builds T from _factors' F and F' and their product F F',
    the Gram block that periodicity._chi reads.  T is checked exactly,
    without forming U: X z = 0, and U X = X T for every column of X,
    applying the reflections built from build_partitions' cells to X's
    rows and forming row e of X T as the sum of the rows of T at e's two
    ends.  A failure raises ConstructionError, a graph with no edges
    GraphError.
    """
    pi0, pi1 = build_partitions(g)
    b = bipartition(g)
    # U = (2P - I)(2Q - I) applies the c0 cells (Q) first; _chi's class,
    # sorted first, leads T's basis, and its cells act last
    (last, c_last), (first, c_first) = sorted(zip((pi0, pi1), b), key=lambda pc: len(pc[1]))
    c_last, c_first = sorted(c_last), sorted(c_first)
    rows, den, z = _quotient(g, c_last, c_first)
    pos = {v: i for i, v in enumerate([*c_last, *c_first])}
    ends = [(pos[u], pos[v]) for u, v in g.edges]  # row e of X: 1 at these columns
    if any(z[i] + z[j] for i, j in ends):
        raise ConstructionError("z is not in the kernel of X")
    # a cell's size is its vertex's degree, so den = d_first d_last, and den
    # U X is X's rows reflected by both classes' cells
    d_first, d_last = lcm(*map(len, first)), lcm(*map(len, last))
    ux = _reflect([((i, 1), (j, 1)) for i, j in ends], first, d_first, g.n)
    ux = [[(c, x) for c, x in enumerate(row) if x] for row in ux]
    ux = _reflect(ux, last, d_last, g.n)
    if any(w != list(map(add, rows[i], rows[j])) for w, (i, j) in zip(ux, ends)):
        raise ConstructionError("T does not satisfy U X = X T")
    return rows, den, z


# ---------------------------------------------------------------------------
# Grover walk on arcs
# ---------------------------------------------------------------------------


class ArcWalkOperator(NamedTuple):
    """Arc walk operator U_GW = R(2K - I) with its arc index map, checked
    by R U_GW = 2K - I on its nonzeros.

    arcs[j] = (tail, head): the arc leaves its tail and points into its
    head.  Arc j and arc j + |E| are mutual reversals in the canonical
    ordering.
    """

    graph: Graph
    arcs: tuple[tuple[int, int], ...]
    R: RationalMatrix
    K: RationalMatrix
    U: RationalMatrix

    @property
    def dim(self) -> int:
        return self.U.rows


def build_grover_walk(g: Graph) -> ArcWalkOperator:
    """Arc walk with canonical arc order: forward copies of the canonical
    edge list first, then all reversals.

    R maps arc i to its reversal, found through the arc list, so row i of
    U_GW = R(2K - I) is the reversal's row of 2K - I.  K's cell at head h
    holds the deg(h) arcs into h: edge j's arc j when j = (u, h), else its
    arc j + |E|.  The cell ascends, as the edges (u, h), u < h, precede
    every (h, w).

    Each row of R must be a single 1 at an arc whose row points back: R is
    an involution.  K is a symmetric idempotent, so R U_GW = 2K - I, with
    2K - I from the built K's nonzeros, holds only for U_GW = R(2K - I),
    which is orthogonal; it refuses U_GW^T, which U^T U = I passes."""
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    m = g.num_edges
    if not m:
        raise GraphError("graph has no edges")
    edges = g.edges
    arcs = [*edges, *((v, u) for u, v in edges)]
    n_arcs = len(arcs)
    index = {a: i for i, a in enumerate(arcs)}
    rev = [index[(h, t)] for t, h in arcs]
    cells = [[j if edges[j][1] == h else j + m for j in inc] for h, inc in enumerate(g.incidence())]
    r = RationalMatrix.from_nonzeros([((i, 1),) for i in rev], n_arcs, 1)
    nz = r.nonzeros()
    if r.den != 1 or any(len(row) != 1 or nz[row[0][0]] != ((i, 1),) for i, row in enumerate(nz)):
        raise ConstructionError("R is not an involution")
    k, refl, den = _projection(n_arcs, cells, "K")
    u = RationalMatrix.from_nonzeros([refl[j] for j in rev], n_arcs, den)
    # row R(i) of U_GW over u.den against row i of 2K - I over k.den; K[i][i]
    # = sum_j K[i][j]^2 holds the diagonal in every nonzero row of K
    du, dk, unz = u.den, k.den, u.nonzeros()
    if any(
        [(j, dk * x) for j, x in unz[r]]
        != ([(j, du * y) for j, x in row if (y := 2 * x - dk * (i == j))] or [(i, -du * dk)])
        for i, (((r, _),), row) in enumerate(zip(nz, k.nonzeros()))
    ):
        raise ConstructionError("U_GW is not orthogonal")
    return ArcWalkOperator(g, tuple(arcs), r, k, u)


def grover_equals_bipartite_on_subdivision(gw: ArcWalkOperator) -> tuple[bool, list[int]]:
    """Check U_GW(g) == U_BW(S(g))^T under the arc/subdivision-edge map,
    for the built arc walk gw of g.

    U_BW is built on bipartition(S(g)), whose c0 holds the original
    vertices; its transpose takes the two reflections in the other order,
    the original vertices' cells last.  Arc (u, v) with underlying canonical edge j
    corresponds to the subdivision edge {u, n+j} (the tail side).  Returns
    the equality flag and the witness permutation sigma with sigma[arc] =
    subdivision edge.
    """
    g = gw.graph
    sg = subdivision(g)
    w = build_bipartite_walk(sg)
    n, m = g.n, g.num_edges
    sigma = [sg.edge_index(tail, n + a % m) for a, (tail, _) in enumerate(gw.arcs)]
    # both sides are in normal form, so a permutation of entries is equal
    # exactly when denominators and permuted numerators are: U_GW[a][c] is
    # U_BW[sigma[c]][sigma[a]], and (row, column, numerator) names a nonzero
    bw = {(t, s, x) for t, row in enumerate(w.U.nonzeros()) for s, x in row}
    arc = {(sigma[c], sigma[a], x) for a, row in enumerate(gw.U.nonzeros()) for c, x in row}
    return w.U.den == gw.U.den and bw == arc, sigma


def block_identity_checks(gw: ArcWalkOperator, k_max: int) -> list[bool]:
    """Verify that even powers of the arc walk split into bipartite-walk
    powers, for k = 1..k_max: entry k - 1 of the result is the check at k,
    with the bipartite walk on bipartition(g).

    Arcs are reordered so the first |E| indices are the arcs pointing into
    c1, edge j's at j, and the rest their reversals, which point into c0:
    arc j = (u, v) of build_grover_walk points into v, so edge j takes arc
    j when v is in c1, else arc j + |E|.  In that basis U_GW^(2k) must
    equal the block diagonal of (U_BW^k)^T and U_BW^k exactly.  U_BW comes
    from its checked builder, once.  U_GW^2 is one product; when it equals
    the block diagonal at k = 1, U_GW^(2k) is the block diagonal of the
    k-th powers of its blocks, so every k passes with no further product.
    Only after a failure at k = 1 do both powers step up, by one product
    per k, by U_GW^2 and by U_BW.
    """
    if k_max < 1:
        raise ValueError("k must be positive")
    g = gw.graph
    u_bw = build_bipartite_walk(g).U
    c1, m = bipartition(g).c1, g.num_edges
    into_c1 = [j if v in c1 else j + m for j, (_, v) in enumerate(g.edges)]
    # the order swaps arcs j and j + m where edge j's v is in c0, so it is
    # its own inverse: arc a moves to index order[a]
    order = into_c1 + [(a + m) % (2 * m) for a in into_c1]
    nz = gw.U.nonzeros()
    u_gw = RationalMatrix.from_nonzeros(
        [sorted((order[c], x) for c, x in nz[a]) for a in order], 2 * m, gw.U.den
    )

    def splits(even: RationalMatrix, ubk: RationalMatrix) -> bool:
        # the zero blocks leave the normal form's gcd alone, so the identity
        # holds exactly when the denominators and the nonzeros agree: the
        # top rows are those of the transpose, the bottom ones U_BW^k's rows
        # shifted by m columns
        nz = even.nonzeros()
        return (
            even.den == ubk.den
            and nz[:m] == ubk.transpose().nonzeros()
            and all(
                row == tuple([(j + m, x) for j, x in u]) for row, u in zip(nz[m:], ubk.nonzeros())
            )
        )

    step = mat_mul(u_gw, u_gw)
    if splits(step, u_bw):
        return [True] * k_max
    results, even, ubk = [False], step, u_bw
    for _ in range(2, k_max + 1):
        even, ubk = mat_mul(even, step), mat_mul(ubk, u_bw)
        results.append(splits(even, ubk))
    return results


def block_identity_check(gw: ArcWalkOperator, k: int) -> bool:
    """The block identity of block_identity_checks at k alone."""
    return block_identity_checks(gw, k)[-1]


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)
# ---------------------------------------------------------------------------


def entry_rows(m: RationalMatrix, quote: str = "") -> Iterator[list[str]]:
    """The rows of m with each entry as str(Fraction(x, m.den)), within
    quote: one token per distinct numerator x (one gcd each), set at the
    nonzeros of a copy of the zero row, so the work follows the nonzeros."""
    den = m.den
    text = {
        x: quote + (str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}") + quote
        for x in {0, *map(itemgetter(1), chain.from_iterable(m.nonzeros()))}
    }
    zeros = [text[0]] * m.cols
    for row in m.nonzeros():
        out = zeros.copy()
        for j, x in row:
            out[j] = text[x]
        yield out


def _to_json(
    kind: str, w: WalkOperator | ArcWalkOperator, fields: dict, matrices: Sequence[str]
) -> str:
    """json.dumps of the document, each matrix a list of entry_rows: their
    tokens hold only digits, "-" and "/", which it writes unescaped."""
    doc = {
        "kind": kind,
        "dim": w.dim,
        "n": w.graph.n,
        "edges": [list(e) for e in w.graph.edges],
        **fields,
    }
    parts = [json.dumps(doc)[:-1]]
    for name in matrices:
        rows = ", ".join(["[" + ", ".join(row) + "]" for row in entry_rows(getattr(w, name), '"')])
        parts.append(f', "{name}": [{rows}]')
    return "".join(parts) + "}"


W = TypeVar("W", WalkOperator, ArcWalkOperator)


def _from_json(text: str, build: Callable[[Graph], W], to_json: Callable[[W], str]) -> W:
    """The walk that build makes from the document's graph.  Every other
    field is derived from that graph, so the document is accepted only when
    to_json of the rebuilt walk gives it back (compared as parsed JSON);
    anything else raises ValueError.  n and the edge ends must be JSON
    integers: false and true would equal 0 and 1 in that comparison."""
    doc = json.loads(text)
    try:
        n, edges = doc["n"], [tuple(e) for e in doc["edges"]]
        if any(type(x) is not int for x in chain((n,), *edges)):
            raise ValueError("malformed walk document: n and the edge ends must be integers")
        w = build(Graph.from_edges(n, edges))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed walk document: {exc!r}") from None
    if json.loads(to_json(w)) != doc:
        raise ValueError("the document is not the walk of its graph")
    return w


def walk_to_json(w: WalkOperator) -> str:
    b, prof = bipartition(w.graph), degree_profile(w.graph)
    fields = {"c0": sorted(b.c0), "c1": sorted(b.c1), "degree_profile": [prof.d0, prof.d1]}
    return _to_json("bipartite", w, fields, ("P", "Q", "U"))


def walk_from_json(text: str) -> WalkOperator:
    return _from_json(text, build_bipartite_walk, walk_to_json)


def grover_to_json(w: ArcWalkOperator) -> str:
    return _to_json("grover", w, {"arcs": [list(a) for a in w.arcs]}, ("R", "K", "U"))


def grover_from_json(text: str) -> ArcWalkOperator:
    return _from_json(text, build_grover_walk, grover_to_json)
