"""Construction of the two walk operators.

Bipartite walk: U = (2P - I)(2Q - I) on edge space, where P averages over
edges sharing a c1 endpoint and Q over edges sharing a c0 endpoint.  With
the breadth-first bipartition (vertex 0 in c0) this ordering of the two
reflections reproduces the worked 7x7 operator for the 8-vertex reference
graph entry for entry.

Grover (arc) walk: U_GW = R(2K - I) on arc space, with R the arc-reversal
permutation and K the tail-averaging projection.  K = D*D is kept instead
of the coin matrix D itself so every entry stays rational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .exact import RationalMatrix, mat_mul, mat_pow
from .graphs import (
    Bipartition,
    DegreeProfile,
    Graph,
    GraphError,
    bipartition,
    degree_profile,
    subdivision,
)


class ConstructionError(RuntimeError):
    """A structural invariant failed at operator construction time."""


@dataclass(frozen=True)
class EdgePartition:
    """Edge-index cells keyed by the vertices of one color class."""

    cells: dict[int, tuple[int, ...]]

    def __post_init__(self):
        all_edges = [e for cell in self.cells.values() for e in cell]
        if len(all_edges) != len(set(all_edges)):
            raise ConstructionError("edge partition cells overlap")


def build_partitions(g: Graph, b: Bipartition) -> tuple[EdgePartition, EdgePartition]:
    """Group edge indices by their c0 endpoint (pi0) and c1 endpoint (pi1)."""
    cells0: dict[int, list[int]] = {v: [] for v in sorted(b.c0)}
    cells1: dict[int, list[int]] = {v: [] for v in sorted(b.c1)}
    for j, (u, v) in enumerate(g.edges):
        x0, x1 = (u, v) if u in b.c0 else (v, u)
        cells0[x0].append(j)
        cells1[x1].append(j)
    return (
        EdgePartition({v: tuple(c) for v, c in cells0.items() if c}),
        EdgePartition({v: tuple(c) for v, c in cells1.items() if c}),
    )


def _cell_projection(m: int, cells: Iterable[Sequence[int]]) -> RationalMatrix:
    """Projection onto functions constant on the cells: block of 1/|cell|,
    as integer numerators over the lcm of the cell sizes."""
    cells = list(cells)
    den = lcm(1, *(len(cell) for cell in cells))
    num = [[0] * m for _ in range(m)]
    for cell in cells:
        w = den // len(cell)
        for e in cell:
            row = num[e]
            for f in cell:
                row[f] = w
    return RationalMatrix.from_numerators(num, den)


def projections(
    pi0: EdgePartition, pi1: EdgePartition, g: Graph
) -> tuple[RationalMatrix, RationalMatrix]:
    """Return (P, Q): P from the c1-keyed cells, Q from the c0-keyed cells.

    This assignment (first reflection averages over c1 endpoints) is the one
    that reproduces the reference example matrices frozen in the test suite.
    """
    m = g.num_edges
    return _cell_projection(m, pi1.cells.values()), _cell_projection(m, pi0.cells.values())


@dataclass(frozen=True)
class WalkOperator:
    """Bipartite walk operator with its exact ingredients and index maps."""

    graph: Graph
    bipart: Bipartition
    profile: DegreeProfile
    P: RationalMatrix
    Q: RationalMatrix
    U: RationalMatrix

    @property
    def dim(self) -> int:
        return self.U.rows


def _reflection(p: RationalMatrix) -> RationalMatrix:
    return p.scale(2).add(RationalMatrix.identity(p.rows).scale(-1))


def _check_projection(p: RationalMatrix, name: str) -> None:
    if p != p.transpose():
        raise ConstructionError(f"{name} is not symmetric")
    if mat_mul(p, p) != p:
        raise ConstructionError(f"{name} is not idempotent")


def build_bipartite_walk(g: Graph, b: Optional[Bipartition] = None) -> WalkOperator:
    """Assemble U = (2P-I)(2Q-I); all invariants verified at construction."""
    if b is None:
        b = bipartition(g)  # raises for non-bipartite or disconnected input
    elif not g.is_connected():
        raise GraphError("graph is disconnected")
    pi0, pi1 = build_partitions(g, b)
    p, q = projections(pi0, pi1, g)
    _check_projection(p, "P")
    _check_projection(q, "Q")
    u = mat_mul(_reflection(p), _reflection(q))
    if not mat_mul(u, u.transpose()).is_identity():
        raise ConstructionError("U is not orthogonal")
    return WalkOperator(g, b, degree_profile(g, b), p, q, u)


# ---------------------------------------------------------------------------
# Grover walk on arcs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcWalkOperator:
    """Arc walk operator U_GW = R(2K - I) with its arc index map.

    arcs[j] = (head, tail); arc j and arc j + |E| are mutual reversals in
    the canonical ordering.
    """

    graph: Graph
    arcs: tuple[tuple[int, int], ...]
    R: RationalMatrix
    K: RationalMatrix
    U: RationalMatrix

    @property
    def dim(self) -> int:
        return self.U.rows


def _grover_parts(
    arcs: list[tuple[int, int]],
) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    n_arcs = len(arcs)
    index = {a: i for i, a in enumerate(arcs)}
    r = [[0] * n_arcs for _ in range(n_arcs)]
    for i, (o, t) in enumerate(arcs):
        r[i][index[(t, o)]] = 1
    by_tail: dict[int, list[int]] = {}
    for i, (_, t) in enumerate(arcs):
        by_tail.setdefault(t, []).append(i)
    rm = RationalMatrix.from_numerators(r, 1)
    # deg(t) arcs share tail t, so K's block of 1/deg(t) is a cell projection
    km = _cell_projection(n_arcs, by_tail.values())
    u = mat_mul(rm, _reflection(km))
    return rm, km, u


def build_grover_walk(g: Graph) -> ArcWalkOperator:
    """Arc walk with canonical arc order: forward copies of the canonical
    edge list first, then all reversals."""
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    arcs = [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
    r, k, u = _grover_parts(arcs)
    if not mat_mul(r, r).is_identity():
        raise ConstructionError("R is not an involution")
    _check_projection(k, "K")
    if not mat_mul(u, u.transpose()).is_identity():
        raise ConstructionError("U_GW is not orthogonal")
    return ArcWalkOperator(g, tuple(arcs), r, k, u)


def grover_equals_bipartite_on_subdivision(g: Graph) -> tuple[bool, list[int]]:
    """Check U_BW(S(g)) == U_GW(g) under the arc/subdivision-edge map.

    Arc (u, v) with underlying canonical edge j corresponds to the
    subdivision edge {u, n+j} (the head side).  Returns the equality flag
    and the witness permutation sigma with sigma[arc] = subdivision edge.
    """
    sg, sb = subdivision(g)
    w = build_bipartite_walk(sg, sb)
    gw = build_grover_walk(g)
    n = g.n
    sigma = []
    for o, t in gw.arcs:
        j = g.edge_index(o, t)
        sigma.append(sg.edge_index(o, n + j))
    # both sides are in normal form, so a permutation of entries is equal
    # exactly when denominators and permuted numerators are
    bw, arc = w.U.num, gw.U.num
    ok = w.U.den == gw.U.den and all(
        tuple(bw[s][t] for t in sigma) == row for s, row in zip(sigma, arc)
    )
    return ok, sigma


def block_identity_check(g: Graph, k: int, b: Optional[Bipartition] = None) -> bool:
    """Verify that even powers of the arc walk split into bipartite-walk powers.

    Arcs are reordered so the first |E| indices are the arcs pointing into
    c1 (one per canonical edge), the rest point into c0.  In that basis
    U_GW^(2k) must equal the block diagonal of (U_BW^k)^T and U_BW^k
    exactly.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if b is None:
        b = bipartition(g)
    w = build_bipartite_walk(g, b)
    arcs_into_c1 = [((u, v) if v in b.c1 else (v, u)) for u, v in g.edges]
    arcs_into_c0 = [(t, o) for o, t in arcs_into_c1]
    _, _, u_gw = _grover_parts(arcs_into_c1 + arcs_into_c0)
    m = g.num_edges
    even = mat_pow(u_gw, 2 * k)
    ubk = mat_pow(w.U, k)
    # the zero blocks leave the normal form's gcd alone, so the identity
    # holds exactly when the denominators and the numerator blocks agree
    if even.den != ubk.den:
        return False
    top, bottom = even.num[:m], even.num[m:]
    return all(
        row[:m] == col and not any(row[m:]) for row, col in zip(top, zip(*ubk.num))
    ) and all(not any(row[:m]) and row[m:] == u for row, u in zip(bottom, ubk.num))


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)
# ---------------------------------------------------------------------------


def _entries_to_strings(m: RationalMatrix) -> list[list[str]]:
    """str(Fraction(x, den)) for each numerator x, formatted from the
    integers with one gcd per entry."""
    den = m.den
    return [
        [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in row]
        for row in m.num
    ]


def _entries_from_strings(rows: list[list[str]]) -> RationalMatrix:
    return RationalMatrix([[Fraction(s) for s in row] for row in rows])


def _to_json(
    kind: str, w: WalkOperator | ArcWalkOperator, fields: dict, matrices: Sequence[str]
) -> str:
    doc = {
        "kind": kind,
        "dim": w.dim,
        "n": w.graph.n,
        "edges": [list(e) for e in w.graph.edges],
        **fields,
    }
    for name in matrices:
        doc[name] = _entries_to_strings(getattr(w, name))
    return json.dumps(doc)


def _from_json(
    text: str, kind: str, matrices: Sequence[str]
) -> tuple[dict, Graph, list[RationalMatrix]]:
    doc = json.loads(text)
    if doc["kind"] != kind:
        raise ValueError(f"not a {kind} walk document: {doc['kind']}")
    g = Graph.from_edges(doc["n"], [tuple(e) for e in doc["edges"]])
    return doc, g, [_entries_from_strings(doc[name]) for name in matrices]


def walk_to_json(w: WalkOperator) -> str:
    fields = {
        "c0": sorted(w.bipart.c0),
        "c1": sorted(w.bipart.c1),
        "degree_profile": [w.profile.d0, w.profile.d1],
    }
    return _to_json("bipartite", w, fields, ("P", "Q", "U"))


def walk_from_json(text: str) -> WalkOperator:
    doc, g, (p, q, u) = _from_json(text, "bipartite", ("P", "Q", "U"))
    b = Bipartition(frozenset(doc["c0"]), frozenset(doc["c1"]))
    return WalkOperator(g, b, DegreeProfile(*doc["degree_profile"]), p, q, u)


def grover_to_json(w: ArcWalkOperator) -> str:
    return _to_json("grover", w, {"arcs": [list(a) for a in w.arcs]}, ("R", "K", "U"))


def grover_from_json(text: str) -> ArcWalkOperator:
    doc, g, (r, k, u) = _from_json(text, "grover", ("R", "K", "U"))
    return ArcWalkOperator(g, tuple(tuple(a) for a in doc["arcs"]), r, k, u)
