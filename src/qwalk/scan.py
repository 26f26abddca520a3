"""Exhaustive enumeration of small connected biregular bipartite graphs.

Graphs are produced one representative per isomorphism class, vertices
numbered with the c0 side first so bipartition() recovers the intended
classes.  A degree profile with a degree-1 side is connected only as a
star, which is emitted directly; every other profile is searched by
filling biadjacency matrices, with at most e/2 vertices on either side.
Edge counts beyond MAX_SCAN_EDGES are rejected: the candidate space and
the exact-arithmetic deciders both grow quickly past that.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import itemgetter
from typing import Iterator

from .graphs import Graph
from .periodicity import PeriodicityVerdict, decide_periodicity

MAX_SCAN_EDGES = 12


def _profiles(e: int) -> Iterator[tuple[int, int, int, int]]:
    """All (n0, d0, n1, d1) with n0*d0 = n1*d1 = e, deduplicated up to the
    side swap by requiring (n0, d0) <= (n1, d1)."""
    sides = [(n, e // n) for n in range(1, e + 1) if e % n == 0]
    for n0, d0 in sides:
        for n1, d1 in sides:
            if (n0, d0) <= (n1, d1) and d0 <= n1 and d1 <= n0:
                yield n0, d0, n1, d1


def _biadjacency_fills(n0: int, d0: int, n1: int, d1: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """0/1 matrices with constant row sums d0 and column sums d1,
    rows in nonincreasing lexicographic order (one representative of every
    row permutation class)."""
    rows: list[tuple[int, ...]] = []
    col_left = [d1] * n1

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n0:
            if all(c == 0 for c in col_left):
                yield tuple(rows)
            return
        for support in combinations(range(n1), d0):
            if any(col_left[j] == 0 for j in support):
                continue
            chosen = set(support)
            row = tuple(1 if j in chosen else 0 for j in range(n1))
            if rows and row > rows[-1]:
                continue
            for j in support:
                col_left[j] -= 1
            rows.append(row)
            yield from rec(i + 1)
            rows.pop()
            for j in support:
                col_left[j] += 1

    yield from rec(0)


def _canonical_form(rows: tuple[tuple[int, ...], ...]) -> tuple:
    """Minimum of the matrix over all row and column permutations.

    Precondition: the matrix has at least two columns.  It is only called
    on profiles whose degrees are both at least 2 (a degree-1 side is a
    star, emitted without a search), so n1 >= d0 >= 2 and itemgetter of a
    column permutation returns a tuple, never a bare entry.  Each side has
    at most e/2 vertices, so the n1! column permutations number at most
    720 at 12 edges; each permutes every row in one C-level pass, and
    sorting the permuted rows minimises over the row permutations.
    """
    return min(tuple(sorted(map(itemgetter(*p), rows)))
               for p in permutations(range(len(rows[0]))))


def _to_graph(rows: tuple[tuple[int, ...], ...]) -> Graph:
    n0, n1 = len(rows), len(rows[0])
    edges = [(i, n0 + j) for i in range(n0) for j in range(n1) if rows[i][j]]
    return Graph.from_edges(n0 + n1, edges)


def enumerate_biregular(max_edges: int) -> Iterator[Graph]:
    """Connected biregular bipartite graphs with up to max_edges edges,
    one per isomorphism class, in increasing edge count."""
    if not (1 <= max_edges <= MAX_SCAN_EDGES):
        raise ValueError(f"max_edges must be between 1 and {MAX_SCAN_EDGES}")
    for e in range(1, max_edges + 1):
        for n0, d0, n1, d1 in _profiles(e):
            if min(d0, d1) == 1:
                # a degree-1 side makes a disjoint union of stars, which is
                # connected only as the single star K_{n0,n1}
                if min(n0, n1) == 1:
                    yield _to_graph(((1,) * n1,) * n0)
                continue
            seen: set[tuple] = set()
            for rows in _biadjacency_fills(n0, d0, n1, d1):
                g = _to_graph(rows)
                if not g.is_connected():
                    continue
                key = _canonical_form(rows)
                if key in seen:
                    continue
                seen.add(key)
                yield g


def scan_periodicity(max_edges: int) -> Iterator[tuple[Graph, PeriodicityVerdict]]:
    """Decide the bipartite walk of every enumerated graph; the verdict
    leaves bipartition(g) cached on g."""
    for g in enumerate_biregular(max_edges):
        yield g, decide_periodicity(g)
