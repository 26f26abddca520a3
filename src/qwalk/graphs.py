"""Undirected simple graphs with canonical vertex and edge indexing.

Edges are always stored as (u, v) with u < v, sorted lexicographically.
That sorted position is the canonical edge index used by every matrix
whose rows or columns are indexed by edges, so all operators downstream
are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Optional


class GraphError(ValueError):
    """Invalid graph input: malformed text, bad indices, structure errors."""


class NotBipartiteError(GraphError):
    """Raised when a 2-coloring is requested for a non-bipartite graph."""


class NotBiregularError(GraphError):
    """Operation requires a biregular bipartite graph."""


class Graph:
    """Simple undirected graph on vertices 0..n-1 with a canonical edge list.

    An immutable value, equal and hashed by (n, edges).  A plain class, not
    a NamedTuple, so that its derived data (adjacency, degrees, incidence,
    connectivity, 2-colouring) can be cached on the instance.  The
    incidence is the one grouping of edge indices by vertex: the walks'
    cells and the line graph read it.  The neighbour lists keep their own
    loop, which measured faster than reading them from the incidence.
    Connectivity and the 2-colouring come from one search.
    """

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.__dict__.update(n=n, edges=edges)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise GraphError("vertex count must be positive")
        canon = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            canon.append((min(u, v), max(u, v)))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        return Graph(n, tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        e = (min(u, v), max(u, v))
        i = bisect_left(self.edges, e)
        if i == len(self.edges) or self.edges[i] != e:
            raise GraphError(f"no edge {e}")
        return i

    def degrees(self) -> list[int]:
        """Each vertex's degree, counted once per graph, as a fresh list."""
        return list(self._degrees)

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, built once per graph, as shared tuples."""
        return self._adjacency

    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's edge indices, ascending, built once per graph, as
        shared tuples: the cell of the edges at that vertex."""
        return self._incidence

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adjacency))

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for j, (u, v) in enumerate(self.edges):
            inc[u].append(j)
            inc[v].append(j)
        return tuple(map(tuple, inc))

    @cached_property
    def _search(self) -> tuple[list[int], bool]:
        """The one BFS from vertex 0: each vertex's colour, the parity of
        its distance from 0 (-1 where the search did not reach it), and
        whether some edge joins two vertices of the same colour."""
        adj, color, odd = self.neighbors(), [-1] * self.n, False
        color[0] = 0
        queue = [0]
        for x in queue:  # the search appends to the list it walks
            c = 1 - color[x]
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = c
                    queue.append(y)
                elif color[y] != c:
                    odd = True
        return color, odd

    @cached_property
    def _connected(self) -> bool:
        # a spanning tree needs n - 1 edges: with fewer, no search runs
        return self.n <= self.num_edges + 1 and -1 not in self._search[0]

    @cached_property
    def _colouring(self) -> Optional[Bipartition]:
        """The search's 2-colouring of the connected graph, None on an odd
        cycle."""
        color, odd = self._search
        if odd:
            return None
        c0 = frozenset(v for v, c in enumerate(color) if c == 0)
        return Bipartition(c0, frozenset(range(self.n)) - c0)


class Bipartition(NamedTuple):
    """Two color classes with vertex 0 anchored in c0.  Only
    Graph._colouring builds one: take it from bipartition(g)."""

    c0: frozenset[int]
    c1: frozenset[int]


class DegreeProfile(NamedTuple):
    """Common per-class degrees; a field is None when degrees differ."""

    d0: Optional[int]
    d1: Optional[int]

    @property
    def is_biregular(self) -> bool:
        return self.d0 is not None and self.d1 is not None


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line n, then 'u v' lines, '#' comments."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty document")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphError(f"bad vertex count line: {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"malformed edge line: {ln!r}") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_graph(g: Graph) -> str:
    """Emit canonical edge-list text (inverse of parse_graph)."""
    out = [str(g.n)]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def bipartition(g: Graph) -> Bipartition:
    """The 2-colouring of a connected graph, vertex 0 in c0, from one BFS
    per graph (Graph caches it).

    Raises NotBipartiteError on an odd cycle, GraphError when disconnected.
    """
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    if g._colouring is None:
        raise NotBipartiteError("graph contains an odd cycle")
    return g._colouring


def is_bipartite(g: Graph) -> bool:
    try:
        bipartition(g)
        return True
    except NotBipartiteError:
        return False


def degree_profile(g: Graph) -> DegreeProfile:
    """The common degree of each class of bipartition(g), None where they
    differ."""
    b, deg = bipartition(g), g.degrees()
    d0s = {deg[v] for v in b.c0}
    d1s = {deg[v] for v in b.c1}
    return DegreeProfile(
        d0s.pop() if len(d0s) == 1 else None,
        d1s.pop() if len(d1s) == 1 else None,
    )


def subdivision(g: Graph) -> Graph:
    """Insert one vertex in the middle of every edge.

    Original vertices keep indices 0..n-1, so bipartition(S(g)) has them in
    c0; the new vertex for canonical edge j is n+j.  A graph with more than
    |E| + 1 vertices is disconnected and rejected before any per-vertex
    allocation.
    """
    n, m = g.n, g.num_edges
    if n > m + 1:
        raise GraphError("graph is disconnected")
    edges = []
    for j, (u, v) in enumerate(g.edges):
        mid = n + j
        edges.append((u, mid))
        edges.append((v, mid))
    return Graph.from_edges(n + m, edges)


def bipartite_double_cover(g: Graph) -> Graph:
    """Kronecker product with a single edge: (v,0) -> v, (v,1) -> n+v, so
    bipartition() of the cover has 0..n-1 in c0."""
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    n = g.n
    edges = []
    for u, v in g.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    dg = Graph.from_edges(2 * n, edges)
    if not dg.is_connected():
        raise GraphError("double cover is disconnected (input was bipartite)")
    return dg


def line_graph(g: Graph) -> Graph:
    """Vertices are canonical edge indices of g; adjacency = shared endpoint."""
    return Graph.from_edges(g.num_edges, [e for c in g.incidence() for e in combinations(c, 2)])


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """0/1 adjacency matrix, rows and columns in vertex order."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    return a


def biadjacency(g: Graph) -> list[list[int]]:
    """The |c0| x |c1| block C of the adjacency matrix between the classes
    of bipartition(g), each in vertex order."""
    b = bipartition(g)
    r0 = sorted(b.c0)
    r1 = sorted(b.c1)
    pos1 = {v: i for i, v in enumerate(r1)}
    pos0 = {v: i for i, v in enumerate(r0)}
    c = [[0] * len(r1) for _ in range(len(r0))]
    for u, v in g.edges:
        if u in pos0:
            c[pos0[u]][pos1[v]] = 1
        else:
            c[pos0[v]][pos1[u]] = 1
    return c


# ---------------------------------------------------------------------------
# Generators and named fixtures
# ---------------------------------------------------------------------------


def cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete_bipartite sides must be positive")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(k: int) -> Graph:
    """Star K_{1,k}: center 0 with k leaves."""
    if k < 1:
        raise GraphError("star needs at least one leaf")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def path(k: int) -> Graph:
    if k < 2:
        raise GraphError("path needs at least 2 vertices")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def circulant(n: int, connection: Iterable[int]) -> Graph:
    """Cayley graph of Z_n with the given connection set.

    The set is taken modulo n, must exclude 0 and be closed under negation.
    """
    if n < 1:
        raise GraphError("vertex count must be positive")
    conn = {c % n for c in connection}
    if 0 in conn or not conn:
        raise GraphError("connection set must be nonempty and exclude 0")
    if {(-c) % n for c in conn} != conn:
        raise GraphError("connection set must be closed under negation mod n")
    edges = set()
    for v in range(n):
        for c in conn:
            u, w = v, (v + c) % n
            edges.add((min(u, w), max(u, w)))
    return Graph.from_edges(n, edges)


def figure1_graph() -> Graph:
    """The 8-vertex bipartite example graph used for the worked walk operator."""
    return Graph.from_edges(8, [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (5, 6), (6, 7)])


def figure4a_graph() -> Graph:
    """5-vertex graph whose subdivision illustrates the arc-walk equality."""
    return Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])


def figure7_graph() -> Graph:
    """4-regular 8-vertex graph with spectrum {-(1+sqrt5), -2, 0, sqrt5-1, 4}."""
    return Graph.from_edges(
        8,
        [
            (0, 3), (0, 4), (0, 5), (0, 6),
            (1, 4), (1, 5), (1, 6), (1, 7),
            (2, 4), (2, 5), (2, 6), (2, 7),
            (3, 5), (3, 6), (3, 7),
            (4, 7),
        ],
    )


def heawood_graph() -> Graph:
    """Heawood graph via LCF notation [5,-5]^7 on a 14-cycle."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph.from_edges(14, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)
