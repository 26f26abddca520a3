"""Known answers that do not come from qwalk, and the output checker.

Periods of seeded and enumerated inputs come from sympy (Watkins-Zeitlin
route): for a connected (d0, d1)-biregular bipartite graph with
biadjacency C, every irreducible factor f(x) of charpoly(C C^T), mapped
through x -> 4x/(d0 d1) - 2, must be the minimal polynomial Psi_k of
2cos(2 pi/k); tau is the lcm of those k, of 1, and of 2 when the -1
eigenspace (dimension n0 + n1 - 2 rank C) is not empty.  Psi_k is
recognised through z^m Psi_k(z + 1/z) = Phi_k(z), the k-th cyclotomic
polynomial.  The Grover walk of G is the bipartite walk of S(G).

Walk operators are rebuilt here from their definitions with Fractions;
isomorphism of scan classes is checked with networkx.  sympy and
networkx are imported only when a check needs them, after the timed
passes, so they never count in the program's memory or time.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from workloads import Command, Graph, SCAN_MAX_EDGES

EXIT_PERIODIC, EXIT_NONPERIODIC, EXIT_INCONCLUSIVE = 0, 3, 4


@dataclass
class Outcome:
    """What one command returned: exit code and stdout, or a state list."""

    code: int
    stdout: str = ""
    states: Optional[list[bool]] = None


@dataclass
class Verdict:
    wrong: bool
    decided: int  # decisions with a definite answer
    decisions: int  # decisions the command makes
    detail: str = ""


# -- graph helpers ---------------------------------------------------------------


def canonical_edges(g: Graph) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in g.edges)


def coloring(g: Graph) -> Optional[list[int]]:
    """BFS 2-colouring from vertex 0 of a connected graph; None if not bipartite."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if color[y] == -1:
                color[y] = 1 - color[x]
                queue.append(y)
            elif color[y] == color[x]:
                return None
    if -1 in color:
        raise ValueError("graph is disconnected")
    return color


def subdivision(g: Graph) -> Graph:
    return Graph(g.n + len(g.edges),
                 tuple(e for j, (u, v) in enumerate(g.edges) for e in ((u, g.n + j), (v, g.n + j))))


def double_cover(g: Graph) -> Graph:
    return Graph(2 * g.n, tuple(e for u, v in g.edges for e in ((u, g.n + v), (v, g.n + u))))


def walk_graph(g: Graph, options: tuple[str, ...]) -> Graph:
    """The graph whose bipartite walk `qwalk period <g> <options>` decides."""
    opts = dict(zip(options[::2], options[1::2]))
    transform = opts.get("--transform", "none")
    if transform == "s":
        g = subdivision(g)
    elif transform == "d":
        g = double_cover(g)
    if opts.get("--kind", "b") == "g":
        g = subdivision(g)
    return g


# -- periods with sympy ------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic_orders(phi: int) -> tuple[int, ...]:
    from sympy import totient

    # totient(k) >= sqrt(k / 2), so k <= 2 phi^2
    return tuple(k for k in range(3, 2 * phi * phi + 3) if totient(k) == phi)


def _psi_order(f, x, dd: int) -> Optional[int]:
    """k with f(dd (y + 2) / 4) proportional to Psi_k(y), else None."""
    from sympy import Poly, Rational, cyclotomic_poly, expand, symbols

    y, z = symbols("y z")
    g = Poly(f.subs(x, Rational(dd, 4) * (y + 2)), y).monic()
    if g.all_coeffs() == [1, -2]:
        return 1
    if g.all_coeffs() == [1, 2]:
        return 2
    m = g.degree()
    h = Poly(expand(z**m * g.as_expr().subs(y, z + 1 / z)), z).all_coeffs()
    for k in _cyclotomic_orders(2 * m):
        if h == Poly(cyclotomic_poly(k, z), z).all_coeffs():
            return k
    return None


def walk_period(g: Graph) -> tuple[bool, Optional[int]]:
    """(periodic, tau) of the bipartite walk on a connected biregular
    bipartite graph, from the factorisation of its Gram block."""
    from sympy import Matrix, factor_list, symbols

    color = coloring(g)
    if color is None:
        raise ValueError("graph is not bipartite")
    side = [[v for v in range(g.n) if color[v] == c] for c in (0, 1)]
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    d0s, d1s = {deg[v] for v in side[0]}, {deg[v] for v in side[1]}
    if len(d0s) != 1 or len(d1s) != 1:
        raise ValueError("graph is not biregular")
    pos = {v: i for s in side for i, v in enumerate(s)}
    c = Matrix.zeros(len(side[0]), len(side[1]))
    for u, v in g.edges:
        if color[u] == 1:
            u, v = v, u
        c[pos[u], pos[v]] = 1
    gram = c * c.T if c.rows <= c.cols else c.T * c
    x = symbols("x")
    dd = d0s.pop() * d1s.pop()
    orders = {1}
    for factor, _mult in factor_list(gram.charpoly(x).as_expr(), x)[1]:
        k = _psi_order(factor, x, dd)
        if k is None:
            return False, None
        orders.add(k)
    if c.rows + c.cols - 2 * c.rank() > 0:
        orders.add(2)
    return True, lcm(*orders)


# -- walk operators from their definitions --------------------------------------------


def _product(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in bt] for row in a]


def _reflection(p: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[2 * x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(p)]


def _averaging(cells: list[int]) -> list[list[Fraction]]:
    """Projection averaging over the index sets that share a cell label."""
    size = {c: cells.count(c) for c in set(cells)}
    return [[Fraction(1, size[a]) if a == b else Fraction(0) for b in cells] for a in cells]


def bipartite_operators(g: Graph) -> dict:
    """P averages edges sharing their colour-1 end, Q edges sharing their
    colour-0 end; U = (2P - I)(2Q - I) on the canonical edge order."""
    color = coloring(g)
    edges = canonical_edges(g)
    end0 = [u if color[u] == 0 else v for u, v in edges]
    end1 = [v if color[u] == 0 else u for u, v in edges]
    p, q = _averaging(end1), _averaging(end0)
    return {
        "edges": [list(e) for e in edges],
        "c0": [v for v in range(g.n) if color[v] == 0],
        "c1": [v for v in range(g.n) if color[v] == 1],
        "P": p, "Q": q, "U": _product(_reflection(p), _reflection(q)),
    }


def grover_operators(g: Graph) -> dict:
    """Arcs (a, b): the canonical edges, then their reversals.  R reverses
    an arc, K averages arcs with the same second vertex, U = R(2K - I)."""
    edges = canonical_edges(g)
    arcs = edges + [(v, u) for u, v in edges]
    index = {a: i for i, a in enumerate(arcs)}
    r = [[Fraction(0)] * len(arcs) for _ in arcs]
    for i, (a, b) in enumerate(arcs):
        r[i][index[(b, a)]] = Fraction(1)
    k = _averaging([b for _, b in arcs])
    return {"edges": [list(e) for e in edges], "arcs": [list(a) for a in arcs],
            "R": r, "K": k, "U": _product(r, _reflection(k))}


# -- the checker --------------------------------------------------------------------


def _period_verdict(out: Outcome, expect: dict) -> Verdict:
    doc = json.loads(out.stdout)
    periodic, period = doc["verdict"]["periodic"], doc["verdict"]["period"]
    code_for = {True: EXIT_PERIODIC, False: EXIT_NONPERIODIC, "inconclusive": EXIT_INCONCLUSIVE}
    if out.code != code_for.get(periodic):
        return Verdict(True, 0, 1, f"exit {out.code} with verdict {periodic!r}")
    if periodic == "inconclusive":
        return Verdict(False, 0, 1)
    if periodic != expect["periodic"] or (periodic and period != expect["period"]):
        return Verdict(True, 1, 1, f"got periodic={periodic} tau={period}, known {expect}")
    return Verdict(False, 1, 1)


def _walk_verdict(cmd: Command, out: Outcome) -> Verdict:
    from qwalk.walks import grover_from_json, grover_to_json, walk_from_json, walk_to_json

    text = out.stdout.rstrip("\n")
    doc = json.loads(text)
    grover = dict(zip(cmd.options[::2], cmd.options[1::2]))["--kind"] == "g"
    want = grover_operators(cmd.graph) if grover else bipartite_operators(cmd.graph)
    if out.code != 0 or doc["kind"] != ("grover" if grover else "bipartite"):
        return Verdict(True, 0, 0, f"exit {out.code}, kind {doc.get('kind')}")
    for key, value in want.items():
        got = doc[key]
        if key in "PQRKU":
            got = [[Fraction(s) for s in row] for row in got]
        if got != value:
            return Verdict(True, 0, 0, f"{key} differs from its definition")
    # JSON round trip through qwalk's own reader and writer
    back = grover_to_json(grover_from_json(text)) if grover else walk_to_json(walk_from_json(text))
    if back != text:
        return Verdict(True, 0, 0, "JSON round trip changed the document")
    return Verdict(False, 0, 0)


def _verify_verdict(cmd: Command, out: Outcome) -> Verdict:
    doc = json.loads(out.stdout)
    names = {"grover_equals_bipartite_on_subdivision"}
    if cmd.expect["bipartite"]:
        names |= {f"block_identity_k{k}" for k in range(1, 5)}
    ok = (out.code == 0 and doc["all_pass"] is True and set(doc["checks"]) == names
          and all(v is True for v in doc["checks"].values()))
    return Verdict(not ok, 0, 0, "" if ok else f"exit {out.code}, checks {doc['checks']}")


def _state_verdict(cmd: Command, out: Outcome) -> Verdict:
    want = [cmd.expect["every_state_periodic"]] * len(cmd.graph.edges)
    wrong = out.states != want
    return Verdict(wrong, len(want), len(want), f"states {out.states}" if wrong else "")


def _scan_verdict(cmd: Command, out: Outcome) -> Verdict:
    import networkx as nx

    docs = [json.loads(line) for line in out.stdout.splitlines()]
    decided = sum(d["verdict"]["periodic"] in (True, False) for d in docs)
    problems = []
    if out.code != 0 or len(docs) != cmd.expect["classes"]:
        problems.append(f"exit {out.code}, {len(docs)} classes")
    graphs = []
    for d in docs:
        g = Graph(d["vertices"], tuple(tuple(e) for e in d["edge_list"]))
        periodic, tau = walk_period(g)  # raises unless connected biregular bipartite
        v = d["verdict"]
        if len(g.edges) > SCAN_MAX_EDGES or periodic != cmd.expect["periodic"] or (
            v["periodic"] is not True or v["period"] != tau
        ):
            problems.append(f"{d['input']}: periodic={v['periodic']} tau={v['period']}, known tau={tau}")
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        graphs.append(nxg)
    for i in range(len(graphs)):
        for j in range(i):
            if nx.is_isomorphic(graphs[i], graphs[j]):
                problems.append(f"classes {j} and {i} are isomorphic")
    return Verdict(bool(problems), decided, cmd.expect["classes"], "; ".join(problems))


def decisions(cmd: Command) -> int:
    """Definite-or-inconclusive answers a command gives: a period verdict,
    one verdict per scan class, one per edge state; walk and verify none."""
    if cmd.op == "period":
        return 1
    if cmd.op == "scan":
        return cmd.expect["classes"]
    if cmd.op == "state":
        return len(cmd.graph.edges)
    return 0


def check(cmd: Command, out: Outcome) -> Verdict:
    """Compare one command's output with its known answer."""
    try:
        if cmd.op == "period":
            expect = cmd.expect
            if expect is None:
                periodic, tau = walk_period(walk_graph(cmd.graph, cmd.options))
                expect = {"periodic": periodic, "period": tau}
            return _period_verdict(out, expect)
        if cmd.op == "walk":
            return _walk_verdict(cmd, out)
        if cmd.op == "verify":
            return _verify_verdict(cmd, out)
        if cmd.op == "state":
            return _state_verdict(cmd, out)
        return _scan_verdict(cmd, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # JSONDecodeError is a ValueError
        return Verdict(True, 0, decisions(cmd), f"unreadable output: {exc!r}")
