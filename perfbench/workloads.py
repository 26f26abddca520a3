"""The four workloads: their input graphs, seeded input files and commands.

Every input graph is fixed up to isomorphism.  The seed picks a random
vertex labelling, edge order and endpoint order for each graph and the
order of the commands in a pass, so two seeds give different files of
equal cost: every cost qwalk pays (characteristic polynomials, matrix
products, root searches) is invariant under relabelling.  Inputs whose
cost depends on the seed would make the spread between seeds, not the
program, set the benchmark's noise.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: Edges


@dataclass(frozen=True)
class Command:
    """One closed-loop step of a workload.

    op is the qwalk subcommand ("period", "walk", "verify", "scan") run
    through qwalk.cli.main with argv, or "state": build the bipartite walk
    of the input file argv[0] and call qwalk.periodicity.state_periodicity
    on every edge.
    """

    op: str
    label: str
    argv: tuple[str, ...]
    graph: Optional[Graph] = None  # the input exactly as written to its file
    options: tuple[str, ...] = ()
    expect: Optional[dict] = None  # fixed known answer; None: derived by the checker


# -- graphs, built here rather than taken from qwalk's fixtures --------------


def cycle(k: int) -> Graph:
    return Graph(k, tuple((i, (i + 1) % k) for i in range(k)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def circulant(n: int, conn: tuple[int, ...]) -> Graph:
    edges = {tuple(sorted((v, (v + c) % n))) for v in range(n) for c in conn}
    return Graph(n, tuple(sorted(edges)))


OCTAHEDRON = circulant(6, (1, 2))  # K_{2,2,2}, spectrum {4, 0^3, -2^2}
FIGURE4A = Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3)))
FIGURE7 = Graph(8, (
    (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7), (4, 7),
))
HEAWOOD = Graph(14, tuple((i, (i + 1) % 14) for i in range(14))
                + tuple((i, (i + 5) % 14) for i in range(0, 14, 2)))
PETERSEN = Graph(10, tuple((i, (i + 1) % 5) for i in range(5))
                 + tuple((i, i + 5) for i in range(5))
                 + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)))
CIRCULANT_10_14 = circulant(10, (1, 4))


def cubic10() -> list[Graph]:
    data = json.loads((Path(__file__).parent / "cubic10.json").read_text())
    return [Graph(10, tuple(tuple(e) for e in edges)) for edges in data]


# Known answers for the fixed inputs.  Each period follows in closed form
# from the graph spectrum (2cos theta = 4 sigma^2/(d0 d1) - 2 on the Gram
# block; U_GW(G) = U_BW(S(G))); selfcheck.py confirms every value with
# sympy.
#   C_2m: 2cos theta = 2cos(2 pi j/m), tau = m.   K_{a,b}: eigenvalues +-1 only, tau = 2.
#   S(octahedron) = Grover(octahedron): cos theta in {1, 0, -1/2} plus -1, tau = 12.
#   octahedron x K2: 2cos theta in {2, -2, -1}, tau = 6.
#   Grover(C_10) = U_BW(C_20), tau = 10.   Grover(K_{3,3}): cos theta in {1, 0, -1}, tau = 4.
#   Heawood: 2cos theta = -10/9 is no algebraic integer.  Grover(Petersen): cos theta = 1/3.
PERIODIC_LADDER = (
    ("C24", cycle(24), (), 12),
    ("K44", complete_bipartite(4, 4), (), 2),
    ("K36", complete_bipartite(3, 6), (), 2),
    ("octahedron-s", OCTAHEDRON, ("--transform", "s"), 12),
    ("octahedron-d", OCTAHEDRON, ("--transform", "d"), 6),
    ("C10-g", cycle(10), ("--kind", "g"), 10),
    ("K33-g", complete_bipartite(3, 3), ("--kind", "g"), 4),
    ("C5-d", cycle(5), ("--transform", "d"), 5),
)

OPERATOR_GRAPHS = (
    ("figure4a", FIGURE4A, True, None),
    ("C8", cycle(8), True, True),
    ("K33", complete_bipartite(3, 3), True, True),
    ("K44", complete_bipartite(4, 4), True, True),
    ("heawood", HEAWOOD, True, False),
    ("petersen", PETERSEN, False, None),
    ("circulant10-14", CIRCULANT_10_14, False, None),
)  # (label, graph, bipartite, every edge state periodic / None: not run)

SCAN_MAX_EDGES = 10
SCAN_CLASSES = 18  # connected biregular bipartite graphs with <= 10 edges

WORKLOADS = ("periodic-ladder", "nonperiodic-covers", "scan-10", "operator-io")

# cmd_tail_s is this percentile of the pooled command times of a run.  It
# is fixed per workload, so commits are compared at the same percentile:
# the highest one with at least ten samples above it in a 12 s run on a
# 2-core host (periodic-ladder: 8 commands x 3 passes, p60 leaves 10 above).
# scan-10 has one command per pass, too few for any percentile below the
# maximum.
TAIL_PERCENTILE = {"periodic-ladder": 60, "nonperiodic-covers": 75, "scan-10": 100, "operator-io": 75}


# -- seeded input files --------------------------------------------------------


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, tuple(edges))


def edge_list_text(g: Graph) -> str:
    return f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def build(workload: str, seed: int, directory: Path) -> tuple[list[Command], str]:
    """Write the workload's input files under directory and return its
    commands (in pass order) and the sha256 of all input files."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    commands: list[Command] = []

    def write(label: str, g: Graph) -> tuple[str, Graph]:
        g = relabel(g, rng)
        text = edge_list_text(g)
        digest.update(f"{label}\n{text}".encode())
        path = directory / f"{label}.txt"
        path.write_text(text)
        return str(path), g

    if workload == "periodic-ladder":
        for label, g, opts, tau in PERIODIC_LADDER:
            path, g = write(label, g)
            commands.append(Command("period", label, ("period", path, *opts), g, opts,
                                    {"periodic": True, "period": tau}))
    elif workload == "nonperiodic-covers":
        for i, g in enumerate(cubic10()):
            path, g = write(f"cubic10-{i:02d}", g)
            opts = ("--transform", "d")
            commands.append(Command("period", f"cubic10-{i:02d}-d", ("period", path, *opts), g, opts))
        for label, g, opts in (("heawood", HEAWOOD, ()), ("petersen-g", PETERSEN, ("--kind", "g"))):
            path, g = write(label, g)
            commands.append(Command("period", label, ("period", path, *opts), g, opts,
                                    {"periodic": False, "period": None}))
    elif workload == "scan-10":
        digest.update(f"scan --max-edges {SCAN_MAX_EDGES}".encode())
        commands.append(Command("scan", "scan-10", ("scan", "--max-edges", str(SCAN_MAX_EDGES)),
                                expect={"classes": SCAN_CLASSES, "periodic": True}))
    else:
        for label, g, bipartite, states in OPERATOR_GRAPHS:
            path, g = write(label, g)
            if bipartite:
                commands.append(Command("walk", f"{label}-walk-b", ("walk", path), g, ("--kind", "b")))
            commands.append(Command("walk", f"{label}-walk-g", ("walk", path, "--kind", "g"), g, ("--kind", "g")))
            commands.append(Command("verify", f"{label}-verify", ("verify", path), g,
                                    expect={"all_pass": True, "bipartite": bipartite}))
            if states is not None:
                commands.append(Command("state", f"{label}-states", (path,), g,
                                        expect={"every_state_periodic": states}))
    rng.shuffle(commands)
    return commands, digest.hexdigest()
