"""Command-line front end.

Subcommands: gen, walk, period, scan, verify.  Structured output is JSON
Lines (one object per line); --pretty switches to human-readable text.

`period` decides by the integrality of q(y) = det(yI - (4M - 2I)), a
Grover walk as the bipartite walk of the subdivision S(g); a periodic
verdict is certified by U^tau = I with minimality, on U or on its
quotient T of size n0 + n1 when n0 + n1 < |E|; a non-periodic one carries
the first non-integral tr(U^k), k <= 12, if any, from q's char-poly with
no walk built.  The spectral table classifies the roots of that char-poly,
and its orders must agree with q.  A report states the period once, as
verdict.period.  Every connected input with an edge gets a definite
verdict.  A graph with no edges is an input error for every command that
reads a graph: walk, period and verify.

Exit codes: 0 periodic / success, 3 non-periodic, 5 internal method
disagreement, 1 usage or input error, or stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from typing import Optional

from . import __version__
from .graphs import (
    Graph,
    GraphError,
    bipartite_double_cover,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    figure7_graph,
    format_graph,
    heawood_graph,
    is_bipartite,
    parse_graph,
    petersen_graph,
    star,
    subdivision,
)
from .periodicity import MethodDisagreement, PeriodicityVerdict, decide_periodicity
from .scan import MAX_SCAN_EDGES, scan_periodicity
from .walks import (
    _entries_to_strings,
    block_identity_checks,
    build_bipartite_walk,
    build_grover_walk,
    grover_equals_bipartite_on_subdivision,
    grover_to_json,
    walk_to_json,
)

EXIT_PERIODIC = 0
EXIT_NONPERIODIC = 3
EXIT_DISAGREEMENT = 5
EXIT_USAGE = 1

FIXTURES = {
    "figure1": figure1_graph,
    "figure4a": figure4a_graph,
    "figure7": figure7_graph,
    "heawood": heawood_graph,
    "petersen": petersen_graph,
    "k11": lambda: complete_bipartite(1, 1),
    "k22": lambda: complete_bipartite(2, 2),
    "k33": lambda: complete_bipartite(3, 3),
    "c4": lambda: cycle(4),
    "c6": lambda: cycle(6),
    "c8": lambda: cycle(8),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_input(spec: str) -> Graph:
    """'-' reads stdin; a known fixture name is built in; else a file path.

    Every command needs a connected graph: one declaring more than |E| + 1
    vertices is rejected before any work linear in that count.
    """
    if spec in FIXTURES:
        return FIXTURES[spec]()
    try:
        if spec == "-":
            text = sys.stdin.read()
        else:
            with open(spec) as fh:
                text = fh.read()
    except FileNotFoundError:
        raise GraphError(
            f"input {spec!r} is neither a file, '-', nor one of: "
            + ", ".join(sorted(FIXTURES))
        ) from None
    except OSError as exc:
        raise GraphError(f"cannot read input {spec!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise GraphError(f"input {spec!r} is not a text edge list") from None
    g = parse_graph(text)
    if g.n > g.num_edges + 1:
        raise GraphError("graph is disconnected")
    return g


def _apply_transform(g: Graph, transform: str) -> tuple[Graph, str]:
    if transform in ("s", "subdivide"):
        return subdivision(g), "subdivide"
    if transform in ("d", "doublecover"):
        if is_bipartite(g):
            raise GraphError("doublecover of a bipartite graph is disconnected")
        return bipartite_double_cover(g), "doublecover"
    if transform == "none":
        return g, "none"
    raise GraphError(f"unknown transform {transform!r}")


def _kind_name(kind: str) -> str:
    if kind in ("b", "bipartite"):
        return "bipartite"
    if kind in ("g", "grover"):
        return "grover"
    raise GraphError(f"unknown walk kind {kind!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def verdict_to_dict(v: PeriodicityVerdict) -> dict:
    s, tw = v.spectral, v.trace_witness
    return {
        "periodic": v.periodic,
        "period": v.period,
        "trace_witness": {"k": tw[0], "value": tw[1]} if tw else None,
        "notes": list(v.notes),
        "spectral": None if s is None else {
            "status": s.status,
            "d0": s.d0,
            "d1": s.d1,
            "reason": s.reason,
            "eigenvalues": [
                {
                    "value": str(c.value),
                    "multiplicity": c.multiplicity,
                    "allowed": c.allowed,
                    "order": c.order,
                }
                for c in s.classifications
            ],
        },
    }


def analysis_report(
    input_desc: str,
    g: Graph,
    kind: str,
    transform: str,
    verdict: PeriodicityVerdict,
    elapsed: float,
) -> dict:
    dim = 2 * g.num_edges if kind == "grover" else g.num_edges
    return {
        "input": input_desc,
        "kind": kind,
        "transform": transform,
        "vertices": g.n,
        "edges": g.num_edges,
        "dim": dim,
        "verdict": verdict_to_dict(verdict),
        "timing_seconds": round(elapsed, 6),
    }


def _print_report(doc: dict, pretty: bool) -> None:
    if not pretty:
        print(json.dumps(doc))
        return
    v = doc["verdict"]
    print(f"input:     {doc['input']}  (n={doc['vertices']}, |E|={doc['edges']})")
    print(f"walk:      {doc['kind']} (dim {doc['dim']}), transform {doc['transform']}")
    print(f"periodic:  {v['periodic']}" + (f"  (period {v['period']})" if v["period"] else ""))
    if v["trace_witness"]:
        tw = v["trace_witness"]
        print(f"trace:     non-integral tr(U^{tw['k']}) = {tw['value']}")
    if v.get("spectral"):
        s = v["spectral"]
        print(f"spectral:  {s['status']} (d0={s['d0']}, d1={s['d1']})")
        name = "lambda" if doc["kind"] == "grover" else "lambda^2"
        for ev in s["eigenvalues"]:
            mark = "ok " if ev["allowed"] else "BAD"
            order = f" order {ev['order']}" if ev["order"] else ""
            print(f"  {mark} {name} = {ev['value']} (x{ev['multiplicity']}){order}")
    for note in v["notes"]:
        print(f"note:      {note}")
    print(f"time:      {doc['timing_seconds']}s")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    fam, p = args.family, args.params
    # each family's parameter count, and its graph from that many parameters
    families = {
        "cycle": (1, lambda k: cycle(int(k))),
        "complete_bipartite": (2, lambda a, b: complete_bipartite(int(a), int(b))),
        "star": (1, lambda k: star(int(k))),
        "circulant": (
            2,
            lambda n, c: circulant(int(n), [s * int(x) for x in c.split(",") for s in (1, -1)]),
        ),
        **{name: (0, fixture) for name, fixture in FIXTURES.items()},
    }
    if fam not in families:
        raise GraphError(f"unknown family {fam!r}")
    count, build = families[fam]
    try:
        if len(p) != count:
            raise ValueError(f"expected {count} parameter{'s' * (count != 1)}, got {len(p)}")
        g = build(*p)
    except ValueError as exc:
        raise GraphError(f"bad parameters for family {fam!r}: {exc}") from None
    sys.stdout.write(format_graph(g))
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    g = _resolve_input(args.input)
    g, _ = _apply_transform(g, args.transform)
    kind = _kind_name(args.kind)
    if kind == "bipartite":
        w = build_bipartite_walk(g)
        to_json, matrices = walk_to_json, [("P", w.P), ("Q", w.Q), ("U", w.U)]
    else:
        w = build_grover_walk(g)
        to_json, matrices = grover_to_json, [("R", w.R), ("K", w.K), ("U", w.U)]
    if args.pretty:
        print(f"{kind} walk, dim {w.dim}")
        for name, m in matrices:
            print(f"{name} =")
            for row in _entries_to_strings(m):
                print("  [" + "  ".join(f"{x:>6}" for x in row) + "]")
    else:
        print(to_json(w))
    return 0


def _report_disagreement(input_desc: str, exc: MethodDisagreement) -> int:
    print(f"method disagreement: {exc}", file=sys.stderr)
    print(json.dumps({"input": input_desc, "error": "method_disagreement", "detail": str(exc)}))
    return EXIT_DISAGREEMENT


def cmd_period(args: argparse.Namespace) -> int:
    g = _resolve_input(args.input)
    g, transform = _apply_transform(g, args.transform)
    kind = _kind_name(args.kind)
    start = time.perf_counter()
    try:
        verdict = decide_periodicity(g, kind=kind)
    except MethodDisagreement as exc:
        return _report_disagreement(args.input, exc)
    doc = analysis_report(args.input, g, kind, transform, verdict, time.perf_counter() - start)
    _print_report(doc, args.pretty)
    return EXIT_PERIODIC if verdict.periodic else EXIT_NONPERIODIC


def cmd_scan(args: argparse.Namespace) -> int:
    if not (1 <= args.max_edges <= MAX_SCAN_EDGES):
        raise GraphError(f"--max-edges must be between 1 and {MAX_SCAN_EDGES}")
    try:
        for g, verdict in scan_periodicity(args.max_edges):
            b = bipartition(g)
            n0, n1 = len(b.c0), len(b.c1)
            desc = f"biregular n0={n0} n1={n1} edges={g.num_edges}"
            doc = analysis_report(desc, g, "bipartite", "none", verdict, 0.0)
            doc["edge_list"] = [list(e) for e in g.edges]
            del doc["timing_seconds"]
            if args.pretty:
                tau = verdict.period if verdict.periodic else "-"
                print(f"{desc:40s} periodic={verdict.periodic} tau={tau}")
            else:
                print(json.dumps(doc))
    except MethodDisagreement as exc:
        return _report_disagreement(f"scan --max-edges {args.max_edges}", exc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _resolve_input(args.input)
    gw = build_grover_walk(g)  # one U_GW(g) serves every check
    checks: dict[str, bool] = {}
    ok, _ = grover_equals_bipartite_on_subdivision(gw)
    checks["grover_equals_bipartite_on_subdivision"] = ok
    if is_bipartite(g):
        for k, ok in enumerate(block_identity_checks(gw, 4), 1):
            checks[f"block_identity_k{k}"] = ok
    all_ok = all(checks.values())
    if args.pretty:
        for name, passed in checks.items():
            print(f"{'pass' if passed else 'FAIL'}  {name}")
    else:
        print(json.dumps({"input": args.input, "checks": checks, "all_pass": all_ok}))
    return 0 if all_ok else EXIT_USAGE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qwalk", description="Quantum walk periodicity toolkit")
    p.add_argument("--version", action="version", version=f"qwalk {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a named graph as edge-list text")
    gen.add_argument("family")
    gen.add_argument("params", nargs="*")
    gen.set_defaults(func=cmd_gen)

    def add_common(sp, with_kind=True):
        sp.add_argument("input", help="file path, '-' for stdin, or fixture name")
        if with_kind:
            sp.add_argument("--kind", default="bipartite", help="b|bipartite or g|grover")
            sp.add_argument(
                "--transform",
                default="none",
                help="none, s|subdivide, or d|doublecover",
            )
        sp.add_argument("--pretty", action="store_true", help="human-readable output")

    walk = sub.add_parser("walk", help="construct and emit a walk operator")
    add_common(walk)
    walk.set_defaults(func=cmd_walk)

    period = sub.add_parser("period", help="decide periodicity")
    add_common(period)
    period.set_defaults(func=cmd_period)

    scan = sub.add_parser("scan", help="scan small biregular bipartite graphs")
    scan.add_argument("--max-edges", type=int, required=True)
    scan.add_argument("--pretty", action="store_true")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify", help="check the structural identities")
    add_common(verify, with_kind=False)
    verify.set_defaults(func=cmd_verify)

    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main rather than at import;
    parse_args keeps no state between calls."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"qwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit writes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
