"""Command-line front end.

Subcommands: gen, walk, period, scan, verify.  Structured output is JSON
Lines (one object per line); --pretty switches to human-readable text.

Exit codes: 0 periodic / success, 3 non-periodic, 4 inconclusive,
5 internal method disagreement, 1 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    bipartite_double_cover,
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
from .periodicity import (
    DEFAULT_CAP,
    MethodDisagreement,
    PeriodicityVerdict,
    decide_periodicity,
)
from .scan import MAX_SCAN_EDGES, scan_periodicity
from .walks import (
    block_identity_check,
    build_bipartite_walk,
    build_grover_walk,
    grover_equals_bipartite_on_subdivision,
    grover_to_json,
    walk_to_json,
)

EXIT_PERIODIC = 0
EXIT_NONPERIODIC = 3
EXIT_INCONCLUSIVE = 4
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
    """'-' reads stdin; a known fixture name is built in; else a file path."""
    if spec == "-":
        return parse_graph(sys.stdin.read())
    if spec in FIXTURES:
        return FIXTURES[spec]()
    try:
        with open(spec) as fh:
            return parse_graph(fh.read())
    except FileNotFoundError:
        raise GraphError(
            f"input {spec!r} is neither a file, '-', nor one of: "
            + ", ".join(sorted(FIXTURES))
        ) from None


def _apply_transform(g: Graph, transform: str) -> tuple[Graph, Optional[Bipartition], str]:
    if transform in ("s", "subdivide"):
        sg, sb = subdivision(g)
        return sg, sb, "subdivide"
    if transform in ("d", "doublecover"):
        if is_bipartite(g):
            raise GraphError("doublecover of a bipartite graph is disconnected")
        dg, db = bipartite_double_cover(g)
        return dg, db, "doublecover"
    if transform == "none":
        return g, None, "none"
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
    doc: dict = {
        "periodic": v.periodic,
        "period": v.period,
        "oracle": {"ran": v.oracle_ran, "period": v.oracle_period},
        "phase_period": v.phase_period,
        "trace_witness": (
            {"k": v.trace_witness[0], "value": v.trace_witness[1]}
            if v.trace_witness
            else None
        ),
        "notes": list(v.notes),
    }
    if v.spectral is not None:
        doc["spectral"] = {
            "status": v.spectral.status,
            "d0": v.spectral.d0,
            "d1": v.spectral.d1,
            "reason": v.spectral.reason,
            "eigenvalues": [
                {
                    "value": str(c.value),
                    "multiplicity": c.multiplicity,
                    "allowed": c.allowed,
                    "order": c.order,
                }
                for c in v.spectral.classifications
            ],
        }
    else:
        doc["spectral"] = None
    return doc


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
    if v["oracle"]["ran"]:
        print(f"oracle:    period {v['oracle']['period']}")
    if v["phase_period"] is not None:
        print(f"phases:    period {v['phase_period']}")
    if v["trace_witness"]:
        tw = v["trace_witness"]
        print(f"trace:     non-integral tr(U^{tw['k']}) = {tw['value']}")
    if v.get("spectral"):
        s = v["spectral"]
        print(f"spectral:  {s['status']} (d0={s['d0']}, d1={s['d1']})")
        for ev in s["eigenvalues"]:
            mark = "ok " if ev["allowed"] else "BAD"
            order = f" order {ev['order']}" if ev["order"] else ""
            print(f"  {mark} lambda^2 = {ev['value']} (x{ev['multiplicity']}){order}")
    for note in v["notes"]:
        print(f"note:      {note}")
    print(f"time:      {doc['timing_seconds']}s")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    fam, params = args.family, args.params
    try:
        if fam == "cycle":
            g = cycle(int(params[0]))
        elif fam == "complete_bipartite":
            g = complete_bipartite(int(params[0]), int(params[1]))
        elif fam == "star":
            g = star(int(params[0]))
        elif fam == "circulant":
            conn = [int(x) for x in params[1].split(",")]
            g = circulant(int(params[0]), conn + [-c for c in conn])
        elif fam in FIXTURES:
            g = FIXTURES[fam]()
        else:
            raise GraphError(f"unknown family {fam!r}")
    except (IndexError, ValueError) as exc:
        raise GraphError(f"bad parameters for family {fam!r}: {exc}") from None
    sys.stdout.write(format_graph(g))
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    g = _resolve_input(args.input)
    g, b, _ = _apply_transform(g, args.transform)
    kind = _kind_name(args.kind)
    if kind == "bipartite":
        w = build_bipartite_walk(g, b)
        doc = walk_to_json(w)
        matrices = [("P", w.P), ("Q", w.Q), ("U", w.U)]
    else:
        w = build_grover_walk(g)
        doc = grover_to_json(w)
        matrices = [("R", w.R), ("K", w.K), ("U", w.U)]
    if args.pretty:
        print(f"{kind} walk, dim {w.dim}")
        for name, m in matrices:
            print(f"{name} =")
            for row in m.data:
                print("  [" + "  ".join(f"{str(x):>6}" for x in row) + "]")
    else:
        print(doc)
    return 0


def _exit_for(verdict: PeriodicityVerdict) -> int:
    if verdict.periodic is True:
        return EXIT_PERIODIC
    if verdict.periodic is False:
        return EXIT_NONPERIODIC
    return EXIT_INCONCLUSIVE


def _report_disagreement(input_desc: str, exc: MethodDisagreement) -> int:
    print(f"method disagreement: {exc}", file=sys.stderr)
    print(json.dumps({"input": input_desc, "error": "method_disagreement", "detail": str(exc)}))
    return EXIT_DISAGREEMENT


def cmd_period(args: argparse.Namespace) -> int:
    g = _resolve_input(args.input)
    g, _, transform = _apply_transform(g, args.transform)
    kind = _kind_name(args.kind)
    methods = tuple(args.methods.split(","))
    bad = set(methods) - {"oracle", "spectral", "phases", "trace"}
    if bad:
        raise GraphError(f"unknown methods: {', '.join(sorted(bad))}")
    start = time.perf_counter()
    try:
        verdict = decide_periodicity(g, kind=kind, cap=args.cap, methods=methods)
    except MethodDisagreement as exc:
        return _report_disagreement(args.input, exc)
    doc = analysis_report(args.input, g, kind, transform, verdict, time.perf_counter() - start)
    _print_report(doc, args.pretty)
    return _exit_for(verdict)


def cmd_scan(args: argparse.Namespace) -> int:
    if not (1 <= args.max_edges <= MAX_SCAN_EDGES):
        raise GraphError(f"--max-edges must be between 1 and {MAX_SCAN_EDGES}")
    try:
        for g, b, verdict in scan_periodicity(args.max_edges, cap=args.cap):
            n0, n1 = len(b.c0), len(b.c1)
            desc = f"biregular n0={n0} n1={n1} edges={g.num_edges}"
            doc = analysis_report(desc, g, "bipartite", "none", verdict, 0.0)
            doc["edge_list"] = [list(e) for e in g.edges]
            del doc["timing_seconds"]
            if args.pretty:
                tau = verdict.period if verdict.periodic is True else "-"
                print(f"{desc:40s} periodic={verdict.periodic} tau={tau}")
            else:
                print(json.dumps(doc))
    except MethodDisagreement as exc:
        return _report_disagreement(f"scan --max-edges {args.max_edges}", exc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _resolve_input(args.input)
    checks: dict[str, bool] = {}
    ok, _ = grover_equals_bipartite_on_subdivision(g)
    checks["grover_equals_bipartite_on_subdivision"] = ok
    if is_bipartite(g):
        for k in range(1, 5):
            checks[f"block_identity_k{k}"] = block_identity_check(g, k)
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
    period.add_argument("--cap", type=int, default=DEFAULT_CAP)
    period.add_argument("--methods", default="oracle,spectral,phases,trace")
    period.set_defaults(func=cmd_period)

    scan = sub.add_parser("scan", help="scan small biregular bipartite graphs")
    scan.add_argument("--max-edges", type=int, required=True)
    scan.add_argument("--cap", type=int, default=DEFAULT_CAP)
    scan.add_argument("--pretty", action="store_true")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify", help="check the structural identities")
    add_common(verify, with_kind=False)
    verify.set_defaults(func=cmd_verify)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"qwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
