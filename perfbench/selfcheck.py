"""Self-check of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. The metric names and units the benchmark prints, and its workload
   names, are exactly those in BENCHMARK.json.
2. The stored known answers agree with the sympy route, which also gives
   tau = 30 for figure7 x K2.
3. cubic10.json holds 17 connected, non-bipartite, pairwise
   non-isomorphic cubic graphs on 10 vertices.
4. The checker accepts qwalk's real outputs and rejects each of them once
   its known answer (or the output itself) is deliberately corrupted.

Exits 1 and names the failing checks if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx

import known_answers as ka
import run
import spans
import speed
import workloads as wl

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end metric names and units match BENCHMARK.json")
    printed = {name: spans.unit_of(name) for name in spans.metric_names()}
    expect(layer == printed, "per-layer metric names and units match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
           "workload names match BENCHMARK.json")


def check_known_answers() -> None:
    for label, g, opts, tau in wl.PERIODIC_LADDER:
        got = ka.walk_period(ka.walk_graph(g, opts))
        expect(got == (True, tau), f"sympy route gives tau = {tau} for {label} ({got})")
    for label, g, opts in (("heawood", wl.HEAWOOD, ()), ("petersen-g", wl.PETERSEN, ("--kind", "g"))):
        expect(ka.walk_period(ka.walk_graph(g, opts)) == (False, None), f"sympy route: {label} non-periodic")
    got = ka.walk_period(ka.double_cover(wl.FIGURE7))
    expect(got == (True, 30), f"sympy route gives tau = 30 for figure7 x K2 ({got})")


def check_cubic10() -> None:
    graphs = []
    for g in wl.cubic10():
        h = nx.Graph(list(g.edges))
        expect(h.number_of_nodes() == 10 and all(d == 3 for _, d in h.degree())
               and nx.is_connected(h) and not nx.is_bipartite(h), f"cubic10 graph {len(graphs)} is valid")
        graphs.append(h)
    expect(len(graphs) == 17, "cubic10.json holds 17 graphs")
    expect(not any(nx.is_isomorphic(a, b) for a, b in combinations(graphs, 2)),
           "cubic10 graphs are pairwise non-isomorphic")


def check_reference_seconds() -> None:
    meter = speed.Speedometer()
    meter.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    meter.durations = [speed.REFERENCE_S] * 4 + [2 * speed.REFERENCE_S] * 2
    expect(abs(meter.reference_seconds(0.5, 2.5) - (2 - 2 * speed.REFERENCE_S)) < 1e-12,
           "at reference speed, reference seconds are wall seconds less the kernel's own")
    # the four samples nearest to [4.2, 4.6) ran two at full and two at half speed
    expect(abs(meter.reference_seconds(4.2, 4.6) - 0.4 * 0.75) < 1e-12,
           "a short interval is rated by the samples nearest to it")


def check_rejections(directory: Path) -> None:
    sys.path.insert(0, str(run.SRC))
    runner = run.Runner(deadline=float("inf"))
    by_label = {}
    for name in wl.WORKLOADS:
        commands, _ = wl.build(name, 0, directory / name)
        by_label.update({c.label: c for c in commands})

    def outcome(cmd):
        out, _span, failure = runner.run(cmd)
        if failure:
            raise RuntimeError(f"{cmd.label}: {failure}")
        return out

    cases = [
        (by_label["C24"], lambda c: dataclasses.replace(c, expect={"periodic": True, "period": 13}), None),
        (by_label["cubic10-00-d"], lambda c: dataclasses.replace(c, expect={"periodic": True, "period": 2}), None),
        (by_label["heawood-states"], lambda c: dataclasses.replace(c, expect={"every_state_periodic": True}), None),
        (by_label["K33-verify"], lambda c: dataclasses.replace(c, expect={"all_pass": True, "bipartite": False}), None),
        (by_label["scan-10"], lambda c: dataclasses.replace(c, expect={**c.expect, "classes": 17}), None),
        (by_label["C8-walk-b"], None, lambda o: dataclasses.replace(o, stdout=o.stdout.replace('"1/2"', '"1/3"', 1))),
        (by_label["petersen-walk-g"], None, lambda o: dataclasses.replace(o, stdout=o.stdout.replace('"-1/3"', '"1/3"', 1))),
    ]
    for cmd, corrupt_answer, corrupt_output in cases:
        out = outcome(cmd)
        expect(not ka.check(cmd, out).wrong, f"{cmd.label}: real output accepted")
        bad_cmd = corrupt_answer(cmd) if corrupt_answer else cmd
        bad_out = corrupt_output(out) if corrupt_output else out
        verdict = ka.check(bad_cmd, bad_out)
        expect(verdict.wrong, f"{cmd.label}: corrupted known answer rejected ({verdict.detail[:70]})")


def main() -> int:
    check_metric_names()
    check_known_answers()
    check_cubic10()
    check_reference_seconds()
    check_rejections(run.OUT / "selfcheck")
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
