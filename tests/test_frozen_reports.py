"""Frozen reports: a sha256 per command of the exit code, the JSON report
with `timing_seconds` dropped, and stderr, for `qwalk period` on every
fixture, C3..C24 and the paw graph, each with --kind b|g and
--transform none|s|d (204 commands), and one for the whole stream of
`qwalk scan --max-edges 12`.

The digests in frozen_reports.json are fixed: any change to a verdict,
period, certificate field, note or error message shows here, whichever
route computes it.  To recompute them on purpose:

    PYTHONPATH=src python tests/test_frozen_reports.py tests/frozen_reports.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qwalk.cli import FIXTURES, main
from qwalk.graphs import Graph, cycle, format_graph

FROZEN = Path(__file__).resolve().parent / "frozen_reports.json"

EDGE_LISTS = {f"C{n}": format_graph(cycle(n)) for n in range(3, 25)}
EDGE_LISTS["paw"] = format_graph(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
INPUTS = sorted(FIXTURES) + list(EDGE_LISTS)


def _run(argv: list[str], stdin_text=None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def period_digests(name: str) -> dict[str, str]:
    """The six `qwalk period` digests of one input, read from stdin ('-')
    unless it is a fixture."""
    spec = name if name in FIXTURES else "-"
    digests = {}
    for kind in "bg":
        for transform in ("none", "s", "d"):
            argv = ["period", spec, "--kind", kind, "--transform", transform]
            code, out, err = _run(argv, EDGE_LISTS.get(name))
            docs = [json.loads(line) for line in out.splitlines()]
            for doc in docs:
                doc.pop("timing_seconds", None)
            text = f"{code}\n" + "".join(json.dumps(doc) + "\n" for doc in docs) + err
            key = f"{name} --kind {kind} --transform {transform}"
            digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def scan_digest() -> str:
    code, out, err = _run(["scan", "--max-edges", "12"])
    return hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()


def _frozen() -> dict:
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("name", INPUTS)
def test_period_reports_are_frozen(name):
    frozen = _frozen()["period"]
    expected = {k: v for k, v in frozen.items() if k.split(" ")[0] == name}
    assert len(expected) == 6
    assert period_digests(name) == expected


def test_every_frozen_period_command_is_run():
    assert len(_frozen()["period"]) == 6 * len(INPUTS) == 204


def test_scan_stream_is_frozen():
    assert scan_digest() == _frozen()["scan --max-edges 12"]


if __name__ == "__main__":
    period = {}
    for name in INPUTS:
        period.update(period_digests(name))
    doc = {"period": period, "scan --max-edges 12": scan_digest()}
    Path(sys.argv[1]).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
