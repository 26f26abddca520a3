"""Frozen reports: a sha256 per command of the exit code, the JSON report
with `timing_seconds` dropped, and stderr, for `qwalk period` on every
fixture, C3..C24 and the paw graph, each with --kind b|g and
--transform none|s|d (204 commands), and one for the whole stream of
`qwalk scan --max-edges 12`.

The digests are fixed: any change to a verdict, period, certificate field,
note or error message shows here, whichever route computes it.
frozen_reports_v3.json holds the digests of today's reports.  The two
older files are never recomputed, and their sha256 is pinned here:

- frozen_reports_v2.json holds those of the reports from before a Grover
  report took its spectral d0 and d1 from bipartition(S(g)), which puts
  g's vertices in c0: they were (2, d) and are (d, 2).  Today's reports,
  mapped back by to_v2, must match it.
- frozen_reports.json holds those from before the reports dropped `oracle`
  and `phase_period`, two copies of `period`.  Today's reports, mapped
  back by to_v2 and then to_old, must match it.

Every report is also validated against report_schema.json.  To recompute
frozen_reports_v3.json, and only it, on purpose:

    PYTHONPATH=src python tests/test_frozen_reports.py
"""

import contextlib
import hashlib
import io
import json
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from qwalk.cli import EXIT_USAGE, FIXTURES, main
from qwalk.graphs import Graph, cycle, format_graph

HERE = Path(__file__).resolve().parent
FROZEN_V1 = HERE / "frozen_reports.json"
FROZEN_V2 = HERE / "frozen_reports_v2.json"
FROZEN = HERE / "frozen_reports_v3.json"
PINNED = {
    FROZEN_V1: "1976781c82a616d49f4752c3e79e751064dc37f6e474e9610c47b6403765180b",
    FROZEN_V2: "361449a33681ffb33d63b9d4b4dcc507d1403378b6697965e76bdde62cf27130",
}
# the commands whose reports changed from v2 to v3: the Grover walks on a
# regular input, the ones whose report has a spectral table
CHANGED_IN_V3 = {
    f"{name} --kind g --transform {transform}"
    for name, transform in (
        ("figure7", "none"), ("figure7", "d"), ("heawood", "none"), ("k11", "none"),
        ("k33", "none"), ("petersen", "none"), ("petersen", "d"),
    )
}

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


def to_v2(doc: dict) -> dict:
    """The report as it was before a Grover report took the orientation of
    bipartition(S(g)): the values of `d0` and `d1` in its spectral table
    swap back, in place, so (d, 2) reads (2, d) again.  Any other document
    is returned as it is."""
    s = doc.get("verdict", {}).get("spectral")
    if doc.get("kind") != "grover" or s is None:
        return doc
    s = {**s, "d0": s["d1"], "d1": s["d0"]}
    return {**doc, "verdict": {**doc["verdict"], "spectral": s}}


def to_v1(doc: dict) -> dict:
    """The report in frozen_reports.json's form: to_v2, then to_old."""
    return to_old(to_v2(doc))


def to_old(doc: dict) -> dict:
    """The report as it was before its verdict dropped two copies of the
    period: `"oracle": {"ran": true, "period": p}` and `"phase_period": p`
    go back in right after `"period": p`, where they stood.  A document
    with no verdict (an error report) is returned as it is."""
    if "verdict" not in doc:
        return doc
    verdict = {}
    for key, value in doc["verdict"].items():
        verdict[key] = value
        if key == "period":
            verdict["oracle"] = {"ran": True, "period": value}
            verdict["phase_period"] = value
    return {key: verdict if key == "verdict" else value for key, value in doc.items()}


@lru_cache(maxsize=None)
def _period_runs(name: str) -> tuple[tuple[str, int, tuple[str, ...], str], ...]:
    """(key, exit code, report lines, stderr) of the six `qwalk period`
    commands of one input, read from stdin ('-') unless it is a fixture."""
    spec = name if name in FIXTURES else "-"
    runs = []
    for kind in "bg":
        for transform in ("none", "s", "d"):
            argv = ["period", spec, "--kind", kind, "--transform", transform]
            code, out, err = _run(argv, EDGE_LISTS.get(name))
            key = f"{name} --kind {kind} --transform {transform}"
            runs.append((key, code, tuple(out.splitlines()), err))
    return tuple(runs)


def period_digests(name: str, mapped=lambda doc: doc) -> dict[str, str]:
    """The six `qwalk period` digests of one input, each report passed
    through mapped before it is hashed."""
    digests = {}
    for key, code, lines, err in _period_runs(name):
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            doc.pop("timing_seconds", None)
        text = f"{code}\n" + "".join(json.dumps(mapped(doc)) + "\n" for doc in docs) + err
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@lru_cache(maxsize=None)
def _scan_run() -> tuple[int, str, str]:
    return _run(["scan", "--max-edges", "12"])


def scan_digest(mapped=None) -> str:
    code, out, err = _scan_run()
    if mapped is not None:
        out = "".join(json.dumps(mapped(json.loads(line))) + "\n" for line in out.splitlines())
    return hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()


def _frozen(path: Path = FROZEN) -> dict:
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def schema():
    with resources.files("qwalk").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", INPUTS)
def test_period_reports_are_frozen(name):
    frozen = _frozen()["period"]
    expected = {k: v for k, v in frozen.items() if k.split(" ")[0] == name}
    assert len(expected) == 6
    assert period_digests(name) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_period_reports_map_back_to_the_v2_digests(name):
    frozen = _frozen(FROZEN_V2)["period"]
    expected = {k: v for k, v in frozen.items() if k.split(" ")[0] == name}
    assert len(expected) == 6
    assert period_digests(name, to_v2) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_period_reports_map_back_to_the_old_digests(name):
    frozen = _frozen(FROZEN_V1)["period"]
    expected = {k: v for k, v in frozen.items() if k.split(" ")[0] == name}
    assert len(expected) == 6
    assert period_digests(name, to_v1) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_period_reports_validate(name, schema):
    for key, code, lines, err in _period_runs(name):
        if code == EXIT_USAGE:  # an input error: a message, no report
            assert lines == () and err, key
            continue
        (line,) = lines
        doc = json.loads(line)
        jsonschema.validate(doc, schema)
        assert doc["verdict"]["periodic"] is (code == 0), key


def test_every_frozen_period_command_is_run():
    assert len(_frozen()["period"]) == 6 * len(INPUTS) == 204
    assert _frozen()["period"].keys() == _frozen(FROZEN_V2)["period"].keys()
    assert _frozen()["period"].keys() == _frozen(FROZEN_V1)["period"].keys()


@pytest.mark.parametrize("path", sorted(PINNED), ids=lambda p: p.name)
def test_old_digest_files_are_pinned(path):
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[path]


def test_only_the_grover_tables_changed_in_v3():
    new, old = _frozen(), _frozen(FROZEN_V2)
    assert {k for k, v in new["period"].items() if old["period"][k] != v} == CHANGED_IN_V3
    assert new["scan --max-edges 12"] == old["scan --max-edges 12"]


def test_scan_stream_is_frozen():
    assert scan_digest() == _frozen()["scan --max-edges 12"]


def test_scan_stream_maps_back_to_the_old_digest():
    assert scan_digest(to_v2) == _frozen(FROZEN_V2)["scan --max-edges 12"]
    assert scan_digest(to_v1) == _frozen(FROZEN_V1)["scan --max-edges 12"]


def test_scan_stream_validates(schema):
    code, out, err = _scan_run()
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 27
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


def test_schema_rejects_a_dropped_field(schema):
    _, _, lines, _ = _period_runs("c6")[0]
    old = to_old(json.loads(lines[0]))
    with pytest.raises(jsonschema.ValidationError, match="oracle"):
        jsonschema.validate(old, schema)
    with pytest.raises(jsonschema.ValidationError, match="extra"):
        jsonschema.validate({**json.loads(lines[0]), "extra": 1}, schema)


if __name__ == "__main__":
    period = {}
    for name in INPUTS:
        period.update(period_digests(name))
    doc = {"period": period, "scan --max-edges 12": scan_digest()}
    FROZEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
