import argparse
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import qwalk.periodicity
import qwalk.walks
from qwalk.cli import EXIT_DISAGREEMENT, FIXTURES, build_parser, main
from qwalk.exact import quadratic_from_string
from qwalk.graphs import (
    Graph,
    bipartite_double_cover,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    format_graph,
    parse_graph,
    path,
    star,
    subdivision,
)
from qwalk.periodicity import MethodDisagreement, decide_periodicity
from qwalk.walks import build_bipartite_walk, build_grover_walk, walk_from_json

P5 = format_graph(path(5))
CIRCULANT7 = circulant(7, [1, 2, -1, -2])  # 4-regular, its walks not periodic


@pytest.fixture(scope="module")
def schema():
    with resources.files("qwalk").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "6")
        assert code == 0
        assert parse_graph(out).num_edges == 6

    def test_figure1(self, capsys):
        code, out, _ = run(capsys, "gen", "figure1")
        assert code == 0
        assert parse_graph(out) == figure1_graph()

    def test_circulant(self, capsys):
        code, out, _ = run(capsys, "gen", "circulant", "10", "1,4")
        assert code == 0
        assert parse_graph(out) == circulant(10, [1, 4, -1, -4])

    def test_unknown_family(self, capsys):
        code, out, err = run(capsys, "gen", "moebius")
        assert (code, out, err) == (1, "", "qwalk: error: unknown family 'moebius'\n")

    def test_circulant_without_vertices_is_an_error_line(self, capsys):
        code, out, err = run(capsys, "gen", "circulant", "0", "1")
        assert code == 1 and out == ""
        assert err.startswith("qwalk: error: ") and err.count("\n") == 1
        assert "vertex count must be positive" in err

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "two")
        assert code == 1

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("cycle", "6", "7"), "'cycle': expected 1 parameter, got 2"),
            (("cycle",), "'cycle': expected 1 parameter, got 0"),
            (("petersen", "5"), "'petersen': expected 0 parameters, got 1"),
            (("complete_bipartite", "2", "3", "9"), "'complete_bipartite': expected 2 parameters, got 3"),
        ],
    )
    def test_wrong_parameter_count(self, capsys, argv, expected):
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (1, "", f"qwalk: error: bad parameters for family {expected}\n")


class TestWalk:
    def test_figure1_operator_round_trips(self, capsys):
        code, out, _ = run(capsys, "walk", "figure1", "--kind", "b")
        assert code == 0
        w = walk_from_json(out)
        assert w.dim == 7
        assert str(w.U[0, 1]) == "-1/3"

    def test_stdin_input(self, capsys, monkeypatch):
        text = format_graph(figure1_graph())
        code, out, _ = run(capsys, "walk", "-", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert walk_from_json(out).graph == figure1_graph()

    def test_doublecover_transform(self, capsys):
        code, out, _ = run(capsys, "walk", "figure7", "--transform", "d")
        assert code == 0
        assert walk_from_json(out).dim == 32

    def test_doublecover_of_bipartite_rejected(self, capsys):
        code, _, err = run(capsys, "walk", "c6", "--transform", "d")
        assert code == 1 and "disconnected" in err

    def test_grover_kind(self, capsys):
        code, out, _ = run(capsys, "walk", "k11", "--kind", "g")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "grover" and doc["dim"] == 2

    def test_pretty_mode(self, capsys):
        code, out, _ = run(capsys, "walk", "k22", "--pretty")
        assert code == 0 and "U =" in out

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("kind", ["b", "g"])
    def test_pretty_entries_are_the_fractions(self, capsys, name, kind):
        """Each --pretty row holds str(Fraction) of its entries, right-aligned
        in six columns, for the three matrices of the walk."""
        code, out, _ = run(capsys, "walk", name, "--kind", kind, "--pretty")
        if code:
            assert (name, kind) in {("figure7", "b"), ("petersen", "b")}
            return
        g = FIXTURES[name]()
        w = build_bipartite_walk(g) if kind == "b" else build_grover_walk(g)
        matrices = (w.P, w.Q, w.U) if kind == "b" else (w.R, w.K, w.U)
        rows = [
            "  [" + "  ".join(f"{str(x):>6}" for x in row) + "]" for m in matrices for row in m.data
        ]
        assert [ln for ln in out.splitlines() if ln.startswith("  [")] == rows

    def test_a_closed_stdout_exits_1_with_an_empty_stderr(self, tmp_path):
        """A reader that closes after one byte of the walk JSON of K_{15,15},
        about 1 MB and past any pipe buffer: exit 1, and no traceback."""
        path = tmp_path / "k15_15.txt"
        path.write_text(format_graph(complete_bipartite(15, 15)))
        src = str(Path(qwalk.walks.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwalk.cli", "walk", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")

    @pytest.mark.parametrize("g", [star(3), figure4a_graph(), cycle(5)], ids=["star3", "figure4a", "c5"])
    @pytest.mark.parametrize("pretty", [(), ("--pretty",)], ids=["json", "pretty"])
    def test_subdivide_transform_matches_the_subdivision_read_from_a_file(
        self, capsys, tmp_path, g, pretty
    ):
        """`walk g --transform s` prints what `walk` prints on S(g) read
        from a file: the same c0 (vertex 0's class), P and Q."""
        g_file, sg_file = tmp_path / "g.txt", tmp_path / "sg.txt"
        g_file.write_text(format_graph(g))
        sg_file.write_text(format_graph(subdivision(g)))
        transformed = run(capsys, "walk", str(g_file), "--transform", "s", *pretty)
        assert transformed == run(capsys, "walk", str(sg_file), *pretty)
        assert transformed[0] == 0
        if not pretty:
            assert 0 in json.loads(transformed[1])["c0"]


class TestPeriod:
    def test_periodic_exit_code(self, capsys, schema):
        code, out, _ = run(capsys, "period", "c6")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["verdict"]["period"] == 3

    def test_non_periodic_exit_code(self, capsys, schema):
        code, out, _ = run(capsys, "period", "figure1")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["verdict"]["trace_witness"] == {"k": 1, "value": "-1/3"}

    def test_grover_k22(self, capsys):
        code, out, _ = run(capsys, "period", "k22", "--kind", "grover")
        assert code == 0
        assert json.loads(out)["verdict"]["period"] == 4

    @pytest.mark.parametrize(
        "argv,g,adjacencies,searches",
        [
            (("--transform", "d"), CIRCULANT7, 2, 2),  # the input and its double cover
            # a Grover walk builds and searches only the graph it walks on,
            # S(g) (S(S(g)) after --transform s): 2-colouring it checks that
            # g is connected, and its Gram rows give the one char-poly
            (("--kind", "g"), CIRCULANT7, 1, 1),
            (("--transform", "s", "--kind", "g"), CIRCULANT7, 1, 1),
            (("--kind", "g"), complete_bipartite(3, 3), 1, 1),  # periodic: T on S(g)
            (("--transform", "s", "--kind", "g"), complete_bipartite(3, 3), 1, 1),
        ],
        ids=["d", "g", "s-g", "g-periodic", "s-g-periodic"],
    )
    def test_one_adjacency_and_one_search_per_graph(
        self, capsys, monkeypatch, argv, g, adjacencies, searches
    ):
        """Each of the two graphs a command makes builds its adjacency and
        runs its one search, which gives both its connectivity and its
        2-colouring, at most once, however often the layers ask, and counts
        its degrees and 2-colours itself at most once."""
        calls = {"_adjacency": [], "_search": [], "_connected": [], "_degrees": [], "_colouring": []}
        for name, record in calls.items():
            prop = Graph.__dict__[name]
            monkeypatch.setattr(prop, "func", lambda g, f=prop.func, r=record: r.append(g) or f(g))
        code, _, _ = run(capsys, "period", "-", *argv, stdin=format_graph(g), monkeypatch=monkeypatch)
        assert code == (3 if g is CIRCULANT7 else 0)
        for name, count in (
            ("_adjacency", adjacencies), ("_search", searches), ("_connected", searches)
        ):
            assert len(calls[name]) == len({id(g) for g in calls[name]}) == count, name
        degrees, colourings = calls["_degrees"], calls["_colouring"]
        assert 0 < len(degrees) == len({id(g) for g in degrees}) <= 2
        assert len(colourings) == len({id(g) for g in colourings}) <= 2

    def test_double_cover_is_not_bipartitioned_again(self, capsys, monkeypatch):
        """`period --transform d` 2-colours its input once, to reject a
        bipartite one, and the cover once: a periodic verdict's certificate
        reads the colouring the decider left cached on the cover."""
        seen = []
        prop = Graph.__dict__["_colouring"]
        monkeypatch.setattr(prop, "func", lambda g, f=prop.func: seen.append(g) or f(g))
        for name, code in (("petersen", 3), ("figure7", 0), ("k33", 1)):
            seen.clear()
            assert run(capsys, "period", name, "--transform", "d")[0] == code
            g = FIXTURES[name]()
            assert seen == ([g] if code == 1 else [g, bipartite_double_cover(g)]), name

    def test_subdivided_circulant(self, capsys, monkeypatch):
        text = format_graph(circulant(10, [1, 4, -1, -4]))
        code, out, _ = run(
            capsys, "period", "-", "--transform", "s", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["verdict"]["period"] == 20

    def test_exact_strings_parse_back(self, capsys, monkeypatch):
        text = format_graph(circulant(10, [1, 4, -1, -4]))
        code, out, _ = run(
            capsys, "period", "-", "--transform", "s", stdin=text, monkeypatch=monkeypatch
        )
        values = [
            quadratic_from_string(ev["value"])
            for ev in json.loads(out)["verdict"]["spectral"]["eigenvalues"]
        ]
        irrational = [v for v in values if not v.is_rational]
        assert irrational and all(v.m == 5 for v in irrational)

    def test_path_decided_without_a_cap(self, capsys, schema, monkeypatch):
        # P_5 is not biregular, so no spectral table: q alone gives period 4
        code, out, _ = run(capsys, "period", "-", stdin=P5, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["verdict"]["periodic"] is True
        assert doc["verdict"]["period"] == 4

    def test_pretty_labels_grover_eigenvalues(self, capsys):
        # a Grover table lists adjacency eigenvalues lambda, not squares
        code, out, _ = run(capsys, "period", "k33", "--kind", "g", "--pretty")
        assert code == 0
        assert "lambda = -3 (x1) order 2" in out and "lambda^2" not in out
        code, out, _ = run(capsys, "period", "c6", "--pretty")
        assert code == 0 and "lambda^2 = 1 (x2) order 3" in out

    def test_method_disagreement(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise MethodDisagreement("forced")

        monkeypatch.setattr("qwalk.cli.decide_periodicity", disagree)
        code, out, err = run(capsys, "period", "c6")
        assert code == EXIT_DISAGREEMENT
        assert json.loads(out) == {"input": "c6", "error": "method_disagreement", "detail": "forced"}
        assert "method disagreement: forced" in err

    def test_unknown_method(self, capsys):
        # every route always runs: there is no method switch to select one
        with pytest.raises(SystemExit) as exc:
            main(["period", "c6", "--methods", "oracle"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --methods" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["b", "g"])
    @pytest.mark.parametrize("transform", ["none", "s"])
    def test_edgeless_single_vertex(self, capsys, monkeypatch, kind, transform):
        options = ["--kind", kind, "--transform", transform]
        for argv in (["period", "-", *options], ["walk", "-", *options], ["verify", "-"]):
            code, out, err = run(capsys, *argv, stdin="1\n", monkeypatch=monkeypatch)
            assert code == 1 and out == "", argv
            assert err == "qwalk: error: graph has no edges\n", argv

    def test_unknown_input(self, capsys):
        code, _, err = run(capsys, "period", "no_such_file.edges")
        assert code == 1 and "neither a file" in err

    def test_unreadable_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "period", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("qwalk: error: cannot read input")

    def test_binary_input(self, capsys, tmp_path):
        path = tmp_path / "graph.bin"
        path.write_bytes(b"\xa3\xff\x00\x81")
        code, out, err = run(capsys, "period", str(path))
        assert code == 1 and out == ""
        assert "is not a text edge list" in err


class TestDeclaredVertexCount:
    """A graph declaring more than |E| + 1 vertices is rejected at input,
    in time that does not grow with the declared count."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("period", "-"),
            ("period", "-", "--transform", "s"),
            ("period", "-", "--transform", "d"),
            ("period", "-", "--kind", "g"),
            ("walk", "-"),
            ("walk", "-", "--kind", "g", "--transform", "s"),
            ("verify", "-"),
        ],
        ids=["period", "period-s", "period-d", "period-g", "walk", "walk-g-s", "verify"],
    )
    def test_rejected_before_any_per_vertex_work(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("per-vertex work on a huge declared vertex count")

        # every route to a per-vertex allocation raises instead, so a
        # missing input check fails fast rather than filling the memory
        monkeypatch.setattr("qwalk.graphs.Graph.neighbors", refuse)
        monkeypatch.setattr("qwalk.graphs.Graph.degrees", refuse)
        monkeypatch.setattr("qwalk.cli.subdivision", refuse)
        monkeypatch.setattr("qwalk.walks.subdivision", refuse)
        code, out, err = run(
            capsys, *argv, stdin="1000000000\n0 1\n", monkeypatch=monkeypatch
        )
        assert code == 1 and out == ""
        assert err == "qwalk: error: graph is disconnected\n"


class TestScanCommand:
    def test_stream_validates_against_schema(self, capsys, schema):
        code, out, _ = run(capsys, "scan", "--max-edges", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # 6 stars + K22 + C6 + K23
        for line in lines:
            jsonschema.validate(json.loads(line), schema)

    def test_method_disagreement(self, capsys, monkeypatch):
        def disagree(g, **kwargs):
            if g.num_edges == 3:
                raise MethodDisagreement("forced")
            return decide_periodicity(g, **kwargs)

        monkeypatch.setattr("qwalk.scan.decide_periodicity", disagree)
        code, out, err = run(capsys, "scan", "--max-edges", "4")
        assert code == EXIT_DISAGREEMENT
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [doc["edges"] for doc in lines[:-1]] == [1, 2]  # classes before the failure
        assert lines[-1] == {
            "input": "scan --max-edges 4", "error": "method_disagreement", "detail": "forced",
        }
        assert "method disagreement: forced" in err

    def test_bound(self, capsys):
        code, _, err = run(capsys, "scan", "--max-edges", "99")
        assert code == 1

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-edges", "4", "--pretty")
        assert code == 0 and "periodic=True" in out


class TestVerify:
    @pytest.mark.parametrize("name", ["figure4a", "k11", "c4"])
    def test_fixtures_pass(self, capsys, name):
        code, out, _ = run(capsys, "verify", name)
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_a_bipartite_input_is_2_coloured_once(self, capsys, monkeypatch):
        """The check that g is bipartite and its block identities share one
        colouring of g; the subdivision check colours S(g), once."""
        seen = []
        prop = Graph.__dict__["_colouring"]
        monkeypatch.setattr(prop, "func", lambda g, f=prop.func: seen.append(g) or f(g))
        assert run(capsys, "verify", "k33")[0] == 0
        g = complete_bipartite(3, 3)
        assert seen == [subdivision(g), g]

    def test_non_bipartite_skips_block_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "petersen")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert "block_identity_k1" not in checks

    def test_verify_groups_edges_once_per_graph(self, capsys, monkeypatch):
        """`qwalk verify k33` builds g's incidence once, for U_GW and the
        block identities' U_BW, and that of S(g) once, for U_BW(S(g))."""
        seen = []
        prop = Graph.__dict__["_incidence"]
        monkeypatch.setattr(prop, "func", lambda g, f=prop.func: seen.append(g) or f(g))
        assert run(capsys, "verify", "k33")[0] == 0
        g = complete_bipartite(3, 3)
        assert seen == [g, subdivision(g)]


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [("period", "c6", "--cap", "4"), ("scan", "--max-edges", "4", "--cap", "4")],
        ids=["period", "scan"],
    )
    def test_cap_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 1 and out.out == ""
        assert "unrecognized arguments: --cap 4" in out.err

    def test_bad_kind(self, capsys):
        code, _, err = run(capsys, "walk", "c6", "--kind", "q")
        assert code == 1


def _outcome(capsys, argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one in-process call, without the
    wall-clock fields of period reports."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    lines = []
    for line in out.out.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            doc.pop("timing_seconds", None)
            line = json.dumps(doc)
        elif line.startswith("time:"):
            continue
        lines.append(line)
    return code, lines, out.err


class TestOneParser:
    SEQUENCE = [
        ["period", "k33", "--pretty"],
        ["period", "k33"],
        ["scan", "--max-edges", "4"],
        ["period", "figure1", "--kind", "g", "--transform", "s"],
        ["period", "c6", "--cap", "4"],
        ["walk", "c4", "--kind", "g"],
        ["--version"],
        ["scan", "--max-edges", "4", "--pretty"],
        ["period", "k33"],
    ]

    def test_built_once_per_process(self, monkeypatch, capsys):
        import qwalk.cli

        builds = []
        build = qwalk.cli.build_parser
        monkeypatch.setattr(qwalk.cli, "build_parser", lambda: builds.append(1) or build())
        qwalk.cli._parser.cache_clear()
        try:
            for argv in self.SEQUENCE:
                _outcome(capsys, argv)
        finally:
            qwalk.cli._parser.cache_clear()
        assert builds == [1]

    def test_consecutive_calls_leak_no_state(self, capsys):
        """Each call through the shared parser prints what a freshly built
        parser prints, whatever ran before it."""
        import qwalk.cli

        fresh = []
        for argv in self.SEQUENCE:
            qwalk.cli._parser.cache_clear()
            fresh.append(_outcome(capsys, argv))
        shared = [_outcome(capsys, argv) for argv in self.SEQUENCE]
        assert shared == fresh
        assert json.loads(shared[1][1][0])["verdict"]["period"] == 2
        assert shared[4][0] == 1 and "unrecognized arguments: --cap 4" in shared[4][2]
        assert shared[6][0] == 0 and shared[6][1] == [f"qwalk {qwalk.__version__}"]

    def test_not_built_at_import(self):
        from test_numpy_free import _run_python

        proc = _run_python("import qwalk.cli as c; print(c._parser.cache_info().currsize)")
        assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


def _parser_flags() -> dict[str, set[str]]:
    """Long option strings of the top-level parser ("") and each subcommand."""
    top = build_parser()
    flags = {"": set()}
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags[name] = {o for a in sub._actions for o in a.option_strings}
        else:
            flags[""].update(action.option_strings)
    return {name: {o for o in opts if o.startswith("--")} - {"--help"} for name, opts in flags.items()}


def _readme_flags() -> set[str]:
    """Every --flag README names, except on the lines of pip commands."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("pip ")]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(lines)))


class TestReadmeFlags:
    def test_every_readme_flag_is_accepted(self):
        accepted = set().union(*_parser_flags().values())
        assert _readme_flags() <= accepted, _readme_flags() - accepted

    def test_every_option_is_documented(self):
        flags = _parser_flags()
        documented = _readme_flags()
        for command in ("period", "scan", "walk"):
            assert flags[command] <= documented, (command, flags[command] - documented)
