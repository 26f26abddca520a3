import io
import json
from importlib import resources

import jsonschema
import pytest

from qwalk.cli import EXIT_DISAGREEMENT, main
from qwalk.exact import quadratic_from_string
from qwalk.graphs import circulant, figure1_graph, format_graph, parse_graph
from qwalk.periodicity import MethodDisagreement, decide_periodicity
from qwalk.walks import walk_from_json


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
        code, _, err = run(capsys, "gen", "moebius")
        assert code == 1 and "unknown family" in err

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "two")
        assert code == 1


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

    def test_method_selection(self, capsys):
        code, out, _ = run(capsys, "period", "c6", "--methods", "trace")
        assert code == 4  # trace alone cannot certify periodicity
        assert json.loads(out)["verdict"]["periodic"] == "inconclusive"

    def test_cap_exhausted_is_inconclusive(self, capsys, schema):
        # C_8 has period 4: no period up to 3 says nothing about larger ones
        code, out, _ = run(capsys, "period", "c8", "--cap", "3", "--methods", "oracle")
        assert code == 4
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["verdict"]["periodic"] == "inconclusive"
        assert "no period within cap 3" in doc["verdict"]["notes"]

    def test_cap_reached_certifies_period(self, capsys):
        code, out, _ = run(capsys, "period", "c8", "--cap", "4", "--methods", "oracle")
        assert code == 0
        assert json.loads(out)["verdict"]["period"] == 4

    def test_method_disagreement(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise MethodDisagreement("forced")

        monkeypatch.setattr("qwalk.cli.decide_periodicity", disagree)
        code, out, err = run(capsys, "period", "c6")
        assert code == EXIT_DISAGREEMENT
        assert json.loads(out) == {"input": "c6", "error": "method_disagreement", "detail": "forced"}
        assert "method disagreement: forced" in err

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "period", "c6", "--methods", "astrology")
        assert code == 1

    def test_unknown_input(self, capsys):
        code, _, err = run(capsys, "period", "no_such_file.edges")
        assert code == 1 and "neither a file" in err


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

    def test_non_bipartite_skips_block_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "petersen")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert "block_identity_k1" not in checks


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_kind(self, capsys):
        code, _, err = run(capsys, "walk", "c6", "--kind", "q")
        assert code == 1
