"""The certificate on the cell space: T of size n0 + n1 against U of size
|E|, the U X = X T construction check, and the rule that picks the side."""

import inspect
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.exact
import qwalk.periodicity
import qwalk.walks
from qwalk.cli import main
from qwalk.exact import RationalMatrix, mat_mul, mat_pow
from qwalk.graphs import (
    Graph,
    GraphError,
    bipartite_double_cover,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure7_graph,
    format_graph,
    heawood_graph,
    path,
    petersen_graph,
    subdivision,
)
from qwalk.periodicity import (
    TRACE_DEPTH,
    _certificate,
    _certified_order,
    decide_periodicity,
    exact_period_oracle,
    grover_period_doubling,
    trace_test,
)
from qwalk.walks import (
    ConstructionError,
    build_bipartite_walk,
    build_grover_walk,
    cell_operator,
)
from test_exact import fractions_of
from test_walks import _from_rows, random_connected_graph

OCTAHEDRON = circulant(6, [1, 2, -1, -2])


def seeded_bipartite(seed: int, dense: bool) -> Graph:
    """A random spanning tree, each vertex coloured opposite to its parent;
    dense adds edges between the classes until |E| > n where the classes
    allow it, else at most one edge is added, so |E| <= n."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    colour, edges = [0] * n, set()
    for v in range(1, n):
        u = rng.randrange(v)
        colour[v] = 1 - colour[u]
        edges.add((u, v))
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if colour[u] != colour[v]]
    rng.shuffle(cross)
    for e in cross:
        if len(edges) > (n if dense else n - 1):
            break
        edges.add(e)
    return Graph.from_edges(n, edges)


def _on_t(g: Graph) -> bool:
    return g.n < g.num_edges


def _traces(m: RationalMatrix, k_max: int) -> list:
    power, out = m, []
    for k in range(1, k_max + 1):
        out.append(power.trace())
        power = mat_mul(power, m)
    return out


def _cell_certificate(g: Graph) -> RationalMatrix:
    """T', the map T induces on R^n / <z>, on either side of the size rule,
    where _certificate would take U: row i is row i of T less z_i z_n times
    row n, both without their last entry."""
    num, den, z = cell_operator(g)
    t = fractions_of(_from_rows(num, den))
    n = len(z)
    return RationalMatrix(
        [[t[i][j] - z[i] * z[-1] * t[-1][j] for j in range(n - 1)] for i in range(n - 1)]
    )


def _assert_matches_u(t: RationalMatrix, u: RationalMatrix, n_edges: int, n_vertices: int) -> None:
    """T' gives U's order, identity tests and traces: tr(T'^k) = tr(T^k) - 1."""
    tau = exact_period_oracle(u)
    cands = (1, 2, 3, 4, 6) if tau is None else (tau, 2 * tau, 6 * tau)
    for c in cands:
        expected = None if tau is None or c % tau else tau
        assert _certified_order(t, c) == expected, c
    t_k, u_k = t, u
    for k in range(1, 2 * (tau or 3) + 1):
        assert t_k.is_identity() == u_k.is_identity(), k
        t_k, u_k = mat_mul(t_k, t), mat_mul(u_k, u)
    shift = n_edges - n_vertices + 1
    on_t = [x + shift for x in _traces(t, TRACE_DEPTH)]
    assert on_t == _traces(u, TRACE_DEPTH)
    witness = next(((k, t) for k, t in enumerate(on_t, 1) if t.denominator != 1), None)
    assert trace_test(u) == witness


PERIODIC_DENSE = {
    "k23": complete_bipartite(2, 3),
    "k33": complete_bipartite(3, 3),
    "k45": complete_bipartite(4, 5),
    "octahedron-s": subdivision(OCTAHEDRON),
    "octahedron-d": bipartite_double_cover(OCTAHEDRON),
    "figure7-d": bipartite_double_cover(figure7_graph()),
}


class TestAgainstU:
    @pytest.mark.parametrize("name", sorted(PERIODIC_DENSE))
    def test_periodic_fixtures(self, name):
        g = PERIODIC_DENSE[name]
        assert _on_t(g)
        _assert_matches_u(_cell_certificate(g), build_bipartite_walk(g).U, g.num_edges, g.n)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_seeded_bipartite(self, seed, dense):
        g = seeded_bipartite(seed, dense)
        _assert_matches_u(_cell_certificate(g), build_bipartite_walk(g).U, g.num_edges, g.n)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_seeded_grover(self, seed):
        g = random_connected_graph(random.Random(seed), max_n=8)
        sg = subdivision(g)
        _assert_matches_u(_cell_certificate(sg), build_grover_walk(g).U, sg.num_edges, sg.n)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["bipartite", "grover"]))
    @settings(max_examples=40, deadline=None)
    def test_decisions_on_both_sides_of_the_rule(self, seed, dense, kind):
        g = seeded_bipartite(seed, dense)
        u = (build_bipartite_walk if kind == "bipartite" else build_grover_walk)(g).U
        v = decide_periodicity(g, kind)
        assert v.period == exact_period_oracle(u)
        witness = None if v.periodic else trace_test(u)
        assert v.trace_witness == (None if witness is None else (witness[0], str(witness[1])))

    def test_t_is_the_quotient_on_the_smaller_class(self):
        # K_{2,5}: T is 7 x 7, the first two basis vectors the c0 vertices
        num, den, z = cell_operator(complete_bipartite(2, 5))
        assert len(num) == 7 and z == (1, 1, -1, -1, -1, -1, -1)
        t = fractions_of(_from_rows(num, den))
        # T z = z; the squared block 4 D0^-1 C D1^-1 C^T - I has 4/5 * 5/2
        # off the diagonal, and the block of the other class is -I
        assert [sum(x * y for x, y in zip(row, z)) for row in t] == list(z)
        assert t[0][:2] == (1, 2) and t[6][2:] == (0, 0, 0, 0, -1)


def _wrap_quotient(monkeypatch, change):
    original = qwalk.walks._quotient

    def corrupted(*args):
        rows, den, z = original(*args)
        return change([list(r) for r in rows], den, list(z))

    monkeypatch.setattr(qwalk.walks, "_quotient", corrupted)


def _flip_z(rows, den, z):
    z[-1] = -z[-1]
    return rows, den, tuple(z)


CORRUPTIBLE = {"k34": complete_bipartite(3, 4), "heawood": heawood_graph()}


class TestCellOperatorChecks:
    @pytest.mark.parametrize(
        "name,row,column",
        [
            (name, row, column)
            for name, g in CORRUPTIBLE.items()
            for column in range(g.n)
            for row in (0, g.n - 1)  # a row in each block of T
        ],
    )
    def test_corrupted_t(self, monkeypatch, name, row, column):
        """One entry of T off by one, in every column and in both blocks of
        rows: X has no zero column, so X T moves and U X = X T fails."""

        def shift_entry(rows, den, z):
            rows[row][column] += 1
            return rows, den, tuple(z)

        _wrap_quotient(monkeypatch, shift_entry)
        with pytest.raises(ConstructionError) as exc:
            cell_operator(CORRUPTIBLE[name])
        assert str(exc.value) == "T does not satisfy U X = X T"

    def test_corrupted_z(self, monkeypatch):
        _wrap_quotient(monkeypatch, _flip_z)
        with pytest.raises(ConstructionError) as exc:
            cell_operator(complete_bipartite(3, 4))
        assert str(exc.value) == "z is not in the kernel of X"

    @pytest.mark.parametrize("side", [0, 1])
    def test_one_edge_in_the_wrong_cell(self, monkeypatch, side):
        original = qwalk.walks.build_partitions

        def moved(g):
            parts = list(original(g))
            (u, v, *rest) = parts[side]
            parts[side] = (u[:-1], v + u[-1:], *rest)
            return tuple(parts)

        monkeypatch.setattr(qwalk.walks, "build_partitions", moved)
        with pytest.raises(ConstructionError) as exc:
            cell_operator(complete_bipartite(3, 4))
        assert str(exc.value) == "T does not satisfy U X = X T"

    def test_unchanged_quotient_passes(self, monkeypatch):
        expected = cell_operator(complete_bipartite(3, 4))
        _wrap_quotient(monkeypatch, lambda rows, den, z: (rows, den, tuple(z)))
        assert cell_operator(complete_bipartite(3, 4)) == expected

    def test_rejects_a_graph_with_no_edges(self):
        with pytest.raises(GraphError, match="^graph has no edges$"):
            cell_operator(Graph.from_edges(1, []))

    def test_rejects_disconnected_and_non_bipartite(self):
        with pytest.raises(GraphError, match="^graph is disconnected$"):
            cell_operator(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            cell_operator(petersen_graph())


def _recording(monkeypatch, name, sizes):
    """Record the operand shapes of every product made through name."""
    for module in (qwalk.exact, qwalk.periodicity, qwalk.walks):
        original = getattr(module, name, None)
        if original is None:
            continue

        def wrapped(*args, _original=original):
            a, b = args[0], args[1]
            dims = (a.rows, a.cols, b.cols) if name == "mat_mul" else (len(a), len(b), args[2])
            sizes.append(dims)
            return _original(*args)

        monkeypatch.setattr(module, name, wrapped)


def _replace_everywhere(monkeypatch, original, replacement):
    """Put replacement at every qwalk.* module attribute that holds original."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "qwalk" or module_name.startswith("qwalk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _forbid_builds(monkeypatch, names=("build_bipartite_walk", "build_grover_walk")):
    def refuse(*_args):
        raise AssertionError("a walk operator on edge space was built")

    for name in names:
        _replace_everywhere(monkeypatch, getattr(qwalk.walks, name), refuse)


class TestSizeRule:
    def test_k20_20_multiplies_nothing_larger_than_the_cell_space(self, monkeypatch):
        sizes = []
        _recording(monkeypatch, "mat_mul", sizes)
        _recording(monkeypatch, "_int_product", sizes)
        v = decide_periodicity(complete_bipartite(20, 20))
        assert v.periodic and v.period == 2
        assert sizes and max(max(s) for s in sizes) <= 40

    @pytest.mark.parametrize(
        "g,kind,code,period",
        [(complete_bipartite(4, 4), "b", 0, 2), (petersen_graph(), "g", 3, None)],
        ids=["k44", "petersen-g"],
    )
    def test_period_builds_no_walk_operator_above_average_degree_two(
        self, monkeypatch, capsys, tmp_path, g, kind, code, period
    ):
        _forbid_builds(monkeypatch)
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        assert main(["period", str(path), "--kind", kind]) == code
        assert json.loads(capsys.readouterr().out)["verdict"]["period"] == period

    @pytest.mark.parametrize("g", [complete_bipartite(4, 4), cycle(24), path(5)], ids=["k44", "c24", "p5"])
    def test_certificate_is_t_above_average_degree_two(self, g):
        m = _certificate(g)
        if _on_t(g):
            assert m.rows == g.n - 1 and m == _cell_certificate(g)
        else:
            assert m == build_bipartite_walk(g).U

    def test_c24_is_certified_on_u(self, monkeypatch, capsys, tmp_path):
        calls = []
        build = qwalk.periodicity.build_bipartite_walk
        monkeypatch.setattr(
            "qwalk.periodicity.build_bipartite_walk", lambda *a: calls.append(a) or build(*a)
        )
        path = tmp_path / "c24.txt"
        path.write_text(format_graph(cycle(24)))
        assert main(["period", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["period"] == 12
        assert len(calls) == 1

    @pytest.mark.parametrize("g,period", [(cycle(10), 10), (path(5), 8)], ids=["c10", "p5"])
    def test_grover_period_on_u_builds_one_bipartite_walk(
        self, monkeypatch, capsys, tmp_path, g, period
    ):
        calls = []
        build = qwalk.walks.build_bipartite_walk
        _forbid_builds(monkeypatch, ["build_grover_walk"])
        _replace_everywhere(monkeypatch, build, lambda *a: calls.append(a) or build(*a))
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(format_graph(g))
        assert main(["period", str(graph_file), "--kind", "g"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["period"] == period
        assert len(calls) == 1


class TestPeriodDoublingOnCells:
    @pytest.mark.parametrize(
        "g", [complete_bipartite(2, 3), complete_bipartite(3, 3), complete_bipartite(4, 4)],
        ids=["k23", "k33", "k44"],
    )
    def test_dense_graphs_build_no_walk_operator(self, monkeypatch, g):
        expected = (
            exact_period_oracle(build_bipartite_walk(g).U),
            exact_period_oracle(build_grover_walk(g).U),
        )
        _forbid_builds(monkeypatch)
        assert grover_period_doubling(g) == expected == (2, 4)

    def test_subdivided_octahedron(self):
        assert grover_period_doubling(subdivision(OCTAHEDRON)) == (12, 24)

    @pytest.mark.parametrize("g", [heawood_graph(), figure1_graph()], ids=["heawood", "figure1"])
    def test_non_periodic_raises(self, g):
        with pytest.raises(ValueError, match="^the walks are not periodic$"):
            grover_period_doubling(g)

    def test_non_bipartite_raises(self):
        with pytest.raises(GraphError):
            grover_period_doubling(petersen_graph())


class TestOneAdditionChain:
    @pytest.mark.parametrize("c,products", [(1, 0), (2, 1), (12, 4), (30, 7), (128, 7)])
    def test_product_counts(self, monkeypatch, c, products):
        calls = []

        def counting(a, b):
            calls.append(1)
            return mat_mul(a, b)

        monkeypatch.setattr("qwalk.exact.mat_mul", counting)
        # [[2]] has no power I: every power of {c} and the c/p is made once
        assert _certified_order(RationalMatrix([[2]]), c) is None
        assert len(calls) == products

    @pytest.mark.parametrize("c", range(1, 65))
    def test_descent_matches_the_powers(self, c):
        u = build_bipartite_walk(cycle(8)).U  # order 4
        assert _certified_order(u, c) == (4 if c % 4 == 0 else None)

    def test_takes_the_matrix_and_the_bound_alone(self):
        assert list(inspect.signature(_certified_order).parameters) == ["m", "c"]


class TestFoldingZOut:
    @pytest.mark.parametrize(
        "g,tau",
        [
            (complete_bipartite(2, 5), 2),
            (complete_bipartite(4, 4), 2),
            (subdivision(OCTAHEDRON), 12),
        ],
        ids=["k25", "k44", "octahedron-s"],
    )
    def test_t_has_no_identity_power_and_t_prime_has_u_order(self, g, tau):
        """T fixes z with a Jordan block at y = 2, so no power of T is I even
        though U^tau = I; T', T on R^n / <z>, has order tau."""
        num, den, _ = cell_operator(g)
        t = _from_rows(num, den)
        for k in (1, 2, 4, 12):
            assert not mat_pow(t, k).is_identity(), k
        t_prime = _certificate(g)
        assert mat_pow(t_prime, tau).is_identity()
        assert _certified_order(t_prime, tau) == tau
        assert decide_periodicity(g).period == tau
