import math
import random
from fractions import Fraction
from math import lcm

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.periodicity
from qwalk.exact import (
    NonIntegralPolynomial,
    QuadraticValue,
    RationalMatrix,
    _nonzeros,
    _row_minimal_polynomial,
    char_poly,
    local_minimal_polynomial,
    mat_mul,
    mat_pow,
)
from qwalk.graphs import (
    Graph,
    GraphError,
    NotBipartiteError,
    NotBiregularError,
    adjacency_matrix,
    biadjacency,
    bipartite_double_cover,
    bipartition,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    figure7_graph,
    heawood_graph,
    is_bipartite,
    path,
    petersen_graph,
    star,
    subdivision,
)
from qwalk.periodicity import (
    TRACE_DEPTH,
    MethodDisagreement,
    _certified_order,
    _chi,
    _q,
    allowed_value_table,
    decide_periodicity,
    exact_period_oracle,
    grover_period_doubling,
    grover_regular_test,
    period_from_phases,
    spectral_test_biregular,
    state_periodicity,
    trace_test,
)
from qwalk.cli import verdict_to_dict
from qwalk.scan import enumerate_biregular, scan_periodicity
from qwalk.spectral import (
    GROUP_TOL,
    eigenvalue_support,
    pm1_eigenspace_dims,
    walk_phases_from_graph,
)
from qwalk.walks import (
    ArcWalkOperator,
    _factors,
    block_identity_check,
    block_identity_checks,
    build_bipartite_walk,
    build_grover_walk,
    cell_operator,
)
from test_exact import _random_biregular, gram_rows, sympy_cyclotomic_order
from test_walks import random_connected_bipartite, random_connected_graph

F = Fraction


class TestAllowedValueTable:
    def test_entry_count_and_orders(self):
        table = allowed_value_table(2, 3)
        assert len(table) == 13
        assert sorted({o for _, o in table}) == [1, 2, 3, 4, 5, 6, 8, 10, 12]

    def test_boundary_entries(self):
        table = dict(allowed_value_table(3, 3))
        assert table[QuadraticValue.rational(9)] == 1
        assert table[QuadraticValue.rational(0)] == 2
        assert table[QuadraticValue.rational(F(9, 2))] == 4

    @pytest.mark.parametrize("d0,d1", [(1, 1), (2, 3), (3, 3), (4, 2), (2, 5), (7, 11)])
    def test_matches_closed_forms(self, d0, d1):
        # x = d0 d1 (y + 2) / 4 for y = 2cos(2 pi j / k), in closed form
        dd = d0 * d1
        rational = [(dd, 1), (0, 2), (F(dd, 4), 3), (F(dd, 2), 4), (F(3 * dd, 4), 6)]
        closed = {(QuadraticValue.rational(x), k) for x, k in rational}
        for sign in (1, -1):
            closed |= {
                (QuadraticValue.of(F(dd, 2), sign * F(dd, 4), 2), 8),
                (QuadraticValue.of(F(dd, 2), sign * F(dd, 4), 3), 12),
                (QuadraticValue.of(F(5 * dd, 8), sign * F(dd, 8), 5), 10),
                (QuadraticValue.of(F(3 * dd, 8), sign * F(dd, 8), 5), 5),
            }
        table = allowed_value_table(d0, d1)
        assert len(table) == 13 and set(table) == closed

    def test_golden_entries(self):
        # (3 + sqrt5)/8 * 8 = 3 + sqrt5 for the subdivided 4-regular case
        table = dict(allowed_value_table(4, 2))
        assert table[QuadraticValue.of(3, 1, 5)] == 5
        assert table[QuadraticValue.of(5, 1, 5)] == 10

    def test_fresh_list_from_one_table_per_product(self, monkeypatch):
        table = allowed_value_table(2, 3)
        table.clear()
        # (1, 6) has the product of (2, 3): its table is already built
        calls = []
        of = QuadraticValue.of
        monkeypatch.setattr(QuadraticValue, "of", lambda *a: calls.append(a) or of(*a))
        assert allowed_value_table(1, 6) == allowed_value_table(2, 3) != table
        assert len(allowed_value_table(2, 3)) == 13 and calls == []


class TestExactOracle:
    @pytest.mark.parametrize(
        "g,tau",
        [
            (complete_bipartite(1, 1), 1),
            (complete_bipartite(2, 2), 2),
            (cycle(6), 3),
            (cycle(8), 4),
            (star(5), 2),
        ],
        ids=["k11", "k22", "c6", "c8", "star5"],
    )
    def test_known_periods(self, g, tau):
        u = build_bipartite_walk(g).U
        assert exact_period_oracle(u) == tau
        # minimality: no smaller power is the identity
        from qwalk.exact import mat_pow

        for k in range(1, tau):
            assert not mat_pow(u, k).is_identity()

    def test_aperiodic_aborts_early(self):
        u = build_bipartite_walk(figure1_graph()).U
        assert exact_period_oracle(u) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exact_period_oracle(RationalMatrix([[1, 0]]))


class TestTraceTest:
    def test_figure1_witness(self):
        witness = trace_test(build_bipartite_walk(figure1_graph()).U)
        assert witness == (1, F(-1, 3))

    def test_periodic_graph_passes(self):
        assert trace_test(build_bipartite_walk(cycle(6)).U) is None

    def test_heawood_fails(self):
        assert trace_test(build_bipartite_walk(heawood_graph()).U) is not None

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_no_power_is_no_pass(self, k_max):
        with pytest.raises(ValueError, match="^k must be positive$"):
            trace_test(build_bipartite_walk(figure1_graph()).U, k_max)


class TestSpectralTest:
    def test_c6_periodic(self):
        v = spectral_test_biregular(cycle(6))
        assert v.status == "periodic"
        assert {str(c.value) for c in v.classifications} == {"1", "4"}

    def test_heawood_non_periodic(self):
        v = spectral_test_biregular(heawood_graph())
        assert v.status == "non-periodic"
        bad = [c for c in v.classifications if not c.allowed]
        assert len(bad) == 1 and str(bad[0].value) == "2"

    def test_k23(self):
        # lambda^2 in {6, 0} = {d0 d1, 0}: periodic
        v = spectral_test_biregular(complete_bipartite(2, 3))
        assert v.status == "periodic"

    def test_double_cover_of_figure7(self):
        g = bipartite_double_cover(figure7_graph())
        v = spectral_test_biregular(g)
        assert v.status == "periodic"
        values = {str(c.value) for c in v.classifications}
        assert values == {"16", "4", "0", "6-2*sqrt(5)", "6+2*sqrt(5)"}

    def test_given_bipartition_of_disconnected_graph_raises(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError, match="graph is disconnected"):
            spectral_test_biregular(g)

    def test_edgeless_graph_raises(self):
        with pytest.raises(GraphError, match="^graph has no edges$"):
            spectral_test_biregular(Graph.from_edges(1, []))


class TestPeriodFromPhases:
    @pytest.mark.parametrize(
        "g,tau",
        [(complete_bipartite(2, 2), 2), (cycle(6), 3), (cycle(8), 4), (complete_bipartite(3, 3), 2)],
        ids=["k22", "c6", "c8", "k33"],
    )
    def test_matches_oracle(self, g, tau):
        assert period_from_phases(g) == tau

    def test_requires_periodic_input(self):
        with pytest.raises(ValueError):
            period_from_phases(heawood_graph())

    def test_subdivided_cayley_graph(self):
        g = subdivision(circulant(10, [1, 4, -1, -4]))
        assert period_from_phases(g) == 20

    def test_edgeless_graph_raises(self):
        with pytest.raises(GraphError, match="^graph has no edges$"):
            period_from_phases(Graph.from_edges(1, []))


class TestGroverRegular:
    def test_figure7_periodic(self):
        v = grover_regular_test(figure7_graph())
        assert v.status == "periodic"
        values = {str(c.value) for c in v.classifications}
        assert values == {"4", "0", "-2", "-1+1*sqrt(5)", "-1-1*sqrt(5)"}

    def test_petersen_non_periodic(self):
        v = grover_regular_test(petersen_graph())
        assert v.status == "non-periodic"
        bad = {str(c.value) for c in v.classifications if not c.allowed}
        assert "1" in bad

    def test_cycle_periodic(self):
        assert grover_regular_test(cycle(6)).status == "periodic"

    def test_disconnected_rejected_before_degrees(self, monkeypatch):
        """A million declared vertices and one edge: rejected on the edge
        count, with no per-vertex degree list."""

        def no_degrees(self):
            raise AssertionError("degrees built before the connectivity check")

        monkeypatch.setattr(Graph, "degrees", no_degrees)
        with pytest.raises(GraphError, match="^graph is disconnected$"):
            grover_regular_test(Graph.from_edges(10**6, [(0, 1)]))

    def test_edgeless_graph_raises(self):
        with pytest.raises(GraphError, match="^graph has no edges$"):
            grover_regular_test(Graph.from_edges(1, []))


def test_the_degree_check_comes_before_any_char_poly(monkeypatch):
    """A graph the table does not cover is refused on its degrees, before
    any char-poly is built."""

    def refuse(*args):
        raise AssertionError("a char-poly was built before the degree check")

    monkeypatch.setattr("qwalk.periodicity.char_poly", refuse)
    with pytest.raises(NotBiregularError, match="^spectral test requires a biregular graph$"):
        spectral_test_biregular(path(4))
    with pytest.raises(GraphError, match="^grover test requires a regular graph$"):
        grover_regular_test(star(3))


class TestPeriodDoubling:
    @pytest.mark.parametrize(
        "g", [complete_bipartite(1, 1), complete_bipartite(2, 2), cycle(6), cycle(8)],
        ids=["k11", "k22", "c6", "c8"],
    )
    def test_doubling(self, g):
        tau_bw, tau_gw = grover_period_doubling(g)
        assert tau_gw == 2 * tau_bw


# The numeric per-state route that state_periodicity replaced, kept as its
# test oracle: a state is periodic when every phase in its eigenvalue
# support is a rational multiple of pi, judged by a table of the cosines of
# such angles of degree <= 2 or by a best approximation of denominator <= 48.
_NIVEN_COSINES = (
    0.0, 1.0, -1.0, 0.5, -0.5,
    math.sqrt(2) / 2, -math.sqrt(2) / 2,
    math.sqrt(3) / 2, -math.sqrt(3) / 2,
    (math.sqrt(5) - 1) / 4, -(math.sqrt(5) - 1) / 4,
    (math.sqrt(5) + 1) / 4, -(math.sqrt(5) + 1) / 4,
)


def _phase_is_rational_pi(theta: float) -> bool:
    if any(abs(math.cos(theta) - x) <= GROUP_TOL for x in _NIVEN_COSINES):
        return True
    approx = Fraction(abs(theta) / math.pi).limit_denominator(48)
    return abs(abs(theta) - float(approx) * math.pi) <= GROUP_TOL


def numeric_state_periodicity(w, edge: int) -> bool:
    return all(_phase_is_rational_pi(t) for t in eigenvalue_support(w, edge).phases())


def _complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


NAMED_WALKS = {
    "c6": build_bipartite_walk(cycle(6)),
    "c8": build_bipartite_walk(cycle(8)),
    "k33": build_bipartite_walk(complete_bipartite(3, 3)),
    "k44": build_bipartite_walk(complete_bipartite(4, 4)),
    "heawood": build_bipartite_walk(heawood_graph()),
    "figure1": build_bipartite_walk(figure1_graph()),
    "figure4a": build_bipartite_walk(figure4a_graph()),
    "s-circulant10-14": build_bipartite_walk(subdivision(circulant(10, [1, 4, -1, -4]))),
    "grover-petersen": build_grover_walk(petersen_graph()),
    "grover-k4": build_grover_walk(_complete_graph(4)),
}


class TestStatePeriodicity:
    def test_all_edges_of_periodic_walk(self):
        w = build_bipartite_walk(cycle(6))
        assert all(state_periodicity(w, e) for e in range(w.dim))

    def test_aperiodic_walk_has_aperiodic_state(self):
        for g in (heawood_graph(), figure1_graph()):
            w = build_bipartite_walk(g)
            assert not all(state_periodicity(w, e) for e in range(w.dim))

    @pytest.mark.parametrize("name", sorted(NAMED_WALKS))
    def test_matches_numeric_support_on_named_walks(self, name):
        w = NAMED_WALKS[name]
        for e in range(w.dim):
            assert state_periodicity(w, e) == numeric_state_periodicity(w, e), e

    def test_matches_numeric_support_on_seeded_random_graphs(self):
        rng = random.Random(7)
        seen, verdicts = set(), []
        while len(seen) < 80:
            g = random_connected_graph(rng, max_n=7)
            if g.edges in seen:
                continue
            seen.add(g.edges)
            walks = [build_grover_walk(g)]
            if is_bipartite(g):
                walks.append(build_bipartite_walk(g))
            for w in walks:
                for e in range(w.dim):
                    exact = state_periodicity(w, e)
                    assert exact == numeric_state_periodicity(w, e), (g, e)
                    verdicts.append(exact)
        assert True in verdicts and False in verdicts

    def test_every_state_periodic_iff_walk_periodic_on_scan(self):
        """A walk is periodic exactly when every basis state is: U^tau is the
        identity when it fixes every basis vector."""
        classes = 0
        for g, v in scan_periodicity(9):
            classes += 1
            w = build_bipartite_walk(g)
            every_state = all(state_periodicity(w, e) for e in range(w.dim))
            assert every_state == v.periodic, g
        assert classes == 15

    @pytest.mark.parametrize("edge", [99, 6, -1])
    def test_out_of_range_edge(self, edge):
        w = build_bipartite_walk(cycle(6))
        with pytest.raises(ValueError):
            state_periodicity(w, edge)


def _seeded_walks(seed: int, count: int):
    """The walks of count distinct seeded connected graphs g with at most
    7 vertices: the Grover walk of each, and its bipartite walk when g is
    bipartite."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        g = random_connected_graph(rng, max_n=7)
        if g.edges in seen:
            continue
        seen.add(g.edges)
        yield build_grover_walk(g)
        if is_bipartite(g):
            yield build_bipartite_walk(g)


def _reversal(mu):
    """x^d mu(1/x) / mu(0): the monic polynomial whose roots are the
    inverses of mu's, for mu(0) != 0."""
    return tuple(c / mu[0] for c in reversed(mu))


def _annihilates(mu, m: RationalMatrix, a: int) -> bool:
    """mu(M) e_a = 0, summed over the column vectors M^i e_a."""
    v = RationalMatrix([[int(i == a)] for i in range(m.rows)])
    acc = RationalMatrix.zeros(m.rows, 1)
    for c in mu:
        acc, v = acc.add(v.scale(c)), mat_mul(m, v)
    return acc == RationalMatrix.zeros(m.rows, 1)


class TestTransposeRoute:
    """state_periodicity runs the Krylov sequence of e_a under U^T = U^-1,
    over U's own rows: mu under U^T is the reversal of mu under U, and the
    verdict is the integrality of mu under U."""

    @staticmethod
    def _check(w, a: int) -> bool:
        mu = local_minimal_polynomial(w.U, a)
        mu_t = _row_minimal_polynomial(w.U, a)
        assert mu_t == _reversal(mu), a
        assert _annihilates(mu_t, w.U.transpose(), a), a
        periodic = all(c.denominator == 1 for c in mu)
        assert state_periodicity(w, a) == periodic, a
        return periodic

    @pytest.mark.parametrize("name", sorted(NAMED_WALKS))
    def test_every_state_of_named_walks(self, name):
        w = NAMED_WALKS[name]
        for a in range(w.dim):
            self._check(w, a)

    def test_every_state_of_seeded_graphs(self):
        verdicts = {"bipartite": set(), "grover": set()}
        for w in _seeded_walks(34, 80):
            kind = "grover" if isinstance(w, ArcWalkOperator) else "bipartite"
            verdicts[kind].update(self._check(w, a) for a in range(w.dim))
        assert verdicts == {"bipartite": {True, False}, "grover": {True, False}}

    @pytest.mark.parametrize("arc", [12, 99, -1])
    def test_out_of_range_arc(self, arc):
        w = build_grover_walk(cycle(6))
        with pytest.raises(ValueError):
            state_periodicity(w, arc)


class TestDecidePeriodicity:
    def test_figure1_verdict(self):
        v = decide_periodicity(figure1_graph())
        assert v.periodic is False
        assert v.trace_witness == (1, "-1/3")

    def test_c6_all_methods_agree(self):
        v = decide_periodicity(cycle(6))
        assert v.periodic is True and v.period == 3
        assert exact_period_oracle(build_bipartite_walk(cycle(6)).U) == 3
        assert v.spectral.status == "periodic"

    def test_grover_kind(self):
        v = decide_periodicity(complete_bipartite(2, 2), kind="grover")
        assert v.periodic is True and v.period == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            decide_periodicity(cycle(6), kind="mystery")

    @pytest.mark.parametrize(
        "g,kind,certificate",
        [
            (figure1_graph(), "bipartite", "coefficient -2/3 of y^3 is not an integer"),
            (petersen_graph(), "grover", "coefficient -20/3 of y^8 is not an integer"),
        ],
        ids=["figure1", "petersen-grover"],
    )
    def test_non_periodic_verdict_names_a_coefficient_of_q(self, g, kind, certificate):
        v = decide_periodicity(g, kind)
        assert v.periodic is False and v.period is None
        assert v.notes[-1] == f"q = det(yI - (4M - 2I)) is not integral: {certificate}"

    @pytest.mark.parametrize(
        "g,wrong",
        [(cycle(6), ({1, 3}, 6)), (path(5), ({1, 4}, 8)), (cycle(6), ({1, 2, 3}, 6))],
        ids=["c6-power-pass", "p5-power-pass", "c6-table"],
    )
    def test_wrong_q_period_is_a_disagreement(self, monkeypatch, g, wrong):
        # U^6 = I holds for C6, but 3 is its least period; P5 has period 4
        monkeypatch.setattr("qwalk.periodicity._q_period", lambda q, n0, n1: wrong)
        with pytest.raises(MethodDisagreement):
            decide_periodicity(g)


class TestScanAgreement:
    def test_spectral_matches_oracle_up_to_nine_edges(self):
        """Exhaustive cross-validation of the characterization at desk scale."""
        count = 0
        for g, v in scan_periodicity(9):
            count += 1
            if v.spectral is None or v.spectral.status == "inconclusive":
                continue
            spectral_periodic = v.spectral.status == "periodic"
            oracle_periodic = exact_period_oracle(build_bipartite_walk(g).U) is not None
            assert oracle_periodic == v.periodic, g
            assert spectral_periodic == oracle_periodic, g
        assert count == 15

    def test_disagreement_would_raise(self):
        # decide_periodicity raises MethodDisagreement on contradiction; the
        # scan above completing without one is the real assertion, so just
        # confirm the exception type is what callers must catch
        assert issubclass(MethodDisagreement, RuntimeError)


# The two allowed-value sets grover_regular_test used before it classified
# lambda + d in the subdivision's table, kept as its test oracle.
def _direct_grover_allowed(d: int) -> set:
    allowed = {QuadraticValue.rational(x) for x in (0, d, -d, F(d, 2), F(-d, 2))}
    for sign in (1, -1):
        allowed.add(QuadraticValue.of(0, sign * F(d, 2), 2))
        allowed.add(QuadraticValue.of(0, sign * F(d, 2), 3))
        for a_sign in (1, -1):
            allowed.add(QuadraticValue.of(a_sign * F(d, 4), sign * F(d, 4), 5))
    return allowed


def _rank_phase_period(verdict, w) -> int:
    """The phase period with the -1 eigenspace taken from the exact rank
    formula on the built walk (pm1_eigenspace_dims)."""
    orders = {1, *(c.order for c in verdict.classifications)}
    if pm1_eigenspace_dims(w)[1] > 0:
        orders.add(2)
    return math.lcm(*orders)


def _regular_graphs() -> dict:
    graphs = {f"C{k}": cycle(k) for k in range(3, 16)}
    graphs.update({f"K{a},{a}": complete_bipartite(a, a) for a in range(1, 6)})
    graphs.update(
        octahedron=circulant(6, [1, 2, -1, -2]),
        circulant10=circulant(10, [1, 4, -1, -4]),
        figure7=figure7_graph(),
        petersen=petersen_graph(),
        heawood=heawood_graph(),
        K4=_complete_graph(4),
        K5=_complete_graph(5),
    )
    for d, n in ((3, 8), (3, 10), (4, 9)):
        for seed in range(6):
            h = nx.random_regular_graph(d, n, seed=seed)
            if nx.is_connected(h):
                graphs[f"random-{d}-{n}-{seed}"] = Graph.from_edges(n, h.edges())
    return graphs


REGULAR_GRAPHS = _regular_graphs()


class TestGroverThroughSubdivision:
    @pytest.mark.parametrize("name", sorted(REGULAR_GRAPHS))
    def test_matches_direct_sets_and_subdivision(self, name):
        g = REGULAR_GRAPHS[name]
        d = g.degrees()[0]
        v = grover_regular_test(g)
        sg = subdivision(g)
        s = spectral_test_biregular(sg)
        assert v.status == s.status
        if v.status == "inconclusive":
            return
        direct = _direct_grover_allowed(d)
        assert [c.allowed for c in v.classifications] == [
            c.value in direct for c in v.classifications
        ]
        assert v.status == ("periodic" if all(c.allowed for c in v.classifications) else "non-periodic")
        # the Gram block of S(g) on the original vertices is A + dI; the
        # subdivision's verdict lists the smaller block, which is this one
        # unless d = 1 (K2: one edge vertex, two original ones)
        shifted = {
            (c.value + QuadraticValue.rational(d), c.multiplicity, c.allowed, c.order)
            for c in v.classifications
        }
        listed = {(c.value, c.multiplicity, c.allowed, c.order) for c in s.classifications}
        assert shifted == listed if d > 1 else shifted >= listed
        decided = decide_periodicity(g, "grover")
        if v.status == "periodic":
            tau = period_from_phases(sg)
            assert decided.period == tau == exact_period_oracle(build_grover_walk(g).U)
            assert tau == _rank_phase_period(s, build_bipartite_walk(sg))
        else:
            assert decided.period is None and decided.periodic is False

    def test_both_outcomes_occur(self):
        statuses = [grover_regular_test(g).status for g in REGULAR_GRAPHS.values()]
        assert statuses.count("periodic") >= 10 and statuses.count("non-periodic") >= 10

    def test_bipartite_phase_period_matches_rank_formula_on_scan(self):
        periodic = 0
        for g, v in scan_periodicity(10):
            if v.period is not None:
                periodic += 1
                assert v.period == _rank_phase_period(v.spectral, build_bipartite_walk(g))
        assert periodic > 0


def _biregular_graphs() -> dict:
    """Connected biregular bipartite graphs: the bipartite ones among
    REGULAR_GRAPHS, the double covers of the others, and seeded random
    (d0, d1)-biregular graphs."""
    graphs = {}
    for name, g in REGULAR_GRAPHS.items():
        if is_bipartite(g):
            graphs[name] = g
        else:
            graphs[f"{name}-d"] = bipartite_double_cover(g)
    rng = random.Random(1818)
    for d0, d1, n0 in ((2, 3, 6), (3, 2, 4), (2, 4, 8), (3, 3, 7), (3, 4, 8)):
        for i in range(3):
            g = None
            while g is None:
                g = _random_biregular(rng, d0, d1, n0)
            graphs[f"biregular-{d0}-{d1}-{i}"] = g
    return graphs


BIREGULAR_GRAPHS = _biregular_graphs()


def _refuse_second_char_poly(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the decision took a char-poly from a second source")

    for name in ("spectral_test_biregular", "grover_regular_test"):
        monkeypatch.setattr(f"qwalk.periodicity.{name}", refuse)
    monkeypatch.setattr("qwalk.graphs.adjacency_matrix", refuse)


class TestOneCharPoly:
    """The table verdict of decide_periodicity, taken on the char-poly of
    the Gram rows, equals that of the standalone table functions field by
    field, and the decision calls neither of them nor adjacency_matrix.
    All of them read _chi's char-poly, which TestCharPolyAgainstDenseBuilders
    checks on its own."""

    def test_scan_classes(self, monkeypatch):
        classes = list(enumerate_biregular(10))
        expected = [spectral_test_biregular(g) for g in classes]
        assert len(expected) == 18 and all(s.status == "periodic" for s in expected)
        _refuse_second_char_poly(monkeypatch)
        assert [decide_periodicity(g).spectral for g in classes] == expected
        assert [v.spectral for _, v in scan_periodicity(10)] == expected

    @pytest.mark.parametrize("name", sorted(BIREGULAR_GRAPHS))
    def test_bipartite_on_biregular_graphs(self, monkeypatch, name):
        g = BIREGULAR_GRAPHS[name]
        expected = spectral_test_biregular(g)
        _refuse_second_char_poly(monkeypatch)
        s = decide_periodicity(g).spectral
        assert s is not None and s._asdict() == expected._asdict()

    @pytest.mark.parametrize("name", sorted(REGULAR_GRAPHS))
    def test_grover_on_regular_graphs(self, monkeypatch, name):
        g = REGULAR_GRAPHS[name]
        expected = grover_regular_test(g)
        _refuse_second_char_poly(monkeypatch)
        s = decide_periodicity(g, "grover").spectral
        assert s is not None and s._asdict() == expected._asdict()

    def test_both_table_outcomes_occur(self):
        statuses = [spectral_test_biregular(g).status for g in BIREGULAR_GRAPHS.values()]
        assert statuses.count("periodic") >= 5 and statuses.count("non-periodic") >= 5


class TestCharPolyAgainstDenseBuilders:
    """_chi's char-poly, which the decider, the table functions and the
    phase period share, against char-polys of matrices built without
    walks._factors: A from adjacency_matrix for a Grover walk on a regular
    graph, and C C^T from biadjacency, on the smaller class, for a
    biregular one."""

    @pytest.mark.parametrize("name", sorted(REGULAR_GRAPHS))
    def test_grover_chi_is_that_of_a(self, name):
        g = REGULAR_GRAPHS[name]
        assert _chi(g, "grover")[2] == char_poly(adjacency_matrix(g))

    @pytest.mark.parametrize("name", sorted(BIREGULAR_GRAPHS))
    def test_bipartite_chi_is_that_of_c_ct(self, name):
        g = BIREGULAR_GRAPHS[name]
        c = biadjacency(g)
        if len(c) > len(c[0]):
            c = [list(col) for col in zip(*c)]
        c_ct = [[sum(x * y for x, y in zip(r, s)) for s in c] for r in c]
        assert _chi(g, "bipartite")[2] == char_poly(c_ct)


# graphs with no bipartition to take the classes from, and the error each gives
NO_BIPARTITION = {
    "odd-cycle": (cycle(5), NotBipartiteError, "^graph contains an odd cycle$"),
    "odd-cycle-with-a-tail": (
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        NotBipartiteError,
        "^graph contains an odd cycle$",
    ),
    "disconnected": (
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        GraphError,
        "^graph is disconnected$",
    ),
}

TAKE_THE_CLASSES_FROM_G = {
    "decide_periodicity": decide_periodicity,
    "period_from_phases": period_from_phases,
    "spectral_test_biregular": spectral_test_biregular,
    "build_bipartite_walk": build_bipartite_walk,
    "cell_operator": cell_operator,
    "block_identity_check": lambda g: block_identity_check(build_grover_walk(g), 2),
    "block_identity_checks": lambda g: block_identity_checks(build_grover_walk(g), 2),
    "walk_phases_from_graph": walk_phases_from_graph,
}


@pytest.mark.parametrize("defect", sorted(NO_BIPARTITION))
@pytest.mark.parametrize("function", sorted(TAKE_THE_CLASSES_FROM_G))
def test_a_graph_with_no_bipartition_is_an_input_error(function, defect):
    """Each function that takes its classes from bipartition(g) refuses a
    graph that has none with the colouring's own error."""
    g, error, message = NO_BIPARTITION[defect]
    with pytest.raises(error, match=message):
        TAKE_THE_CLASSES_FROM_G[function](g)


def _count_products(monkeypatch, *modules) -> list:
    calls = []

    def counting(a, b):
        calls.append((a.rows, b.cols))
        return mat_mul(a, b)

    for module in modules:
        monkeypatch.setattr(f"{module}.mat_mul", counting)
    return calls


PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestOnePowerPass:
    def test_cycle24_certification_takes_four_products_and_no_trace(self, monkeypatch):
        # tau = 12: one addition chain 1, 2, 4, 6, 12 gives U^4 != I,
        # U^6 != I and U^12 = I (4 products); C24 has as many vertices as
        # edges, so it is certified on U, and a periodic verdict rests on
        # U^tau = I alone, so no trace is taken
        calls = _count_products(monkeypatch, "qwalk.periodicity", "qwalk.exact")
        traces = []
        trace = RationalMatrix.trace
        monkeypatch.setattr(RationalMatrix, "trace", lambda m: traces.append(m) or trace(m))
        v = decide_periodicity(cycle(24))
        assert v.periodic is True and v.period == 12
        assert v.trace_witness is None
        assert len(calls) == 4 and traces == []

    def test_paw_spurious_candidate_is_certified_not_walked(self, monkeypatch):
        # qwalk.exact.mat_mul counts the products of mat_pow as well
        calls = _count_products(monkeypatch, "qwalk.periodicity", "qwalk.exact")
        v = decide_periodicity(PAW, "grover")
        assert v.periodic is False
        assert v.trace_witness == (2, "-2/3")
        assert v.period is None
        assert len(calls) < 64

    @pytest.mark.parametrize(
        "g,kind",
        [
            (complete_bipartite(2, 3), "bipartite"),
            (path(5), "bipartite"),
            (cycle(10), "grover"),
            (PAW, "grover"),
        ],
        ids=["k23", "p5", "c10-grover", "paw-grover"],
    )
    def test_one_char_poly_per_decision(self, monkeypatch, g, kind):
        # q comes from the char-poly of the spectral table when there is one
        # (K23, C10), else from that of the numerators of 4M - 2I (P5, paw)
        calls = []

        def counting(m):
            calls.append(len(m))
            return char_poly(m)

        for module in ("qwalk.periodicity", "qwalk.exact"):
            monkeypatch.setattr(f"{module}.char_poly", counting)
        decide_periodicity(g, kind)
        assert len(calls) == 1

    @pytest.mark.parametrize("c,tau", [(4, 4), (12, 4), (180, 4), (6, None), (3, None)])
    def test_certified_order_descends_to_minimal(self, c, tau):
        assert _certified_order(build_bipartite_walk(cycle(8)).U, c) == tau

    def test_period_beyond_window(self):
        u = build_bipartite_walk(subdivision(circulant(10, [1, 4, -1, -4]))).U
        assert exact_period_oracle(u) == 20
        assert not mat_pow(u, 10).is_identity() and not mat_pow(u, 4).is_identity()

    @pytest.mark.parametrize("name", sorted(NAMED_WALKS))
    def test_trace_test_matches_separate_loop(self, name):
        u = NAMED_WALKS[name].U

        def reference(k_max):
            power = u
            for k in range(1, k_max + 1):
                if power.trace().denominator != 1:
                    return k, power.trace()
                power = mat_mul(power, u)
            return None

        # k_max = 0 raises: TestTraceTest.test_no_power_is_no_pass
        for k_max in (1, 2, 5, TRACE_DEPTH, 20):
            assert trace_test(u, k_max) == reference(k_max), k_max


# ---------------------------------------------------------------------------
# The q decider against the Watkins-Zeitlin route in sympy
# ---------------------------------------------------------------------------


def _sympy_wz_period(sympy, b, minus_one: bool):
    """(periodic, tau) from sympy for a walk whose 2cos(theta) are the
    roots of charpoly(B): periodic iff every factor of it over Q is a
    monic Psi_k (identified through sympy's cyclotomic_poly); tau is the
    lcm of those k, of 1, and of 2 when -1 is an eigenvalue.  The method of
    perfbench/known_answers.walk_period, for graphs that are not biregular."""
    y = sympy.Symbol("y")
    orders = {1}
    for f, _mult in sympy.factor_list(b.charpoly(y).as_expr(), y)[1]:
        f = sympy.Poly(f, y)
        k = sympy_cyclotomic_order(sympy, f, real=True) if f.LC() == 1 else None
        if k is None:
            return False, None
        orders.add(k)
    if minus_one:
        orders.add(2)
    return True, math.lcm(*orders)


def _random_bipartite(rng: random.Random, max_n: int = 9) -> Graph:
    """Random spanning tree plus a few edges across its 2-colouring."""
    n = rng.randint(3, max_n)
    color, edges = [0], set()
    for v in range(1, n):
        parent = rng.randrange(v)
        color.append(1 - color[parent])
        edges.add((parent, v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        if color[u] != color[v]:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def _distinct(rng, draw, keep, count: int) -> list[Graph]:
    seen: dict = {}
    while len(seen) < count:
        g = draw(rng)
        if keep(g):
            seen.setdefault(g.edges, g)
    return list(seen.values())


def _not_biregular(g: Graph) -> bool:
    h = nx.Graph(list(g.edges))
    top, bottom = nx.bipartite.sets(h)
    return len({h.degree(v) for v in top}) > 1 or len({h.degree(v) for v in bottom}) > 1


NOT_BIREGULAR = _distinct(random.Random(61), _random_bipartite, _not_biregular, 100)
NOT_REGULAR = _distinct(
    random.Random(62), lambda rng: random_connected_graph(rng, max_n=7),
    lambda g: len(set(g.degrees())) > 1, 100,
)


class TestKroneckerAgainstSympy:
    """decide_periodicity against sympy on the inputs with no spectral
    table, where the verdict used to rest on a numeric screen and a cap."""

    def test_bipartite_not_biregular(self):
        sympy = pytest.importorskip("sympy")
        outcomes = []
        for g in NOT_BIREGULAR:
            h = nx.Graph(list(g.edges))
            top, bottom = (sorted(side) for side in nx.bipartite.sets(h))
            c = sympy.Matrix(len(top), len(bottom), lambda i, j: int(h.has_edge(top[i], bottom[j])))
            d0 = sympy.diag(*[sympy.Rational(1, h.degree(v)) for v in top])
            d1 = sympy.diag(*[sympy.Rational(1, h.degree(v)) for v in bottom])
            b = 4 * d0 * c * d1 * c.T - 2 * sympy.eye(len(top))
            expected = _sympy_wz_period(sympy, b, len(top) + len(bottom) > 2 * c.rank())
            v = decide_periodicity(g)
            assert (v.periodic, v.period) == expected, g
            outcomes.append(v.periodic)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10

    def test_grover_not_regular(self):
        sympy = pytest.importorskip("sympy")
        outcomes = []
        for g in NOT_REGULAR:
            deg = g.degrees()
            # U_GW(g) is the bipartite walk of S(g): 4M - 2I = 2 D^-1 A on
            # the original vertices, C the vertex-edge incidence matrix
            a = sympy.Matrix(adjacency_matrix(g))
            b = 2 * sympy.diag(*[sympy.Rational(1, d) for d in deg]) * a
            inc = sympy.Matrix(g.n, g.num_edges, lambda i, j: int(i in g.edges[j]))
            expected = _sympy_wz_period(sympy, b, g.n + g.num_edges > 2 * inc.rank())
            v = decide_periodicity(g, "grover")
            assert (v.periodic, v.period) == expected, g
            outcomes.append(v.periodic)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


# ---------------------------------------------------------------------------
# The integer Gram builder against the Fraction formula and sympy
# ---------------------------------------------------------------------------


def _balanced_bipartite(rng: random.Random, max_k: int = 5) -> Graph:
    """Connected bipartite graph with two classes of k vertices (the
    parities): a random spanning tree across them plus a few more edges."""
    n = 2 * rng.randint(1, max_k)
    edges = {(rng.choice(range(1 - v % 2, v, 2)), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        if (u + v) % 2:
            edges.add((u, v))
    return Graph.from_edges(n, edges)


def _block(h: Graph, rows) -> list[list[int]]:
    """The block C of h's adjacency from the class `rows` of bipartition(h)
    to the other, both sorted, from biadjacency."""
    c = biadjacency(h)
    return c if rows == bipartition(h).c0 else [list(col) for col in zip(*c)]


def _dense(pairs, cols: int) -> list[list[int]]:
    """The dense rows of the (column, value) pairs, which must name each
    column at most once, with no zero value."""
    out = []
    for r in pairs:
        assert len({j for j, _ in r}) == len(r) and all(x for _, x in r)
        row = [0] * cols
        for j, x in r:
            row[j] = x
        out.append(row)
    return out


def _assert_gram_and_q(h: Graph, rows, other, shifts) -> None:
    """walks._factors' F / l and F' / l' are Dr^-1 C and Do^-1 C^T in
    Fractions, l and l' the lcms of the degrees; F F' / L, L = l l', is M =
    Dr^-1 C Do^-1 C^T, the expression of the Fraction-built Gram operator
    the integer builder replaced; and q = charpoly(4M - 2I) from
    charpoly(L M - sI) for every shift s: NonIntegralPolynomial exactly
    when sympy's charpoly has a non-integral coefficient."""
    sympy = pytest.importorskip("sympy")
    c = _block(h, rows)
    c_t = [list(col) for col in zip(*c)]
    f, f_t, l, l_other = _factors(h, rows, other)
    assert (l, l_other) == (lcm(*map(sum, c)), lcm(*map(sum, c_t)))
    assert [[Fraction(x, l) for x in row] for row in _dense(f, len(c_t))] == [
        [Fraction(x, sum(r)) for x in r] for r in c
    ]
    assert [[Fraction(x, l_other) for x in row] for row in f_t] == [
        [Fraction(x, sum(r)) for x in r] for r in c_t
    ]
    gram, den = gram_rows(h, rows, other)
    m = [[sum(Fraction(x * y, sum(t)) for x, y, t in zip(r, s, c_t)) / sum(r) for s in c] for r in c]
    assert den == l * l_other
    assert [[Fraction(x, den) for x in row] for row in gram] == m
    expected = sympy.Matrix([[4 * x for x in row] for row in m]) - 2 * sympy.eye(len(m))
    coeffs = [sympy.Rational(c) for c in reversed(expected.charpoly().all_coeffs())]
    for shift in shifts:
        chi = char_poly(
            [[x - shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)]
        )
        if all(c.q == 1 for c in coeffs):
            assert list(_q(chi, den, shift).coeffs) == [int(c) for c in coeffs]
        else:
            with pytest.raises(NonIntegralPolynomial):
                _q(chi, den, shift)


class TestGramAgainstFractions:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_bipartite_on_the_smaller_class(self, seed, balanced):
        rng = random.Random(seed)
        g = _balanced_bipartite(rng) if balanced else _random_bipartite(rng)
        b = bipartition(g)
        _assert_gram_and_q(g, *sorted((b.c0, b.c1), key=len), shifts=(0,))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_subdivision_on_the_original_vertices(self, seed):
        h = subdivision(random_connected_graph(random.Random(seed), max_n=7))
        b = bipartition(h)
        den = gram_rows(h, b.c0, b.c1)[1]
        _assert_gram_and_q(h, b.c0, b.c1, shifts=(0, den // 2))

    def test_biregular_gram_is_c_ct_and_subdivision_of_regular_is_a(self):
        g = figure7_graph()
        h = bipartite_double_cover(g)
        b, c = bipartition(h), biadjacency(h)
        d = h.degrees()[0]  # figure7 is d-regular, its double cover (d, d)-biregular
        c_ct = [[sum(x * y for x, y in zip(r, t)) for t in c] for r in c]
        assert gram_rows(h, b.c0, b.c1) == (c_ct, d * d)
        # C is square and symmetric, so F = F' = C for l = d
        f, f_t, l, l_other = _factors(h, b.c0, b.c1)
        assert (_dense(f, h.n // 2), f_t, l, l_other) == (c, c, d, d)
        sg = subdivision(petersen_graph())
        sb = bipartition(sg)
        gram, den = gram_rows(sg, sb.c0, sb.c1)
        assert den == 6
        assert [[x - 3 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)] == (
            adjacency_matrix(petersen_graph())
        )


def _non_bipartite(rng: random.Random, max_n: int) -> Graph:
    while True:
        g = random_connected_graph(rng, max_n=max_n)
        if not is_bipartite(g):
            return g


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# connected non-bipartite graphs on at most 7 vertices, so covers of at most 14
REGULAR_ODD = {
    "c3": cycle(3), "c5": cycle(5), "c7": cycle(7),
    "k4": _complete_graph(4), "k5": _complete_graph(5),
    "prism": Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    ),
    "circulant7": circulant(7, [1, 2, -1, -2]),
}


def _root_inputs() -> dict[str, Graph]:
    """Double covers of regular and of seeded non-regular non-bipartite
    graphs, and K_{a,a}: graphs whose block C is square and symmetric."""
    graphs = {f"{name}-d": bipartite_double_cover(g) for name, g in REGULAR_ODD.items()}
    rng = random.Random(3300)
    for i in range(30):
        graphs[f"random-{i}-d"] = bipartite_double_cover(_non_bipartite(rng, 7))
    graphs.update({f"k{a}{a}": complete_bipartite(a, a) for a in range(1, 7)})
    return graphs


ROOT_INPUTS = _root_inputs()


class TestChiFromTheRootOfTheGram:
    """_chi takes chi from charpoly(F') by one Graeffe step when F = F',
    that is when the block C from the sorted smaller class to the other is
    square and symmetric, and from the product F F' otherwise: both give
    the char-poly of the Gram rows F F'."""

    @pytest.mark.parametrize("name", sorted(ROOT_INPUTS))
    def test_chi_and_den_are_those_of_the_gram_rows(self, name):
        h = ROOT_INPUTS[name]
        b = bipartition(h)
        gram, den = gram_rows(h, b.c0, b.c1)
        assert _chi(h, "bipartite")[2:] == (char_poly(gram), den, 0)

    @staticmethod
    def _spy(monkeypatch) -> list[str]:
        paths = []
        for name, label in (("_sparse_times_dense", "gram"), ("graeffe_step", "root")):
            original = getattr(qwalk.periodicity, name)
            monkeypatch.setattr(
                qwalk.periodicity, name,
                lambda *a, f=original, s=label: paths.append(s) or f(*a),
            )
        return paths

    @staticmethod
    def _square_and_symmetric(h: Graph) -> bool:
        c = biadjacency(h)
        return len(c) == len(c[0]) and c == [list(col) for col in zip(*c)]

    @staticmethod
    def _gram_only() -> dict[str, Graph]:
        rng = random.Random(3301)
        gram_only = {f"c{2 * k}": cycle(2 * k) for k in range(3, 9)}
        gram_only["heawood"] = heawood_graph()
        for name, h in ROOT_INPUTS.items():
            if name.startswith("random") and h.n >= 12:
                gram_only[f"{name}-relabelled"] = _relabelled(h, rng)
        others = {
            "figure7-d": bipartite_double_cover(figure7_graph()), "k23": complete_bipartite(2, 3),
            "c4": cycle(4), "p6": path(6), "star4": star(4), "figure1": figure1_graph(),
        }
        assert not any(TestChiFromTheRootOfTheGram._square_and_symmetric(h) for h in gram_only.values())
        return {**gram_only, **others}

    def test_the_root_runs_exactly_when_c_is_square_and_symmetric(self, monkeypatch):
        paths = self._spy(monkeypatch)
        for name, h in {**ROOT_INPUTS, **self._gram_only()}.items():
            paths.clear()
            _chi(h, "bipartite")
            assert paths == ["root" if self._square_and_symmetric(h) else "gram"], name
        assert all(self._square_and_symmetric(h) for h in ROOT_INPUTS.values())

    def test_f_equals_f_prime_exactly_when_c_is_square_and_symmetric(self):
        for name, h in {**ROOT_INPUTS, **self._gram_only()}.items():
            b = bipartition(h)
            f, f_t, l, l_other = _factors(h, *sorted((b.c0, b.c1), key=len))
            equal = len(f) == len(f_t) and _nonzeros(_dense(f, len(f_t))) == _nonzeros(f_t)
            assert equal == self._square_and_symmetric(h), name
            assert not equal or l == l_other

    @pytest.mark.parametrize("name", ["c3", "c5", "k4", "prism"])
    def test_a_grover_walk_takes_the_gram_rows(self, monkeypatch, name):
        # S(C3)'s block C is square and symmetric: only the kind keeps it
        # from the root path, which has no shift
        paths = self._spy(monkeypatch)
        for g in (REGULAR_ODD[name], bipartite_double_cover(REGULAR_ODD[name]), cycle(6)):
            paths.clear()
            _chi(g, "grover")
            assert paths == ["gram"]


# ---------------------------------------------------------------------------
# Relabelling: every verdict field is a property of the graph
# ---------------------------------------------------------------------------


def _relabel(g: Graph, rng: random.Random) -> tuple[Graph, bool]:
    """g with its vertices permuted and its edges given in a shuffled order,
    each with its ends in a random order, and whether the new vertex 0, the
    first of bipartition's c0, comes from c1 of a bipartite g."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph.from_edges(g.n, edges), is_bipartite(g) and perm.index(0) in bipartition(g).c1


def _relabel_inputs() -> dict[str, list[Graph]]:
    """Seeded graphs for each way _chi takes chi: double covers, whose C is
    square and symmetric as bipartite_double_cover numbers them (the root,
    for a bipartite walk); other bipartite graphs (the product F F'); and
    non-bipartite graphs, of which only the Grover walk is defined (the
    product less the shift)."""
    rng = random.Random(3600)
    return {
        "double-cover": [bipartite_double_cover(_non_bipartite(rng, 7)) for _ in range(40)],
        "bipartite": [random_connected_bipartite(rng, max_n=12) for _ in range(40)],
        "non-bipartite": [_non_bipartite(rng, 8) for _ in range(40)],
    }


RELABEL_INPUTS = _relabel_inputs()


class TestRelabelling:
    """Relabelling the vertices and reordering the edges leaves every field
    of verdict_to_dict(decide_periodicity(g, kind)) unchanged, but for d0
    and d1, which swap when the new vertex 0 comes from the other class."""

    @staticmethod
    def _swapped(report: dict) -> dict:
        s = report["spectral"]
        return report if s is None else {**report, "spectral": {**s, "d0": s["d1"], "d1": s["d0"]}}

    @pytest.mark.parametrize("family", sorted(RELABEL_INPUTS))
    def test_the_verdict_is_a_property_of_the_graph(self, monkeypatch, family):
        rng = random.Random(f"relabel-{family}")
        kinds = ("grover",) if family == "non-bipartite" else ("bipartite", "grover")
        paths = TestChiFromTheRootOfTheGram._spy(monkeypatch)
        taken, swaps = set(), 0
        for g in RELABEL_INPUTS[family]:
            h, swap = _relabel(g, rng)
            for kind in kinds:
                paths.clear()
                expected = verdict_to_dict(decide_periodicity(g, kind))
                taken.add((kind, paths[0]))
                got = verdict_to_dict(decide_periodicity(h, kind))
                taken.add((kind, paths[-1]))
                if swap and kind == "bipartite":
                    swaps += got != expected
                    expected = self._swapped(expected)
                assert got == expected, (family, kind, g.edges)
        want = {"double-cover": {("bipartite", "root"), ("grover", "gram")},
                "bipartite": {("bipartite", "gram"), ("grover", "gram")},
                "non-bipartite": {("grover", "gram")}}
        assert want[family] <= taken
        # the swap of d0 and d1 is seen, not only allowed: a double cover's
        # classes have one degree multiset
        assert swaps or family != "bipartite"
