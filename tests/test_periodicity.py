import math
import random
from fractions import Fraction

import pytest

from qwalk.exact import QuadraticValue, RationalMatrix
from qwalk.graphs import (
    Graph,
    bipartite_double_cover,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    figure7_graph,
    heawood_graph,
    is_bipartite,
    petersen_graph,
    star,
    subdivision,
)
from qwalk.periodicity import (
    MethodDisagreement,
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
from qwalk.scan import scan_periodicity
from qwalk.spectral import GROUP_TOL, eigenvalue_support
from qwalk.walks import build_bipartite_walk, build_grover_walk
from test_walks import random_connected_graph

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

    def test_golden_entries(self):
        # (3 + sqrt5)/8 * 8 = 3 + sqrt5 for the subdivided 4-regular case
        table = dict(allowed_value_table(4, 2))
        assert table[QuadraticValue.of(3, 1, 5)] == 5
        assert table[QuadraticValue.of(5, 1, 5)] == 10


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
        assert exact_period_oracle(u, cap=10000) is None

    def test_small_cap(self):
        u = build_bipartite_walk(cycle(8)).U
        assert exact_period_oracle(u, cap=3) is None
        assert exact_period_oracle(u, cap=4) == 4

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exact_period_oracle(RationalMatrix([[1, 0]]))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            exact_period_oracle(build_bipartite_walk(cycle(6)).U, cap)


class TestTraceTest:
    def test_figure1_witness(self):
        witness = trace_test(build_bipartite_walk(figure1_graph()).U)
        assert witness == (1, F(-1, 3))

    def test_periodic_graph_passes(self):
        assert trace_test(build_bipartite_walk(cycle(6)).U) is None

    def test_heawood_fails(self):
        assert trace_test(build_bipartite_walk(heawood_graph()).U) is not None


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
        g, b = bipartite_double_cover(figure7_graph())
        v = spectral_test_biregular(g, b)
        assert v.status == "periodic"
        values = {str(c.value) for c in v.classifications}
        assert values == {"16", "4", "0", "6-2*sqrt(5)", "6+2*sqrt(5)"}


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
        g, b = subdivision(circulant(10, [1, 4, -1, -4]))
        assert period_from_phases(g, b) == 20


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
    "s-circulant10-14": build_bipartite_walk(*subdivision(circulant(10, [1, 4, -1, -4]))),
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
        for g, b, v in scan_periodicity(9):
            classes += 1
            w = build_bipartite_walk(g, b)
            every_state = all(state_periodicity(w, e) for e in range(w.dim))
            assert every_state == (v.oracle_period is not None), g
        assert classes == 15

    @pytest.mark.parametrize("edge", [99, 6, -1])
    def test_out_of_range_edge(self, edge):
        w = build_bipartite_walk(cycle(6))
        with pytest.raises(ValueError):
            state_periodicity(w, edge)


class TestDecidePeriodicity:
    def test_figure1_verdict(self):
        v = decide_periodicity(figure1_graph())
        assert v.periodic is False
        assert v.trace_witness == (1, "-1/3")

    def test_c6_all_methods_agree(self):
        v = decide_periodicity(cycle(6))
        assert v.periodic is True and v.period == 3
        assert v.oracle_period == v.phase_period == 3
        assert v.spectral.status == "periodic"

    def test_grover_kind(self):
        v = decide_periodicity(complete_bipartite(2, 2), kind="grover")
        assert v.periodic is True and v.period == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            decide_periodicity(cycle(6), kind="mystery")

    def test_spectral_only_still_concludes(self):
        v = decide_periodicity(cycle(6), methods=("spectral", "phases"))
        assert v.periodic is True and v.period == 3
        assert not v.oracle_ran


class TestScanAgreement:
    def test_spectral_matches_oracle_up_to_nine_edges(self):
        """Exhaustive cross-validation of the characterization at desk scale."""
        count = 0
        for g, b, v in scan_periodicity(9):
            count += 1
            if v.spectral is None or v.spectral.status == "inconclusive":
                continue
            spectral_periodic = v.spectral.status == "periodic"
            oracle_periodic = v.oracle_period is not None
            assert spectral_periodic == oracle_periodic, g
        assert count == 15

    def test_disagreement_would_raise(self):
        # decide_periodicity raises MethodDisagreement on contradiction; the
        # scan above completing without one is the real assertion, so just
        # confirm the exception type is what callers must catch
        assert issubclass(MethodDisagreement, RuntimeError)
