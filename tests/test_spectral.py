import math

import numpy as np
import pytest

from qwalk.graphs import (
    Graph,
    adjacency_matrix,
    bipartition,
    complete_bipartite,
    cycle,
    figure7_graph,
    heawood_graph,
    petersen_graph,
    subdivision,
)
from qwalk.spectral import (
    NotBiregularError,
    complex_eigenprojection,
    eigenvalue_support,
    line_graph_spectrum,
    line_graph_spectrum_direct,
    pm1_eigenspace_dims,
    subdivision_spectrum,
    subdivision_spectrum_direct,
    sym_eig,
    unitary_idempotents,
    walk_phases_from_graph,
)
from qwalk.walks import build_bipartite_walk

TOL = 1e-8

BIREGULAR_CATALOG = [
    complete_bipartite(1, 1),
    complete_bipartite(2, 2),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    cycle(4),
    cycle(6),
    cycle(8),
    heawood_graph(),
]

REGULAR_CATALOG = [
    cycle(4),
    cycle(5),
    complete_bipartite(3, 3),
    petersen_graph(),
    figure7_graph(),
    Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
]


def spectra_match(a, b, tol=TOL):
    return len(a) == len(b) and all(
        abs(x - y) <= tol and mx == my for (x, mx), (y, my) in zip(a, b)
    )


class TestSymEig:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig([[0, 1], [0, 0]])

    def test_cycle_spectrum(self):
        dec = sym_eig(adjacency_matrix(cycle(6)))
        expected = [(-2.0, 1), (-1.0, 2), (1.0, 2), (2.0, 1)]
        assert spectra_match(list(dec.eigenvalues), expected)


class TestWalkPhases:
    def test_c6_phases(self):
        ph = walk_phases_from_graph(cycle(6))
        assert ph.plus == 2 and ph.minus == 0
        assert len(ph.phases) == 1
        theta, mult = ph.phases[0]
        assert mult == 2 and abs(theta - 2 * math.pi / 3) <= TOL

    def test_k22_is_pm1_only(self):
        ph = walk_phases_from_graph(complete_bipartite(2, 2))
        assert ph.phases == () and ph.plus == 2 and ph.minus == 2

    def test_rejects_irregular(self):
        with pytest.raises(NotBiregularError):
            walk_phases_from_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    @pytest.mark.parametrize("g", BIREGULAR_CATALOG, ids=lambda g: f"n{g.n}e{g.num_edges}")
    def test_phase_multiset_matches_numeric_spectrum(self, g):
        """Graph-side phases reproduce the full spectrum of U within 1e-8."""
        w = build_bipartite_walk(g)
        ph = walk_phases_from_graph(g)
        assert ph.total_dimension() == w.dim
        predicted = [0.0] * ph.plus + [math.pi] * ph.minus
        for theta, mult in ph.phases:
            predicted += [theta] * mult + [-theta] * mult
        actual = sorted(
            np.angle(np.linalg.eigvals(np.asarray(w.U.to_floats())))
        )
        # fold -pi to pi so both renderings of the -1 eigenvalue agree
        actual = sorted(t if t > -math.pi + TOL else math.pi for t in actual)
        assert np.allclose(sorted(predicted), actual, atol=TOL)

    @pytest.mark.parametrize("g", BIREGULAR_CATALOG, ids=lambda g: f"n{g.n}e{g.num_edges}")
    def test_idempotents_resolve_identity(self, g):
        w = build_bipartite_walk(g)
        u = np.asarray(w.U.to_floats())
        idems = unitary_idempotents(u)
        total = sum(e for _, e in idems)
        assert np.max(np.abs(total - np.eye(w.dim))) <= TOL
        recon = sum(np.exp(1j * t) * e for t, e in idems)
        assert np.max(np.abs(recon - u)) <= TOL


class TestComplexEigenprojection:
    def test_c6_third_roots(self):
        w = build_bipartite_walk(cycle(6))
        fp, fm = complex_eigenprojection(w, 0.25)
        u = np.asarray(w.U.to_floats())
        theta = math.acos(2 * 0.25 - 1)
        for f, sign in ((fp, 1), (fm, -1)):
            assert np.max(np.abs(f @ f - f)) <= 1e-9
            assert np.max(np.abs(u @ f - np.exp(sign * 1j * theta) * f)) <= 1e-9
        assert np.max(np.abs((fp + fm).imag)) <= 1e-9

    def test_heawood_interior_value(self):
        # lambda = sqrt(2) on the Heawood graph: mu = 2/9
        w = build_bipartite_walk(heawood_graph())
        fp, _ = complex_eigenprojection(w, 2 / 9)
        u = np.asarray(w.U.to_floats())
        theta = math.acos(2 * (2 / 9) - 1)
        assert np.max(np.abs(u @ fp - np.exp(1j * theta) * fp)) <= 1e-9

    def test_boundary_mu_rejected(self):
        w = build_bipartite_walk(cycle(6))
        with pytest.raises(ValueError):
            complex_eigenprojection(w, 1.0)


class TestPM1Dims:
    def test_formulas_match_numeric_multiplicities(self):
        for g in BIREGULAR_CATALOG:
            w = build_bipartite_walk(g)
            plus, minus = pm1_eigenspace_dims(w)
            vals = np.linalg.eigvals(np.asarray(w.U.to_floats()))
            assert plus == int(np.sum(np.abs(vals - 1) <= 1e-6))
            assert minus == int(np.sum(np.abs(vals + 1) <= 1e-6))


class TestDerivedSpectra:
    @pytest.mark.parametrize("g", REGULAR_CATALOG, ids=lambda g: f"n{g.n}e{g.num_edges}")
    def test_subdivision_spectrum(self, g):
        assert spectra_match(subdivision_spectrum(g), subdivision_spectrum_direct(g))

    @pytest.mark.parametrize("g", REGULAR_CATALOG, ids=lambda g: f"n{g.n}e{g.num_edges}")
    def test_line_graph_spectrum(self, g):
        assert spectra_match(line_graph_spectrum(g), line_graph_spectrum_direct(g))

    def test_subdivision_zero_multiplicity(self):
        # C4 is bipartite, so lambda = -2 occurs and contributes two zeros
        spec = dict(subdivision_spectrum(cycle(4)))
        zero_mult = next(m for v, m in spec.items() if abs(v) <= TOL)
        assert zero_mult == 2


class TestEigenvalueSupport:
    def test_symmetric_pairs(self):
        w = build_bipartite_walk(cycle(6))
        sup = eigenvalue_support(w, 0)
        for r, s in sup.pairs:
            assert (s, r) in sup.pairs

    def test_periodic_edge_has_rational_phases(self):
        w = build_bipartite_walk(cycle(6))
        sup = eigenvalue_support(w, 0)
        for theta in sup.phases():
            assert abs((3 * theta / (2 * math.pi)) - round(3 * theta / (2 * math.pi))) <= 1e-6

    def test_out_of_range_edge(self):
        w = build_bipartite_walk(cycle(4))
        with pytest.raises(ValueError):
            eigenvalue_support(w, 99)


class TestSubdivisionPhaseConsistency:
    def test_subdivided_petersen_phases_cover_walk(self):
        g = subdivision(petersen_graph())
        assert bipartition(g)
        ph = walk_phases_from_graph(g)
        w = build_bipartite_walk(g)
        assert ph.total_dimension() == w.dim
