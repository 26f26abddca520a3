"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with -s (or rely on pytest's captured-output-on-failure) to see the
lines; every criterion is also enforced by plain asserts.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qwalk.cli import main
from qwalk.exact import (
    HigherDegreeFactor,
    RationalMatrix,
    char_poly,
    eval_at_quadratic,
    mat_mul,
    mat_pow,
    roots_degree_le2,
    QuadraticValue,
)
from qwalk.graphs import (
    Graph,
    adjacency_matrix,
    bipartite_double_cover,
    circulant,
    complete_bipartite,
    cycle,
    figure1_graph,
    figure4a_graph,
    figure7_graph,
    heawood_graph,
    petersen_graph,
    subdivision,
)
from qwalk.periodicity import (
    exact_period_oracle,
    grover_period_doubling,
    grover_regular_test,
    period_from_phases,
    spectral_test_biregular,
    trace_test,
)
from qwalk.scan import scan_periodicity
from qwalk.spectral import (
    line_graph_spectrum,
    line_graph_spectrum_direct,
    pm1_eigenspace_dims,
    subdivision_spectrum,
    subdivision_spectrum_direct,
    unitary_idempotents,
    walk_phases_from_graph,
)
from qwalk.walks import (
    block_identity_check,
    build_bipartite_walk,
    build_grover_walk,
    grover_equals_bipartite_on_subdivision,
)
from test_walks import FIG1_P, FIG1_Q, FIG1_U, random_connected_graph

BIPARTITE_CATALOG = {
    "k11": complete_bipartite(1, 1),
    "k22": complete_bipartite(2, 2),
    "k33": complete_bipartite(3, 3),
    "c6": cycle(6),
    "c8": cycle(8),
    "heawood": heawood_graph(),
}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_1_printed_operator_reproduction(capsys):
    start = time.perf_counter()
    code = main(["walk", "figure1", "--kind", "b"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    got = {
        name: RationalMatrix([[Fraction(s) for s in row] for row in doc[name]])
        for name in ("P", "Q", "U")
    }
    ok = (
        code == 0
        and got["P"] == RationalMatrix(FIG1_P)
        and got["Q"] == RationalMatrix(FIG1_Q)
        and got["U"] == RationalMatrix(FIG1_U)
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(1, "printed-operator reproduction", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_trace_witness(capsys):
    w = build_bipartite_walk(figure1_graph())
    witness = trace_test(w.U)
    verdict = exact_period_oracle(w.U)
    ok = witness == (1, Fraction(-1, 3)) and verdict is None
    with capsys.disabled():
        report(2, "figure1 trace witness -1/3 at k=1, non-periodic", ok)


def test_criterion_3_grover_equality(capsys):
    start = time.perf_counter()
    fixtures = [
        figure4a_graph(),
        complete_bipartite(1, 1),
        cycle(4),
        Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        petersen_graph(),
    ]
    rng = random.Random(42)
    fixtures += [random_connected_graph(rng) for _ in range(10)]
    ok = all(grover_equals_bipartite_on_subdivision(build_grover_walk(g))[0] for g in fixtures)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, "U_BW(S(G)) = U_GW(G) on 15 graphs", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_4_block_identity_and_doubling(capsys):
    start = time.perf_counter()
    ok = True
    details = []
    for name, g in BIPARTITE_CATALOG.items():
        gw = build_grover_walk(g)
        ok = ok and all(block_identity_check(gw, k) for k in range(1, 5))
        tau_bw = exact_period_oracle(build_bipartite_walk(g).U)
        if tau_bw is not None:
            tau_bw2, tau_gw = grover_period_doubling(g)
            ok = ok and tau_bw2 == tau_bw and tau_gw == 2 * tau_bw
            details.append(f"{name}:{tau_bw}->{tau_gw}")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            4,
            "block identity k<=4 and period doubling",
            ok and elapsed < 10.0,
            "; ".join(details) + f"; {elapsed:.2f}s",
        )


def test_criterion_5_cayley_graph_period_20(capsys):
    start = time.perf_counter()
    g = subdivision(circulant(10, [1, 4, -1, -4]))
    tau_oracle = exact_period_oracle(build_bipartite_walk(g).U)
    tau_phases = period_from_phases(g)
    ok = tau_oracle == 20 and tau_phases == 20
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(5, "S(circulant(10,{1,4})) periodic with tau=20", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_6_double_cover_report(capsys):
    start = time.perf_counter()
    g = bipartite_double_cover(figure7_graph())
    verdict = spectral_test_biregular(g)
    values = {str(c.value) for c in verdict.classifications}
    expected_roots = {"16", "4", "0", "6-2*sqrt(5)", "6+2*sqrt(5)"}
    tau_oracle = exact_period_oracle(build_bipartite_walk(g).U)
    tau_phases = period_from_phases(g)
    ok = (
        verdict.status == "periodic"
        and values == expected_roots
        and tau_oracle is not None
        and tau_oracle == tau_phases
        and tau_oracle == 30
    )
    elapsed = time.perf_counter() - start
    # lcm of the walk-eigenvalue orders 1, 2, 3, 5 (Watkins-Zeitlin route)
    reference_tau = 30
    comparison = "matches" if tau_oracle == reference_tau else "differs from"
    with capsys.disabled():
        report(
            6,
            "figure7 x K2 spectrally periodic, internal agreement",
            ok and elapsed < 60.0,
            f"tau={tau_oracle} {comparison} reference value {reference_tau}; {elapsed:.2f}s",
        )


def test_criterion_7_characterization_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    checked = 0
    for g, v in scan_periodicity(9):
        if v.spectral is None or v.spectral.status == "inconclusive":
            continue
        checked += 1
        oracle_periodic = exact_period_oracle(build_bipartite_walk(g).U) is not None
        ok = ok and (v.spectral.status == "periodic") == oracle_periodic == v.periodic
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            7,
            "spectral verdict == oracle on all graphs with <=9 edges",
            ok and checked == 15 and elapsed < 120.0,
            f"{checked} graphs; {elapsed:.2f}s",
        )


def test_criterion_8_negative_fixtures(capsys):
    start = time.perf_counter()
    hw = spectral_test_biregular(heawood_graph())
    hw_bad = {str(c.value) for c in hw.classifications if not c.allowed}
    hw_trace = trace_test(build_bipartite_walk(heawood_graph()).U)
    pt = grover_regular_test(petersen_graph())
    pt_bad = {str(c.value) for c in pt.classifications if not c.allowed}
    pt_oracle = exact_period_oracle(build_grover_walk(petersen_graph()).U)
    ok = (
        hw.status == "non-periodic"
        and hw_bad == {"2"}
        and hw_trace is not None
        and pt.status == "non-periodic"
        and "1" in pt_bad
        and pt_oracle is None
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, "Heawood and Petersen certified non-periodic", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_9_spectral_correspondence(capsys):
    start = time.perf_counter()
    tol = 1e-8
    ok = True
    for g in BIPARTITE_CATALOG.values():
        w = build_bipartite_walk(g)
        ph = walk_phases_from_graph(g)
        plus, minus = pm1_eigenspace_dims(w)
        predicted = [0.0] * plus + [math.pi] * minus
        for theta, mult in ph.phases:
            predicted += [theta] * mult + [-theta] * mult
        u = np.asarray(w.U.to_floats())
        actual = sorted(
            t if t > -math.pi + tol else math.pi for t in np.angle(np.linalg.eigvals(u))
        )
        ok = ok and np.allclose(sorted(predicted), actual, atol=tol)
        idems = unitary_idempotents(u)
        ok = ok and np.max(np.abs(sum(e for _, e in idems) - np.eye(w.dim))) <= tol
    for g in (cycle(4), petersen_graph(), figure7_graph()):
        a, bb = subdivision_spectrum(g), subdivision_spectrum_direct(g)
        ok = ok and all(abs(x - y) <= tol and mx == my for (x, mx), (y, my) in zip(a, bb))
        a, bb = line_graph_spectrum(g), line_graph_spectrum_direct(g)
        ok = ok and all(abs(x - y) <= tol and mx == my for (x, mx), (y, my) in zip(a, bb))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(9, "phases/idempotents/derived spectra within 1e-8", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_10_exact_kernel_properties(capsys):
    start = time.perf_counter()
    ok = True
    # Cayley-Hamilton on every catalog adjacency matrix
    for g in list(BIPARTITE_CATALOG.values()) + [petersen_graph(), figure7_graph()]:
        m = adjacency_matrix(g)
        p = char_poly(m)
        a = RationalMatrix(m)
        acc = RationalMatrix.zeros(g.n, g.n)
        power = RationalMatrix.identity(g.n)
        for c in p.coeffs:
            acc = acc.add(power.scale(c))
            power = mat_mul(power, a)
        ok = ok and acc == RationalMatrix.zeros(g.n, g.n)
        # every root returned for the characteristic polynomial evaluates to
        # 0; the adjacency eigenvalues are real and in [-max degree, max degree]
        d = max(g.degrees())
        try:
            for v, _ in roots_degree_le2(p, (-d, d)):
                ok = ok and eval_at_quadratic(p, v) == QuadraticValue.rational(0)
        except HigherDegreeFactor:
            pass  # factors of degree > 2 are out of scope for the root finder
    # mat_pow additivity on 50 seeded random rational matrices
    rng = random.Random(42)
    for _ in range(50):
        m = RationalMatrix(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)
            ]
        )
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        ok = ok and mat_pow(m, i + j) == mat_mul(mat_pow(m, i), mat_pow(m, j))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(10, "exact kernel properties", ok and elapsed < 30.0, f"{elapsed:.2f}s")
