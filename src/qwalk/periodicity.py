"""Periodicity deciders for bipartite and Grover walks.

Three mutually cross-checking routes:

1. exact oracle     -- iterated exact rational powers of U (ground truth);
2. spectral test    -- exact membership of every squared adjacency
                       eigenvalue in the closed allowed-value table;
3. eigenphase orders -- cyclotomic order bookkeeping, giving the period as
                       an lcm when the spectral test accepts.

The allowed values and their orders come from the classification of the
angles whose doubled cosine is an algebraic integer of degree at most two
(orders 1,2,3,4,6 for degree one; 5,8,10,12 for degree two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from .exact import (
    HigherDegreeFactor,
    QuadraticValue,
    RationalMatrix,
    char_poly,
    mat_mul,
    roots_degree_le2,
)
from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    adjacency_matrix,
    biadjacency,
    bipartition,
    degree_profile,
    subdivision,
)
from .spectral import (
    GROUP_TOL,
    NotBiregularError,
    eigenvalue_support,
    pm1_eigenspace_dims,
)
from .walks import WalkOperator, build_bipartite_walk, build_grover_walk

DEFAULT_CAP = 10000
PHASE_ABORT_TOL = 1e-6


class MethodDisagreement(RuntimeError):
    """Two periodicity methods produced contradictory definite answers."""


class PeriodCapExceeded(RuntimeError):
    """The exact oracle hit its cap before certifying a period."""


# ---------------------------------------------------------------------------
# Allowed-value table
# ---------------------------------------------------------------------------


def allowed_value_table(d0: int, d1: int) -> list[tuple[QuadraticValue, int]]:
    """Squared-eigenvalue values admitting a periodic walk, with the
    cyclotomic order of the corresponding walk eigenvalue.

    Degree-one entries: {0, 1/4, 1/2, 3/4, 1} * d0*d1.
    Degree-two entries: {1/2 +- sqrt2/4, 1/2 +- sqrt3/4, (5 +- sqrt5)/8,
    (3 +- sqrt5)/8} * d0*d1.
    """
    dd = d0 * d1
    table: list[tuple[QuadraticValue, int]] = [
        (QuadraticValue.rational(dd), 1),            # cos = 1
        (QuadraticValue.rational(0), 2),             # cos = -1
        (QuadraticValue.rational(Fraction(dd, 2)), 4),       # cos = 0
        (QuadraticValue.rational(Fraction(3 * dd, 4)), 6),   # cos = 1/2
        (QuadraticValue.rational(Fraction(dd, 4)), 3),       # cos = -1/2
    ]
    for sign in (1, -1):
        table.append((QuadraticValue.of(Fraction(dd, 2), sign * Fraction(dd, 4), 2), 8))
        table.append((QuadraticValue.of(Fraction(dd, 2), sign * Fraction(dd, 4), 3), 12))
        # (5 +- sqrt5)/8 * dd  ->  cos = +-(sqrt5+1)/4 - ... order 10
        table.append((QuadraticValue.of(Fraction(5 * dd, 8), sign * Fraction(dd, 8), 5), 10))
        # (3 +- sqrt5)/8 * dd  ->  cos = +-(sqrt5-1)/4, order 5
        table.append((QuadraticValue.of(Fraction(3 * dd, 8), sign * Fraction(dd, 8), 5), 5))
    return table


# ---------------------------------------------------------------------------
# Exact oracle and trace test
# ---------------------------------------------------------------------------


def _phase_lcm_candidate(u: RationalMatrix, cap: int) -> Optional[int]:
    """Candidate period from numeric eigenphases, or None when some phase
    is provably not a rational multiple of 2*pi with denominator <= cap.

    If U^t = I for t <= cap then every eigenphase is exactly 2*pi*m/t, so
    a best rational approximation with denominator <= cap recovers m/t to
    within numerical noise; a residual above PHASE_ABORT_TOL certifies
    that no period <= cap exists.
    """
    vals = np.linalg.eigvals(np.asarray(u.to_floats()))
    lcm = 1
    for z in vals:
        frac = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0
        approx = Fraction(frac).limit_denominator(cap)
        if abs(frac - float(approx)) * 2 * math.pi > PHASE_ABORT_TOL:
            return None
        lcm = lcm * approx.denominator // gcd(lcm, approx.denominator)
        if lcm > cap:
            return None
    return lcm


def exact_period_oracle(u: RationalMatrix, cap: int = DEFAULT_CAP) -> Optional[int]:
    """Minimal tau <= cap with U^tau = I exactly, else None.

    A numeric eigenphase screen first rules out caps that cannot be met;
    the period itself is then certified by iterated exact multiplication.
    """
    if not u.is_square:
        raise ValueError("U must be square")
    candidate = _phase_lcm_candidate(u, cap)
    if candidate is None:
        return None
    power = u
    for k in range(1, min(candidate, cap) + 1):
        if power.is_identity():
            return k
        power = mat_mul(power, u)
    return None


def trace_test(u: RationalMatrix, k_max: int = 12) -> Optional[tuple[int, Fraction]]:
    """Integrality of tr(U^k) for k = 1..k_max: a necessary condition for
    periodicity.  Returns None on pass, else the first (k, trace) witness.
    """
    power = u
    for k in range(1, k_max + 1):
        t = power.trace()
        if t.denominator != 1:
            return k, t
        power = mat_mul(power, u)
    return None


# ---------------------------------------------------------------------------
# Spectral characterization (biregular bipartite)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenvalueClassification:
    value: QuadraticValue  # squared adjacency eigenvalue
    multiplicity: int
    allowed: bool
    order: Optional[int]  # cyclotomic order of the walk eigenvalue


@dataclass(frozen=True)
class SpectralVerdict:
    status: str  # "periodic" | "non-periodic" | "inconclusive"
    d0: Optional[int] = None
    d1: Optional[int] = None
    classifications: tuple[EigenvalueClassification, ...] = ()
    reason: Optional[str] = None


def _squared_spectrum_roots(
    g: Graph, b: Bipartition
) -> list[tuple[QuadraticValue, int]]:
    """Exact squared adjacency eigenvalues from the smaller Gram block of
    the bipartition-ordered adjacency matrix."""
    c = biadjacency(g, b)
    rows, cols = len(c), len(c[0])
    if rows <= cols:
        gram = [
            [sum(c[i][k] * c[j][k] for k in range(cols)) for j in range(rows)]
            for i in range(rows)
        ]
    else:
        gram = [
            [sum(c[k][i] * c[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(cols)
        ]
    return roots_degree_le2(char_poly(gram))


def spectral_test_biregular(g: Graph, b: Optional[Bipartition] = None) -> SpectralVerdict:
    """Exact spectral periodicity test for connected biregular bipartite
    graphs: periodic iff every squared adjacency eigenvalue sits in the
    allowed-value table for (d0, d1).

    A residual factor of algebraic degree > 2 is outside the
    characterization's hypothesis and yields "inconclusive".
    """
    if b is None:
        b = bipartition(g)
    prof = degree_profile(g, b)
    if not prof.is_biregular:
        raise NotBiregularError("spectral test requires a biregular graph")
    d0, d1 = prof.d0, prof.d1
    try:
        roots = _squared_spectrum_roots(g, b)
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", d0, d1, reason=str(exc))
    table = dict(allowed_value_table(d0, d1))
    classifications = []
    all_allowed = True
    for value, mult in roots:
        order = table.get(value)
        allowed = order is not None
        all_allowed = all_allowed and allowed
        classifications.append(EigenvalueClassification(value, mult, allowed, order))
    # conjugate roots are produced pairwise by the factorizer; verify anyway
    by_value = {c.value: c.multiplicity for c in classifications}
    for c in classifications:
        if not c.value.is_rational and by_value.get(c.value.conjugate()) != c.multiplicity:
            return SpectralVerdict(
                "non-periodic", d0, d1, tuple(classifications),
                reason="conjugate pair multiplicities differ",
            )
    status = "periodic" if all_allowed else "non-periodic"
    return SpectralVerdict(status, d0, d1, tuple(classifications))


def period_from_phases(g: Graph, b: Optional[Bipartition] = None) -> int:
    """Period as the lcm of the cyclotomic orders of all walk eigenvalues.

    Precondition: spectral_test_biregular accepted the graph.
    """
    if b is None:
        b = bipartition(g)
    verdict = spectral_test_biregular(g, b)
    if verdict.status != "periodic":
        raise ValueError(f"graph is not spectrally periodic: {verdict.status}")
    return _phase_period(verdict, build_bipartite_walk(g, b))


def _phase_period(verdict: SpectralVerdict, w: WalkOperator) -> int:
    """Period from an accepting biregular verdict and its walk w: the lcm
    of the verdict's orders, of 1, and of 2 when w has a -1 eigenvector."""
    orders = {1}  # the +1 eigenspace of a connected graph is never empty
    for c in verdict.classifications:
        orders.add(c.order)
    _, dim_minus = pm1_eigenspace_dims(w)
    if dim_minus > 0:
        orders.add(2)
    tau = 1
    for o in orders:
        tau = tau * o // gcd(tau, o)
    return tau


# ---------------------------------------------------------------------------
# Grover walk on regular graphs
# ---------------------------------------------------------------------------


def grover_regular_test(g: Graph) -> SpectralVerdict:
    """Periodicity of the Grover walk on a connected d-regular graph,
    equivalently of the bipartite walk on its subdivision.

    Allowed adjacency eigenvalues: rational ones in {0, +-d, +-d/2};
    quadratic ones in {+-sqrt2/2 d, +-sqrt3/2 d, (+-1 +- sqrt5)/4 d}.
    """
    degs = set(g.degrees())
    if len(degs) != 1:
        raise GraphError("grover test requires a regular graph")
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    d = degs.pop()
    try:
        roots = roots_degree_le2(char_poly(adjacency_matrix(g)))
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", 2, d, reason=str(exc))
    allowed_rational = {
        QuadraticValue.rational(0),
        QuadraticValue.rational(d),
        QuadraticValue.rational(-d),
        QuadraticValue.rational(Fraction(d, 2)),
        QuadraticValue.rational(Fraction(-d, 2)),
    }
    allowed_quadratic = set()
    for sign in (1, -1):
        allowed_quadratic.add(QuadraticValue.of(0, sign * Fraction(d, 2), 2))
        allowed_quadratic.add(QuadraticValue.of(0, sign * Fraction(d, 2), 3))
        for a_sign in (1, -1):
            allowed_quadratic.add(
                QuadraticValue.of(a_sign * Fraction(d, 4), sign * Fraction(d, 4), 5)
            )
    classifications = []
    all_allowed = True
    for value, mult in roots:
        allowed = value in allowed_rational or value in allowed_quadratic
        all_allowed = all_allowed and allowed
        classifications.append(EigenvalueClassification(value, mult, allowed, None))
    status = "periodic" if all_allowed else "non-periodic"
    return SpectralVerdict(status, 2, d, tuple(classifications))


# ---------------------------------------------------------------------------
# Per-state periodicity
# ---------------------------------------------------------------------------

_NIVEN_COSINES = (
    0.0, 1.0, -1.0, 0.5, -0.5,
    math.sqrt(2) / 2, -math.sqrt(2) / 2,
    math.sqrt(3) / 2, -math.sqrt(3) / 2,
    (math.sqrt(5) - 1) / 4, -(math.sqrt(5) - 1) / 4,
    (math.sqrt(5) + 1) / 4, -(math.sqrt(5) + 1) / 4,
)

STATE_DENOMINATOR_BOUND = 48


def _phase_is_rational_pi(theta: float) -> bool:
    c = math.cos(theta)
    if any(abs(c - x) <= GROUP_TOL for x in _NIVEN_COSINES):
        return True
    approx = Fraction(abs(theta) / math.pi).limit_denominator(STATE_DENOMINATOR_BOUND)
    return abs(abs(theta) - float(approx) * math.pi) <= GROUP_TOL


def state_periodicity(w: WalkOperator, edge: int) -> bool:
    """Per-state test: the edge state is periodic iff every phase in its
    eigenvalue support is a rational multiple of pi."""
    support = eigenvalue_support(w, edge)
    return all(_phase_is_rational_pi(t) for t in support.phases())


# ---------------------------------------------------------------------------
# Period doubling and aggregated verdicts
# ---------------------------------------------------------------------------


def grover_period_doubling(g: Graph, cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """Exact periods (tau_bipartite, tau_grover) for a connected bipartite
    graph, asserting the doubling relation tau_grover = 2 * tau_bipartite.
    """
    tau_bw = exact_period_oracle(build_bipartite_walk(g).U, cap)
    tau_gw = exact_period_oracle(build_grover_walk(g).U, cap)
    if tau_bw is None or tau_gw is None:
        raise PeriodCapExceeded(f"no period within cap {cap}")
    if tau_gw != 2 * tau_bw:
        raise MethodDisagreement(
            f"period doubling violated: bipartite {tau_bw}, grover {tau_gw}"
        )
    if tau_gw % 2 != 0:
        raise MethodDisagreement("grover walk produced an odd period")
    return tau_bw, tau_gw


@dataclass
class PeriodicityVerdict:
    """Aggregated evidence from the selected methods."""

    periodic: object  # True | False | "inconclusive"
    period: Optional[int] = None
    oracle_period: Optional[int] = None
    oracle_ran: bool = False
    spectral: Optional[SpectralVerdict] = None
    phase_period: Optional[int] = None
    trace_witness: Optional[tuple[int, str]] = None
    notes: list[str] = field(default_factory=list)


def decide_periodicity(
    g: Graph,
    kind: str = "bipartite",
    cap: int = DEFAULT_CAP,
    methods: tuple[str, ...] = ("oracle", "spectral", "phases", "trace"),
) -> PeriodicityVerdict:
    """Run the selected methods on a walk over g and cross-check them.

    kind "bipartite" requires g connected bipartite; kind "grover" accepts
    any connected graph (its spectral route goes through the subdivision).
    Contradictory definite answers raise MethodDisagreement.
    """
    if kind not in ("bipartite", "grover"):
        raise ValueError(f"unknown walk kind: {kind}")
    v = PeriodicityVerdict(periodic="inconclusive")

    if kind == "bipartite":
        w = build_bipartite_walk(g)
        u = w.U
    else:
        u = build_grover_walk(g).U

    if "trace" in methods:
        witness = trace_test(u)
        if witness is not None:
            v.trace_witness = (witness[0], str(witness[1]))

    if "spectral" in methods:
        try:
            if kind == "bipartite":
                v.spectral = spectral_test_biregular(g)
            else:
                degs = set(g.degrees())
                if len(degs) == 1:
                    v.spectral = grover_regular_test(g)
                else:
                    v.notes.append("spectral test skipped: graph not regular")
        except NotBiregularError:
            v.notes.append("spectral test skipped: graph not biregular")

    if "phases" in methods and v.spectral is not None and v.spectral.status == "periodic":
        if kind == "bipartite":
            v.phase_period = _phase_period(v.spectral, w)
        else:
            sg, sb = subdivision(g)
            v.phase_period = period_from_phases(sg, sb)

    if "oracle" in methods:
        v.oracle_period = exact_period_oracle(u, cap)
        v.oracle_ran = True

    # cross-checks
    if v.oracle_period is not None and v.phase_period is not None:
        if v.oracle_period != v.phase_period:
            raise MethodDisagreement(
                f"oracle period {v.oracle_period} != phase period {v.phase_period}"
            )
    if v.oracle_period is not None and v.spectral is not None:
        if v.spectral.status == "non-periodic":
            raise MethodDisagreement(
                f"spectral says non-periodic but oracle found period {v.oracle_period}"
            )
    if v.oracle_period is not None and v.trace_witness is not None:
        raise MethodDisagreement(
            f"trace test failed at k={v.trace_witness[0]} but oracle found a period"
        )

    # verdict
    if v.oracle_period is not None:
        v.periodic, v.period = True, v.oracle_period
    elif v.trace_witness is not None:
        v.periodic = False
    elif v.spectral is not None and v.spectral.status == "non-periodic":
        v.periodic = False
    elif v.spectral is not None and v.spectral.status == "periodic":
        if v.oracle_ran:
            # oracle exhausted its cap despite a periodic certificate
            v.notes.append(f"spectral certificate periodic but no period within cap {cap}")
            v.periodic = "inconclusive"
        else:
            v.periodic, v.period = True, v.phase_period
    elif v.oracle_ran:
        # no period up to the cap certifies nothing about larger periods
        v.notes.append(f"no period within cap {cap}")
    return v
