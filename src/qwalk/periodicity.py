"""Periodicity deciders for bipartite and Grover walks.

Four mutually cross-checking routes, each run once per decision:

1. trace test       -- integrality of tr(U^k) for k <= TRACE_DEPTH;
2. exact oracle     -- U^tau = I exactly (ground truth), on the same
                       pass over the powers of U;
3. spectral test    -- exact membership of every squared adjacency
                       eigenvalue in the closed allowed-value table;
4. eigenphase orders -- cyclotomic order bookkeeping, giving the period as
                       an lcm when the spectral test accepts.

The allowed values and their orders come from the classification of the
angles whose doubled cosine is an algebraic integer of degree at most two
(orders 1,2,3,4,6 for degree one; 5,8,10,12 for degree two).

Per-state periodicity is exact too: an integrality test on the local
minimal polynomial of the state (see state_periodicity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from .exact import (
    HigherDegreeFactor,
    QuadraticValue,
    RationalMatrix,
    char_poly,
    local_minimal_polynomial,
    mat_mul,
    mat_pow,
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
)
from .spectral import NotBiregularError
from .walks import WalkOperator, build_bipartite_walk, build_grover_walk

DEFAULT_CAP = 10000
PHASE_ABORT_TOL = 1e-6
TRACE_DEPTH = 12  # tr(U^k) is checked for k <= TRACE_DEPTH


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
    candidate = 1
    for z in vals:
        frac = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0
        approx = Fraction(frac).limit_denominator(cap)
        if abs(frac - float(approx)) * 2 * math.pi > PHASE_ABORT_TOL:
            return None
        candidate = lcm(candidate, approx.denominator)
        if candidate > cap:
            return None
    return candidate


def _power_pass(
    u: RationalMatrix, trace_depth: int, identity_depth: int
) -> tuple[Optional[tuple[int, Fraction]], Optional[int]]:
    """One walk over U, U^2, ...: the first (k, tr U^k) with a non-integral
    trace for k <= trace_depth, and the least k <= identity_depth with
    U^k = I.  It stops at the identity (every later power repeats one
    already checked) or when neither check has a power left to look at.
    """
    witness = None
    power, k = u, 1
    while True:
        if witness is None and k <= trace_depth:
            t = power.trace()
            if t.denominator != 1:
                witness = (k, t)
        if k <= identity_depth and power.is_identity():
            return witness, k
        if k >= identity_depth and (witness is not None or k >= trace_depth):
            return witness, None
        power = mat_mul(power, u)
        k += 1


def _certified_order(u: RationalMatrix, c: int) -> Optional[int]:
    """Least tau with U^tau = I if U^c = I, else None: the order divides c,
    so a descent from c over its primes finds it, O(log c) products a test."""
    if not mat_pow(u, c).is_identity():
        return None
    tau, rest, p = c, c, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while tau % p == 0 and mat_pow(u, tau // p).is_identity():
                tau //= p
        p += 1
    return tau


def _trace_and_period(
    u: RationalMatrix, cap: int, trace_depth: int
) -> tuple[Optional[tuple[int, Fraction]], Optional[int]]:
    """The trace witness for k <= trace_depth and the exact period <= cap.

    The identity is looked for among the powers of the trace pass up to
    min(c, TRACE_DEPTH), c the candidate of the eigenphase screen; a
    larger c is certified by O(log c) products instead of c.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    candidate = _phase_lcm_candidate(u, cap)
    window = min(candidate or 0, TRACE_DEPTH)
    witness, period = _power_pass(u, trace_depth, window)
    if period is None and candidate is not None and candidate > TRACE_DEPTH:
        period = _certified_order(u, candidate)
    return witness, period


def exact_period_oracle(u: RationalMatrix, cap: int = DEFAULT_CAP) -> Optional[int]:
    """Minimal tau <= cap with U^tau = I exactly, else None.

    A numeric eigenphase screen first rules out caps that cannot be met;
    the period itself is then certified by exact products.
    """
    if not u.is_square:
        raise ValueError("U must be square")
    return _trace_and_period(u, cap, trace_depth=0)[1]


def trace_test(u: RationalMatrix, k_max: int = TRACE_DEPTH) -> Optional[tuple[int, Fraction]]:
    """Integrality of tr(U^k) for k = 1..k_max: a necessary condition for
    periodicity.  Returns None on pass, else the first (k, trace) witness.
    """
    return _power_pass(u, k_max, k_max)[0]


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


def _classify(
    roots: list[tuple[QuadraticValue, int]], d0: int, d1: int, shift: int = 0
) -> SpectralVerdict:
    """Verdict on a (d0, d1)-biregular graph whose squared adjacency
    eigenvalues are value + shift for the (value, multiplicity) roots."""
    table = dict(allowed_value_table(d0, d1))
    offset = QuadraticValue.rational(shift)
    classifications = []
    for value, mult in roots:
        order = table.get(value + offset)
        classifications.append(EigenvalueClassification(value, mult, order is not None, order))
    # conjugate roots are produced pairwise by the factorizer; verify anyway
    by_value = {c.value: c.multiplicity for c in classifications}
    for c in classifications:
        if not c.value.is_rational and by_value.get(c.value.conjugate()) != c.multiplicity:
            return SpectralVerdict(
                "non-periodic", d0, d1, tuple(classifications),
                reason="conjugate pair multiplicities differ",
            )
    status = "periodic" if all(c.allowed for c in classifications) else "non-periodic"
    return SpectralVerdict(status, d0, d1, tuple(classifications))


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
    c = biadjacency(g, b)
    if len(c) > len(c[0]):
        c = list(zip(*c))  # the squared eigenvalues from the smaller Gram block
    gram = [[sum(x * y for x, y in zip(r, t)) for t in c] for r in c]
    try:
        roots = roots_degree_le2(char_poly(gram))
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", d0, d1, reason=str(exc))
    return _classify(roots, d0, d1)


def period_from_phases(g: Graph, b: Optional[Bipartition] = None) -> int:
    """Period as the lcm of the cyclotomic orders of all walk eigenvalues.

    Precondition: spectral_test_biregular accepted the graph.
    """
    if b is None:
        b = bipartition(g)
    elif not g.is_connected():
        raise GraphError("graph is disconnected")
    verdict = spectral_test_biregular(g, b)
    if verdict.status != "periodic":
        raise ValueError(f"graph is not spectrally periodic: {verdict.status}")
    return _phase_period(verdict, len(b.c0), len(b.c1))


def _phase_period(verdict: SpectralVerdict, n0: int, n1: int) -> int:
    """Period from an accepting verdict on a connected biregular graph with
    colour classes of n0 and n1 vertices: the lcm of 1 (the constants),
    the verdict's orders, and 2 when the walk has a -1 eigenvector.

    The -1 eigenspace has dimension n0 + n1 - 2 rank C for the biadjacency
    block C.  Since rank C <= min(n0, n1), it is positive iff n0 != n1 or
    C is square and singular; then lambda^2 = 0 is in the verdict and
    already brings its order 2.
    """
    orders = {1, *(c.order for c in verdict.classifications)}
    if n0 != n1:
        orders.add(2)
    return lcm(*orders)


# ---------------------------------------------------------------------------
# Grover walk on regular graphs
# ---------------------------------------------------------------------------


def grover_regular_test(g: Graph) -> SpectralVerdict:
    """Periodicity of the Grover walk on a connected d-regular graph,
    through the bipartite walk on its (2, d)-biregular subdivision S(g).

    The Gram block of S(g) on the original vertices is A + dI, so each
    adjacency eigenvalue lambda is classified, with its order, by looking
    up lambda + d in allowed_value_table(2, d).  The allowed lambda are
    0, +-d, +-d/2, +-sqrt2/2 d, +-sqrt3/2 d and (+-1 +- sqrt5)/4 d.
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
    return _classify(roots, 2, d, shift=d)


# ---------------------------------------------------------------------------
# Per-state periodicity
# ---------------------------------------------------------------------------


def state_periodicity(w: WalkOperator, edge: int) -> bool:
    """Exact per-state test: is U^tau e_a = e_a for some tau >= 1, with a
    the edge index?  An index out of range raises ValueError.

    The state is periodic iff its local minimal polynomial mu under U has
    integer coefficients.  U is orthogonal (every build checks U U^T = I),
    so the roots of mu are simple eigenvalues of modulus 1; if mu is monic
    integral they are roots of unity (Kronecker), and U^tau e_a = e_a for
    tau the lcm of their orders.  Conversely U^tau e_a = e_a makes mu a
    monic rational divisor of x^tau - 1, hence integral (Gauss's lemma).
    So this is the test "mu is a product of distinct cyclotomic
    polynomials" (Godsil, "Periodic graphs", EJC 18, 2011).
    """
    return all(c.denominator == 1 for c in local_minimal_polynomial(w.U, edge))


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
    return tau_bw, tau_gw


@dataclass
class PeriodicityVerdict:
    """Aggregated evidence from every route."""

    periodic: object  # True | False | "inconclusive"
    period: Optional[int] = None
    oracle_period: Optional[int] = None
    spectral: Optional[SpectralVerdict] = None
    phase_period: Optional[int] = None
    trace_witness: Optional[tuple[int, str]] = None
    notes: list[str] = field(default_factory=list)


def decide_periodicity(
    g: Graph, kind: str = "bipartite", cap: int = DEFAULT_CAP
) -> PeriodicityVerdict:
    """Decide the walk of the given kind on g by every route, each run
    once, and cross-check them.

    kind "bipartite" requires g connected bipartite; kind "grover" accepts
    any connected graph (its spectral route goes through the subdivision).
    Contradictory definite answers raise MethodDisagreement.
    """
    if kind not in ("bipartite", "grover"):
        raise ValueError(f"unknown walk kind: {kind}")
    v = PeriodicityVerdict(periodic="inconclusive")

    if kind == "bipartite":
        w = build_bipartite_walk(g)
        u, sizes = w.U, (len(w.bipart.c0), len(w.bipart.c1))
        try:
            v.spectral = spectral_test_biregular(g, w.bipart)
        except NotBiregularError:
            v.notes.append("spectral test skipped: graph not biregular")
    else:
        u, sizes = build_grover_walk(g).U, (g.n, g.num_edges)  # the classes of S(g)
        if len(set(g.degrees())) == 1:
            v.spectral = grover_regular_test(g)
        else:
            v.notes.append("spectral test skipped: graph not regular")

    if v.spectral is not None and v.spectral.status == "periodic":
        v.phase_period = _phase_period(v.spectral, *sizes)

    witness, v.oracle_period = _trace_and_period(u, cap, TRACE_DEPTH)
    if witness is not None:
        v.trace_witness = (witness[0], str(witness[1]))

    status = v.spectral.status if v.spectral is not None else None
    if v.oracle_period is not None:  # cross-checks, then the verdict
        if v.phase_period is not None and v.oracle_period != v.phase_period:
            raise MethodDisagreement(
                f"oracle period {v.oracle_period} != phase period {v.phase_period}"
            )
        if status == "non-periodic":
            raise MethodDisagreement(
                f"spectral says non-periodic but oracle found period {v.oracle_period}"
            )
        if v.trace_witness is not None:
            raise MethodDisagreement(
                f"trace test failed at k={v.trace_witness[0]} but oracle found a period"
            )
        v.periodic, v.period = True, v.oracle_period
    elif v.trace_witness is not None or status == "non-periodic":
        v.periodic = False
    elif status == "periodic":
        # the oracle exhausted its cap despite a periodic certificate
        v.notes.append(f"spectral certificate periodic but no period within cap {cap}")
    else:
        # no period up to the cap certifies nothing about larger periods
        v.notes.append(f"no period within cap {cap}")
    return v
