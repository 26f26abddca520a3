"""Periodicity deciders for bipartite and Grover walks.

The walk eigenvalues other than +-1 are e^(+-i theta) with 2cos(theta) a
root of q(y) = det(yI - (4M - 2I)), M = D0^-1 C D1^-1 C^T for the
biadjacency block C.  q is monic with every root in [-2, 2], so the walk
is periodic iff q has integer coefficients (Kronecker, 1857), and then q
is a product of the minimal polynomials Psi_k of 2cos(2 pi / k): the
period is the lcm of those k, with 2 when the walk has a -1 eigenvector.
That decides; three exact routes cross-check it, each run once:

1. trace test      -- integrality of tr(U^k) for k <= TRACE_DEPTH;
2. exact oracle    -- U^tau = I, with minimality, on the same pass over the
                      powers of U;
3. spectral table  -- the paper's characterization for biregular graphs:
                      every squared adjacency eigenvalue lies in the closed
                      allowed-value table, whose orders 1,2,3,4,6 (degree
                      one) and 5,8,10,12 (degree two) are the k of the
                      Psi_k of degree at most two.

Per-state periodicity is exact too: an integrality test on the local
minimal polynomial of the state (see state_periodicity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .exact import (
    HigherDegreeFactor,
    IntPolynomial,
    NonIntegralPolynomial,
    QuadraticValue,
    RationalMatrix,
    char_poly,
    cyclotomic_factors,
    local_minimal_polynomial,
    mat_mul,
    mat_pow,
    rescaled_integral,
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

TRACE_DEPTH = 12  # tr(U^k) is checked for k <= TRACE_DEPTH


class MethodDisagreement(RuntimeError):
    """Two periodicity methods produced contradictory definite answers."""


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
# q and its period
# ---------------------------------------------------------------------------


def _smaller_side(g: Graph, b: Bipartition) -> list:
    """The biadjacency block with its rows on the smaller colour class."""
    c = biadjacency(g, b)
    return list(zip(*c)) if len(c) > len(c[0]) else c


def _numerator_q(m: RationalMatrix) -> IntPolynomial:
    """charpoly(m) from the char-poly of its integer numerators, if
    integral; NonIntegralPolynomial otherwise."""
    return rescaled_integral(char_poly(m.num), Fraction(1, m.den))


def _gram_operator(g: Graph, b: Bipartition) -> RationalMatrix:
    """4M - 2I for M = D0^-1 C D1^-1 C^T on the smaller colour class."""
    c = _smaller_side(g, b)
    col_deg = [sum(col) for col in zip(*c)]
    return RationalMatrix([
        [4 * sum(Fraction(x * y, d) for x, y, d in zip(r, t, col_deg)) / sum(r) - 2 * (i == j)
         for j, t in enumerate(c)]
        for i, r in enumerate(c)
    ])


def _grover_operator(g: Graph) -> RationalMatrix:
    """2 D^-1 A: 4M - 2I of the subdivision S(g) on the original vertices,
    where M = D^-1 (D + A) / 2."""
    deg = g.degrees()
    return RationalMatrix(
        [[Fraction(2 * x, deg[i]) for x in row] for i, row in enumerate(adjacency_matrix(g))]
    )


def _q_period(q: IntPolynomial, n0: int, n1: int) -> tuple[set[int], int]:
    """The k of the Psi_k dividing an integral q, and the period: their
    lcm, with 2 when n0 != n1.

    The -1 eigenspace has dimension n0 + n1 - 2 rank C, positive iff
    n0 != n1 or C is square and singular, and then y + 2 = Psi_2 divides
    q.  As every root of q lies in [-2, 2], Kronecker's theorem leaves no
    factor of an integral q outside the Psi_k.
    """
    orders, rest = cyclotomic_factors(q, real=True)
    if rest.degree > 0:
        raise MethodDisagreement(f"integral q has the factor {rest.coeffs}, no Psi_k")
    return set(orders), lcm(*orders, 2 if n0 != n1 else 1)


def period_from_phases(g: Graph, b: Optional[Bipartition] = None) -> int:
    """Period of the bipartite walk on a connected bipartite graph, from q.
    Raises NonIntegralPolynomial, a ValueError, when the walk is not
    periodic."""
    if b is None:
        b = bipartition(g)
    elif not g.is_connected():
        raise GraphError("graph is disconnected")
    return _q_period(_numerator_q(_gram_operator(g, b)), len(b.c0), len(b.c1))[1]


# ---------------------------------------------------------------------------
# Exact oracle and trace test
# ---------------------------------------------------------------------------


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


def exact_period_oracle(u: RationalMatrix) -> Optional[int]:
    """Minimal tau with U^tau = I exactly, else None.

    U has finite order only if charpoly(U) is an integral product of
    cyclotomic polynomials Phi_k; the order then divides their lcm, which
    _certified_order confirms and descends from in O(log tau) products.
    """
    if not u.is_square:
        raise ValueError("U must be square")
    try:
        orders, rest = cyclotomic_factors(_numerator_q(u))
    except NonIntegralPolynomial:
        return None
    return _certified_order(u, lcm(*orders)) if rest.degree == 0 else None


def trace_test(u: RationalMatrix, k_max: int = TRACE_DEPTH) -> Optional[tuple[int, Fraction]]:
    """Integrality of tr(U^k) for k = 1..k_max: a necessary condition for
    periodicity.  Returns None on pass, else the first (k, trace) witness.
    """
    return _power_pass(u, k_max, k_max)[0]


# ---------------------------------------------------------------------------
# Spectral table (biregular bipartite, and Grover on regular graphs)
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
    chi: Optional[IntPolynomial] = None  # the char-poly the values are roots of


def _classify(chi: IntPolynomial, d0: int, d1: int, shift: int = 0) -> SpectralVerdict:
    """Verdict on a (d0, d1)-biregular graph whose squared adjacency
    eigenvalues are value + shift for the roots of chi."""
    try:
        roots = roots_degree_le2(chi)
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", d0, d1, reason=str(exc), chi=chi)
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
                reason="conjugate pair multiplicities differ", chi=chi,
            )
    status = "periodic" if all(c.allowed for c in classifications) else "non-periodic"
    return SpectralVerdict(status, d0, d1, tuple(classifications), chi=chi)


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
    c = _smaller_side(g, b)  # the squared eigenvalues from the smaller Gram block
    gram = [[sum(x * y for x, y in zip(r, t)) for t in c] for r in c]
    return _classify(char_poly(gram), prof.d0, prof.d1)


def grover_regular_test(g: Graph) -> SpectralVerdict:
    """Periodicity of the Grover walk on a connected d-regular graph,
    through the bipartite walk on its (2, d)-biregular subdivision S(g).

    The Gram block of S(g) on the original vertices is A + dI, so each
    adjacency eigenvalue lambda is classified, with its order, by looking
    up lambda + d in allowed_value_table(2, d).  The allowed lambda are
    0, +-d, +-d/2, +-sqrt2/2 d, +-sqrt3/2 d and (+-1 +- sqrt5)/4 d.
    """
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise GraphError("grover test requires a regular graph")
    d = degs.pop()
    return _classify(char_poly(adjacency_matrix(g)), 2, d, shift=d)


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


def grover_period_doubling(g: Graph) -> tuple[int, int]:
    """Exact periods (tau_bipartite, tau_grover) for a connected bipartite
    graph, asserting the doubling relation tau_grover = 2 * tau_bipartite.
    A graph whose walks are not periodic raises ValueError.
    """
    tau_bw = exact_period_oracle(build_bipartite_walk(g).U)
    tau_gw = exact_period_oracle(build_grover_walk(g).U)
    if tau_gw != (None if tau_bw is None else 2 * tau_bw):
        raise MethodDisagreement(
            f"period doubling violated: bipartite {tau_bw}, grover {tau_gw}"
        )
    if tau_bw is None:
        raise ValueError("the walks are not periodic")
    return tau_bw, tau_gw


@dataclass
class PeriodicityVerdict:
    """The verdict of q with the evidence of every cross-check."""

    periodic: bool
    period: Optional[int] = None
    oracle_period: Optional[int] = None
    spectral: Optional[SpectralVerdict] = None
    phase_period: Optional[int] = None
    trace_witness: Optional[tuple[int, str]] = None
    notes: list[str] = field(default_factory=list)


def decide_periodicity(g: Graph, kind: str = "bipartite") -> PeriodicityVerdict:
    """Decide the walk of the given kind on g by the integrality of q, and
    cross-check by the spectral table, the trace test and U^tau = I.

    kind "bipartite" requires g connected bipartite; kind "grover" accepts
    any connected graph, as the bipartite walk on its subdivision S(g),
    whose classes have n and |E| vertices.  q comes from the one char-poly
    of the decision: the table's when there is one, else that of the
    numerators of 4M - 2I.  U^tau = I is checked with minimality on the
    powers of the trace pass up to TRACE_DEPTH and by _certified_order
    beyond.  Contradictory answers raise MethodDisagreement.
    """
    if kind not in ("bipartite", "grover"):
        raise ValueError(f"unknown walk kind: {kind}")
    v = PeriodicityVerdict(periodic=False)
    if kind == "bipartite":
        w = build_bipartite_walk(g)
        u, sizes = w.U, (len(w.bipart.c0), len(w.bipart.c1))
        try:
            v.spectral = spectral_test_biregular(g, w.bipart)
        except NotBiregularError:
            v.notes.append("spectral test skipped: graph not biregular")
            m = _gram_operator(g, w.bipart)
    else:
        u, sizes = build_grover_walk(g).U, (g.n, g.num_edges)  # the classes of S(g)
        if len(set(g.degrees())) == 1:
            v.spectral = grover_regular_test(g)
        else:
            v.notes.append("spectral test skipped: graph not regular")
            m = _grover_operator(g)

    s = v.spectral
    try:
        if s is None:
            q = _numerator_q(m)
        else:  # a root x of chi is at y = 4x/(d0 d1) - 2 for x = lambda^2,
            # and at y = 2x/d for a Grover walk's x = lambda
            q = rescaled_integral(s.chi, Fraction(4, s.d0 * s.d1), 0 if kind == "grover" else -2)
        orders, tau = _q_period(q, *sizes)
    except NonIntegralPolynomial as exc:
        orders, tau = None, 0
        v.notes.append(f"q = det(yI - (4M - 2I)) is not integral: {exc}")
    if s is not None and s.status != "inconclusive":
        table_orders = {c.order for c in s.classifications} if s.status == "periodic" else None
        if table_orders != orders:
            raise MethodDisagreement(f"spectral table: orders {table_orders}; q: orders {orders}")

    witness, v.oracle_period = _power_pass(u, TRACE_DEPTH, min(tau, TRACE_DEPTH))
    if witness is not None:
        v.trace_witness = (witness[0], str(witness[1]))
    if orders is None:
        return v
    if tau > TRACE_DEPTH:
        v.oracle_period = _certified_order(u, tau)
    if v.trace_witness is not None or v.oracle_period != tau:
        raise MethodDisagreement(
            f"q gives period {tau}, but the trace witness is {v.trace_witness}"
            f" and the least k <= {tau} with U^k = I is {v.oracle_period}"
        )
    v.periodic, v.period, v.phase_period = True, tau, tau
    return v
