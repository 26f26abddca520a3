"""Periodicity deciders for bipartite and Grover walks.

The walk eigenvalues other than +-1 are e^(+-i theta) with 2cos(theta) a
root of q(y) = det(yI - (4M - 2I)), M = D0^-1 C D1^-1 C^T for the
biadjacency block C.  q is monic with every root in [-2, 2], so the walk
is periodic iff q has integer coefficients (Kronecker, 1857), and then q
is a product of the minimal polynomials Psi_k of 2cos(2 pi / k): the
period is the lcm of those k, with 2 when the walk has a -1 eigenvector.

That decides, and each verdict carries one certificate computed from U:

- periodic: U^tau = I by square-and-multiply, and U^(tau/p) != I for each
  prime p | tau (_certified_order).  Every eigenvalue is then a root of
  unity, so every tr(U^k) is a rational algebraic integer, an integer: the
  trace test could not fail and is not run;
- non-periodic: the first non-integral tr(U^k), k <= TRACE_DEPTH, if any.

The spectral table is the paper's characterization for biregular graphs:
every squared adjacency eigenvalue lies in the allowed-value table, the
image of the roots of the Psi_k of degree <= 2 (k = 1, 2, 3, 4, 5, 6, 8,
10, 12).  Its orders must be those of q.

Per-state periodicity is exact too: an integrality test on the local
minimal polynomial of the state (see state_periodicity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from .exact import (
    HigherDegreeFactor,
    IntPolynomial,
    NonIntegralPolynomial,
    QuadraticValue,
    RationalMatrix,
    _orders_of_totient_at_most,
    _prime_factors,
    char_poly,
    cyclotomic,
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
    NotBiregularError,
    adjacency_matrix,
    biadjacency,
    bipartition,
    degree_profile,
)
from .walks import WalkOperator, build_bipartite_walk, build_grover_walk

TRACE_DEPTH = 12  # tr(U^k) is checked for k <= TRACE_DEPTH


class MethodDisagreement(RuntimeError):
    """Two periodicity methods produced contradictory definite answers."""


# ---------------------------------------------------------------------------
# Allowed-value table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_roots() -> tuple[tuple[QuadraticValue, int], ...]:
    """(y, k) for every root y = 2cos(2 pi j / k) of a Psi_k of degree at
    most two: the k with phi(k) <= 4, k ascending."""
    return tuple(
        (y, k)
        for k, _ in _orders_of_totient_at_most(4)
        for y, _ in roots_degree_le2(cyclotomic(k, real=True))
    )


def allowed_value_table(d0: int, d1: int) -> list[tuple[QuadraticValue, int]]:
    """Squared-eigenvalue values admitting a periodic walk, with the
    cyclotomic order of the corresponding walk eigenvalue.

    A walk eigenvalue of order k sits at x = d0*d1 (y + 2)/4 for a root y
    of Psi_k; the 13 roots of degree at most two give {0, 1/4, 1/2, 3/4,
    1} * d0*d1 and {1/2 +- sqrt2/4, 1/2 +- sqrt3/4, (5 +- sqrt5)/8,
    (3 +- sqrt5)/8} * d0*d1, of orders 1, 2, 3, 4, 6 and 8, 12, 10, 5.
    """
    return list(_allowed_values(d0 * d1).items())


@lru_cache(maxsize=None)  # one dict per d0*d1; distinct roots y give distinct values
def _allowed_values(d0d1: int) -> dict[QuadraticValue, int]:
    s = Fraction(d0d1, 4)
    return {QuadraticValue.of((y.a + 2) * s, y.b * s, y.m): k for y, k in _psi_roots()}


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
# Certificates from U: the order of U, and the trace test
# ---------------------------------------------------------------------------


def _certified_order(u: RationalMatrix, c: int) -> Optional[int]:
    """Least tau with U^tau = I if U^c = I, else None: the order divides c,
    so a descent from c over its primes finds it, O(log c) products a test."""
    if not mat_pow(u, c).is_identity():
        return None
    tau = c
    for p in _prime_factors(c):
        while tau % p == 0 and mat_pow(u, tau // p).is_identity():
            tau //= p
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
    power = u
    for k in range(1, k_max + 1):
        t = power.trace()
        if t.denominator != 1:
            return k, t
        if k < k_max:
            power = mat_mul(power, u)
    return None


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
    table = _allowed_values(d0 * d1)
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
    elif not g.is_connected():
        raise GraphError("graph is disconnected")
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
    certify the verdict from U: a periodic one by U^tau = I with
    minimality, a non-periodic one with the trace witness, if any.

    kind "bipartite" requires g connected bipartite; kind "grover" accepts
    any connected graph, as the bipartite walk on its subdivision S(g),
    whose classes have n and |E| vertices.  q comes from the one char-poly
    of the decision: the table's when there is one, else that of the
    numerators of 4M - 2I.  The table's orders must be those of q.
    Contradictory answers raise MethodDisagreement.
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

    if orders is None:
        witness = trace_test(u)
        if witness is not None:
            v.trace_witness = (witness[0], str(witness[1]))
        return v
    v.oracle_period = _certified_order(u, tau)
    if v.oracle_period != tau:
        raise MethodDisagreement(
            f"q gives period {tau}, but the order of U certified from U^{tau} is {v.oracle_period}"
        )
    v.periodic, v.period, v.phase_period = True, tau, tau
    return v
