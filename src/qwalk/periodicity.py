"""Periodicity deciders for bipartite and Grover walks.

The walk eigenvalues other than +-1 are e^(+-i theta) with 2cos(theta) a
root of q(y) = det(yI - (4M - 2I)), M = D0^-1 C D1^-1 C^T for the
biadjacency block C.  q is monic with every root in [-2, 2], so the walk
is periodic iff q has integer coefficients (Kronecker, 1857), and then q
is a product of the minimal polynomials Psi_k of 2cos(2 pi / k): the
period is the lcm of those k, with 2 when the walk has a -1 eigenvector.

That decides, and each verdict carries one certificate:

- periodic: U^tau = I, and U^(tau/p) != I for each prime p | tau, the
  powers taken on one addition chain (_certified_order).  Every eigenvalue
  is then a root of unity, so every tr(U^k) is a rational algebraic
  integer, an integer: the trace test could not fail and is not run;
- non-periodic: the first non-integral tr(U^k), k <= TRACE_DEPTH, if any.

Both are checked on U, or on its quotient T on the (n0 + n1)-dimensional
cell space (walks.cell_operator) when n0 + n1 < |E|, that is when the
average degree is above 2: U^k = I exactly when every column of T^k - I is
a multiple of z, and tr(U^k) = tr(T^k) + |E| - n0 - n1.  On a tree or a
cycle U is a sparse near-permutation and T's powers fill in, so U is kept
there.  A Grover walk is certified as the bipartite walk of S(g), on its T
when n < |E|, else on U_GW.

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
from typing import Callable, Optional

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
    subdivision,
)
from .walks import WalkOperator, build_bipartite_walk, build_grover_walk, cell_operator

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
# Certificates: the order of U, and the trace test, on U or on T
# ---------------------------------------------------------------------------


def _chain_power(known: dict[int, RationalMatrix], t: int) -> RationalMatrix:
    """M^t from the powers in known, which holds M^1, adding M^t and every
    power on the way: one product of two known powers whose exponents sum
    to t, else M^(t/2) squared for even t, or M^(t-1) M for odd t."""
    if t not in known:
        a = next((a for a in sorted(known, reverse=True) if t - a in known), None)
        if a is None:
            a = t - 1 if t % 2 else t // 2
            _chain_power(known, a)
        known[t] = mat_mul(known[a], known[t - a])
    return known[t]


def _certified_order(
    m: RationalMatrix,
    c: int,
    is_identity: Callable[[RationalMatrix], bool] = RationalMatrix.is_identity,
) -> Optional[int]:
    """Least tau with is_identity(M^tau) if is_identity(M^c), else None.

    The order divides c, so it is c unless is_identity(M^(c/p)) for a prime
    p | c, and then it divides c/p.  M^c and every M^(c/p) come from one
    addition chain (_chain_power), shared with the descent.
    """
    known = {1: m}
    while True:
        primes = _prime_factors(c)
        for t in sorted({c, *(c // p for p in primes)}):
            _chain_power(known, t)
        if not is_identity(known[c]):
            return None
        smaller = next((c // p for p in primes if is_identity(known[c // p])), None)
        if smaller is None:
            return c
        c = smaller


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


def _fixes_cell_space(z: tuple[int, ...]) -> Callable[[RationalMatrix], bool]:
    """Whether T^k stands for U^k = I: every column of T^k - I is a multiple
    of z, i.e. row i of T^k - I is z_i z_0 times row 0."""

    def test(m: RationalMatrix) -> bool:
        den, z0 = m.den, z[0]
        top = list(m.num[0])
        top[0] -= den
        for i, (row, zi) in enumerate(zip(m.num, z)):
            row = list(row)
            row[i] -= den
            if row != (top if zi == z0 else [-x for x in top]):
                return False
        return True

    return test


@dataclass(frozen=True)
class _Certificate:
    """The matrix a verdict on U is certified on: U itself, or its quotient
    T on the cell space, where is_identity(T^k) says U^k = I and
    tr(U^k) = tr(T^k) + trace_shift."""

    matrix: RationalMatrix
    is_identity: Callable[[RationalMatrix], bool] = RationalMatrix.is_identity
    trace_shift: int = 0

    def order(self, tau: int) -> int:
        """tau, certified as the least k with U^k = I; MethodDisagreement
        when it is not."""
        order = _certified_order(self.matrix, tau, self.is_identity)
        if order != tau:
            raise MethodDisagreement(
                f"q gives period {tau}, but the order of U certified from U^{tau} is {order}"
            )
        return order

    def trace_witness(self) -> Optional[tuple[int, Fraction]]:
        witness = trace_test(self.matrix)
        return None if witness is None else (witness[0], witness[1] + self.trace_shift)


def _cell_certificate(g: Graph, b: Bipartition) -> _Certificate:
    num, den, z = cell_operator(g, b)
    return _Certificate(
        RationalMatrix.from_numerators(num, den), _fixes_cell_space(z), g.num_edges - g.n
    )


def _bipartite_certificate(g: Graph, b: Bipartition) -> _Certificate:
    """On T when n0 + n1 < |E| (average degree above 2), else on U: on a
    cycle or a tree U is a sparse near-permutation, and T's powers fill in."""
    if g.n < g.num_edges:
        return _cell_certificate(g, b)
    return _Certificate(build_bipartite_walk(g, b).U)


def _grover_certificate(g: Graph) -> _Certificate:
    """U_GW is permutation-similar to U_BW(S(g)), whose classes have n and
    |E| vertices: on the T of S(g) when n < |E|, else on U_GW."""
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    if g.n < g.num_edges:
        return _cell_certificate(*subdivision(g))
    return _Certificate(build_grover_walk(g).U)


def _period(m: RationalMatrix, sizes: tuple[int, int], cert: _Certificate) -> Optional[int]:
    """The period from q = charpoly of the numerators of m, certified on
    cert, or None when q is not integral."""
    try:
        _, tau = _q_period(_numerator_q(m), *sizes)
    except NonIntegralPolynomial:
        return None
    return cert.order(tau)


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
    Each is the tau of its q, certified on g and on S(g) as in
    decide_periodicity.  A graph whose walks are not periodic raises
    ValueError.
    """
    b = bipartition(g)
    tau_bw = _period(_gram_operator(g, b), (len(b.c0), len(b.c1)), _bipartite_certificate(g, b))
    tau_gw = _period(_grover_operator(g), (g.n, g.num_edges), _grover_certificate(g))
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
    certify the verdict: a periodic one by U^tau = I with minimality, a
    non-periodic one with the trace witness, if any.  Both are checked on
    T, U's quotient on the cell space, when n0 + n1 < |E| (average degree
    above 2), else on U itself.

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
        b = bipartition(g)  # raises for non-bipartite or disconnected input
        cert, sizes = _bipartite_certificate(g, b), (len(b.c0), len(b.c1))
        try:
            v.spectral = spectral_test_biregular(g, b)
        except NotBiregularError:
            v.notes.append("spectral test skipped: graph not biregular")
            m = _gram_operator(g, b)
    else:
        cert, sizes = _grover_certificate(g), (g.n, g.num_edges)  # the classes of S(g)
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
        witness = cert.trace_witness()
        if witness is not None:
            v.trace_witness = (witness[0], str(witness[1]))
        return v
    v.oracle_period = cert.order(tau)
    v.periodic, v.period, v.phase_period = True, tau, tau
    return v
