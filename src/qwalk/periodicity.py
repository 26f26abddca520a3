"""Periodicity deciders for bipartite and Grover walks.

A Grover walk on g is decided as the bipartite walk of its subdivision
S(g), to which U_GW is similar, so one path decides both kinds.  The walk
eigenvalues other than +-1 are e^(+-i theta) with 2cos(theta) a root of
q(y) = det(yI - (4M - 2I)), M = D0^-1 C D1^-1 C^T for the block C of the
adjacency between the two classes, taken on one class: the smaller one,
or the original vertices of S(g).  One routine (_chi) takes the char-poly
of L M that the decider, the table and the phase period read: of the
product F F' of the factors F = l Dr^-1 C and F' = l' Do^-1 C^T that
walks._factors builds, or, for a bipartite walk with F = F' (C square and
symmetric, as for g x K2 numbered by bipartite_double_cover), by one
Graeffe step from that of F', L M = F'^2.  q is monic with every root in
[-2, 2], so the walk is periodic iff q has integer coefficients
(Kronecker, 1857), and then q is a product of the minimal polynomials
Psi_k of 2cos(2 pi / k): the period is the lcm of those k, with 2 when
the walk has a -1 eigenvector.

That decides, and each verdict carries one certificate:

- periodic: U^tau = I, and U^(tau/p) != I for each prime p | tau, the
  powers taken on one addition chain (_certified_order).  Every eigenvalue
  is then a root of unity, so every tr(U^k) is a rational algebraic
  integer, an integer: the trace test could not fail and is not run;
- non-periodic: the first non-integral tr(U^k), k <= TRACE_DEPTH, if any,
  from the char-poly q came from, with no walk built (_scaled_traces).

The order is checked on one matrix by RationalMatrix.is_identity
(_certificate): on U, or, when n0 + n1 < |E| (average degree above 2),
on T', the map U's quotient T on the cell space (walks.cell_operator)
induces on R^n / <z>, which has U's order; no power of T is I, as T z = z
with a Jordan block at y = 2.  On a tree or a cycle U is a sparse
near-permutation and T's powers fill in.  For a Grover walk that is the U
or T' of S(g): T' when n < |E|.

The spectral table is the paper's characterization for biregular graphs:
every squared adjacency eigenvalue lies in the allowed-value table, the
image of the roots of the Psi_k of degree <= 2 (k = 1, 2, 3, 4, 5, 6, 8,
10, 12).  It classifies the roots of the char-poly q comes from, and its
orders must be those of q; spectral_test_biregular and grover_regular_test
give its verdict standalone.

Per-state periodicity is exact too: an integrality test on the local
minimal polynomial of the state (see state_periodicity).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, lcm
from typing import Iterator, NamedTuple, Optional

from .exact import (
    HigherDegreeFactor,
    IntPolynomial,
    NonIntegralPolynomial,
    QuadraticValue,
    RationalMatrix,
    _chain_power,
    _factor,
    _nonzeros,
    _orders_of_totient_at_most,
    _row_minimal_polynomial,
    _sparse_times_dense,
    char_poly,
    cyclotomic,
    cyclotomic_factors,
    graeffe_step,
    mat_mul,
    rescaled_integral,
    roots_degree_le2,
)
from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    NotBiregularError,
    bipartition,
    degree_profile,
    subdivision,
)
from .walks import ArcWalkOperator, WalkOperator, _factors, build_bipartite_walk, cell_operator

TRACE_DEPTH = 12  # tr(U^k) is checked for k <= TRACE_DEPTH


class MethodDisagreement(RuntimeError):
    """Two periodicity methods produced contradictory definite answers."""


# ---------------------------------------------------------------------------
# Allowed-value table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_roots() -> tuple[tuple[QuadraticValue, int], ...]:
    """(y, k) for every root y = 2cos(2 pi j / k) of a Psi_k of degree at
    most two: the k with phi(k) <= 4, k ascending.  Every root of a Psi_k
    is real and in [-2, 2]."""
    return tuple(
        (y, k)
        for k, _ in _orders_of_totient_at_most(4)
        for y, _ in roots_degree_le2(cyclotomic(k, real=True), (-2, 2))
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


@lru_cache(maxsize=None)  # one dict per (d0*d1, shift); distinct y give distinct values
def _allowed_values(d0d1: int, shift: int = 0) -> dict[QuadraticValue, int]:
    s = Fraction(d0d1, 4)
    return {QuadraticValue.of((y.a + 2) * s - shift, y.b * s, y.m): k for y, k in _psi_roots()}


# ---------------------------------------------------------------------------
# q and its period
# ---------------------------------------------------------------------------


def _chi(g: Graph, kind: str) -> tuple[Graph, Bipartition, IntPolynomial, int, int]:
    """(h, b, chi, den, shift) for the walk of the given kind on g: the
    bipartite walk on h with classes b, and chi = charpoly(den M - shift I)
    on the class q is taken on, from walks._factors' F and F', den = l l':
    of den M = F F', formed by exact._sparse_times_dense, or, for kind
    "bipartite" when F = F' (C, from the sorted rows to the sorted other
    class, square and symmetric), graeffe_step(charpoly(F')), F'^2 = den M,
    the same polynomial.

    kind "bipartite": h = g, M on the smaller class of b = bipartition(g)
    (c0 on a tie), shift 0.  kind "grover": h = S(g), and b = bipartition(h)
    has the original vertices in c0, with vertex 0; M is on them, where
    den M = (den/2)(I + D^-1 A): less shift = den/2 on the diagonal, that
    is A on a d-regular g.  An unknown kind raises ValueError, a
    disconnected g or one with no edges GraphError.
    """
    if kind not in ("bipartite", "grover"):
        raise ValueError(f"unknown walk kind: {kind}")
    h = subdivision(g) if kind == "grover" else g
    b = bipartition(h)
    rows, other = (b.c0, b.c1) if kind == "grover" else sorted((b.c0, b.c1), key=len)
    if not g.num_edges:
        raise GraphError("graph has no edges")
    f, f_t, l, l_other = _factors(h, rows, other)
    den = l * l_other
    # F' holds each nonzero of F at its place, and both have |E| nonzeros:
    # F = F', C is square and symmetric, and L M = F'^2
    if kind == "bipartite" and len(f) == len(f_t) and all(
        f_t[i][j] == x for i, r in enumerate(f) for j, x in r
    ):
        return h, b, graeffe_step(char_poly(f_t)), den, 0
    gram = _sparse_times_dense(f, f_t)
    shift = den // 2 if kind == "grover" else 0
    for i, row in enumerate(gram):
        row[i] -= shift
    return h, b, char_poly(gram), den, shift


def _q(chi: IntPolynomial, den: int, shift: int = 0) -> IntPolynomial:
    """q(y) = det(yI - (4M - 2I)) from chi = charpoly(den M - shift I), a
    root x of chi sitting at y = 4(x + shift)/den - 2; NonIntegralPolynomial
    when q is not integral."""
    return rescaled_integral(chi, Fraction(4, den), Fraction(4 * shift, den) - 2)


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


def _scaled_traces(chi: IntPolynomial, den: int, shift: int, n_f: int, edges: int) -> Iterator[int]:
    """den^k tr(U^k), k = 1..TRACE_DEPTH, for the bipartite walk with
    |E| = edges whose q comes from chi as in _q, on a class of n_l = deg chi
    vertices with n_f in the other.  charpoly(T) = (x + 1)^(n_f - n_l)
    prod_y (x^2 - y x + 1) over the roots y of q, and U is I off the cell
    space, so tr(U^k) = sum_y D_k(y) + (n_f - n_l)(-1)^k + |E| - n_l - n_f,
    with the Dickson D_k(y) = sum_j (-1)^j k/(k-j) C(k-j, j) y^(k-2j), which
    is 2cos kt at y = 2cos t.  Newton's identities give chi's power sums p_h,
    and den y = 4x + c, c = 4 shift - 2 den, has s_i = sum_h C(i, h) 4^h c^(i-h) p_h.
    """
    n_l, c = chi.degree, 4 * shift - 2 * den
    a = chi.coeffs[::-1] + (0,) * TRACE_DEPTH  # a[i]: the coefficient of x^(n_l - i)
    p, s = [n_l], [n_l]
    for k in range(1, TRACE_DEPTH + 1):
        p.append(-sum(a[i] * p[k - i] for i in range(1, k)) - k * a[k])
        s.append(sum(comb(k, h) * 4**h * c ** (k - h) * p[h] for h in range(k + 1)))
        yield den**k * (edges - 2 * (n_f if k % 2 else n_l)) + sum(
            (-1) ** j * k * comb(k - j, j) // (k - j) * den ** (2 * j) * s[k - 2 * j]
            for j in range(k // 2 + 1)
        )


def period_from_phases(g: Graph) -> int:
    """Period of the bipartite walk on a connected bipartite graph, from the
    q of _chi's char-poly, as decide_periodicity reads it, with no
    certificate.  Raises NonIntegralPolynomial, a ValueError, when the walk
    is not periodic."""
    _, b, chi, den, _ = _chi(g, "bipartite")
    return _q_period(_q(chi, den), len(b.c0), len(b.c1))[1]


# ---------------------------------------------------------------------------
# Certificates: the order of U, and the trace test, on U or on T
# ---------------------------------------------------------------------------


def _certified_order(m: RationalMatrix, c: int) -> Optional[int]:
    """The order tau of M if M^c = I, else None.

    The order divides c, so it is c unless M^(c/p) = I for a prime p | c,
    and then it divides c/p.  M^c and every M^(c/p) come from one addition
    chain (_chain_power), shared with the descent.
    """
    known = {1: m}
    while True:
        primes = list(_factor(c))
        for t in sorted({c, *(c // p for p in primes)}):
            _chain_power(known, t)
        if not known[c].is_identity():
            return None
        smaller = next((c // p for p in primes if known[c // p].is_identity()), None)
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
        orders, rest = cyclotomic_factors(rescaled_integral(char_poly(u.num), Fraction(1, u.den)))
    except NonIntegralPolynomial:
        return None
    return _certified_order(u, lcm(*orders)) if rest.degree == 0 else None


def trace_test(u: RationalMatrix, k_max: int = TRACE_DEPTH) -> Optional[tuple[int, Fraction]]:
    """Integrality of tr(U^k) for k = 1..k_max: a necessary condition for
    periodicity.  Returns None on pass, else the first (k, trace) witness.
    k_max < 1 would pass on no evidence, so it raises ValueError.
    """
    if k_max < 1:
        raise ValueError("k must be positive")
    power = u
    for k in range(1, k_max + 1):
        t = power.trace()
        if t.denominator != 1:
            return k, t
        if k < k_max:
            power = mat_mul(power, u)
    return None


def _certificate(g: Graph) -> RationalMatrix:
    """The matrix with the order of the bipartite walk U of g: U when
    n0 + n1 >= |E|, as on a cycle or a tree; else T', the map that T
    (walks.cell_operator) induces on R^n / <z>, in the basis of the images
    of e_1..e_(n-1).  As e_n = -z_n sum_(i<n) z_i e_i mod z, row i of T' is
    row i of T less z_i z_n times row n, both cut before their last entry.
    T z = z, so T'^k = I exactly when every column of T^k - I is a multiple
    of z, that is when U^k = I."""
    if g.n < g.num_edges:
        num, den, z = cell_operator(g)
        *rows, last = num
        return RationalMatrix.from_nonzeros(
            _nonzeros(
                [[x - zi * z[-1] * y for x, y in zip(row[:-1], last)] for row, zi in zip(rows, z)]
            ),
            len(rows),
            den,
        )
    return build_bipartite_walk(g).U


# ---------------------------------------------------------------------------
# Spectral table (biregular bipartite, and Grover on regular graphs)
# ---------------------------------------------------------------------------


class EigenvalueClassification(NamedTuple):
    value: QuadraticValue  # squared adjacency eigenvalue
    multiplicity: int
    allowed: bool
    order: Optional[int]  # cyclotomic order of the walk eigenvalue


class SpectralVerdict(NamedTuple):
    status: str  # "periodic" | "non-periodic" | "inconclusive"
    d0: Optional[int] = None
    d1: Optional[int] = None
    classifications: tuple[EigenvalueClassification, ...] = ()
    reason: Optional[str] = None


def _classify(chi: IntPolynomial, d0: int, d1: int, shift: int = 0) -> SpectralVerdict:
    """Verdict on a (d0, d1)-biregular graph whose squared adjacency
    eigenvalues are value + shift for the roots of chi: real, as chi is
    the char-poly of a symmetric matrix, and in [0, d0 d1], so the roots
    are searched in [-shift, d0 d1 - shift] and looked up, with no
    arithmetic, in the table moved by -shift."""
    try:
        roots = roots_degree_le2(chi, (-shift, d0 * d1 - shift))
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", d0, d1, reason=str(exc))
    table = _allowed_values(d0 * d1, shift)
    classifications = []
    for value, mult in roots:
        order = table.get(value)
        classifications.append(EigenvalueClassification(value, mult, order is not None, order))
    # conjugate roots are produced pairwise by the factorizer; verify anyway.
    # The roots come ordered by (m, a, b), so the conjugates a +- b sqrt(m)
    # sit in one run of equal (m, a), whose (b, multiplicity) list must read
    # the same reversed with b negated: Fractions compared, none hashed
    for _, run in groupby(roots, lambda root: (root[0].m, root[0].a)):
        pairs = [(v.b, mult) for v, mult in run]
        if pairs != [(-b, mult) for b, mult in reversed(pairs)]:
            return SpectralVerdict(
                "non-periodic", d0, d1, tuple(classifications),
                reason="conjugate pair multiplicities differ",
            )
    status = "periodic" if all(c.allowed for c in classifications) else "non-periodic"
    return SpectralVerdict(status, d0, d1, tuple(classifications))


def spectral_test_biregular(g: Graph) -> SpectralVerdict:
    """Exact spectral periodicity test for connected biregular bipartite
    graphs: periodic iff every squared adjacency eigenvalue sits in the
    allowed-value table for (d0, d1).

    A residual factor of algebraic degree > 2 is outside the
    characterization's hypothesis and yields "inconclusive".  A graph with
    no edges raises GraphError, one that is not biregular
    NotBiregularError, before any char-poly.  It classifies the roots of
    _chi's char-poly, C C^T's, as decide_periodicity does, with d0 and d1
    those of bipartition(g)'s c0 and c1.
    """
    prof = degree_profile(g)
    if g.num_edges and not prof.is_biregular:  # no edges: _chi's error
        raise NotBiregularError("spectral test requires a biregular graph")
    return _classify(_chi(g, "bipartite")[2], prof.d0, prof.d1)


def grover_regular_test(g: Graph) -> SpectralVerdict:
    """Periodicity of the Grover walk on a connected d-regular graph,
    through the bipartite walk on its (d, 2)-biregular subdivision S(g),
    whose c0 holds the original vertices, as decide_periodicity reports it.

    The Gram block of S(g) on the original vertices is A + dI, so each
    adjacency eigenvalue lambda is classified, with its order, by looking
    up lambda + d in allowed_value_table(d, 2).  The allowed lambda are
    0, +-d, +-d/2, +-sqrt2/2 d, +-sqrt3/2 d and (+-1 +- sqrt5)/4 d.  A
    graph with no edges or whose degrees differ raises GraphError, the
    latter before any char-poly.  It classifies the roots of _chi's
    char-poly, A's, as decide_periodicity does.
    """
    if g.is_connected() and len(set(g.degrees())) > 1:  # disconnected: _chi's error
        raise GraphError("grover test requires a regular graph")
    _, _, chi, _, shift = _chi(g, "grover")
    return _classify(chi, g.degrees()[0], 2, shift)


# ---------------------------------------------------------------------------
# Per-state periodicity
# ---------------------------------------------------------------------------


def state_periodicity(w: WalkOperator | ArcWalkOperator, edge: int) -> bool:
    """Exact per-state test: is U^tau e_a = e_a for some tau >= 1, with a
    an edge (bipartite walk) or arc (Grover walk) index?  One out of range
    raises ValueError before U is read.  Each build checks U orthogonal,
    (2P - I) U = 2Q - I or R U_GW = 2K - I holding only for a product of
    two reflections, so U^-1 = U^T, and e_a is periodic under U iff under
    U^T.  Its minimal polynomial mu under U^T comes from a Krylov sequence
    over U's own rows (exact._row_minimal_polynomial).  mu's roots are
    simple, of modulus 1: if mu is monic integral, roots of unity (Kronecker);
    U^tau e_a = e_a makes mu a monic rational divisor of x^tau - 1, hence
    integral (Gauss's lemma).  So this is the test "mu is a product of
    distinct cyclotomic polynomials" (Godsil, "Periodic graphs", EJC 18, 2011).
    """
    return all(c.denominator == 1 for c in _row_minimal_polynomial(w.U, edge))


# ---------------------------------------------------------------------------
# Period doubling and aggregated verdicts
# ---------------------------------------------------------------------------


def grover_period_doubling(g: Graph) -> tuple[int, int]:
    """Exact periods (tau_bipartite, tau_grover) for a connected bipartite
    graph, each from decide_periodicity, asserting the doubling relation
    tau_grover = 2 * tau_bipartite.  A graph whose walks are not periodic
    raises ValueError.
    """
    tau_bw, tau_gw = (decide_periodicity(g, kind).period for kind in ("bipartite", "grover"))
    if tau_gw != (None if tau_bw is None else 2 * tau_bw):
        raise MethodDisagreement(
            f"period doubling violated: bipartite {tau_bw}, grover {tau_gw}"
        )
    if tau_bw is None:
        raise ValueError("the walks are not periodic")
    return tau_bw, tau_gw


class PeriodicityVerdict(NamedTuple):
    """The verdict of q, its period, and the evidence of the spectral
    table and the trace witness."""

    periodic: bool
    period: Optional[int] = None
    spectral: Optional[SpectralVerdict] = None
    trace_witness: Optional[tuple[int, str]] = None
    notes: tuple[str, ...] = ()


def decide_periodicity(g: Graph, kind: str = "bipartite") -> PeriodicityVerdict:
    """Decide the walk of the given kind on g by the integrality of q, and
    certify the verdict: a periodic one by U^tau = I with minimality, a
    non-periodic one with the trace witness, if any.

    kind "bipartite" requires g connected bipartite and takes its classes
    from bipartition(g).  kind "grover" accepts any connected g and decides
    it as the bipartite walk of its subdivision S(g), which U_GW is similar
    to.  Past this both kinds take one path: q, the spectral table and the
    trace witness (_scaled_traces) come from one char-poly, _chi's: C C^T
    on a biregular graph, and A on the original vertices of S(g) for a
    d-regular g.  When the graph is biregular (g regular, for a Grover
    walk) the table classifies that char-poly's roots, and its orders must
    be those of q.  U^tau = I is checked on the one matrix of _certificate,
    on bipartition(h), the colouring _chi left cached: T', U's quotient on
    the cell space taken mod z, when n0 + n1 < |E|, else U.  A graph with
    no edges raises GraphError, contradictory answers MethodDisagreement.
    """
    h, b, chi, den, shift = _chi(g, kind)
    prof, notes = degree_profile(h), []
    if prof.is_biregular:  # for a Grover walk: g is regular
        s = _classify(chi, prof.d0, prof.d1, shift)
    else:
        s = None
        not_what = "regular" if kind == "grover" else "biregular"
        notes.append(f"spectral test skipped: graph not {not_what}")
    try:
        orders, tau = _q_period(_q(chi, den, shift), len(b.c0), len(b.c1))
    except NonIntegralPolynomial as exc:
        orders, tau = None, 0
        notes.append(f"q = det(yI - (4M - 2I)) is not integral: {exc}")
    if s is not None and s.status != "inconclusive":
        table_orders = {c.order for c in s.classifications} if s.status == "periodic" else None
        if table_orders != orders:
            raise MethodDisagreement(f"spectral table: orders {table_orders}; q: orders {orders}")

    if orders is None:
        traces = enumerate(_scaled_traces(chi, den, shift, h.n - chi.degree, h.num_edges), 1)
        witness = next(((k, str(Fraction(t, den**k))) for k, t in traces if t % den**k), None)
        return PeriodicityVerdict(False, spectral=s, trace_witness=witness, notes=tuple(notes))
    order = _certified_order(_certificate(h), tau)
    if order != tau:
        raise MethodDisagreement(
            f"q gives period {tau}, but the order of U certified from U^{tau} is {order}"
        )
    return PeriodicityVerdict(True, tau, s, notes=tuple(notes))
