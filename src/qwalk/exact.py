"""Exact arithmetic kernels: rational matrices, integer characteristic
polynomials, Kronecker integrality and cyclotomic factors, square-free
decomposition, and quadratic-field values.

Everything here is exact; floats never enter. A rational matrix is a
tuple of integer numerator rows over one common denominator; single
rational values are fractions.Fraction (arbitrary-precision, always
reduced).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, count
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul
from typing import NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, Fraction]


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class RationalMatrix:
    """Exact rational matrix stored as integer numerator rows over one
    positive common denominator.

    The pair (num, den) is kept in normal form: gcd(den, every numerator)
    is 1, so the zero matrix has den 1.  Equal matrices therefore have
    equal (num, den), and equality and hashing compare those directly.
    The nonzeros of each row are found on first use and kept.
    """

    __slots__ = ("rows", "cols", "num", "den", "_nonzeros")

    def __init__(self, data: Sequence[Sequence[RationalLike]]):
        fracs = [[Fraction(x) for x in row] for row in data]
        cols = len(fracs[0]) if fracs else 0
        if any(len(row) != cols for row in fracs):
            raise DimensionError("ragged rows")
        den = lcm(1, *(x.denominator for row in fracs for x in row))
        self._set(
            tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in fracs),
            den,
        )

    def _set(self, num: tuple[tuple[int, ...], ...], den: int) -> None:
        self.num, self.den = num, den
        self.rows = len(num)
        self.cols = len(num[0]) if num else 0
        self._nonzeros = None

    @classmethod
    def _normal(cls, num: tuple[tuple[int, ...], ...], den: int) -> "RationalMatrix":
        """Wrap a (num, den) pair that is already in normal form."""
        m = object.__new__(cls)
        m._set(num, den)
        return m

    @classmethod
    def from_numerators(cls, num: Sequence[Sequence[int]], den: int) -> "RationalMatrix":
        """The matrix num / den, reduced to normal form."""
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            den //= g
            num = [[x // g for x in row] for row in num]
        m = cls._normal(tuple(map(tuple, num)), den)
        if any(len(row) != m.cols for row in m.num):
            raise DimensionError("ragged rows")
        return m

    @classmethod
    def from_nonzeros(
        cls, rows: Sequence[Sequence[tuple[int, int]]], cols: int, den: int
    ) -> "RationalMatrix":
        """The matrix with cols columns whose row i has the numerators of
        the (column, numerator) pairs rows[i] over den, reduced to normal
        form.  The pairs are kept as nonzeros(), so columns must ascend
        within range and numerators be nonzero; else ValueError."""
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(den, *map(itemgetter(1), chain.from_iterable(rows)))
        if g != 1:
            den //= g
            rows = [[(j, x // g) for j, x in row] for row in rows]
        num = []
        for row in rows:
            dense, last = [0] * cols, -1
            for j, x in row:
                if not last < j < cols or not x:
                    raise ValueError(f"not the nonzeros of a row of {cols} columns: {row}")
                dense[j], last = x, j
            num.append(tuple(dense))
        m = cls._normal(tuple(num), den)
        m._nonzeros = tuple(map(tuple, rows))
        return m

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._normal(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix._normal(tuple((0,) * cols for _ in range(rows)), 1)

    def nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The (column, numerator) pairs of the nonzeros of each row."""
        if self._nonzeros is None:
            self._nonzeros = _nonzeros(self.num)
        return self._nonzeros

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return Fraction(self.num[ij[0]][ij[1]], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.cols, self.den, self.num) == (other.cols, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._normal(tuple(zip(*self.num)), self.den)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise DimensionError("trace of non-square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return RationalMatrix.from_numerators(
            [[s * x + t * y for x, y in zip(r1, r2)] for r1, r2 in zip(self.num, other.num)],
            den,
        )

    def scale(self, c: RationalLike) -> "RationalMatrix":
        c = Fraction(c)
        p = c.numerator
        return RationalMatrix.from_numerators(
            [[p * x for x in row] for row in self.num], self.den * c.denominator
        )

    def is_identity(self) -> bool:
        """In normal form the identity has den 1 and unit numerator rows."""
        return self.den == 1 and self.is_square and all(
            row[i] == 1 and row.count(0) == len(row) - 1 for i, row in enumerate(self.num)
        )

    def to_floats(self) -> list[list[float]]:
        den = self.den
        return [[x / den for x in row] for row in self.num]


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact product: the integer product of the numerators, reduced once
    over den(a)*den(b)."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return RationalMatrix.from_numerators(
        _int_product(a.nonzeros(), b.nonzeros(), b.cols), a.den * b.den
    )


def _nonzeros(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (column, value) pairs of the nonzeros of each row."""
    return tuple(tuple(zip(compress(count(), row), filter(None, row))) for row in rows)


def _int_product(
    a: Sequence[Sequence[tuple[int, int]]], b: Sequence[Sequence[tuple[int, int]]], cols: int
) -> list[list[int]]:
    """Dense rows of the product of integer matrices given by their
    nonzeros (_nonzeros), b with `cols` columns: each nonzero a[i][k] adds
    its multiple of the nonzeros of row k of b."""
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in row:
            for j, y in b[k]:
                acc[j] += x * y
        out.append(acc)
    return out


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


def mat_pow(a: RationalMatrix, k: int) -> RationalMatrix:
    """Exact k-th power on _chain_power's addition chain, which from a alone
    makes as many products as binary exponentiation: one per bit of k after
    the leading one, and one per further set bit."""
    if not a.is_square:
        raise DimensionError("power of non-square matrix")
    if k < 0:
        raise ValueError("negative exponent")
    if k == 0:
        return RationalMatrix.identity(a.rows)
    return _chain_power({1: a}, k)


def _reduce(r: list[int], basis: Sequence[tuple[int, list[int]]]) -> list[int]:
    """r with each (pivot, row) of basis, in turn, cleared from it without
    fractions: row[pivot] r - r[pivot] row, over the gcd of its entries.
    A row is zero at the pivots of the rows before it."""
    for p, b in basis:
        f = r[p]
        if f:
            s = b[p]
            r = [s * x - f * y for x, y in zip(r, b)]
            g = gcd(*r)
            if g > 1:
                r = [x // g for x in r]
    return r


def rational_rank(a: RationalMatrix) -> int:
    """Rank over the rationals: the number of the numerator rows that do
    not vanish when reduced (_reduce) against the earlier ones that did
    not, each kept with its first nonzero entry as pivot."""
    basis: list[tuple[int, list[int]]] = []
    for row in a.num:
        r = _reduce(list(row), basis)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is not None:
            basis.append((pivot, r))
    return len(basis)


def local_minimal_polynomial(u: RationalMatrix, j: int) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of the basis vector e_j under u: the monic
    mu of least degree with mu(u) e_j = 0, coefficients in ascending order.

    Krylov on the numerators N = den * u: v_0 = e_j, v_(i+1) = N v_i.  Each
    v_k, extended by the unit vector of its index k, is reduced against the
    earlier rows (_reduce, pivots among the first n entries); the tail
    carries the combination of v_0..v_k the row stands for.  The first v_k
    to vanish leaves sum c_i v_i = 0 with c_k != 0, the minimal polynomial
    of e_j under N; under u = N / den its coefficient i is
    (c_i / c_k) den^(i - k).
    """
    if not u.is_square:
        raise DimensionError("local minimal polynomial of non-square matrix")
    n = u.rows
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range")
    sparse = u.nonzeros()
    basis: list[tuple[int, list[int]]] = []  # (pivot, row)
    v = [int(i == j) for i in range(n)]
    while True:
        k = len(basis)
        r = _reduce(v + [int(i == k) for i in range(n + 1)], basis)
        pivot = next((i for i in range(n) if r[i]), None)
        if pivot is None:
            c, den = r[n : n + k + 1], u.den
            return tuple(Fraction(ci * den**i, c[k] * den**k) for i, ci in enumerate(c))
        basis.append((pivot, r))
        v = [sum(x * v[c] for c, x in row) for row in sparse]


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


class IntPolynomial(NamedTuple):
    """Integer polynomial, coefficients in ascending degree order."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs: Sequence[int]) -> "IntPolynomial":
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(int(x) for x in c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x: RationalLike) -> RationalLike:
        return _horner(self.coeffs, x)

    def mul_linear_shift(self, root: int) -> "IntPolynomial":
        """Multiply by (x - root)."""
        c = self.coeffs
        out = [0] * (len(c) + 1)
        for i, a in enumerate(c):
            out[i + 1] += a
            out[i] -= a * root
        return IntPolynomial.from_coeffs(out)


def _divmod_monic(p: Sequence[int], d: Sequence[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of p by the monic d, as ascending coefficient
    lists; the remainder keeps deg d entries when deg p >= deg d."""
    rem, n = list(p), len(d) - 1
    quo = [0] * (len(p) - n)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + n]
        if c:
            for j in range(n):
                rem[i + j] -= c * d[j]
    return quo, rem[:n]


def poly_divmod_monic(p: IntPolynomial, d: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Divide p by a monic divisor d over the integers."""
    if not d.is_monic:
        raise ValueError("divisor must be monic")
    quo, rem = _divmod_monic(p.coeffs, d.coeffs)
    return IntPolynomial.from_coeffs(quo or [0]), IntPolynomial.from_coeffs(rem or [0])


def _sparse_times_dense(a: list, b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows of A B from the nonzeros (k, a_ik) of A's rows and B's dense
    rows: row i is the sum of the a_ik B_k, column by column."""
    zero = [0] * len(b[0])
    return [list(map(sum, zip(zero, *(b[k] if x == 1 else [x * y for y in b[k]] for k, x in row))))
            for row in a]


def char_poly(m: Sequence[Sequence[int]]) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M) of an integer matrix.

    From the power sums p_k = tr(M^k), k <= n, forming only M^1..M^h,
    h = ceil(n/2), in h - 1 products: p_k = tr(M^h M^(k-h)) for k > h is a
    sum of dot products of rows (after Preparata and Sarwate, IPL 7, 1978).
    Newton's identities k c_k = -sum_(i<=k) c_(k-i) p_i give the coefficient
    c_k of x^(n-k); a remainder, impossible for an integer M, raises ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("matrix is not square")
    sparse = _nonzeros(m)
    powers = [m]  # powers[k - 1] = M^k
    for _ in range((n + 1) // 2 - 1):
        powers.append(_sparse_times_dense(sparse, powers[-1]))
    p = [0] + [sum(row[i] for i, row in enumerate(mk)) for mk in powers]
    top = list(zip(*powers[-1]))
    p += [sum(sum(map(mul, r, t)) for r, t in zip(mk, top)) for mk in powers[: n // 2]]
    c = [1]
    for k in range(1, n + 1):
        ck, r = divmod(-sum(map(mul, c[::-1], p[1 : k + 1])), k)
        if r:
            raise ValueError(f"coefficient of x^{n - k} is not an integer: M is not integral")
        c.append(ck)
    return IntPolynomial(tuple(c[::-1]))


# ---------------------------------------------------------------------------
# Kronecker integrality and cyclotomic factors
# ---------------------------------------------------------------------------


class NonIntegralPolynomial(ValueError):
    """A rescaled characteristic polynomial has a non-integral coefficient."""


def rescaled_integral(p: IntPolynomial, a: RationalLike, b: RationalLike = 0) -> IntPolynomial:
    """The monic polynomial with roots a*x + b for the roots x of the monic
    p, if it is integral; else NonIntegralPolynomial names its highest
    non-integral coefficient.

    In integers, with a = u/v and b = w/v over one denominator: coefficient
    i scales by u^(n-i), a Taylor shift by w gives r with the roots u*x + w,
    and the result's coefficient i is r_i / v^(n-i).  With a = 1/L and
    b = 0 this is charpoly(N / L) from charpoly(N): it is integral iff L^i
    divides the coefficient of x^(n-i).
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    a, b, n = Fraction(a), Fraction(b), p.degree
    v = lcm(a.denominator, b.denominator)
    u, w = int(a * v), int(b * v)
    c = [ci * u ** (n - i) for i, ci in enumerate(p.coeffs)]
    for i in range(n) if w else ():
        for j in range(n - 1, i - 1, -1):
            c[j] -= w * c[j + 1]
    for i in range(n - 1, -1, -1):
        ci, r = divmod(c[i], v ** (n - i))
        if r:
            frac = Fraction(c[i], v ** (n - i))
            raise NonIntegralPolynomial(f"coefficient {frac} of y^{i} is not an integer")
        c[i] = ci
    return IntPolynomial(tuple(c))


def _factor(k: int) -> dict[int, int]:
    """{p: e} with k = prod p^e for k >= 1, primes ascending, by trial
    division by 2 and the odd numbers."""
    out, p = {}, 2
    while p * p <= k:
        if k % p == 0:
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if k > 1:
        out[k] = 1
    return out


def _prime_factors(k: int) -> list[int]:
    return list(_factor(k))


def _totient(k: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in _factor(k).items())


@lru_cache(maxsize=None)
def cyclotomic(k: int, real: bool = False) -> IntPolynomial:
    """Phi_k, the minimal polynomial of e^(2 pi i / k); with real=True,
    Psi_k, that of 2cos(2 pi / k) (Watkins-Zeitlin, Amer. Math. Monthly
    100, 1993).

    For k > 1, Phi_k(x) is the product of (1 - x^d)^mu(k/d) over d | k, of
    degree phi(k), so that power series cut past degree phi(k) is Phi_k.
    For k > 2, Phi_k(x) = x^r Psi_k(x + 1/x) with r = phi(k)/2, and
    x^j + x^-j = D_j(x + 1/x) for D_0 = 2, D_1 = y, D_(j+1) = y D_j -
    D_(j-1), so Psi_k is the sum of Phi_k's coefficient of x^(r+j) times D_j.
    """
    if k < 1:
        raise ValueError("order must be positive")
    if k <= 2:  # x - 1 and x + 1; y - 2 and y + 2
        return IntPolynomial(((-1) ** k * (1 + real), 1))
    n, primes = _totient(k), _prime_factors(k)
    s = [1] + [0] * n
    for r in range(len(primes) + 1):  # mu(k/d) = (-1)^r: k/d is r primes
        for d in (k // prod(c) for c in combinations(primes, r)):
            if r % 2:  # divide by 1 - x^d
                for i in range(d, n + 1):
                    s[i] += s[i - d]
            else:  # multiply by 1 - x^d
                for i in range(n, d - 1, -1):
                    s[i] -= s[i - d]
    if not real:
        return IntPolynomial(tuple(s))
    psi, prev, cur = [s[n // 2]] + [0] * (n // 2), [2], [0, 1]
    for j in range(1, n // 2 + 1):
        for i, x in enumerate(cur):
            psi[i] += s[n // 2 + j] * x
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return IntPolynomial(tuple(psi))


@lru_cache(maxsize=None)
def _orders_of_totient_at_most(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, phi(k)) with phi(k) <= n, k ascending.

    phi is multiplicative with phi(p^e) = p^(e-1) (p - 1), so every such k
    is a product of powers of primes p <= n + 1; they are built one prime
    at a time, ascending, while the product of the phi(p^e) stays <= n.
    """
    primes = [p for p in range(2, n + 2) if all(p % d for d in range(2, isqrt(p) + 1))]
    found: list[tuple[int, int]] = []

    def extend(k: int, phi: int, i: int) -> None:
        found.append((k, phi))
        for j in range(i, len(primes)):
            p = primes[j]
            q, f = p, phi * (p - 1)
            if f > n:
                break
            while f <= n:
                extend(k * q, f, j + 1)
                q, f = q * p, f * p

    if n >= 1:
        extend(1, 1, 0)
    return tuple(sorted(found))


def cyclotomic_factors(
    p: IntPolynomial, real: bool = False
) -> tuple[dict[int, int], IntPolynomial]:
    """Strip the cyclotomic factors of the monic p: ({k: m_k}, rest) with
    p = rest * prod Phi_k^(m_k) and no Phi_k dividing rest (Psi_k with
    real=True).

    Phi_k has degree phi(k), Psi_k degree phi(k)/2 (1 for k <= 2), so only
    the k with phi(k) <= N can divide the rest, N its degree (twice it with
    real=True); they are tried in ascending order.
    """
    orders: dict[int, int] = {}
    rest = p.coeffs
    for k, phi in _orders_of_totient_at_most(p.degree * (1 + real)):
        if phi <= (len(rest) - 1) * (1 + real):
            phi_k = cyclotomic(k, real).coeffs
            quo, rem = _divmod_monic(rest, phi_k)
            while not any(rem):
                rest, orders[k] = quo, orders.get(k, 0) + 1
                quo, rem = _divmod_monic(rest, phi_k)
    return orders, IntPolynomial(tuple(rest))


# ---------------------------------------------------------------------------
# Square-free parts and quadratic values
# ---------------------------------------------------------------------------


def square_free_part(n: int) -> tuple[int, int]:
    """Split n = s * f^2 with s square-free, by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    s = f = 1
    for p, e in _factor(n).items():
        s *= p ** (e % 2)
        f *= p ** (e // 2)
    return s, f


class QuadraticValue(NamedTuple):
    """Exact number a + b*sqrt(m) with a, b rational and m square-free.

    m == 1 canonically encodes plain rationals (then b == 0).
    """

    a: Fraction
    b: Fraction
    m: int

    @staticmethod
    def of(a: RationalLike, b: RationalLike = 0, m: int = 1) -> "QuadraticValue":
        a, b = Fraction(a), Fraction(b)
        if m < 1:
            raise ValueError("m must be a positive integer")
        s, f = square_free_part(m)
        b *= f
        m = s
        if b == 0 or m == 1:
            a, b, m = a + (b if m == 1 else 0), Fraction(0), 1
        return QuadraticValue(a, b, m)

    @staticmethod
    def rational(a: RationalLike) -> "QuadraticValue":
        return QuadraticValue.of(a)

    @property
    def is_rational(self) -> bool:
        return self.m == 1

    def conjugate(self) -> "QuadraticValue":
        return QuadraticValue.of(self.a, -self.b, self.m)

    def __add__(self, other: "QuadraticValue") -> "QuadraticValue":
        m = self._join(other)
        return QuadraticValue.of(self.a + other.a, self.b + other.b, m)

    def __mul__(self, other: "QuadraticValue") -> "QuadraticValue":
        m = self._join(other)
        return QuadraticValue.of(
            self.a * other.a + self.b * other.b * m,
            self.a * other.b + self.b * other.a,
            m,
        )

    def __rmul__(self, other: object) -> "QuadraticValue":
        return NotImplemented  # not tuple repetition: 2 * v raises TypeError

    def scale(self, c: RationalLike) -> "QuadraticValue":
        c = Fraction(c)
        return QuadraticValue.of(self.a * c, self.b * c, self.m)

    def _join(self, other: "QuadraticValue") -> int:
        if self.m != 1 and other.m != 1 and self.m != other.m:
            raise ValueError(f"incompatible radicands {self.m} and {other.m}")
        return self.m if self.m != 1 else other.m

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.m ** 0.5

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.m})"


def quadratic_from_string(s: str) -> QuadraticValue:
    """Parse the exact rendering produced by str(QuadraticValue)."""
    s = s.replace(" ", "")
    if "sqrt" not in s:
        return QuadraticValue.rational(Fraction(s))
    head, tail = s.split("*sqrt(")
    m = int(tail.rstrip(")"))
    # head is "<a><sign><|b|>"; the separating sign is the last +/- past
    # position 0 (Fraction strings carry no interior signs)
    sign_pos = max(head.rfind("+", 1), head.rfind("-", 1))
    a_str, b_str = head[:sign_pos], head[sign_pos:]
    return QuadraticValue.of(Fraction(a_str), Fraction(b_str), m)


def is_quadratic_algebraic_integer(v: QuadraticValue) -> bool:
    """Ring-of-integers membership test for Q(sqrt(m)).

    m = 2,3 mod 4: integers are p + q*sqrt(m), p,q in Z.
    m = 1 mod 4:   integers are p + q*(1+sqrt(m))/2, p,q in Z.
    m = 1:         plain rational integers.
    """
    if v.m == 1:
        return v.a.denominator == 1
    if v.m % 4 in (2, 3):
        return v.a.denominator == 1 and v.b.denominator == 1
    # m = 1 mod 4: need q = 2b in Z and p = a - b in Z
    q = 2 * v.b
    return q.denominator == 1 and (v.a - v.b).denominator == 1


def eval_at_quadratic(p: IntPolynomial, v: QuadraticValue) -> QuadraticValue:
    acc = QuadraticValue.rational(0)
    for c in reversed(p.coeffs):
        acc = acc * v + QuadraticValue.rational(c)
    return acc


class HigherDegreeFactor(Exception):
    """The polynomial has an irreducible factor of degree > 2 (or a
    non-real quadratic factor, which is equally outside scope)."""


def _signed_divisors(n: int, lo: int, hi: int) -> list[int]:
    """The divisors d of n != 0 with lo <= d <= hi, of both signs, by
    absolute value, d before -d.  Trial division runs to min(max(-lo, hi),
    sqrt|n|): past sqrt|n| only the cofactors n/d of smaller divisors are
    left."""
    n, cap = abs(n), max(-lo, hi)
    small, large = [], []
    d = 1
    while d <= cap and d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n and n // d <= cap:
                large.append(n // d)
        d += 1
    return [x for d in small + large[::-1] for x in (d, -d) if lo <= x <= hi]


def _iroot_ceil(a: int, k: int) -> int:
    """Smallest integer r >= 0 with r**k >= a, for a >= 0 (exact)."""
    if a < 2 or k == 1:
        return a
    r = 1 << -(-a.bit_length() // k)  # r**k >= a
    while True:
        # Newton step toward floor(a^(1/k)); decreasing while above it
        s = ((k - 1) * r + a // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k >= a else r + 1


def _fujiwara_bound(c: Sequence[int]) -> int:
    """Integer bound on every complex root of the monic polynomial with
    ascending coefficients c, of degree n: |z| <= 2 max_k |a_(n-k)|^(1/k)
    (Fujiwara), k-th roots rounded up."""
    n = len(c) - 1
    return 2 * max(_iroot_ceil(abs(c[n - k]), k) for k in range(1, n + 1))


def _horner(c: Sequence[int], t: RationalLike) -> RationalLike:
    """Horner's rule: an int at an integer, a Fraction at a Fraction."""
    acc = 0
    for x in reversed(c):
        acc = acc * t + x
    return acc


def _strip_quadratics(rem: list[int], lo: int, hi: int, real: bool, roots: Counter) -> list[int]:
    """roots_degree_le2's last stage, on a residual of degree >= 2 with no
    integer root and every root z real in [lo, hi], or, unless real, with
    |z| <= hi = -lo: count the roots of its irreducible monic quadratic
    factors in roots, and return the residual, of degree < 2, or raise
    HigherDegreeFactor."""
    # a factor f = (x - z1)(x - z2) = x^2 + beta x + gamma has beta in
    # [-2 hi, -2 lo], gamma a product of two points of [lo, hi], and
    # f(lo), f(hi) >= 0; for real roots beta^2 > 4 gamma, and these put
    # z1, z2 in [lo, hi].  Kronecker's evaluation test: f | rem makes f(t)
    # divide rem(t) != 0 (no integer root is left) for every integer t;
    # four remainders reject almost every f before the division
    r1, r_1, r2, r_2 = (_horner(rem, t) for t in (1, -1, 2, -2))
    products = (lo * lo, lo * hi, hi * hi)
    for gamma in _signed_divisors(rem[0], min(products), max(products)):
        g1, g2 = 1 + gamma, 4 + gamma  # f(+-1) = g1 +- beta, f(+-2) = g2 +- 2 beta
        for beta in range(-2 * hi, 1 - 2 * lo):
            disc = beta * beta - 4 * gamma
            if real and disc <= 0 or lo * (lo + beta) + gamma < 0 or hi * (hi + beta) + gamma < 0:
                continue
            f1, f_1, f2, f_2 = g1 + beta, g1 - beta, g2 + 2 * beta, g2 - 2 * beta
            while f1 and f_1 and f2 and f_2 and not (r1 % f1 or r_1 % f_1 or r2 % f2 or r_2 % f_2):
                quo, r = _divmod_monic(rem, (gamma, beta, 1))
                if any(r):
                    break
                if disc <= 0:
                    # disc == 0 impossible here (double rational root was
                    # stripped); disc < 0 means complex roots
                    raise HigherDegreeFactor(f"non-real quadratic factor x^2+{beta}x+{gamma}")
                s, f = square_free_part(disc)
                if s == 1:
                    # reducible; its rational roots were already stripped
                    break
                roots[s, -beta, f] += 1
                roots[s, -beta, -f] += 1
                rem = quo
                if len(rem) < 3:
                    return rem
                r1, r_1, r2, r_2 = (_horner(rem, t) for t in (1, -1, 2, -2))
    raise HigherDegreeFactor(f"no degree<=2 factor of residual {tuple(rem)}")


def roots_degree_le2(
    p: IntPolynomial, interval: Optional[tuple[int, int]] = None
) -> list[tuple[QuadraticValue, int]]:
    """Factor a monic integer polynomial into roots of algebraic degree <= 2.

    Returns (root, multiplicity) pairs, ordered by (m, a, b). Rational roots
    of a monic integer polynomial are integers; irreducible monic quadratic
    factors have integer coefficients (Gauss), so an integer search is
    complete.  Raises HigherDegreeFactor when a residual admits no such
    factor.  The search runs on int lists in one window: `interval` =
    (lo, hi) when the caller has proven every root real and in [lo, hi]
    (it stays complete only if that is proven), else [-B, B], B the
    smaller of the Cauchy and Fujiwara bounds, where a non-real quadratic
    factor raises.  A root a + b sqrt(m) is kept as the key (m, 2a, 2b),
    and one QuadraticValue is built per distinct root, at the end.
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    roots: Counter[tuple[int, int, int]] = Counter()
    # strip x^k: slice off the k low zero coefficients
    k = next(i for i, c in enumerate(p.coeffs) if c)
    rem, real = list(p.coeffs[k:]), interval is not None
    if k:
        roots[1, 0, 0] = k

    # Each stage makes one ordered pass over its candidates, taken from what
    # the stage before left, and strips each as often as it divides: a later
    # residual divides that one, so its factors are all among them.  The
    # integer roots divide the constant term, nonzero once x^k is stripped;
    # synthetic division by x - r leaves the quotient and, last, rem(r)
    if len(rem) > 1:
        if not real:
            b = min(1 + max(map(abs, rem[:-1])), _fujiwara_bound(rem))
            interval = (-b, b)
        for r in _signed_divisors(rem[0], *interval):
            while len(rem) > 1:
                quo, acc = [], 0
                for c in reversed(rem):
                    acc = acc * r + c
                    quo.append(acc)
                if acc:
                    break
                rem = quo[-2::-1]
                roots[1, 2 * r, 0] += 1

    if len(rem) > 2:
        rem = _strip_quadratics(rem, *interval, real, roots)

    if len(rem) == 2:
        # monic linear remainder: root is an integer, but it escaped the
        # search only if logic above is wrong
        roots[1, -2 * rem[0], 0] += 1

    return [
        (QuadraticValue(Fraction(a2, 2), Fraction(b2, 2), m), mult)
        for (m, a2, b2), mult in sorted(roots.items())
    ]
