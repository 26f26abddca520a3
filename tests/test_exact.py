import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.exact
import qwalk.periodicity
from qwalk.exact import (
    DimensionError,
    HigherDegreeFactor,
    IntPolynomial,
    NonIntegralPolynomial,
    QuadraticValue,
    RationalMatrix,
    _divmod_monic,
    _nonzeros,
    _orders_of_totient_at_most,
    _signed_divisors,
    _factor,
    _totient,
    char_poly,
    cyclotomic,
    cyclotomic_factors,
    eval_at_quadratic,
    graeffe_step,
    is_quadratic_algebraic_integer,
    local_minimal_polynomial,
    mat_mul,
    mat_pow,
    poly_divmod_monic,
    quadratic_from_string,
    rational_rank,
    rescaled_integral,
    roots_degree_le2,
    square_free_part,
)
from qwalk.graphs import (
    Graph,
    bipartite_double_cover,
    bipartition,
    circulant,
    cycle,
    degree_profile,
    figure1_graph,
    figure4a_graph,
    figure7_graph,
    heawood_graph,
    path,
    petersen_graph,
    star,
    subdivision,
)
from qwalk.periodicity import grover_regular_test, spectral_test_biregular
from qwalk.walks import _gram

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def fractions_of(m: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of m as Fraction rows."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.num)


def square_matrices(n: int):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix)


class TestRationalMatrix:
    def test_identity_and_zeros(self):
        assert RationalMatrix.identity(3).is_identity()
        assert not RationalMatrix.zeros(3, 3).is_identity()

    def test_is_identity_cases(self):
        assert RationalMatrix.identity(0).is_identity()
        assert not RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).is_identity()
        assert not RationalMatrix([[1, 0], [0, Fraction(1, 2)]]).is_identity()
        assert not RationalMatrix([[1, Fraction(1, 2)], [0, 1]]).is_identity()
        assert not RationalMatrix([[1, 0, 0], [0, 1, 0]]).is_identity()
        assert not RationalMatrix([[1, 0], [0, 1], [0, 0]]).is_identity()

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda s: st.tuples(
                st.just(s),
                st.lists(
                    st.tuples(
                        st.integers(0, s[0] - 1),
                        st.integers(0, s[1] - 1),
                        st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]),
                    ),
                    max_size=2,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_is_identity_matches_equality(self, case):
        (rows, cols), edits = case
        data = [[int(i == j) for j in range(cols)] for i in range(rows)]
        for i, j, x in edits:
            data[i][j] = x
        m = RationalMatrix(data)
        assert m.is_identity() == (rows == cols and m == RationalMatrix.identity(rows))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    @given(square_matrices(3), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_mat_pow_additivity(self, a, i, j):
        assert mat_pow(a, i + j) == mat_mul(mat_pow(a, i), mat_pow(a, j))

    @pytest.mark.parametrize("k,products", [(1, 0), (2, 1), (3, 2), (8, 3), (12, 4), (13, 5)])
    def test_mat_pow_starts_from_first_factor(self, monkeypatch, k, products):
        # floor(log2 k) squarings and one product per further set bit of k
        a = RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        expected = RationalMatrix.identity(3)
        for _ in range(k):
            expected = mat_mul(expected, a)
        calls = []

        def counting(x, y):
            calls.append(1)
            return mat_mul(x, y)

        monkeypatch.setattr(qwalk.exact, "mat_mul", counting)
        assert mat_pow(a, k) == expected
        assert len(calls) == products

    def test_mat_pow_makes_as_many_products_as_binary_exponentiation(self, monkeypatch):
        # one squaring per bit of k after the leading one, one product per
        # further set bit
        calls = []

        def counting(x, y):
            calls.append(1)
            return mat_mul(x, y)

        monkeypatch.setattr(qwalk.exact, "mat_mul", counting)
        a = RationalMatrix([[1, 1], [0, 1]])
        for k in range(1, 200):
            calls.clear()
            assert mat_pow(a, k) == RationalMatrix([[1, k], [0, 1]])
            assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k

    @given(square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution(self, a):
        assert a.transpose().transpose() == a

    def test_nonzeros_are_found_once_per_matrix(self, monkeypatch):
        calls = []
        find = qwalk.exact._nonzeros
        monkeypatch.setattr(qwalk.exact, "_nonzeros", lambda rows: calls.append(1) or find(rows))
        m = RationalMatrix([[0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, -1]])
        assert m.nonzeros() == (((1, 1),), (), ((0, 6), (2, -2)))
        assert m.nonzeros() is m.nonzeros()
        reference = RationalMatrix(ref_mul(fractions_of(m), fractions_of(m)))
        # once for each matrix given by its entries, m and the reference
        assert len(calls) == 2
        square = mat_mul(m, m)
        assert square == reference
        assert mat_mul(square, m) == mat_mul(m, square)
        assert square == mat_mul(m, m) and m.nonzeros() is m.nonzeros()
        assert square.transpose().transpose() == square and square.trace() == reference.trace()
        # a product yields its pairs: none of the four is searched for them
        assert len(calls) == 2

    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda s: st.lists(
                st.lists(st.sampled_from([0, 0, 0, 1, -2, 3, 4, -6, 12]), min_size=s[1], max_size=s[1]),
                min_size=s[0],
                max_size=s[0],
            )
        ),
        st.integers(1, 24),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_nonzeros_matches_the_fraction_constructor(self, num, den):
        # numerators and denominators sharing factors exercise the gcd,
        # zero rows the empty ones, an all-zero draw the zero matrix
        m = RationalMatrix.from_nonzeros(_nonzeros(num), len(num[0]), den)
        dense = RationalMatrix([[Fraction(x, den) for x in row] for row in num])
        assert (m.num, m.den, m.rows, m.cols) == (dense.num, dense.den, dense.rows, dense.cols)
        assert m.nonzeros() == dense.nonzeros()
        assert_normal(m)

    def test_from_nonzeros_reduces_and_keeps_the_pairs(self, monkeypatch):
        calls = []
        find = qwalk.exact._nonzeros
        monkeypatch.setattr(qwalk.exact, "_nonzeros", lambda rows: calls.append(1) or find(rows))
        m = RationalMatrix.from_nonzeros([((0, 2), (2, -4)), (), ((1, 6),)], 3, 6)
        assert (m.num, m.den) == (((1, 0, -2), (0, 0, 0), (0, 3, 0)), 3)
        assert m.nonzeros() == (((0, 1), (2, -2)), (), ((1, 3),))
        zero = RationalMatrix.from_nonzeros([(), ()], 2, 5)
        assert zero == RationalMatrix.zeros(2, 2) and zero.den == 1
        assert zero.nonzeros() == ((), ())
        assert calls == []

    @pytest.mark.parametrize(
        "rows,cols,den",
        [
            ([((0, 1),)], 1, 0),  # denominator below 1
            ([((0, 1),)], 1, -2),
            ([((2, 1),)], 2, 1),  # column out of range
            ([((-1, 1),)], 2, 1),
            ([((1, 1), (0, 1))], 2, 1),  # columns out of order
            ([((0, 1), (0, 2))], 2, 1),  # a column twice
            ([((0, 0),)], 1, 1),  # a zero numerator
        ],
        ids=["den-0", "den-negative", "column-past-end", "column-negative", "descending",
             "repeated", "zero-numerator"],
    )
    def test_from_nonzeros_rejects(self, rows, cols, den):
        with pytest.raises(ValueError):
            RationalMatrix.from_nonzeros(rows, cols, den)

    def test_rank(self):
        assert rational_rank(RationalMatrix.identity(4)) == 4
        assert rational_rank(RationalMatrix([[1, 2], [2, 4]])) == 1
        assert rational_rank(RationalMatrix.zeros(2, 5)) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_agrees_with_sympy(self, seed):
        """Each row a seeded rational combination of the same zero to four
        integer rows, so that the rank often falls short of both sizes,
        against sympy's rank."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        base = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rng.randint(0, 4))]
        data = []
        for _ in range(rows):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in base]
            data.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(cols)])
        assert rational_rank(RationalMatrix(data)) == sympy.Matrix(data).rank()


entries = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def fraction_rows(draw, rows: int, cols: int):
    """Nested Fraction lists with mixed denominators, negative entries and
    some rows (possibly all of them) zeroed."""
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    zeroed = draw(st.sets(st.integers(0, rows - 1)))
    return [[Fraction(0)] * cols if i in zeroed else row for i, row in enumerate(m)]


shapes = st.tuples(*(st.integers(1, 4),) * 3)


def ref_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def as_tuples(rows):
    return tuple(tuple(row) for row in rows)


def assert_normal(m: RationalMatrix) -> None:
    assert m.den >= 1
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1


class TestKernelAgainstFractions:
    """The integer kernel against a plain nested-list Fraction reference."""

    @given(shapes.flatmap(lambda s: st.tuples(fraction_rows(s[0], s[1]), fraction_rows(s[1], s[2]))))
    @settings(max_examples=150, deadline=None)
    def test_mat_mul(self, ab):
        a, b = ab
        got = mat_mul(RationalMatrix(a), RationalMatrix(b))
        assert fractions_of(got) == as_tuples(ref_mul(a, b))
        assert_normal(got)

    @given(shapes.flatmap(lambda s: st.tuples(fraction_rows(s[0], s[1]), fraction_rows(s[0], s[1]))))
    @settings(max_examples=100, deadline=None)
    def test_add(self, ab):
        a, b = ab
        got = RationalMatrix(a).add(RationalMatrix(b))
        assert fractions_of(got) == as_tuples([[x + y for x, y in zip(r, s)] for r, s in zip(a, b)])
        assert_normal(got)

    @given(shapes.flatmap(lambda s: fraction_rows(s[0], s[1])), entries)
    @settings(max_examples=100, deadline=None)
    def test_scale(self, a, c):
        got = RationalMatrix(a).scale(c)
        assert fractions_of(got) == as_tuples([[c * x for x in row] for row in a])
        assert_normal(got)

    @given(shapes.flatmap(lambda s: fraction_rows(s[0], s[1])))
    @settings(max_examples=100, deadline=None)
    def test_transpose_and_entries(self, a):
        m = RationalMatrix(a)
        assert_normal(m)
        assert fractions_of(m) == as_tuples(a)
        assert all(m[i, j] == a[i][j] for i in range(len(a)) for j in range(len(a[0])))
        assert fractions_of(m.transpose()) == as_tuples(zip(*a))
        assert m.to_floats() == [[float(x) for x in row] for row in a]

    @given(st.integers(1, 4).flatmap(lambda n: fraction_rows(n, n)))
    @settings(max_examples=100, deadline=None)
    def test_trace(self, a):
        assert RationalMatrix(a).trace() == sum((a[i][i] for i in range(len(a))), Fraction(0))

    @given(shapes.flatmap(lambda s: fraction_rows(s[0], s[1])))
    @settings(max_examples=60, deadline=None)
    def test_normal_form(self, a):
        m = RationalMatrix(a)
        back = m.scale(Fraction(2, 3)).scale(Fraction(3, 2))
        assert back == m and hash(back) == hash(m)
        assert (back.num, back.den) == (m.num, m.den)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_matrix_normal_form(self, n):
        z = RationalMatrix.zeros(n, n)
        assert z == RationalMatrix([[0] * n] * n) and hash(z) == hash(RationalMatrix([[0] * n] * n))
        assert z.den == 1
        assert RationalMatrix.identity(n).scale(Fraction(5, 7)).scale(0) == z

    @pytest.mark.parametrize(
        "rows,inner,cols", [(0, 2, 2), (0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 2), (0, 0, 0)]
    )
    def test_empty_shapes(self, rows, inner, cols):
        """A matrix with no rows or no columns keeps both sizes through
        products and transposes, and its entries are the reference's."""
        rng = random.Random(100 * rows + 10 * inner + cols)
        a, fa = _seeded_matrix(rng, rows, inner, 0.5)
        b, fb = _seeded_matrix(rng, inner, cols, 0.5)
        got = mat_mul(a, b)
        assert (got.rows, got.cols) == (rows, cols)
        assert fractions_of(got) == as_tuples(
            [[sum((fa[i][k] * fb[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
             for i in range(rows)]
        )
        assert_normal(got)
        for m, f, (r, c) in ((a, fa, (rows, inner)), (b, fb, (inner, cols))):
            t = m.transpose()
            assert (t.rows, t.cols) == (c, r)
            assert fractions_of(t) == as_tuples([[f[i][j] for i in range(r)] for j in range(c)])
            assert t.transpose() == m


def _seeded_matrix(rng: random.Random, rows: int, cols: int, fill: float):
    """A seeded matrix of integer numerators, each entry nonzero with
    probability fill, over a seeded denominator, built from its nonzeros;
    and its entries as Fraction rows."""
    den = rng.choice([1, 1, 2, 3, 4, 6, 12])
    values = [-4, -3, -2, -1, 1, 2, 3, 6]
    num = [[rng.choice(values) if rng.random() < fill else 0 for _ in range(cols)] for _ in range(rows)]
    m = RationalMatrix.from_nonzeros(_nonzeros(num), cols, den)
    return m, [[Fraction(x, den) for x in row] for row in num]


def _diagonal(n: int, d: int) -> list[list[int]]:
    return [[d * (i == j) for j in range(n)] for i in range(n)]


class TestSeededIntegerMatrices:
    """The kernel on seeded matrices up to 12 x 12, sparse (10% fill) and
    dense, against the Fraction reference; every result in normal form."""

    @pytest.mark.parametrize("seed", range(40))
    def test_against_fractions(self, seed):
        rng = random.Random(seed)
        fill = 0.1 if seed % 2 else rng.uniform(0.5, 1.0)
        rows, inner, cols = (rng.randint(1, 12) for _ in range(3))
        a, fa = _seeded_matrix(rng, rows, inner, fill)
        b, fb = _seeded_matrix(rng, inner, cols, fill)
        product, t = mat_mul(a, b), a.transpose()
        assert fractions_of(product) == as_tuples(ref_mul(fa, fb))
        assert fractions_of(t) == as_tuples(zip(*fa))
        for m in (a, b, product, t):
            assert_normal(m)
        n = rng.randint(1, 12)
        square, fs = _seeded_matrix(rng, n, n, fill)
        assert square.trace() == sum((fs[i][i] for i in range(n)), Fraction(0))
        power = [[Fraction(x) for x in row] for row in _diagonal(n, 1)]
        for k in range(5):
            got = mat_pow(square, k)
            assert fractions_of(got) == as_tuples(power), k
            assert_normal(got)
            power = ref_mul(power, fs)

    @pytest.mark.parametrize("seed", range(20))
    def test_is_identity(self, seed):
        """d I over d, the same with one entry moved, p I over d != p, and
        a seeded sparse or dense square, each from its nonzeros."""
        rng = random.Random(seed)
        n, d = rng.randint(1, 12), rng.randint(1, 6)
        moved = _diagonal(n, d)
        moved[rng.randrange(n)][rng.randrange(n)] += rng.choice([-2, -1, 1, 3])
        p = rng.choice([x for x in range(1, 7) if x != d])
        fill = 0.1 if seed % 2 else rng.uniform(0.5, 1.0)
        square = [[rng.choice([-1, 1, 2]) if rng.random() < fill else 0 for _ in range(n)]
                  for _ in range(n)]
        found = []
        for num, den in [(_diagonal(n, d), d), (moved, d), (_diagonal(n, p), d), (square, 1)]:
            m = RationalMatrix.from_nonzeros(_nonzeros(num), n, den)
            found.append(m.is_identity())
            assert found[-1] == ([[Fraction(x, den) for x in row] for row in num] == _diagonal(n, 1))
            assert_normal(m)
        assert found[:3] == [True, False, False]


@pytest.mark.parametrize("k", range(2, 41))
def test_cycle_certificate_order(k):
    """C_2k's walk has order k, certified on its certificate from c = k."""
    assert qwalk.periodicity._certified_order(qwalk.periodicity._certificate(cycle(2 * k)), k) == k


class TestPolynomials:
    def test_char_poly_of_diagonal(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        p = char_poly([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert p.coeffs == (-6, 11, -6, 1)

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cayley_hamilton(self, m):
        """p(A) = 0 for p the characteristic polynomial of A."""
        p = char_poly(m)
        a = RationalMatrix(m)
        acc = RationalMatrix.zeros(3, 3)
        power = RationalMatrix.identity(3)
        for c in p.coeffs:
            acc = acc.add(power.scale(c))
            power = mat_mul(power, a)
        assert acc == RationalMatrix.zeros(3, 3)

    def test_char_poly_of_empty_matrix(self):
        assert char_poly([]).coeffs == (1,)

    def test_divmod(self):
        p = IntPolynomial.from_coeffs([-6, 11, -6, 1])
        q, r = poly_divmod_monic(p, IntPolynomial.from_coeffs([-1, 1]))
        assert r.is_zero
        assert q.coeffs == (6, -5, 1)

    def test_list_division_recomposes(self):
        """p = quo * d + rem with deg d remainder entries, on seeded lists;
        a divisor of higher degree leaves quo empty and rem = p."""
        rng = random.Random(7)
        for _ in range(200):
            d = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [1]
            p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            quo, rem = _divmod_monic(p, d)
            if len(p) < len(d):
                assert (quo, rem) == ([], p)
                continue
            assert len(rem) == len(d) - 1
            product = _times(quo, tuple(d)) if quo else []
            assert [a + b for a, b in zip(product, rem + [0] * len(p))] == p


class TestSquareFree:
    @given(st.integers(min_value=1, max_value=20000))
    @settings(max_examples=100)
    def test_decomposition(self, n):
        s, f = square_free_part(n)
        assert s * f * f == n
        # s has no square divisor
        d = 2
        while d * d <= s:
            assert s % (d * d) != 0
            d += 1

    def test_known_values(self):
        assert square_free_part(1) == (1, 1)
        assert square_free_part(12) == (3, 2)
        assert square_free_part(49) == (1, 7)

    def test_factor_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(1, 2001):
            expected = {int(p): e for p, e in sympy.factorint(n).items()}
            assert _factor(n) == expected and list(_factor(n)) == sorted(expected), n
            assert square_free_part(n) == (
                prod(p for p, e in expected.items() if e % 2),
                prod(p ** (e // 2) for p, e in expected.items()),
            ), n

    @pytest.mark.parametrize("n", [0, -4])
    def test_rejects_non_positive(self, n):
        with pytest.raises(ValueError, match="^n must be positive$"):
            square_free_part(n)


class TestQuadraticValue:
    def test_normalization(self):
        v = QuadraticValue.of(1, Fraction(1, 2), 12)  # sqrt(12) = 2 sqrt(3)
        assert (v.a, v.b, v.m) == (Fraction(1), Fraction(1), 3)

    def test_rational_collapse(self):
        assert QuadraticValue.of(2, 3, 1) == QuadraticValue.rational(5)
        assert QuadraticValue.of(2, 0, 7).is_rational

    @given(rationals, rationals, st.sampled_from([2, 3, 5, 6, 7]))
    def test_string_round_trip(self, a, b, m):
        v = QuadraticValue.of(a, b, m)
        assert quadratic_from_string(str(v)) == v

    def test_arithmetic(self):
        r2 = QuadraticValue.of(0, 1, 2)
        assert r2 * r2 == QuadraticValue.rational(2)
        assert (r2 + r2.conjugate()).is_rational

    def test_incompatible_radicands(self):
        with pytest.raises(ValueError):
            QuadraticValue.of(0, 1, 2) * QuadraticValue.of(0, 1, 3)

    def test_algebraic_integers(self):
        # golden ratio (1+sqrt5)/2 is integral (m = 1 mod 4)
        assert is_quadratic_algebraic_integer(
            QuadraticValue.of(Fraction(1, 2), Fraction(1, 2), 5)
        )
        # (1+sqrt2)/2 is not (m = 2 mod 4)
        assert not is_quadratic_algebraic_integer(
            QuadraticValue.of(Fraction(1, 2), Fraction(1, 2), 2)
        )
        assert is_quadratic_algebraic_integer(QuadraticValue.of(3, -2, 3))
        assert not is_quadratic_algebraic_integer(QuadraticValue.rational(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# The Cauchy/Fujiwara window, kept as the test oracle's root bound
# ---------------------------------------------------------------------------


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


def _fujiwara_bound(p: IntPolynomial) -> int:
    """Integer bound on every complex root of a monic p of degree n:
    |z| <= 2 max_k |a_(n-k)|^(1/k) (Fujiwara), k-th roots rounded up."""
    n = p.degree
    return 2 * max(_iroot_ceil(abs(p.coeffs[n - k]), k) for k in range(1, n + 1))


def _root_bound(p: IntPolynomial, cap: Optional[int] = None) -> int:
    """The smaller of the Cauchy and Fujiwara bounds on the roots of p, and
    of cap when it is given."""
    b = min(1 + max(abs(c) for c in p.coeffs[:-1]), _fujiwara_bound(p))
    return b if cap is None else min(b, cap)


def _window(p: IntPolynomial) -> tuple[int, int]:
    """[-B, B], B = _root_bound(p): the interval roots_degree_le2 searches
    for a p whose roots no caller has bounded."""
    b = _root_bound(p)
    return -b, b


class TestRootFinding:
    def test_integer_roots_with_multiplicity(self):
        # (x-2)^2 (x+1) = x^3 - 3x^2 + 4
        p = IntPolynomial.from_coeffs([4, 0, -3, 1])
        roots = dict(roots_degree_le2(p, _window(p)))
        assert roots[QuadraticValue.rational(2)] == 2
        assert roots[QuadraticValue.rational(-1)] == 1

    def test_quadratic_roots(self):
        # x^2 - x - 1: golden ratio pair
        p = IntPolynomial.from_coeffs([-1, -1, 1])
        roots = roots_degree_le2(p, _window(p))
        values = {v for v, _ in roots}
        phi = QuadraticValue.of(Fraction(1, 2), Fraction(1, 2), 5)
        assert values == {phi, phi.conjugate()}

    def test_mixed_with_zero(self):
        # x^2 (x^2 - 2)
        p = IntPolynomial.from_coeffs([0, 0, -2, 0, 1])
        roots = dict(roots_degree_le2(p, _window(p)))
        assert roots[QuadraticValue.rational(0)] == 2
        assert roots[QuadraticValue.of(0, 1, 2)] == 1

    def test_higher_degree_raises(self):
        p = IntPolynomial.from_coeffs([-2, 0, 0, 1])  # x^3 - 2
        with pytest.raises(HigherDegreeFactor):
            roots_degree_le2(p, _window(p))

    def test_complex_quadratic_raises(self):
        p = IntPolynomial.from_coeffs([1, 0, 1])  # x^2 + 1
        with pytest.raises(HigherDegreeFactor, match="^no degree<=2 factor of residual"):
            roots_degree_le2(p, _window(p))

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_roots_verify_by_evaluation(self, int_roots):
        """Every root reported for a product of linear factors evaluates to zero."""
        p = IntPolynomial.from_coeffs([1])
        for r in int_roots:
            p = p.mul_linear_shift(r)
        roots = roots_degree_le2(p, _window(p))
        for v, mult in roots:
            assert eval_at_quadratic(p, v) == QuadraticValue.rational(0)
        assert sum(m for _, m in roots) == len(int_roots)


def _random_factor(rng: random.Random, kind: str) -> list[int]:
    """Monic integer factor, coefficients in ascending degree order."""
    if kind == "linear":
        return [-rng.randint(-4, 4), 1]
    if kind == "real quadratic":
        while True:
            b, c = rng.randint(-5, 5), rng.randint(-6, 6)
            disc = b * b - 4 * c
            if disc > 0 and square_free_part(disc)[0] != 1:
                return [c, b, 1]
    if kind == "complex quadratic":
        while True:
            b, c = rng.randint(-4, 4), rng.randint(1, 8)
            if b * b - 4 * c < 0:
                return [c, b, 1]
    return [rng.choice([-3, -2, 2, 3, 5]), rng.randint(-3, 3), 0, 1]  # x^3 + a x + b


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_char_poly_agrees_with_sympy(n):
    """char_poly (power sums from half the powers, then Newton's
    identities) against sympy's charpoly, on a seeded integer matrix of each
    size up to 40x40: sparse for even n, dense for odd n."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7000 + n)
    density = 0.3 if n % 2 == 0 else 1.0
    m = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    expected = sympy.Matrix(m).charpoly(sympy.Symbol("x")).all_coeffs()
    assert char_poly(m).coeffs == tuple(int(c) for c in reversed(expected))


def _faddeev_leverrier(m: list[list[int]]) -> tuple[int, ...]:
    """det(xI - M), ascending, by Faddeev-LeVerrier on Fractions: an
    oracle independent of power sums.  M_1 = M, c_(n-k) = -tr(M_k)/k,
    M_(k+1) = M (M_k + c_(n-k) I)."""
    n = len(m)
    a = RationalMatrix(m) if n else None
    coeffs, mk = [0] * n + [1], a
    for k in range(1, n + 1):
        c = -mk.trace() / k
        coeffs[n - k] = c
        if k < n:
            mk = mat_mul(a, mk.add(RationalMatrix.identity(n).scale(c)))
    assert all(c.denominator == 1 for c in map(Fraction, coeffs))
    return tuple(int(c) for c in coeffs)


@pytest.mark.parametrize("seed", range(20))
def test_char_poly_agrees_with_faddeev_leverrier(seed):
    """Twenty seeded non-symmetric integer matrices per seed, up to 13x13,
    entries up to +-10^6 at mixed densities."""
    rng = random.Random(8000 + seed)
    for _ in range(20):
        n, density = rng.randint(0, 13), rng.choice([0.2, 0.5, 1.0])
        bound = rng.choice([1, 9, 10**6])
        m = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        assert char_poly(m).coeffs == _faddeev_leverrier(m)


@pytest.mark.parametrize("seed", range(8))
def test_char_poly_of_large_non_symmetric_entries_agrees_with_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8100 + seed)
    n = rng.randint(2, 16)
    m = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
    assert m != [list(col) for col in zip(*m)]
    expected = sympy.Matrix(m).charpoly(sympy.Symbol("x")).all_coeffs()
    assert char_poly(m).coeffs == tuple(int(c) for c in reversed(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 20])
def test_char_poly_of_nilpotent_and_zero_matrices(n):
    """x^n for the zero matrix, a strictly upper triangular matrix, one
    Jordan block, and a dense rank-one u v^T with v.u = 0."""
    rng = random.Random(n)
    upper = [[rng.randint(-10**6, 10**6) if j > i else 0 for j in range(n)] for i in range(n)]
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    u = [1] + [rng.choice([-3, -1, 2, 5]) for _ in range(n - 1)]
    v = [rng.choice([-2, 1, 4]) for _ in range(n)]
    v[0] = -sum(x * y for x, y in zip(u[1:], v[1:]))
    rank_one = [[x * y for y in v] for x in u]
    for m in ([[0] * n for _ in range(n)], upper, jordan, rank_one):
        assert char_poly(m).coeffs == (0,) * n + (1,)


def test_char_poly_of_non_symmetric_gram_rows_of_subdivisions():
    """The Gram rows of S(g) on the original vertices of a non-regular g,
    L (I + D^-1 A) / 2, are not symmetric."""
    sympy = pytest.importorskip("sympy")
    graphs = [figure1_graph(), figure4a_graph(), star(4), path(6), petersen_graph()]
    graphs.append(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]))
    for g in graphs:
        sg = subdivision(g)
        sb = bipartition(sg)
        gram, _ = _gram(sg, sb.c0, sb.c1)
        if len(set(g.degrees())) > 1:
            assert gram != [list(col) for col in zip(*gram)]
        expected = sympy.Matrix(gram).charpoly(sympy.Symbol("x")).all_coeffs()
        assert char_poly(gram).coeffs == tuple(int(c) for c in reversed(expected))


@pytest.mark.parametrize("n", range(14))
def test_char_poly_makes_half_the_products(monkeypatch, n):
    """ceil(n/2) - 1 matrix products for an n x n matrix, and no other."""
    products = []
    original = qwalk.exact._sparse_times_dense

    def counted(a, b):
        products.append(len(b))
        return original(a, b)

    def refuse(*_args):
        raise AssertionError("char_poly multiplied matrices outside its power chain")

    monkeypatch.setattr(qwalk.exact, "_sparse_times_dense", counted)
    monkeypatch.setattr(qwalk.exact, "_int_product", refuse)
    monkeypatch.setattr(qwalk.exact, "mat_mul", refuse)
    rng = random.Random(n)
    m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    coeffs = char_poly(m).coeffs
    monkeypatch.undo()
    assert coeffs == _faddeev_leverrier(m)
    assert products == [n] * max(0, -(-n // 2) - 1)


@pytest.mark.parametrize("n", range(13))
def test_graeffe_step_is_the_char_poly_of_the_square(n):
    """charpoly(B^2) from charpoly(B) on seeded integer matrices, non-symmetric
    and with negative entries, against char_poly of the product formed."""
    rng = random.Random(8200 + n)
    for density, bound in ((1.0, 9), (0.3, 10**6), (0.5, 1)):
        b = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        if n > 1 and density == 1.0:
            assert b != [list(col) for col in zip(*b)]
        square = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in b]
        assert graeffe_step(char_poly(b)) == char_poly(square)


def test_char_poly_raises_on_an_inexact_division():
    # -p_1 = -1/2 and -4/3 are not integers: the first division by k = 1
    with pytest.raises(ValueError, match="^coefficient of x\\^0 is not an integer"):
        char_poly([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="^coefficient of x\\^1 is not an integer"):
        char_poly([[1, 0], [0, Fraction(1, 3)]])


@pytest.mark.parametrize("n", [1, 2, 12, 36, 97, 360, 1024])
def test_signed_divisors_under_a_cap(n):
    every = [x for d in range(1, n + 1) if n % d == 0 for x in (d, -d)]
    for cap in (1, 2, 3, 11, 12, 35, 36, 100, n, 10 * n):
        assert _signed_divisors(n, -cap, cap) == [d for d in every if abs(d) <= cap], cap
        assert _signed_divisors(-n, -cap, cap) == _signed_divisors(n, -cap, cap)
        for lo in (-cap, 0, 1, cap // 2):
            assert _signed_divisors(n, lo, cap) == [d for d in every if lo <= d <= cap], (lo, cap)


def test_signed_divisors_of_a_semiprime():
    n = 9967 * 9973
    assert _signed_divisors(n, -9000, 9000) == [1, -1]
    assert _signed_divisors(n, -9970, 9970) == [1, -1, 9967, -9967]
    assert _signed_divisors(n, -n, n) == [1, -1, 9967, -9967, 9973, -9973, n, -n]
    assert _signed_divisors(n, 2, n) == [9967, 9973, n]


def test_root_search_cost_does_not_grow_with_the_constant_term():
    # the constant term of (x - 2)^50 is 2^50; divisors are tried only up
    # to the root bound, not up to sqrt(2^50) = 2^25
    p = IntPolynomial.from_coeffs([1])
    for _ in range(50):
        p = p.mul_linear_shift(2)
    start = time.process_time()
    assert roots_degree_le2(p, _window(p)) == [(QuadraticValue.rational(2), 50)]
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("seed", range(40))
def test_roots_agree_with_sympy_factorization(seed):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(seed)
    kinds = ["linear", "real quadratic", "complex quadratic", "irreducible cubic"]
    weights = [4, 3, 1, 1]
    p = IntPolynomial.from_coeffs([1])
    for _ in range(rng.randint(1, 4)):
        factor = _random_factor(rng, rng.choices(kinds, weights)[0])
        prod = [0] * (p.degree + len(factor))
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        p = IntPolynomial.from_coeffs(prod)

    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
    expected: dict[QuadraticValue, int] = {}
    in_scope = True
    for f, mult in factors:
        c = [int(v) for v in reversed(f.all_coeffs())]
        assert c[-1] == 1
        if len(c) == 2:
            expected[QuadraticValue.rational(-c[0])] = expected.get(QuadraticValue.rational(-c[0]), 0) + mult
        elif len(c) == 3 and c[1] ** 2 - 4 * c[0] > 0:
            disc = c[1] ** 2 - 4 * c[0]
            for sign in (1, -1):
                v = QuadraticValue.of(Fraction(-c[1], 2), Fraction(sign, 2), disc)
                expected[v] = expected.get(v, 0) + mult
        else:
            in_scope = False

    if in_scope:
        assert dict(roots_degree_le2(p, _window(p))) == expected
    else:
        with pytest.raises(HigherDegreeFactor):
            roots_degree_le2(p, _window(p))


# ---------------------------------------------------------------------------
# The residue-filtered quadratic search, against the exhaustive one
# ---------------------------------------------------------------------------


def _exhaustive_roots_degree_le2(p: IntPolynomial) -> list[tuple[QuadraticValue, int]]:
    """roots_degree_le2 before its residue filter: one polynomial division
    for every gamma | c0 and every beta in the Cauchy/Fujiwara window,
    kept as an oracle for the search order, the roots and the messages.
    A factor with complex roots is passed over, as the search passes over
    it, so it is left in the residual reported."""
    rem = p
    roots: dict[QuadraticValue, int] = {}

    def record(v: QuadraticValue) -> None:
        roots[v] = roots.get(v, 0) + 1

    def divisors(c0: int) -> list[int]:
        found = set()
        d = 1
        while d * d <= abs(c0):
            if c0 % d == 0:
                found.update({d, -d, abs(c0) // d, -(abs(c0) // d)})
            d += 1
        return sorted(found, key=abs)

    while rem.degree > 0 and rem.coeffs[0] == 0:
        rem = poly_divmod_monic(rem, IntPolynomial.from_coeffs([0, 1]))[0]
        record(QuadraticValue.rational(0))
    progress = True
    while rem.degree > 0 and progress:
        progress = False
        for r in divisors(rem.coeffs[0]):
            while rem.degree > 0 and rem(Fraction(r)) == 0:
                rem = poly_divmod_monic(rem, IntPolynomial.from_coeffs([-r, 1]))[0]
                record(QuadraticValue.rational(r))
                progress = True
    while rem.degree >= 2:
        found = False
        bound = _root_bound(rem)
        for gamma in (g for g in divisors(rem.coeffs[0]) if abs(g) <= bound * bound):
            for beta in range(-2 * bound, 2 * bound + 1):
                quo, r = poly_divmod_monic(rem, IntPolynomial.from_coeffs([gamma, beta, 1]))
                disc = beta * beta - 4 * gamma
                if r.is_zero and disc > 0:
                    s, f = square_free_part(disc)
                    if s == 1:
                        continue
                    record(QuadraticValue.of(Fraction(-beta, 2), Fraction(f, 2), s))
                    record(QuadraticValue.of(Fraction(-beta, 2), -Fraction(f, 2), s))
                    rem, found = quo, True
                    break
            if found:
                break
        if not found:
            raise HigherDegreeFactor(f"no degree<=2 factor of residual {rem.coeffs}")
    if rem.degree == 1:
        record(QuadraticValue.rational(-rem.coeffs[0]))
    return sorted(roots.items(), key=lambda kv: (kv[0].m, kv[0].a, kv[0].b))


def _outcome(search, p: IntPolynomial):
    try:
        return search(p)
    except HigherDegreeFactor as exc:
        return f"HigherDegreeFactor: {exc}"


def _product(factors: list[list[int]]) -> IntPolynomial:
    p = [1]
    for f in factors:
        p = _times(p, tuple(f))
    return IntPolynomial.from_coeffs(p)


def _irrational_quadratic(rng: random.Random, lo: int, hi: int) -> list[int]:
    """(x - m)^2 - k with m in +-[lo, hi] and k > 0 no square: roots m +- sqrt k."""
    while True:
        m, k = rng.choice([-1, 1]) * rng.randint(lo, hi), rng.randint(2, 12)
        if square_free_part(k)[0] != 1:
            return [m * m - k, -2 * m, 1]


def _seeded_factors(seed: int) -> list[list[int]]:
    """Monic factors, ascending coefficients: integer roots (the residue
    points +-1, +-2 among them), irrational and complex quadratics, wide
    quadratics with |beta| up to the root bound B (half the window
    |beta| <= 2B), repeated and reducible quadratics, and irreducible
    cubics."""
    rng = random.Random(seed)
    kinds = ["linear", "irrational", "wide", "repeated", "reducible", "complex", "cubic"]
    factors: list[list[int]] = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choices(kinds, [3, 3, 2, 1, 1, 1, 1])[0]
        if kind == "linear":
            factors.append([-rng.randint(-5, 5), 1])
        elif kind == "irrational":
            factors.append(_irrational_quadratic(rng, 0, 4))
        elif kind == "wide":
            # with its mirror f(-x) the roots sum to 0, which lowers the
            # Fujiwara bound toward the largest root
            f = _irrational_quadratic(rng, 6, 12)
            factors += [f, [f[0], -f[1], 1]] if rng.random() < 0.5 else [f]
        elif kind == "repeated":
            factors += [_irrational_quadratic(rng, 0, 5)] * rng.randint(2, 3)
        elif kind == "reducible":
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            factors.append([a * b, -a - b, 1])
        elif kind == "complex":
            b = rng.randint(-4, 4)
            factors.append([rng.randint(b * b // 4 + 1, b * b // 4 + 9), b, 1])
        else:
            factors.append([rng.choice([-3, -2, 2, 3, 5]), rng.randint(-3, 3), 0, 1])
    return factors


@pytest.mark.parametrize("block", range(8))
def test_filtered_search_agrees_with_exhaustive_search(block):
    """Same roots, multiplicities and messages on 240 seeded polynomials."""
    widest = 0.0
    for seed in range(30 * block, 30 * block + 30):
        p = _product(_seeded_factors(seed))
        got = _outcome(lambda p: roots_degree_le2(p, _window(p)), p)
        assert got == _outcome(_exhaustive_roots_degree_le2, p), seed
        for f in _seeded_factors(seed):
            if len(f) == 3:
                widest = max(widest, abs(f[1]) / (2 * _fujiwara_bound(p)))
    # every block has a factor with |beta| past 0.3 of the window 2B
    assert widest > 0.3


def _table_chi(g: Graph) -> IntPolynomial:
    """The char-poly the spectral table factors on a biregular bipartite g:
    that of C C^T on the smaller class, the integer Gram rows."""
    b = bipartition(g)
    return char_poly(_gram(g, *sorted((b.c0, b.c1), key=len))[0])


def _grover_chi(g: Graph) -> IntPolynomial:
    """The char-poly the table factors for the Grover walk on a d-regular
    g, chi(A): the Gram rows of S(g) on the original vertices are A + dI."""
    sg = subdivision(g)
    sb = bipartition(sg)
    gram, den = _gram(sg, sb.c0, sb.c1)
    return char_poly([[x - (den // 2) * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)])


def _cover_char_polys() -> list[IntPolynomial]:
    """The char-polys the spectral table factors on the double covers of
    the 17 non-bipartite cubic graphs on 10 vertices, on Heawood, and on
    Petersen's Grover walk."""
    data = json.loads((Path(__file__).parent.parent / "perfbench" / "cubic10.json").read_text())
    chis = [_table_chi(bipartite_double_cover(Graph.from_edges(10, e))) for e in data]
    return chis + [_table_chi(heawood_graph()), _grover_chi(petersen_graph())]


def _cover90_char_poly() -> IntPolynomial:
    """The Gram char-poly of the 90-edge double cover of networkx's
    random_regular_graph(3, 30, seed=0); it has no factor of degree <= 2
    past its integer roots."""
    nx = pytest.importorskip("networkx")
    h = nx.random_regular_graph(3, 30, seed=0)
    return _table_chi(bipartite_double_cover(Graph.from_edges(30, h.edges())))


def test_filtered_search_agrees_on_cover_char_polys():
    chis = _cover_char_polys()
    assert len(chis) == 19
    for chi in chis + [_cover90_char_poly()]:
        got = _outcome(lambda p: roots_degree_le2(p, _window(p)), chi)
        assert got == _outcome(_exhaustive_roots_degree_le2, chi)


# ---------------------------------------------------------------------------
# The search on a proven root interval, against the exhaustive one
# ---------------------------------------------------------------------------


def _roots_within(beta: int, gamma: int, lo: int, hi: int) -> bool:
    """Exactly: x^2 + beta x + gamma has two real roots (-beta +- sqrt D)/2,
    D = beta^2 - 4 gamma, both in [lo, hi]."""
    d, below, above = beta * beta - 4 * gamma, -beta - 2 * lo, 2 * hi + beta
    return d >= 0 and below >= 0 and above >= 0 and below * below >= d and above * above >= d


def _quadratic_within(rng: random.Random, lo: int, hi: int, near_an_end: bool) -> list[int]:
    """An irreducible x^2 + beta x + gamma with both roots in [lo, hi]; with
    near_an_end, one of them within 1 of lo or hi."""
    while True:
        beta = rng.randint(-2 * hi, -2 * lo)
        gamma = rng.randint(min(lo * lo, lo * hi, hi * hi), max(lo * lo, hi * hi))
        d = beta * beta - 4 * gamma
        if d <= 0 or square_free_part(d)[0] == 1 or not _roots_within(beta, gamma, lo, hi):
            continue
        low, high = (-beta - d**0.5) / 2, (-beta + d**0.5) / 2
        if not near_an_end or low < lo + 1 or high > hi - 1:
            return [gamma, beta, 1]


# real-rooted irreducible polynomials of degree > 2: Psi_7, Psi_9, Psi_16
# (roots 2cos(2 pi j/k) in (-2, 2)) and x^3 - 4x - 1 (roots in (-2, 3))
_WIDE_FACTORS = ((cyclotomic(7, True), 2, 2), (cyclotomic(9, True), 2, 2),
                 (cyclotomic(16, True), 2, 2), (IntPolynomial((-1, -4, 0, 1)), 2, 3))


def _interval_factors(seed: int) -> tuple[tuple[int, int], list[list[int]]]:
    """A seeded interval [lo, hi] and monic factors with every root real and
    in it: integer roots at lo, at hi and between, irrational quadratics
    near either end and inside, repeated quadratics, and a shifted
    irreducible polynomial of degree 3 or 4 from _WIDE_FACTORS."""
    rng = random.Random(seed)
    lo = rng.randint(-6, 2)
    hi = lo + rng.randint(5, 10)
    kinds = ["end", "integer", "near an end", "inside", "repeated", "wide"]
    factors: list[list[int]] = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choices(kinds, [2, 2, 3, 2, 1, 1])[0]
        if kind == "end":
            factors.append([-rng.choice((lo, hi)), 1])
        elif kind == "integer":
            factors.append([-rng.randint(lo, hi), 1])
        elif kind == "wide":
            psi, below, above = rng.choice(_WIDE_FACTORS)
            factors.append(list(rescaled_integral(psi, 1, rng.randint(lo + below, hi - above)).coeffs))
        else:
            f = _quadratic_within(rng, lo, hi, kind == "near an end")
            factors += [f] * (rng.randint(2, 3) if kind == "repeated" else 1)
    return (lo, hi), factors


def _interval_cases() -> list[tuple[IntPolynomial, tuple[int, int]]]:
    """The seeded real-rooted polynomials, then the table's char-polys on
    the 19 covers (roots in [0, 9], Petersen's Grover walk [-3, 3]) and on
    the 90-edge cover."""
    cases = []
    for seed in range(200):
        interval, factors = _interval_factors(seed)
        cases.append((_product(factors), interval))
    covers = _cover_char_polys()
    intervals = [(0, 9)] * (len(covers) - 1) + [(-3, 3)]
    return cases + list(zip(covers, intervals)) + [(_cover90_char_poly(), (0, 9))]


@pytest.mark.parametrize("block", range(4))
def test_interval_search_agrees_with_exhaustive_search(block):
    """Same roots, multiplicities and residuals in the proven interval as the
    exhaustive search without one, on 220 polynomials."""
    cases = _interval_cases()
    assert len(cases) == 220
    kinds = set()
    for p, interval in cases[block::4]:
        got = _outcome(lambda p: roots_degree_le2(p, interval), p)
        assert got == _outcome(_exhaustive_roots_degree_le2, p), (p, interval)
        kinds.add(type(got))
    assert kinds == {list, str}


def test_interval_search_divides_only_by_factors_inside_it(monkeypatch):
    """Every quadratic the search divides by has both roots in the interval."""
    divided = []
    divide = qwalk.exact._divmod_monic

    def checked(p, d):
        divided.append(d)
        return divide(p, d)

    monkeypatch.setattr(qwalk.exact, "_divmod_monic", checked)
    total = 0
    for p, (lo, hi) in _interval_cases():
        divided.clear()
        _outcome(lambda p: roots_degree_le2(p, (lo, hi)), p)
        for gamma, beta, one in divided:
            assert one == 1 and _roots_within(beta, gamma, lo, hi), (p, (lo, hi), (gamma, beta))
        total += len(divided)
    assert total > 100


def test_filtered_search_divides_rarely(monkeypatch):
    """The residue filter leaves few candidates to divide by on the 90-edge
    cover, against 32,451 divisions for the exhaustive search: 9 in the
    Cauchy/Fujiwara window, 1 in the proven interval [0, 9]."""
    chi = _cover90_char_poly()
    calls = 0
    divide = qwalk.exact._divmod_monic

    def counted(p, d):
        nonlocal calls
        calls += 1
        return divide(p, d)

    monkeypatch.setattr(qwalk.exact, "_divmod_monic", counted)
    with pytest.raises(HigherDegreeFactor, match="^no degree<=2 factor of residual"):
        roots_degree_le2(chi, _window(chi))
    assert 0 < calls <= 50
    window_calls, calls = calls, 0
    with pytest.raises(HigherDegreeFactor, match="^no degree<=2 factor of residual"):
        roots_degree_le2(chi, (0, 9))
    assert 0 < calls <= window_calls


def test_root_search_takes_one_divisor_list_per_stage(monkeypatch):
    """One list of divisors for the integer roots and one for the constant
    terms of the quadratic factors, however many factors are stripped, in
    the Cauchy/Fujiwara window or in the proven interval."""
    calls = 0
    divisors = qwalk.exact._signed_divisors

    def counted(n, lo, hi):
        nonlocal calls
        calls += 1
        return divisors(n, lo, hi)

    monkeypatch.setattr(qwalk.exact, "_signed_divisors", counted)
    for g in (
        bipartite_double_cover(figure7_graph()),
        cycle(20),
        subdivision(circulant(10, [1, 4, -1, -4])),
    ):
        chi, prof = _table_chi(g), degree_profile(g)
        for given in (_window(chi), (0, prof.d0 * prof.d1)):
            calls = 0
            roots_degree_le2(chi, given)
            assert calls <= 2, (g, given)


def _random_biregular(rng: random.Random, d0: int, d1: int, n0: int) -> Optional[Graph]:
    """A random connected simple (d0, d1)-biregular graph with n0 vertices of
    degree d0, by pairing stubs; None when the pairing is not one."""
    n1 = n0 * d0 // d1
    stubs = [n0 + x for x in range(n1) for _ in range(d1)]
    rng.shuffle(stubs)
    edges = {(v, stubs[v * d0 + i]) for v in range(n0) for i in range(d0)}
    if len(edges) < n0 * d0:
        return None
    g = Graph.from_edges(n0 + n1, edges)
    return g if g.is_connected() else None


def _proven_interval_cases() -> list[tuple[str, IntPolynomial, tuple[int, int]]]:
    """(label, chi, interval) as the spectral table factors them: chi(C C^T)
    with every root in [0, d0 d1] on seeded biregular graphs, and chi(A)
    with every root in [-d, d] on seeded d-regular ones (Grover)."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(4040)
    cases = []
    for d0, d1, n0 in ((2, 3, 6), (3, 2, 4), (2, 4, 8), (3, 3, 7), (4, 2, 4), (3, 4, 8), (4, 4, 5)):
        found = 0
        while found < 4:
            g = _random_biregular(rng, d0, d1, n0)
            if g is not None:
                found += 1
                cases.append((f"biregular-{d0}-{d1}-{found}", _table_chi(g), (0, d0 * d1)))
    for d, n in ((3, 8), (3, 10), (3, 12), (4, 9), (5, 10)):
        for seed in range(4):
            h = nx.random_regular_graph(d, n, seed=seed)
            g = Graph.from_edges(n, h.edges())
            if g.is_connected():
                cases.append((f"regular-{d}-{n}-{seed}", _grover_chi(g), (-d, d)))
                cases.append((f"cover-{d}-{n}-{seed}", _table_chi(bipartite_double_cover(g)), (0, d * d)))
    return cases


def test_proven_root_bound_keeps_the_search_complete():
    """The interval the spectral table passes, [0, d0 d1] for chi(C C^T) and
    [-d, d] for chi(A), holds every root, and gives the same roots,
    multiplicities and messages as the exhaustive search in the
    Cauchy/Fujiwara window; its larger end is below that window's bound on
    most inputs."""
    sympy = pytest.importorskip("sympy")
    cases = _proven_interval_cases()
    tighter = 0
    outcomes = set()
    for label, chi, (lo, hi) in cases:
        square_free = sympy.Poly(chi.coeffs[::-1], sympy.Symbol("x")).sqf_part()
        assert square_free.count_roots(lo, hi) == square_free.degree(), label
        with_interval = _outcome(lambda p: roots_degree_le2(p, (lo, hi)), chi)
        assert with_interval == _outcome(_exhaustive_roots_degree_le2, chi), label
        outcomes.add(type(with_interval))
        tighter += max(-lo, hi) < _root_bound(chi)
    assert outcomes == {list, str}  # both factored and HigherDegreeFactor cases
    assert tighter > len(cases) // 2


def test_the_table_passes_its_proven_root_bound(monkeypatch):
    intervals = []
    search = qwalk.periodicity.roots_degree_le2

    def recording(p, interval):
        intervals.append(interval)
        return search(p, interval)

    monkeypatch.setattr(qwalk.periodicity, "roots_degree_le2", recording)
    qwalk.periodicity._psi_roots.cache_clear()
    qwalk.periodicity._allowed_values.cache_clear()
    spectral_test_biregular(star(3))  # (3, 1)-biregular: roots in [0, 3]
    grover_regular_test(petersen_graph())  # 3-regular: roots in [-3, 3]
    # and, once, the Psi_k with phi(k) <= 4 for the table: roots in [-2, 2]
    assert intervals.count((-2, 2)) == len(_orders_of_totient_at_most(4))
    assert [i for i in intervals if i != (-2, 2)] == [(0, 3), (-3, 3)]


def test_integer_horner():
    p = IntPolynomial.from_coeffs([-6, 11, -6, 1])
    assert p(4) == 6 and type(p(4)) is int
    assert p(Fraction(1, 2)) == Fraction(-15, 8)


# ---------------------------------------------------------------------------
# Local minimal polynomials, against sympy
# ---------------------------------------------------------------------------


def _check_local_minimal_polynomial(sympy, u: RationalMatrix, j: int) -> int:
    """mu is monic, mu(u) e_j = 0 exactly, and e_j .. u^(k-1) e_j are
    independent (sympy rank k), which makes mu the least such polynomial.
    Returns the degree k."""
    mu = local_minimal_polynomial(u, j)
    k = len(mu) - 1
    assert mu[-1] == 1
    m = sympy.Matrix(u.rows, u.cols, lambda r, c: sympy.Rational(u.num[r][c], u.den))
    krylov = [sympy.Matrix(u.rows, 1, lambda r, _: int(r == j))]
    for _ in range(k):
        krylov.append(m * krylov[-1])
    residual = sympy.zeros(u.rows, 1)
    for c, v in zip(mu, krylov):
        residual += sympy.Rational(c.numerator, c.denominator) * v
    assert residual == sympy.zeros(u.rows, 1)
    assert sympy.Matrix.hstack(*krylov[:k]).rank() == k
    return k


@pytest.mark.parametrize("seed", range(30))
def test_local_minimal_polynomial_agrees_with_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    density = rng.choice([0.2, 0.5, 1.0])
    u = RationalMatrix(
        [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < density else 0
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )
    for j in range(n):
        _check_local_minimal_polynomial(sympy, u, j)


def test_local_minimal_polynomial_of_walks_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from qwalk.graphs import complete_bipartite, cycle, figure1_graph, petersen_graph
    from qwalk.walks import build_bipartite_walk, build_grover_walk

    for u in (
        build_bipartite_walk(figure1_graph()).U,
        build_bipartite_walk(cycle(8)).U,
        build_bipartite_walk(complete_bipartite(2, 3)).U,
        build_grover_walk(petersen_graph()).U,
    ):
        for j in range(0, u.rows, 3):
            _check_local_minimal_polynomial(sympy, u, j)


def test_local_minimal_polynomial_small_cases():
    assert local_minimal_polynomial(RationalMatrix.zeros(3, 3), 1) == (0, 1)
    assert local_minimal_polynomial(RationalMatrix.identity(3), 2) == (-1, 1)
    # e_0 -> e_1/2 -> e_0/4 under the swap scaled by 1/2: x^2 - 1/4
    half_swap = RationalMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert local_minimal_polynomial(half_swap, 0) == (Fraction(-1, 4), 0, 1)


@pytest.mark.parametrize("j", [-1, 3, 99])
def test_local_minimal_polynomial_index_out_of_range(j):
    with pytest.raises(ValueError):
        local_minimal_polynomial(RationalMatrix.identity(3), j)


def test_local_minimal_polynomial_non_square_rejected():
    with pytest.raises(DimensionError):
        local_minimal_polynomial(RationalMatrix([[1, 0]]), 0)


# ---------------------------------------------------------------------------
# Kronecker integrality and cyclotomic factors, against sympy
# ---------------------------------------------------------------------------


def sympy_cyclotomic_order(sympy, f, real: bool) -> Optional[int]:
    """The k with the monic integer polynomial f (a sympy Poly) equal to
    sympy's cyclotomic_poly(k), or with real=True to Psi_k: z^r f(z + 1/z)
    equal to cyclotomic_poly(k), r = deg f.  None when there is no such k."""
    z = sympy.Symbol("z")
    c = [int(v) for v in f.all_coeffs()]  # descending
    if real and c in ([1, -2], [1, 2]):
        return 1 if c[1] == -2 else 2
    if real:
        r = len(c) - 1
        h = sympy.Poly(sympy.expand(z**r * f.as_expr().subs(f.gen, z + 1 / z)), z)
    else:
        h = sympy.Poly(c, z)
    if not h.is_cyclotomic:
        return None
    for k in _orders_of_degree(h.degree()):
        if (k > 2 or not real) and h == sympy.Poly(sympy.cyclotomic_poly(k, z), z):
            return k
    raise AssertionError(f"sympy calls {h} cyclotomic, but it is no cyclotomic_poly(k)")


@lru_cache(maxsize=None)
def _orders_of_degree(n: int) -> tuple[int, ...]:
    """The k with phi(k) = n, phi from sympy's factorint; phi(k) >= sqrt(k / 2)."""
    from sympy import factorint

    def phi(k: int) -> int:
        return prod(p ** (e - 1) * (p - 1) for p, e in factorint(k).items())

    return tuple(k for k in range(1, 2 * n * n + 1) if phi(k) == n)


def _times(a: list[int], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_cyclotomic_split(sympy, p: IntPolynomial, real: bool):
    """cyclotomic_factors computed from sympy's factor_list."""
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
    orders, rest = {}, [1]
    for f, mult in factors:
        k = sympy_cyclotomic_order(sympy, f, real)
        if k is None:
            for _ in range(mult):
                rest = _times(rest, tuple(int(v) for v in reversed(f.all_coeffs())))
        else:
            orders[k] = orders.get(k, 0) + mult
    return orders, IntPolynomial.from_coeffs(rest)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for k in range(1, 61):
        assert cyclotomic(k).coeffs == tuple(
            int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs())
        ), k
        psi = sympy.Poly(list(reversed(cyclotomic(k, real=True).coeffs)), x)
        assert sympy_cyclotomic_order(sympy, psi, real=True) == k
        assert _totient(k) == sympy.totient(k)


def test_totient_bound_behind_the_search():
    # every k with phi(k) <= N has k <= max(6, N^2), the range
    # test_orders_of_totient_at_most searches: phi(k) >= sqrt(k) past 6
    assert all(_totient(k) ** 2 >= k for k in range(7, 20000))


@pytest.mark.parametrize("real", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("seed", range(10))
def test_cyclotomic_factors_agree_with_sympy(seed, real):
    """Seeded products of Phi_k (Psi_k) with k <= 60 and random
    multiplicities, then the same product with one coefficient perturbed."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    mults: dict[int, int] = {}
    p = [1]
    for _ in range(4):
        k, m = rng.randint(1, 60), rng.randint(1, 3)
        if len(p) - 1 + m * cyclotomic(k, real).degree <= 36:
            mults[k] = mults.get(k, 0) + m
            for _ in range(m):
                p = _times(p, cyclotomic(k, real).coeffs)
    product = IntPolynomial.from_coeffs(p)
    assert cyclotomic_factors(product, real) == (mults, IntPolynomial((1,)))
    assert _sympy_cyclotomic_split(sympy, product, real) == (mults, IntPolynomial((1,)))

    p[rng.randrange(len(p) - 1)] += rng.choice([-2, -1, 1, 2])
    perturbed = IntPolynomial.from_coeffs(p)
    assert cyclotomic_factors(perturbed, real) == _sympy_cyclotomic_split(sympy, perturbed, real)


def test_cyclotomic_factors_of_degree_60_agree_with_sympy():
    """A random monic degree-60 polynomial, alone and times Psi_7 Psi_9^2
    Psi_1: with real=True every k with phi(k) <= 120 is a candidate."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(60)
    p = [rng.randint(-5, 5) for _ in range(60)] + [1]
    for q in (
        IntPolynomial.from_coeffs(p),
        _product([p, *(list(cyclotomic(k, real=True).coeffs) for k in (7, 9, 9, 1))]),
    ):
        assert cyclotomic_factors(q, real=True) == _sympy_cyclotomic_split(sympy, q, real=True)


def test_orders_of_totient_at_most():
    for n in (0, 1, 2, 3, 12, 48, 120):
        expected = [(k, _totient(k)) for k in range(1, max(6, n * n) + 1) if _totient(k) <= n]
        assert list(_orders_of_totient_at_most(n)) == expected


@pytest.mark.parametrize("seed", range(20))
def test_rescaled_integral_agrees_with_sympy(seed):
    """charpoly(a N + b I) from charpoly(N), against sympy's charpoly."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    num = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    a = Fraction(rng.choice([1, 2, 4]), rng.choice([1, 2, 3, 6]))
    b = rng.choice([0, 0, -2, Fraction(1, 2)])
    y = sympy.Symbol("y")
    m = sympy.Matrix(num) * sympy.Rational(a.numerator, a.denominator)
    m += sympy.Rational(b.numerator, b.denominator) * sympy.eye(n)
    expected = [Fraction(int(c.p), int(c.q)) for c in reversed(m.charpoly(y).all_coeffs())]
    bad = [i for i, c in enumerate(expected) if c.denominator != 1]
    if bad:
        i = bad[-1]
        with pytest.raises(NonIntegralPolynomial, match=f"^coefficient {expected[i]} of y\\^{i} "):
            rescaled_integral(char_poly(num), a, b)
    else:
        assert rescaled_integral(char_poly(num), a, b).coeffs == tuple(expected)


def test_rescaled_integral_of_numerators():
    # U = N / den: charpoly(U) is integral iff den^i divides the coefficient
    # of x^(n-i) in charpoly(N); [[0, 1], [1, 0]] / 2 has -1/4 at x^0
    with pytest.raises(NonIntegralPolynomial, match="coefficient -1/4 of y\\^0"):
        rescaled_integral(char_poly([[0, 1], [1, 0]]), Fraction(1, 2))
    assert rescaled_integral(char_poly([[0, 2], [2, 0]]), Fraction(1, 2)).coeffs == (-1, 0, 1)
    with pytest.raises(ValueError):
        rescaled_integral(IntPolynomial.from_coeffs([1, 2]), 1)


def _rescaled_integral_fractions(
    p: IntPolynomial, a: Fraction, b: Fraction = Fraction(0)
) -> IntPolynomial:
    """rescaled_integral on Fractions, an oracle for the integer version:
    coefficient i scales by a^(n-i), then a Taylor shift gives p(y - b)."""
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    a, b, n = Fraction(a), Fraction(b), p.degree
    c = [ci * a ** (n - i) for i, ci in enumerate(p.coeffs)]
    for i in range(n) if b else ():
        for j in range(n - 1, i - 1, -1):
            c[j] -= b * c[j + 1]
    for i in range(n - 1, -1, -1):
        if c[i].denominator != 1:
            raise NonIntegralPolynomial(f"coefficient {c[i]} of y^{i} is not an integer")
    return IntPolynomial(tuple(map(int, c)))


def _rescaling(f, *args):
    try:
        return f(*args).coeffs
    except NonIntegralPolynomial as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(40))
def test_rescaled_integral_agrees_with_fractions(seed):
    """Twenty seeded cases per seed: random monic p with random a and b,
    and charpoly(s N) with a = t/s, which is integral for an integer b.
    The result, or the exact NonIntegralPolynomial message, must match."""
    rng = random.Random(9300 + seed)
    outcomes = []
    for case in range(20):
        n = rng.randint(0, 9)
        if case % 2:
            p = IntPolynomial(tuple(rng.randint(-60, 60) for _ in range(n)) + (1,))
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 12))
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        else:
            s = rng.randint(1, 6)
            p = char_poly([[s * rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            a = Fraction(rng.choice([-2, -1, 1, 3]), s)
            b = Fraction(rng.randint(-6, 6), rng.choice([1, 1, s]))
        outcomes.append(_rescaling(rescaled_integral, p, a, b))
        assert outcomes[-1] == _rescaling(_rescaled_integral_fractions, p, a, b)
    assert any(isinstance(o, str) for o in outcomes) and any(isinstance(o, tuple) for o in outcomes)
    for f in (rescaled_integral, _rescaled_integral_fractions):
        with pytest.raises(ValueError, match="^polynomial must be monic$"):
            f(IntPolynomial.from_coeffs([1, 2]), Fraction(1, 2))
