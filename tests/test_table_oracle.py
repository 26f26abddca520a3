"""The spectral table against its earlier design, kept here as the oracle.

The root search and `_classify` below are the earlier code, verbatim but
for the window bound, which is test_exact's copy: the search works on
IntPolynomial objects in the symmetric window |z| <= B, B the smallest of
the Cauchy and Fujiwara bounds and the proven `bound`, records
QuadraticValue roots inside its loops, and `_classify` looks up
value + shift in the unshifted table.  `periodicity._classify`, which
searches the proven interval on integer keys, must give the same
SpectralVerdict, and the same string for every value, on every scan class
with at most 12 edges, on the 19 covers of the benchmark, on seeded
biregular graphs and double covers of seeded regular graphs, and on the
Grover walks of seeded regular graphs, whose table is shifted.  The table
itself, from the roots of the Psi_k that `periodicity._psi_roots` searches
in [-2, 2], must be the one the window search gives.

`_classify_by_hash` is the later `periodicity._classify` that checked
conjugate multiplicities through a dict of the roots; the current one
checks them on the sorted root list, run by run of equal (m, a), and must
give the same SpectralVerdict on all of these, and on roots that share
(m, a) or break a conjugate pair.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from qwalk import exact, periodicity
from qwalk.exact import (
    HigherDegreeFactor,
    IntPolynomial,
    QuadraticValue,
    _orders_of_totient_at_most,
    cyclotomic,
    poly_divmod_monic,
    square_free_part,
)
from qwalk.graphs import (
    Graph,
    bipartite_double_cover,
    circulant,
    complete_bipartite,
    cycle,
    degree_profile,
    heawood_graph,
    is_bipartite,
    petersen_graph,
)
from qwalk.periodicity import (
    EigenvalueClassification,
    SpectralVerdict,
    _allowed_values,
    _chi,
)
from qwalk.scan import enumerate_biregular
from test_exact import _product, _random_biregular, _root_bound

# ---------------------------------------------------------------------------
# The oracle: the earlier search and _classify, verbatim
# ---------------------------------------------------------------------------


def _signed_divisors(n: int, cap: int) -> list[int]:
    """The divisors d of n != 0 with |d| <= cap, of both signs, by absolute
    value, d before -d.  Trial division runs to min(cap, sqrt|n|): past
    sqrt|n| only the cofactors n/d of smaller divisors are left."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d <= cap and d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n and n // d <= cap:
                large.append(n // d)
        d += 1
    return [x for d in small + large[::-1] for x in (d, -d)]


def _strip_quadratics(rem: IntPolynomial, bound: Optional[int], roots: Counter) -> IntPolynomial:
    """roots_degree_le2's last stage, on a residual of degree >= 2: count the
    roots of its irreducible monic quadratic factors in roots, and return
    the residual, of degree < 2, or raise HigherDegreeFactor."""
    # the candidates are x^2 + beta*x + gamma; every root has |z| <= B, so a
    # factor's coefficients have |beta| <= 2B, |gamma| <= B^2
    big_b = _root_bound(rem, bound)
    # Kronecker's evaluation test: f | rem in Z[x] makes f(t) divide
    # rem(t) for every integer t, and rem(t) != 0 as no integer root is
    # left, so f(t) != 0 too; four remainders reject almost every
    # candidate f before the division that decides it
    r1, r_1, r2, r_2 = rem(1), rem(-1), rem(2), rem(-2)
    for gamma in _signed_divisors(rem.coeffs[0], big_b * big_b):
        g1, g2 = 1 + gamma, 4 + gamma  # f(+-1) = g1 +- beta, f(+-2) = g2 +- 2 beta
        for beta in range(-2 * big_b, 2 * big_b + 1):
            f1, f_1, f2, f_2 = g1 + beta, g1 - beta, g2 + 2 * beta, g2 - 2 * beta
            while f1 and f_1 and f2 and f_2 and not (r1 % f1 or r_1 % f_1 or r2 % f2 or r_2 % f_2):
                quo, r = poly_divmod_monic(rem, IntPolynomial.from_coeffs([gamma, beta, 1]))
                if not r.is_zero:
                    break
                disc = beta * beta - 4 * gamma
                if disc <= 0:
                    # disc == 0 impossible here (double rational root was
                    # stripped); disc < 0 means complex roots
                    raise HigherDegreeFactor(f"non-real quadratic factor x^2+{beta}x+{gamma}")
                s, f = square_free_part(disc)
                if s == 1:
                    # reducible; its rational roots were already stripped
                    break
                roots[QuadraticValue.of(Fraction(-beta, 2), Fraction(f, 2), s)] += 1
                roots[QuadraticValue.of(Fraction(-beta, 2), -Fraction(f, 2), s)] += 1
                rem = quo
                if rem.degree < 2:
                    return rem
                r1, r_1, r2, r_2 = rem(1), rem(-1), rem(2), rem(-2)
    raise HigherDegreeFactor(f"no degree<=2 factor of residual {rem.coeffs}")


def roots_degree_le2(
    p: IntPolynomial, bound: Optional[int] = None
) -> list[tuple[QuadraticValue, int]]:
    """Factor a monic integer polynomial into roots of algebraic degree <= 2.

    Returns (root, multiplicity) pairs. Rational roots of a monic integer
    polynomial are integers; irreducible monic quadratic factors have
    integer coefficients (Gauss), so an integer search is complete.
    Raises HigherDegreeFactor when a residual admits no such factor.
    The search runs within the Cauchy and Fujiwara bounds on the roots,
    and within `bound` when the caller knows every root's absolute value
    is at most it; the search stays complete only if that is proven.
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    roots: Counter[QuadraticValue] = Counter()
    # strip x^k: slice off the k low zero coefficients
    k = next(i for i, c in enumerate(p.coeffs) if c)
    rem = IntPolynomial(p.coeffs[k:])
    if k:
        roots[QuadraticValue.rational(0)] = k

    # Each stage makes one ordered pass over its candidates, taken from what
    # the stage before left, and strips each as often as it divides: a later
    # residual divides that one, so its factors are all among them.

    # strip integer roots: rational roots of a monic integer polynomial
    # divide its constant term, which is nonzero once the powers of x are
    # stripped, and lie within the root bound
    if rem.degree > 0:
        for r in _signed_divisors(rem.coeffs[0], _root_bound(rem, bound)):
            while rem.degree > 0 and rem(r) == 0:
                rem = poly_divmod_monic(rem, IntPolynomial.from_coeffs([-r, 1]))[0]
                roots[QuadraticValue.rational(r)] += 1

    if rem.degree >= 2:
        rem = _strip_quadratics(rem, bound, roots)

    if rem.degree == 1:
        # monic linear remainder: root is an integer, but it escaped the
        # search only if logic above is wrong
        roots[QuadraticValue.rational(-rem.coeffs[0])] += 1

    return sorted(roots.items(), key=lambda kv: (kv[0].m, kv[0].a, kv[0].b))


def _classify(chi: IntPolynomial, d0: int, d1: int, shift: int = 0) -> SpectralVerdict:
    """Verdict on a (d0, d1)-biregular graph whose squared adjacency
    eigenvalues are value + shift for the roots of chi."""
    try:
        # the squared eigenvalues, value + shift, lie in [0, d0 d1]
        roots = roots_degree_le2(chi, max(shift, d0 * d1 - shift))
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", d0, d1, reason=str(exc))
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
                reason="conjugate pair multiplicities differ",
            )
    status = "periodic" if all(c.allowed for c in classifications) else "non-periodic"
    return SpectralVerdict(status, d0, d1, tuple(classifications))


def _classify_by_hash(chi: IntPolynomial, d0: int, d1: int, shift: int = 0) -> SpectralVerdict:
    """The earlier periodicity._classify, verbatim but for reading the root
    search off the periodicity module, so that a patched search reaches it."""
    try:
        roots = periodicity.roots_degree_le2(chi, (-shift, d0 * d1 - shift))
    except HigherDegreeFactor as exc:
        return SpectralVerdict("inconclusive", d0, d1, reason=str(exc))
    table = _allowed_values(d0 * d1, shift)
    classifications = []
    for value, mult in roots:
        order = table.get(value)
        classifications.append(EigenvalueClassification(value, mult, order is not None, order))
    # conjugate roots are produced pairwise by the factorizer; verify anyway
    by_value = dict(roots)
    if any(by_value.get(v._replace(b=-v.b)) != mult for v, mult in roots):
        return SpectralVerdict(
            "non-periodic", d0, d1, tuple(classifications),
            reason="conjugate pair multiplicities differ",
        )
    status = "periodic" if all(c.allowed for c in classifications) else "non-periodic"
    return SpectralVerdict(status, d0, d1, tuple(classifications))


# ---------------------------------------------------------------------------
# The inputs: (label, chi, d0, d1, shift) as decide_periodicity classifies them
# ---------------------------------------------------------------------------


def _table_input(label: str, g: Graph, kind: str) -> tuple[str, IntPolynomial, int, int, int]:
    h, _, chi, _, shift = _chi(g, kind)
    prof = degree_profile(h)
    assert prof.is_biregular, label
    return label, chi, prof.d0, prof.d1, shift


def _scan_inputs() -> list[tuple]:
    return [_table_input(f"scan-{i}", g, "bipartite") for i, g in enumerate(enumerate_biregular(12))]


def _cover_inputs() -> list[tuple]:
    data = json.loads((Path(__file__).parent.parent / "perfbench" / "cubic10.json").read_text())
    covers = [(f"cover-{i}", bipartite_double_cover(Graph.from_edges(10, e)), "bipartite")
              for i, e in enumerate(data)]
    covers += [("heawood", heawood_graph(), "bipartite"), ("petersen", petersen_graph(), "grover")]
    return [_table_input(*c) for c in covers]


def _biregular_inputs() -> list[tuple]:
    rng = random.Random(2828)
    inputs = []
    for d0, d1, n0 in ((2, 3, 6), (3, 2, 4), (2, 4, 8), (3, 3, 7), (4, 2, 6), (3, 4, 8), (4, 4, 6), (2, 5, 10)):
        found = 0
        while found < 5:
            g = _random_biregular(rng, d0, d1, n0)
            if g is not None:
                found += 1
                inputs.append(_table_input(f"biregular-{d0}-{d1}-{found}", g, "bipartite"))
    return inputs


def _grover_inputs() -> list[tuple]:
    nx = pytest.importorskip("networkx")
    inputs = [
        _table_input(label, g, "grover")
        for label, g in (("c5", cycle(5)), ("c8", cycle(8)), ("k4", circulant(4, [1, 2, -1])),
                         ("k33", complete_bipartite(3, 3)), ("cube", bipartite_double_cover(circulant(4, [1, 2, -1]))))
    ]
    for d, n in ((2, 9), (3, 8), (3, 10), (3, 14), (4, 9), (4, 10), (5, 10), (6, 11)):
        for seed in range(5):
            g = Graph.from_edges(n, nx.random_regular_graph(d, n, seed=seed).edges())
            if g.is_connected():
                inputs.append(_table_input(f"grover-{d}-{n}-{seed}", g, "grover"))
    return inputs


def _seeded_cover_inputs() -> list[tuple]:
    """Double covers of seeded random regular graphs; a bipartite draw, whose
    cover is disconnected, is skipped."""
    nx = pytest.importorskip("networkx")
    inputs = []
    for d, n in ((2, 7), (3, 8), (3, 10), (3, 12), (4, 7), (4, 9), (5, 8)):
        for seed in range(5):
            g = Graph.from_edges(n, nx.random_regular_graph(d, n, seed=seed).edges())
            if g.is_connected() and not is_bipartite(g):
                inputs.append(_table_input(f"cover-{d}-{n}-{seed}", bipartite_double_cover(g), "bipartite"))
    return inputs


def _same_verdicts(inputs: list[tuple]) -> Counter:
    statuses: Counter = Counter()
    for label, chi, d0, d1, shift in inputs:
        want = _classify(chi, d0, d1, shift)
        got = periodicity._classify(chi, d0, d1, shift)
        assert got == want, label
        assert got == _classify_by_hash(chi, d0, d1, shift), label
        assert [str(c.value) for c in got.classifications] == [
            str(c.value) for c in want.classifications
        ], label
        statuses[got.status] += 1
    return statuses


def test_the_table_agrees_with_its_oracle_on_every_scan_class():
    inputs = _scan_inputs()
    assert len(inputs) == 27
    statuses = _same_verdicts(inputs)
    assert statuses["periodic"] and statuses["non-periodic"], statuses


def test_the_table_agrees_with_its_oracle_on_the_covers():
    inputs = _cover_inputs()
    assert len(inputs) == 19
    statuses = _same_verdicts(inputs)
    assert statuses["inconclusive"] and statuses["non-periodic"], statuses


def test_the_table_agrees_with_its_oracle_on_seeded_biregular_graphs():
    statuses = _same_verdicts(_biregular_inputs())
    assert statuses["inconclusive"] and statuses["non-periodic"], statuses


def test_the_table_agrees_with_its_oracle_on_seeded_double_covers():
    inputs = _seeded_cover_inputs()
    assert len(inputs) >= 20
    statuses = _same_verdicts(inputs)
    assert statuses["inconclusive"] and statuses["non-periodic"], statuses


def test_the_table_agrees_with_its_oracle_on_shifted_grover_tables():
    inputs = _grover_inputs()
    assert inputs and all(shift > 0 for *_, shift in inputs)
    statuses = _same_verdicts(inputs)
    assert statuses["periodic"] and statuses["non-periodic"], statuses


def test_the_allowed_values_agree_with_the_window_search():
    """_psi_roots searches each Psi_k in [-2, 2]; the earlier search, in
    its Cauchy/Fujiwara window, finds the same 13 roots, and so the same
    table x = d0 d1 (y + 2)/4 for every d0, d1 <= 12."""
    psi = tuple(
        (y, k)
        for k, _ in _orders_of_totient_at_most(4)
        for y, _ in roots_degree_le2(cyclotomic(k, real=True))
    )
    assert len(psi) == 13
    assert periodicity._psi_roots() == psi
    for d0 in range(1, 13):
        for d1 in range(1, 13):
            s = Fraction(d0 * d1, 4)
            want = [((y + QuadraticValue.rational(2)).scale(s), k) for y, k in psi]
            got = periodicity.allowed_value_table(d0, d1)
            assert got == want, (d0, d1)
            assert [str(v) for v, _ in got] == [str(v) for v, _ in want], (d0, d1)


# ---------------------------------------------------------------------------
# The conjugate check on roots that share (m, a) or break a pair
# ---------------------------------------------------------------------------


def _quadratic(m: int, a: int, b: int) -> QuadraticValue:
    return QuadraticValue(Fraction(a), Fraction(b), m)


# (x^2 - 6x + 7)^2 (x^2 - 6x + 1) (x - 2): the conjugate pairs 3 +- sqrt(2),
# twice, and 3 +- 2 sqrt(2) share (m, a) = (2, 3)
SHARED_RUN = _product([[7, -6, 1], [7, -6, 1], [1, -6, 1], [-2, 1]])


def test_two_conjugate_pairs_in_one_run():
    got = periodicity._classify(SHARED_RUN, 2, 3)
    assert got == _classify_by_hash(SHARED_RUN, 2, 3) == _classify(SHARED_RUN, 2, 3)
    assert got.reason is None and got.status == "non-periodic"
    assert [(c.value, c.multiplicity) for c in got.classifications] == [
        (_quadratic(1, 2, 0), 1),
        (_quadratic(2, 3, -2), 1),
        (_quadratic(2, 3, -1), 2),
        (_quadratic(2, 3, 1), 2),
        (_quadratic(2, 3, 2), 1),
    ]


@pytest.mark.parametrize(
    "patch",
    [
        pytest.param(lambda roots: roots[:-1], id="root-dropped"),
        pytest.param(lambda roots: [(v, 1 + (v.b < 0)) for v, _ in roots], id="multiplicities-crossed"),
        pytest.param(lambda roots: roots + [(_quadratic(3, 1, 1), 1)], id="lone-root-appended"),
    ],
)
def test_an_unpaired_root_still_breaks_the_pair(monkeypatch, patch):
    """A root search patched to break a conjugate pair, the roots still
    ordered by (m, a, b)."""
    search = exact.roots_degree_le2
    monkeypatch.setattr(periodicity, "roots_degree_le2", lambda *args: patch(search(*args)))
    got = periodicity._classify(SHARED_RUN, 2, 3)
    assert got.reason == "conjugate pair multiplicities differ"
    assert got.status == "non-periodic"
    assert got == _classify_by_hash(SHARED_RUN, 2, 3)
