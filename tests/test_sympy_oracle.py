"""The exact engines against sympy, an oracle from outside the package.

Seeds and sizes are fixed.  sympy comes with the test extra of
pyproject.toml and is imported directly, so without it these tests fail to
collect instead of being skipped.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from sympy import Matrix, Poly, Rational, ZZ, cyclotomic_poly, invert, symbols
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
from sympy.polys.matrices import DomainMatrix

from bsfloer import rings as R
from bsfloer.homology import torsion_order

x = symbols("x")


def coefficients(expr, length):
    """The coefficients of a polynomial in x over Q, constant first, as
    Fractions padded with zeros to length."""
    cs = [Fraction(int(c.p), int(c.q)) for c in Poly(expr, x).all_coeffs()]
    cs = cs[::-1]
    assert len(cs) <= length or not any(cs[length:])
    return (cs + [Fraction(0)] * length)[:length]


def polynomial(cs):
    """sum cs[k] * x^k, with Fraction coefficients made exact Rationals."""
    return sum(Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(map(Fraction, cs)))


def test_smith_diagonal_against_invariant_factors():
    rnd = random.Random(0)
    answered = 0
    for _ in range(300):
        rows, cols = rnd.randint(1, 6), rnd.randint(1, 7)
        entries = [[rnd.randint(-4, 4) for _ in range(cols)]
                   for _ in range(rows)]
        want = [int(d) for d in invariant_factors(Matrix(entries), domain=ZZ)]
        try:
            got = R.snf_diagonal(entries)
        except ValueError as e:
            # a draw whose entries grow past the budget is refused, not
            # answered wrongly
            assert str(e).startswith("Smith normal form over the budget")
            continue
        answered += 1
        assert got == want, entries
    assert answered >= 290


def test_rank_and_torsion_order_against_hermite_form():
    # sympy's column Hermite form W spans the column lattice and drops zero
    # columns: its column count is the rank, and when that is the row count
    # W is a square triangle whose diagonal gives the cokernel order; every
    # draw's torsion_order finishes under MAX_SNF_BITS (integer_rank takes
    # no Smith normal form and has no such budget)
    rnd = random.Random(2)
    kinds = set()
    for _ in range(400):
        rows, cols = rnd.randint(1, 5), rnd.randint(1, 6)
        entries = [[rnd.randint(-4, 4) for _ in range(cols)]
                   for _ in range(rows)]
        W = hermite_normal_form(Matrix(entries))
        order = (prod(abs(int(W[i, i])) for i in range(rows))
                 if W.cols == rows else 0)
        assert R.integer_rank(entries) == W.cols, entries
        assert torsion_order(entries) == order, entries
        kinds.add(min(order, 2))
    assert kinds == {0, 1, 2}   # infinite, trivial and finite nontrivial


def test_one_elimination_against_rank_and_det():
    # integer_rank against sympy's rank and integer_det against det_exact
    # on draws up to 8 x 10, empty shapes included, some of which the Smith
    # normal form refuses at MAX_SNF_BITS
    rnd = random.Random(3)
    refused = 0
    for _ in range(2000):
        rows, cols = rnd.randint(0, 8), rnd.randint(0, 10)
        entries = [[rnd.randint(-4, 4) for _ in range(cols)]
                   for _ in range(rows)]
        want = Matrix(rows, cols, sum(entries, [])).rank()
        assert R.integer_rank(entries) == want, entries
        if rows == cols:
            want = R.det_exact(R.ZZ, entries)
            assert R.integer_det([list(row) for row in entries]) == want, entries
        try:
            R.snf_diagonal(entries)
        except ValueError:
            refused += 1
    assert refused > 0


def test_integer_det_against_domain_matrix():
    rnd = random.Random(1)
    for _ in range(200):
        n = rnd.randint(1, 12)
        density = rnd.choice((0.3, 0.6, 1.0))
        entries = [[rnd.randint(-4, 4) if rnd.random() < density else 0
                    for _ in range(n)] for _ in range(n)]
        want = DomainMatrix.from_list(entries, ZZ).det()
        assert R.integer_det([list(row) for row in entries]) == want, entries


def test_integer_det_dense_to_24_against_domain_matrix():
    # full squares; the first pivot is at times zero (a swap) and at times
    # the last row repeats the first (a singular square)
    rnd = random.Random(24)
    for n in range(1, 25):
        for _ in range(3):
            entries = [[rnd.randint(-9, 9) for _ in range(n)]
                       for _ in range(n)]
            if rnd.random() < 0.3:
                entries[0][0] = 0
            if n > 1 and rnd.random() < 0.2:
                entries[-1] = list(entries[0])
            want = DomainMatrix.from_list(entries, ZZ).det()
            got = R.integer_det([list(row) for row in entries])
            assert got == want, entries


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 12])
def test_cyclotomic_inverse_against_invert(d):
    F = R.CycloField(d)
    phi = cyclotomic_poly(d, x)
    rnd = random.Random(d)
    for _ in range(20):
        a = tuple(rnd.choice((0, 0, 1, -1, 2, -3, Fraction(1, 2),
                              Fraction(-2, 3))) for _ in range(F.degree))
        if F.is_zero(a):
            continue
        want = coefficients(invert(polynomial(a), phi, x), F.degree)
        assert list(F.inv(a)) == want, a


@pytest.mark.parametrize("free_rank,order", [
    (0, 1), (0, 2), (0, 6), (1, 4), (2, 3), (1, 12)])
def test_qh_components_against_cyclotomic_remainders(free_rank, order):
    G = R.GroupDescriptor(free_rank, order)
    qh = R.QHRing(G)
    rnd = random.Random(10 * free_rank + order)
    for _ in range(20):
        zh: dict = {}
        for _ in range(rnd.randint(0, 6)):
            g = (*(rnd.randint(-1, 1) for _ in range(free_rank)),
                 rnd.randrange(order))
            zh[g] = zh.get(g, 0) + rnd.choice((-2, -1, 1, 3))
        zh = {g: c for g, c in zh.items() if c}
        got = qh.from_zh(zh)
        for d, comp, part in zip(qh.divisors, qh.components, got):
            phi = cyclotomic_poly(d, x)
            degree = comp.coeff.degree
            want = {}
            for f in {(*g[:-1], 0) for g in zh}:
                poly = sum(c * x ** g[-1] for g, c in zh.items()
                           if (*g[:-1], 0) == f)
                rest = coefficients(Poly(poly, x).rem(Poly(phi, x)).as_expr(),
                                    degree)
                if any(rest):
                    want[f] = rest
            assert {f: list(v) for f, v in part.items()} == want, (d, zh)


# Z[H], H = Z^r x Z/m with r <= 2, as a quotient of ZZ[t1, t2, s]: a row
# is multiplied by the monomial in t1, t2 that makes its free exponents
# nonnegative, and the determinant is divided by their product; then s^k
# becomes s^(k mod m).  The torsion exponents of the entries are already
# in range(m).

LAURENT_GROUPS = [(r, m) for r in range(3) for m in (1, 2, 3, 4, 6)]
POLYS = ZZ[symbols("t1 t2 s")]


def zh_element(rnd, r, m):
    """0 to 2 terms with free exponents -2..2."""
    out = {}
    for _ in range(rnd.randint(0, 2)):
        g = (*(rnd.randint(-2, 2) for _ in range(r)), rnd.randrange(m))
        out[g] = out.get(g, 0) + rnd.choice((-2, -1, 1, 3))
    return {g: c for g, c in out.items() if c}


def sympy_det(square, r, m):
    """det of a square matrix of Z[H] elements by DomainMatrix over
    ZZ[t1, t2, s], as a Z[H] element."""
    n = len(square)
    shifts = [[min((g[i] for e in row for g in e), default=0)
               for i in range(r)] for row in square]

    def poly(e, shift):
        pad = (0,) * (2 - r)
        return POLYS.ring({(*(g[i] - shift[i] for i in range(r)), *pad,
                            g[-1]): c for g, c in e.items()})

    det = DomainMatrix([[poly(e, shift) for e in row]
                        for row, shift in zip(square, shifts)],
                       (n, n), POLYS).det()
    total = [sum(shift[i] for shift in shifts) for i in range(r)]
    out: dict = {}
    for mono, c in det.to_dict().items():
        g = (*(mono[i] + total[i] for i in range(r)), mono[2] % m)
        out[g] = out.get(g, 0) + int(c)
    return {g: c for g, c in out.items() if c}


@pytest.mark.parametrize("r,m", LAURENT_GROUPS)
def test_det_exact_over_zh_against_domain_matrix(r, m):
    ring = R.group_ring(r, m)
    rnd = random.Random(100 * r + m)
    for _ in range(4):
        n = rnd.randint(1, 5)
        square = [[zh_element(rnd, r, m) for _ in range(n)]
                  for _ in range(n)]
        want = sympy_det(square, r, m)
        assert ring.eq(R.det_exact(ring, square), want), square


@pytest.mark.parametrize("r,m", LAURENT_GROUPS)
def test_state_sums_over_zh_against_minors(r, m):
    """state_sums on k rows and n >= k columns gives, for each k-set of
    columns holding the required ones, the minor on those columns;
    entries that are zero elements are at times kept as present."""
    ring = R.group_ring(r, m)
    rnd = random.Random(1000 + 100 * r + m)
    for _ in range(3):
        n = rnd.randint(1, 5)
        k = rnd.randint(1, n)
        dense = [[zh_element(rnd, r, m) for _ in range(n)] for _ in range(k)]
        rows = [{q: e for q, e in enumerate(row) if e or rnd.random() < 0.3}
                for row in dense]
        required = sum(1 << q for q in range(n) if rnd.random() < 0.3)
        got = R.state_sums(ring, rows, required)
        masks = [sum(1 << q for q in cols)
                 for cols in combinations(range(n), k)]
        masks = [mask for mask in masks if mask & required == required]
        assert set(got) <= set(masks)
        for mask in masks:
            cols = [q for q in range(n) if mask >> q & 1]
            want = sympy_det([[row[q] for q in cols] for row in dense], r, m)
            assert ring.eq(got.get(mask, {}), want), (dense, rows, mask)
