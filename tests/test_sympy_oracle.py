"""The exact engines against sympy, an oracle from outside the package.

Seeds and sizes are fixed.  sympy comes with the test extra of
pyproject.toml and is imported directly, so without it these tests fail to
collect instead of being skipped.
"""

import random
from fractions import Fraction

import pytest
from sympy import Matrix, Poly, Rational, ZZ, cyclotomic_poly, invert, symbols
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from bsfloer import rings as R

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


def test_integer_det_against_domain_matrix():
    rnd = random.Random(1)
    for _ in range(200):
        n = rnd.randint(1, 12)
        density = rnd.choice((0.3, 0.6, 1.0))
        entries = [[rnd.randint(-4, 4) if rnd.random() < density else 0
                    for _ in range(n)] for _ in range(n)]
        want = DomainMatrix.from_list(entries, ZZ).det()
        rows = [{j: e for j, e in enumerate(row) if e} for row in entries]
        assert R.integer_det(rows) == want, entries


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
