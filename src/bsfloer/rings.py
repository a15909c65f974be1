"""Exact coefficient arithmetic.

Every ring used anywhere in the package lives here: the integers, integral
group rings of finitely generated abelian groups H = Z^r x Z/m (Laurent
polynomials in t1..tr with an order-m generator s), cyclotomic fields
Q(zeta_d), Laurent rings over those fields, and the full rational group
algebra of H presented componentwise by characters of the torsion part.
group_ring and qh_ring hand out one shared ring object per group, and
cyclo_field one field per d, from lru_cache memos.  The rings offer no
division: units are only read off (unit_part) and inverted (unit_inv) for
the up-to-unit comparison.  Also: the one sparse accumulate step (add a
term to a dict, drop the key when the sum is zero), one polynomial kernel
over Z and Q, limits on H, one reader of group-ring text (_monomial), the
invariant factors and the column transform V of a Smith normal form over Z
under MAX_SNF_BITS (no row transform), one fraction-free elimination
(_bareiss: its pivot columns, signed last pivot and echelon, which
integer_rank, integer_det and homology.k_element read), exact determinants
through det (over Z integer_det; over any other ring det_exact, one state
sum over occupied column sets under MAX_STATES, split into the blocks of
row_blocks), and the one "equal up to a unit" comparison.

Every element is stored as one canonical value, so == is ring equality
and no ring defines its own: an int over Z; over a GroupRing a dict keyed
by canonical weights with no zero coefficient; over a CycloField a tuple of
length phi(d) reduced mod Phi_d; over a QHRing a tuple of component dicts.

No floating point anywhere.
"""

from __future__ import annotations

import operator
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


# ---------------------------------------------------------------------------
# groups and group elements


# Limits on H, checked before any weight tuple or character component is
# built: weights hold free_rank exponents, and Q[H] builds one cyclotomic
# field per divisor of torsion_order.  Fixtures and tests use rank <= 2 and
# order <= 4.
MAX_FREE_RANK = 32
MAX_TORSION_ORDER = 1000


@dataclass(frozen=True, slots=True)
class GroupDescriptor:
    """H = Z^free_rank x Z/torsion_order, torsion_order 1 meaning torsion-free."""

    free_rank: int
    torsion_order: int = 1

    def __post_init__(self) -> None:
        if (type(self.free_rank) is not int
                or not 0 <= self.free_rank <= MAX_FREE_RANK):
            raise ValueError(
                f"free_rank must be an integer from 0 to {MAX_FREE_RANK}, "
                f"got {self.free_rank!r}")
        if (type(self.torsion_order) is not int
                or not 1 <= self.torsion_order <= MAX_TORSION_ORDER):
            raise ValueError(
                f"torsion_order must be an integer from 1 to "
                f"{MAX_TORSION_ORDER}, got {self.torsion_order!r}")

    # A weight, a single element of H, is the monomial key every group ring
    # over H uses: the tuple (e1, ..., er, s) with s in [0, torsion_order).

    def identity(self) -> tuple:
        return (0,) * (self.free_rank + 1)

    def make_weight(self, free=(), tors: int = 0) -> tuple:
        free = tuple(free)
        if any(type(e) is not int for e in (*free, tors)):
            raise ValueError(f"weight exponents {reprlib.repr((*free, tors))} "
                             "are not all integers")
        if len(free) != self.free_rank:
            raise ValueError("free exponent vector has wrong length")
        return (*free, tors % self.torsion_order)

    def mul_weight(self, g: tuple, h: tuple) -> tuple:
        """Product of two canonical weights, without make_weight's checks."""
        out = [a + b for a, b in zip(g, h)]
        out[-1] %= self.torsion_order
        return tuple(out)

    def inv_weight(self, g: tuple) -> tuple:
        return self.make_weight(tuple(-a for a in g[:-1]), -g[-1])

    def weight_str(self, g: tuple) -> str:
        parts = [f"t{i}" if e == 1 else f"t{i}^{e}"
                 for i, e in enumerate(g[:-1], 1) if e != 0]
        if g[-1] != 0:
            parts.append("s" if g[-1] == 1 else f"s^{g[-1]}")
        return "*".join(parts) if parts else "1"


def divisors(m: int) -> list:
    """The positive divisors of m, ascending, by trial division up to sqrt(m)."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# ring interface

# Elements are plain canonical data (module docstring); the ring object
# owns the operations.  Mixed-ring use is rejected by shape checks where
# cheap.  The interface is what state_sums, accumulate, det_exact and
# values_eq_up_to_unit call: ring arithmetic, is_zero, to_str, and
# unit_part / unit_inv on nonzero elements.


class Ring:
    name = "ring"

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def unit_part(self, a):
        """The unit u of a nonzero a whose cofactor mul(unit_inv(u), a) is
        the canonical representative of a's orbit under the units: the sign
        over Z, a itself over a field, the least monomial times its
        coefficient's unit part over a group ring."""
        raise NotImplementedError

    def unit_inv(self, u):
        raise NotImplementedError

    def sum(self, elems):
        acc = self.zero()
        for e in elems:
            acc = self.add(acc, e)
        return acc


def accumulate(ring: Ring, out: dict, key, c) -> None:
    """out[key] += c in ring, removing the key when the sum is zero; a zero
    c on an absent key adds nothing.  Group-ring elements, exterior elements
    and graded maps are summed through this step; state_sums keeps zero
    sums on purpose and does not use it."""
    old = out.get(key)
    s = c if old is None else ring.add(old, c)
    if ring.is_zero(s):
        out.pop(key, None)
    else:
        out[key] = s


def signed_term(coeff: str, symbol: str) -> str:
    """The term coeff*symbol as "+ body" or "- body": a coefficient with
    spaces goes in brackets, +-1 keeps only its sign, symbol "1" is left
    out."""
    spaced = " " in coeff
    neg = coeff.startswith("-") and not spaced
    body = f"({coeff})" if spaced else coeff[neg:]
    if symbol != "1":
        body = symbol if body == "1" else f"{body}*{symbol}"
    return f"- {body}" if neg else f"+ {body}"


def join_terms(terms) -> str:
    """Signed terms joined by " + " and " - ", a leading + dropped; "0"
    when there are none."""
    out = " ".join(terms)
    if not out:
        return "0"
    return out[2:] if out[0] == "+" else "-" + out[2:]


class IntegerRing(Ring):
    name = "Z"

    def zero(self):
        return 0

    def from_int(self, n: int):
        return int(n)

    # the operator builtins, so the engines and the per-entry zero tests
    # call C functions over Z
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)

    def to_str(self, a) -> str:
        return str(a)

    def unit_part(self, a):
        return 1 if a > 0 else -1

    def unit_inv(self, u):
        if u not in (1, -1):
            raise ArithmeticError("not a unit of Z")
        return u


ZZ = IntegerRing()


# ---------------------------------------------------------------------------
# cyclotomic polynomials and fields


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    """Product of ascending coefficient lists over Z or Q (ints or Fractions)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


@lru_cache(maxsize=None)   # d <= MAX_TORSION_ORDER
def cyclotomic_polynomial(d: int) -> tuple:
    """Coefficients of Phi_d, ascending degree, computed by exact division
    of x^d - 1 by the Phi_e for proper divisors e of d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    num = [0] * (d + 1)
    num[0], num[d] = -1, 1
    den = [1]
    for e in divisors(d)[:-1]:
        den = _poly_mul(den, cyclotomic_polynomial(e))
    q, r = _qpoly_divmod(num, den)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return tuple(int(c) for c in q)


class CycloField(Ring):
    """Q(zeta_d) as Q[z]/Phi_d(z); elements are coefficient tuples of length
    phi(d), whose coefficients stay ints while integral: only inv and
    from_fraction bring in Fractions.  inv runs extended Euclid on every
    call and keeps no memo: compare_bsda_alexander over Q[H] compares over
    Z[H] first, and inverts here only when that compare fails."""

    def __init__(self, d: int):
        self.d = d
        self.modulus = cyclotomic_polynomial(d)
        self.degree = len(self.modulus) - 1
        self.name = f"Q(zeta_{d})"

    def zero(self):
        return (0,) * self.degree

    def from_int(self, n: int):
        return (int(n),) + (0,) * (self.degree - 1)

    def from_fraction(self, q) -> tuple:
        return (Fraction(q),) + (0,) * (self.degree - 1)

    def zeta_power(self, k: int):
        """zeta_d^k as a field element."""
        k %= self.d
        return self._reduce([0] * k + [1])

    def _reduce(self, poly) -> tuple:
        poly = list(poly)
        n = self.degree
        while len(poly) > n:
            c = poly.pop()
            if c == 0:
                continue
            d = len(poly) - n
            for i in range(n):
                poly[d + i] -= c * self.modulus[i]
        poly += [0] * (n - len(poly))
        return tuple(poly)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self._reduce(_poly_mul(a, b))

    def is_zero(self, a) -> bool:
        return not any(a)

    def inv(self, a):
        """Inverse via extended Euclid over Q[x] against Phi_d."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        # r0 = Phi_d, r1 = a; track s-coefficients for a only
        r0 = list(self.modulus)
        r1 = _poly_trim([Fraction(x) for x in a])
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _poly_mul(q, s1))
        # r0 is the gcd, a nonzero constant since Phi_d is irreducible
        c = r0[0]
        return self._reduce([x / c for x in s0])

    def to_str(self, a) -> str:
        return join_terms(signed_term(str(c), "1" if i == 0 else
                                      "z" if i == 1 else f"z^{i}")
                          for i, c in enumerate(a) if c != 0)

    def unit_part(self, a):
        return a

    def unit_inv(self, u):
        return self.inv(u)


def _qpoly_divmod(a, b):
    a = [Fraction(x) for x in a]
    b = _poly_trim([Fraction(x) for x in b])
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while _poly_trim(a) and len(a) >= len(b):
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for i, y in enumerate(b):
        a[i] -= y
    return _poly_trim(a)


@lru_cache(maxsize=None)   # d <= MAX_TORSION_ORDER
def cyclo_field(d: int) -> CycloField:
    return CycloField(d)


# ---------------------------------------------------------------------------
# group rings: Laurent monomials in t1..tr plus a torsion generator s of order m


class GroupRing(Ring):
    """coeff_ring[t1^{\\pm1},...,tr^{\\pm1}] x (Z/m generated by s).

    Elements are dicts mapping monomials, the weights (e1,...,er,s) of
    GroupDescriptor, to nonzero coefficients.  m = 1 gives honest Laurent polynomials; with
    integer coefficients this is Z[G] or Z[H], with cyclotomic coefficients it
    is a character component F[G].
    """

    def __init__(self, free_rank: int, torsion_order: int = 1, coeff_ring: Ring = ZZ):
        self.group = GroupDescriptor(free_rank, torsion_order)
        self.free_rank = free_rank
        self.torsion_order = torsion_order
        self.coeff = coeff_ring
        self.name = f"GroupRing(r={free_rank},m={torsion_order},{coeff_ring.name})"

    def monomial(self, g: tuple, c=None):
        c = self.coeff.one() if c is None else c
        if self.coeff.is_zero(c):
            return {}
        return {self.group.make_weight(g[:-1], g[-1]): c}

    # -- ring ops

    def zero(self):
        return {}

    def from_int(self, n: int):
        c = self.coeff.from_int(n)
        if self.coeff.is_zero(c):
            return {}
        return {self.group.identity(): c}

    def _shape_check(self, a, b) -> None:
        """Reject an element of another group ring by the key length of
        one monomial per argument: this ring's operations never build an
        element whose keys have two lengths."""
        width = self.free_rank + 1
        for x in (a, b):
            for g in x:
                if len(g) != width:
                    raise ValueError("element from a different ring")
                break

    def add(self, a, b):
        self._shape_check(a, b)
        out = dict(a)
        for g, c in b.items():
            accumulate(self.coeff, out, g, c)
        return out

    def neg(self, a):
        return {g: self.coeff.neg(c) for g, c in a.items()}

    def mul(self, a, b):
        self._shape_check(a, b)
        out: dict = {}
        mul_weight = self.group.mul_weight
        for g, c in a.items():
            for h, d in b.items():
                accumulate(self.coeff, out, mul_weight(g, h),
                           self.coeff.mul(c, d))
        return out

    def is_zero(self, a) -> bool:
        return not a

    # -- printing and parsing

    def to_str(self, a) -> str:
        return join_terms(
            signed_term(self.coeff.to_str(a[g]), self.group.weight_str(g))
            for g in sorted(a))

    def unit_part(self, a):
        """The least monomial of a nonzero a times the unit part of its
        coefficient, read off without building the canonical form."""
        g0 = min(a)
        return {g0: self.coeff.unit_part(a[g0])}

    def unit_inv(self, u):
        if len(u) != 1:
            raise ArithmeticError("not a monomial unit")
        (g, c), = u.items()
        return {self.group.inv_weight(g): self.coeff.unit_inv(c)}


def augmentation(a) -> int:
    """Sum of the integer coefficients of a Z[H] element."""
    total = 0
    for c in a.values():
        total += c
    return total


# Group-ring text: a weight is "1" or factors t<i>, t<i>^<e>, s and s^<k>
# joined by "*" (weight_str); an element is signed terms, each a digit
# coefficient, a weight or both.  Spaces are ignored, and a refusal quotes
# the term or factor at fault through reprlib.repr, so it stays short.

# an index is an int() literal: t01 is t1, t1_0 is t10
_FACTOR_RE = re.compile(r"(?:t(\d+(?:_\d+)*)|s)(?:\^(-?\d+))?")
# a sign starts a term unless it opens the text or follows "^", as in t1^-2
_SIGN_RE = re.compile(r"(?<=[^^])(?=[+-])")
# "$" also matches before a final newline, which may end a term
_TERM_RE = re.compile(r"([+-]?)(\d*)(?:\*?(.+))?$")


def _monomial(group: GroupDescriptor, text: str) -> tuple:
    """The weight of the factors in text."""
    free = [0] * group.free_rank
    tors = 0
    for factor in text.split("*"):
        m = _FACTOR_RE.fullmatch(factor)
        if not m:
            raise ValueError(f"malformed factor {reprlib.repr(factor)}")
        try:
            exp, index = int(m[2] or 1), int(m[1] or 0)
        except ValueError:      # more digits than int() converts
            raise ValueError("number too long in factor "
                             f"{reprlib.repr(factor)}") from None
        if m[1] is None:
            if group.torsion_order == 1:
                raise ValueError("torsion generator s in a torsion-free group")
            tors += exp
        elif 0 < index <= group.free_rank:
            free[index - 1] += exp
        else:
            raise ValueError(f"unknown variable {reprlib.repr(factor)}")
    return (*free, tors % group.torsion_order)


def parse_element(ring: GroupRing, text: str):
    """Read signed terms with digit coefficients, as in "1 - 2*t1^-1*s"."""
    out = ring.zero()
    for term in _SIGN_RE.split(text.replace(" ", "")):
        m = _TERM_RE.match(term)
        if not m or term in ("", "+", "-"):
            raise ValueError(f"malformed term {reprlib.repr(term)}")
        w = _monomial(ring.group, m[3]) if m[3] else ring.group.identity()
        try:
            c = int(m[1] + (m[2] or "1"))
        except ValueError:      # more digits than int() converts
            raise ValueError("number too long in term "
                             f"{reprlib.repr(term)}") from None
        accumulate(ring.coeff, out, w, ring.coeff.from_int(c))
    return out


def parse_weight(group: GroupDescriptor, text: str) -> tuple:
    """Read a weight as weight_str prints it: "1" or factors joined by "*"."""
    s = text.replace(" ", "")
    return group.identity() if s == "1" else _monomial(group, s)


# ---------------------------------------------------------------------------
# Q[H] componentwise by characters of the torsion part


class QHRing(Ring):
    """Q[H] = product over divisors d of m of Q(zeta_d)[G].

    One component per divisor d, ascending; the torsion generator s acts on
    component d as multiplication by zeta_d.  Elements are tuples of
    GroupRing-over-CycloField elements.
    """

    def __init__(self, group: GroupDescriptor):
        self.group = group
        self.divisors = divisors(group.torsion_order)
        self.components = [
            GroupRing(group.free_rank, 1, cyclo_field(d)) for d in self.divisors
        ]
        self.name = f"Q[H](r={group.free_rank},m={group.torsion_order})"

    def zero(self):
        return tuple(c.zero() for c in self.components)

    def from_int(self, n: int):
        return tuple(c.from_int(n) for c in self.components)

    def add(self, a, b):
        return tuple(c.add(x, y) for c, x, y in zip(self.components, a, b))

    def neg(self, a):
        return tuple(c.neg(x) for c, x in zip(self.components, a))

    def mul(self, a, b):
        return tuple(c.mul(x, y) for c, x, y in zip(self.components, a, b))

    def is_zero(self, a) -> bool:
        return not any(a)

    def to_str(self, a) -> str:
        parts = []
        for d, c, x in zip(self.divisors, self.components, a):
            parts.append(f"[d={d}] {c.to_str(x)}")
        return "; ".join(parts)

    def from_zh(self, zh_elem):
        """Decompose a Z[H] element into character components.  One pass
        over the terms c*t^f*s^k adds c to p_f[k], one length-m list per
        free part f; component d folds it to q[j] = sum(p_f[j::d]), the
        polynomial in z = zeta_d (p_f itself when d = m), and reduces that
        mod Phi_d once."""
        m = self.group.torsion_order
        polys: dict = {}
        for g, c in zh_elem.items():
            polys.setdefault((*g[:-1], 0), [0] * m)[g[-1]] += c
        out = []
        for d, comp in zip(self.divisors, self.components):
            reduce, part = comp.coeff._reduce, {}
            for f, p in polys.items():
                x = reduce(p if d == m else [sum(p[j::d]) for j in range(d)])
                if any(x):
                    part[f] = x
            out.append(part)
        return tuple(out)


# One coefficient ring per group: no ring object changes after it is built,
# so every caller over an equal group can share one.  The memos are
# bounded like bsda._arcs; a program that meets more groups builds the
# evicted rings again.  A bad group raises in the constructor and is not
# remembered.

@lru_cache(maxsize=64)
def group_ring(free_rank: int, torsion_order: int) -> GroupRing:
    """The shared Z[Z^free_rank x Z/torsion_order]."""
    return GroupRing(free_rank, torsion_order)


@lru_cache(maxsize=64)
def qh_ring(group: GroupDescriptor) -> QHRing:
    """The shared Q[H] of group."""
    return QHRing(group)


# ---------------------------------------------------------------------------
# matrices


@dataclass
class Matrix:
    """Dense matrix over a ring."""

    ring: Ring
    entries: list

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")


def _identity_entries(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# The most bits an entry of A or V in smith_normal_form may hold when a
# pivot that is not a unit (the one kind that repeats) starts a pass.  The
# tests stay under a few hundred bits, selftest and the benchmark at 3; some
# dense 7 x 7 matrices pass 10^5 bits within a second and grow on.  Only
# homology.k_element's core rows and homology.torsion_order reach it.
MAX_SNF_BITS = 1024


def smith_normal_form(entries):
    """(diagonal, V): the min(r, c) diagonal entries d1 | d2 | ... of the
    Smith normal form D = U*M*V, and the unimodular V.  The row transform
    U is never built, since no caller reads it.  The pivot is the first
    entry of least absolute value in row-major order, so the search stops
    at the first +-1; row and column operations touch only the nonzero
    entries of their source.  An entry over MAX_SNF_BITS bits raises
    ValueError."""
    A = [[int(x) for x in row] for row in entries]
    r = len(A)
    c = len(A[0]) if A else 0
    V = _identity_entries(c)

    def row_op(i, j, q):  # row_i -= q*row_j
        target = A[i]
        for k, x in enumerate(A[j]):
            if x:
                target[k] -= q * x

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in A + V:
            if row[j]:
                row[i] -= q * row[j]

    def col_swap(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(r, c):
        # find a nonzero pivot of least absolute value
        best, least = None, 0
        for i in range(t, r):
            for j in range(t, c):
                x = abs(A[i][j])
                if x and (not least or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        A[t], A[best[0]] = A[best[0]], A[t]
        col_swap(t, best[1])
        again = True
        while again:
            again = False
            if abs(A[t][t]) != 1:
                bits = max(max(max(row), -min(row))
                           for row in A + V).bit_length()
                if bits > MAX_SNF_BITS:
                    raise ValueError(
                        f"Smith normal form over the budget MAX_SNF_BITS = "
                        f"{MAX_SNF_BITS}: an entry of {bits} bits at pivot "
                        f"{t + 1} of {min(r, c)}")
            for i in range(t + 1, r):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        again = True
            for j in range(t + 1, c):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        col_swap(t, j)
                        again = True
        # enforce divisibility of the remaining block; a unit divides it
        pivot = A[t][t]
        if abs(pivot) != 1:
            bad = next((i for i in range(t + 1, r)
                        if any(x % pivot for x in A[i][t + 1:])), None)
            if bad is not None:
                row_op(t, bad, -1)  # add row bad to row t, then re-reduce
                continue
        t += 1
    # a finished row of A is zero off the diagonal, so abs() is its sign fix
    return [abs(A[i][i]) for i in range(min(r, c))], V


def snf_diagonal(entries):
    return smith_normal_form(entries)[0]


def integer_rank(entries) -> int:
    """Rank of an integer matrix: the pivot columns of _bareiss on a copy."""
    return len(_bareiss([list(row) for row in entries])[0])


def integer_kernel_is_zero(entries) -> bool:
    cols = len(entries[0]) if entries else 0
    return integer_rank(entries) == cols


# Below this many rows state_sums never splits (see its docstring).
SPLIT_MIN_ROWS = 6
# The most live states a state sum may hold after one state's picks or in
# a product of blocks; more raise ValueError.  A state is one dict entry,
# so this bounds memory.  The tests, selftest, scripts/run_corpus.py and
# the four benchmark workloads reach at most 1,280 live states (a
# bordered chain); a dense 18 x 18 determinant reaches C(18, 9) = 48,620,
# and a dense 24 x 24 incidence, which would reach C(24, 12), about
# 2.7 x 10^6, is refused at its sixth row.
MAX_STATES = 1 << 16


def _over_budget(live: int, row: int, rows: int) -> ValueError:
    return ValueError(f"state sum over the budget MAX_STATES = {MAX_STATES}: "
                      f"{live} live states at row {row} of {rows}")


def _odd_below(m: int) -> int:
    """The columns with an odd number of m's bits below them (an infinite
    two's-complement mask when m has an odd number of bits)."""
    out = 0
    while m:
        low = m & -m
        m ^= low
        high = m & -m
        m ^= high
        out |= (high << 1 if high else 0) - (low << 1)
    return out


def _odd_order(masks) -> int:
    """The parity of the permutation listing disjoint masks' bits by mask."""
    odd, seen = 0, 0
    for m in masks:
        odd ^= (seen & _odd_below(m)).bit_count() & 1
        seen |= m
    return odd


def _bits(m: int) -> list:
    """The positions of m's bits, ascending."""
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


def row_blocks(rows):
    """The connected components (blocks) of the row-column incidence of
    sparse rows {column: value}, as [column mask, row mask] pairs in the
    order of their first rows, by union-find over rows; None at the first
    empty row."""
    up, first, blocks = list(range(len(rows))), {}, {}
    for i, row in enumerate(rows):
        if not row:
            return None
        own = blocks[i] = [0, 1 << i]
        for q in row:
            own[0] |= 1 << q
            j = first.setdefault(q, i)
            while up[j] != j:
                up[j] = j = up[up[j]]
            if j != i:
                up[j] = i
                cs, rs = blocks.pop(j)
                own[0] |= cs
                own[1] |= rs
    return sorted(blocks.values(), key=lambda b: b[1] & -b[1])


def state_sums(ring: Ring, rows, required: int, signed: bool = True) -> dict:
    """Sum the partial transversals of a sparse matrix, grouped by the set of
    columns they occupy.

    rows is a sequence of {column: coefficient} dicts with nonnegative int
    columns.  A dynamic program picks one column per row, in row order,
    never one already occupied; the state is the bitmask of occupied
    columns, and its value sums the products of the picked coefficients,
    each pick times (-1)^(occupied columns to its right) when signed, so a
    full transversal carries the sign of its permutation.  Every column of
    the bitmask required must be covered, and two prunes drop the states
    that no longer can: a state with fewer rows left than required columns
    still empty, and (the frontier rule) a state that leaves a required
    column empty after the last row with an entry in that column.  A
    required column no row meets gives {} at once.  Zero coefficients and
    zero sums are kept, so the work depends only on which entries are
    present, not on their values.  A state's first product is stored as it
    is, and ring.add runs only when a second pick reaches that state.
    There is no division, so any commutative ring works.  Returns
    {mask: value} over the masks reached after the last row; no rows give
    {0: one}.  More than MAX_STATES live states after one state's picks,
    or in a product of blocks, raise ValueError.

    Blocks.  From SPLIT_MIN_ROWS rows on, each block of row_blocks runs on
    its own with its share of required, and the results multiply, so a
    disjoint union costs the sum of its parts' state sums.  Two signs
    rebuild the unsplit sign: that of the row reordering, on every value,
    and, for masks m_a of earlier blocks and m_b of a later one,
    popcount(m_a & _odd_below(m_b)) mod 2, the pairs of a pick in m_a and a
    pick in m_b to its left.  An empty row, a required column in no block
    or a block without states gives {}.  The floor: in process, over 20
    alternating rounds of seed 1, splitting from 2 rows made a
    weighted_functor round (every state sum of at most 5 rows) 5.0% slower
    and a bordered_chains round 3.1% slower than from 6; floors of 4 and 8
    were within 2% of 6 there, and never splitting was 20% slower.
    """
    need = required.bit_count()
    left = len(rows)
    blocks = row_blocks(rows) if left >= SPLIT_MIN_ROWS else ()
    if need > left or blocks is None:
        return {}
    mul, add, neg = ring.mul, ring.add, ring.neg
    if len(blocks) > 1:
        if required & ~sum(cs for cs, _ in blocks):  # disjoint masks
            return {}
        flip = _odd_order(rs for _, rs in blocks)
        states, done = None, 0
        for cs, rs in blocks:
            part = state_sums(ring, [rows[i] for i in _bits(rs)],
                              required & cs, signed)
            if not part:
                return {}
            done |= rs
            if states is None:
                states = ({m: neg(v) for m, v in part.items()}
                          if signed and flip else part)
                continue
            if len(states) * len(part) > MAX_STATES:
                raise _over_budget(len(states) * len(part),
                                   done.bit_count(), len(rows))
            nxt = {}
            for mb, vb in part.items():
                odd = _odd_below(mb) if signed else 0
                for ma, va in states.items():
                    t = mul(va, vb)
                    nxt[ma | mb] = neg(t) if (ma & odd).bit_count() & 1 else t
            states = nxt
        return states
    # closing[i]: the required columns whose last entry is in row i; the
    # walk back stops once every required column has been seen
    closing, later = [0] * left, 0
    for i in range(left - 1, -1, -1):
        if not required & ~later:
            break
        cols = 0
        for q in rows[i]:
            cols |= 1 << q
        closing[i] = cols & required & ~later
        later |= cols
    if required & ~later:
        return {}
    states = {0: ring.one()}
    for row, close in zip(rows, closing):
        left -= 1
        steps = [(q, 1 << q, c) for q, c in row.items()]
        nxt: dict = {}
        for mask, v in states.items():
            for q, bit, c in steps:
                if mask & bit:
                    continue
                new = mask | bit
                if need - (new & required).bit_count() > left:
                    continue
                t = mul(v, c)
                if signed and (mask >> (q + 1)).bit_count() & 1:
                    t = neg(t)
                old = nxt.get(new)
                nxt[new] = t if old is None else add(old, t)
            if len(nxt) > MAX_STATES:
                raise _over_budget(len(nxt), len(rows) - left, len(rows))
        if close:
            nxt = {m: v for m, v in nxt.items() if m & close == close}
        states = nxt
    return states


def det_exact(ring: Ring, entries):
    """Exact determinant over any commutative ring: the full-mask value of
    state_sums over the nonzero entries.  0 x 0 gives 1."""
    n = len(entries)
    if any(len(r) != n for r in entries):
        raise ValueError("determinant of a non-square matrix")
    rows = [{j: e for j, e in enumerate(r) if not ring.is_zero(e)}
            for r in entries]
    full = (1 << n) - 1
    return state_sums(ring, rows, full).get(full, ring.zero())


def _bareiss(A: list) -> tuple:
    """(pivot columns, signed last pivot) of the int rows A by one
    fraction-free elimination (Bareiss, Math. Comp. 22 (1968)) leaving its
    echelon in A: pivot columns left to right, a column with no pivot
    skipped, a swap of row lists flipping the sign, each later entry made
    (pivot * x - c * y) // previous pivot, an exact division to a minor
    (Sylvester's identity).  From its pivot column on, row i is pivot i - 1
    times the row Gaussian elimination leaves.  No pivot gives ([], 1)."""
    rows = len(A)
    cols = len(A[0]) if A else 0
    sign, prev, pivots = 1, 1, []
    for k in range(cols):
        r = len(pivots)
        if r == rows:
            break
        if not A[r][k]:
            p = next((i for i in range(r + 1, rows) if A[i][k]), None)
            if p is None:
                continue
            A[r], A[p] = A[p], A[r]
            sign = -sign
        top = A[r]
        pivot = top[k]
        for i in range(r + 1, rows):
            row = A[i]
            c = row[k]
            for j in range(k + 1, cols):
                row[j] = (pivot * row[j] - c * top[j]) // prev
        prev = pivot
        pivots.append(k)
    return pivots, sign * prev


def integer_det(A: list) -> int:
    """Determinant of a square int matrix (n row lists, overwritten), the
    last pivot of _bareiss or 0 below n pivots: det_exact's value by a
    fast path for Z.  The elimination is cubic whatever the zero pattern,
    so the dense 256 x 256 square at diagram.MAX_CURVES bounds its cost."""
    n = len(A)
    for row in A:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    pivots, last = _bareiss(A)
    return last if len(pivots) == n else 0


def det(ring: Ring, square):
    """The one determinant call of the library: integer_det over ZZ, which
    overwrites square, and det_exact over any other ring."""
    return integer_det(square) if ring is ZZ else det_exact(ring, square)


def rank_over_fractions(ring: Ring, entries) -> int:
    """Column rank over the fraction field of an integral domain, by
    elimination with full pivoting that never divides: each later row
    becomes pivot * row - (its pivot-column entry) * pivot row, which keeps
    the rank because the pivot is nonzero in a domain.  Entries grow with
    every step.  No library code calls it; perfbench/tracer.py still lists
    it as a traced target."""
    A = [list(r) for r in entries]
    rows = len(A)
    cols = len(A[0]) if A else 0
    rank = 0
    r0 = 0
    for _ in range(min(rows, cols)):
        piv = None
        for i in range(r0, rows):
            for j in range(r0, cols):
                if not ring.is_zero(A[i][j]):
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        A[r0], A[i0] = A[i0], A[r0]
        for row in A:
            row[r0], row[j0] = row[j0], row[r0]
        for i in range(r0 + 1, rows):
            for j in range(r0 + 1, cols):
                A[i][j] = ring.sub(ring.mul(A[i][j], A[r0][r0]),
                                   ring.mul(A[i][r0], A[r0][j]))
            A[i][r0] = ring.zero()
        rank += 1
        r0 += 1
    return rank


# ---------------------------------------------------------------------------
# up-to-unit comparisons


def values_eq_up_to_unit(ring: Ring, pairs):
    """Decide a = u*b for one unit u common to every (a, b) pair; returns
    (True, u) or (False, None).

    The first candidate is the ratio of the unit parts (unit_part) of a and
    b in the first pair whose b is nonzero (one if there is none), so only
    that b's unit is inverted; every pair is then checked as a = u*b.  Unit
    groups: {1,-1} over Z, (nonzero scalar)*monomial per component over
    Q[H], and the trivial units +-t^f*s^k over integer group rings.  Over
    Z[Z^r x Z/m] with m > 1 the least monomial does not fix the torsion
    shift, so the candidate's free part f (fixed by the lex-least free
    exponents) is kept and all 2m choices of sign and s^k are tried.  By
    Higman's theorem the trivial units are the whole unit group only for m
    in {1, 2, 3, 4, 6}.  Q[H] is compared per component, since a component
    can be zero in the first pair and nonzero in a later one.
    """
    pairs = list(pairs)
    if isinstance(ring, QHRing):
        units = []
        for idx, comp in enumerate(ring.components):
            ok, u = values_eq_up_to_unit(comp, [(a[idx], b[idx]) for a, b in pairs])
            if not ok:
                return False, None
            units.append(u)
        return True, tuple(units)
    unit = ring.one()
    for a, b in pairs:
        if not ring.is_zero(b):
            if ring.is_zero(a):
                return False, None
            unit = ring.mul(ring.unit_part(a), ring.unit_inv(ring.unit_part(b)))
            break
    candidates = [unit]
    if isinstance(ring, GroupRing) and ring.torsion_order > 1:
        (g, c), = unit.items()
        m = ring.torsion_order
        candidates = [{(*g[:-1], (g[-1] + k) % m): e}
                      for k in range(m) for e in (c, ring.coeff.neg(c))]
    for u in candidates:
        if all(a == ring.mul(u, b) for a, b in pairs):
            return True, u
    return False, None
