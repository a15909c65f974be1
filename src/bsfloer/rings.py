"""Exact coefficient arithmetic.

Every ring used anywhere in the package lives here: the integers, integral
group rings of finitely generated abelian groups H = Z^r x Z/m (Laurent
polynomials in t1..tr with an order-m generator s), cyclotomic fields
Q(zeta_d), Laurent rings over those fields, and the full rational group
algebra of H presented componentwise by characters of the torsion part.
The rings offer no division: determinants are state sums, and units are
only read off (unit_part) and inverted (unit_inv) for the up-to-unit
comparison.  Also: the one sparse accumulate step (add a term to a dict,
drop the key when the sum is zero), one polynomial kernel over Z and Q,
limits on H, Smith normal form over Z, exact determinants (one state sum
over occupied column sets, for every ring and size, under the MAX_STATES
budget; over Z alone also fraction-free elimination, whose divisions are
exact integer ones), and the one "equal up to a unit" comparison.

No floating point anywhere.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# groups and group elements


# Limits on H, checked before any weight tuple or character component is
# built: weights hold free_rank exponents, and Q[H] builds one cyclotomic
# field per divisor of torsion_order.  Fixtures and tests use rank <= 2 and
# order <= 4.
MAX_FREE_RANK = 32
MAX_TORSION_ORDER = 1000


@dataclass(frozen=True)
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
        free = tuple(int(e) for e in free)
        if len(free) != self.free_rank:
            raise ValueError("free exponent vector has wrong length")
        return (*free, int(tors) % self.torsion_order)

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

# Elements are plain data (ints, dicts, tuples); the ring object owns the
# operations.  Mixed-ring use is rejected by shape checks where cheap.  The
# interface is what state_sums, accumulate, det_exact and
# values_eq_up_to_unit call: ring arithmetic, is_zero, eq, to_str, and
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

    def eq(self, a, b) -> bool:
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
    eq = staticmethod(operator.eq)

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


_CYCLO_CACHE: dict = {}


def cyclotomic_polynomial(d: int) -> list:
    """Coefficients of Phi_d, ascending degree, computed by exact division
    of x^d - 1 by the Phi_e for proper divisors e of d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d in _CYCLO_CACHE:
        return list(_CYCLO_CACHE[d])
    num = [0] * (d + 1)
    num[0], num[d] = -1, 1
    den = [1]
    for e in divisors(d)[:-1]:
        den = _poly_mul(den, cyclotomic_polynomial(e))
    q, r = _qpoly_divmod(num, den)
    if r:
        raise ArithmeticError("inexact polynomial division")
    out = [int(c) for c in q]
    _CYCLO_CACHE[d] = list(out)
    return out


class CycloField(Ring):
    """Q(zeta_d) as Q[z]/Phi_d(z); elements are coefficient tuples of length
    phi(d), whose coefficients stay ints while integral: only inv and
    from_fraction bring in Fractions."""

    INV_MEMO_SIZE = 1024

    def __init__(self, d: int):
        self.d = d
        self.modulus = cyclotomic_polynomial(d)
        self.degree = len(self.modulus) - 1
        self.name = f"Q(zeta_{d})"
        self._inv_memo: dict = {}

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
        return all(x == 0 for x in a)

    def eq(self, a, b) -> bool:
        return tuple(a) == tuple(b)

    def inv(self, a):
        """Inverse via extended Euclid over Q[x] against Phi_d, answered
        from the memo when a was inverted before; the memo is emptied when
        it holds INV_MEMO_SIZE entries."""
        key = tuple(a)
        memo = self._inv_memo
        if key in memo:
            return memo[key]
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
        if len(memo) >= self.INV_MEMO_SIZE:
            memo.clear()
        memo[key] = out = self._reduce([x / c for x in s0])
        return out

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


_CYCLO_FIELDS: dict = {}


def cyclo_field(d: int) -> CycloField:
    if d not in _CYCLO_FIELDS:
        _CYCLO_FIELDS[d] = CycloField(d)
    return _CYCLO_FIELDS[d]


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

    def eq(self, a, b) -> bool:
        if len(a) != len(b):
            return False
        return all(g in b and self.coeff.eq(c, b[g]) for g, c in a.items())

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


# element parsing for the integer-coefficient grammar, e.g. "1 - t1 + t1^2*t2^-1*s"

_TERM_RE = re.compile(r"^(?P<coeff>\d+)?(?P<rest>(\*?[a-z]\w*(\^-?\d+)?)*)$")
_FACTOR_RE = re.compile(r"^(?P<name>[a-z]\w*?)(\^(?P<exp>-?\d+))?$")


def parse_element(ring: GroupRing, text: str):
    """Parse the textual Laurent form into a GroupRing element."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element string")
    # split into signed terms
    terms = []
    sign = 1
    buf = ""
    for i, ch in enumerate(s):
        # a sign splits terms unless it is an exponent sign as in t1^-2
        if ch in "+-" and i != 0 and s[i - 1] != "^":
            terms.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-" and i == 0:
            sign = 1 if ch == "+" else -1
        else:
            buf += ch
    terms.append((sign, buf))
    out = ring.zero()
    for sg, term in terms:
        if not term:
            raise ValueError(f"malformed term in {text!r}")
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed term {term!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        free = [0] * ring.free_rank
        tors = 0
        rest = m.group("rest") or ""
        for fac in filter(None, rest.split("*")):
            fm = _FACTOR_RE.match(fac)
            if not fm:
                raise ValueError(f"malformed factor {fac!r}")
            name = fm.group("name")
            exp = int(fm.group("exp")) if fm.group("exp") else 1
            if name == "s":
                if ring.torsion_order == 1:
                    raise ValueError("torsion generator used in a torsion-free ring")
                tors += exp
            elif name.startswith("t"):
                idx = int(name[1:]) - 1
                if not 0 <= idx < ring.free_rank:
                    raise ValueError(f"unknown variable {name!r}")
                free[idx] += exp
            else:
                raise ValueError(f"unknown variable {name!r}")
        out = ring.add(out, {ring.group.make_weight(free, tors):
                             ring.coeff.from_int(sg * coeff)})
    return out


def parse_weight(group: GroupDescriptor, text: str) -> tuple:
    """A weight is a single monomial with coefficient +1 (default "1")."""
    elem = parse_element(GroupRing(group.free_rank, group.torsion_order), text)
    if len(elem) != 1:
        raise ValueError(f"weight must be a single monomial: {text!r}")
    (g, c), = elem.items()
    if c != 1:
        raise ValueError(f"weight must have coefficient 1: {text!r}")
    return g


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
        return all(c.is_zero(x) for c, x in zip(self.components, a))

    def eq(self, a, b) -> bool:
        return all(c.eq(x, y) for c, x, y in zip(self.components, a, b))

    def to_str(self, a) -> str:
        parts = []
        for d, c, x in zip(self.divisors, self.components, a):
            parts.append(f"[d={d}] {c.to_str(x)}")
        return "; ".join(parts)

    def from_zh(self, zh_elem):
        """Decompose a Z[H] element into character components."""
        out = []
        for d, comp in zip(self.divisors, self.components):
            F = comp.coeff
            acc: dict = {}
            for g, c in zh_elem.items():
                accumulate(F, acc, (*g[:-1], 0),
                           F.mul(F.from_int(c), F.zeta_power(g[-1])))
            out.append(acc)
        return tuple(out)


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


def smith_normal_form(entries):
    """U, D, V with U*M*V = D diagonal, d1 | d2 | ..., U and V unimodular.
    The pivot is the first entry of least absolute value in row-major order,
    so the search stops at the first +-1; row and column operations touch
    only the nonzero entries of their source."""
    A = [[int(x) for x in row] for row in entries]
    r = len(A)
    c = len(A[0]) if A else 0
    U = _identity_entries(r)
    V = _identity_entries(c)

    def row_op(i, j, q):  # row_i -= q*row_j
        for M in (A, U):
            target = M[i]
            for k, x in enumerate(M[j]):
                if x:
                    target[k] -= q * x

    def col_op(i, j, q):  # col_i -= q*col_j
        for M in (A, V):
            for row in M:
                if row[j]:
                    row[i] -= q * row[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for k in range(r):
            A[k][i], A[k][j] = A[k][j], A[k][i]
        for k in range(c):
            V[k][i], V[k][j] = V[k][j], V[k][i]

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
        row_swap(t, best[0])
        col_swap(t, best[1])
        again = True
        while again:
            again = False
            for i in range(t + 1, r):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
                    if A[i][t]:
                        row_swap(t, i)
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
        if A[t][t] < 0:
            for k in range(c):
                A[t][k] = -A[t][k]
            for k in range(r):
                U[t][k] = -U[t][k]
        t += 1
    return U, A, V


def snf_diagonal(entries):
    _, D, _ = smith_normal_form(entries)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def integer_rank(entries) -> int:
    return sum(1 for d in snf_diagonal(entries) if d != 0)


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
    present, not on their values.  There is no division, so any commutative
    ring works.  Returns {mask: value} over the masks reached after the
    last row; no rows give {0: one}.  More than MAX_STATES live states
    after one state's picks, or in a product of blocks, raise ValueError.

    Blocks.  The connected components of the row-column incidence (the
    blocks) pick their columns independently.  From SPLIT_MIN_ROWS rows on,
    the walk that finds the closing rows also merges the rows into blocks;
    with two or more, each block runs on its own with its share of
    required, and the results multiply, so a disjoint union costs the sum
    of its parts' state sums, not a walk through their product.  Two signs
    rebuild the unsplit sign: the sign of the row permutation that takes
    the blocks one after another, in the order of their first rows, on
    every value; and, for masks m_a of earlier blocks and m_b of a later
    one, popcount(m_a & _odd_below(m_b)) mod 2, the parity of the pairs of
    a pick in m_a and a pick in m_b to its left.  An empty row or a block without states gives
    {}.  When every row must take a required column and one row meets them
    all (dense matrices: det_exact, closed diagrams), a second block could
    not give its rows one, so the merge stops and the walk runs unsplit.
    The floor: in process, over 20 alternating rounds of seed 1, splitting
    from 2 rows made a weighted_functor round (every state sum of at most
    5 rows) 5.0% slower and a bordered_chains round 3.1% slower than
    splitting from 6; floors of 4 and 8 were within 2% of 6 there, and
    never splitting was 20% slower.
    """
    need = required.bit_count()
    left = len(rows)
    if need > left:
        return {}
    # closing[i]: the required columns whose last entry is in row i; the
    # walk back stops once every required column has been seen, unless it
    # is merging the rows into blocks of [columns, rows] bitmasks
    closing = [0] * left
    later = 0
    blocks = [] if left >= SPLIT_MIN_ROWS else None
    for i in range(left - 1, -1, -1):
        if blocks is None and not required & ~later:
            break
        cols = 0
        for q in rows[i]:
            cols |= 1 << q
        closing[i] = cols & required & ~later
        later |= cols
        if blocks is None:
            continue
        if not cols:
            return {}
        if need == left and cols & required == required:
            blocks = None
            continue
        own = [cols, 1 << i]
        rest = [own]
        for b in blocks:
            if b[0] & cols:
                own[0] |= b[0]
                own[1] |= b[1]
            else:
                rest.append(b)
        blocks = rest
    if required & ~later:
        return {}
    mul, add, neg, zero = ring.mul, ring.add, ring.neg, ring.zero()
    if blocks and len(blocks) > 1:
        blocks.sort(key=lambda b: b[1] & -b[1])
        flip, seen = 0, 0
        for _, rs in blocks:
            flip ^= (seen & _odd_below(rs)).bit_count() & 1
            seen |= rs
        states, done = None, 0
        for cs, rs in blocks:
            part = state_sums(ring, [r for i, r in enumerate(rows)
                                     if rs >> i & 1], required & cs, signed)
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
                nxt[new] = add(nxt.get(new, zero), t)
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


# From this many rows on, integer_det eliminates each block on its own.
# Below it, one elimination was faster in process on random sparse
# matrices (n = 3..11, a third of them split); on shuffled block-diagonal
# matrices the two broke even at n = 12 and splitting won from n = 24
# (1.4x there, 7x at n = 192).
BLOCK_MIN_ROWS = 16


def _bareiss(A: list) -> int:
    """Determinant of a dense square int matrix (a list of row lists,
    overwritten), by fraction-free elimination (Bareiss, Math. Comp. 22
    (1968)): step k makes every entry below row k a (k+1) x (k+1) minor by
    (pivot * x - c * y) // previous pivot, which divides exactly, and swaps
    in a row with a nonzero pivot when needed.  A row with zero in the
    pivot column is only rescaled by pivot / previous pivot, so that
    scaling is deferred until the row is next used: level[i] names the
    step its values belong to, and the pivot product telescopes to
    scale[k] / scale[level[i]].  A banded row then costs nothing until its
    band is reached.  The last pivot is the determinant."""
    n = len(A)
    sign, scale, level = 1, [1], [0] * n
    for k in range(n):
        if not A[k][k]:
            p = next((i for i in range(k + 1, n) if A[i][k]), None)
            if p is None:
                return 0
            A[k], A[p] = A[p], A[k]
            level[k], level[p] = level[p], level[k]
            sign = -sign
        prev, top = scale[k], A[k]
        if level[k] != k:
            t = scale[level[k]]
            top[k:] = [x * prev // t for x in top[k:]]
        pivot = top[k]
        for i in range(k + 1, n):
            row = A[i]
            if not row[k]:
                continue
            if level[i] != k:
                t = scale[level[i]]
                row[k:] = [x * prev // t for x in row[k:]]
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - c * top[j]) // prev
            level[i] = k + 1
        scale.append(pivot)
    return sign * scale[-1]


def _dense(rows, cols) -> list:
    """The sparse rows as dense lists over cols, in that order."""
    at = {q: k for k, q in enumerate(cols)}
    out = []
    for row in rows:
        dense = [0] * len(at)
        for q, c in row.items():
            dense[at[q]] = c
        out.append(dense)
    return out


def _odd(perm) -> int:
    """The parity of a permutation of range(len(perm)): its length minus
    its number of cycles."""
    seen = [False] * len(perm)
    odd = len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            odd += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return odd & 1


def integer_det(rows) -> int:
    """Exact determinant of a square integer matrix held as n sparse rows
    {column: int} with columns in range(n), by fraction-free elimination.
    det_exact gives the same value by a state sum over any ring; this is
    the fast path for Z.

    From BLOCK_MIN_ROWS rows on, unless one row meets every column, the
    rows are split into the blocks of their row-column incidence (union
    find over columns).  A block with more rows than columns, an empty
    row or a column no row meets gives 0.  Otherwise the matrix is block
    diagonal after taking the blocks' rows and columns one block after
    another, so the determinant is the product of the blocks' eliminations
    times the signs of those two reorderings.  Blocks keep the entries of
    one block from growing with the pivots of the others."""
    n = len(rows)
    if n < BLOCK_MIN_ROWS or any(len(r) == n for r in rows):
        return _bareiss(_dense(rows, range(n)))
    root = list(range(n))

    def find(q):
        while root[q] != q:
            root[q] = q = root[root[q]]
        return q

    for row in rows:
        if not row:
            return 0
        first, *rest = map(find, row)
        for q in rest:
            root[q] = first
    blocks: dict = {}
    for i, row in enumerate(rows):
        blocks.setdefault(find(next(iter(row))), ([], []))[0].append(i)
    for q in range(n):
        blocks.setdefault(find(q), ([], []))[1].append(q)
    det, row_order, col_order = 1, [], []
    for rs, cs in blocks.values():
        if len(rs) != len(cs):
            return 0
        det *= _bareiss(_dense([rows[i] for i in rs], cs))
        if not det:
            return 0
        row_order += rs
        col_order += cs
    return -det if _odd(row_order) ^ _odd(col_order) else det


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
        if all(ring.eq(a, ring.mul(u, b)) for a, b in pairs):
            return True, u
    return False, None
