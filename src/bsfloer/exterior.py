"""Exterior algebras with subset bases, and graded maps between them.

An element of the rank-n exterior algebra is a finite combination of basis
monomials g_I indexed by strictly increasing subsets I of {1..n}.  Graded
maps store one homogeneous family of matrix entries indexed by pairs
(input subset, output subset).  Tensor products are encoded by shifting:
the pair (I, I') lives as the subset I union (n + I') in rank n + n', so
the block structure is positional, not nested.

Sign conventions follow the super rule throughout: moving a degree-p
symbol past a degree-q symbol costs (-1)^{pq}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .rings import Ring, accumulate, values_eq_up_to_unit


def subset_key(indices) -> tuple:
    """The canonical key of a subset: its distinct indices as ints, in
    increasing order.  Keys are immutable tuples, answered from a bounded
    memo, so the canonical keys of existing maps are not sorted again."""
    return _tuple_key(indices if type(indices) is tuple else tuple(indices))


@lru_cache(maxsize=1 << 12)
def _tuple_key(indices: tuple) -> tuple:
    return tuple(sorted({int(i) for i in indices}))


def sort_key(I: tuple) -> tuple:
    """Subsets order by (cardinality, lexicographic) everywhere."""
    return (len(I), I)


def subset_str(I) -> str:
    return "{" + ",".join(str(i) for i in I) + "}"


def subsets(n: int, size=None):
    """All subsets of {1..n} in (cardinality, lex) order, or one cardinality."""
    rng = range(1, n + 1)
    if size is None:
        for k in range(n + 1):
            yield from combinations(rng, k)
    else:
        yield from combinations(rng, size)


def cross_inversions(left, right) -> int:
    """#{(u,v) in left x right : u > v}: inversions of the shuffle that sorts
    the concatenation (left, right) into increasing order."""
    return sum(1 for u in left for v in right if u > v)


def perm_inversions(seq) -> int:
    """#{i < j : seq[i] > seq[j]}."""
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j])


# ---------------------------------------------------------------------------
# elements


@dataclass
class ExtElement:
    ring: Ring
    rank: int
    terms: dict

    def __post_init__(self) -> None:
        clean: dict = {}
        for S, c in self.terms.items():
            key = subset_key(S)
            if len(key) != len(tuple(S)):
                raise ValueError(f"repeated index in {S!r}")
            if key and not (1 <= key[0] and key[-1] <= self.rank):
                raise ValueError(f"index out of range in {S!r}")
            accumulate(self.ring, clean, key, c)
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """The common cardinality of all terms, or None if mixed or zero."""
        sizes = {len(S) for S in self.terms}
        if len(sizes) == 1:
            return sizes.pop()
        return None


def ext_zero(ring: Ring, rank: int) -> ExtElement:
    return ExtElement(ring, rank, {})


def ext_basis(ring: Ring, rank: int, I, coeff=None) -> ExtElement:
    c = ring.one() if coeff is None else coeff
    return ExtElement(ring, rank, {subset_key(I): c})


def ext_add(x: ExtElement, y: ExtElement) -> ExtElement:
    _same_algebra(x, y)
    out = dict(x.terms)
    for S, c in y.terms.items():
        accumulate(x.ring, out, S, c)
    return ExtElement(x.ring, x.rank, out)


def ext_neg(x: ExtElement) -> ExtElement:
    return ExtElement(x.ring, x.rank, {S: x.ring.neg(c) for S, c in x.terms.items()})


def ext_scale(c, x: ExtElement) -> ExtElement:
    return ExtElement(x.ring, x.rank,
                      {S: x.ring.mul(c, v) for S, v in x.terms.items()})


def ext_eq(x: ExtElement, y: ExtElement) -> bool:
    _same_algebra(x, y)
    if len(x.terms) != len(y.terms):
        return False
    return all(S in y.terms and x.ring.eq(c, y.terms[S])
               for S, c in x.terms.items())


def _same_algebra(x: ExtElement, y: ExtElement) -> None:
    if x.rank != y.rank:
        raise ValueError("elements of different ambient rank")
    if x.ring.name != y.ring.name:
        raise ValueError("elements over different rings")


def wedge(x: ExtElement, y: ExtElement) -> ExtElement:
    _same_algebra(x, y)
    ring = x.ring
    out: dict = {}
    for I, a in x.terms.items():
        si = set(I)
        for J, b in y.terms.items():
            if si & set(J):
                continue
            c = ring.mul(a, b)
            if cross_inversions(I, J) % 2:
                c = ring.neg(c)
            accumulate(ring, out, tuple(sorted(I + J)), c)
    return ExtElement(ring, x.rank, out)


def wedge_list(ring: Ring, rank: int, elements) -> ExtElement:
    acc = ext_basis(ring, rank, ())
    for e in elements:
        acc = wedge(acc, e)
    return acc


def epsilon(x: ExtElement, y: ExtElement, n0=None):
    """Coefficient of the top monomial g_{1..n0} in x wedge y."""
    n0 = x.rank if n0 is None else n0
    if x.rank != n0 or y.rank != n0:
        raise ValueError("epsilon needs both factors in rank n0")
    w = wedge(x, y)
    return w.terms.get(tuple(range(1, n0 + 1)), x.ring.zero())


def ext_str(x: ExtElement) -> str:
    if not x.terms:
        return "0"
    parts = []
    for S in sorted(x.terms, key=sort_key):
        cs = x.ring.to_str(x.terms[S])
        neg = cs.startswith("-")
        body = cs[1:] if neg else cs
        if " " in cs:
            body = f"({cs})"
            neg = False
        sym = f"g{subset_str(S)}"
        body = sym if body == "1" else f"{body}*{sym}"
        parts.append(("-" if neg else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# graded maps


@dataclass
class GradedMap:
    """Homogeneous map between exterior algebras, stored as matrix entries
    keyed by (input subset, output subset) with |output| = |input| + degree."""

    ring: Ring
    source_rank: int
    target_rank: int
    degree: int
    entries: dict

    def __post_init__(self) -> None:
        clean: dict = {}
        for (I, J), c in self.entries.items():
            I, J = subset_key(I), subset_key(J)
            if I and I[-1] > self.source_rank:
                raise ValueError("input subset out of range")
            if J and J[-1] > self.target_rank:
                raise ValueError("output subset out of range")
            if len(J) - len(I) != self.degree:
                raise ValueError(
                    f"entry ({I}, {J}) breaks homogeneity of degree {self.degree}")
            accumulate(self.ring, clean, (I, J), c)
        self.entries = clean

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, I, J):
        return self.entries.get((subset_key(I), subset_key(J)), self.ring.zero())


def zero_map(ring: Ring, n0: int, n1: int, degree: int) -> GradedMap:
    return GradedMap(ring, n0, n1, degree, {})


def identity_map(ring: Ring, n: int) -> GradedMap:
    return GradedMap(ring, n, n, 0, {(I, I): ring.one() for I in subsets(n)})


def map_neg(f: GradedMap) -> GradedMap:
    return GradedMap(f.ring, f.source_rank, f.target_rank, f.degree,
                     {k: f.ring.neg(c) for k, c in f.entries.items()})


def map_scale(c, f: GradedMap) -> GradedMap:
    return GradedMap(f.ring, f.source_rank, f.target_rank, f.degree,
                     {k: f.ring.mul(c, v) for k, v in f.entries.items()})


def map_eq(f: GradedMap, g: GradedMap) -> bool:
    _same_shape(f, g)
    if f.degree != g.degree and f.entries and g.entries:
        raise ValueError("maps of different degrees")
    if len(f.entries) != len(g.entries):
        return False
    return all(k in g.entries and f.ring.eq(c, g.entries[k])
               for k, c in f.entries.items())


def _same_shape(f: GradedMap, g: GradedMap) -> None:
    if (f.source_rank, f.target_rank) != (g.source_rank, g.target_rank):
        raise ValueError("maps of different shapes")
    if f.ring.name != g.ring.name:
        raise ValueError("maps over different rings")


def apply_map(f: GradedMap, x: ExtElement) -> ExtElement:
    if x.rank != f.source_rank:
        raise ValueError("element rank does not match map source")
    ring = f.ring
    out: dict = {}
    for (I, J), c in f.entries.items():
        a = x.terms.get(I)
        if a is not None:
            accumulate(ring, out, J, ring.mul(c, a))
    return ExtElement(ring, f.target_rank, out)


def compose(g: GradedMap, f: GradedMap) -> GradedMap:
    """g after f; degrees add, no extra signs."""
    if f.target_rank != g.source_rank:
        raise ValueError("composition rank mismatch")
    if f.ring.name != g.ring.name:
        raise ValueError("maps over different rings")
    ring = f.ring
    out: dict = {}
    for (I, J), a in f.entries.items():
        for (J2, K), b in g.entries.items():
            if J2 == J:
                accumulate(ring, out, (I, K), ring.mul(b, a))
    return GradedMap(ring, f.source_rank, g.target_rank,
                     f.degree + g.degree, out)


def shift_subset(I, n: int) -> tuple:
    return tuple(i + n for i in I)


def super_tensor(f: GradedMap, g: GradedMap) -> GradedMap:
    """(f tensor g)(x tensor y) = (-1)^{deg(f)|y|} f(x) tensor g(y), on
    shift-encoded tensor bases."""
    if f.ring.name != g.ring.name:
        raise ValueError("maps over different rings")
    ring = f.ring
    # each entry of g shifted, with its sign parity, once
    shifted = [(shift_subset(I2, f.source_rank),
                shift_subset(J2, f.target_rank), b, f.degree * len(I2) & 1)
               for (I2, J2), b in g.entries.items()]
    out: dict = {}
    for (I, J), a in f.entries.items():
        for I2, J2, b, odd in shifted:
            c = ring.mul(a, b)
            accumulate(ring, out, (I + I2, J + J2), ring.neg(c) if odd else c)
    return GradedMap(ring, f.source_rank + g.source_rank,
                     f.target_rank + g.target_rank,
                     f.degree + g.degree, out)


def monoidal_phi(x: ExtElement, y: ExtElement, d: int = 0) -> ExtElement:
    """Structure map of the monoidal comparison: x tensor y goes to
    (-1)^{d|y|} x wedge (y shifted past x)."""
    if x.ring.name != y.ring.name:
        raise ValueError("elements over different rings")
    ring = x.ring
    out: dict = {}
    for I, a in x.terms.items():
        for J, b in y.terms.items():
            c = ring.mul(a, b)
            if (d * len(J)) % 2:
                c = ring.neg(c)
            accumulate(ring, out, I + shift_subset(J, x.rank), c)
    return ExtElement(ring, x.rank + y.rank, out)


def braiding(ring: Ring, n: int, n2: int) -> GradedMap:
    """v tensor w to (-1)^{|v||w|} w tensor v on shift-encoded bases."""
    out: dict = {}
    one = ring.one()
    for I in subsets(n):
        for J in subsets(n2):
            src = I + shift_subset(J, n)
            dst = J + shift_subset(I, n2)
            out[(src, dst)] = one if (len(I) * len(J)) % 2 == 0 else ring.neg(one)
    return GradedMap(ring, n + n2, n2 + n, 0, out)


def eq_up_to_global_unit(f: GradedMap, g: GradedMap):
    """f = u*g for one unit u across all entries; returns (bool, u or None)."""
    _same_shape(f, g)
    if f.is_zero() and g.is_zero():
        return True, f.ring.one()
    if f.degree != g.degree and f.entries and g.entries:
        return False, None
    keys = set(f.entries) | set(g.entries)
    zero = f.ring.zero()
    pairs = [(f.entries.get(k, zero), g.entries.get(k, zero)) for k in sorted(keys)]
    return values_eq_up_to_unit(f.ring, pairs)


def map_lines(f: GradedMap) -> list:
    lines = []
    for I, J in sorted(f.entries, key=lambda k: (sort_key(k[0]), sort_key(k[1]))):
        v = f.ring.to_str(f.entries[(I, J)])
        lines.append(f"out{subset_str(J)} <- in{subset_str(I)}: {v}")
    return lines


def map_str(f: GradedMap) -> str:
    return "\n".join(map_lines(f)) if f.entries else "0"


# ---------------------------------------------------------------------------
# pairing against the incoming block


def compose_eps_tensor(element: ExtElement, n0: int, n1: int,
                       degree=None) -> GradedMap:
    """Turn an element of the rank n0+n1 algebra (incoming block first) into
    the graded map sending g_I to the top-pairing of g_I against the incoming
    part, tensored with the outgoing part.

    For a term c*g_S with S = A union (n0 + B):
        entry (I = complement of A, J = B) gains
        c * (-1)^{n0*|B|} * (-1)^{#{(u,v) in I x A : u > v}}.

    The first sign moves the whole incoming pairing past the outgoing block;
    the second is the shuffle sign sorting (complement(A), A) into {1..n0}.
    """
    if element.rank != n0 + n1:
        raise ValueError("element rank must be n0 + n1")
    ring = element.ring
    out: dict = {}
    for S, c in element.terms.items():
        A = tuple(i for i in S if i <= n0)
        B = tuple(i - n0 for i in S if i > n0)
        aset = set(A)
        I = tuple(i for i in range(1, n0 + 1) if i not in aset)
        sign = n0 * len(B) + cross_inversions(I, A)
        accumulate(ring, out, (I, B), c if sign % 2 == 0 else ring.neg(c))
    if degree is None:
        k = element.homogeneous_degree()
        if k is None and element.terms:
            raise ValueError("inhomogeneous element has no single degree")
        degree = (k - n0) if k is not None else 0
    return GradedMap(ring, n0, n1, degree, out)
