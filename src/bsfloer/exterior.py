"""Exterior algebras with subset bases, and graded maps between them.

An element of the rank-n exterior algebra is a finite combination of basis
monomials g_I indexed by strictly increasing subsets I of {1..n}.  Graded
maps store one homogeneous family of matrix entries indexed by pairs
(input subset, output subset).  Tensor products are encoded by shifting:
the pair (I, I') lives as the subset I union (n + I') in rank n + n', so
the block structure is positional, not nested.

Sign conventions follow the super rule throughout: moving a degree-p
symbol past a degree-q symbol costs (-1)^{pq}.

Keys are canonical on construction: an ExtElement or a GradedMap accepts a
subset only as a tuple S with S == tuple(sorted({int(i) for i in S})) and
indices in 1..rank, and never re-keys or re-adds its terms, so an
engine-built map costs one pass.  Callers pass canonical tuples; nothing
here sorts, deduplicates or converts a key for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .rings import (Ring, accumulate, join_terms, signed_term,
                    values_eq_up_to_unit)


_MEMO_SIZE = 1 << 12
_CANONICAL: set = set()   # subsets found canonical, at most _MEMO_SIZE


def _canonical(S) -> bool:
    """S == tuple(sorted({int(i) for i in S})), the key rule of both
    constructors.  The memo holds only subsets that passed the rule, and a
    subset equal to one that passed passes it too, so a hit gives the same
    verdict as the rule."""
    if S in _CANONICAL:
        return True
    if tuple(sorted({int(i) for i in S})) != S:
        return False
    if len(_CANONICAL) < _MEMO_SIZE:
        _CANONICAL.add(S)
    return True


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


@lru_cache(maxsize=1 << 12)
def _arcs(n: int, bits: int) -> tuple:
    """One half of a mask, n positions at bits 0..n-1: the 1-based positions
    on and off, and the parity of #{(j on, i off) : i > j}, the shuffle
    putting the off ones first.  The decoder of all three maps (invariant,
    Alexander functor, kernel wedge) and of the pairing.  Bounded and
    shared: halves repeat across diagrams, whole masks rarely in one."""
    on = tuple([j for j in range(1, n + 1) if bits >> (j - 1) & 1])
    off = tuple([j for j in range(1, n + 1) if not bits >> (j - 1) & 1])
    free = ~bits & ((1 << n) - 1)
    return on, off, sum([(free >> j).bit_count() for j in on]) & 1


# ---------------------------------------------------------------------------
# elements


@dataclass
class ExtElement:
    ring: Ring
    rank: int
    terms: dict

    def __post_init__(self) -> None:
        is_zero, clean = self.ring.is_zero, {}
        for S, c in self.terms.items():
            if not _canonical(S):
                raise ValueError(f"term {S!r} is not canonical")
            if S and not (1 <= S[0] and S[-1] <= self.rank):
                raise ValueError(f"index out of range in {S!r}")
            if not is_zero(c):
                clean[S] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms


def ext_zero(ring: Ring, rank: int) -> ExtElement:
    return ExtElement(ring, rank, {})


def ext_basis(ring: Ring, rank: int, I, coeff=None) -> ExtElement:
    c = ring.one() if coeff is None else coeff
    return ExtElement(ring, rank, {I: c})


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


def epsilon(x: ExtElement, y: ExtElement):
    """Coefficient of the top monomial g_{1..n} in x wedge y, both of rank
    n (wedge refuses two ranks)."""
    w = wedge(x, y)
    return w.terms.get(tuple(range(1, x.rank + 1)), x.ring.zero())


def ext_str(x: ExtElement) -> str:
    return join_terms(
        signed_term(x.ring.to_str(x.terms[S]), f"g{subset_str(S)}")
        for S in sorted(x.terms, key=sort_key))


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
        is_zero, n0, n1 = self.ring.is_zero, self.source_rank, self.target_rank
        clean: dict = {}
        for key, c in self.entries.items():
            I, J = key
            # the memo hit inline: every engine map comes through here, and
            # two calls of _canonical per key cost bordered_chains ~4%
            if not (I in _CANONICAL and J in _CANONICAL
                    or _canonical(I) and _canonical(J)):
                raise ValueError(f"entry {key!r} is not canonical")
            if I and (I[0] < 1 or I[-1] > n0):
                raise ValueError("input subset out of range")
            if J and (J[0] < 1 or J[-1] > n1):
                raise ValueError("output subset out of range")
            if len(J) - len(I) != self.degree:
                raise ValueError(
                    f"entry ({I}, {J}) breaks homogeneity of degree {self.degree}")
            if not is_zero(c):
                clean[key] = c
        self.entries = clean

    def is_zero(self) -> bool:
        return not self.entries


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
    by_source: dict = {}
    for (J, K), b in g.entries.items():
        by_source.setdefault(J, []).append((K, b))
    out: dict = {}
    for (I, J), a in f.entries.items():
        for K, b in by_source.get(J, ()):
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
    # shift-encoded keys are distinct; the constructor drops zero products
    out: dict = {}
    for (I, J), a in f.entries.items():
        for I2, J2, b, odd in shifted:
            c = ring.mul(a, b)
            out[I + I2, J + J2] = ring.neg(c) if odd else c
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
    if not g.entries:
        return False, None
    # the candidate unit comes from the least key of g, the first pair with
    # a nonzero b in key order; the order of the other pairs is immaterial
    fe, ge, zero = f.entries, g.entries, f.ring.zero()
    first = min(ge)
    pairs = [(fe.get(first, zero), ge[first])]
    pairs += [(a, ge.get(k, zero)) for k, a in fe.items() if k != first]
    pairs += [(zero, b) for k, b in ge.items() if k not in fe]
    return values_eq_up_to_unit(f.ring, pairs)


def entry_order(f: GradedMap) -> list:
    """The keys (I, J) of f in print order: by I, then J, each by sort_key."""
    return sorted(f.entries, key=lambda k: (sort_key(k[0]), sort_key(k[1])))


def map_lines(f: GradedMap) -> list:
    lines = []
    for I, J in entry_order(f):
        v = f.ring.to_str(f.entries[(I, J)])
        lines.append(f"out{subset_str(J)} <- in{subset_str(I)}: {v}")
    return lines


# ---------------------------------------------------------------------------
# pairing against the incoming block


def compose_eps_tensor(element: ExtElement, n0: int, n1: int,
                       degree: int) -> GradedMap:
    """Turn an element of the rank n0+n1 algebra (incoming block first) into
    the graded map sending g_I to the top-pairing of g_I against the incoming
    part, tensored with the outgoing part.

    A term c*g_S (the mask with bit i - 1 for i in S) is entry (I, B),
    c * (-1)^{n0*|B| + p}, by _arcs: the in-half gives I (the in-arcs off)
    and p, the shuffle sign sorting (I, in-arcs on) into {1..n0}; the
    out-half gives B (the out-arcs on).  n0*|B| moves the incoming pairing
    past the outgoing block.  S <-> (I, B) is a bijection: no entry sums.
    """
    if element.rank != n0 + n1:
        raise ValueError("element rank must be n0 + n1")
    ring, low = element.ring, (1 << n0) - 1
    out: dict = {}
    for S, c in element.terms.items():
        mask = sum([1 << (i - 1) for i in S])
        _, I, p = _arcs(n0, mask & low)
        B = _arcs(n1, mask >> n0)[0]
        out[I, B] = ring.neg(c) if (n0 * len(B) + p) & 1 else c
    return GradedMap(ring, n0, n1, degree, out)
