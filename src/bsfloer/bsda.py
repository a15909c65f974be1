"""Generators, the mod-2 grading, and the invariant matrices.

A generator picks one intersection point per beta circle so that the chosen
alpha curves are pairwise distinct, every alpha circle is used, and arcs are
used at most once.  Its grading adds four pieces: the local intersection
parities, the inversions of the permutation matching beta order to the total
alpha order, the inversions of the shuffle (unoccupied out-arcs, occupied
out-arcs), and the correction (a + n1) * k, everything mod 2.

The matrix of the invariant sends the incoming idempotent I to the outgoing
idempotent J = unoccupied out-arcs, summing (-1)^grading, optionally times
the product of the point weights.  Those sums come from one state-sum
engine on the diagram's incidence, without listing generators;
enumerate_generators and gr_da list and grade them one by one, for the
generators verb and as the reference the engine is tested against.

A closed diagram (no arcs) over Z has one entry, ((), ()): the determinant
of its beta x alpha-circle incidence when that is square, since a
generator is then a permutation with its sign, and no generator (the zero
map) otherwise.  _matrix takes that determinant by integer elimination
(rings.integer_det), which is polynomial where the state sum is
exponential in the number of circles.  Weighted and bordered diagrams,
generator counts and any other coefficient ring keep the state sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import exterior as X
from .diagram import HeegaardDiagram, reinterpret_one_sided
from .rings import ZZ, GroupRing, augmentation, integer_det, state_sums


@dataclass(frozen=True)
class Generator:
    """One chosen point per beta circle, aligned with the beta order."""

    points: tuple

    def alpha_ids(self) -> tuple:
        return tuple(p.alpha for p in self.points)


def enumerate_generators(h: HeegaardDiagram) -> list:
    """Backtracking over beta circles in stored order; the output order is
    lexicographic in (beta order, point order)."""
    by_beta = [h.points_on_beta(bid) for bid in h.beta_ids()]
    circles = set(h.alpha_circles)
    out: list = []
    chosen: list = []
    used: set = set()

    def rec(i: int) -> None:
        if len(circles - used) > len(by_beta) - i:
            return
        if i == len(by_beta):
            out.append(Generator(tuple(chosen)))
            return
        for p in by_beta[i]:
            if p.alpha in used:
                continue
            used.add(p.alpha)
            chosen.append(p)
            rec(i + 1)
            chosen.pop()
            used.discard(p.alpha)

    rec(0)
    return out


@dataclass(frozen=True)
class GradingData:
    intersection_parity: int
    inv_sigma_x: int
    inv_idempotent: int
    correction: int
    total: int
    o_l: tuple
    obar_l: tuple
    o_r: tuple
    obar_r: tuple
    k: int
    l: int


def _check_generator(h: HeegaardDiagram, x: Generator) -> None:
    ids = h.beta_ids()
    if len(x.points) != len(ids):
        raise ValueError("generator does not assign every beta circle")
    point_set = set(h.points)
    for bid, p in zip(ids, x.points):
        if p not in point_set or p.beta != bid:
            raise ValueError(f"generator point not on beta circle {bid!r}")
    alphas = x.alpha_ids()
    if len(set(alphas)) != len(alphas):
        raise ValueError("generator occupies an alpha curve twice")
    if not set(h.alpha_circles) <= set(alphas):
        raise ValueError("generator leaves an alpha circle unoccupied")


@lru_cache(maxsize=1 << 12)
def _arcs(n: int, bits: int) -> tuple:
    """One half of a final mask, n arcs at bits 0..n-1: the 1-based arcs
    on and off, and the parity of #{(j on, i off) : i > j}, the shuffle
    that moves the off arcs in front of the on ones.  The one decoder of
    both state sums, the invariant's and the Alexander functor's.  Bounded
    and shared by every diagram, since the halves repeat across diagrams
    while whole masks rarely repeat within one (an identity-like map has a
    different out-half for every mask)."""
    on = tuple([j for j in range(1, n + 1) if bits >> (j - 1) & 1])
    off = tuple([j for j in range(1, n + 1) if not bits >> (j - 1) & 1])
    free = ~bits & ((1 << n) - 1)
    return on, off, sum([(free >> j).bit_count() for j in on]) & 1


def _readout(h: HeegaardDiagram):
    """The decoder of h's final masks (bit q for position q of the total
    alpha order: out-arcs, then circles, then in-arcs).  decode(mask) gives
    the 1-based occupied in-arcs o_r and unoccupied out-arcs obar_l, then
    the parity of the two grading terms a generator's occupied set alone
    decides, inv(obar_l, o_l) and the correction (a + n1) * k.  Each half
    is read by _arcs."""
    n0, n1 = h.n0, h.n1
    all_out = (1 << n1) - 1
    shift = n1 + h.a
    flip = shift & 1

    def decode(mask: int) -> tuple:
        _, obar_l, inv_idem = _arcs(n1, mask & all_out)
        o_r = _arcs(n0, mask >> shift)[0]
        return o_r, obar_l, (inv_idem + flip * len(o_r)) & 1

    return decode


def gr_da(h: HeegaardDiagram, x: Generator) -> GradingData:
    _check_generator(h, x)
    i_sum = sum(1 for p in x.points if p.sign == -1)
    pos = {aid: i for i, aid in enumerate(h.alpha_order())}
    inv_sigma = X.perm_inversions([pos[p.alpha] for p in x.points])
    mask = sum(1 << pos[p.alpha] for p in x.points)
    o_r, obar_l, parity = _readout(h)(mask)
    o_l = tuple(j for j in range(1, h.n1 + 1) if j not in obar_l)
    obar_r = tuple(i for i in range(1, h.n0 + 1) if i not in o_r)
    inv_idem = X.cross_inversions(obar_l, o_l)
    correction = (h.a + h.n1) * len(o_r) % 2
    total = (i_sum + inv_sigma + parity) % 2
    return GradingData(
        intersection_parity=i_sum % 2,
        inv_sigma_x=inv_sigma,
        inv_idempotent=inv_idem,
        correction=correction,
        total=total,
        o_l=o_l, obar_l=obar_l, o_r=o_r, obar_r=obar_r,
        k=len(o_r), l=len(obar_l),
    )


def weight_ring(h: HeegaardDiagram) -> GroupRing:
    return GroupRing(h.group.free_rank, h.group.torsion_order)


@dataclass(frozen=True)
class Incidence:
    """A diagram compiled for the engines of one call.  rows: per beta
    circle in stored order, {position in the total alpha order:
    coefficient}, zero sums kept; circles: the alpha circles' positions."""

    ring: object
    rows: tuple
    circles: range


def incidence(h: HeegaardDiagram, weighted: bool = False,
              coeff=None) -> Incidence:
    """One pass over the points of h.  A coefficient sums coeff(point) over
    the points of one (beta, alpha) pair: by default the point's sign over
    Z, or over Z[H] when weighted, its sign times its weight."""
    ring = weight_ring(h) if weighted else ZZ
    coeff = coeff or ((lambda p: {p.weight: p.sign}) if weighted
                      else (lambda p: p.sign))
    pos = {aid: q for q, aid in enumerate(h.alpha_order())}
    rows: dict = {bid: {} for bid in h.beta_ids()}
    for p in h.points:
        row, q, c = rows[p.beta], pos[p.alpha], coeff(p)
        row[q] = ring.add(row[q], c) if q in row else c
    return Incidence(ring, tuple(rows.values()), range(h.n1, h.n1 + h.a))


def _state_sums(inc: Incidence, signed: bool = True) -> dict:
    """The generators of a diagram summed by occupied alpha curves:
    rings.state_sums over its incidence rows, every alpha circle required
    as in enumerate_generators.  Zero coefficients and zero sums are kept,
    so the work depends only on which curves meet, not on the signs or
    weights of the points; the readouts below skip the zero sums before
    decoding them.  Returns {final mask: value}; the final mask fixes the
    generator's idempotents.
    """
    circles = sum(1 << q for q in inc.circles)
    return state_sums(inc.ring, inc.rows, circles, signed)


def _matrix(h: HeegaardDiagram, inc: Incidence) -> X.GradedMap:
    """Only the nonzero sums are decoded: the map would drop the rest.  A
    closed diagram whose incidence is over ZZ itself takes no state sum:
    its one entry is integer_det of the rows when a == b, and there is no
    generator otherwise."""
    if inc.ring is ZZ and not h.n0 and not h.n1:
        d = integer_det(inc.rows) if h.a == h.b else 0
        return X.GradedMap(ZZ, 0, 0, h.degree, {((), ()): d} if d else {})
    ring, decode, is_zero = inc.ring, _readout(h), inc.ring.is_zero
    entries = {}
    for mask, v in _state_sums(inc).items():
        if is_zero(v):
            continue
        o_r, obar_l, parity = decode(mask)
        if parity:
            v = ring.neg(v)
        entries[(o_r, obar_l)] = v
    return X.GradedMap(ring, h.n0, h.n1, h.degree, entries)


def bsda_z(h: HeegaardDiagram, inc: Incidence | None = None) -> X.GradedMap:
    """Integer matrix: entry (I, J) sums (-1)^grading over the generators
    with occupied in-arcs I and unoccupied out-arcs J (inc: incidence(h))."""
    return _matrix(h, incidence(h) if inc is None else inc)


def bsda_zh(h: HeegaardDiagram, inc: Incidence | None = None) -> X.GradedMap:
    """Weighted matrix over Z[H]: each generator contributes its sign times
    the product of its point weights (inc: incidence(h, weighted=True))."""
    return _matrix(h, incidence(h, weighted=True) if inc is None else inc)


def generator_count(h: HeegaardDiagram) -> int:
    """Number of generators, without listing them."""
    counts = incidence(h, coeff=lambda p: 1)
    return sum(_state_sums(counts, signed=False).values())


def map_transform(f: X.GradedMap, new_ring, fn) -> X.GradedMap:
    """Entrywise ring change; the GradedMap drops zero images."""
    return X.GradedMap(new_ring, f.source_rank, f.target_rank, f.degree,
                       {k: fn(v) for k, v in f.entries.items()})


def augment_map(f_zh: X.GradedMap) -> X.GradedMap:
    """Send every weight to 1, landing back in the integer matrix."""
    return map_transform(f_zh, ZZ, augmentation)


def bsdd_element(h: HeegaardDiagram) -> X.ExtElement:
    """The one-sided form of the invariant, as a single element of the
    rank n0+n1 exterior algebra (incoming block first).

    Each generator lands on the basis monomial indexed by its unoccupied
    in-arcs and (shifted) unoccupied out-arcs; the sign is the one-sided
    grading plus the basis correction |unoccupied in-arcs|.  In the
    one-sided diagram those arcs are exactly its unoccupied out-arcs.
    """
    hdd = reinterpret_one_sided(h)
    f = _matrix(hdd, incidence(hdd))
    return X.ExtElement(ZZ, h.n0 + h.n1, {
        J: -v if sum(1 for j in J if j <= h.n0) & 1 else v
        for (_, J), v in f.entries.items()})
