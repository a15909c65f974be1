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

The closed rule: a closed diagram (no arcs) has one entry, ((), ()), its
signed generator count.  Over Z that is the determinant of its beta x
alpha-circle matrix when that is square, since a generator is then a
permutation with its sign, and 0 (the zero map) otherwise.  bsda_z sends
every closed diagram, by its shape alone, to closed_det, which sums the
point signs straight into a dense square and takes rings.det of it (an
integer elimination, polynomial where the state sum is exponential in the
number of circles); bsdd_element and homology.chi_sfh_surrogate over Z
read that entry.  Weighted and bordered diagrams and generator counts keep
the state sum (_matrix).  Incidence states the shape and normalization rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exterior as X
from .diagram import HeegaardDiagram, normalized_roles, reinterpret_one_sided
from .exterior import _arcs
from .rings import ZZ, GroupRing, augmentation, det, group_ring, state_sums


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


def _readout(inc: Incidence):
    """The decoder of the final masks of inc (bit q for position q of the
    total alpha order: out-arcs, then circles, then in-arcs).  decode(mask)
    gives the 1-based occupied in-arcs o_r and unoccupied out-arcs obar_l,
    then the parity of the two grading terms a generator's occupied set
    alone decides, inv(obar_l, o_l) and the correction (a + n1) * k.  Each
    half is read by exterior._arcs."""
    n0, n1 = inc.n0, inc.n1
    all_out = (1 << n1) - 1
    shift = inc.circles.stop        # n1 + a
    flip = shift & 1

    def decode(mask: int) -> tuple:
        _, obar_l, inv_idem = _arcs(n1, mask & all_out)
        o_r = _arcs(n0, mask >> shift)[0]
        return o_r, obar_l, (inv_idem + flip * len(o_r)) & 1

    return decode


def gr_da(h: HeegaardDiagram, x: Generator) -> GradingData:
    """The grading of one generator, read off its own alpha ids and not
    from the engine's mask decoder, so that it can test that decoder."""
    _check_generator(h, x)
    i_sum = sum(1 for p in x.points if p.sign == -1)
    pos = {aid: i for i, aid in enumerate(h.alpha_order())}
    inv_sigma = X.perm_inversions([pos[p.alpha] for p in x.points])
    used = set(x.alpha_ids())
    o_l = tuple(j for j, (aid, _) in enumerate(h.alpha_out, 1) if aid in used)
    obar_l = tuple(j for j in range(1, h.n1 + 1) if j not in o_l)
    o_r = tuple(i for i, (aid, _) in enumerate(h.alpha_in, 1) if aid in used)
    obar_r = tuple(i for i in range(1, h.n0 + 1) if i not in o_r)
    inv_idem = X.cross_inversions(obar_l, o_l)
    correction = (h.a + h.n1) * len(o_r) % 2
    total = (i_sum + inv_sigma + inv_idem + correction) % 2
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
    """Z[H] for h's group H, one shared object per group
    (rings.group_ring)."""
    return group_ring(h.group.free_rank, h.group.torsion_order)


@dataclass(frozen=True)
class Incidence:
    """A diagram compiled for the engines of one call, with its shape.
    rows: per beta circle (b of them) in stored order, {position in the
    total alpha order: coefficient}, zero sums kept; circles: the positions
    n1..n1+a-1 of the alpha circles; n0: the in-arcs; degree n1 + a - b.
    The normalization rule, normalize(h) compiled from h: h's columns shift
    by n1; n1 newOut rows {n1 + j: +1, j: -1} come first, h's rows follow
    as the core, and n0 newIn rows {2*n1 + a + i: -1, 2*n1 + a + n0 + i: +1}
    last (the units at the identity weight over Z[H])."""

    ring: object
    rows: tuple
    circles: range
    n0: int
    n1 = property(lambda self: self.circles.start)
    degree = property(lambda self: self.circles.stop - len(self.rows))


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
    return Incidence(ring, tuple(rows.values()), range(h.n1, h.n1 + h.a), h.n0)


class NormalizedIncidence(Incidence):
    """incidence(normalize(h)); only normalized_incidence builds one."""


def normalized_incidence(h: HeegaardDiagram, weighted: bool = False):
    """The incidence of diagram.normalize(h) in key order, not building it:
    incidence(h) on a normalize output, else the Incidence docstring's rule."""
    inc, n1, n0 = incidence(h, weighted), h.n1, h.n0
    try:
        normalized_roles(h)
        return NormalizedIncidence(inc.ring, inc.rows, inc.circles, n0)
    except ValueError:      # not a normalize output
        pass
    unit, ins = inc.ring.from_int, inc.circles.stop + n1    # ins: 2*n1 + a
    rows = ([{n1 + j: unit(1), j: unit(-1)} for j in range(n1)]
            + [{q + n1: c for q, c in row.items()} for row in inc.rows]
            + [{ins + i: unit(-1), ins + n0 + i: unit(1)} for i in range(n0)])
    return NormalizedIncidence(inc.ring, tuple(rows), range(n1, ins + n0), n0)


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


def closed_det(h: HeegaardDiagram) -> int:
    """The signed generator sum of a closed diagram: the determinant of its
    beta x alpha-circle matrix when a == b, built dense in one pass over
    the points, and 0 otherwise."""
    a = h.a
    if a != h.b:
        return 0
    col = dict(zip(h.alpha_circles, range(a)))
    rows = {bid: [0] * a for bid, _ in h.beta_circles}
    for p in h.points:
        rows[p.beta][col[p.alpha]] += p.sign
    return det(ZZ, list(rows.values()))


def _matrix(inc: Incidence) -> X.GradedMap:
    """Only the nonzero sums are decoded: the map would drop the rest."""
    ring, decode, is_zero = inc.ring, _readout(inc), inc.ring.is_zero
    entries = {}
    for mask, v in _state_sums(inc).items():
        if is_zero(v):
            continue
        o_r, obar_l, parity = decode(mask)
        if parity:
            v = ring.neg(v)
        entries[(o_r, obar_l)] = v
    return X.GradedMap(ring, inc.n0, inc.n1, inc.degree, entries)


def bsda_z(h: HeegaardDiagram, inc: Incidence | None = None) -> X.GradedMap:
    """Integer matrix: entry (I, J) sums (-1)^grading over the generators
    with occupied in-arcs I and unoccupied out-arcs J (inc: incidence(h),
    or normalized_incidence(h) for normalize(h)).  A closed diagram takes
    the closed rule of the module docstring and reads its points, never inc."""
    if not h.n0 and not h.n1:
        d = closed_det(h)
        return X.GradedMap(ZZ, 0, 0, h.degree, {((), ()): d} if d else {})
    return _matrix(incidence(h) if inc is None else inc)


def bsda_zh(h: HeegaardDiagram, inc: Incidence | None = None) -> X.GradedMap:
    """Weighted matrix over Z[H]: each generator contributes its sign times
    the product of its point weights (inc: weighted, as in bsda_z)."""
    return _matrix(incidence(h, weighted=True) if inc is None else inc)


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
    f = bsda_z(reinterpret_one_sided(h))
    return X.ExtElement(ZZ, h.n0 + h.n1, {
        J: -v if sum(1 for j in J if j <= h.n0) & 1 else v
        for (_, J), v in f.entries.items()})
