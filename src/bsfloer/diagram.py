"""Formal arc diagrams and bordered Heegaard diagrams.

Diagrams here are purely combinatorial: curves are ids, intersections are
(alpha id, beta id, sign, weight) records, and the geometry is represented
only through orderings and orientation flags.  Every downstream formula
consumes exactly this data, so nothing about positions along curves is
stored, and gluing merges point sets by union.

All orderings are array orders.  The total order on alpha curves is always
(outgoing arcs, circles, incoming arcs).
"""

from __future__ import annotations

import json
import reprlib
import sys
from contextlib import suppress
from dataclasses import dataclass, replace

from .rings import GroupDescriptor, parse_weight


# ---------------------------------------------------------------------------
# arc diagrams


@dataclass(frozen=True, slots=True)
class ArcDiagram:
    """A finite union of intervals and circles with 2k matched points.

    Points are numbered consecutively through the components array; the
    matching is an ordered list of k pairs, and that list order is the arc
    order used everywhere.
    """

    components: tuple = ()
    matching: tuple = ()
    type_tag: str = "alpha"

    def __post_init__(self) -> None:
        comps = _pairs(self.components, "components")
        object.__setattr__(self, "components", comps)
        pairs = _pairs(self.matching, "matching")
        with suppress(TypeError):   # incomparable points: check names them
            pairs = tuple(tuple(sorted(pair)) for pair in pairs)
        object.__setattr__(self, "matching", pairs)

    @property
    def arc_count(self) -> int:
        return len(self.matching)

    @property
    def point_count(self) -> int:
        return sum(c for _, c in self.components)

    def is_empty(self) -> bool:
        return not self.components and not self.matching

    def check(self, where: str = "") -> None:
        """Raise ValueError at the first fault, its message prefixed by
        where: the type tag, each component, each matched point, and last
        the points left unmatched.  A count or a point is an int, not a
        bool or a float."""
        if self.type_tag not in ("alpha", "beta"):
            raise ValueError(f"{where}arc diagram type "
                             f"{reprlib.repr(self.type_tag)} not alpha/beta")
        for kind, count in self.components:
            if kind not in ("interval", "circle"):
                raise ValueError(f"{where}component kind {reprlib.repr(kind)} "
                                 "not interval/circle")
            if type(count) is not int:
                raise ValueError(f"{where}point count {reprlib.repr(count)} "
                                 "on a component is not an integer")
            if count < 0:
                raise ValueError(f"{where}negative point count on a component")
        total, seen = self.point_count, set()
        for x in (x for pair in self.matching for x in pair):
            if type(x) is not int:
                raise ValueError(f"{where}matched point {reprlib.repr(x)} "
                                 "is not an integer")
            if not 0 <= x < total:
                raise ValueError(f"{where}matched point {reprlib.repr(x)} "
                                 "out of range")
            if x in seen:
                raise ValueError(f"{where}point {x} matched twice")
            seen.add(x)
        if missing := total - len(seen):
            raise ValueError(f"{where}{reprlib.repr(missing)} points left "
                             "unmatched")


def _pairs(records, field: str) -> tuple:
    """records as a tuple of pairs, refusing the first that is no pair."""
    for r in records:
        if not isinstance(r, (tuple, list)) or len(r) != 2:
            raise ValueError(f"{field} entry {reprlib.repr(r)} is not a pair")
    return tuple(map(tuple, records))


EMPTY_ARCS = ArcDiagram()


def build_arc_diagram(components, matching, type_tag: str = "alpha") -> ArcDiagram:
    z = ArcDiagram(tuple(components), tuple(matching), type_tag)
    z.check()
    return z


def interval_arcs(n: int, matching=None) -> ArcDiagram:
    """Single interval with 2n points; default matching pairs neighbours."""
    if n == 0:
        return EMPTY_ARCS
    if matching is None:
        matching = [(2 * i, 2 * i + 1) for i in range(n)]
    return build_arc_diagram([("interval", 2 * n)], matching)


def dual(z: ArcDiagram) -> ArcDiagram:
    """Combinatorial shadow of the dual: same arcs, type flipped."""
    flip = "beta" if z.type_tag == "alpha" else "alpha"
    return ArcDiagram(z.components, z.matching, flip)


def reverse(z: ArcDiagram) -> ArcDiagram:
    """Reverse the orientation of every component by reversing positions."""
    remap = {}
    base = 0
    for _, count in z.components:
        for i in range(count):
            remap[base + i] = base + count - 1 - i
        base += count
    matching = tuple((remap[p], remap[q]) for p, q in z.matching)
    return ArcDiagram(z.components, matching, z.type_tag)


def concat_arcs(z1: ArcDiagram, z2: ArcDiagram) -> ArcDiagram:
    if z1.is_empty():
        return z2
    if z2.is_empty():
        return z1
    if z1.type_tag != z2.type_tag:
        raise ValueError("cannot concatenate arc diagrams of different types")
    shift = z1.point_count
    matching = z1.matching + tuple((p + shift, q + shift) for p, q in z2.matching)
    return ArcDiagram(z1.components + z2.components, matching, z1.type_tag)


# ---------------------------------------------------------------------------
# Heegaard diagrams


@dataclass(frozen=True, slots=True)
class Point:
    alpha: str
    beta: str
    sign: int
    weight: tuple       # a GroupDescriptor weight (e1, ..., er, s)


@dataclass(frozen=True, slots=True)
class HeegaardDiagram:
    group: GroupDescriptor
    boundary_left: ArcDiagram       # Z1, read by the outgoing arcs
    boundary_right: ArcDiagram      # Z0, read by the incoming arcs
    alpha_out: tuple                # (id, orient) per Z1 arc
    alpha_circles: tuple            # ids
    alpha_in: tuple                 # (id, orient) per Z0 arc
    beta_circles: tuple             # (id, role or None)
    points: tuple

    @property
    def n1(self) -> int:
        return self.boundary_left.arc_count

    @property
    def n0(self) -> int:
        return self.boundary_right.arc_count

    @property
    def a(self) -> int:
        return len(self.alpha_circles)

    @property
    def b(self) -> int:
        return len(self.beta_circles)

    @property
    def degree(self) -> int:
        """Homogeneity degree of the associated map: n1 + circles - betas."""
        return self.n1 + self.a - self.b

    def alpha_order(self) -> tuple:
        """Total alpha order: outgoing arcs, circles, incoming arcs."""
        return (tuple(i for i, _ in self.alpha_out) + self.alpha_circles
                + tuple(i for i, _ in self.alpha_in))

    def beta_ids(self) -> tuple:
        return tuple(i for i, _ in self.beta_circles)

    def points_on_alpha(self, aid: str) -> tuple:
        return tuple(p for p in self.points if p.alpha == aid)

    def points_on_beta(self, bid: str) -> tuple:
        return tuple(p for p in self.points if p.beta == bid)


def make_diagram(group, boundary_left, boundary_right, alpha_out,
                 alpha_circles, alpha_in, beta_circles, points,
                 check: bool = True) -> HeegaardDiagram:
    h = HeegaardDiagram(
        group=group,
        boundary_left=boundary_left if boundary_left is not None else EMPTY_ARCS,
        boundary_right=boundary_right if boundary_right is not None else EMPTY_ARCS,
        alpha_out=tuple(map(tuple, alpha_out)),
        alpha_circles=tuple(alpha_circles),
        alpha_in=tuple(map(tuple, alpha_in)),
        beta_circles=tuple(map(tuple, beta_circles)),
        points=tuple(points),
    )
    if check:
        validate(h)
    return h


def validate(h: HeegaardDiagram) -> None:
    """Raise ValueError at the first structural fault: the boundaries, the
    arc counts, the curve records (each a pair), the curve ids (each a str;
    a point's references too) and their duplicates, orientation flags, the
    group's and points' types, the weights (each a tuple), their exponents,
    each point, then the role tags (role_rows).  A sign or a weight
    exponent is an int, not a bool or a float.  Every quoted value goes
    through reprlib.repr."""
    for side, z in (("left", h.boundary_left), ("right", h.boundary_right)):
        z.check(f"boundary {side}: ")
        if not z.is_empty() and z.type_tag != "alpha":
            raise ValueError(f"boundary {side} must be an alpha arc diagram")
    if len(h.alpha_out) != h.boundary_left.arc_count:
        raise ValueError(f"{len(h.alpha_out)} outgoing arcs for "
                         f"{h.boundary_left.arc_count} matching arcs")
    if len(h.alpha_in) != h.boundary_right.arc_count:
        raise ValueError(f"{len(h.alpha_in)} incoming arcs for "
                         f"{h.boundary_right.arc_count} matching arcs")
    for field in ("alpha_out", "alpha_in", "beta_circles"):
        _pairs(getattr(h, field), field)
    alpha_ids, beta_ids = h.alpha_order(), h.beta_ids()
    if bad := [i for i in alpha_ids + beta_ids if type(i) is not str]:
        raise ValueError(f"curve id {reprlib.repr(bad[0])} is not a string")
    aset, bset = set(alpha_ids), set(beta_ids)
    if len(aset) != len(alpha_ids):
        raise ValueError("duplicate alpha id")
    if len(bset) != len(beta_ids):
        raise ValueError("duplicate beta id")
    for _, orient in h.alpha_out + h.alpha_in:
        if orient not in ("same", "opposite"):
            raise ValueError(f"orientation flag {reprlib.repr(orient)} not "
                             "same/opposite")
    if not isinstance(h.group, GroupDescriptor):
        raise ValueError(f"group {reprlib.repr(h.group)} is not a "
                         "GroupDescriptor")
    if bad := [p for p in h.points if not isinstance(p, Point)]:
        raise ValueError(f"points entry {reprlib.repr(bad[0])} is not a Point")
    # one pass over every exponent (a generator per point would double
    # validate's time); a weight that is not a tuple reads as (None,)
    bad = next((p for p in h.points for e in (
        p.weight if type(p.weight) is tuple else (None,))
        if type(e) is not int), None)
    if bad is not None:
        raise ValueError(f"point weight {reprlib.repr(bad.weight)} is not a "
                         "tuple or has a non-integer exponent")
    for p in h.points:     # an id is a str, so no other reference is hashed
        if type(p.alpha) is not str or p.alpha not in aset:
            raise ValueError("point references missing alpha "
                             f"{reprlib.repr(p.alpha)}")
        if type(p.beta) is not str or p.beta not in bset:
            raise ValueError("point references missing beta "
                             f"{reprlib.repr(p.beta)}")
        if type(p.sign) is not int or p.sign not in (1, -1):
            raise ValueError(f"point sign {reprlib.repr(p.sign)} not +1/-1")
        if len(p.weight) != h.group.free_rank + 1:
            raise ValueError("point weight has wrong free rank")
        if not 0 <= p.weight[-1] < h.group.torsion_order:
            raise ValueError("point weight torsion exponent out of range")
    role_rows(h)


def role_rows(h: HeegaardDiagram):
    """The beta rows by role tag as three ranges (newOut, core, newIn), or
    None when h has beta circles and no tags.  The tags must be all present
    and run exactly newOut(1), ..., newOut(p), then core any number of
    times, then newIn(1), ..., newIn(q); each is compared as an exact
    string, and the first tag out of that run is refused with its row."""
    roles = [r for _, r in h.beta_circles]
    if roles and all(r is None for r in roles):
        return None
    if None in roles:
        raise ValueError("role tags must be all present or all absent")
    p = q = 0
    for row, tag in enumerate(roles):
        if row == p and tag == f"newOut({p + 1})":
            p += 1
        elif tag == f"newIn({q + 1})":
            q += 1
        elif q or tag != "core":
            raise ValueError(f"role {reprlib.repr(tag)} of beta row {row} "
                             "breaks the run newOut(1..), core, newIn(1..)")
    b = len(roles)
    return range(p), range(p, b - q), range(b - q, b)


# ---------------------------------------------------------------------------
# builders


def empty_diagram(group=None) -> HeegaardDiagram:
    group = group if group is not None else GroupDescriptor(0)
    return make_diagram(group, None, None, [], [], [], [], [])


def half_identity(z: ArcDiagram, side: str, group=None) -> HeegaardDiagram:
    """One beta circle per arc of z, meeting only that side's arc once.

    Outgoing side points carry sign -1, incoming side +1.
    """
    if z.type_tag != "alpha":
        raise ValueError("half identity needs an alpha arc diagram")
    if side not in ("out", "in"):
        raise ValueError("side must be out or in")
    group = group if group is not None else GroupDescriptor(0)
    n = z.arc_count
    one = group.identity()
    betas = [(f"b{j+1}", None) for j in range(n)]
    if side == "out":
        arcs = [(f"aOut{j+1}", "same") for j in range(n)]
        points = [Point(arcs[j][0], betas[j][0], -1, one) for j in range(n)]
        return make_diagram(group, z, None, arcs, [], [], betas, points)
    arcs = [(f"aIn{j+1}", "opposite") for j in range(n)]
    points = [Point(arcs[j][0], betas[j][0], 1, one) for j in range(n)]
    return make_diagram(group, None, z, [], [], arcs, betas, points)


def braid_diagram(z: ArcDiagram, z2: ArcDiagram,
                  group=None) -> HeegaardDiagram:
    """Swap cobordism: incoming z followed by z2, outgoing z2 followed by z.

    Beta j still joins in-arc j to its own out-arc, but the outgoing arcs
    are listed with the two blocks exchanged, so the matrix realizes the
    graded transposition.
    """
    group = group if group is not None else GroupDescriptor(0)
    n, n2 = z.arc_count, z2.arc_count
    total = n + n2
    one = group.identity()
    out_order = [n + p for p in range(1, n2 + 1)] + list(range(1, n + 1))
    outs = [(f"aOut{j}", "same") for j in out_order]
    ins = [(f"aIn{j}", "opposite") for j in range(1, total + 1)]
    betas = [(f"b{j}", None) for j in range(1, total + 1)]
    pts = []
    for j in range(1, total + 1):
        pts.append(Point(f"aOut{j}", f"b{j}", -1, one))
        pts.append(Point(f"aIn{j}", f"b{j}", 1, one))
    return make_diagram(group, concat_arcs(z2, z), concat_arcs(z, z2),
                        outs, [], ins, betas, pts)


def identity_diagram(z: ArcDiagram, group=None) -> HeegaardDiagram:
    """Both boundaries z; beta_j crosses aOut_j with sign -1 and aIn_j with
    sign +1, no alpha circles: the braid of z past no arcs."""
    if z.type_tag != "alpha":
        raise ValueError("identity diagram needs an alpha arc diagram")
    return braid_diagram(z, EMPTY_ARCS, group)


# ---------------------------------------------------------------------------
# gluing and disjoint union


def _flags_compatible(in_flag: str, out_flag: str) -> bool:
    # the incoming arc runs against its Z exactly when the outgoing arc
    # runs with it; a consistently reversed pair also matches up
    return (in_flag == "opposite") == (out_flag == "same")


def glue(h_left: HeegaardDiagram, h_right: HeegaardDiagram) -> HeegaardDiagram:
    """Glue h_right's outgoing boundary to h_left's incoming boundary.

    The composite reads right-to-left: h_left receives the output of
    h_right.  Arc j of each side merges into a new alpha circle G<j>,
    placed between the left and right circles in the circle order.
    """
    if h_left.group != h_right.group:
        raise ValueError("glue requires equal group descriptors")
    iface = h_left.boundary_right
    if iface.is_empty():
        raise ValueError("empty gluing interface: use disjoint")
    if iface != h_right.boundary_left:
        raise ValueError("gluing interface mismatch")
    for (_, fin), (_, fout) in zip(h_left.alpha_in, h_right.alpha_out):
        if not _flags_compatible(fin, fout):
            raise ValueError("gluing interface arc orientations disagree")
    glued = [f"G{j+1}" for j in range(iface.arc_count)]
    alpha_out, lcircles, _, lbetas, lpoints = _relabel(
        h_left, "L", dict(zip([i for i, _ in h_left.alpha_in], glued)))
    _, rcircles, alpha_in, rbetas, rpoints = _relabel(
        h_right, "R", dict(zip([i for i, _ in h_right.alpha_out], glued)))
    return make_diagram(h_left.group, h_left.boundary_left,
                        h_right.boundary_right, alpha_out,
                        lcircles + glued + rcircles, alpha_in,
                        lbetas + rbetas, lpoints + rpoints)


def disjoint(h: HeegaardDiagram, h2: HeegaardDiagram) -> HeegaardDiagram:
    """Disjoint union with every ordering concatenated, h first."""
    if h.group != h2.group:
        raise ValueError("disjoint union requires equal group descriptors")
    parts = zip(_relabel(h, "A", {}), _relabel(h2, "B", {}))
    return make_diagram(h.group, concat_arcs(h.boundary_left, h2.boundary_left),
                        concat_arcs(h.boundary_right, h2.boundary_right),
                        *(a + b for a, b in parts))


def _relabel(h: HeegaardDiagram, tag: str, merged: dict) -> tuple:
    """The curves of h renamed tag.id, or merged[id] for the alpha ids it
    holds, as make_diagram's (alpha_out, circles, alpha_in, betas,
    points).  Role tags are dropped: a glued or disjoint diagram is not a
    normalize output."""
    amap = {aid: merged.get(aid, f"{tag}.{aid}") for aid in h.alpha_order()}
    return ([(amap[i], o) for i, o in h.alpha_out],
            [amap[i] for i in h.alpha_circles],
            [(amap[i], o) for i, o in h.alpha_in],
            [(f"{tag}.{i}", None) for i in h.beta_ids()],
            [Point(amap[p.alpha], f"{tag}.{p.beta}", p.sign, p.weight)
             for p in h.points])


# ---------------------------------------------------------------------------
# normalization


def _fresh(base: str, used: set) -> str:
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def normalize(h: HeegaardDiagram) -> HeegaardDiagram:
    """Glue identity diagrams onto both boundaries, built directly; on a
    normalize output (normalized_roles accepts it) it returns h: idempotent.

    Each outgoing arc j is promoted to a circle (keeping its id and points)
    that picks up one +1 point on a new beta circle B^out_j, while a fresh
    outgoing arc meets that beta circle once with sign -1; incoming arcs are
    treated the same way with the two signs swapped.  Role tags record which
    beta circle came from which side; bsda.normalized_incidence is its
    incidence-level twin."""
    try:
        normalized_roles(h)
        return h
    except ValueError:      # not a normalize output
        pass
    group = h.group
    one = group.identity()
    used = set(h.alpha_order()) | set(h.beta_ids())
    n1, n0 = h.n1, h.n0

    new_out_beta = [_fresh(f"BOut{j+1}", used) for j in range(n1)]
    new_in_beta = [_fresh(f"BIn{i+1}", used) for i in range(n0)]
    fresh_out = [_fresh(f"nOut{j+1}", used) for j in range(n1)]
    fresh_in = [_fresh(f"nIn{i+1}", used) for i in range(n0)]

    betas = ([(new_out_beta[j], f"newOut({j+1})") for j in range(n1)]
             + [(bid, "core") for bid, _ in h.beta_circles]
             + [(new_in_beta[i], f"newIn({i+1})") for i in range(n0)])
    circles = (tuple(i for i, _ in h.alpha_out) + h.alpha_circles
               + tuple(i for i, _ in h.alpha_in))
    alpha_out = [(fresh_out[j], "same") for j in range(n1)]
    alpha_in = [(fresh_in[i], "opposite") for i in range(n0)]

    points = list(h.points)
    for j in range(n1):
        points.append(Point(h.alpha_out[j][0], new_out_beta[j], 1, one))
        points.append(Point(fresh_out[j], new_out_beta[j], -1, one))
    for i in range(n0):
        points.append(Point(h.alpha_in[i][0], new_in_beta[i], -1, one))
        points.append(Point(fresh_in[i], new_in_beta[i], 1, one))
    # valid by construction when h is, so the result is not validated again
    return make_diagram(group, h.boundary_left, h.boundary_right, alpha_out,
                        circles, alpha_in, betas, points, check=False)


def normalized_roles(h: HeegaardDiagram):
    """The beta rows of a normalize output by role, as role_rows reads
    them: newOut (out-arc j at row j - 1), core, newIn (in-arc i at row
    b - n0 + i - 1).  Raises unless the tags are present, in their run, and
    name n1 newOut and n0 newIn rows."""
    rows = role_rows(h)
    if rows is None or (len(rows[0]), len(rows[2])) != (h.n1, h.n0):
        raise ValueError("role tags do not name a normalize output")
    return rows


# ---------------------------------------------------------------------------
# one-sided reinterpretation and capping


def _flip(orient: str) -> str:
    return "opposite" if orient == "same" else "same"


def reinterpret_one_sided(h: HeegaardDiagram) -> HeegaardDiagram:
    """Move every arc to the outgoing side: former incoming arcs first, with
    reversed orientation, then the outgoing arcs.  Points are untouched."""
    boundary = concat_arcs(reverse(h.boundary_right), h.boundary_left)
    alpha_out = ([(i, _flip(o)) for i, o in h.alpha_in]
                 + list(h.alpha_out))
    return make_diagram(h.group, boundary, None, alpha_out,
                        h.alpha_circles, [], h.beta_circles, h.points)


def cap(h: HeegaardDiagram, I, J) -> HeegaardDiagram:
    """Close normalize(h) along the arcs: cap the outgoing side at each j
    outside J (new circle hits B^out_j once, sign -1) and the incoming side
    at each i in I (new circle hits B^in_i once, sign +1), then delete all
    arcs and their points."""
    h_norm = normalize(h)
    ids = h_norm.beta_ids()     # B^out_j at j - 1, B^in_i at i - n0 - 1
    n1, n0 = h_norm.n1, h_norm.n0
    if any(type(i) is not int or not 1 <= i <= n0 for i in I):
        raise ValueError("I must index incoming arcs")
    if any(type(j) is not int or not 1 <= j <= n1 for j in J):
        raise ValueError("J must index outgoing arcs")
    I, J = sorted(set(I)), set(J)
    jc = [j for j in range(1, n1 + 1) if j not in J]
    one = h_norm.group.identity()
    used = set(h_norm.alpha_order()) | set(ids)
    cap_out = [(_fresh(f"capOut{j}", used), j) for j in jc]
    cap_in = [(_fresh(f"capIn{i}", used), i) for i in I]
    arc_ids = {i for i, _ in h_norm.alpha_out} | {i for i, _ in h_norm.alpha_in}
    points = [p for p in h_norm.points if p.alpha not in arc_ids]
    points += [Point(cid, ids[j - 1], -1, one) for cid, j in cap_out]
    points += [Point(cid, ids[i - n0 - 1], 1, one) for cid, i in cap_in]
    circles = ([cid for cid, _ in cap_out] + list(h_norm.alpha_circles)
               + [cid for cid, _ in cap_in])
    return make_diagram(h_norm.group, None, None, [], circles, [],
                        h_norm.beta_circles, points)


# ---------------------------------------------------------------------------
# reweighting


def reweight(h: HeegaardDiagram, curve_id: str, w: tuple) -> HeegaardDiagram:
    """Multiply the weight of every point on the named curve: by w on an
    alpha curve, by w^{-1} on a beta circle."""
    if curve_id in set(h.alpha_order()):
        factor = w
        on = lambda p: p.alpha == curve_id
    elif curve_id in set(h.beta_ids()):
        factor = h.group.inv_weight(w)
        on = lambda p: p.beta == curve_id
    else:
        raise ValueError(f"no curve named {curve_id!r}")
    points = tuple(
        replace(p, weight=h.group.mul_weight(p.weight, factor)) if on(p) else p
        for p in h.points)
    return replace(h, points=points)


# ---------------------------------------------------------------------------
# canonical signatures (id-insensitive comparison)


def diagram_signature(h: HeegaardDiagram):
    """Canonical form with ids replaced by positions; role tags ignored."""
    apos = {aid: ("a", i) for i, aid in enumerate(h.alpha_order())}
    bpos = {bid: ("b", i) for i, bid in enumerate(h.beta_ids())}
    points = sorted((apos[p.alpha], bpos[p.beta], p.sign, p.weight)
                    for p in h.points)
    return (
        (h.group.free_rank, h.group.torsion_order),
        (h.boundary_left.components, h.boundary_left.matching),
        (h.boundary_right.components, h.boundary_right.matching),
        tuple(o for _, o in h.alpha_out),
        h.a,
        tuple(o for _, o in h.alpha_in),
        h.b,
        tuple(points),
    )


# ---------------------------------------------------------------------------
# JSON serialization


# Limits on a diagram document (alpha arcs and circles plus beta circles,
# and intersection points), checked before any per-curve or per-point
# structure is built.  The invariant of a closed diagram is one elimination
# cubic in its circle count whatever its blocks, so at MAX_CURVES a square
# closed diagram has at most 256 circles and the dense square bounds the
# closed case: with MAX_POINTS crossings (a 4.8 MB file) it loads in 0.5 to
# 0.9 s and takes 3.2 to 5.5 s for bsda_z on a shared 2-core VM.
# Fixtures, tests and benchmark inputs stay below 100 curves and 1,000
# points, except the tests of these limits.
MAX_CURVES = 512
MAX_POINTS = 1 << 16


def _check_size(count: int, what: str, name: str, limit: int) -> None:
    if count > limit:
        raise ValueError(f"{count} {what} exceed the limit {name} = {limit}")


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _json(x, kind: type, what: str):
    """x itself when it is a JSON value of type kind (int, str, list or
    dict), a string interned, since a file repeats each id on every point;
    a boolean or a float is not an integer, and nothing is turned into
    text.  The refusal names the field path what."""
    if type(x) is not kind:
        raise ValueError(f"{what} {reprlib.repr(x)} is not {_KINDS[kind]}")
    return sys.intern(x) if kind is str else x


def _record(obj, where: str, required: tuple, optional: tuple) -> dict:
    """obj itself when it is a JSON object with every required key and no
    key outside required and optional."""
    extra = sorted(_json(obj, dict, where).keys() - {*required, *optional})
    if extra:
        raise ValueError(f"unknown field(s) {extra} in {where}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing {key} in {where}")
    return obj


def _arcs_to_json(z: ArcDiagram):
    if z.is_empty():
        return None
    return {
        "components": [{"kind": k, "points": c} for k, c in z.components],
        "matching": [[p, q] for p, q in z.matching],
        "type": z.type_tag,
    }


def _arcs_from_json(obj, where: str) -> ArcDiagram:
    if obj is None:
        return EMPTY_ARCS
    _record(obj, where, (), ("components", "matching", "type"))
    comps = []
    for c in _json(obj.get("components", []), list, f"{where}.components"):
        _record(c, f"{where}.components[]", ("kind", "points"), ())
        comps.append((_json(c["kind"], str, f"{where}.components[].kind"),
                      _json(c["points"], int, f"{where}.components[].points")))
    matching = []
    for pair in _json(obj.get("matching", []), list, f"{where}.matching"):
        if len(_json(pair, list, f"{where}.matching[]")) != 2:
            raise ValueError(f"{where}.matching[] {reprlib.repr(pair)} is "
                             "not a pair of points")
        matching.append(tuple(_json(x, int, f"{where}.matching[][]")
                              for x in pair))
    return ArcDiagram(tuple(comps), tuple(matching),
                      _json(obj.get("type", "alpha"), str, f"{where}.type"))


def to_json_dict(h: HeegaardDiagram) -> dict:
    betas = []
    for bid, role in h.beta_circles:
        entry = {"id": bid}
        if role is not None:
            entry["role"] = role
        betas.append(entry)
    points = []
    for p in h.points:
        entry = {"alpha": p.alpha, "beta": p.beta, "sign": p.sign}
        if any(p.weight):
            entry["weight"] = h.group.weight_str(p.weight)
        points.append(entry)
    return {
        "group": {"free_rank": h.group.free_rank,
                  "torsion_order": h.group.torsion_order},
        "boundary_left": _arcs_to_json(h.boundary_left),
        "boundary_right": _arcs_to_json(h.boundary_right),
        "alpha": {
            "out": [{"id": i, "orient": o} for i, o in h.alpha_out],
            "circles": list(h.alpha_circles),
            "in": [{"id": i, "orient": o} for i, o in h.alpha_in],
        },
        "beta": {"circles": betas},
        "points": points,
    }


def from_json_dict(obj: dict) -> HeegaardDiagram:
    _record(obj, "diagram", (), ("group", "boundary_left", "boundary_right",
                                 "alpha", "beta", "points", "comment"))
    _json(obj.get("comment", ""), str, "comment")
    gobj = _record(obj.get("group", {}), "group", (),
                   ("free_rank", "torsion_order"))
    group = GroupDescriptor(gobj.get("free_rank", 0),
                            gobj.get("torsion_order", 1))
    aobj = _record(obj.get("alpha", {}), "alpha", (), ("out", "circles", "in"))
    bobj = _record(obj.get("beta", {}), "beta", (), ("circles",))
    outs, circles, ins = (_json(aobj.get(k, []), list, f"alpha.{k}")
                          for k in ("out", "circles", "in"))
    betas = _json(bobj.get("circles", []), list, "beta.circles")
    listed = _json(obj.get("points", []), list, "points")
    _check_size(len(outs) + len(circles) + len(ins) + len(betas),
                "curves", "MAX_CURVES", MAX_CURVES)
    _check_size(len(listed), "points", "MAX_POINTS", MAX_POINTS)
    zl = _arcs_from_json(obj.get("boundary_left"), "boundary_left")
    zr = _arcs_from_json(obj.get("boundary_right"), "boundary_right")
    alpha = {}
    for side, arcs, orient in (("out", outs, "same"), ("in", ins, "opposite")):
        where = f"alpha.{side}[]"
        alpha[side] = []
        for e in arcs:
            _record(e, where, ("id",), ("orient",))
            alpha[side].append((
                _json(e["id"], str, f"{where}.id"),
                _json(e.get("orient", orient), str, f"{where}.orient")))
    circles = [_json(c, str, "alpha.circles[]") for c in circles]
    roles = []
    for e in betas:
        _record(e, "beta.circles[]", ("id",), ("role",))
        role = e.get("role")
        if role is not None:
            _json(role, str, "beta.circles[].role")
        roles.append((_json(e["id"], str, "beta.circles[].id"), role))
    points = []
    for e in listed:
        _record(e, "points[]", ("alpha", "beta", "sign"), ("weight",))
        w = group.identity()
        if "weight" in e:
            text = _json(e["weight"], str, "points[].weight")
            try:
                w = parse_weight(group, text)
            except ValueError as err:
                raise ValueError(f"points[].weight: {err}") from None
        points.append(Point(_json(e["alpha"], str, "points[].alpha"),
                            _json(e["beta"], str, "points[].beta"),
                            _json(e["sign"], int, "points[].sign"), w))
    return make_diagram(group, zl, zr, alpha["out"], circles, alpha["in"],
                        roles, points)


def dumps(h: HeegaardDiagram, comment: str = None) -> str:
    obj = to_json_dict(h)
    if comment is not None:
        obj["comment"] = comment
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> HeegaardDiagram:
    """Parse a diagram document; every malformed input, nesting too deep
    for the parser and an integer past int()'s digit limit included, raises
    ValueError."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"invalid JSON: {e}") from None
    except ValueError:      # only int() raises a plain one: too many digits
        raise ValueError("invalid JSON: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    try:
        return from_json_dict(obj)
    except (TypeError, KeyError, AttributeError, RecursionError) as e:
        raise ValueError(f"malformed diagram data: {e}") from None
