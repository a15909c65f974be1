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
import re
from dataclasses import dataclass, replace

from .rings import GroupDescriptor, parse_weight


# ---------------------------------------------------------------------------
# arc diagrams


@dataclass(frozen=True)
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
        comps = tuple((str(kind), int(count)) for kind, count in self.components)
        object.__setattr__(self, "components", comps)
        pairs = tuple(tuple(sorted((int(p), int(q)))) for p, q in self.matching)
        object.__setattr__(self, "matching", pairs)

    @property
    def arc_count(self) -> int:
        return len(self.matching)

    @property
    def point_count(self) -> int:
        return sum(c for _, c in self.components)

    def is_empty(self) -> bool:
        return not self.components and not self.matching

    def violations(self) -> list:
        out = []
        if self.type_tag not in ("alpha", "beta"):
            out.append(f"arc diagram type {self.type_tag!r} not alpha/beta")
        for kind, count in self.components:
            if kind not in ("interval", "circle"):
                out.append(f"component kind {kind!r} not interval/circle")
            if count < 0:
                out.append("negative point count on a component")
        seen: set = set()
        for p, q in self.matching:
            for x in (p, q):
                if not 0 <= x < self.point_count:
                    out.append(f"matched point {x} out of range")
                if x in seen:
                    out.append(f"point {x} matched twice")
                seen.add(x)
        if p_missing := self.point_count - len(seen):
            if not out:
                out.append(f"{p_missing} points left unmatched")
        return out


EMPTY_ARCS = ArcDiagram()


def build_arc_diagram(components, matching, type_tag: str = "alpha") -> ArcDiagram:
    z = ArcDiagram(tuple(components), tuple(matching), type_tag)
    bad = z.violations()
    if bad:
        raise ValueError("; ".join(bad))
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


@dataclass(frozen=True)
class Point:
    alpha: str
    beta: str
    sign: int
    weight: tuple       # a GroupDescriptor weight (e1, ..., er, s)


ROLE_RE = re.compile(r"^(core|newOut\((\d+)\)|newIn\((\d+)\))$")


def parse_role(role: str):
    m = ROLE_RE.match(role)
    if not m:
        raise ValueError(f"malformed role {role!r}")
    if role == "core":
        return ("core", None)
    kind = "newOut" if role.startswith("newOut") else "newIn"
    return (kind, int(m.group(2) or m.group(3)))


@dataclass(frozen=True)
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
        alpha_out=tuple((str(i), str(o)) for i, o in alpha_out),
        alpha_circles=tuple(str(i) for i in alpha_circles),
        alpha_in=tuple((str(i), str(o)) for i, o in alpha_in),
        beta_circles=tuple((str(i), r) for i, r in beta_circles),
        points=tuple(points),
    )
    if check:
        bad = validate(h)
        if bad:
            raise ValueError("; ".join(bad))
    return h


def validate(h: HeegaardDiagram) -> list:
    """All structural violations as strings; empty list means well formed."""
    out = []
    for side, z in (("left", h.boundary_left), ("right", h.boundary_right)):
        out.extend(f"boundary {side}: {v}" for v in z.violations())
        if not z.is_empty() and z.type_tag != "alpha":
            out.append(f"boundary {side} must be an alpha arc diagram")
    if len(h.alpha_out) != h.boundary_left.arc_count:
        out.append(f"{len(h.alpha_out)} outgoing arcs for "
                   f"{h.boundary_left.arc_count} matching arcs")
    if len(h.alpha_in) != h.boundary_right.arc_count:
        out.append(f"{len(h.alpha_in)} incoming arcs for "
                   f"{h.boundary_right.arc_count} matching arcs")
    alpha_ids = list(h.alpha_order())
    if len(set(alpha_ids)) != len(alpha_ids):
        out.append("duplicate alpha id")
    beta_ids = list(h.beta_ids())
    if len(set(beta_ids)) != len(beta_ids):
        out.append("duplicate beta id")
    for _, orient in h.alpha_out + h.alpha_in:
        if orient not in ("same", "opposite"):
            out.append(f"orientation flag {orient!r} not same/opposite")
    aset, bset = set(alpha_ids), set(beta_ids)
    for p in h.points:
        if p.alpha not in aset:
            out.append(f"point references missing alpha {p.alpha!r}")
        if p.beta not in bset:
            out.append(f"point references missing beta {p.beta!r}")
        if p.sign not in (1, -1):
            out.append(f"point sign {p.sign!r} not +1/-1")
        if len(p.weight) != h.group.free_rank + 1:
            out.append("point weight has wrong free rank")
        elif not 0 <= p.weight[-1] < h.group.torsion_order:
            out.append("point weight torsion exponent out of range")
    out.extend(_role_violations(h))
    return out


def _role_violations(h: HeegaardDiagram) -> list:
    """Role tags, when present, run newOut(1..), core, newIn(1..), so each
    role is a range of beta rows (normalized_roles)."""
    roles = [r for _, r in h.beta_circles]
    if all(r is None for r in roles):
        return []
    if any(r is None for r in roles):
        return ["role tags must be all present or all absent"]
    try:
        parsed = [parse_role(r) for r in roles]
    except ValueError as e:
        return [str(e)]
    kinds = [k for k, _ in parsed]
    order = {"newOut": 0, "core": 1, "newIn": 2}
    if [order[k] for k in kinds] != sorted(order[k] for k in kinds):
        return ["roles must run (newOut, core, newIn)"]
    for kind in ("newOut", "newIn"):
        js = [j for k, j in parsed if k == kind]
        if js != list(range(1, len(js) + 1)):
            return [f"{kind} indices must run 1..{len(js)}"]
    return []


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


def identity_diagram(z: ArcDiagram, group=None) -> HeegaardDiagram:
    """Both boundaries z; beta_j crosses aOut_j with sign -1 and aIn_j with
    sign +1, no alpha circles."""
    if z.type_tag != "alpha":
        raise ValueError("identity diagram needs an alpha arc diagram")
    group = group if group is not None else GroupDescriptor(0)
    n = z.arc_count
    one = group.identity()
    outs = [(f"aOut{j+1}", "same") for j in range(n)]
    ins = [(f"aIn{j+1}", "opposite") for j in range(n)]
    betas = [(f"b{j+1}", None) for j in range(n)]
    points = []
    for j in range(n):
        points.append(Point(outs[j][0], betas[j][0], -1, one))
        points.append(Point(ins[j][0], betas[j][0], 1, one))
    return make_diagram(group, z, z, outs, [], ins, betas, points)


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
    """Glue identity diagrams onto both boundaries, built directly.

    Each outgoing arc j is promoted to a circle (keeping its id and points)
    that picks up one +1 point on a new beta circle B^out_j, while a fresh
    outgoing arc meets that beta circle once with sign -1; incoming arcs are
    treated the same way with the two signs swapped.  Role tags record which
    beta circle came from which side.
    """
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
    """The beta rows of a normalized diagram by role, as ranges: newOut
    (out-arc j at row j - 1), core, newIn (in-arc i at row b - n0 + i - 1).
    validate pins the tags to that order; raises when they are absent or
    their newOut and newIn counts are not n1 and n0."""
    roles = [r for _, r in h.beta_circles]
    if None in roles:
        raise ValueError("diagram lacks role tags: not a normalize output")
    if sum(r.startswith("newOut") for r in roles) != h.n1:
        raise ValueError("newOut roles do not cover the outgoing arcs")
    if sum(r.startswith("newIn") for r in roles) != h.n0:
        raise ValueError("newIn roles do not cover the incoming arcs")
    core_end = h.b - h.n0
    return range(h.n1), range(h.n1, core_end), range(core_end, h.b)


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


def cap(h_norm: HeegaardDiagram, I, J) -> HeegaardDiagram:
    """Close a normalized diagram along the arcs: cap the outgoing side at
    each j outside J (new circle hits B^out_j once, sign -1) and the
    incoming side at each i in I (new circle hits B^in_i once, sign +1),
    then delete all arcs and their points."""
    out_rows, _, in_rows = normalized_roles(h_norm)
    ids = h_norm.beta_ids()
    n1, n0 = h_norm.n1, h_norm.n0
    I = sorted({int(i) for i in I})
    J = sorted({int(j) for j in J})
    if I and not (1 <= I[0] and I[-1] <= n0):
        raise ValueError("I must index incoming arcs")
    if J and not (1 <= J[0] and J[-1] <= n1):
        raise ValueError("J must index outgoing arcs")
    jc = [j for j in range(1, n1 + 1) if j not in set(J)]
    one = h_norm.group.identity()
    used = set(h_norm.alpha_order()) | set(ids)
    cap_out = [(_fresh(f"capOut{j}", used), j) for j in jc]
    cap_in = [(_fresh(f"capIn{i}", used), i) for i in I]
    arc_ids = {i for i, _ in h_norm.alpha_out} | {i for i, _ in h_norm.alpha_in}
    points = [p for p in h_norm.points if p.alpha not in arc_ids]
    points += [Point(cid, ids[out_rows[j - 1]], -1, one) for cid, j in cap_out]
    points += [Point(cid, ids[in_rows[i - 1]], 1, one) for cid, i in cap_in]
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
# structure is built.  The invariant of a closed diagram is an elimination
# cubic in its circle count, so at MAX_CURVES a square closed diagram has
# at most 256 circles; a dense one with MAX_POINTS crossings (a 4.8 MB
# file) loads in 0.5 s and takes 3.2 s for bsda_z on a shared 2-core VM.
# Fixtures, tests and benchmark inputs stay below 100 curves and 1,000
# points, except the tests of these limits.
MAX_CURVES = 512
MAX_POINTS = 1 << 16


def _check_size(count: int, what: str, name: str, limit: int) -> None:
    if count > limit:
        raise ValueError(f"{count} {what} exceed the limit {name} = {limit}")


def _check_keys(obj: dict, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ValueError(f"unknown field(s) {sorted(extra)} in {where}")


def _json_int(x, what: str) -> int:
    """x itself when it is a JSON integer; floats, infinities and booleans
    are refused, not truncated."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _json_str(x, what: str) -> str:
    """x itself when it is a JSON string; numbers, lists and objects are
    refused, not turned into text."""
    if type(x) is not str:
        raise ValueError(f"{what} {x!r} is not a string")
    return x


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
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object or null")
    _check_keys(obj, ("components", "matching", "type"), where)
    comps = []
    for c in obj.get("components", []):
        _check_keys(c, ("kind", "points"), f"{where}.components[]")
        comps.append((c["kind"], _json_int(c["points"], "point count")))
    matching = [tuple(_json_int(x, "matched point") for x in pair)
                for pair in obj.get("matching", [])]
    return ArcDiagram(tuple(comps), tuple(matching), obj.get("type", "alpha"))


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
    if not isinstance(obj, dict):
        raise ValueError("diagram document must be a JSON object")
    _check_keys(obj, ("group", "boundary_left", "boundary_right",
                      "alpha", "beta", "points", "comment"), "diagram")
    gobj = obj.get("group", {})
    _check_keys(gobj, ("free_rank", "torsion_order"), "group")
    group = GroupDescriptor(gobj.get("free_rank", 0),
                            gobj.get("torsion_order", 1))
    aobj, bobj = obj.get("alpha", {}), obj.get("beta", {})
    _check_keys(aobj, ("out", "circles", "in"), "alpha")
    _check_keys(bobj, ("circles",), "beta")
    # lists only: anything else is refused below with its own message
    curves = [aobj.get("out"), aobj.get("circles"), aobj.get("in"),
              bobj.get("circles")]
    _check_size(sum(len(c) for c in curves if isinstance(c, list)),
                "curves", "MAX_CURVES", MAX_CURVES)
    listed = obj.get("points")
    _check_size(len(listed) if isinstance(listed, list) else 0,
                "points", "MAX_POINTS", MAX_POINTS)
    zl = _arcs_from_json(obj.get("boundary_left"), "boundary_left")
    zr = _arcs_from_json(obj.get("boundary_right"), "boundary_right")

    def arc_list(lst, default_orient, where):
        out = []
        for e in lst:
            _check_keys(e, ("id", "orient"), where)
            if "id" not in e:
                raise ValueError(f"missing id in {where}")
            out.append((_json_str(e["id"], f"{where} id"),
                        e.get("orient", default_orient)))
        return out

    alpha_out = arc_list(aobj.get("out", []), "same", "alpha.out[]")
    alpha_in = arc_list(aobj.get("in", []), "opposite", "alpha.in[]")
    circles = aobj.get("circles", [])
    if not isinstance(circles, list):
        raise ValueError("alpha.circles must be a list")
    circles = [_json_str(c, "alpha circle id") for c in circles]
    betas = []
    for e in bobj.get("circles", []):
        _check_keys(e, ("id", "role"), "beta.circles[]")
        if "id" not in e:
            raise ValueError("missing id in beta.circles[]")
        betas.append((_json_str(e["id"], "beta.circles[] id"), e.get("role")))
    points = []
    for e in obj.get("points", []):
        _check_keys(e, ("alpha", "beta", "sign", "weight"), "points[]")
        for key in ("alpha", "beta", "sign"):
            if key not in e:
                raise ValueError(f"missing {key} in points[]")
        sign = _json_int(e["sign"], "point sign")
        w = parse_weight(group, e.get("weight", "1"))
        points.append(Point(_json_str(e["alpha"], "point alpha"),
                            _json_str(e["beta"], "point beta"), sign, w))
    return make_diagram(group, zl, zr, alpha_out, circles, alpha_in,
                        betas, points)


def dumps(h: HeegaardDiagram, comment: str = None) -> str:
    obj = to_json_dict(h)
    if comment is not None:
        obj["comment"] = comment
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> HeegaardDiagram:
    """Parse a diagram document; every malformed input, nesting too deep
    for the parser included, raises ValueError."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"invalid JSON: {e}") from None
    try:
        return from_json_dict(obj)
    except (TypeError, KeyError, AttributeError, RecursionError) as e:
        raise ValueError(f"malformed diagram data: {e}") from None
