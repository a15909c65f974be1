"""Alexander functions and functors over Z, Z[H], Z[G], and Q[H].

The function takes a deficiency-d presentation and d vectors in row
coordinates and returns the determinant of the matrix with those vectors
appended as columns.  Over an integral domain that determinant is already
zero when the presentation map has a kernel, since its columns are then
dependent; Q[H] is a product of domains, so the same holds per component.

The functor is that function on the normalized diagram's presentation
with the new-beta unit vectors standing in for the boundary classes:
entry (I, J) appends -e(new-in row) for each element of I ascending, then
-e(new-out row) for each element of J^c ascending, with the sign
(-1)^(inv(J, J^c) + c*(n1 - |J|)); the identity fixture then reproduces its
invariant matrix on the nose.  All entries come from one state sum over the
normalized incidence (zero coefficients kept) transposed on the circles, core
rows required: the new-in and new-out rows a final mask leaves free give I
and J^c, read by the one mask decoder (exterior._arcs), which also
gives p, the parity of #{(held in-row, free in-row) : free above held}.
The entry is the mask's value times (-1)^(d + a*|J^c| + |I|*|held| + p).
Carrying the signed sum on through the -e(r) rows, I first, adds the
occupied rows above each: through the I rows that is |I|*|held| + p;
through the J^c rows it is inv(J, J^c) + |J^c|*(k + n0) with k core rows,
which cancels the rule's own inv(J, J^c), and c + k + n0 = a.
Over Z[G] and Q[H] the functor is evaluated over Z[H] and mapped entrywise
by the ring change the invariant uses; ring maps commute with determinants.

The functor and the comparison read the normalized incidence compiled from
h (bsda.normalized_incidence), of A circles and B beta rows, d = B - A.
The comparison first tests the exact sign: functor = eps * invariant entry
by entry, eps = (-1)^(d*(n1 + A + 1)).  Why: a term of entry (I, J)'s
determinant gives each beta row a circle or an appended column, so the
terms are the generators of normalize(h) with occupied in-arcs I and
out-arcs J^c; let x = |I| and y = |J^c|, so x + y = d.  A term's sign and
the generator's (-1)^grading (bsda docstring) differ by three parities:
x, as an appended in-arc column reads -1 where its point reads +1 (out-arc
columns and points both read -1); y*(A + x), as the columns list the
out-arcs after the circles and the in-arcs, where the total alpha order
lists them first; and the correction (A + n1)*x.  The functor's own sign
adds inv(J, J^c), which the grading has too, and c*y with c = n1 - d.  As
x + y = d and x*x = x mod 2, x + y*(A + x) + (A + n1)*x + c*y reduces to
d*(n1 + A + 1), one sign for the whole map.  In the core counts,
a = A - n0 - n1 circles and b = B - n0 - n1 rows (h's own unless h is a
normalize output), it reads b + n0*(a + b) + a*b.  Weights change nothing:
the appended columns and the new rows carry the identity weight, and a
term multiplies the weights of its generator's points.  Two zero maps keep
unit one, a match gives eps, and only a failed test runs
exterior.eq_up_to_global_unit, the unit search: a FAIL verdict, or any
other unit, comes from that search.

The comparison over Z[G] or Q[H] is made over Z[H] first, where the units
are the trivial ones +-t^f*s^k.  A ring map sends units to units, so a
match there is a match of the images, and the unit is the image of the
Z[H] unit, except where the mapped functor vanishes: there it is one, on
the whole map over Z[G] and per component over Q[H], as the search over
the image ring gives it.  A Z[H] match with unit +-1 gives the image
functor as the image invariant or its negation, since a ring map commutes
with negation; only another unit maps the functor too.  Only when the Z[H]
compare fails are the images searched: for m outside {1, 2, 3, 4, 6} Z[H]
has more units than the trivial ones (Higman), and a unit of the image
need not lift.  One slot keeps the Z[H] stage of the last diagram compared
over zg or qh, keyed by its identity, so that diagram's other image reuses
the stage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import exterior as X
from .bsda import (Incidence, NormalizedIncidence, bsda_z, bsda_zh,
                   map_transform, normalized_incidence)
from .diagram import HeegaardDiagram, normalize
from .exterior import _arcs
from .rings import (ZZ, GroupRing, Matrix, QHRing, accumulate, det,
                    group_ring, qh_ring, state_sums)

RING_TAGS = ("z", "zh", "zg", "qh")


def to_free_part(zh_elem: dict) -> dict:
    """Project a group-ring element along torsion -> 1, landing in the
    free-part Laurent ring (torsion coordinate pinned to 0)."""
    out: dict = {}
    for g, c in zh_elem.items():
        accumulate(ZZ, out, (*g[:-1], 0), c)
    return out


def _coerce(ring, x):
    return ring.from_int(x) if isinstance(x, int) else x


def alexander_function(m: Matrix, u):
    """det of the presentation matrix m with the deficiency-many vectors
    appended as columns on the right.  Over a domain, or per component of
    Q[H], it is zero whenever the presentation is not injective.  The
    determinant is rings.det's, as for a closed diagram (bsda docstring)."""
    ring = m.ring
    rows, cols = m.rows, m.cols
    d = rows - cols
    if d < 0:
        raise ValueError("presentation has negative deficiency")
    if len(u) != d:
        raise ValueError(f"expected {d} appended vectors, got {len(u)}")
    for v in u:
        if len(v) != rows:
            raise ValueError("appended vector has wrong length")

    square = [
        list(m.entries[i]) + [_coerce(ring, v[i]) for v in u]
        for i in range(rows)
    ]
    return det(ring, square)


def _ring_change(group, ring_tag: str) -> tuple:
    """The zg or qh coefficient ring, shared by every call over an equal
    group (rings.group_ring, rings.qh_ring), and the ring map into it from
    Z[H]."""
    if ring_tag == "zg":
        return group_ring(group.free_rank, 1), to_free_part
    if ring_tag == "qh":
        R = qh_ring(group)
        return R, R.from_zh
    raise ValueError(f"ring must be one of {RING_TAGS}")


def entry_vectors(h: HeegaardDiagram) -> dict:
    """Appended vectors of normalize(h) for every degree-compatible pair, as
    integer row vectors: -e(new-in row) for each element of I ascending,
    then -e(new-out row) for each element of the complement of J."""
    n0, n1, c, rows = h.n0, h.n1, h.degree, normalize(h).b

    def neg_unit(row: int):
        return tuple(-1 if t == row else 0 for t in range(rows))

    out: dict = {}
    for I in X.subsets(n0):
        size_j = len(I) + c
        if size_j < 0 or size_j > n1:
            continue
        for J in X.subsets(n1, size_j):
            jc = tuple(j for j in range(1, n1 + 1) if j not in J)
            out[(I, J)] = ([neg_unit(rows - n0 + i - 1) for i in I]
                           + [neg_unit(j - 1) for j in jc])
    return out


def functor_sums(inc: Incidence) -> dict:
    """The functor's state sum: rings.state_sums over the transpose of a
    normalized incidence on the circle positions (one row per alpha circle,
    beta rows ascending), every core row (n1 up to b - n0) required."""
    cols: list = [{} for _ in inc.circles]
    for r, row in enumerate(inc.rows):
        for q, c in row.items():
            if q in inc.circles:
                cols[q - inc.circles.start][r] = c
    core = (1 << (len(inc.rows) - inc.n0)) - (1 << inc.n1)
    return state_sums(inc.ring, cols, core)


def alexander_functor(h: HeegaardDiagram, ring_tag: str = "z",
                      inc: NormalizedIncidence | None = None) -> X.GradedMap:
    """The functor of normalize(h) from one state sum (module docstring);
    inc: normalized_incidence(h, ring_tag != "z"), and no other Incidence."""
    if ring_tag not in RING_TAGS:
        raise ValueError(f"ring must be one of {RING_TAGS}")
    inc = normalized_incidence(h, ring_tag != "z") if inc is None else inc
    if not isinstance(inc, NormalizedIncidence):
        raise ValueError("the functor reads only normalized_incidence")
    ring, n0, n1, a = inc.ring, inc.n0, inc.n1, len(inc.circles)
    d, shift, all_out = len(inc.rows) - a, len(inc.rows) - n0, (1 << n1) - 1
    entries: dict = {}
    for mask, val in functor_sums(inc).items():
        J, jc, _ = _arcs(n1, mask & all_out)
        held, I, p = _arcs(n0, mask >> shift)
        parity = d + a * len(jc) + len(I) * len(held) + p
        entries[(I, J)] = ring.neg(val) if parity & 1 else val
    f = X.GradedMap(ring, n0, n1, inc.degree, entries)
    if ring_tag in ("z", "zh"):
        return f
    return map_transform(f, *_ring_change(h.group, ring_tag))


def bsda_map(h: HeegaardDiagram, ring_tag: str, inc=None) -> X.GradedMap:
    """The invariant matrix in the requested coefficients (inc: incidence(h,
    ring_tag != "z"), or normalized_incidence for normalize(h))."""
    if ring_tag == "z":
        return bsda_z(h, inc)
    if ring_tag == "zh":
        return bsda_zh(h, inc)
    change = _ring_change(h.group, ring_tag)    # refuses a bad tag first
    return map_transform(bsda_zh(h, inc), *change)


def random_equivalent_presentation(pres: Matrix, seed: int):
    """A presentation matrix of the same cokernel, built by one block
    stabilization and a run of unimodular row/column operations.

    Returns (matrix, transport) where transport is the new-rows by
    old-rows change of basis: appended vectors must be multiplied through
    it before evaluating on the new presentation.
    """
    rnd = random.Random(seed)
    ring = pres.ring
    m = [list(r) for r in pres.entries]
    b = len(m)
    a = len(m[0]) if m else 0

    def draw():
        x = ring.from_int(rnd.randint(-2, 2))
        if isinstance(ring, GroupRing) and ring.free_rank and rnd.random() < 0.4:
            e = [0] * ring.free_rank
            e[rnd.randrange(ring.free_rank)] = rnd.choice((-1, 1))
            x = ring.mul(x, ring.monomial((*e, 0)))
        return x

    k = rnd.randint(1, 2)
    eta = [[draw() for _ in range(k)] for _ in range(b)]
    for i in range(b):
        m[i] = m[i] + [ring.neg(eta[i][t]) for t in range(k)]
    for t in range(k):
        m.append([ring.zero()] * a
                 + [ring.from_int(1 if s == t else 0) for s in range(k)])
    rows = b + k
    cols = a + k
    transport = [[ring.from_int(1 if j == i else 0) for j in range(b)]
                 for i in range(rows)]

    for _ in range(rnd.randint(4, 9)):
        kind = rnd.choice(("row_add", "col_add", "row_swap", "col_swap",
                           "row_neg", "col_neg"))
        if kind == "row_add" and rows > 1:
            i, j = rnd.sample(range(rows), 2)
            q = draw()
            m[i] = [ring.add(x, ring.mul(q, y)) for x, y in zip(m[i], m[j])]
            transport[i] = [ring.add(x, ring.mul(q, y))
                            for x, y in zip(transport[i], transport[j])]
        elif kind == "col_add" and cols > 1:
            i, j = rnd.sample(range(cols), 2)
            q = draw()
            for r in range(rows):
                m[r][i] = ring.add(m[r][i], ring.mul(q, m[r][j]))
        elif kind == "row_swap" and rows > 1:
            i, j = rnd.sample(range(rows), 2)
            m[i], m[j] = m[j], m[i]
            transport[i], transport[j] = transport[j], transport[i]
        elif kind == "col_swap" and cols > 1:
            i, j = rnd.sample(range(cols), 2)
            for r in range(rows):
                m[r][i], m[r][j] = m[r][j], m[r][i]
        elif kind == "row_neg":
            i = rnd.randrange(rows)
            m[i] = [ring.neg(x) for x in m[i]]
            transport[i] = [ring.neg(x) for x in transport[i]]
        elif kind == "col_neg":
            i = rnd.randrange(cols)
            for r in range(rows):
                m[r][i] = ring.neg(m[r][i])

    return Matrix(ring, m), transport


def transport_vector(ring, transport, v):
    """Push a row-coordinate vector through the change of basis."""
    old = [_coerce(ring, x) for x in v]
    return tuple(
        ring.sum(ring.mul(t, x) for t, x in zip(row, old))
        for row in transport
    )


@dataclass(frozen=True)
class CompareReport:
    ring: str
    match: bool
    unit: object
    bsda: X.GradedMap
    alexander: X.GradedMap


def _unit_image(ring, u, g: X.GradedMap):
    """The image u of a Z[H] unit as the search over ring reports it: one
    wherever the mapped functor g vanishes, per component over Q[H]."""
    if isinstance(ring, QHRing):
        return tuple(x if any(not c.is_zero(e[i]) for e in g.entries.values())
                     else c.one()
                     for i, (c, x) in enumerate(zip(ring.components, u)))
    return u if g.entries else ring.one()


def _sign_parity(inc: NormalizedIncidence) -> int:
    """eps = (-1)^this: d*(n1 + A + 1) mod 2 (module docstring)."""
    return (len(inc.rows) - len(inc.circles)) * (inc.circles.stop + 1) & 1


def _stage(h: HeegaardDiagram, base: str) -> tuple:
    """(invariant, functor, *their compare) of normalize(h) over base: the
    exact sign first, the unit search only when it fails (module
    docstring)."""
    inc = normalized_incidence(h, base == "zh")
    f, g = bsda_map(h, base, inc), alexander_functor(h, base, inc)
    ring, fe, unit = f.ring, f.entries, f.ring.one()
    if fe and _sign_parity(inc):
        fe, unit = {k: ring.neg(v) for k, v in fe.items()}, ring.neg(unit)
    if g.entries == fe:
        return f, g, True, unit
    return (f, g, *X.eq_up_to_global_unit(g, f))


_LAST_ZH: tuple = (None, None)  # (h, _stage(h, "zh")), read and set whole


def compare_bsda_alexander(h: HeegaardDiagram,
                           ring_tag: str = "z") -> CompareReport:
    """Compute both maps of normalize(h) from one incidence and compare
    them, the exact sign first (module docstring); a normalize output is
    its own normalization.  Over Z[G] and Q[H] both maps are built and
    compared over Z[H], then the invariant is mapped by one ring change,
    and a Z[H] unit of +-1 gives the image functor as +- the image
    invariant; the unit is the image of the Z[H] unit, and only a failed
    Z[H] compare searches the images.  zg and qh reuse the Z[H] stage of
    the last zg or qh call on this very h (one entry only)."""
    global _LAST_ZH
    if ring_tag not in RING_TAGS:
        raise ValueError(f"ring must be one of {RING_TAGS}")
    if ring_tag in ("z", "zh"):
        f, g, ok, unit = _stage(h, ring_tag)
        return CompareReport(ring_tag, ok, unit, f, g)
    held, stage = _LAST_ZH
    if held is not h:
        stage = _stage(h, "zh")
        _LAST_ZH = (h, stage)
    f, g, ok, unit = stage
    one = f.ring.one()
    ring, fn = _ring_change(h.group, ring_tag)
    image = map_transform(f, ring, fn)
    if ok and unit == one:
        g = image
    elif ok and unit == f.ring.neg(one):
        g = X.map_neg(image)
    else:
        g = map_transform(g, ring, fn)
    f = image
    if ok:
        unit = _unit_image(ring, fn(unit), g)
    else:
        ok, unit = X.eq_up_to_global_unit(g, f)
    return CompareReport(ring_tag, ok, unit, f, g)
