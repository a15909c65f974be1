"""Named example diagrams used by the test battery and shipped as JSON.

Each library entry is a (diagram, comment) pair; the comment says what the
fixture exercises.  Builders that take parameters are exported as well so
tests can sweep families.
"""

from __future__ import annotations

from .diagram import (
    HeegaardDiagram,
    Point,
    braid_diagram,
    glue,
    identity_diagram,
    interval_arcs,
    make_diagram,
)
from .rings import GroupDescriptor

GENUS1 = interval_arcs(2, matching=[(0, 2), (1, 3)])


def annulus(n: int, weighted: bool = False) -> HeegaardDiagram:
    """One alpha circle crossed n times by one beta circle, all signs +1;
    the weighted variant marks the crossings 1, t, ..., t^(n-1)."""
    if weighted:
        g = GroupDescriptor(1)
        pts = [Point("aC", "bC", 1, g.make_weight((i,), 0)) for i in range(n)]
    else:
        g = GroupDescriptor(0)
        pts = [Point("aC", "bC", 1, g.identity()) for _ in range(n)]
    return make_diagram(g, None, None, [], ["aC"], [], [("bC", None)], pts)


def mixed_2x2() -> HeegaardDiagram:
    """Ordinary diagram presenting [[1, 1], [-1, 1]], determinant 2."""
    return ordinary_from_matrix([[1, 1], [-1, 1]])


def ordinary_from_matrix(rows) -> HeegaardDiagram:
    """Ordinary diagram whose presentation matrix is the given integer
    matrix: entry m becomes |m| crossings of sign m/|m|."""
    g = GroupDescriptor(0)
    one = g.identity()
    b = len(rows)
    a = len(rows[0]) if rows else 0
    pts = []
    for j in range(b):
        if len(rows[j]) != a:
            raise ValueError("ragged matrix")
        for i in range(a):
            m = rows[j][i]
            s = 1 if m > 0 else -1
            pts.extend(Point(f"A{i+1}", f"B{j+1}", s, one)
                       for _ in range(abs(m)))
    return make_diagram(g, None, None, [], [f"A{i+1}" for i in range(a)], [],
                        [(f"B{j+1}", None) for j in range(b)], pts)


def zero_matrix() -> HeegaardDiagram:
    """Presentation [[0]]: the two crossings cancel, the matrix column is
    zero, and the kernel of the presentation is nonzero."""
    g = GroupDescriptor(0)
    one = g.identity()
    pts = [Point("A1", "B1", 1, one), Point("A1", "B1", -1, one)]
    return make_diagram(g, None, None, [], ["A1"], [], [("B1", None)], pts)


def infinite_h1() -> HeegaardDiagram:
    """Two beta circles running parallel between the two boundary arcs; the
    core block of the normalized presentation has infinite cokernel."""
    g = GroupDescriptor(0)
    one = g.identity()
    z = interval_arcs(1)
    pts = [
        Point("aOut1", "b1", -1, one), Point("aIn1", "b1", 1, one),
        Point("aOut1", "b2", -1, one), Point("aIn1", "b2", 1, one),
    ]
    return make_diagram(g, z, z, [("aOut1", "same")], [],
                        [("aIn1", "opposite")], [("b1", None), ("b2", None)],
                        pts)


def surplus_circle() -> HeegaardDiagram:
    """Identity shape plus an alpha circle no beta meets: no generators,
    and the presentation keeps a zero column."""
    g = GroupDescriptor(0)
    one = g.identity()
    z = interval_arcs(1)
    pts = [Point("aOut1", "b1", -1, one), Point("aIn1", "b1", 1, one)]
    return make_diagram(g, z, z, [("aOut1", "same")], ["S"],
                        [("aIn1", "opposite")], [("b1", None)], pts)


def halfproj_left() -> HeegaardDiagram:
    """Incoming-side piece over the genus-1 two-arc interface: one beta
    crossing the first incoming arc."""
    g = GroupDescriptor(0)
    pts = [Point("aIn1", "bL", 1, g.identity())]
    return make_diagram(g, None, GENUS1, [], [],
                        [("aIn1", "opposite"), ("aIn2", "opposite")],
                        [("bL", None)], pts)


def halfproj_right() -> HeegaardDiagram:
    """Outgoing-side partner of halfproj_left: one beta crossing the second
    outgoing arc."""
    g = GroupDescriptor(0)
    pts = [Point("aOut2", "bR", -1, g.identity())]
    return make_diagram(g, GENUS1, None,
                        [("aOut1", "same"), ("aOut2", "same")], [], [],
                        [("bR", None)], pts)


def halfproj_pair() -> HeegaardDiagram:
    """The two halves glued along the genus-1 interface: a single generator
    survives, so the composite is nonzero."""
    return glue(halfproj_left(), halfproj_right())


def torsion_vanishing() -> HeegaardDiagram:
    """Weighted circle with entry 1 - s over torsion order 2: the trivial
    character kills it, the sign character keeps it."""
    g = GroupDescriptor(0, 2)
    pts = [Point("A1", "B1", 1, g.identity()),
           Point("A1", "B1", -1, g.make_weight((), 1))]
    return make_diagram(g, None, None, [], ["A1"], [], [("B1", None)], pts)


def weighted_free2() -> HeegaardDiagram:
    """Entry 1 + t1 + t2 over a rank-2 free group."""
    g = GroupDescriptor(2)
    pts = [Point("A1", "B1", 1, g.identity()),
           Point("A1", "B1", 1, g.make_weight((1, 0), 0)),
           Point("A1", "B1", 1, g.make_weight((0, 1), 0))]
    return make_diagram(g, None, None, [], ["A1"], [], [("B1", None)], pts)


def weighted_torsion3() -> HeegaardDiagram:
    """Entry 1 + s + s^2 over torsion order 3: nonzero for the trivial
    character, zero for the primitive ones."""
    g = GroupDescriptor(0, 3)
    pts = [Point("A1", "B1", 1, g.make_weight((), i)) for i in range(3)]
    return make_diagram(g, None, None, [], ["A1"], [], [("B1", None)], pts)


def bordered_mixed() -> HeegaardDiagram:
    """Bordered diagram with one alpha circle and a t1 weight; its matrix
    has distinct entries in the two idempotent slots."""
    g = GroupDescriptor(1)
    one = g.identity()
    z = interval_arcs(1)
    pts = [
        Point("aOut1", "b1", -1, one),
        Point("A", "b1", 1, g.make_weight((1,), 0)),
        Point("A", "b2", 1, one),
        Point("aIn1", "b2", 1, one),
    ]
    return make_diagram(g, z, z, [("aOut1", "same")], ["A"],
                        [("aIn1", "opposite")], [("b1", None), ("b2", None)],
                        pts)


def fixture_library() -> dict:
    """All shipped fixtures, name -> (diagram, comment)."""
    lib = {}
    for n in range(1, 5):
        lib[f"identity_n{n}"] = (
            identity_diagram(interval_arcs(n)),
            f"identity cobordism on a {n}-arc interval; "
            f"matrix is ({'-' if n % 2 else '+'}1) times the identity",
        )
    for n in range(1, 6):
        plural = "crossing" if n == 1 else "crossings"
        lib[f"annulus_n{n}"] = (
            annulus(n),
            f"one circle pair with {n} positive {plural}; matrix [[{n}]]",
        )
        powers = " + ".join(["1"] + [f"t^{k}" if k > 1 else "t"
                                     for k in range(1, n)])
        lib[f"annulus_n{n}_weighted"] = (
            annulus(n, weighted=True),
            f"{plural} weighted by successive powers of t; entry {powers}",
        )
    lib["mixed_2x2"] = (
        mixed_2x2(), "ordinary 2x2 presentation with a negative crossing; "
        "determinant 2")
    lib["zero_matrix"] = (
        zero_matrix(), "cancelling crossings give presentation [[0]]: "
        "nonzero presentation kernel, both invariants vanish")
    lib["infinite_h1"] = (
        infinite_h1(), "parallel betas between the boundary arcs: infinite "
        "cokernel on the core block, both invariants vanish")
    lib["surplus_circle"] = (
        surplus_circle(), "an alpha circle no beta meets: no generators, "
        "kernel rank falls short of its expected degree")
    lib["halfproj_left"] = (
        halfproj_left(), "incoming piece of the genus-1 gluing pair")
    lib["halfproj_right"] = (
        halfproj_right(), "outgoing piece of the genus-1 gluing pair")
    lib["halfproj_pair"] = (
        halfproj_pair(), "glued genus-1 pair; the single surviving "
        "generator keeps the composite nonzero")
    lib["torsion_vanishing"] = (
        torsion_vanishing(), "entry 1 - s over torsion 2: vanishes for the "
        "trivial character only")
    lib["weighted_free2"] = (
        weighted_free2(), "entry 1 + t1 + t2 over free rank 2")
    lib["weighted_torsion3"] = (
        weighted_torsion3(), "entry 1 + s + s^2 over torsion 3: survives "
        "only the trivial character")
    lib["bordered_mixed"] = (
        bordered_mixed(), "bordered fixture with an interior circle and a "
        "t1 weight; distinct idempotent entries")
    lib["braid_swap"] = (
        braid_diagram(interval_arcs(1), interval_arcs(1)),
        "swap of two one-arc intervals; matrix is minus the braiding")
    return lib
