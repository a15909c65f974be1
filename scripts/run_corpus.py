#!/usr/bin/env python3
"""Random-corpus sweep beyond the fixed acceptance sizes.

Draws gluable pairs and standalone diagrams from a seed, then reports how
often each identity was exercised nontrivially: gluing against composition,
normalization invariance, and the determinant-functor comparison per
coefficient ring.  It also checks the state-sum engine behind the
invariant matrix against generator enumeration, the determinant built on
the same state sum against a Leibniz sum over permutations, and the
invariant of normalized identities and glued identity chains against the
identity up to sign, at sizes where the engine's pruning decides the cost,
the state-sum Alexander functor against one determinant per entry, and the
core analysis of normalized diagrams against the Smith normal forms of the
core rows and of the whole presentation.  Any mismatch aborts with a
nonzero exit.
"""

import argparse
import random
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import permutations

from bsfloer import exterior as X
from bsfloer.alexander import (
    _ring_change,
    alexander_function,
    alexander_functor,
    compare_bsda_alexander,
    entry_vectors,
)
from bsfloer.bsda import (
    bsda_z,
    bsda_zh,
    enumerate_generators,
    generator_count,
    gr_da,
    weight_ring,
)
from bsfloer.diagram import (
    GroupDescriptor,
    glue,
    identity_diagram,
    interval_arcs,
    normalize,
)
from bsfloer.fixtures import braid_diagram
from bsfloer.homology import (
    Presentation,
    _core_analysis,
    presentation_matrix,
    torsion_order,
)
from bsfloer.rings import (
    ZZ,
    GroupRing,
    Matrix,
    QHRing,
    det_exact,
    integer_kernel_is_zero,
)
from bsfloer.selftest import random_diagram, random_gluable_pair


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 0
    pairs: int = 250
    diagrams_per_ring: int = 250
    rings: tuple = ("z", "zg", "qh")


GROUPS = [
    GroupDescriptor(0),
    GroupDescriptor(1),
    GroupDescriptor(2),
    GroupDescriptor(0, 2),
    GroupDescriptor(1, 3),
    GroupDescriptor(0, 3),
]


def sweep_gluing(cfg: SweepConfig) -> str:
    rng = random.Random(cfg.seed * 7919 + 1)
    nonzero = 0
    for k in range(cfg.pairs):
        left, right = random_gluable_pair(rng)
        glued = bsda_z(glue(left, right))
        ok, _ = X.eq_up_to_global_unit(
            glued, X.compose(bsda_z(left), bsda_z(right)))
        if not ok:
            raise SystemExit(f"glue/compose mismatch at pair {k}")
        for h in (left, right):
            ok, _ = X.eq_up_to_global_unit(bsda_z(normalize(h)), bsda_z(h))
            if not ok:
                raise SystemExit(f"normalization mismatch at pair {k}")
        if not glued.is_zero():
            nonzero += 1
    return f"gluing: {cfg.pairs} pairs ok, {nonzero} nonzero composites"


def sweep_identities() -> str:
    """bsda_z is +-1 times the identity on normalized identities, k = 1..10
    arcs, and on glued identity chains of length 2..6 on k = 1..6 arcs."""
    cases = [(f"normalized identity k={k}", k,
              normalize(identity_diagram(interval_arcs(k))))
             for k in range(1, 11)]
    cases += [(f"identity chain L={length} k={k}", k,
               reduce(glue, [identity_diagram(interval_arcs(k))] * length))
              for length in range(2, 7) for k in range(1, 7)]
    for name, k, h in cases:
        ok, unit = X.eq_up_to_global_unit(bsda_z(h), X.identity_map(ZZ, k))
        if not (ok and unit in (1, -1)):
            raise SystemExit(f"identity mismatch: {name}")
    return f"identities: {len(cases)} normalized identities and chains ok"


def enumerated_matrices(h):
    """bsda_z and bsda_zh summed generator by generator: the slow oracle."""
    ring = weight_ring(h)
    z, zh = {}, {}
    for x in enumerate_generators(h):
        g = gr_da(h, x)
        key = (g.o_r, g.obar_l)
        s = -1 if g.total else 1
        w = h.group.identity()
        for p in x.points:
            w = h.group.mul_weight(w, p.weight)
        z[key] = z.get(key, 0) + s
        zh[key] = ring.add(zh.get(key, ring.zero()),
                           ring.monomial(w.monomial(), s))
    return (X.GradedMap(ZZ, h.n0, h.n1, h.degree, z),
            X.GradedMap(ring, h.n0, h.n1, h.degree, zh))


def sweep_engine(cfg: SweepConfig) -> str:
    rng = random.Random(cfg.seed * 7919 + 5)
    checked = 0
    for k in range(cfg.pairs):
        glued = glue(*random_gluable_pair(rng))
        h = random_diagram(rng, group=GROUPS[k % len(GROUPS)])
        for d in (glued, normalize(glued), h, normalize(h)):
            z, zh = enumerated_matrices(d)
            if not (X.map_eq(bsda_z(d), z) and X.map_eq(bsda_zh(d), zh)
                    and generator_count(d) == len(enumerate_generators(d))):
                raise SystemExit(f"engine/enumeration mismatch at draw {k}")
            checked += 1
    return f"engine: {checked} diagrams match generator enumeration"


def leibniz_det(ring, entries):
    """Sum over all permutations of signed products: the independent
    oracle for det_exact."""
    n = len(entries)
    acc = ring.zero()
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        term = ring.one()
        for i, j in enumerate(perm):
            term = ring.mul(term, entries[i][j])
        acc = ring.add(acc, ring.neg(term) if inv & 1 else term)
    return acc


def group_ring_draw(ring):
    """A random element of ring with one or two terms, exponents -1..1."""
    def draw(rng):
        x = ring.zero()
        for _ in range(rng.choice((1, 1, 2))):
            free = [rng.randint(-1, 1) for _ in range(ring.free_rank)]
            c = rng.choice((-2, -1, 1, 2))
            x = ring.add(x, ring.monomial(
                (*free, rng.randrange(ring.torsion_order)), c))
        return x
    return draw


def det_rings():
    """(name, ring, draw) for Z, Z[G], Z[Z^r x Z/m] and Q[H]."""
    zg = GroupRing(2, 1)
    zh = GroupRing(1, 3)
    qh = QHRing(GroupDescriptor(1, 3))
    draw_zh = group_ring_draw(zh)
    return [
        ("Z", ZZ, lambda rng: rng.randint(-3, 3)),
        ("Z[Z^2]", zg, group_ring_draw(zg)),
        ("Z[Z x Z/3]", zh, draw_zh),
        ("Q[Z x Z/3]", qh, lambda rng: qh.from_zh(draw_zh(rng))),
    ]


def sweep_det(cfg: SweepConfig) -> str:
    rng = random.Random(cfg.seed * 7919 + 6)
    checked = nonzero = 0
    for name, ring, draw in det_rings():
        for n in range(7):
            for density in (0.3, 1.0):
                for _ in range(2):
                    m = [[draw(rng) if rng.random() < density else ring.zero()
                          for _ in range(n)] for _ in range(n)]
                    d = det_exact(ring, m)
                    if not ring.eq(d, leibniz_det(ring, m)):
                        raise SystemExit(
                            f"det_exact/Leibniz mismatch over {name} at n={n}")
                    checked += 1
                    nonzero += not ring.is_zero(d)
    return f"det: {checked} matrices match the Leibniz sum, {nonzero} nonzero"


def per_entry_functor(hn, tag):
    """The Alexander functor one determinant per entry, on the presentation
    mapped into the target ring: the oracle for alexander_functor."""
    pres = presentation_matrix(hn, "z" if tag == "z" else "zh")
    if tag != "z":
        ring, fn = _ring_change(hn.group, tag)
        pres = Presentation(Matrix(ring, [[fn(e) for e in row]
                                          for row in pres.matrix.entries]), ())
    ring = pres.matrix.ring
    n1, c = hn.n1, hn.degree
    entries = {}
    if pres.matrix.rows >= pres.matrix.cols:
        for (I, J), u in entry_vectors(hn).items():
            jc = tuple(j for j in range(1, n1 + 1) if j not in J)
            val = alexander_function(pres, u)
            odd = (X.cross_inversions(J, jc) + c * len(jc)) % 2
            entries[(I, J)] = ring.neg(val) if odd else val
    return X.GradedMap(ring, hn.n0, n1, c, entries)


def sweep_functor(cfg: SweepConfig) -> str:
    rng = random.Random(cfg.seed * 7919 + 8)
    nonzero = 0
    for k in range(cfg.diagrams_per_ring):
        hn = normalize(random_diagram(rng, group=GROUPS[k % len(GROUPS)]))
        for tag in cfg.rings:
            f = alexander_functor(hn, tag)
            if not X.map_eq(f, per_entry_functor(hn, tag)):
                raise SystemExit(
                    f"functor/per-entry mismatch over {tag} at diagram {k}")
            nonzero += not f.is_zero()
    return (f"functor: {cfg.diagrams_per_ring} diagrams over "
            f"{len(cfg.rings)} rings match the per-entry determinants, "
            f"{nonzero} nonzero maps")


def sweep_core(cfg: SweepConfig) -> str:
    """The prefactor against the SNF of the core rows, and injectivity
    (read only when star3 holds) against the SNF of the whole presentation,
    on normalized random diagrams, glued random pairs and identity and
    braid chains."""
    rng = random.Random(cfg.seed * 7919 + 9)
    diagrams = [random_diagram(rng, group=GROUPS[k % len(GROUPS)])
                for k in range(cfg.diagrams_per_ring)]
    diagrams += [glue(*random_gluable_pair(rng)) for _ in range(cfg.pairs)]
    diagrams += [reduce(glue, [piece(interval_arcs(k))] * length)
                 for piece in (identity_diagram, lambda z: braid_diagram(z, z))
                 for k in range(1, 4) for length in range(2, 4)]
    star3 = 0
    for k, h in enumerate(diagrams):
        hn = normalize(h)
        data = _core_analysis(hn)
        if data["prefactor"] != torsion_order(data["core"]):
            raise SystemExit(f"core prefactor/SNF mismatch at diagram {k}")
        if data["star3_ok"]:
            star3 += 1
            M = presentation_matrix(hn, "z").matrix.entries
            if data["injective"] != (integer_kernel_is_zero(M) if M
                                     else not hn.alpha_circles):
                raise SystemExit(f"core injectivity/SNF mismatch at diagram {k}")
    return (f"core: {len(diagrams)} normalized diagrams match the Smith "
            f"normal forms, {star3} with star3")


def sweep_compare(cfg: SweepConfig, ring: str) -> str:
    rng = random.Random(cfg.seed * 7919 + 2 + cfg.rings.index(ring))
    nonzero = 0
    for k in range(cfg.diagrams_per_ring):
        h = random_diagram(rng, group=GROUPS[k % len(GROUPS)])
        rep = compare_bsda_alexander(h, ring)
        if not rep.match:
            raise SystemExit(f"{ring} comparison mismatch at diagram {k}")
        if not rep.bsda.is_zero():
            nonzero += 1
    return (f"compare[{ring}]: {cfg.diagrams_per_ring} diagrams ok, "
            f"{nonzero} nonzero")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=250)
    ap.add_argument("--per-ring", type=int, default=250)
    args = ap.parse_args()
    cfg = SweepConfig(seed=args.seed, pairs=args.pairs,
                      diagrams_per_ring=args.per_ring)
    print(sweep_gluing(cfg))
    print(sweep_engine(cfg))
    print(sweep_det(cfg))
    print(sweep_identities())
    print(sweep_functor(cfg))
    print(sweep_core(cfg))
    for ring in cfg.rings:
        print(sweep_compare(cfg, ring))
    print("corpus sweep: all identities held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
