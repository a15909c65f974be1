#!/usr/bin/env python3
"""Random-corpus sweep beyond the fixed acceptance sizes.

Draws gluable pairs and standalone diagrams from a seed, then reports how
often each identity was exercised nontrivially: gluing against composition,
normalization invariance, and the determinant-functor comparison per
coefficient ring.  It also checks the state-sum engine behind the
invariant matrix against generator enumeration.  Any mismatch aborts with
a nonzero exit.
"""

import argparse
import random
import sys
from dataclasses import dataclass

from bsfloer import exterior as X
from bsfloer.alexander import compare_bsda_alexander
from bsfloer.bsda import (
    bsda_z,
    bsda_zh,
    enumerate_generators,
    generator_count,
    gr_da,
    weight_ring,
)
from bsfloer.diagram import GroupDescriptor, glue, normalize
from bsfloer.rings import ZZ
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
    for ring in cfg.rings:
        print(sweep_compare(cfg, ring))
    print("corpus sweep: all identities held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
