#!/usr/bin/env python3
"""Random-corpus sweep beyond the fixed acceptance sizes.

Draws gluable pairs and standalone diagrams from a seed, then reports how
often each identity was exercised nontrivially: gluing against composition
(over Z, and with weights over Z[H], Q[H] and for the Z[H] and Z[G]
functors, the weighted pairs biased toward nonzero composites),
normalization invariance, and the determinant-functor comparison per
coefficient ring.  It also checks the state-sum engine behind the
invariant matrix against generator enumeration, disjoint unions and
identity chains included; the determinant built on the same state sum
against a Leibniz sum over permutations; the invariant of closed diagrams,
which integer elimination computes, against the Leibniz sum and det_exact;
the invariant of normalized identities and glued identity chains against
the identity up to sign, at sizes where the engine's pruning decides the
cost; the state-sum Alexander functor against one determinant per entry;
the core analysis of normalized diagrams against the Smith normal form of
the core rows and the integer rank of the whole presentation; the
up-to-unit comparison of graded maps against the same comparison over
every key in sorted order; and the output of normalize, which is built
without validation, against validate, its role tags against
normalized_roles, and a JSON round trip.  Any mismatch aborts with a
nonzero exit.  The engine sweep also counts
the diagrams that rings.state_sums splits into two or more blocks of
rings.row_blocks, from SPLIT_MIN_ROWS rows on (a diagram with an empty row
is not split: its value is 0 at once).
"""

import argparse
import random
import sys
from dataclasses import dataclass, replace
from functools import reduce
from itertools import permutations

from bsfloer import exterior as X
from bsfloer.alexander import (
    _ring_change,
    alexander_function,
    alexander_functor,
    bsda_map,
    compare_bsda_alexander,
    entry_vectors,
)
from bsfloer.bsda import (
    bsda_z,
    bsda_zh,
    enumerate_generators,
    generator_count,
    gr_da,
    incidence,
    weight_ring,
)
from bsfloer.diagram import (
    GroupDescriptor,
    disjoint,
    dumps,
    glue,
    identity_diagram,
    interval_arcs,
    loads,
    normalize,
    normalized_roles,
    validate,
)
from bsfloer.fixtures import (
    braid_diagram,
    fixture_library,
    ordinary_from_matrix,
)
from bsfloer.homology import (
    k_element,
    presentation_matrix,
    torsion_order,
)
from bsfloer.rings import (
    SPLIT_MIN_ROWS,
    ZZ,
    GroupRing,
    Matrix,
    QHRing,
    det_exact,
    integer_kernel_is_zero,
    parse_element,
    row_blocks,
    values_eq_up_to_unit,
)
from bsfloer.selftest import _random_piece, random_diagram, random_gluable_pair


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


GLUE_DRAWS = 4      # draws per weighted gluing slot, until one is nonzero


def sweep_weighted_gluing(cfg: SweepConfig) -> str:
    """Pairs glued as random_gluable_pair glues them, with weights in the
    sweep's groups: bsda_zh and the Q[H] matrix of the glued diagram
    against the composite of its pieces', and the Z[H] and Z[G] Alexander
    functors of the normalized glued diagram against the composite
    functors, each up to a unit.  A slot draws up to GLUE_DRAWS pairs and
    stops at the first whose glued Z[H] matrix is nonzero; every draw is
    checked, and at least a quarter of the slots must end nonzero."""
    rng = random.Random(cfg.seed * 7919 + 12)
    draws = nonzero = 0
    functor_nonzero = {"zh": 0, "zg": 0}
    for k in range(cfg.pairs):
        group = GROUPS[k % len(GROUPS)]
        for _ in range(GLUE_DRAWS):
            mid = interval_arcs(rng.randint(1, 3))
            left = _random_piece(rng, interval_arcs(rng.randint(0, 2)), mid,
                                 group=group)
            need = ["same" if flag == "opposite" else "opposite"
                    for _, flag in left.alpha_in]
            right = _random_piece(rng, mid, interval_arcs(rng.randint(0, 2)),
                                  out_flags=need, group=group)
            h = glue(left, right)
            f = bsda_zh(h)
            checks = [(f, bsda_zh(left), bsda_zh(right)),
                      (bsda_map(h, "qh"), bsda_map(left, "qh"),
                       bsda_map(right, "qh"))]
            functors = {tag: alexander_functor(normalize(h), tag)
                        for tag in functor_nonzero}
            checks += [(a, alexander_functor(normalize(left), tag),
                        alexander_functor(normalize(right), tag))
                       for tag, a in functors.items()]
            for glued, lf, rf in checks:
                if not X.eq_up_to_global_unit(glued, X.compose(lf, rf))[0]:
                    raise SystemExit(
                        f"weighted glue/compose mismatch at draw {draws}")
            draws += 1
            if not f.is_zero():
                break
        nonzero += not f.is_zero()
        for tag, a in functors.items():
            functor_nonzero[tag] += not a.is_zero()
    if nonzero < cfg.pairs // 4:
        raise SystemExit(f"degenerate weighted gluing corpus: only {nonzero} "
                         f"of {cfg.pairs} nonzero composites")
    return (f"weighted gluing: {draws} pairs over {len(GROUPS)} groups ok, "
            f"{nonzero} of {cfg.pairs} slots with nonzero Z[H] composites, "
            f"{functor_nonzero['zh']} nonzero Z[H] and "
            f"{functor_nonzero['zg']} nonzero Z[G] functor composites")


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
                           ring.monomial(w, s))
    return (X.GradedMap(ZZ, h.n0, h.n1, h.degree, z),
            X.GradedMap(ring, h.n0, h.n1, h.degree, zh))


def sweep_engine(cfg: SweepConfig) -> str:
    """bsda_z, bsda_zh and generator_count against generator enumeration on
    glued pairs, random pieces, disjoint unions of random pieces (a side
    normalized half the time) and identity chains on 3-5 strands, each
    also normalized."""
    rng = random.Random(cfg.seed * 7919 + 5)
    pair_rng = random.Random(cfg.seed * 7919 + 11)
    diagrams = []
    for k in range(cfg.pairs):
        group = GROUPS[k % len(GROUPS)]
        sides = [random_diagram(pair_rng, group=group) for _ in range(2)]
        sides = [normalize(d) if pair_rng.random() < 0.5 else d for d in sides]
        glued = glue(*random_gluable_pair(rng))
        h = random_diagram(rng, group=group)
        diagrams += [glued, normalize(glued), h, normalize(h),
                     disjoint(*sides)]
    for k in range(3, 6):
        for length in (2, 3):
            chain = reduce(glue, [identity_diagram(interval_arcs(k))] * length)
            diagrams += [chain, normalize(chain)]
    split = 0
    for k, d in enumerate(diagrams):
        z, zh = enumerated_matrices(d)
        if not (X.map_eq(bsda_z(d), z) and X.map_eq(bsda_zh(d), zh)
                and generator_count(d) == len(enumerate_generators(d))):
            raise SystemExit(f"engine/enumeration mismatch at diagram {k}")
        rows = incidence(d).rows
        split += (len(rows) >= SPLIT_MIN_ROWS
                  and len(row_blocks(rows) or ()) > 1)
    return (f"engine: {len(diagrams)} diagrams match generator enumeration, "
            f"{split} split into blocks")


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


def closed_cases(rng):
    """(matrix, closed diagram) pairs: ordinary_from_matrix of dense and
    sparse square matrices for n = 0..12, and shuffled disjoint unions of
    2 to 12 closed pieces of 1 to 4 circles (up to 48 rows), whose matrix
    is the block-diagonal one with the same shuffles."""
    cases = []
    for n in range(13):
        for density in (0.3, 0.6, 1.0):
            for _ in range(3):
                m = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density
                      else 0 for _ in range(n)] for _ in range(n)]
                cases.append((m, ordinary_from_matrix(m)))
    for count in range(2, 13):
        for _ in range(4):
            blocks = [[[rng.choice((0, -2, -1, 1, 2)) for _ in range(k)]
                       for _ in range(k)] for k in rng.choices(range(1, 5),
                                                               k=count)]
            h = reduce(disjoint, map(ordinary_from_matrix, blocks))
            n = h.a
            m = [[0] * n for _ in range(n)]
            start = 0
            for block in blocks:
                for i, row in enumerate(block):
                    m[start + i][start:start + len(row)] = row
                start += len(block)
            rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
            h = replace(h, alpha_circles=tuple(h.alpha_circles[j] for j in cp),
                        beta_circles=tuple(h.beta_circles[i] for i in rp))
            cases.append(([[m[i][j] for j in cp] for i in rp], h))
    return cases


def sweep_closed(cfg: SweepConfig) -> str:
    """bsda_z of closed diagrams, which integer elimination computes,
    against the Leibniz sum for n <= 7 and the state sum (det_exact)
    beyond."""
    rng = random.Random(cfg.seed * 7919 + 13)
    checked = nonzero = 0
    for m, h in closed_cases(rng):
        n = len(m)
        want = leibniz_det(ZZ, m) if n <= 7 else det_exact(ZZ, m)
        if bsda_z(h).entries != ({((), ()): want} if want else {}):
            raise SystemExit(f"closed bsda_z/determinant mismatch at n={n}")
        checked += 1
        nonzero += want != 0
    return (f"closed: {checked} diagrams match the Leibniz sum (n <= 7) or "
            f"det_exact, {nonzero} nonzero")


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
        pres = Matrix(ring, [[fn(e) for e in row] for row in pres.entries])
    ring = pres.ring
    n1, c = hn.n1, hn.degree
    entries = {}
    if pres.rows >= pres.cols:
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
    """k_element's prefactor against torsion_order (the Smith normal form)
    of the core rows, and its injectivity (a basis of full rank, read only
    when star3 holds, that is when the core cokernel is finite) against
    integer_kernel_is_zero (one integer elimination) of the whole
    presentation, on normalized random diagrams, glued random pairs and
    identity and braid chains."""
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
        ke = k_element(hn)
        M = presentation_matrix(hn, "z").entries
        order = torsion_order([M[r] for r in normalized_roles(hn)[1]])
        if ke.prefactor != order:
            raise SystemExit(f"core prefactor/SNF mismatch at diagram {k}")
        if order:
            star3 += 1
            if (ke.rank == len(ke.basis)) != (integer_kernel_is_zero(M) if M
                                              else not hn.alpha_circles):
                raise SystemExit(f"core injectivity/rank mismatch at diagram {k}")
    return (f"core: {len(diagrams)} normalized diagrams match the Smith "
            f"normal forms, {star3} with star3")


def tagged_rows(hn) -> tuple:
    """The beta rows tagged newOut(1..n1), core and newIn(1..n0), in that
    order, each found by its exact tag string."""
    tags = [r for _, r in hn.beta_circles]
    return ([tags.index(f"newOut({j})") for j in range(1, hn.n1 + 1)],
            [r for r, tag in enumerate(tags) if tag == "core"],
            [tags.index(f"newIn({i})") for i in range(1, hn.n0 + 1)])


def sweep_normalize(cfg: SweepConfig) -> str:
    """On normalize's output for random pieces over Z^r x Z/m (r = 0..2,
    m = 1..4), every fixture, and glued random pairs: validate finds
    nothing, normalized_roles gives the rows the role tags name, and a JSON
    round trip gives the diagram back."""
    rng = random.Random(cfg.seed * 7919 + 10)
    groups = [GroupDescriptor(r, m) for r in range(3) for m in range(1, 5)]
    diagrams = [random_diagram(rng, group=groups[k % len(groups)])
                for k in range(cfg.diagrams_per_ring)]
    diagrams += [h for h, _ in fixture_library().values()]
    diagrams += [glue(*random_gluable_pair(rng)) for _ in range(cfg.pairs)]
    for k, h in enumerate(diagrams):
        hn = normalize(h)
        try:
            validate(hn)
        except ValueError as e:
            raise SystemExit(f"normalize output invalid at diagram {k}: {e}")
        if tuple(map(list, normalized_roles(hn))) != tagged_rows(hn):
            raise SystemExit(f"role ranges miss their tags at diagram {k}")
        if loads(dumps(hn)) != hn:
            raise SystemExit(f"JSON round trip changes diagram {k}")
    n = len(diagrams)
    return (f"normalize: {n} normalized diagrams valid, {n} role ranges "
            f"match their tags, {n} survive a JSON round trip")


def sorted_unit_oracle(f, g):
    """eq_up_to_global_unit with every key of f and g in sorted order."""
    if f.is_zero() and g.is_zero():
        return True, f.ring.one()
    zero = f.ring.zero()
    keys = sorted(set(f.entries) | set(g.entries))
    return values_eq_up_to_unit(
        f.ring, [(f.entries.get(k, zero), g.entries.get(k, zero)) for k in keys])


def unit_rings():
    """(ring, base group ring, map from the base, factors): Z[Z^r x Z/m]
    for r = 0..2 and m = 2..4, and Q[H] for three groups.  The factors
    1 - s, the norm 1 + s + ... + s^(m-1) and 1 + s^(m/2) bring in zero
    divisors, where several units can fit."""
    out = []
    for r in range(3):
        for m in range(2, 5):
            zg = GroupRing(r, m)
            factors = ["1 - s", " + ".join(f"s^{k}" for k in range(m))]
            if m % 2 == 0:
                factors.append(f"1 + s^{m // 2}")
            out.append((zg, zg, lambda x: x,
                        [parse_element(zg, e) for e in factors]))
    for group in (GroupDescriptor(1, 3), GroupDescriptor(0, 4),
                  GroupDescriptor(1, 2)):
        qh, zg = QHRing(group), GroupRing(group.free_rank, group.torsion_order)
        out.append((qh, zg, qh.from_zh,
                    [parse_element(zg, "1 - s"), parse_element(zg, "1 + s")]))
    return out


def sweep_units(cfg: SweepConfig) -> str:
    """Random map pairs f, g (g scaled by one factor, f a unit times g,
    that with one entry redrawn, or drawn on its own): the comparison must
    give the oracle's answer and the same unit, printed the same."""
    rng = random.Random(cfg.seed * 7919 + 10)
    keys = [(I, J) for I in X.subsets(2) for J in X.subsets(2)
            if len(I) == len(J)]
    cases = unit_rings()
    equal = 0
    for k in range(cfg.pairs):
        ring, base, lift, factors = cases[k % len(cases)]
        draw = group_ring_draw(base)
        factor = rng.choice([base.one(), *factors])

        def entries(scale):
            return {key: lift(base.mul(scale, draw(rng)))
                    for key in rng.sample(keys, rng.randint(1, len(keys)))}

        g = X.GradedMap(ring, 2, 2, 0, entries(factor))
        mode = rng.choice(("scaled", "scaled", "perturbed", "free"))
        if mode == "free":
            f = X.GradedMap(ring, 2, 2, 0, entries(base.one()))
        else:
            free = [rng.randint(-2, 2) for _ in range(base.free_rank)]
            u = lift(base.monomial((*free, rng.randrange(base.torsion_order)),
                                   rng.choice((1, -1))))
            f_entries = {key: ring.mul(u, b) for key, b in g.entries.items()}
            if mode == "perturbed":
                f_entries[rng.choice(keys)] = lift(draw(rng))
            f = X.GradedMap(ring, 2, 2, 0, f_entries)
        got, want = X.eq_up_to_global_unit(f, g), sorted_unit_oracle(f, g)
        if got[0] != want[0] or (want[0] and (
                got[1] != want[1]
                or ring.to_str(got[1]) != ring.to_str(want[1]))):
            raise SystemExit(f"unit comparison/sorted oracle mismatch at pair {k}")
        equal += want[0]
    return (f"units: {cfg.pairs} map pairs over {len(cases)} rings match the "
            f"sorted oracle, {equal} equal up to a unit")


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
    print(sweep_weighted_gluing(cfg))
    print(sweep_engine(cfg))
    print(sweep_det(cfg))
    print(sweep_closed(cfg))
    print(sweep_identities())
    print(sweep_functor(cfg))
    print(sweep_core(cfg))
    print(sweep_normalize(cfg))
    print(sweep_units(cfg))
    for ring in cfg.rings:
        print(sweep_compare(cfg, ring))
    print("corpus sweep: all identities held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
