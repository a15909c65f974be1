"""Acceptance battery behind the selftest verb.

Twelve checks, one per assembled guarantee: identity interfaces, gluing
against composition, normalization invariance, determinants of ordinary
diagrams, the sutured TQFT comparison, pairing of the one-sided element,
presentation invariance of the determinant functor, augmentation and
torsion counts, weighted coefficient comparisons, the monoidal structure,
capping counts, and lift-change covariance.

Everything is exact integer or group-ring arithmetic.  Random corpora are
rebuilt deterministically from the seed, so two runs with the same seed
print the same table.
"""

import random
import time
from dataclasses import dataclass

from . import exterior as X
from .alexander import (
    alexander_function,
    bsda_map,
    compare_bsda_alexander,
    entry_vectors,
    random_equivalent_presentation,
    transport_vector,
)
from .bsda import augment_map, bsda_z, bsda_zh, bsdd_element, weight_ring
from .diagram import (
    Point,
    cap,
    disjoint,
    glue,
    identity_diagram,
    interval_arcs,
    make_diagram,
    normalize,
    reweight,
)
from .fixtures import (
    GENUS1,
    annulus,
    braid_diagram,
    fixture_library,
    ordinary_from_matrix,
    torsion_vanishing,
    weighted_torsion3,
)
from .homology import (presentation_matrix, torsion_order, vfn_sut,
                       weakly_balanced)
from .rings import ZZ, GroupRing, det_exact, values_eq_up_to_unit


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    seconds: float


# random corpus builders

def _random_piece(rng, z_out, z_in, out_flags=None, group=None):
    """Small bordered diagram with the corpus caps: at most 2 interior
    circles, 3 beta circles, 3 points per curve pair.  Weights are random
    when the group is nontrivial."""
    from .diagram import GroupDescriptor

    if group is None:
        group = GroupDescriptor(0)
    n1, n0 = z_out.arc_count, z_in.arc_count
    lo = 0 if n0 + n1 else 1
    circles = [f"C{i + 1}" for i in range(rng.randint(lo, 2))]
    betas = [f"b{t + 1}" for t in range(rng.randint(1, 3))]
    outs = [(f"aOut{j + 1}",
             out_flags[j] if out_flags else rng.choice(("same", "opposite")))
            for j in range(n1)]
    ins = [(f"aIn{i + 1}", rng.choice(("same", "opposite")))
           for i in range(n0)]
    alphas = [i for i, _ in outs] + circles + [i for i, _ in ins]
    pair_count: dict = {}
    points = []

    def rand_weight():
        if group.free_rank == 0 and group.torsion_order == 1:
            return group.identity()
        free = tuple(rng.randint(-1, 1) for _ in range(group.free_rank))
        tors = rng.randrange(group.torsion_order)
        return group.make_weight(free, tors)

    def add(alpha, beta):
        key = (alpha, beta)
        if pair_count.get(key, 0) >= 3:
            return
        pair_count[key] = pair_count.get(key, 0) + 1
        points.append(Point(alpha, beta, rng.choice((-1, 1)), rand_weight()))

    for b in betas:
        for _ in range(rng.randint(1, 3)):
            add(rng.choice(alphas), b)
    # bias toward diagrams whose circles can all be covered
    for c in circles:
        if rng.random() < 0.85:
            add(c, rng.choice(betas))
    return make_diagram(group, z_out, z_in, outs, circles, ins,
                        [(b, None) for b in betas], points)


def random_gluable_pair(rng):
    """Two pieces sharing an interval interface of 1 to 3 arcs, with arc
    orientations chosen so the interfaces actually match."""
    mid = interval_arcs(rng.randint(1, 3))
    left = _random_piece(rng, interval_arcs(rng.randint(0, 2)), mid)
    need = ["same" if flag == "opposite" else "opposite"
            for _, flag in left.alpha_in]
    right = _random_piece(rng, mid, interval_arcs(rng.randint(0, 2)),
                          out_flags=need)
    return left, right


def _piece_corpus(rng, count):
    out = []
    for k in range(count):
        z1 = interval_arcs(rng.randint(0, 2))
        z0 = interval_arcs(rng.randint(0, 2))
        out.append((f"random_{k}", _random_piece(rng, z1, z0)))
    return out


def random_diagram(rng, group=None):
    """One random piece with interval boundaries of 0 to 2 arcs."""
    z1 = interval_arcs(rng.randint(0, 2))
    z0 = interval_arcs(rng.randint(0, 2))
    return _random_piece(rng, z1, z0, group=group)


# the twelve criteria

def criterion_1(seed):
    pool = [interval_arcs(n) for n in (1, 2, 3, 4)] + [GENUS1]
    for z in pool:
        f = bsda_z(identity_diagram(z))
        ok, unit = X.eq_up_to_global_unit(f, X.identity_map(ZZ, z.arc_count))
        if not (ok and unit in (1, -1)):
            return False, f"not a signed identity on a {z.arc_count}-arc interface"
    return True, "5 interfaces up to 4 arcs each give a signed identity matrix"


def criterion_2(seed):
    rng = random.Random(seed * 997 + 2)
    nonzero = 0
    for trial in range(100):
        left, right = random_gluable_pair(rng)
        glued = bsda_z(glue(left, right))
        composed = X.compose(bsda_z(left), bsda_z(right))
        ok, _ = X.eq_up_to_global_unit(glued, composed)
        if not ok:
            return False, f"glue/compose mismatch at trial {trial}"
        if not glued.is_zero():
            nonzero += 1
    if nonzero < 5:
        return False, f"degenerate corpus: only {nonzero} nonzero composites"
    return True, f"100 random gluable pairs match; {nonzero} composites nonzero"


def criterion_3(seed):
    # same stream as criterion 2, so the corpus is identical
    rng = random.Random(seed * 997 + 2)
    checked = 0
    for trial in range(100):
        left, right = random_gluable_pair(rng)
        for h in (left, right, glue(left, right)):
            ok, _ = X.eq_up_to_global_unit(bsda_z(normalize(h)), bsda_z(h))
            if not ok:
                return False, f"normalization changed the matrix at trial {trial}"
            checked += 1
    return True, f"{checked} diagrams from the gluing corpus, matrix unchanged by normalization"


def criterion_4(seed):
    rng = random.Random(seed * 997 + 4)
    for trial in range(100):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        f = bsda_z(ordinary_from_matrix(rows))
        want = det_exact(ZZ, rows)
        if f.entries.get(((), ()), 0) != want or (want == 0) != f.is_zero():
            return False, f"determinant mismatch at trial {trial}"
    return True, "100 random square presentations, entry equals the exact determinant"


def criterion_5(seed):
    rng = random.Random(seed * 997 + 5)
    corpus = [(name, h) for name, (h, _) in fixture_library().items()]
    corpus += _piece_corpus(rng, 25)
    zero_names = {"zero_matrix", "infinite_h1", "surplus_circle"}
    zeros_hit = 0
    for name, h in corpus:
        hn = normalize(h)
        f = bsda_z(hn)
        g = vfn_sut(hn)
        ok, _ = X.eq_up_to_global_unit(g, f)
        if not ok:
            return False, f"sutured map disagrees with the matrix on {name}"
        if name in zero_names:
            if not (f.is_zero() and g.is_zero()):
                return False, f"{name} should vanish on both sides"
            zeros_hit += 1
    if zeros_hit != len(zero_names):
        return False, "engineered vanishing fixtures missing from the corpus"
    return True, (f"{len(corpus)} diagrams agree up to sign; "
                  f"{zeros_hit} engineered fixtures vanish on both sides")


def criterion_6(seed):
    rng = random.Random(seed * 997 + 6)
    corpus = [(name, h) for name, (h, _) in fixture_library().items()]
    corpus += _piece_corpus(rng, 25)
    for name, h in corpus:
        f = bsda_z(h)
        e = bsdd_element(h)
        if e.is_zero():
            if not f.is_zero():
                return False, f"one-sided element vanished but the matrix did not on {name}"
            continue
        g = X.compose_eps_tensor(e, h.n0, h.n1, degree=h.degree)
        ok, unit = X.eq_up_to_global_unit(g, f)
        if not (ok and unit in (1, -1)):
            return False, f"paired one-sided element disagrees on {name}"
    return True, f"{len(corpus)} diagrams: pairing the one-sided element recovers the matrix up to sign"


STAB_FIXTURES = ("identity_n1", "identity_n2", "mixed_2x2", "annulus_n3",
                 "bordered_mixed")


def criterion_7(seed):
    lib = fixture_library()
    for name, (h, _) in lib.items():
        rep = compare_bsda_alexander(h, "z")
        if not (rep.match and rep.unit in (1, -1)):
            return False, f"determinant functor mismatch on {name}"
    checked = 0
    for fi, name in enumerate(STAB_FIXTURES):
        hn = normalize(lib[name][0])
        pres = presentation_matrix(hn, "z")
        vecs = entry_vectors(hn)
        base = {key: alexander_function(pres, u) for key, u in vecs.items()}
        for i in range(20):
            new_pres, transport = random_equivalent_presentation(
                pres, seed * 997 + 700 + 101 * fi + i)
            pairs = []
            for key, us in vecs.items():
                moved = [transport_vector(ZZ, transport, u) for u in us]
                pairs.append((alexander_function(new_pres, moved), base[key]))
            ok, unit = values_eq_up_to_unit(ZZ, pairs)
            if not (ok and unit in (1, -1)):
                return False, f"stabilization broke unit-invariance on {name}"
            checked += 1
    return True, (f"all {len(lib)} fixtures match with unit +/-1; "
                  f"{checked} stabilized presentations each off by one common sign")


def criterion_8(seed):
    lib = fixture_library()
    for name, (h, _) in lib.items():
        if not X.map_eq(augment_map(bsda_zh(h)), bsda_z(h)):
            return False, f"augmentation mismatch on {name}"
    ring = GroupRing(1, 1)
    for n in range(1, 6):
        f = bsda_zh(annulus(n, weighted=True))
        want = ring.sum(ring.monomial((k, 0)) for k in range(n))
        got = f.entries.get(((), ()), ring.zero())
        if not ring.eq(got, want):
            return False, f"weighted circle entry wrong at n={n}"
        if torsion_order(presentation_matrix(annulus(n), "z").entries) != n:
            return False, f"torsion count wrong at n={n}"
    return True, (f"augmentation exact on all {len(lib)} fixtures; circle "
                  "entries 1+t+...+t^(n-1) and torsion count n for n=1..5")


def criterion_9(seed):
    lib = fixture_library()
    names = [n for n in lib
             if "weighted" in n or n in ("torsion_vanishing", "bordered_mixed")]
    for name in names:
        h = lib[name][0]
        for tag in ("zg", "qh"):
            rep = compare_bsda_alexander(h, tag)
            if not rep.match:
                return False, f"{tag} comparison failed on {name}"
    f2 = bsda_map(torsion_vanishing(), "qh")
    val = f2.entries.get(((), ()))
    comps = f2.ring.components
    if val is None or not comps[0].is_zero(val[0]) or val[1] != comps[1].from_int(2):
        return False, "torsion-2 fixture has the wrong component pattern"
    f3 = bsda_map(weighted_torsion3(), "qh")
    val = f3.entries.get(((), ()))
    comps = f3.ring.components
    if val is None or val[0] != comps[0].from_int(3) or not comps[1].is_zero(val[1]):
        return False, "torsion-3 fixture has the wrong component pattern"
    return True, (f"{len(names)} weighted fixtures compare over both weighted "
                  "rings; component vanishing lands exactly as predicted")


def criterion_10(seed):
    pool = [interval_arcs(1), interval_arcs(2), GENUS1]
    for z in pool:
        for z2 in pool:
            n, n2 = z.arc_count, z2.arc_count
            f = bsda_z(braid_diagram(z, z2))
            br = X.braiding(ZZ, n, n2)
            ok, unit = X.eq_up_to_global_unit(f, br)
            if not (ok and unit in (1, -1)):
                return False, f"braid matrix mismatch at ({n},{n2})"
            for I in X.subsets(n):
                for I2 in X.subsets(n2):
                    src = I + X.shift_subset(I2, n)
                    dst = I2 + X.shift_subset(I, n2)
                    want = 1 if (len(I) * len(I2)) % 2 == 0 else -1
                    if br.entries.get((src, dst), 0) != want:
                        return False, f"braiding coefficient wrong at ({n},{n2})"
    pairs = [
        (identity_diagram(interval_arcs(1)), identity_diagram(interval_arcs(2))),
        (identity_diagram(interval_arcs(2)), braid_diagram(interval_arcs(1), interval_arcs(1))),
        (braid_diagram(interval_arcs(1), interval_arcs(1)), identity_diagram(interval_arcs(1))),
        (ordinary_from_matrix([[2, 1], [0, 1]]), identity_diagram(interval_arcs(2))),
        (identity_diagram(interval_arcs(1)), annulus(2)),
    ]
    for h, h2 in pairs:
        big = bsda_z(disjoint(h, h2))
        tens = X.super_tensor(bsda_z(h), bsda_z(h2))
        value_pairs = []
        for I in X.subsets(h.n0):
            for I2 in X.subsets(h2.n0):
                x = X.monoidal_phi(X.ext_basis(ZZ, h.n0, I),
                                   X.ext_basis(ZZ, h2.n0, I2), 0)
                lhs = X.apply_map(big, x)
                rhs = X.apply_map(tens, x)
                for key in set(lhs.terms) | set(rhs.terms):
                    value_pairs.append((lhs.terms.get(key, 0),
                                        rhs.terms.get(key, 0)))
        ok, unit = values_eq_up_to_unit(ZZ, value_pairs)
        if not (ok and unit in (1, -1)):
            return False, "structure map square fails on a disjoint pair"
    return True, ("exhaustive braid check on interfaces up to 2 arcs with the "
                  "(-1)^(kk') pattern; 5 disjoint pairs commute with the "
                  "structure map up to sign")


def criterion_11(seed):
    lib = fixture_library()
    names = ["identity_n1", "identity_n2", "braid_swap", "bordered_mixed",
             "halfproj_left", "halfproj_right", "mixed_2x2", "annulus_n2"]
    checked = 0
    for name in names:
        hn = normalize(lib[name][0])
        if hn.n0 + hn.n1 > 4:
            return False, f"{name} exceeds the interface budget"
        f = bsda_z(hn)
        c = hn.degree
        for I in X.subsets(hn.n0):
            for J in X.subsets(hn.n1):
                capped = cap(hn, I, J)
                if weakly_balanced(hn, I, J) != (capped.a == capped.b):
                    return False, f"balance/circle-count mismatch on {name}"
                if len(J) != len(I) + c:
                    continue
                jc = tuple(j for j in range(1, hn.n1 + 1) if j not in J)
                exp = X.cross_inversions(J, jc) + (hn.a + hn.n1) * len(I)
                sign = 1 if exp % 2 == 0 else -1
                count = bsda_z(capped).entries.get(((), ()), 0)
                if sign * count != f.entries.get((I, J), 0):
                    return False, f"capped count mismatch on {name} at {I},{J}"
                checked += 1
    return True, (f"{checked} capped entries equal signed generator counts; "
                  "weak balance matches equal circle counts throughout")


def criterion_12(seed):
    lib = fixture_library()
    sweeps = [
        ("bordered_mixed", (1,), 0),
        ("torsion_vanishing", (), 1),
        ("weighted_free2", (0, 1), 0),
    ]
    for name, free, tors in sweeps:
        hn = normalize(lib[name][0])
        ring = weight_ring(hn)
        f = bsda_zh(hn)
        if f.is_zero():
            return False, f"{name} unexpectedly vanishes"
        w = hn.group.make_weight(free, tors)
        u, uinv = ring.monomial(w), ring.monomial(hn.group.inv_weight(w))
        for cid in hn.alpha_circles:
            got = bsda_zh(reweight(hn, cid, w))
            if not X.map_eq(got, X.map_scale(u, f)):
                return False, f"alpha circle reweight is not one exact unit on {name}"
        for bid in hn.beta_ids():
            got = bsda_zh(reweight(hn, bid, w))
            if not X.map_eq(got, X.map_scale(uinv, f)):
                return False, f"beta circle reweight is not one exact unit on {name}"
    hn = normalize(lib["bordered_mixed"][0])
    ring = weight_ring(hn)
    f = bsda_zh(hn)
    w = hn.group.make_weight((1,), 0)
    u, uinv = ring.monomial(w), ring.monomial(hn.group.inv_weight(w))
    cases = [
        ("interior circle", bsda_zh(reweight(hn, "A", w)), X.map_scale(u, f)),
        ("interior beta", bsda_zh(reweight(hn, "b1", w)), X.map_scale(uinv, f)),
        ("outgoing pair", bsda_zh(reweight(reweight(hn, "BOut1", w), "aOut1", w)), f),
        ("incoming beta", bsda_zh(reweight(hn, "BIn1", w)), X.map_scale(uinv, f)),
    ]
    for label, got, want in cases:
        if not X.map_eq(got, want):
            return False, f"lift-change case failed: {label}"
    return True, ("every single-circle reweight is one exact unit (h on alpha, "
                  "1/h on beta); the four boundary cases give (h, 1/h, 1, 1/h)")


CRITERIA = [
    (1, "identity interfaces give a signed identity matrix", criterion_1),
    (2, "gluing matches composition up to sign", criterion_2),
    (3, "normalization leaves the matrix unchanged up to sign", criterion_3),
    (4, "ordinary diagrams compute the exact determinant", criterion_4),
    (5, "sutured TQFT map agrees up to sign, zeros included", criterion_5),
    (6, "pairing the one-sided element recovers the matrix", criterion_6),
    (7, "determinant functor matches; stabilization invariant", criterion_7),
    (8, "augmentation, weighted circles, torsion counts", criterion_8),
    (9, "weighted rings compare; components vanish as predicted", criterion_9),
    (10, "monoidal structure map and braiding", criterion_10),
    (11, "capped generator counts and weak balance", criterion_11),
    (12, "lift changes scale the matrix by the expected unit", criterion_12),
]


def run_all(seed: int = 0) -> list:
    results = []
    for number, title, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(seed)
        except Exception as e:
            ok, detail = False, f"error: {e!r}"
        results.append(CriterionResult(number, title, ok, detail,
                                       time.perf_counter() - t0))
    return results
