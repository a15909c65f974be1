"""Generator enumeration, grading arithmetic, and the invariant matrices."""

import itertools
import random
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from bsfloer import alexander as A
from bsfloer import bsda as B
from bsfloer import exterior as X
from bsfloer.alexander import alexander_functor, bsda_map, functor_sums
from bsfloer.bsda import (
    Generator,
    _readout,
    _state_sums,
    augment_map,
    bsda_z,
    bsda_zh,
    bsdd_element,
    enumerate_generators,
    generator_count,
    gr_da,
    incidence,
    map_transform,
    normalized_incidence,
    weight_ring,
)
from bsfloer.diagram import (
    Point,
    concat_arcs,
    disjoint,
    empty_diagram,
    glue,
    half_identity,
    identity_diagram,
    interval_arcs,
    make_diagram,
    normalize,
    reinterpret_one_sided,
    reweight,
)
from bsfloer.exterior import _arcs
from bsfloer.fixtures import (
    annulus,
    braid_diagram,
    fixture_library,
    mixed_2x2,
    ordinary_from_matrix,
)
from bsfloer.homology import chi_sfh_surrogate
from bsfloer.selftest import _random_piece, random_diagram, random_gluable_pair
from bsfloer.rings import (
    SPLIT_MIN_ROWS,
    ZZ,
    GroupDescriptor,
    GroupRing,
    IntegerRing,
    det_exact,
    parse_element,
)

Z1 = interval_arcs(1)
Z2 = interval_arcs(2)


def swap_diagram():
    return braid_diagram(interval_arcs(1), interval_arcs(1))


def brute_det(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square input expected")
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = X.perm_inversions(perm)
        term = 1 if inv % 2 == 0 else -1
        for j in range(n):
            term *= rows[j][perm[j]]
        total += term
    return total


class TestEnumerate:
    def test_identity_counts(self):
        for n in range(1, 5):
            h = identity_diagram(interval_arcs(n))
            assert len(enumerate_generators(h)) == 2 ** n

    def test_identity_order_is_lexicographic(self):
        h = identity_diagram(Z2)
        seen = [x.alpha_ids() for x in enumerate_generators(h)]
        assert seen == [
            ("aOut1", "aOut2"),
            ("aOut1", "aIn2"),
            ("aIn1", "aOut2"),
            ("aIn1", "aIn2"),
        ]

    def test_annulus_counts(self):
        for n in range(1, 5):
            assert len(enumerate_generators(annulus(n))) == n

    def test_empty_diagram_single_empty_generator(self):
        gens = enumerate_generators(empty_diagram())
        assert len(gens) == 1
        assert gens[0].points == ()

    def test_more_circles_than_betas_gives_none(self):
        g = GroupDescriptor(0)
        h = make_diagram(g, None, None, [], ["A1"], [], [], [])
        assert enumerate_generators(h) == []

    def test_uncoverable_circle_gives_none(self):
        g = GroupDescriptor(0)
        one = g.identity()
        pts = [Point("A1", "B1", 1, one), Point("A2", "B1", 1, one)]
        h = make_diagram(g, None, None, [], ["A1", "A2"], [], [("B1", None)],
                         pts)
        assert enumerate_generators(h) == []

    def test_mixed_two_generators(self):
        assert len(enumerate_generators(mixed_2x2())) == 2

    def test_deterministic(self):
        h = identity_diagram(Z2)
        assert enumerate_generators(h) == enumerate_generators(h)

    def test_generator_validation(self):
        h = identity_diagram(Z1)
        one = h.group.identity()
        with pytest.raises(ValueError, match="beta circle"):
            gr_da(h, Generator((Point("aOut1", "b1", 1, one),)))
        with pytest.raises(ValueError, match="every beta"):
            gr_da(h, Generator(()))
        hm = mixed_2x2()
        p = hm.points
        with pytest.raises(ValueError, match="twice"):
            gr_da(hm, Generator((p[0], p[2])))
        with pytest.raises(ValueError, match="unoccupied"):
            pts = [Point("A1", "B1", 1, one), Point("A2", "B1", 1, one)]
            h2 = make_diagram(hm.group, None, None, [], ["A1", "A2"], [],
                              [("B1", None)], pts)
            gr_da(h2, Generator((pts[0],)))


class TestGrading:
    def test_identity_one_arc_full_data(self):
        h = identity_diagram(Z1)
        x_out, x_in = enumerate_generators(h)
        g = gr_da(h, x_out)
        assert (g.intersection_parity, g.inv_sigma_x, g.inv_idempotent,
                g.correction, g.total) == (1, 0, 0, 0, 1)
        assert (g.o_l, g.obar_l, g.o_r, g.obar_r) == ((1,), (), (), (1,))
        assert (g.k, g.l) == (0, 0)
        g = gr_da(h, x_in)
        assert (g.intersection_parity, g.inv_sigma_x, g.inv_idempotent,
                g.correction, g.total) == (0, 0, 0, 1, 1)
        assert (g.o_l, g.obar_l, g.o_r, g.obar_r) == ((), (1,), (1,), ())
        assert (g.k, g.l) == (1, 1)

    def test_identity_total_is_arc_parity(self):
        for n in range(1, 5):
            h = identity_diagram(interval_arcs(n))
            for x in enumerate_generators(h):
                assert gr_da(h, x).total == n % 2

    def test_annulus_all_positive(self):
        h = annulus(4)
        for x in enumerate_generators(h):
            assert gr_da(h, x).total == 0

    def test_mixed_crossed_generator(self):
        h = mixed_2x2()
        crossed = [x for x in enumerate_generators(h)
                   if x.alpha_ids() == ("A2", "A1")]
        assert len(crossed) == 1
        g = gr_da(h, crossed[0])
        assert g.intersection_parity == 1
        assert g.inv_sigma_x == 1
        assert g.total == 0

    def test_degree_count_identity(self):
        fixtures = [
            identity_diagram(Z1), identity_diagram(Z2), annulus(3),
            mixed_2x2(), swap_diagram(),
            glue(identity_diagram(Z1), identity_diagram(Z1)),
            half_identity(Z2, "in"),
        ]
        for h in fixtures:
            for x in enumerate_generators(h):
                g = gr_da(h, x)
                assert h.n1 - g.l + g.k == h.b - h.a


class TestReadout:
    """The mask decoder against the arcs a generator's points occupy."""

    @pytest.mark.parametrize("n", range(13))
    def test_arcs_match_rebuild(self, n):
        for bits in range(1 << n):
            on = tuple(j for j in range(1, n + 1) if bits & 1 << (j - 1))
            off = tuple(j for j in range(1, n + 1) if j not in on)
            assert _arcs(n, bits) == (
                on, off, X.cross_inversions(off, on) % 2)
        assert _arcs.cache_info().maxsize == 1 << 12
        # one decoder: the engines read exterior's, not a copy of their own
        assert B._arcs is A._arcs is X._arcs

    def test_decode_matches_gr_da(self):
        rng = random.Random(11)
        corpus = [h for h in (random_diagram(rng) for _ in range(120))
                  if h.n0 != h.n1]
        corpus += [normalize(h) for h in corpus]
        corpus += [half_identity(Z2, "in"), half_identity(Z2, "out")]
        checked = 0
        for h in corpus:
            pos = {aid: q for q, aid in enumerate(h.alpha_order())}
            decode = _readout(incidence(h))
            for x in enumerate_generators(h):
                occupied = set(x.alpha_ids())
                o_r = tuple(i + 1 for i, (aid, _) in enumerate(h.alpha_in)
                            if aid in occupied)
                obar_l = tuple(j + 1 for j, (aid, _) in enumerate(h.alpha_out)
                               if aid not in occupied)
                g = gr_da(h, x)
                parity = (g.inv_idempotent + g.correction) % 2
                mask = sum(1 << pos[aid] for aid in occupied)
                assert decode(mask) == (o_r, obar_l, parity)
                assert (g.o_r, g.obar_l) == (o_r, obar_l)
                checked += 1
        assert checked > 100


def cancelling_piece(k, pos, signs):
    """An identity on k arcs perturbed as in the bordered chains: a circle
    C1 and a beta circle bX that meets C1 twice with opposite signs, so the
    two crossings cancel, and out-arc pos + 1 once; beta pos + 2 also meets
    C1."""
    base = identity_diagram(interval_arcs(k))
    one = base.group.identity()
    s_out, s_beta = signs
    points = base.points + (
        Point("C1", "bX", 1, one), Point("C1", "bX", -1, one),
        Point(f"aOut{pos % k + 1}", "bX", s_out, one),
        Point("C1", f"b{(pos + 1) % k + 1}", s_beta, one))
    return make_diagram(base.group, base.boundary_left, base.boundary_right,
                        base.alpha_out, ["C1"], base.alpha_in,
                        base.beta_circles + (("bX", None),), points)


def counting_readout(monkeypatch):
    """Patch bsda's decoder factory; returns the list of decoded masks."""
    seen = []
    real = B._readout

    def readout(inc):
        decode = real(inc)

        def counted(mask):
            seen.append(mask)
            return decode(mask)
        return counted

    monkeypatch.setattr(B, "_readout", readout)
    return seen


class TestZeroFreeReadout:
    """The readouts decode exactly the nonzero final states and build what
    decoding every state builds."""

    PIECES = [((3, 0, (1, -1)), (2, 1, (-1, -1))),
              ((4, 2, (-1, 1)), (3, 0, (1, 1)))]

    @pytest.mark.parametrize("left,right", PIECES)
    def test_matrix_decodes_nonzero_states(self, monkeypatch, left, right):
        h = disjoint(cancelling_piece(*left), cancelling_piece(*right))
        sums = _state_sums(incidence(h))
        nonzero = [m for m, v in sums.items() if v]
        assert len(nonzero) < len(sums)          # zero final states exist
        decode = _readout(incidence(h))
        entries = {}
        for mask, v in sums.items():
            o_r, obar_l, parity = decode(mask)
            entries[(o_r, obar_l)] = -v if parity else v
        want = X.GradedMap(ZZ, h.n0, h.n1, h.degree, entries)
        seen = counting_readout(monkeypatch)
        got = bsda_z(h)
        assert seen == nonzero
        assert got == want
        assert list(got.entries) == list(want.entries)

    @pytest.mark.parametrize("left,right", PIECES)
    def test_element_decodes_nonzero_states(self, monkeypatch, left, right):
        h = disjoint(cancelling_piece(*left), cancelling_piece(*right))
        hdd = reinterpret_one_sided(h)
        sums = _state_sums(incidence(hdd))
        nonzero = [m for m, v in sums.items() if v]
        assert len(nonzero) < len(sums)
        decode = _readout(incidence(hdd))
        terms = {}
        for mask, v in sums.items():
            _, obar, parity = decode(mask)
            unoccupied_in = sum(1 for j in obar if j <= h.n0)
            terms[obar] = -v if (parity + unoccupied_in) & 1 else v
        want = X.ExtElement(ZZ, h.n0 + h.n1, terms)
        seen = counting_readout(monkeypatch)
        got = bsdd_element(h)
        assert seen == nonzero
        assert got == want
        assert list(got.terms) == list(want.terms)


class TestBsdaZ:
    def test_identity_one_arc(self):
        f = bsda_z(identity_diagram(Z1))
        assert f.degree == 0
        assert f.entries == {((), ()): -1, ((1,), (1,)): -1}

    def test_identity_sign_alternates(self):
        for n in range(1, 5):
            f = bsda_z(identity_diagram(interval_arcs(n)))
            want = X.map_scale(ZZ.from_int((-1) ** n),
                               X.identity_map(ZZ, n))
            assert X.map_eq(f, want)

    def test_ordinary_is_determinant(self):
        assert bsda_z(mixed_2x2()).entries == {((), ()): 2}
        for n in range(1, 5):
            assert bsda_z(annulus(n)).entries == {((), ()): n}

    def test_ordinary_matches_brute_determinant(self):
        rows = [[2, -1, 0], [1, 1, -1], [0, 3, 1]]
        h = ordinary_from_matrix(rows)
        f = bsda_z(h)
        assert f.entries == {((), ()): brute_det(rows)}

    @given(st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=2,
                 max_size=2),
        min_size=2, max_size=2))
    def test_ordinary_determinant_property(self, rows):
        h = ordinary_from_matrix(rows)
        f = bsda_z(h)
        d = brute_det(rows)
        if d == 0:
            assert X.map_eq(f, X.zero_map(ZZ, 0, 0, 0))
        else:
            assert f.entries == {((), ()): d}

    def test_unbalanced_ordinary_vanishes(self):
        g = GroupDescriptor(0)
        one = g.identity()
        pts = [Point("A1", "B1", 1, one), Point("A1", "B2", 1, one)]
        h = make_diagram(g, None, None, [], ["A1"], [],
                         [("B1", None), ("B2", None)], pts)
        f = bsda_z(h)
        assert f.degree == -1
        assert f.entries == {}

    def test_empty_diagram_is_unit(self):
        f = bsda_z(empty_diagram())
        assert f.entries == {((), ()): 1}

    def test_swap_is_minus_braiding(self):
        f = bsda_z(swap_diagram())
        assert f.entries == {
            ((), ()): -1,
            ((1,), (2,)): -1,
            ((2,), (1,)): -1,
            ((1, 2), (1, 2)): 1,
        }
        want = X.map_scale(ZZ.from_int(-1), X.braiding(ZZ, 1, 1))
        assert X.map_eq(f, want)


class TestFunctoriality:
    def test_glued_identities_exactly(self):
        h = glue(identity_diagram(Z1), identity_diagram(Z1))
        f = bsda_z(h)
        assert X.map_eq(f, X.identity_map(ZZ, 1))
        want = X.compose(bsda_z(identity_diagram(Z1)),
                         bsda_z(identity_diagram(Z1)))
        assert X.map_eq(f, want)

    def test_glue_composes_up_to_sign(self):
        pairs = [
            (identity_diagram(Z2), identity_diagram(Z2)),
            (swap_diagram(), swap_diagram()),
            (identity_diagram(Z2), half_identity(Z2, "out")),
            (half_identity(Z2, "in"), identity_diagram(Z2)),
        ]
        for left, right in pairs:
            glued = bsda_z(glue(left, right))
            composed = X.compose(bsda_z(left), bsda_z(right))
            ok, unit = X.eq_up_to_global_unit(glued, composed)
            assert ok, (glued.entries, composed.entries)
            assert unit in (None, 1, -1)

    def test_capped_identity_exactly(self):
        h = glue(half_identity(Z1, "in"), identity_diagram(Z1))
        f = bsda_z(h)
        assert f.degree == -1
        assert f.entries == {((1,), ()): -1}
        want = X.compose(bsda_z(half_identity(Z1, "in")),
                         bsda_z(identity_diagram(Z1)))
        assert X.map_eq(f, want)

    def test_disjoint_union_is_super_tensor_up_to_sign(self):
        cases = [
            (identity_diagram(Z1), identity_diagram(Z1)),
            (identity_diagram(Z1), identity_diagram(Z2)),
            (swap_diagram(), identity_diagram(Z1)),
            (mixed_2x2(), identity_diagram(Z2)),
        ]
        for h, h2 in cases:
            big = bsda_z(disjoint(h, h2))
            tens = X.super_tensor(bsda_z(h), bsda_z(h2))
            ok, unit = X.eq_up_to_global_unit(big, tens)
            assert ok, (big.entries, tens.entries)


class TestWeighted:
    def test_unweighted_embeds(self):
        for h in [identity_diagram(Z2), mixed_2x2(), annulus(3),
                  swap_diagram()]:
            ring = weight_ring(h)
            f = bsda_zh(h)
            want = map_transform(bsda_z(h), ring,
                                 lambda v: ring.from_int(v))
            assert X.map_eq(f, want)

    def test_weighted_annulus_entry(self):
        for n in range(1, 6):
            h = annulus(n, weighted=True)
            f = bsda_zh(h)
            ring = weight_ring(h)
            terms = ["1"] + [f"t1^{i}" if i > 1 else "t1"
                             for i in range(1, n)]
            want = parse_element(ring, " + ".join(terms))
            assert list(f.entries) == [((), ())]
            assert f.entries[((), ())] == want

    def test_augmentation_specializes(self):
        for h in [identity_diagram(Z2), annulus(4, weighted=True),
                  swap_diagram(), mixed_2x2()]:
            assert X.map_eq(augment_map(bsda_zh(h)), bsda_z(h))

    def test_reweight_alpha_circle_scales_globally(self):
        h = annulus(3, weighted=True)
        ring = weight_ring(h)
        t = h.group.make_weight((1,), 0)
        f = bsda_zh(h)
        f2 = bsda_zh(reweight(h, "aC", t))
        assert X.map_eq(f2, X.map_scale(ring.monomial(t), f))
        assert X.map_eq(bsda_z(h), bsda_z(reweight(h, "aC", t)))

    def test_torsion_weights(self):
        g = GroupDescriptor(0, 2)
        pts = [Point("aC", "bC", 1, g.make_weight((), i)) for i in range(2)]
        h = make_diagram(g, None, None, [], ["aC"], [], [("bC", None)], pts)
        f = bsda_zh(h)
        ring = GroupRing(0, 2)
        assert f.entries[((), ())] == parse_element(ring, "1 + s")

    # Z/3, Z/4, Z x Z/2, Z^2 x Z/3, Z x Z/6: m stays in {1, 2, 3, 4, 6},
    # where the units of Z[Z/m] are the trivial ones, so "up to a unit" is
    # up to a sign and a group element
    DISJOINT_GROUPS = [(0, 3), (0, 4), (1, 2), (2, 3), (1, 6)]

    @pytest.mark.parametrize("rank,order", DISJOINT_GROUPS)
    def test_disjoint_union_is_super_tensor(self, rank, order):
        # a side is normalized half the time, so that most unions have
        # enough rows for the state sum to split them into blocks
        g = GroupDescriptor(rank, order)
        rng = random.Random(f"disjoint:{rank}:{order}")
        split = nonzero = 0
        for _ in range(60):
            left, right = (normalize(h) if rng.random() < 0.5 else h
                           for h in (random_diagram(rng, g),
                                     random_diagram(rng, g)))
            h = disjoint(left, right)
            f = bsda_zh(h)
            ok, _ = X.eq_up_to_global_unit(
                f, X.super_tensor(bsda_zh(left), bsda_zh(right)))
            assert ok, (left, right)
            split += h.b >= SPLIT_MIN_ROWS
            nonzero += not f.is_zero()
        assert split >= 25
        assert nonzero >= 15

    # Z/3, Z/4, Z x Z/2, Z^2, Z^2 x Z/3
    GLUE_GROUPS = [(0, 3), (0, 4), (1, 2), (2, 1), (2, 3)]

    @pytest.mark.parametrize("rank,order", GLUE_GROUPS)
    def test_glue_is_compose(self, rank, order):
        """Weighted pieces glued as random_gluable_pair glues them: the
        invariant over Z[H] and Q[H], and the Alexander functor over Z[G],
        of the glued diagram are the composites up to a unit."""
        g = GroupDescriptor(rank, order)
        rng = random.Random(f"glue:{rank}:{order}")
        nonzero = functor_nonzero = 0
        for _ in range(80):
            mid = interval_arcs(rng.randint(1, 3))
            left = _random_piece(rng, interval_arcs(rng.randint(0, 2)), mid,
                                 group=g)
            need = ["same" if flag == "opposite" else "opposite"
                    for _, flag in left.alpha_in]
            right = _random_piece(rng, mid, interval_arcs(rng.randint(0, 2)),
                                  out_flags=need, group=g)
            h = glue(left, right)
            f, a = bsda_zh(h), alexander_functor(normalize(h), "zg")
            checks = [(f, bsda_zh(left), bsda_zh(right)),
                      (bsda_map(h, "qh"), bsda_map(left, "qh"),
                       bsda_map(right, "qh")),
                      (a, alexander_functor(normalize(left), "zg"),
                       alexander_functor(normalize(right), "zg"))]
            for glued, lf, rf in checks:
                ok, _ = X.eq_up_to_global_unit(glued, X.compose(lf, rf))
                assert ok, (left, right)
            nonzero += not f.is_zero()
            functor_nonzero += not a.is_zero()
        assert nonzero >= 10
        assert functor_nonzero >= 5


class TestOneSided:
    def test_identity_one_arc_element(self):
        e = bsdd_element(identity_diagram(Z1))
        assert e.rank == 2
        assert e.terms == {(1,): 1, (2,): -1}

    def test_ordinary_is_scalar(self):
        e = bsdd_element(mixed_2x2())
        assert e.terms == {(): 2}
        e = bsdd_element(annulus(3))
        assert e.terms == {(): 3}

    def test_composition_recovers_two_sided(self):
        fixtures = [
            identity_diagram(Z1),
            identity_diagram(Z2),
            swap_diagram(),
            mixed_2x2(),
            glue(identity_diagram(Z1), identity_diagram(Z1)),
            glue(half_identity(Z1, "in"), identity_diagram(Z1)),
            half_identity(Z2, "out"),
        ]
        for h in fixtures:
            e = bsdd_element(h)
            f = bsda_z(h)
            if e.is_zero():
                assert f.entries == {}
                continue
            composed = X.compose_eps_tensor(e, h.n0, h.n1, degree=h.degree)
            ok, unit = X.eq_up_to_global_unit(composed, f)
            assert ok, (h, composed.entries, f.entries)
            assert unit in (None, 1, -1)

    def test_element_degree_is_homogeneous(self):
        for h in [identity_diagram(Z2), swap_diagram(),
                  glue(identity_diagram(Z1), identity_diagram(Z1))]:
            e = bsdd_element(h)
            assert {len(S) for S in e.terms} == {h.n0 + h.degree}


def enumeration_oracle(h):
    """The invariant's sums by listing every generator and grading it:
    (bsda_z, bsda_zh, bsdd_element, count)."""
    ring = weight_ring(h)
    hdd = reinterpret_one_sided(h)
    z, zh, dd = {}, {}, {}
    gens = enumerate_generators(h)
    for x in gens:
        g = gr_da(h, x)
        w = h.group.identity()
        for p in x.points:
            w = h.group.mul_weight(w, p.weight)
        key = (g.o_r, g.obar_l)
        s = (-1) ** g.total
        z[key] = z.get(key, 0) + s
        zh[key] = ring.add(zh.get(key, ring.zero()),
                           ring.monomial(w, s))
        dkey = g.obar_r + tuple(h.n0 + j for j in g.obar_l)
        dd[dkey] = dd.get(dkey, 0) + (-1) ** (gr_da(hdd, x).total
                                              + len(g.obar_r))
    return (X.GradedMap(ZZ, h.n0, h.n1, h.degree, z),
            X.GradedMap(ring, h.n0, h.n1, h.degree, zh),
            X.ExtElement(ZZ, h.n0 + h.n1, dd), len(gens))


def differential_corpus():
    """Every fixture, random diagrams over Z^0..2 x Z/1..3 and glued random
    pairs, each also normalized."""
    groups = [GroupDescriptor(r, m) for r in range(3) for m in (1, 2, 3)]
    rng = random.Random(20260)
    named = [(name, h) for name, (h, _) in sorted(fixture_library().items())]
    named += [(f"random{k}", random_diagram(rng, group=groups[k % 9]))
              for k in range(90)]
    named += [(f"glued{k}", glue(*random_gluable_pair(rng)))
              for k in range(30)]
    return [pytest.param(g, id=name + suffix) for name, h in named
            for suffix, g in (("", h), ("-normalized", normalize(h)))]


class TestStateSumEngine:
    """The state-sum engine against generator enumeration plus gr_da."""

    @pytest.mark.parametrize("h", differential_corpus())
    def test_matches_enumeration(self, h):
        z, zh, dd, count = enumeration_oracle(h)
        assert X.map_eq(bsda_z(h), z)
        assert X.map_eq(bsda_zh(h), zh)
        assert bsdd_element(h) == dd
        assert generator_count(h) == count

    def test_oracle_catches_a_wrong_decoder(self, monkeypatch):
        """gr_da reads no final mask, so a mask decoder with the wrong
        shuffle parity, #{(on j, off i) : j > i}, disagrees with the
        enumeration on the corpus."""
        def wrong(n, bits):
            on, off, _ = _arcs(n, bits)
            return on, off, X.cross_inversions(on, off) & 1

        corpus = [p.values[0] for p in differential_corpus()]
        monkeypatch.setattr(B, "_arcs", wrong)
        assert any(not X.map_eq(bsda_z(h), enumeration_oracle(h)[0])
                   for h in corpus)

    def test_count_needs_every_circle(self):
        g = GroupDescriptor(0)
        h = make_diagram(g, None, None, [], ["A1"], [], [], [])
        assert generator_count(h) == 0
        assert bsda_z(h).entries == {}
        assert generator_count(empty_diagram()) == 1

    def test_cancelling_crossings_keep_their_state(self):
        g = GroupDescriptor(0)
        one = g.identity()
        pts = [Point("A1", "B1", 1, one), Point("A1", "B1", -1, one)]
        h = make_diagram(g, None, None, [], ["A1"], [], [("B1", None)], pts)
        assert _state_sums(incidence(h)) == {1: 0}
        assert bsda_z(h).is_zero()

    def test_states_do_not_depend_on_signs(self):
        # the engine's work is fixed by which curves meet
        rng = random.Random(5)
        diagrams = [random_diagram(rng) for _ in range(30)]
        diagrams += [normalize(glue(*random_gluable_pair(rng)))
                     for _ in range(10)]
        def flip(g):
            return replace(g, points=tuple(
                replace(p, sign=rng.choice((-1, 1))) for p in g.points))

        for h in diagrams:
            assert (_state_sums(incidence(h)).keys()
                    == _state_sums(incidence(flip(h))).keys())
            # and the functor's state sum on the normalized diagram
            hn = normalize(h)
            assert (functor_sums(incidence(hn)).keys()
                    == functor_sums(incidence(flip(hn))).keys())

    @pytest.mark.parametrize("k", [6, 8, 10])
    def test_normalized_identity_work_is_output_sized(self, k):
        # an out-arc left empty after its last beta circle ends its state,
        # so the work follows the 2^k entries of the output
        class CountingZZ(IntegerRing):
            muls = 0

            def mul(self, a, b):
                self.muls += 1
                return a * b

        ring = CountingZZ()
        h = normalize(identity_diagram(interval_arcs(k)))
        sums = _state_sums(replace(incidence(h), ring=ring))
        assert len(sums) == 2 ** k
        assert ring.muls <= 4 * k * 2 ** k
        ok, unit = X.eq_up_to_global_unit(bsda_z(h), X.identity_map(ZZ, k))
        assert ok and unit in (1, -1)


def closed_diagram(rng, b, a, crossings=(0, 1, 1, 2)):
    """A closed diagram with b beta and a alpha circles: each pair crosses a
    drawn number of times with drawn signs, so that two opposite crossings
    cancel to a kept 0 and a pair with none leaves a gap (at times a whole
    empty row or column)."""
    g = GroupDescriptor(0)
    one = g.identity()
    pts = [Point(f"A{i}", f"B{j}", rng.choice((-1, 1)), one)
           for j in range(b) for i in range(a)
           for _ in range(rng.choice(crossings))]
    return make_diagram(g, None, None, [], [f"A{i}" for i in range(a)], [],
                        [(f"B{j}", None) for j in range(b)], pts)


def shuffled(rng, h):
    """h with its alpha circles and its beta circles in drawn orders."""
    return replace(h, alpha_circles=tuple(rng.sample(h.alpha_circles, h.a)),
                   beta_circles=tuple(rng.sample(h.beta_circles, h.b)))


def incidence_det(h):
    """The state-sum determinant of h's square incidence."""
    rows = incidence(h).rows
    return det_exact(ZZ, [[r.get(q, 0) for q in range(h.a)] for r in rows])


class TestClosedElimination:
    """Closed diagrams over Z take integer elimination: against generator
    enumeration, and past its reach against the state sum."""

    @pytest.mark.parametrize("n", range(9))
    def test_square_matches_enumeration(self, n):
        rng = random.Random(100 + n)
        sparse = (0, 0, 0, 1, 2) if n > 5 else (0, 1, 1, 2)
        checked = cancelled = 0
        for _ in range(30):
            h = closed_diagram(rng, n, n, sparse)
            if generator_count(h) > 2000:  # keeps enumeration cheap
                continue
            z, _, dd, *_ = enumeration_oracle(h)
            assert X.map_eq(bsda_z(h), z)
            assert bsdd_element(h) == dd
            checked += 1
            cancelled += any(0 in r.values() for r in incidence(h).rows)
        assert checked >= 10 and (n == 0 or cancelled)

    def test_special_shapes(self):
        cases = [
            [[0, 1, 2], [1, 1, 0], [2, 0, 1]],  # zero leading pivot
            [[0, 0], [1, 2]],  # empty row
            [[0, 1], [0, 2]],  # empty column
            [[1, 1], [1, 1]],  # singular
            [[2]],
        ]
        for rows in cases:
            want = brute_det(rows)
            f = bsda_z(ordinary_from_matrix(rows))
            assert f.entries == ({((), ()): want} if want else {})
            z = enumeration_oracle(ordinary_from_matrix(rows))[0]
            assert X.map_eq(f, z)
        # a cancelling pair: the kept coefficient is 0
        zero = bsda_z(fixture_library()["zero_matrix"][0])
        assert zero.is_zero()
        assert (zero.source_rank, zero.target_rank) == (0, 0)

    @pytest.mark.parametrize("b, a", [(2, 1), (1, 2), (3, 2), (2, 4), (0, 1)])
    def test_not_square_is_the_zero_map(self, b, a):
        rng = random.Random(b * 10 + a)
        h = closed_diagram(rng, b, a, (1, 2))
        z, _, dd, *_ = enumeration_oracle(h)
        assert bsda_z(h).is_zero() and z.is_zero()
        assert bsda_z(h).degree == z.degree
        assert bsdd_element(h) == dd

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_disjoint_unions(self, seed):
        # a few pieces against enumeration, then enough pieces (16 rows or
        # more) for the elimination to split into blocks, against the
        # state sum and the product of the pieces' determinants up to sign;
        # one singular piece makes the whole union vanish
        rng = random.Random(seed)
        small = [closed_diagram(rng, k, k, (1, 1, 2)) for k in (1, 2, 3)]
        h = shuffled(rng, reduce(disjoint, small))
        z, _, dd, *_ = enumeration_oracle(h)
        assert X.map_eq(bsda_z(h), z)
        assert bsdd_element(h) == dd

        def invertible(k):
            while True:
                piece = closed_diagram(rng, k, k, (0, 1, 1, 2))
                if incidence_det(piece):
                    return piece

        pieces = []
        while sum(p.b for p in pieces) < 16:
            pieces.append(invertible(rng.randint(1, 4)))
        product = 1
        for piece in pieces:
            product *= incidence_det(piece)
        for extra in ([], [fixture_library()["zero_matrix"][0]]):
            h = shuffled(rng, reduce(disjoint, pieces + extra))
            want = incidence_det(h)
            assert want == 0 if extra else want in (product, -product)
            assert bsda_z(h).entries == ({((), ()): want} if want else {})


class TestClosedRouting:
    """Which calls run the state sum: only its shape routes a diagram."""

    def test_closed_z_skips_the_state_sum(self, monkeypatch):
        h = ordinary_from_matrix([[2, -1, 0], [1, 1, -1], [0, 3, 1]])
        bordered = identity_diagram(Z1)
        want_z, want_dd = bsda_z(h), bsdd_element(h)

        def refuse(*args, **kwargs):
            raise AssertionError("state_sums called")

        monkeypatch.setattr(B, "state_sums", refuse)
        assert bsda_z(h) == want_z and want_z.entries == {((), ()): 9}
        assert bsda_z(h, replace(incidence(h), ring=IntegerRing())) == want_z
        assert bsdd_element(h) == want_dd
        still = [
            lambda: bsda_zh(h),
            lambda: bsda_z(bordered),
            lambda: bsdd_element(bordered),
            lambda: generator_count(h),
        ]
        for call in still:
            with pytest.raises(AssertionError, match="state_sums called"):
                call()

    def test_closed_surrogate_skips_the_state_sum(self, monkeypatch):
        h = ordinary_from_matrix([[2, -1, 0], [1, 1, -1], [0, 3, 1]])
        not_square = closed_diagram(random.Random(3), 3, 2, (1, 2))

        def refuse(*args, **kwargs):
            raise AssertionError("state_sums called")

        monkeypatch.setattr(B, "state_sums", refuse)
        assert chi_sfh_surrogate(h) == 9
        assert bsda_z(not_square).entries == {}
        assert chi_sfh_surrogate(not_square) == 0
        with pytest.raises(AssertionError, match="state_sums called"):
            chi_sfh_surrogate(h, "zh")


def points_matrix(h):
    """h's beta x alpha-circle matrix, each entry summed over the points
    by a scan of its own."""
    return [[sum(p.sign for p in h.points if (p.beta, p.alpha) == (bid, aid))
             for aid in h.alpha_circles] for bid in h.beta_ids()]


def closed_corpus(seed, sizes, count):
    """count random closed diagrams per (b, a) in sizes: drawn crossings
    (cancelling pairs and gaps included), at times a beta circle with no
    point, circles and points in drawn orders."""
    rng = random.Random(seed)
    out = []
    for b, a in sizes:
        for _ in range(count):
            h = closed_diagram(rng, b, a, rng.choice(((0, 1, 1, 2), (1, 2))))
            if b and rng.random() < 0.3:
                empty = rng.choice(h.beta_ids())
                h = replace(h, points=tuple(p for p in h.points
                                            if p.beta != empty))
            h = shuffled(rng, h)
            out.append(replace(h, points=tuple(rng.sample(h.points,
                                                          len(h.points)))))
    return out


class TestClosedDensePath:
    """bsda_z and bsdd_element of closed diagrams, which take
    bsda.closed_det, against det_exact, generator enumeration and the state
    sum (_matrix)."""

    SMALL = (1, [(n, n) for n in range(6)]
             + [(2, 1), (1, 2), (3, 4), (5, 4), (0, 2), (2, 0)], 12)
    LARGE = (2, [(n, n) for n in range(1, 10)] + [(7, 6), (6, 8)], 6)

    @pytest.mark.parametrize("corpus", [SMALL, LARGE], ids=["small", "large"])
    def test_corpus_covers_the_shapes(self, corpus):
        corpus = closed_corpus(*corpus)
        rows = [r for h in corpus for r in incidence(h).rows]
        assert any(h.a != h.b for h in corpus)
        assert any(not r for r in rows)                 # a beta with no point
        assert any(0 in r.values() for r in rows)       # a cancelled pair

    def test_small_against_enumeration(self):
        for h in closed_corpus(*self.SMALL):
            z, _, dd, _ = enumeration_oracle(h)
            assert X.map_eq(bsda_z(h), z)
            assert bsdd_element(h) == dd

    def test_against_det_exact_and_the_state_sum(self):
        for h in closed_corpus(*self.LARGE):
            want = det_exact(ZZ, points_matrix(h)) if h.a == h.b else 0
            f = bsda_z(h)
            assert f.entries == ({((), ()): want} if want else {})
            assert f.degree == h.degree
            state = B._matrix(incidence(h))
            assert X.map_eq(f, state)
            assert bsda_z(h, incidence(h)) == f
            assert bsdd_element(h) == X.ExtElement(
                ZZ, 0, {J: v for (_, J), v in state.entries.items()})


def same_incidence(got, want):
    """Equal rings, circles, n0 and rows, each row's keys in one order."""
    return (got.ring is want.ring and got.circles == want.circles
            and got.n0 == want.n0 and got.rows == want.rows
            and [list(r) for r in got.rows] == [list(r) for r in want.rows])


class TestNormalizedIncidence:
    """normalized_incidence(h) against incidence(normalize(h)), weighted
    and not: the normalization rule of the bsda module docstring."""

    GROUPS = [GroupDescriptor(r, m) for r in range(3) for m in range(1, 7)]

    def check(self, h):
        for weighted in (False, True):
            got = normalized_incidence(h, weighted)
            assert same_incidence(got, incidence(normalize(h), weighted))
            assert got.degree == h.degree
            assert got.n1 == h.n1

    def test_fixtures(self):
        lib = fixture_library()
        assert len(lib) == 26
        for h, _ in lib.values():
            self.check(h)

    def test_random_diagrams(self):
        rng = random.Random(31)
        torsion = 0
        for k in range(1000):
            h = random_diagram(rng, group=self.GROUPS[k % len(self.GROUPS)])
            assert same_incidence(normalized_incidence(h, True),
                                  incidence(normalize(h), True))
            assert same_incidence(normalized_incidence(h),
                                  incidence(normalize(h)))
            torsion += any(p.weight[-1] for p in h.points)
        assert torsion > 100

    def test_closed_diagrams(self):
        for h in closed_corpus(*TestClosedDensePath.SMALL):
            self.check(h)
            assert normalized_incidence(h).circles == range(h.a)

    def test_normalized_inputs_are_their_own(self):
        rng = random.Random(32)
        for k in range(200):
            hn = normalize(random_diagram(rng, group=self.GROUPS[k % 18]))
            for weighted in (False, True):
                assert same_incidence(normalized_incidence(hn, weighted),
                                      incidence(hn, weighted))

    def test_refused_role_tags_take_the_shift(self):
        # tags role_rows reads but normalized_roles refuses (all core on a
        # bordered diagram, or a normalize output with one side's rows
        # retagged core), and a normalize output with its tags dropped
        rng = random.Random(33)
        shifted = 0
        for k in range(200):
            h = random_diagram(rng, group=self.GROUPS[k % 18])
            hn = normalize(h)
            roles = [r for _, r in hn.beta_circles]
            cases = [replace(hn, beta_circles=tuple(
                (bid, None) for bid, _ in hn.beta_circles))]
            if h.n0 or h.n1:
                cases.append(replace(h, beta_circles=tuple(
                    (bid, "core") for bid, _ in h.beta_circles)))
            if h.n0:
                cases.append(replace(hn, beta_circles=tuple(
                    (bid, "core" if r.startswith("newIn") else r)
                    for (bid, _), r in zip(hn.beta_circles, roles))))
            for x in cases:
                assert normalize(x) is not x
                self.check(x)
                shifted += 1
        assert shifted > 400
