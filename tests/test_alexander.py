"""Alexander function and functor tests.

Frozen values: the [[2],[0]] unit-vector evaluations, the identity-interface
functor matching the invariant matrix entrywise with unit +1, and the
component decomposition of the torsion fixtures.
"""

import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsfloer import exterior as X
from bsfloer.alexander import (
    RING_TAGS,
    CompareReport,
    _ring_change,
    alexander_function,
    alexander_functor,
    bsda_map,
    compare_bsda_alexander,
    entry_vectors,
    random_equivalent_presentation,
    to_free_part,
    transport_vector,
)
from bsfloer.bsda import bsda_z, bsda_zh, incidence
from bsfloer.cli import _unit_str
from bsfloer.diagram import (
    GroupDescriptor,
    Point,
    identity_diagram,
    interval_arcs,
    make_diagram,
    normalize,
)
from bsfloer.fixtures import (
    annulus,
    bordered_mixed,
    fixture_library,
    halfproj_left,
    mixed_2x2,
    ordinary_from_matrix,
    torsion_vanishing,
    weighted_torsion3,
)
from bsfloer.homology import presentation_matrix
from bsfloer.rings import (
    ZZ,
    GroupRing,
    Matrix,
    QHRing,
    det_exact,
    parse_element,
    values_eq_up_to_unit,
)


def zpres(rows):
    return Matrix(ZZ, rows)


LAUR = GroupRing(1, 1)
T1 = LAUR.monomial((1, 0))


class TestFunction:
    def test_unit_vector_examples(self):
        pres = zpres([[2], [0]])
        assert alexander_function(pres, [(0, 1)]) == 2
        assert alexander_function(pres, [(1, 0)]) == 0

    def test_square_is_determinant(self):
        assert alexander_function(zpres([[1, 1], [-1, 1]]), []) == 2
        assert alexander_function(zpres([[3]]), []) == 3
        assert alexander_function(zpres([[0]]), []) == 0

    def test_empty_presentation(self):
        assert alexander_function(zpres([]), []) == 1

    def test_laurent_polynomial_column(self):
        e = parse_element(LAUR, "1 + t1 + t1^2")
        m = Matrix(LAUR, [[e], [LAUR.zero()]])
        val = alexander_function(m, [(0, 1)])
        assert val == e

    def test_vector_count_checked(self):
        pres = zpres([[2], [0]])
        with pytest.raises(ValueError):
            alexander_function(pres, [])
        with pytest.raises(ValueError):
            alexander_function(pres, [(0, 1), (1, 0)])

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            alexander_function(zpres([[2], [0]]), [(0, 1, 0)])

    def test_negative_deficiency_rejected(self):
        with pytest.raises(ValueError):
            alexander_function(zpres([[1, 0]]), [])

    def test_dependent_columns_give_zero(self):
        pres = zpres([[1, 1], [2, 2], [0, 0]])
        assert alexander_function(pres, [(0, 0, 1)]) == 0
        assert alexander_function(pres, [(5, -3, 7)]) == 0

    def test_dependent_columns_give_zero_over_laurent(self):
        # second column = t1 * first column
        a = parse_element(LAUR, "1 - t1")
        col = [a, LAUR.one(), LAUR.zero()]
        m = Matrix(LAUR, [[x, LAUR.mul(T1, x)] for x in col])
        for u in [(0, 0, 1), (T1, 3, parse_element(LAUR, "2 + t1^-1"))]:
            assert LAUR.is_zero(alexander_function(m, [u]))

    def test_dependent_columns_give_zero_per_qh_component(self):
        # columns (1, s, 0) and (1, 1, 0) meet when s -> 1 only
        zh = GroupRing(0, 2)
        R = QHRing(GroupDescriptor(0, 2))
        s = R.from_zh(zh.monomial((1,)))
        m = Matrix(R, [[R.one(), R.one()], [s, R.one()],
                       [R.zero(), R.zero()]])
        val = alexander_function(m, [(0, 0, 1)])
        assert R.divisors == [1, 2]
        assert R.components[0].is_zero(val[0])
        assert val[1] == R.components[1].from_int(2)

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    def test_linear_in_appended_column(self, rows, u, v):
        pres = zpres(rows)
        w = [a + b for a, b in zip(u, v)]
        total = alexander_function(pres, [w])
        assert total == (alexander_function(pres, [u])
                         + alexander_function(pres, [v]))

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )
    def test_alternating_in_appended_columns(self, rows, u, v):
        pres = zpres(rows)
        assert alexander_function(pres, [u, u]) == 0
        assert alexander_function(pres, [u, v]) == -alexander_function(
            pres, [v, u])

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.integers(0, 1),
    )
    def test_matrix_column_shifts_do_nothing(self, rows, u, j):
        pres = zpres(rows)
        shifted = [u[i] + rows[i][j] for i in range(3)]
        assert alexander_function(pres, [shifted]) == alexander_function(
            pres, [u])

    def test_integer_elimination_against_det_exact(self):
        # over Z the function eliminates; det_exact's state sum is the
        # oracle, on random squares up to 8 x 8 split at every deficiency
        import random

        rnd = random.Random(7)
        for _ in range(300):
            n = rnd.randint(0, 8)
            density = rnd.choice((0.3, 0.6, 1.0))
            square = [[rnd.randint(-3, 3) if rnd.random() < density else 0
                       for _ in range(n)] for _ in range(n)]
            d = rnd.randint(0, n)
            pres = zpres([row[:n - d] for row in square])
            u = [tuple(row[j] for row in square) for j in range(n - d, n)]
            assert alexander_function(pres, u) == det_exact(ZZ, square), (
                square, d)

    def test_stabilized_presentations_against_det_exact(self):
        # the determinants of selftest criterion 7 at seed 0
        from bsfloer.selftest import STAB_FIXTURES

        lib = fixture_library()
        checked = 0
        for fi, name in enumerate(STAB_FIXTURES):
            hn = normalize(lib[name][0])
            pres = presentation_matrix(hn, "z")
            vecs = entry_vectors(hn)
            for i in range(20):
                new_pres, transport = random_equivalent_presentation(
                    pres, 700 + 101 * fi + i)
                for us in vecs.values():
                    moved = [transport_vector(ZZ, transport, u) for u in us]
                    square = [list(row) + [v[r] for v in moved]
                              for r, row in enumerate(new_pres.entries)]
                    assert (alexander_function(new_pres, moved)
                            == det_exact(ZZ, square)), (name, i)
                    checked += 1
        assert checked >= 100

    def test_other_rings_keep_det_exact(self, monkeypatch):
        import bsfloer.rings as R

        seen = []

        def recording(ring, entries):
            seen.append(ring)
            return det_exact(ring, entries)

        monkeypatch.setattr(R, "det_exact", recording)
        assert alexander_function(zpres([[1, 1], [-1, 1]]), []) == 2
        assert seen == []
        m = Matrix(LAUR, [[T1, LAUR.one()], [LAUR.one(), LAUR.one()]])
        assert LAUR.eq(alexander_function(m, []),
                       parse_element(LAUR, "t1 - 1"))
        assert seen == [LAUR]


class TestQHComponents:
    def test_torsion_vanishing_components(self):
        hn = normalize(torsion_vanishing())
        zh = presentation_matrix(hn, "zh")
        R = QHRing(hn.group)
        m = Matrix(R, [[R.from_zh(e) for e in row] for row in zh.entries])
        val = alexander_function(m, [])
        assert R.divisors == [1, 2]
        assert R.components[0].is_zero(val[0])
        assert val[1] == R.components[1].from_int(2)

    def test_norm_element_vanishes_in_nontrivial_component(self):
        hn = normalize(weighted_torsion3())
        zh = presentation_matrix(hn, "zh")
        R = QHRing(hn.group)
        m = Matrix(R, [[R.from_zh(e) for e in row] for row in zh.entries])
        val = alexander_function(m, [])
        assert R.divisors == [1, 3]
        assert val[0] == R.components[0].from_int(3)
        assert R.components[1].is_zero(val[1])

    def test_character_map_commutes_with_det(self):
        zh = GroupRing(1, 2)
        s = zh.monomial((0, 1))
        t = zh.monomial((1, 0))
        entries = [
            [zh.add(zh.one(), s), zh.zero()],
            [t, zh.from_int(2)],
        ]
        whole = det_exact(zh, entries)
        R = QHRing(GroupDescriptor(free_rank=1, torsion_order=2))
        for i, comp in enumerate(R.components):
            centries = [[R.from_zh(e)[i] for e in row] for row in entries]
            assert R.from_zh(whole)[i] == det_exact(comp, centries)


class TestFunctor:
    def test_identity_matches_invariant_exactly(self):
        hn = normalize(identity_diagram(interval_arcs(1)))
        f = alexander_functor(hn, "z")
        assert f.entries == {((), ()): -1, ((1,), (1,)): -1}
        assert f.entries == bsda_z(hn).entries
        assert f.degree == 0

    def test_identity_sizes_match_up_to_sign(self):
        for n in range(1, 4):
            rep = compare_bsda_alexander(identity_diagram(interval_arcs(n)), "z")
            assert rep.match
            assert rep.unit in (1, -1)

    def test_ordinary_diagram_gives_determinant(self):
        f = alexander_functor(normalize(mixed_2x2()), "z")
        assert f.entries == {((), ()): 2}

    def test_library_sweep_over_z(self):
        for name, (h, _) in fixture_library().items():
            rep = compare_bsda_alexander(h, "z")
            assert rep.match, name
            assert rep.unit in (1, -1), name

    def test_weighted_fixtures_over_zg_and_qh(self):
        weighted = ["annulus_n3_weighted", "torsion_vanishing",
                    "weighted_free2", "weighted_torsion3", "bordered_mixed"]
        lib = fixture_library()
        for name in weighted:
            h, _ = lib[name]
            for tag in ("zg", "qh"):
                rep = compare_bsda_alexander(h, tag)
                assert rep.match, (name, tag)

    def test_bordered_mixed_frozen_over_zg(self):
        hn = normalize(bordered_mixed())
        f = alexander_functor(hn, "zg")
        assert f.entries == {
            ((), ()): LAUR.one(),
            ((1,), (1,)): LAUR.neg(T1),
        }
        rep = compare_bsda_alexander(bordered_mixed(), "zg")
        assert rep.match
        assert rep.unit == LAUR.neg(LAUR.one())

    def test_weighted_annulus_over_zg(self):
        hn = normalize(annulus(3, weighted=True))
        f = alexander_functor(hn, "zg")
        assert f.entries == {((), ()): parse_element(LAUR, "1 + t1 + t1^2")}
        rep = compare_bsda_alexander(annulus(3, weighted=True), "zg")
        assert rep.match
        assert rep.unit == LAUR.one()

    def test_negative_degree_gives_zero_map(self):
        hn = normalize(halfproj_left())
        assert hn.degree == -1
        f = alexander_functor(hn, "z")
        g = bsda_z(hn)
        ok, unit = X.eq_up_to_global_unit(f, g)
        assert ok
        assert f.source_rank == hn.n0 and f.target_rank == hn.n1

    def test_ring_tag_checked(self):
        hn = normalize(mixed_2x2())
        with pytest.raises(ValueError):
            alexander_functor(hn, "zx")


def per_entry_functor(hn, tag):
    """The functor one determinant per entry: sign * alexander_function
    over entry_vectors, on the presentation mapped entrywise into the
    target ring (tag "zh": the Z[H] presentation itself).  The oracle for
    the state-sum alexander_functor."""
    pres = presentation_matrix(hn, "z" if tag == "z" else "zh")
    if tag in ("zg", "qh"):
        ring, fn = _ring_change(hn.group, tag)
        pres = Matrix(ring, [[fn(e) for e in row] for row in pres.entries])
    ring = pres.ring
    n1, c = hn.n1, hn.degree
    entries = {}
    if pres.rows >= pres.cols:
        for (I, J), u in entry_vectors(hn).items():
            jc = tuple(j for j in range(1, n1 + 1) if j not in J)
            val = alexander_function(pres, u)
            odd = (X.cross_inversions(J, jc) + c * (n1 - len(J))) % 2
            entries[(I, J)] = ring.neg(val) if odd else val
    return X.GradedMap(ring, hn.n0, n1, c, entries)


def functor_matches_oracle(hn):
    for tag in ("z", "zh", "zg", "qh"):
        f, want = alexander_functor(hn, tag), per_entry_functor(hn, tag)
        if not X.map_eq(f, want):
            return tag
    return None


class TestStateSumFunctor:
    """alexander_functor (one state sum) against the per-entry oracle."""

    def test_fixtures(self):
        for name, (h, _) in fixture_library().items():
            assert functor_matches_oracle(normalize(h)) is None, name

    def test_random_diagrams(self):
        import random

        from bsfloer.selftest import random_diagram

        rng = random.Random(5)
        groups = [GroupDescriptor(r, m) for r in range(3) for m in (1, 2, 3)]
        nonzero = 0
        for k in range(90):
            hn = normalize(random_diagram(rng, group=groups[k % len(groups)]))
            assert functor_matches_oracle(hn) is None, k
            nonzero += not alexander_functor(hn, "qh").is_zero()
        assert nonzero >= 20

    def test_invariant_is_the_functor_over_zh(self):
        """The paper's G-analogue claim where the weights carry the Spin^c
        data: bsda_zh equals the per-entry functor over Z[H] up to one
        trivial unit +-t^f*s^k, on the fixtures and on random normalized
        diagrams over Z^0..2 x Z/{1,2,3,4,6}."""
        import random

        from bsfloer.selftest import random_diagram

        rng = random.Random(21)
        groups = [GroupDescriptor(r, m) for r in range(3)
                  for m in (1, 2, 3, 4, 6)]
        hns = [normalize(h) for h, _ in fixture_library().values()]
        hns += [normalize(random_diagram(rng, group=groups[k % len(groups)]))
                for k in range(150)]
        nonzero = 0
        for k, hn in enumerate(hns):
            f = bsda_zh(hn)
            ok, unit = X.eq_up_to_global_unit(f, per_entry_functor(hn, "zh"))
            assert ok and list(unit.values()) in ([1], [-1]), k
            nonzero += not f.is_zero()
        assert len(hns) == 176 and nonzero >= 100

    @pytest.mark.parametrize("k", range(1, 7))
    def test_normalized_identities(self, k):
        hn = normalize(identity_diagram(interval_arcs(k)))
        assert functor_matches_oracle(hn) is None
        assert len(alexander_functor(hn, "z").entries) == 2 ** k

    def test_more_columns_than_rows_gives_zero_map(self):
        hn = normalize(ordinary_from_matrix([[1, 1]]))
        assert len(hn.alpha_circles) > len(hn.beta_circles)
        for tag in ("z", "zg", "qh"):
            assert alexander_functor(hn, tag).is_zero()
        assert functor_matches_oracle(hn) is None

    @pytest.mark.parametrize("free, tors, c1_on_b2", [
        ((1, 1), (1, 1), True),     # equal weights: the pair cancels
        ((1, 1), (1, 1), False),    # ... and is C1's only crossing
        ((1, 0), (0, 1), True),     # t - s: zero only over Z
    ])
    def test_two_points_on_one_pair(self, free, tors, c1_on_b2):
        # the incidence keeps the (b1, C1) coefficient when it sums to
        # zero, where the dense presentation used to be filtered
        g = GroupDescriptor(1, 3)
        w1, w2 = (g.make_weight((e,), s) for e, s in zip(free, tors))
        one = g.identity()
        pts = [Point("aOut1", "b1", -1, one), Point("C1", "b1", 1, w1),
               Point("C1", "b1", -1, w2), Point("aIn1", "b2", 1, one),
               Point("aIn1", "b1", 1, one)]
        pts += [Point("C1", "b2", 1, one)] if c1_on_b2 else []
        h = make_diagram(g, interval_arcs(1), interval_arcs(1),
                         [("aOut1", "same")], ["C1"], [("aIn1", "opposite")],
                         [("b1", None), ("b2", None)], pts)
        hn = normalize(h)
        inc = incidence(hn, weighted=True)
        b1 = hn.beta_ids().index("b1")
        c1 = hn.n1 + hn.alpha_circles.index("C1")
        assert (inc.rows[b1][c1] == {}) == (free[0] == free[1])
        assert functor_matches_oracle(hn) is None
        assert alexander_functor(hn, "z").is_zero() != c1_on_b2
        for tag in ("z", "zg", "qh"):
            assert compare_bsda_alexander(h, tag).match


def searched_compare(h, tag):
    """The compare by the unit search over the target ring: both maps built
    there, each through its own ring change, and eq_up_to_global_unit of
    the mapped maps.  The slow oracle of the Z[H]-first compare."""
    hn = normalize(h)
    f, g = bsda_map(hn, tag), alexander_functor(hn, tag)
    ok, unit = X.eq_up_to_global_unit(g, f)
    return CompareReport(tag, ok, unit, f, g)


def printed(rep):
    """What the CLI prints of a report: the verdict, the unit and both maps."""
    unit = _unit_str(rep.alexander.ring, rep.unit) if rep.match else None
    return (rep.match, unit, X.map_lines(rep.bsda), X.map_lines(rep.alexander))


def same_report(rep, want):
    """printed(...) equal and the unit equal in the report's ring."""
    return (printed(rep) == printed(want)
            and rep.alexander.ring.eq(rep.unit, want.unit))


class TestZHFirstCompare:
    """compare_bsda_alexander over Z[G] and Q[H] compares over Z[H] first
    and maps the unit, and keeps the Z[H] stage of the last diagram (module
    docstring of bsfloer.alexander)."""

    def test_matches_the_search_over_the_target_ring(self):
        import random

        from bsfloer.selftest import random_diagram

        rng = random.Random(24)
        groups = [GroupDescriptor(r, m) for r in range(3) for m in range(1, 7)]
        hs = [h for h, _ in fixture_library().values()]
        hs += [random_diagram(rng, group=groups[k % len(groups)])
               for k in range(360)]
        nonzero = {"zg": 0, "qh": 0}
        one_for_the_image = {"zg": 0, "qh": 0}
        wants = []
        for k, h in enumerate(hs):
            zh = compare_bsda_alexander(h, "zh")
            assert zh.match, k
            want = {tag: searched_compare(h, tag) for tag in ("zg", "qh")}
            wants.append(want)
            for tag in ("zg", "qh"):
                rep = compare_bsda_alexander(h, tag)
                assert same_report(rep, want[tag]), (k, tag)
                ring, fn = _ring_change(h.group, tag)
                nonzero[tag] += not rep.alexander.is_zero()
                one_for_the_image[tag] += not ring.eq(rep.unit, fn(zh.unit))
            for order in (("qh", "zg"), ("zg", "zg")):
                copy = replace(h)
                for tag in order:
                    rep = compare_bsda_alexander(copy, tag)
                    assert same_report(rep, want[tag]), (k, order, tag)
        assert min(nonzero.values()) >= 150
        assert min(one_for_the_image.values()) >= 3
        for k in range(len(hs) - 1):
            tag = ("zg", "qh")[k % 2]
            for j in (k, k + 1, k):
                rep = compare_bsda_alexander(hs[j], tag)
                assert same_report(rep, wants[j][tag]), (k, j, tag)

    def test_failed_zh_compare_falls_back_to_the_search(self, monkeypatch):
        names = ("bordered_mixed", "torsion_vanishing", "weighted_free2",
                 "weighted_torsion3", "annulus_n3_weighted")
        lib = fixture_library()
        cases = [(replace(lib[name][0]), tag)
                 for name in names for tag in ("zg", "qh")]
        wants = [searched_compare(h, tag) for h, tag in cases]
        real, rings = X.eq_up_to_global_unit, []

        def zh_fails(f, g):
            rings.append(f.ring.name)
            return (False, None) if len(rings) == 1 else real(f, g)

        monkeypatch.setattr(X, "eq_up_to_global_unit", zh_fails)
        for (h, tag), want in zip(cases, wants):
            rings.clear()
            rep = compare_bsda_alexander(h, tag)
            zh = GroupRing(h.group.free_rank, h.group.torsion_order)
            assert rings == [zh.name, want.alexander.ring.name], tag
            assert printed(rep) == printed(want), tag
            assert rep.unit == want.unit

    def test_unit_is_one_on_the_zero_component(self):
        rep = compare_bsda_alexander(torsion_vanishing(), "qh")
        R = rep.alexander.ring
        (val,) = rep.alexander.entries.values()
        assert R.divisors == [1, 2]
        assert R.components[0].is_zero(val[0])
        assert rep.match and rep.unit[0] == R.components[0].one()
        rep = compare_bsda_alexander(torsion_vanishing(), "zg")
        assert rep.alexander.is_zero()
        assert rep.match and rep.unit == rep.alexander.ring.one()

    def test_one_ring_change_and_one_zh_compare_per_call(self, monkeypatch):
        """One Z[H] stage per diagram: zg then qh on one object compile one
        normalized incidence, run two state sums and one Z[H] compare,
        never call diagram.normalize and build no HeegaardDiagram; an equal
        copy that is not the same object computes the stage again."""
        import sys

        import bsfloer.alexander as A
        import bsfloer.bsda as B
        import bsfloer.diagram as D

        changes, compares, calls, built = [], [], [], []
        ring_change, eq = A._ring_change, X.eq_up_to_global_unit

        def counting_change(group, tag):
            changes.append(tag)
            return ring_change(group, tag)

        def counting_eq(f, g):
            compares.append(f.ring.name)
            return eq(f, g)

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        monkeypatch.setattr(A, "_ring_change", counting_change)
        monkeypatch.setattr(X, "eq_up_to_global_unit", counting_eq)
        monkeypatch.setattr(A, "normalized_incidence", counted(
            "normalized_incidence", A.normalized_incidence))
        for mod in (A, B):
            monkeypatch.setattr(mod, "state_sums", counted("state_sums",
                                                           mod.state_sums))
        normalize = D.normalize
        for name, mod in list(sys.modules.items()):
            if name.startswith("bsfloer") and vars(mod).get(
                    "normalize") is normalize:
                monkeypatch.setattr(mod, "normalize",
                                    counted("normalize", normalize))
        init = D.HeegaardDiagram.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(D.HeegaardDiagram, "__init__", counting_init)
        for h in (bordered_mixed(), weighted_torsion3()):
            assert D.role_rows(h) is None       # not a normalize output
            zh = GroupRing(h.group.free_rank, h.group.torsion_order).name
            for obj in (h, replace(h)):
                changes.clear()
                compares.clear()
                calls.clear()
                built.clear()
                for tag in ("zg", "qh"):
                    assert compare_bsda_alexander(obj, tag).match
                assert changes == ["zg", "qh"]
                assert compares == [zh]
                assert sorted(calls) == (["normalized_incidence"]
                                         + ["state_sums"] * 2)
                assert built == []
        replace(h)
        assert len(built) == 1          # the counter sees a built diagram

    def test_a_failed_stage_leaves_the_slot(self, monkeypatch):
        import bsfloer.alexander as A

        h = bordered_mixed()
        want = searched_compare(h, "qh")
        compare_bsda_alexander(h, "zg")
        slot = A._LAST_ZH

        def broken(*args):
            raise RuntimeError("bsda_zh failed")

        monkeypatch.setattr(A, "bsda_zh", broken)
        with pytest.raises(RuntimeError, match="bsda_zh failed"):
            compare_bsda_alexander(weighted_torsion3(), "qh")
        assert A._LAST_ZH is slot
        assert same_report(compare_bsda_alexander(h, "qh"), want)

    def test_a_mutated_report_leaves_the_next_one(self):
        for h in (bordered_mixed(), weighted_torsion3(), torsion_vanishing()):
            for first, then in (("zg", "qh"), ("qh", "zg"), ("zg", "zg")):
                rep = compare_bsda_alexander(h, first)
                for f in (rep.bsda, rep.alexander):
                    for v in f.entries.values():
                        if isinstance(v, dict):
                            v.clear()
                    f.entries.clear()
                rep = compare_bsda_alexander(h, then)
                assert same_report(rep, searched_compare(h, then)), (first,
                                                                     then)

    def test_z_and_zh_neither_read_nor_write_the_slot(self, monkeypatch):
        import bsfloer.alexander as A

        h = weighted_torsion3()
        poisoned = (h, (None,) * 5)
        monkeypatch.setattr(A, "_LAST_ZH", poisoned)
        for tag in ("z", "zh"):
            rep = compare_bsda_alexander(h, tag)
            assert rep.match
            assert printed(rep) == printed(searched_compare(h, tag))
            assert A._LAST_ZH is poisoned

    def test_bad_tag_refused_before_the_slot_is_read(self, monkeypatch):
        import bsfloer.alexander as A

        class Unreadable:
            def __iter__(self):
                raise AssertionError("slot read for an unknown ring tag")

        monkeypatch.setattr(A, "_LAST_ZH", Unreadable())
        with pytest.raises(ValueError, match="ring must be one of"):
            compare_bsda_alexander(bordered_mixed(), "bogus")

    def test_alternating_diagrams_recompute_the_stage(self, monkeypatch):
        """One entry: h1, h2, h1, h2 computes the Z[H] stage on every call,
        so a round of distinct diagrams never reuses one across them."""
        import bsfloer.alexander as A

        stages, stage = [], A._stage

        def counting_stage(h, base):
            stages.append((h, base))
            return stage(h, base)

        monkeypatch.setattr(A, "_stage", counting_stage)
        h1, h2 = bordered_mixed(), weighted_torsion3()
        for h in (h1, h2, h1, h2):
            for tag in ("zg", "qh"):
                rep = compare_bsda_alexander(h, tag)
                assert same_report(rep, searched_compare(h, tag))
        assert [(id(h), b) for h, b in stages] == [(id(h), "zh")
                                                   for h in (h1, h2, h1, h2)]
        assert A._LAST_ZH[0] is h2


class TestNormalizedIncidenceRoute:
    """compare_bsda_alexander and alexander_functor read the normalized
    incidence compiled from h; the old route built normalize(h) and its
    incidence.  Every tag prints the same bytes both ways."""

    def test_every_tag_matches_the_old_route(self):
        import random

        from bsfloer.selftest import random_diagram

        rng = random.Random(31)
        groups = [GroupDescriptor(r, m) for r in range(3) for m in range(1, 7)]
        hs = [h for h, _ in fixture_library().values()]
        hs += [random_diagram(rng, group=groups[k % len(groups)])
               for k in range(1500)]
        nonzero = 0
        for k, h in enumerate(hs):
            hn = normalize(h)
            for tag in RING_TAGS:
                rep, want = compare_bsda_alexander(h, tag), searched_compare(
                    h, tag)
                assert same_report(rep, want), (k, tag)
                assert (X.map_lines(alexander_functor(h, tag))
                        == X.map_lines(alexander_functor(hn, tag))), (k, tag)
                nonzero += not rep.alexander.is_zero()
        assert nonzero > 2000


class TestSharedRings:
    """_ring_change and weight_ring hand out one ring object per group."""

    def test_equal_groups_share_one_ring(self):
        from bsfloer.bsda import weight_ring

        for r, m in ((0, 1), (1, 3), (2, 6)):
            G = GroupDescriptor(r, m)
            for tag in ("zg", "qh"):
                ring, fn = _ring_change(G, tag)
                assert _ring_change(GroupDescriptor(r, m), tag)[0] is ring
            zg, qh = _ring_change(G, "zg")[0], _ring_change(G, "qh")[0]
            assert zg is not qh
            # weight_ring reads only the diagram's group
            h1 = SimpleNamespace(group=G)
            h2 = SimpleNamespace(group=GroupDescriptor(r, m))
            assert weight_ring(h1) is weight_ring(h2)
            assert (weight_ring(h1).free_rank, weight_ring(h1).torsion_order
                    ) == (r, m)
            assert zg.torsion_order == 1 and qh.group == G
        assert (_ring_change(GroupDescriptor(1, 3), "qh")[0]
                is not _ring_change(GroupDescriptor(1, 2), "qh")[0])
        assert (_ring_change(GroupDescriptor(1, 3), "zg")[0]
                is not _ring_change(GroupDescriptor(2, 3), "zg")[0])

    def test_bad_tag_raises_on_every_call(self):
        G = GroupDescriptor(1, 3)
        for _ in range(3):
            with pytest.raises(ValueError, match="ring must be one of"):
                _ring_change(G, "bogus")

    def test_a_second_group_member_builds_no_ring(self, monkeypatch):
        import bsfloer.rings as R

        builds = []
        for cls in (R.QHRing, R.GroupRing):
            init = cls.__init__

            def counting(self, *args, _init=init, _name=cls.__name__, **kw):
                builds.append(_name)
                _init(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counting)
        for tag in ("qh", "zg"):
            assert compare_bsda_alexander(weighted_torsion3(), tag).match
        builds.clear()
        for tag in ("qh", "zg"):
            h = weighted_torsion3()      # a new diagram, the same group
            rep = compare_bsda_alexander(h, tag)
            assert same_report(rep, searched_compare(h, tag))
            assert builds == [], tag


class TestBsdaMap:
    def test_z_tag(self):
        h = mixed_2x2()
        assert bsda_map(h, "z").entries == bsda_z(h).entries

    def test_zh_tag(self):
        h = annulus(2, weighted=True)
        assert bsda_map(h, "zh").entries == bsda_zh(h).entries

    def test_zg_projects_torsion(self):
        f = bsda_map(torsion_vanishing(), "zg")
        assert isinstance(f.ring, GroupRing)
        assert f.ring.torsion_order == 1
        assert f.is_zero()

    def test_qh_keeps_torsion_information(self):
        f = bsda_map(torsion_vanishing(), "qh")
        R = f.ring
        val = f.entries[((), ())]
        assert R.components[0].is_zero(val[0])
        assert val[1] == R.components[1].from_int(2)

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            bsda_map(mixed_2x2(), "nope")

    def test_bad_tag_refused_before_the_state_sum(self, monkeypatch):
        import bsfloer.bsda

        def engine(*args, **kwargs):
            raise AssertionError("state sum run for an unknown ring tag")

        monkeypatch.setattr(bsfloer.bsda, "state_sums", engine)
        # the refusal names the tags, never the input: a 10^6-character tag
        # gives the same short message
        want = re.escape(f"ring must be one of {RING_TAGS}") + "$"
        for tag in ("bogus", "x" * 10 ** 6):
            with pytest.raises(ValueError, match=want):
                bsda_map(annulus(2, weighted=True), tag)

    def test_to_free_part(self):
        assert to_free_part({(2, 1): 3, (2, 0): -3}) == {}
        assert to_free_part({(1, 1): 2, (0, 0): 1}) == {(1, 0): 2, (0, 0): 1}


class TestStabilization:
    BASE = [[2, 0], [0, 3], [1, 1]]

    def test_transport_shape(self):
        pres, T = random_equivalent_presentation(zpres(self.BASE), seed=0)
        assert len(T) == pres.rows
        assert all(len(row) == 3 for row in T)
        assert pres.rows - pres.cols == 1

    def test_values_agree_up_to_common_unit_over_z(self):
        pres = zpres(self.BASE)
        vecs = [(0, 0, 1), (1, 0, 0)]
        base = [alexander_function(pres, [v]) for v in vecs]
        assert base[0] != 0 and base[1] != 0
        for seed in range(25):
            p2, T = random_equivalent_presentation(pres, seed=seed)
            got = [
                alexander_function(p2, [transport_vector(ZZ, T, v)])
                for v in vecs
            ]
            ok, unit = values_eq_up_to_unit(ZZ, list(zip(base, got)))
            assert ok, seed
            assert unit in (1, -1)

    def test_values_agree_up_to_common_unit_over_laurent(self):
        e = parse_element(LAUR, "1 + t1")
        pres = Matrix(LAUR, [[e], [LAUR.zero()]])
        u = (0, 1)
        base = alexander_function(pres, [u])
        for seed in range(25):
            p2, T = random_equivalent_presentation(pres, seed=seed)
            got = alexander_function(p2, [transport_vector(LAUR, T, u)])
            ok, unit = values_eq_up_to_unit(LAUR, [(base, got)])
            assert ok, seed
            assert len(unit) == 1

    def test_seed_reproducible(self):
        pres = zpres(self.BASE)
        a1, t1 = random_equivalent_presentation(pres, seed=7)
        a2, t2 = random_equivalent_presentation(pres, seed=7)
        assert a1.entries == a2.entries
        assert t1 == t2


class TestRandomCorpus:
    def test_compare_matches_on_random_diagrams_per_ring(self):
        import random

        from bsfloer.selftest import random_diagram

        groups = [
            GroupDescriptor(0),
            GroupDescriptor(1),
            GroupDescriptor(2),
            GroupDescriptor(0, 2),
            GroupDescriptor(1, 3),
            GroupDescriptor(0, 3),
        ]
        for tag, seed in (("z", 11), ("zg", 12), ("qh", 13)):
            rng = random.Random(seed)
            nonzero = 0
            for k in range(200):
                h = random_diagram(rng, group=groups[k % len(groups)])
                rep = compare_bsda_alexander(h, tag)
                assert rep.match, (tag, k)
                if not rep.bsda.is_zero():
                    nonzero += 1
            assert nonzero >= 20, tag


def torus_knot_fox(n):
    """The Fox Jacobian of the Wirtinger presentation of the torus knot
    T(2, n), n odd, over Z[t^+-1], with its last row and column deleted:
    row i has 1 - t in column i + 1, t in column i and -1 in column i + 2,
    indices mod n."""
    one_minus_t = LAUR.sub(LAUR.one(), T1)
    full = [[LAUR.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        full[i][(i + 1) % n] = one_minus_t
        full[i][i] = T1
        full[i][(i + 2) % n] = LAUR.from_int(-1)
    return [row[:-1] for row in full[:-1]]


def closed_weighted(square):
    """A closed diagram over Z with one beta circle per row and one alpha
    circle per column, whose points (|c| per term c*w, of c's sign and
    weight w) sum to each entry of square."""
    points = [Point(f"A{j}", f"B{i}", 1 if c > 0 else -1, w)
              for i, row in enumerate(square) for j, e in enumerate(row)
              for w, c in e.items() for _ in range(abs(c))]
    n = len(square)
    return make_diagram(GroupDescriptor(1), None, None, [],
                        [f"A{j}" for j in range(n)], [],
                        [(f"B{i}", None) for i in range(n)], points)


class TestTorusKnots:
    """A known answer from outside the code (Rolfsen, Knots and Links,
    ch. 7): the Alexander polynomial of T(2, n), n = 2k + 1, is
    (t^n + 1)/(t + 1) = 1 - t + t^2 - ... + t^(n-1), up to +-t^j."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_fox_minor_gives_delta(self, k):
        n = 2 * k + 1
        delta = {(i, 0): (-1) ** i for i in range(n)}
        square = torus_knot_fox(n)
        for value in (det_exact(LAUR, square),
                      alexander_function(Matrix(LAUR, square), []),
                      bsda_zh(closed_weighted(square)).entries[((), ())]):
            assert values_eq_up_to_unit(LAUR, [(value, delta)])[0]
