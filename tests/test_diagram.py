from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from bsfloer import diagram as D
from bsfloer.fixtures import fixture_library, ordinary_from_matrix
from bsfloer.rings import GroupDescriptor
from bsfloer.selftest import random_diagram, random_gluable_pair

Z1 = D.interval_arcs(1)
Z2 = D.interval_arcs(2)
GENUS1 = D.interval_arcs(2, matching=[(0, 2), (1, 3)])


class TestArcDiagram:
    def test_interval_builder(self):
        assert Z2.arc_count == 2
        assert Z2.point_count == 4
        assert Z2.matching == ((0, 1), (2, 3))
        assert D.interval_arcs(0).is_empty()

    def test_violations(self):
        bad = D.ArcDiagram((("interval", 2),), ((0, 5),))
        with pytest.raises(ValueError, match="out of range"):
            bad.check()
        bad = D.ArcDiagram((("interval", 4),), ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="matched twice"):
            bad.check()
        bad = D.ArcDiagram((("interval", 4),), ((0, 1),))
        with pytest.raises(ValueError, match="unmatched"):
            bad.check()
        with pytest.raises(ValueError):
            D.build_arc_diagram([("interval", 2)], [(0, 2)])

    def test_dual_and_reverse(self):
        d = D.dual(Z2)
        assert d.type_tag == "beta" and d.arc_count == 2
        dd = D.dual(d)
        assert dd.arc_count == Z2.arc_count and dd.type_tag == Z2.type_tag
        assert D.reverse(D.reverse(GENUS1)) == GENUS1
        r = D.reverse(GENUS1)   # positions 0123 -> 3210
        assert r.matching == ((1, 3), (0, 2))

    def test_concat(self):
        z = D.concat_arcs(Z1, Z2)
        assert z.arc_count == 3
        assert z.matching == ((0, 1), (2, 3), (4, 5))
        assert D.concat_arcs(D.EMPTY_ARCS, Z2) == Z2
        with pytest.raises(ValueError):
            D.concat_arcs(Z1, D.dual(Z2))

    def test_structural_equality(self):
        assert D.interval_arcs(2) == Z2
        assert Z2 != GENUS1


class TestValidation:
    def test_identity_is_valid(self):
        h = D.identity_diagram(Z2)
        D.validate(h)

    def test_missing_beta_reference(self):
        h = D.identity_diagram(Z1)
        bad = D.HeegaardDiagram(
            h.group, h.boundary_left, h.boundary_right, h.alpha_out,
            h.alpha_circles, h.alpha_in, h.beta_circles,
            h.points + (D.Point("aOut1", "nope", 1, h.group.identity()),))
        with pytest.raises(ValueError, match="missing beta"):
            D.validate(bad)

    def test_arc_count_mismatch(self):
        h = D.identity_diagram(Z1)
        bad = D.HeegaardDiagram(
            h.group, Z2, h.boundary_right, h.alpha_out, h.alpha_circles,
            h.alpha_in, h.beta_circles, h.points)
        with pytest.raises(ValueError, match="outgoing arcs"):
            D.validate(bad)

    def test_role_patterns(self):
        h = D.normalize(D.identity_diagram(Z1))
        D.validate(h)
        scrambled = D.HeegaardDiagram(
            h.group, h.boundary_left, h.boundary_right, h.alpha_out,
            h.alpha_circles, h.alpha_in,
            tuple(reversed(h.beta_circles)), h.points)
        with pytest.raises(ValueError, match="newOut|roles"):
            D.validate(scrambled)
        partial = D.HeegaardDiagram(
            h.group, h.boundary_left, h.boundary_right, h.alpha_out,
            h.alpha_circles, h.alpha_in,
            (h.beta_circles[0], (h.beta_circles[1][0], None),
             h.beta_circles[2]), h.points)
        with pytest.raises(ValueError, match="all present"):
            D.validate(partial)

    def test_weight_shape_checked(self):
        g = GroupDescriptor(1, 2)
        h = D.identity_diagram(Z1, g)
        bad = D.HeegaardDiagram(
            g, h.boundary_left, h.boundary_right, h.alpha_out,
            h.alpha_circles, h.alpha_in, h.beta_circles,
            (D.Point("aOut1", "b1", -1, (1, 2, 0)), h.points[1]))
        with pytest.raises(ValueError, match="free rank"):
            D.validate(bad)

    def test_torsion_exponent_range_checked(self):
        g = GroupDescriptor(1, 2)
        h = D.identity_diagram(Z1, g)
        bad = D.HeegaardDiagram(
            g, h.boundary_left, h.boundary_right, h.alpha_out,
            h.alpha_circles, h.alpha_in, h.beta_circles,
            (D.Point("aOut1", "b1", -1, (0, 2)), h.points[1]))
        with pytest.raises(ValueError) as e:
            D.validate(bad)
        assert str(e.value) == "point weight torsion exponent out of range"

    def test_unhashable_point_reference_refused(self):
        h = D.identity_diagram(Z1)
        bad = replace(h, points=h.points + (
            D.Point(["aOut1"], "b1", -1, (0,)),))
        with pytest.raises(ValueError) as e:
            D.validate(bad)
        assert str(e.value) == "point references missing alpha ['aOut1']"

    def test_point_that_is_not_a_point_refused(self):
        h = D.identity_diagram(Z1)
        bad = replace(h, points=h.points + (("aOut1", "b1", -1, (0,)),))
        with pytest.raises(ValueError) as e:
            D.validate(bad)
        assert str(e.value) == ("points entry ('aOut1', 'b1', -1, (0,)) is "
                                "not a Point")

    def test_group_that_is_not_a_group_descriptor_refused(self):
        bad = replace(D.identity_diagram(Z1), group=None)
        with pytest.raises(ValueError) as e:
            D.validate(bad)
        assert str(e.value) == "group None is not a GroupDescriptor"

    def test_matching_entry_of_three_refused(self):
        with pytest.raises(ValueError) as e:
            D.ArcDiagram((("interval", 2),), ((0, 1, 2),))
        assert str(e.value) == "matching entry (0, 1, 2) is not a pair"

    def test_alpha_out_entry_of_one_refused(self):
        bad = replace(D.identity_diagram(Z1), alpha_out=(("aOut1",),))
        with pytest.raises(ValueError) as e:
            D.validate(bad)
        assert str(e.value) == "alpha_out entry ('aOut1',) is not a pair"

    def test_beta_circles_entry_of_three_refused(self):
        bad = replace(D.identity_diagram(Z1),
                      beta_circles=(("B", None, 3),))
        with pytest.raises(ValueError) as e:
            D.validate(bad)
        assert str(e.value) == ("beta_circles entry ('B', None, 3) is not "
                                "a pair")


    # the exact engines read signs, exponents, counts and points as ints:
    # a float or a bool is refused, not summed or truncated
    def test_float_sign_refused(self):
        h = ordinary_from_matrix([[1, 1], [1, 1]])
        p = h.points[0]
        with pytest.raises(ValueError, match=r"point sign 1\.0 not"):
            D.validate(replace(h, points=(
                D.Point(p.alpha, p.beta, 1.0, p.weight), *h.points[1:])))

    def test_bool_sign_refused(self):
        h = ordinary_from_matrix([[1, 1], [1, 1]])
        p = h.points[0]
        with pytest.raises(ValueError, match="point sign True not"):
            D.validate(replace(h, points=(
                D.Point(p.alpha, p.beta, True, p.weight), *h.points[1:])))

    def test_float_weight_refused(self):
        g = GroupDescriptor(1)
        h = D.identity_diagram(Z1, g)
        bad = replace(h, points=(D.Point("aOut1", "b1", -1, (0.5, 0)),
                                   h.points[1]))
        with pytest.raises(ValueError, match="point weight .* non-integer"):
            D.validate(bad)

    def test_float_component_count_refused(self):
        z = D.ArcDiagram((("interval", 2.9),), ((0, 1),))
        assert z.components == (("interval", 2.9),)
        with pytest.raises(ValueError, match="point count 2.9 .* not an int"):
            z.check()
        with pytest.raises(ValueError, match="boundary left: point count"):
            D.make_diagram(GroupDescriptor(0), z, None, [("a1", "same")],
                           [], [], [], [])

    def test_float_matched_point_refused(self):
        z = D.ArcDiagram((("interval", 2),), ((1.2, 0),))
        assert z.matching == ((0, 1.2),)
        with pytest.raises(ValueError, match="matched point 1.2 is not an int"):
            z.check()
        with pytest.raises(ValueError, match="matched point True"):
            D.build_arc_diagram([("interval", 2)], [(0, True)])

    def test_incomparable_matched_point_refused(self):
        # a pair that does not sort is kept as given, for check to name
        z = D.ArcDiagram((("interval", 2),), (("0", 1),))
        assert z.matching == (("0", 1),)
        with pytest.raises(ValueError, match="matched point '0' is not"):
            z.check()

    @pytest.mark.parametrize("weight", [None, 0, [0, 0]],
                             ids=["None", "int", "list"])
    def test_non_tuple_weight_refused(self, weight):
        h = D.identity_diagram(Z1, GroupDescriptor(1))
        bad = replace(h, points=(D.Point("aOut1", "b1", -1, weight),
                                   h.points[1]))
        with pytest.raises(ValueError, match=r"point weight .* not a tuple"):
            D.validate(bad)

    def test_non_string_curve_id_refused(self):
        # ids are stored as given: an int id is refused, not made '1'
        g = GroupDescriptor(0)
        one = g.identity()
        for circles, betas, point in (
                ([1], [("B1", None)], D.Point(1, "B1", 1, one)),
                (["A1"], [(2, None)], D.Point("A1", 2, 1, one))):
            with pytest.raises(ValueError, match="curve id [12] is not a str"):
                D.make_diagram(g, None, None, [], circles, [], betas, [point])
        with pytest.raises(ValueError, match="curve id None is not a str"):
            D.make_diagram(g, Z1, None, [(None, "same")], [], [], [], [])


class TestBuilders:
    def test_identity_n1(self):
        h = D.identity_diagram(Z1)
        assert (h.n0, h.n1, h.a, h.b) == (1, 1, 0, 1)
        assert len(h.points) == 2
        signs = {p.alpha: p.sign for p in h.points}
        assert signs == {"aOut1": -1, "aIn1": 1}

    def test_identity_empty(self):
        h = D.identity_diagram(D.EMPTY_ARCS)
        assert h.points == () and h.b == 0

    def test_half_identities(self):
        cup = D.half_identity(Z1, "out")
        assert cup.n1 == 1 and cup.n0 == 0
        assert [p.sign for p in cup.points] == [-1]
        cap_ = D.half_identity(Z1, "in")
        assert cap_.n0 == 1 and cap_.n1 == 0
        assert [p.sign for p in cap_.points] == [1]
        with pytest.raises(ValueError):
            D.half_identity(D.dual(Z1), "out")
        with pytest.raises(ValueError):
            D.half_identity(Z1, "sideways")

    def test_degree(self):
        h = D.identity_diagram(Z2)
        assert h.degree == 0
        assert D.half_identity(Z2, "out").degree == 0
        assert D.empty_diagram().degree == 0


class TestGlue:
    def test_identity_identity(self):
        g = D.glue(D.identity_diagram(Z1), D.identity_diagram(Z1))
        assert (g.a, g.b) == (1, 2)
        assert len(g.points) == 4
        assert g.n0 == g.n1 == 1
        D.validate(g)
        # the merged circle holds one point from each side
        circle = g.alpha_circles[0]
        assert len(g.points_on_alpha(circle)) == 2

    def test_interface_mismatch(self):
        with pytest.raises(ValueError):
            D.glue(D.identity_diagram(Z1), D.identity_diagram(Z2))
        with pytest.raises(ValueError):
            D.glue(D.identity_diagram(Z2), D.identity_diagram(GENUS1))

    def test_empty_interface_rejected(self):
        with pytest.raises(ValueError):
            D.glue(D.empty_diagram(), D.empty_diagram())

    def test_group_mismatch(self):
        a = D.identity_diagram(Z1, GroupDescriptor(1))
        b = D.identity_diagram(Z1)
        with pytest.raises(ValueError):
            D.glue(a, b)

    def test_ordering_convention(self):
        # left circles, then merged, then right circles
        left = D.normalize(D.identity_diagram(Z1))     # has circles
        right = D.identity_diagram(Z1)
        g = D.glue(left, right)
        assert g.alpha_circles[-1].startswith("G")
        assert all(c.startswith("L.") for c in g.alpha_circles[:-1])
        assert g.beta_ids()[:left.b] == tuple(f"L.{b}" for b in left.beta_ids())

    def test_associative_signature(self):
        m = D.identity_diagram(Z2)
        lhs = D.glue(D.glue(m, m), m)
        rhs = D.glue(m, D.glue(m, m))
        assert D.diagram_signature(lhs) == D.diagram_signature(rhs)


class TestDisjoint:
    def test_counts_add(self):
        u = D.disjoint(D.identity_diagram(Z1), D.identity_diagram(Z2))
        assert u.n0 == u.n1 == 3
        assert u.b == 3
        D.validate(u)

    def test_left_block_first(self):
        u = D.disjoint(D.identity_diagram(Z1), D.identity_diagram(Z2))
        assert u.alpha_order()[:1] == ("A.aOut1",)
        assert u.alpha_order()[1:3] == ("B.aOut1", "B.aOut2")

    def test_empty_unit(self):
        h = D.identity_diagram(Z2)
        u = D.disjoint(D.empty_diagram(), h)
        assert D.diagram_signature(u) == D.diagram_signature(h)

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            D.disjoint(D.empty_diagram(GroupDescriptor(1)), D.empty_diagram())


class TestNormalize:
    def test_counts_identity1(self):
        h = D.normalize(D.identity_diagram(Z1))
        assert (h.b, h.a, h.n0, h.n1) == (3, 2, 1, 1)
        D.validate(h)
        outs, cores, ins = D.normalized_roles(h)
        assert (outs, cores, ins) == (range(1), range(1, 2), range(2, 3))
        assert h.beta_ids()[cores[0]] == "b1"

    def test_ordinary_fixed_point(self):
        # no arcs: nothing to do
        h = D.empty_diagram()
        assert D.diagram_signature(D.normalize(h)) == D.diagram_signature(h)

    def test_matches_double_glue(self):
        for z in (Z1, Z2, GENUS1):
            h = D.identity_diagram(z)
            direct = D.normalize(h)
            glued = D.glue(D.identity_diagram(z),
                           D.glue(h, D.identity_diagram(z)))
            assert D.diagram_signature(direct) == D.diagram_signature(glued)

    def test_matches_double_glue_one_sided(self):
        h = D.half_identity(Z2, "out")
        direct = D.normalize(h)
        glued = D.glue(D.identity_diagram(Z2), h)
        assert D.diagram_signature(direct) == D.diagram_signature(glued)

    def test_new_point_signs(self):
        h = D.normalize(D.identity_diagram(Z1))
        outs, _, ins = D.normalized_roles(h)
        # out beta: +1 on the promoted circle, -1 on the fresh arc
        out_beta = h.beta_ids()[outs[0]]
        out_signs = sorted((p.alpha, p.sign) for p in h.points_on_beta(out_beta))
        assert set(s for _, s in out_signs) == {1, -1}
        fresh_out = h.alpha_out[0][0]
        assert [p.sign for p in h.points_on_alpha(fresh_out)] == [-1]
        fresh_in = h.alpha_in[0][0]
        assert [p.sign for p in h.points_on_alpha(fresh_in)] == [1]

    def test_roles_out_of_their_run_are_refused(self):
        """normalized_roles reads the tags themselves, so a diagram built
        without validate cannot hand it reversed tags as row ranges."""
        h = D.normalize(D.identity_diagram(Z1))
        rev = D.HeegaardDiagram(
            h.group, h.boundary_left, h.boundary_right, h.alpha_out,
            h.alpha_circles, h.alpha_in, tuple(reversed(h.beta_circles)),
            h.points)
        message = ("role 'core' of beta row 1 breaks the run newOut(1..), "
                   "core, newIn(1..)")
        for read in (D.normalized_roles, D.validate):
            with pytest.raises(ValueError) as e:
                read(rev)
            assert str(e.value) == message

    def test_core_betas_preserved(self):
        base = D.identity_diagram(Z2)
        h = D.normalize(base)
        _, cores, _ = D.normalized_roles(h)
        assert [h.beta_ids()[r] for r in cores] == list(base.beta_ids())


FIXTURES = fixture_library()


@st.composite
def normalize_inputs(draw):
    """A random piece over Z^r x Z/m (r = 0..2, m = 1..4), a shipped
    fixture, or a glued random pair."""
    source = draw(st.sampled_from(("piece", "fixture", "glued")))
    if source == "fixture":
        return FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))][0]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if source == "glued":
        return D.glue(*random_gluable_pair(rng))
    group = GroupDescriptor(draw(st.integers(0, 2)), draw(st.integers(1, 4)))
    return random_diagram(rng, group=group)


def tagged_rows(hn):
    """The beta rows tagged newOut(1..n1), core and newIn(1..n0), in that
    order, each found by its exact tag string."""
    tags = [r for _, r in hn.beta_circles]
    return ([tags.index(f"newOut({j})") for j in range(1, hn.n1 + 1)],
            [r for r, tag in enumerate(tags) if tag == "core"],
            [tags.index(f"newIn({i})") for i in range(1, hn.n0 + 1)])


class TestNormalizeIsValid:
    """normalize builds its result without validating it; its role tags
    are the row ranges normalized_roles returns."""

    @given(normalize_inputs())
    def test_drawn_diagrams(self, h):
        hn = D.normalize(h)
        D.validate(hn)
        D.validate(D.normalize(hn))
        assert tuple(map(list, D.normalized_roles(hn))) == tagged_rows(hn)

    def test_every_fixture(self):
        assert len(FIXTURES) == 26
        for name, (h, _) in FIXTURES.items():
            hn = D.normalize(h)
            D.validate(hn)
            loaded = D.loads(D.dumps(hn))
            assert loaded == hn, name
            assert (tuple(map(list, D.normalized_roles(loaded)))
                    == tagged_rows(loaded)), name
            # normalize(h) is h itself on a normalize output only
            assert D.normalize(loaded) is loaded, name
            assert D.normalize(h) == hn, name


class TestReinterpret:
    def test_identity_reinterpreted(self):
        h = D.reinterpret_one_sided(D.identity_diagram(Z1))
        assert h.n0 == 0 and h.n1 == 2
        assert h.points == D.identity_diagram(Z1).points
        D.validate(h)

    def test_in_arcs_first_with_flipped_flags(self):
        h = D.reinterpret_one_sided(D.identity_diagram(Z1))
        assert h.alpha_out[0] == ("aIn1", "same")      # flipped from opposite
        assert h.alpha_out[1] == ("aOut1", "same")

    def test_arc_count_preserved(self):
        base = D.identity_diagram(Z2)
        h = D.reinterpret_one_sided(base)
        assert h.boundary_left.arc_count == base.n0 + base.n1


class TestCap:
    def test_counts(self):
        h = D.cap(D.normalize(D.identity_diagram(Z1)), [1], [1])
        assert (h.n0, h.n1) == (0, 0)
        assert (h.b, h.a) == (3, 3)
        D.validate(h)

    def test_balanced_iff_degree_matched(self):
        hn = D.normalize(D.identity_diagram(Z1))
        c = hn.degree
        for I in ([], [1]):
            for J in ([], [1]):
                capped = D.cap(hn, I, J)
                balanced = capped.a == capped.b
                assert balanced == (len(J) == len(I) + c)

    def test_cap_point_signs(self):
        hn = D.normalize(D.identity_diagram(Z1))
        capped = D.cap(hn, [1], [])     # J^c = {1}: one out cap, one in cap
        outs, _, ins = D.normalized_roles(hn)
        ids = hn.beta_ids()
        new = [p for p in capped.points if p.alpha.startswith("cap")]
        assert ({(p.beta, p.sign) for p in new}
                == {(ids[outs[0]], -1), (ids[ins[0]], 1)})

    def test_arc_points_deleted(self):
        hn = D.normalize(D.identity_diagram(Z1))
        capped = D.cap(hn, [], [1])
        arc_ids = {i for i, _ in hn.alpha_out} | {i for i, _ in hn.alpha_in}
        assert all(p.alpha not in arc_ids for p in capped.points)

    def test_normalizes_first(self):
        h = D.identity_diagram(Z1)
        for I in ([], [1]):
            for J in ([], [1]):
                assert D.cap(h, I, J) == D.cap(D.normalize(h), I, J)

    def test_subset_ranges(self):
        hn = D.normalize(D.identity_diagram(Z1))
        with pytest.raises(ValueError):
            D.cap(hn, [2], [])
        with pytest.raises(ValueError):
            D.cap(hn, [], [0])

    def test_subsets_hold_ints(self):
        # 1.9 is not truncated to in-arc 1, nor True read as out-arc 1
        hn = D.normalize(D.identity_diagram(Z2))
        with pytest.raises(ValueError, match="I must index incoming arcs"):
            D.cap(hn, (1.9,), (1,))
        with pytest.raises(ValueError, match="J must index outgoing arcs"):
            D.cap(hn, (1,), (True,))
        with pytest.raises(ValueError, match="I must index incoming arcs"):
            D.cap(hn, (1, True), (1,))
        assert D.cap(hn, (1,), (1,)).a == 6


class TestReweight:
    def test_alpha_multiplies(self):
        g = GroupDescriptor(1)
        h = D.identity_diagram(Z1, g)
        t = g.make_weight((1,))
        h2 = D.reweight(h, "aOut1", t)
        w = {p.alpha: p.weight for p in h2.points}
        assert w["aOut1"] == t and w["aIn1"] == g.identity()

    def test_beta_inverts(self):
        g = GroupDescriptor(1)
        h = D.identity_diagram(Z1, g)
        t = g.make_weight((1,))
        h2 = D.reweight(h, "b1", t)
        assert all(p.weight == g.make_weight((-1,)) for p in h2.points)

    def test_identity_weight_noop(self):
        g = GroupDescriptor(1)
        h = D.identity_diagram(Z1, g)
        assert D.reweight(h, "b1", g.identity()) == h

    def test_round_trip(self):
        g = GroupDescriptor(1)
        h = D.identity_diagram(Z1, g)
        t = g.make_weight((1,))
        assert D.reweight(D.reweight(h, "aIn1", t), "aIn1",
                          g.inv_weight(t)) == h

    def test_missing_curve(self):
        with pytest.raises(ValueError):
            D.reweight(D.identity_diagram(Z1), "zz", GroupDescriptor(0).identity())


class TestJson:
    def test_round_trip_plain(self):
        for h in (D.identity_diagram(Z2),
                  D.normalize(D.identity_diagram(Z1)),
                  D.empty_diagram()):
            assert D.loads(D.dumps(h)) == h

    def test_round_trip_weighted(self):
        g = GroupDescriptor(2, 3)
        h = D.reweight(D.identity_diagram(Z1, g), "aOut1",
                       g.make_weight((1, -2), 2))
        assert D.loads(D.dumps(h)) == h

    def test_unknown_field_rejected(self):
        doc = D.to_json_dict(D.identity_diagram(Z1))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            D.from_json_dict(doc)

    def test_unknown_nested_field_rejected(self):
        doc = D.to_json_dict(D.identity_diagram(Z1))
        doc["points"][0]["color"] = "red"
        with pytest.raises(ValueError):
            D.from_json_dict(doc)

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            D.loads("{not json")

    def test_defaults(self):
        doc = D.to_json_dict(D.identity_diagram(Z1))
        for e in doc["alpha"]["out"] + doc["alpha"]["in"]:
            del e["orient"]
        h = D.from_json_dict(doc)
        assert h == D.identity_diagram(Z1)

    def test_weight_string_form(self):
        g = GroupDescriptor(1, 2)
        h = D.reweight(D.identity_diagram(Z1, g), "aIn1", g.make_weight((2,), 1))
        doc = D.to_json_dict(h)
        in_point = [p for p in doc["points"] if p["alpha"] == "aIn1"][0]
        assert in_point["weight"] == "t1^2*s"

    def test_invalid_diagram_rejected(self):
        doc = D.to_json_dict(D.identity_diagram(Z1))
        doc["points"][0]["alpha"] = "missing"
        with pytest.raises(ValueError):
            D.from_json_dict(doc)

    def test_loaded_ids_are_shared_and_records_have_slots(self):
        """Each id of a loaded file is one string object on every curve and
        point that names it, and the frozen records keep no __dict__."""
        text = D.dumps(D.normalize(D.identity_diagram(Z2)))
        h1, h2 = D.loads(text), D.loads(text)
        names = {}
        for h in (h1, h2):
            for p in h.points:
                for name in (p.alpha, p.beta):
                    assert names.setdefault(name, name) is name
            for i, _ in h.beta_circles + h.alpha_out + h.alpha_in:
                assert names[i] is i
        for x in (h1, h1.points[0], h1.group, h1.boundary_left):
            assert not hasattr(x, "__dict__")


# every key the loader reads, in a normalized weighted document that has
# them all
FUZZ_DOC = D.to_json_dict(D.normalize(D.reweight(
    D.identity_diagram(Z1, GroupDescriptor(1, 2)), "aOut1",
    (1, 1))))
FUZZ_PATHS = [
    (), ("group",), ("group", "free_rank"), ("group", "torsion_order"),
    ("comment",), ("alpha",), ("alpha", "out"), ("alpha", "out", 0),
    ("alpha", "out", 0, "id"), ("alpha", "out", 0, "orient"),
    ("alpha", "circles"), ("alpha", "circles", 0), ("alpha", "in"),
    ("alpha", "in", 0), ("alpha", "in", 0, "id"), ("alpha", "in", 0, "orient"), ("beta",),
    ("beta", "circles"), ("beta", "circles", 0),
    ("beta", "circles", 0, "id"), ("beta", "circles", 0, "role"),
    ("points",), ("points", 0), ("points", 0, "alpha"),
    ("points", 0, "beta"), ("points", 0, "sign"), ("points", 0, "weight"),
] + [(side, *rest) for side in ("boundary_left", "boundary_right")
     for rest in [(), ("type",), ("components",), ("components", 0),
                  ("components", 0, "kind"), ("components", 0, "points"),
                  ("matching",), ("matching", 0), ("matching", 0, 0),
                  ("matching", 0, 1)]]
JSON_VALUES = st.recursive(
    st.sampled_from([None, True, False, 0, 1, -1, 10**20, 2.5, math.inf,
                     -math.inf, math.nan, "", "alpha", "core", "t1", "same"])
    | st.integers(-2, 5) | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


class TestLoadsFuzz:
    @pytest.mark.parametrize("path", FUZZ_PATHS,
                             ids=lambda p: ".".join(map(str, p)) or "doc")
    @settings(max_examples=20, deadline=None)
    @example(value=math.inf)
    @example(value=math.nan)
    @example(value=True)
    @given(value=JSON_VALUES)
    def test_only_value_error_escapes(self, path, value):
        doc = json.loads(json.dumps(FUZZ_DOC))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if path:
            node[path[-1]] = value
        else:
            doc = value
        try:
            D.loads(json.dumps(doc))
        except ValueError as e:
            assert not str(e).startswith("malformed diagram data"), str(e)
