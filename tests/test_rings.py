from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from bsfloer import exterior as X
from bsfloer import rings as R
from bsfloer.bsda import _state_sums, bsda_z, incidence
from bsfloer.diagram import disjoint, normalize
from bsfloer.fixtures import identity_diagram, interval_arcs


def brute_det(ring, entries):
    """Permutation-sum determinant, the brute-force oracle."""
    n = len(entries)
    if n == 0:
        return ring.one()
    acc = ring.zero()
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = ring.one()
        for i in range(n):
            term = ring.mul(term, entries[i][perm[i]])
        acc = ring.add(acc, term if inv % 2 == 0 else ring.neg(term))
    return acc


def dense_copy(entries):
    """A copy of an integer matrix for integer_det, which overwrites it."""
    return [list(r) for r in entries]


def normalize_every_pair(ring, pairs):
    """The earlier up-to-unit comparison, the oracle: split a and b of every
    pair into unit * canonical form, the canonical form being
    unit_inv(unit_part(a)) * a, and require equal canonical forms and one
    common unit ratio (Q[H] per component)."""
    if isinstance(ring, R.QHRing):
        units = []
        for idx, comp in enumerate(ring.components):
            ok, u = normalize_every_pair(comp, [(a[idx], b[idx]) for a, b in pairs])
            if not ok:
                return False, None
            units.append(u)
        return True, tuple(units)
    unit = None
    for a, b in pairs:
        az, bz = ring.is_zero(a), ring.is_zero(b)
        if az != bz:
            return False, None
        if az:
            continue
        ua, ub = ring.unit_part(a), ring.unit_part(b)
        ca = ring.mul(ring.unit_inv(ua), a)
        cb = ring.mul(ring.unit_inv(ub), b)
        if ca != cb:
            return False, None
        r = ring.mul(ua, ring.unit_inv(ub))
        if unit is None:
            unit = r
        elif unit != r:
            return False, None
    return True, unit if unit is not None else ring.one()


def gr_elements(r, m, max_exp=2, max_terms=4, max_coeff=5):
    mono = st.tuples(
        *([st.integers(-max_exp, max_exp)] * r), st.integers(0, m - 1)
    )
    return st.dictionaries(
        mono, st.integers(-max_coeff, max_coeff).filter(lambda n: n != 0),
        max_size=max_terms,
    )


# ---------------------------------------------------------------------------
# groups and weights


class TestGroupDescriptor:
    def test_identity_weight(self):
        G = R.GroupDescriptor(2, 3)
        assert G.identity() == (0, 0, 0)

    def test_torsion_reduction(self):
        G = R.GroupDescriptor(1, 3)
        assert G.make_weight((2,), 7) == (2, 1)
        assert G.make_weight((0,), -1) == (0, 2)

    @pytest.mark.parametrize("free, tors", [((0.5,), 2), ((0,), 2.9),
                                            ((True,), 0), ((1,), False)])
    def test_make_weight_refuses_non_integers(self, free, tors):
        # neither truncated (0.5 -> 0, 2.9 -> 2) nor read as 1 and 0
        with pytest.raises(ValueError, match="are not all integers"):
            R.GroupDescriptor(1, 3).make_weight(free, tors)

    def test_mul_inv(self):
        G = R.GroupDescriptor(1, 4)
        a = G.make_weight((2,), 3)
        b = G.make_weight((-1,), 2)
        assert G.mul_weight(a, b) == (1, 1)
        assert G.mul_weight(a, G.inv_weight(a)) == G.identity()

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_mul_weight_is_canonical(self, m):
        G = R.GroupDescriptor(2, m)
        weights = [G.make_weight(free, k)
                   for free in product(range(-2, 3), repeat=2)
                   for k in range(m)]
        for g in weights:
            for h in weights:
                got = G.mul_weight(g, h)
                assert got == G.make_weight(
                    (g[0] + h[0], g[1] + h[1]), g[-1] + h[-1])
                assert 0 <= got[-1] < m
                assert all(type(e) is int for e in got)

    def test_validation(self):
        with pytest.raises(ValueError):
            R.GroupDescriptor(-1)
        with pytest.raises(ValueError):
            R.GroupDescriptor(0, 0)
        with pytest.raises(ValueError):
            R.GroupDescriptor(2).make_weight((1,))

    @pytest.mark.parametrize("free_rank, torsion_order", [
        (True, 1), ("2", 1), (2.0, 1), (R.MAX_FREE_RANK + 1, 1), (10**9, 1),
        (0, True), (0, "3"), (0, R.MAX_TORSION_ORDER + 1), (0, 10**12),
    ])
    def test_rejects_non_integers_and_oversized(self, free_rank, torsion_order):
        with pytest.raises(ValueError):
            R.GroupDescriptor(free_rank, torsion_order)

    def test_limits_are_inclusive(self):
        G = R.GroupDescriptor(R.MAX_FREE_RANK, R.MAX_TORSION_ORDER)
        assert len(G.identity()) == R.MAX_FREE_RANK + 1

    def test_divisors_match_brute_force(self):
        for m in range(1, 301):
            assert R.divisors(m) == [d for d in range(1, m + 1) if m % d == 0]


# ---------------------------------------------------------------------------
# basic ring ops


class TestRingOps:
    def test_integers(self):
        assert R.ZZ.add(2, 3) == 5
        assert R.ZZ.mul(-4, 6) == -24

    def test_laurent_product(self):
        Zt = R.GroupRing(1)
        one_plus_t = R.parse_element(Zt, "1 + t1")
        one_minus_t = R.parse_element(Zt, "1 - t1")
        assert (Zt.mul(one_plus_t, one_minus_t)
                == R.parse_element(Zt, "1 - t1^2"))

    def test_zeta3_square(self):
        F = R.cyclo_field(3)
        z = F.zeta_power(1)
        want = F.add(F.neg(F.one()), F.neg(z))  # -1 - z
        assert F.mul(z, z) == want

    def test_mixed_ring_rejected(self):
        Z1 = R.GroupRing(1)
        Z2 = R.GroupRing(2)
        a = Z2.from_int(1)
        with pytest.raises(ValueError):
            Z1.add(a, Z1.one())

    @given(gr_elements(2, 3), gr_elements(2, 3), gr_elements(2, 3))
    def test_ring_axioms_zh(self, a, b, c):
        Zh = R.GroupRing(2, 3)
        assert Zh.mul(a, b) == Zh.mul(b, a)
        assert Zh.mul(a, Zh.add(b, c)) == Zh.add(Zh.mul(a, b), Zh.mul(a, c))
        assert Zh.mul(Zh.mul(a, b), c) == Zh.mul(a, Zh.mul(b, c))
        assert Zh.is_zero(Zh.sub(a, a))


# ---------------------------------------------------------------------------
# the accumulate step


@pytest.mark.parametrize("ring", [R.ZZ, R.cyclo_field(3)], ids=["Z", "Q(zeta_3)"])
class TestAccumulate:
    def test_zero_sum_removes_key(self, ring):
        x = ring.from_int(3)
        if ring is not R.ZZ:
            x = ring.add(x, ring.zeta_power(1))
        out = {"k": x, "j": ring.one()}
        R.accumulate(ring, out, "k", ring.neg(x))
        assert list(out) == ["j"] and out["j"] == ring.one()

    def test_zero_on_absent_key_adds_nothing(self, ring):
        out: dict = {}
        R.accumulate(ring, out, "k", ring.zero())
        assert out == {}
        R.accumulate(ring, out, "k", ring.one())
        R.accumulate(ring, out, "k", ring.one())
        assert list(out) == ["k"] and out["k"] == ring.from_int(2)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and fields


class TestCyclotomic:
    def test_small_values(self):
        assert R.cyclotomic_polynomial(1) == (-1, 1)
        assert R.cyclotomic_polynomial(2) == (1, 1)
        assert R.cyclotomic_polynomial(3) == (1, 1, 1)
        assert R.cyclotomic_polynomial(4) == (1, 0, 1)
        assert R.cyclotomic_polynomial(6) == (1, -1, 1)
        assert R.cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_product_over_divisors(self, m):
        prod = [1]
        for d in R.divisors(m):
            phi = R.cyclotomic_polynomial(d)
            assert all(type(c) is int for c in phi)
            prod = R._poly_mul(prod, phi)
        want = [0] * (m + 1)
        want[0], want[m] = -1, 1
        assert prod == want

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_field_inverse(self, d):
        F = R.cyclo_field(d)
        elems = [F.zeta_power(k) for k in range(d)]
        elems.append(F.add(F.one(), F.zeta_power(1)))
        for a in elems:
            if F.is_zero(a):
                continue
            assert F.mul(a, F.inv(a)) == F.one()

    @pytest.mark.parametrize("d", range(1, 13))
    def test_integral_input_keeps_int_coefficients(self, d):
        F = R.cyclo_field(d)
        rng = random.Random(d)
        qh = R.QHRing(R.GroupDescriptor(1, d))
        zh = {(rng.randint(-2, 2), rng.randrange(d)): rng.choice((-2, -1, 1, 3))
              for _ in range(4)}
        elems = [F.zeta_power(k) for k in range(-d, 2 * d)]
        elems += [F.from_int(n) for n in (-3, 0, 5)] + [F.zero(), F.one()]
        assert qh.components[-1].coeff is F
        elems.extend(qh.from_zh(zh)[-1].values())
        for _ in range(20):
            a, b = rng.choice(elems), rng.choice(elems)
            elems += [F.mul(a, b), F.add(a, b), F.neg(a)]
        for x in elems:
            assert len(x) == F.degree
            assert all(type(c) is int for c in x), x

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 12])
    def test_memoized_inverse_matches_fresh_euclid(self, d):
        F = R.cyclo_field(d)
        z = F.zeta_power(1)
        elems = [F.zeta_power(k) for k in range(d)]
        elems += [F.add(F.one(), F.add(z, z)), F.from_int(-3)]
        for a in elems:
            mixed = tuple(Fraction(c) if i % 2 else c for i, c in enumerate(a))
            for x in (a, mixed, a):
                inv = F.inv(x)
                assert inv == R.CycloField(d).inv(a)
                assert F.mul(x, inv) == F.one()

    def test_inverse_of_integers_over_q(self):
        F = R.CycloField(1)
        for n in range(1, 1074):
            assert F.inv((n,)) == (Fraction(1, n),)
        with pytest.raises(ZeroDivisionError):
            F.inv((0,))

    def test_zeta_order(self):
        F = R.cyclo_field(6)
        z = F.zeta_power(1)
        acc = F.one()
        for _ in range(6):
            acc = F.mul(acc, z)
        assert acc == F.one()
        assert F.zeta_power(3) != F.one()


# ---------------------------------------------------------------------------
# characters and Q[H]


class TestCharacters:
    def test_m3_example(self):
        G = R.GroupDescriptor(0, 3)
        Zh = R.GroupRing(0, 3)
        e = R.parse_element(Zh, "1 + s + s^2")
        c1, c3 = R.QHRing(G).from_zh(e)
        F1 = R.cyclo_field(1)
        comp1 = R.GroupRing(0, 1, F1)
        assert c1 == comp1.from_int(3)
        comp3 = R.GroupRing(0, 1, R.cyclo_field(3))
        assert comp3.is_zero(c3)

    def test_m2_example(self):
        G = R.GroupDescriptor(0, 2)
        Zh = R.GroupRing(0, 2)
        e = R.parse_element(Zh, "1 - s")
        qh = R.QHRing(G)
        comps = qh.from_zh(e)
        assert qh.components[0].is_zero(comps[0])
        assert comps[1] == qh.components[1].from_int(2)

    def test_m1_identity(self):
        G = R.GroupDescriptor(1, 1)
        Zh = R.GroupRing(1, 1)
        e = R.parse_element(Zh, "2 - t1")
        qh = R.QHRing(G)
        comps = qh.from_zh(e)
        assert len(comps) == 1
        comp = qh.components[0]
        want = comp.add(comp.from_int(2),
                        comp.neg(comp.monomial((1, 0))))
        assert comps[0] == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_dimension_count(self, m):
        # phi(d) summed over divisors of m recovers m, so the component
        # rings jointly have the size of Q[Z/m]
        total = sum(R.cyclo_field(d).degree for d in R.divisors(m))
        assert total == m

    @given(gr_elements(1, 4), gr_elements(1, 4))
    def test_character_map_is_ring_hom(self, a, b):
        G = R.GroupDescriptor(1, 4)
        Zh = R.GroupRing(1, 4)
        qh = R.QHRing(G)
        lhs = qh.from_zh(Zh.mul(a, b))
        rhs = qh.mul(qh.from_zh(a), qh.from_zh(b))
        assert lhs == rhs
        assert qh.from_zh(Zh.add(a, b)) == qh.add(qh.from_zh(a), qh.from_zh(b))

    @pytest.mark.parametrize("r, m", [(0, 5), (1, 6), (2, 4), (1, 1)])
    @given(data=st.data())
    def test_character_map_term_by_term(self, r, m, data):
        # the oracle: each term c*t^f*s^k sent to c*zeta_d^k in component d
        # and summed there with the component's own ring operations
        a = data.draw(gr_elements(r, m, max_terms=8))
        qh = R.QHRing(R.GroupDescriptor(r, m))
        for d, comp, got in zip(qh.divisors, qh.components, qh.from_zh(a)):
            F, want = comp.coeff, comp.zero()
            for g, c in a.items():
                want = comp.add(want, comp.monomial(
                    (*g[:-1], 0), F.mul(F.from_int(c), F.zeta_power(g[-1]))))
            assert got == want, d

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_joint_characters_injective(self, m):
        G = R.GroupDescriptor(1, m)
        Zh = R.GroupRing(1, m)
        qh = R.QHRing(G)
        # sample every monomial s^j and small combinations; injectivity of a
        # Q-linear map is detected on nonzero inputs
        elems = []
        for j in range(m):
            elems.append({(0, j): 1})
            elems.append({(1, j): 2, (0, 0): -1})
        for a in elems:
            assert not qh.is_zero(qh.from_zh(a))
        # pairwise distinct monomials stay distinct
        for i, a in enumerate(elems):
            for b in elems[i + 1:]:
                assert qh.from_zh(a) != qh.from_zh(b)


# ---------------------------------------------------------------------------
# canonical values: == is ring equality


def canonical(ring, x):
    """x is the one stored value of an element of ring, as the rings module
    docstring states it."""
    if isinstance(ring, R.IntegerRing):
        return type(x) is int
    if isinstance(ring, R.CycloField):
        return (type(x) is tuple and len(x) == ring.degree
                and all(type(c) in (int, Fraction) for c in x))
    if isinstance(ring, R.GroupRing):
        return type(x) is dict and all(
            type(g) is tuple and len(g) == ring.free_rank + 1
            and all(type(e) is int for e in g)
            and 0 <= g[-1] < ring.torsion_order
            and not ring.coeff.is_zero(c) and canonical(ring.coeff, c)
            for g, c in x.items())
    return (type(x) is tuple and len(x) == len(ring.components)
            and all(canonical(c, y) for c, y in zip(ring.components, x)))


def cyclo_elements(d):
    coeff = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3),
                                           st.integers(1, 3))
    return st.tuples(*[coeff] * R.cyclo_field(d).degree)


VALUE_GROUPS = [(r, m) for r in range(3) for m in (1, 2, 3, 6)]
VALUE_RINGS = {
    "Z": (R.ZZ, st.integers(-9, 9)),
    **{f"Z[r={r},m={m}]": (R.group_ring(r, m),
                           gr_elements(r, m, max_terms=3))
       for r, m in VALUE_GROUPS},
    **{f"Q(zeta_{d})": (R.cyclo_field(d), cyclo_elements(d))
       for d in range(1, 13)},
    **{f"Q[r={r},m={m}]": (qh, gr_elements(r, m, max_terms=3).map(qh.from_zh))
       for r, m in VALUE_GROUPS
       for qh in [R.qh_ring(R.GroupDescriptor(r, m))]},
}


class TestCanonicalValues:
    """Every ring stores each element as one canonical value, so == is ring
    equality: every operation returns a canonical value, and x == y exactly
    when x - y is zero."""

    @pytest.mark.parametrize("name", list(VALUE_RINGS))
    @given(data=st.data())
    def test_canonical_results_and_eq(self, name, data):
        ring, elems = VALUE_RINGS[name]
        a, b, c = (data.draw(elems) for _ in range(3))
        n = data.draw(st.integers(-3, 3))
        add, mul = ring.add, ring.mul
        results = [ring.zero(), ring.one(), ring.from_int(n), add(a, b),
                   ring.neg(a), mul(a, b)]
        if isinstance(ring, R.GroupRing):
            g = data.draw(st.tuples(*[st.integers(-2, 2)] * ring.free_rank,
                                    st.integers(-7, 7)))
            results += [ring.monomial(g), ring.monomial(g, ring.coeff.from_int(n))]
        parts = [(ring, a)]
        if isinstance(ring, R.QHRing):
            group = ring.group
            zh = data.draw(gr_elements(group.free_rank, group.torsion_order))
            results.append(ring.from_zh(zh))
            parts = list(zip(ring.components, a))
        for x in results:
            assert canonical(ring, x), x
        for comp, x in parts:
            if not comp.is_zero(x):
                u = comp.unit_inv(comp.unit_part(x))
                assert canonical(comp, u), (x, u)
        # pairs equal by algebra, then pairs as drawn
        equal = [(mul(a, b), mul(b, a)),
                 (add(add(a, b), c), add(a, add(b, c))),
                 (mul(a, add(b, c)), add(mul(a, b), mul(a, c)))]
        for x, y in equal + [(a, b), (b, c), (add(a, b), c)]:
            assert (x == y) == ring.is_zero(add(x, ring.neg(y))), (x, y)
        assert all(x == y for x, y in equal)


class TestAugmentation:
    def test_examples(self):
        Zh = R.GroupRing(1, 2)
        assert R.augmentation(R.parse_element(Zh, "1 + t1 - t1^2*s")) == 1
        assert R.augmentation(Zh.zero()) == 0
        assert R.augmentation(R.parse_element(Zh, "3*t1^5")) == 3

    @given(gr_elements(1, 3), gr_elements(1, 3))
    def test_multiplicative(self, a, b):
        Zh = R.GroupRing(1, 3)
        assert R.augmentation(Zh.mul(a, b)) == R.augmentation(a) * R.augmentation(b)
        assert R.augmentation(Zh.add(a, b)) == R.augmentation(a) + R.augmentation(b)


# ---------------------------------------------------------------------------
# parsing and printing


class TestGrammar:
    def test_element_string_round_trip(self):
        Zh = R.GroupRing(2, 3)
        s = "1 - t1 + t1^2*t2^-1*s"
        assert Zh.to_str(R.parse_element(Zh, s)) == s

    def test_parse_values(self):
        Zh = R.GroupRing(2, 3)
        e = R.parse_element(Zh, "1 - t1 + t1^2*t2^-1*s")
        assert e == {(0, 0, 0): 1, (1, 0, 0): -1, (2, -1, 1): 1}

    def test_parse_merges_and_cancels(self):
        Zt = R.GroupRing(1)
        assert R.parse_element(Zt, "t1 + t1") == {(1, 0): 2}
        assert Zt.is_zero(R.parse_element(Zt, "t1 - t1"))

    def test_negative_exponent(self):
        Zt = R.GroupRing(1)
        assert R.parse_element(Zt, "2*t1^-3") == {(-3, 0): 2}
        assert R.parse_element(Zt, "-t1^-1") == {(-1, 0): -1}

    def test_errors(self):
        Zt = R.GroupRing(1)
        for bad in ["", "1 +", "x", "t2", "s", "t1^", "**t1"]:
            with pytest.raises(ValueError):
                R.parse_element(Zt, bad)

    @pytest.mark.parametrize("bad", [
        "t1 + " + "x" * 10**6,
        "t1*" + "x" * 10**6,
        "t" + "1" * 10**6,
        "9" * 10**6 + "*t1",
    ], ids=["term", "factor", "index", "coefficient"])
    def test_refusal_of_long_input_is_short(self, bad):
        with pytest.raises(ValueError) as e:
            R.parse_element(R.GroupRing(1), bad)
        assert len(str(e.value)) < 200

    @pytest.mark.parametrize("text, message", [
        ("t" + "1" * 5000, "number too long in factor 't11111111111...1111111111111'"),
        ("t1^" + "1" * 5000, "number too long in factor 't1^111111111...1111111111111'"),
        ("s^-" + "1" * 5000, "number too long in factor 's^-111111111...1111111111111'"),
    ], ids=["index", "exponent", "torsion-exponent"])
    def test_number_past_int_limit_names_the_factor(self, text, message):
        """A number with more digits than int() converts is refused in one
        short line naming its factor, by both readers."""
        G = R.GroupDescriptor(1, 3)
        for read in (lambda t: R.parse_weight(G, t),
                     lambda t: R.parse_element(R.GroupRing(1, 3), "2 - " + t)):
            with pytest.raises(ValueError) as e:
                read(text)
            assert str(e.value) == message

    def test_coefficient_past_int_limit_names_the_term(self):
        with pytest.raises(ValueError) as e:
            R.parse_element(R.GroupRing(1), "t1 - " + "1" * 5000 + "*t1")
        assert str(e.value) == ("number too long in term "
                                "'-11111111111...1111111111*t1'")

    def test_weight_parse(self):
        G = R.GroupDescriptor(2, 3)
        assert R.parse_weight(G, "t1*t2^-2*s^2") == (1, -2, 2)
        assert R.parse_weight(G, "1") == G.identity()
        assert R.parse_weight(G, "t1 * s") == (1, 0, 1)
        # a weight is read as weight_str prints it: no sign, coefficient or
        # sum, even one that comes to a single monomial
        for bad in ["1 + t1", "2*t1", "+t1", "-t1", "1*t1", "01*t1",
                    "t1 + 0*t2", "t1 - t1 + t2", ""]:
            with pytest.raises(ValueError):
                R.parse_weight(G, bad)

    @given(st.data())
    def test_weight_round_trip(self, data):
        G = R.GroupDescriptor(data.draw(st.integers(0, 3)),
                              data.draw(st.integers(1, 6)))
        free = data.draw(st.lists(st.integers(-30, 30), min_size=G.free_rank,
                                  max_size=G.free_rank))
        w = G.make_weight(free, data.draw(st.integers(0, G.torsion_order - 1)))
        assert R.parse_weight(G, G.weight_str(w)) == w

    @given(gr_elements(2, 3))
    def test_round_trip_random(self, a):
        Zh = R.GroupRing(2, 3)
        assert R.parse_element(Zh, Zh.to_str(a)) == a or not a
        if not a:
            assert Zh.to_str(a) == "0"

    def test_zero_prints(self):
        assert R.GroupRing(1).to_str({}) == "0"

    def test_qh_printing(self):
        G = R.GroupDescriptor(0, 2)
        qh = R.QHRing(G)
        s = qh.to_str(qh.from_zh(R.parse_element(R.GroupRing(0, 2), "1 - s")))
        assert s == "[d=1] 0; [d=2] 2"


# ---------------------------------------------------------------------------
# Smith normal form


def snf_ok(entries):
    r = len(entries)
    c = len(entries[0]) if entries else 0
    diag, V = R.smith_normal_form(entries)
    U, D, oracle_V = full_scan_smith_normal_form(entries)
    assert (diag, V) == ([D[i][i] for i in range(min(r, c))], oracle_V)
    # U*M*V = D with the oracle's U, checked by direct multiplication
    UM = [[sum(U[i][k] * entries[k][j] for k in range(r)) for j in range(c)]
          for i in range(r)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(c)) for j in range(c)]
           for i in range(r)]
    assert UMV == D
    # diagonal with nonnegative entries
    for i in range(r):
        for j in range(c):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    # divisibility chain; zeros only at the tail
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # unimodularity
    assert abs(brute_det(R.ZZ, U)) == 1
    assert abs(brute_det(R.ZZ, V)) == 1
    return diag


class TestSmithNormalForm:
    def test_diag_example(self):
        assert R.snf_diagonal([[2, 0], [0, 3]]) == [1, 6]

    def test_identity(self):
        assert R.snf_diagonal([[1, 0], [0, 1]]) == [1, 1]

    def test_zero(self):
        assert R.snf_diagonal([[0]]) == [0]

    def test_rank_helpers(self):
        assert R.integer_rank([[2, 0], [0, 3]]) == 2
        assert R.integer_rank([[1, 2], [2, 4]]) == 1
        assert R.integer_kernel_is_zero([[1, 2], [2, 4]]) is False
        assert R.integer_kernel_is_zero([[1, 0], [0, 3], [1, 1]]) is True

    def test_known_torsion(self):
        # presentation of Z/2 + Z/6
        assert R.snf_diagonal([[2, 0], [0, 6]]) == [2, 6]
        assert R.snf_diagonal([[4, 2], [2, 4]]) == [2, 6]

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_snf_contract_random(self, entries):
        snf_ok(entries)

    def test_budget_stops_growing_entries(self, monkeypatch):
        # diag(2, 3) has entries of 2 bits; the divisibility fix-up makes
        # it diag(1, 6), so the second pivot search meets 3 bits
        monkeypatch.setattr(R, "MAX_SNF_BITS", 2)
        with pytest.raises(ValueError, match=r"^Smith normal form over the "
                           r"budget MAX_SNF_BITS = 2: an entry of 3 bits at "
                           r"pivot 2 of 2$"):
            R.smith_normal_form([[2, 0], [0, 3]])
        monkeypatch.setattr(R, "MAX_SNF_BITS", 3)
        assert R.snf_diagonal([[2, 0], [0, 3]]) == [1, 6]


# Bits past which the oracle gives up on a draw.  Its pivot rule lets the
# entries of some dense matrices grow without bound (about 1% of uniform
# draws of up to 7 x 7 with entries in -4..4 pass 256 bits, while finished
# runs stay under 250), and rings.smith_normal_form makes the same
# operations, so it stops at MAX_SNF_BITS on such a draw.
SNF_ORACLE_BITS = 1024


class EntryBlowup(Exception):
    pass


def full_scan_smith_normal_form(entries):
    """The slow oracle: every pivot search scans the whole remaining block,
    every row and column operation runs over the whole row or column, and
    the divisibility scan runs after every pivot.  Only the size guard at
    the top of the reduction loop is new."""
    A = [[int(x) for x in row] for row in entries]
    r = len(A)
    c = len(A[0]) if A else 0
    U = R._identity_entries(r)
    V = R._identity_entries(c)

    def row_op(i, j, q):  # row_i -= q*row_j
        for k in range(c):
            A[i][k] -= q * A[j][k]
        for k in range(r):
            U[i][k] -= q * U[j][k]

    def col_op(i, j, q):  # col_i -= q*col_j
        for k in range(r):
            A[k][i] -= q * A[k][j]
        for k in range(c):
            V[k][i] -= q * V[k][j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for k in range(r):
            A[k][i], A[k][j] = A[k][j], A[k][i]
        for k in range(c):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    t = 0
    while t < min(r, c):
        # find a nonzero pivot of least absolute value
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        again = True
        while again:
            again = False
            if max(abs(x) for M in (A, U, V) for row in M
                   for x in row).bit_length() > SNF_ORACLE_BITS:
                raise EntryBlowup
            for i in range(t + 1, r):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
                    if A[i][t]:
                        row_swap(t, i)
                        again = True
            for j in range(t + 1, c):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        col_swap(t, j)
                        again = True
        # enforce divisibility of the remaining block
        pivot = A[t][t]
        fixed = True
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % pivot:
                    row_op(t, i, -1)  # add row i to row t, then re-reduce
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if A[t][t] < 0:
            for k in range(c):
                A[t][k] = -A[t][k]
            for k in range(r):
                U[t][k] = -U[t][k]
        t += 1
    return U, A, V


def oracle_diagonal_and_v(entries):
    _, D, V = full_scan_smith_normal_form(entries)
    return [D[i][i] for i in range(min(len(D), len(V)))], V


@st.composite
def snf_matrices(draw):
    """0-7 x 0-7 integer matrices with entries in -4..4; half of them have
    no +-1 entry, so non-unit pivots and the divisibility fix-up run."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        elems = st.sampled_from([-4, -3, -2, 0, 2, 3, 4])
    else:
        elems = st.integers(-4, 4)
    return [[draw(elems) for _ in range(cols)] for _ in range(rows)]


class TestSmithNormalFormOracle:
    @given(snf_matrices())
    def test_matches_full_scan(self, entries):
        try:
            want = oracle_diagonal_and_v(entries)
        except EntryBlowup:
            reject()
        assert R.smith_normal_form(entries) == want

    @pytest.mark.parametrize("entries", [
        [[2, 0], [0, 3]],               # divisibility fix-up
        [[4, 6], [6, 9], [2, 3]],       # non-unit pivots only
        [[0, 3, -1], [-1, 2, 0]],       # ties of +-1: the first one wins
        [[2, 2, 4], [4, -2, 6]],
    ])
    def test_matches_full_scan_examples(self, entries):
        assert R.smith_normal_form(entries) == oracle_diagonal_and_v(entries)


# ---------------------------------------------------------------------------
# determinants


class TestDeterminants:
    def test_rank_one_laurent(self):
        Zt = R.GroupRing(1)
        t = Zt.monomial((1, 0))
        tinv = Zt.monomial((-1, 0))
        m = [[t, Zt.one()], [Zt.one(), tinv]]
        assert Zt.is_zero(R.det_exact(Zt, m))

    def test_two_by_two_int(self):
        assert R.det_exact(R.ZZ, [[1, 1], [-1, 1]]) == 2

    def test_empty(self):
        assert R.det_exact(R.ZZ, []) == 1
        Zt = R.GroupRing(1)
        assert R.det_exact(Zt, []) == Zt.one()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            R.det_exact(R.ZZ, [[1, 2]])

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_exact_vs_brute_int(self, entries):
        want = brute_det(R.ZZ, entries)
        assert R.det_exact(R.ZZ, entries) == want
        assert R.integer_det(dense_copy(entries)) == want

    @given(st.lists(st.lists(gr_elements(1, 1, max_exp=1, max_terms=2,
                                         max_coeff=3),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_exact_vs_brute_laurent(self, entries):
        Zt = R.GroupRing(1)
        assert R.det_exact(Zt, entries) == brute_det(Zt, entries)

    @given(st.lists(st.lists(gr_elements(0, 2, max_terms=2, max_coeff=3),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_exact_vs_brute_torsion(self, entries):
        # Z[Z/2] is not a domain; the state sum never divides
        Zs = R.GroupRing(0, 2)
        assert R.det_exact(Zs, entries) == brute_det(Zs, entries)

    @given(st.lists(st.lists(gr_elements(1, 3, max_exp=1, max_terms=2,
                                         max_coeff=3),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_exact_vs_brute_qh(self, entries):
        qh = R.QHRing(R.GroupDescriptor(1, 3))
        m = [[qh.from_zh(e) for e in row] for row in entries]
        assert R.det_exact(qh, m) == brute_det(qh, m)

    def test_four_by_four_vs_brute(self):
        entries = [[(i * 7 + j * 3) % 5 - 2 for j in range(4)] for i in range(4)]
        assert R.det_exact(R.ZZ, entries) == brute_det(R.ZZ, entries)

    def test_large_int_bareiss_path(self):
        n = 7
        entries = [[((i + 1) * (j + 2)) % 5 - 2 + (3 if i == j else 0)
                    for j in range(n)] for i in range(n)]
        want = brute_det(R.ZZ, entries)
        assert R.det_exact(R.ZZ, entries) == want
        assert R.integer_det(dense_copy(entries)) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_det_blocks_vs_state_sum(self, seed):
        # shuffled block-diagonal matrices of 16 rows and more: blocks of 1
        # to 4 rows with zeros (a zero leading pivot needs a swap), at
        # times a singular block, an empty row or an empty column; the one
        # elimination against the state sum, which splits them
        rng = random.Random(seed)
        sizes = []
        while sum(sizes) < 16 + seed:
            sizes.append(rng.randint(1, 4))
        n = sum(sizes)
        entries = [[0] * n for _ in range(n)]
        rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
        start = 0
        for k in sizes:
            for i in range(start, start + k):
                for j in range(start, start + k):
                    entries[rp[i]][cp[j]] = rng.choice((0, -2, -1, 1, 2))
            start += k
        if seed % 4 == 1:
            entries[rng.randrange(n)] = [0] * n
        if seed % 4 == 2:
            q = rng.randrange(n)
            for row in entries:
                row[q] = 0
        want = R.det_exact(R.ZZ, entries)
        assert not any(all(r) for r in entries)
        assert R.integer_det(dense_copy(entries)) == want

    @pytest.mark.parametrize("n", [2, 17, 40])
    def test_integer_det_banded(self, n):
        # one block that only a few rows touch at each step: the
        # elimination, which updates every later row, against the state
        # sum, which follows the band
        rng = random.Random(n)
        entries = [[rng.choice((-2, -1, 1, 2)) if abs(i - j) <= 1 else 0
                    for j in range(n)] for i in range(n)]
        entries[0][0] = 0  # the first step swaps rows
        want = R.det_exact(R.ZZ, entries)
        assert R.integer_det(dense_copy(entries)) == want

    def test_integer_det_swap_with_a_deferred_row(self):
        # row 3 has 0 in column 0, so step 0 only scales it; step 1 swaps
        # it in (column 1 is 0 in row 1) as the next pivot row
        entries = [[2, 0, -1, 0], [2, 0, 0, 2], [-1, 0, 0, 0], [0, 1, 1, 0]]
        assert R.integer_det(dense_copy(entries)) == 2
        assert brute_det(R.ZZ, entries) == 2

    def test_integer_det_keeps_zero_entries(self):
        # a cancelled crossing pair leaves an explicit 0 in the incidence
        assert R.integer_det([[0]]) == 0
        assert R.integer_det([[0, 1], [1, 0]]) == -1
        assert R.integer_det([]) == 1

    @pytest.mark.parametrize("entries, rank", [
        ([[1, 0, 2], [3, 0, 4], [5, 0, 7]], 2),        # a zero column
        ([[2, 0, 1], [1, 0, 3]], 2),
        ([[1, 2, 3], [2, 4, 7], [3, 6, 1]], 2),        # column 1 vanishes
        # column 1 vanishes after step 0, whose pivot 2 then divides
        ([[2, 4, 1, 3], [4, 8, 3, 1], [6, 12, 5, 8]], 3),
        ([[2, 4, 1, 3], [4, 8, 3, 1], [6, 12, 5, 8], [2, 4, 3, 0]], 3),
        ([[1, 2, 3, 4], [2, 4, 6, 8]], 1),             # wide
        ([[0, 0, 1], [0, 1, 0]], 2),
        ([[1, 2], [3, 4], [5, 6], [7, 8]], 2),          # tall
        ([[0], [0], [2]], 1),
        ([[0, 3, 1], [0, 6, 4], [0, 0, 0], [0, 9, 2]], 2),
        ([[], []], 0),                                  # no columns
        ([[0, 0], [0, 0]], 0),
        ([], 0),                                        # 0 x 0
    ])
    def test_one_elimination_shapes(self, entries, rank):
        # the rank counts the pivot columns, a column without a pivot is
        # skipped, and the rank leaves its input as it was
        kept = dense_copy(entries)
        assert R.integer_rank(entries) == rank
        assert entries == kept
        if all(len(r) == len(entries) for r in entries):
            want = R.det_exact(R.ZZ, entries)
            assert (want != 0) == (rank == len(entries))
            assert R.integer_det(dense_copy(entries)) == want

    @pytest.mark.parametrize("rows", [
        [[1, 5]],
        [[1, 0, 1], [0, 1, 1]],
        [[1, 2], [3, 4], [5, 6]],
        [[1, 0], [0]],              # ragged
        [[1], [0, 1]],              # ragged
    ])
    def test_integer_det_refuses_a_non_square(self, rows):
        with pytest.raises(ValueError, match="non-square"):
            R.integer_det(rows)

    def test_large_laurent_clearing_path(self):
        Zt = R.GroupRing(1)
        n = 7
        exps = [-3, 1, 0, 2, 0, -1, 1]
        entries = [[Zt.zero()] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = Zt.monomial((exps[i], 0))
            for j in range(i):
                entries[i][j] = R.parse_element(Zt, "1 - t1^-2")
        det = R.det_exact(Zt, entries)
        # triangular: product of the diagonal, total exponent 0
        assert det == Zt.one()

    def test_large_torsion_vs_brute(self):
        Zs = R.GroupRing(0, 2)
        rnd = random.Random(1)
        pool = ("1 + s", "s", "2 - s", "0", "1", "-1")
        entries = [[R.parse_element(Zs, rnd.choice(pool)) for _ in range(7)]
                   for _ in range(7)]
        det = R.det_exact(Zs, entries)
        assert det == brute_det(Zs, entries)
        assert not Zs.is_zero(det)

    def test_qh_componentwise(self):
        G = R.GroupDescriptor(0, 2)
        qh = R.QHRing(G)
        a = qh.from_zh(R.parse_element(R.GroupRing(0, 2), "1 + s"))
        m = [[a, qh.zero()], [qh.zero(), qh.one()]]
        d = R.det_exact(qh, m)
        assert d == a

    def test_rank_over_fractions(self):
        Zt = R.GroupRing(1)
        t = Zt.monomial((1, 0))
        tinv = Zt.monomial((-1, 0))
        assert R.rank_over_fractions(Zt, [[t, Zt.one()], [Zt.one(), tinv]]) == 1
        assert R.rank_over_fractions(R.ZZ, [[1, 1], [-1, 1]]) == 2
        assert R.rank_over_fractions(R.ZZ, [[0, 0], [0, 0]]) == 0
        assert R.rank_over_fractions(R.ZZ, []) == 0

    def test_rank_over_fractions_second_pivot(self):
        # row 3 = row 1 + t*row 2, so the rank is 2; the first step leaves
        # t * (0, 2 - t^2, 1 - 2t) in row 3, and only the second step, whose
        # pivot 2 - t^2 is not a unit, clears it
        Zt = R.GroupRing(1)
        rows = [["1", "t1", "2"], ["t1", "2", "1"],
                ["1 + t1^2", "3*t1", "2 + t1"]]
        entries = [[R.parse_element(Zt, e) for e in row] for row in rows]
        assert R.rank_over_fractions(Zt, entries) == 2

    @settings(deadline=None)
    @given(data=st.data())
    def test_rank_over_fractions_vs_smith(self, data):
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        ints = st.integers(-3, 3)

        def matrix(r, c):
            return data.draw(st.lists(st.lists(ints, min_size=c, max_size=c),
                                      min_size=r, max_size=r))

        if data.draw(st.booleans()):
            # rank at most k < min(rows, cols): a product through k columns
            k = data.draw(st.integers(0, min(rows, cols) - 1))
            B, C = matrix(rows, k), matrix(k, cols)
            entries = [[sum(B[i][t] * C[t][j] for t in range(k))
                        for j in range(cols)] for i in range(rows)]
            assert R.integer_rank(entries) <= k
        else:
            entries = matrix(rows, cols)
        assert R.rank_over_fractions(R.ZZ, entries) == R.integer_rank(entries)


# ---------------------------------------------------------------------------
# state sums


def unpruned_state_sums(ring, rows, required, signed=True):
    """The oracle: every choice of pairwise distinct columns, one per row,
    summed by its set of columns with the sign of the inversions of the
    column sequence; the sets covering required are kept, zero sums too."""
    out = {}
    for cols in product(*rows):
        if len(set(cols)) != len(cols):
            continue
        mask = sum(1 << q for q in cols)
        if mask & required != required:
            continue
        t = ring.one()
        for row, q in zip(rows, cols):
            t = ring.mul(t, row[q])
        if signed and sum(1 for i, q in enumerate(cols) for p in cols[i + 1:]
                          if q > p) & 1:
            t = ring.neg(t)
        out[mask] = ring.add(out.get(mask, ring.zero()), t)
    return out


_ZH = gr_elements(1, 3, max_exp=1, max_terms=2, max_coeff=3)
_QH = R.QHRing(R.GroupDescriptor(1, 3))
STATE_SUM_RINGS = {
    "Z": (R.ZZ, st.integers(-3, 3)),
    "Z[Z x Z/3]": (R.GroupRing(1, 3), _ZH),
    "Q[Z x Z/3]": (_QH, _ZH.map(_QH.from_zh)),
}
NO_ROW_COLUMN = 1 << 5  # the rows below use columns 0..4 only


RARELY = st.sampled_from([False] * 7 + [True])


class CountingZZ(R.IntegerRing):
    """Z that counts its multiplications."""

    muls = 0

    def mul(self, a, b):
        self.muls += 1
        return a * b


class TestStateSums:
    # blocks {0, 2, 4} (rows 0, 2, 4) and {1, 3, 5} (rows 1, 3, 5)
    INTERLEAVED = [{0: 2, 2: 3}, {1: 1, 3: -1}, {2: 5, 4: 1},
                   {3: 2, 5: 7}, {0: 1, 4: -3}, {1: 4, 5: 1}]

    @pytest.mark.parametrize("name", sorted(STATE_SUM_RINGS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_unpruned_oracle(self, name, data):
        # sparse rows close most columns early, and rows may be empty
        ring, elems = STATE_SUM_RINGS[name]
        rows = data.draw(st.lists(
            st.dictionaries(st.integers(0, 4), elems, max_size=3),
            max_size=5))
        required = data.draw(st.integers(0, 31))
        if data.draw(st.integers(0, 3)) == 0:
            required |= NO_ROW_COLUMN
        signed = data.draw(st.booleans())
        got = R.state_sums(ring, rows, required, signed)
        want = unpruned_state_sums(ring, rows, required, signed)
        assert got.keys() == want.keys()
        assert all(got[m] == want[m] for m in want)

    def test_early_closed_column(self):
        # column 0 is required and meets row 0 only, so row 0 must take it
        rows = [{0: 2, 1: 3}, {1: 5, 2: 7}, {2: 1, 3: 1}]
        assert R.state_sums(R.ZZ, rows, 0b0001) == {
            0b0111: 10, 0b1011: 10, 0b1101: 14}
        assert (R.state_sums(R.ZZ, rows, 0b0001)
                == unpruned_state_sums(R.ZZ, rows, 0b0001))

    def test_required_column_in_no_row(self):
        assert R.state_sums(R.ZZ, [{0: 1}, {1: 1}], 0b101) == {}

    def test_empty_row_ends_every_state(self):
        assert R.state_sums(R.ZZ, [{0: 1}, {}], 0) == {}
        assert R.state_sums(R.ZZ, [], 0) == {0: 1}
        # and among blocks
        rows = self.INTERLEAVED
        assert R.state_sums(R.ZZ, rows + [{}], 0) == {}
        assert R.state_sums(R.ZZ, rows[:3] + [{}] + rows[3:], 0b1) == {}

    @pytest.mark.parametrize("name", sorted(STATE_SUM_RINGS))
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_blocks_match_unpruned_oracle(self, name, data):
        # 2-3 blocks on interleaved columns, each with at most as many rows
        # as columns and row j meeting the block's column j, so that every
        # block has states; the rows shuffled, and at times an empty row.
        # Nonzero entries, so that a wrong sign shows.
        ring, elems = STATE_SUM_RINGS[name]
        elems = elems.filter(lambda e: not ring.is_zero(e))
        shape = data.draw(st.lists(
            st.integers(2, 4).flatmap(
                lambda c: st.tuples(st.just(c), st.integers(2, c))),
            min_size=2, max_size=3))
        assume(R.SPLIT_MIN_ROWS <= sum(r for _, r in shape) <= 8)
        order = data.draw(st.permutations(range(sum(c for c, _ in shape))))
        rows, start = [], 0
        for c, r in shape:
            own = order[start:start + c]
            for j in range(r):
                row = data.draw(st.dictionaries(st.sampled_from(own), elems,
                                                max_size=1))
                row[own[j]] = data.draw(elems)
                rows.append(row)
            start += c
        rows = data.draw(st.permutations(rows))
        if data.draw(RARELY):
            rows.insert(data.draw(st.integers(0, len(rows))), {})
        # a sparse required mask, so that most blocks can cover their share
        columns = st.integers(0, 2 ** start - 1)
        required = data.draw(columns) & data.draw(columns)
        if data.draw(RARELY):
            required |= 1 << start
        for signed in (True, False):
            got = R.state_sums(ring, rows, required, signed)
            want = unpruned_state_sums(ring, rows, required, signed)
            assert got.keys() == want.keys()
            assert all(got[m] == want[m] for m in want)

    def test_required_columns_in_one_block(self):
        rows = self.INTERLEAVED
        for required in (0b000101, 0b000110, 0b010100):
            for signed in (True, False):
                got = R.state_sums(R.ZZ, rows, required, signed)
                assert got == unpruned_state_sums(R.ZZ, rows, required,
                                                  signed)
                assert got and all(m & required == required for m in got)
        # column 6 meets no row, so it is in no block
        for signed in (True, False):
            assert R.state_sums(R.ZZ, rows, 1 << 6, signed) == {}
            assert unpruned_state_sums(R.ZZ, rows, 1 << 6, signed) == {}

    def test_block_short_of_its_required_columns(self):
        # the block on columns 1, 3, 5 has two rows for its three required
        # columns, while the six rows together could cover them
        rows = [{0: 1, 2: 1}, {1: 1, 3: 1}, {2: 1, 4: 1},
                {3: 1, 5: 1}, {4: 1, 6: 1}, {6: 1, 0: 1}]
        assert unpruned_state_sums(R.ZZ, rows, 0b101010) == {}
        assert R.state_sums(R.ZZ, rows, 0b101010) == {}
        assert R.state_sums(R.ZZ, rows, 0b001010) != {}

    def test_block_diagonal_work_is_the_blocks(self):
        # three dense 4 x 4 blocks behind shuffled rows and columns: the
        # determinant costs the blocks' own state sums and two products,
        # and running any two blocks as one costs more
        rng = random.Random(3)
        blocks = [[[rng.choice((-2, -1, 1, 2)) for _ in range(4)]
                   for _ in range(4)] for _ in range(3)]
        rp, cp = list(range(12)), list(range(12))
        rng.shuffle(rp)
        rng.shuffle(cp)
        entries = [[0] * 12 for _ in range(12)]
        for b, block in enumerate(blocks):
            for i, row in enumerate(block):
                for j, e in enumerate(row):
                    entries[rp[4 * b + i]][cp[4 * b + j]] = e
        alone = CountingZZ()
        want = 1
        for block in blocks:
            want *= R.det_exact(alone, block)
        for perm in (rp, cp):
            want *= (-1) ** sum(1 for i in range(12) for j in range(i)
                                if perm[j] > perm[i])
        ring = CountingZZ()
        assert R.det_exact(ring, entries) == want != 0
        assert ring.muls <= alone.muls + 2

    def test_budget_stops_a_row(self, monkeypatch):
        # six all-ones rows hold 6, then 15 states: the second row goes over
        # after the picks of its third state (5 + 4 + 3 new masks)
        monkeypatch.setattr(R, "MAX_STATES", 10)
        with pytest.raises(ValueError) as err:
            R.det_exact(R.ZZ, [[1] * 6 for _ in range(6)])
        assert str(err.value) == ("state sum over the budget MAX_STATES = "
                                  "10: 12 live states at row 2 of 6")
        monkeypatch.setattr(R, "MAX_STATES", 20)
        assert R.det_exact(R.ZZ, [[1] * 6 for _ in range(6)]) == 0

    def test_budget_stops_a_block_product(self, monkeypatch):
        # three blocks of two rows on three columns end with 3 states each;
        # their product has 27, more than 26 but within 27
        rows = [{3 * b + q: 1 for q in range(3)} for b in range(3)
                for _ in range(2)]
        monkeypatch.setattr(R, "MAX_STATES", 26)
        with pytest.raises(ValueError, match=r"^state sum over the budget "
                           r"MAX_STATES = 26: 27 live states at row 6 of 6$"):
            R.state_sums(R.ZZ, rows, 0)
        monkeypatch.setattr(R, "MAX_STATES", 27)
        assert len(R.state_sums(R.ZZ, rows, 0)) == 27

    def test_disjoint_identities_work_is_split(self):
        # two normalized identities side by side: one block per strand, and
        # the blocks' products, where one walk over all 24 rows takes 3534
        # multiplications
        ring = CountingZZ()
        half = normalize(identity_diagram(interval_arcs(4)))
        h = disjoint(half, half)
        sums = _state_sums(replace(incidence(h), ring=ring))
        assert len(sums) == 2 ** 8
        assert ring.muls <= 3 * 2 ** 8
        ok, _ = X.eq_up_to_global_unit(
            bsda_z(h), X.super_tensor(bsda_z(half), bsda_z(half)))
        assert ok


def bfs_blocks(rows):
    """The connected components of the row-column incidence by
    breadth-first search from each row not yet reached, in row order, as
    [column mask, row mask] pairs: the oracle for row_blocks."""
    meets: dict = {}
    for i, row in enumerate(rows):
        for q in row:
            meets.setdefault(q, []).append(i)
    reached, out = set(), []
    for start in range(len(rows)):
        if start in reached:
            continue
        reached.add(start)
        queue, cs, rs = deque([start]), 0, 0
        while queue:
            i = queue.popleft()
            rs |= 1 << i
            for q in rows[i]:
                cs |= 1 << q
                for k in meets[q]:
                    if k not in reached:
                        reached.add(k)
                        queue.append(k)
        out.append([cs, rs])
    return out


def bit_list(mask):
    """The positions of mask's bits, ascending."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def expected_blocks(rows):
    """row_blocks by its contract: None if a row is empty, otherwise the
    components."""
    return bfs_blocks(rows) if all(rows) else None


@st.composite
def incidences(draw):
    """Sparse rows over columns 0..9, at times with an empty row, and
    often with columns no row meets."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, 9), st.just(1),
                                         min_size=1, max_size=3),
                         max_size=10))
    if rows and draw(RARELY):
        rows[draw(st.integers(0, len(rows) - 1))] = {}
    return rows


class TestRowBlocks:
    @settings(max_examples=300)
    @given(incidences())
    def test_matches_breadth_first_search(self, rows):
        assert R.row_blocks(rows) == expected_blocks(rows)

    @given(incidences(), st.data())
    def test_shuffled_rows_and_columns(self, rows, data):
        # the blocks of a matrix with its rows and columns shuffled are its
        # blocks shuffled, listed by their new first rows
        assume(all(rows))
        rp = data.draw(st.permutations(range(len(rows))))
        cp = data.draw(st.permutations(range(10)))
        moved = [{cp[q]: c for q, c in rows[i].items()} for i in rp]
        got = R.row_blocks(moved)
        want = expected_blocks(rows)

        def back(block):
            cs, rs = block
            return (sum(1 << q for q in range(10) if cs >> cp[q] & 1),
                    sum(1 << rp[i] for i in bit_list(rs)))

        assert sorted(map(back, got)) == sorted(map(tuple, want))
        assert [rs & -rs for _, rs in got] == sorted(rs & -rs for _, rs in got)

    def test_examples(self):
        # two interleaved blocks, in the order of their first rows; a row
        # that meets every column joins them, and a row on a new column is
        # a block of its own
        rows = TestStateSums.INTERLEAVED
        assert R.row_blocks(rows) == [[0b010101, 0b010101],
                                      [0b101010, 0b101010]]
        full = [{q: 1 for q in range(6)}]
        assert R.row_blocks(full + rows[1:]) == [[0b111111, 0b111111]]
        assert R.row_blocks(full + rows[1:] + [{6: 1}]) == [
            [0b0111111, 0b0111111], [0b1000000, 0b1000000]]
        # an empty row anywhere gives None
        assert R.row_blocks(rows + [{}]) is None
        assert R.row_blocks([{}] + full) is None
        assert R.row_blocks([{0: 1, 1: 1}, {}]) is None
        assert R.row_blocks([]) == []


# ---------------------------------------------------------------------------
# unit comparisons


UNIT_RINGS = {
    "Z": R.ZZ,
    "Z[Z x Z/3]": R.GroupRing(1, 3),
    "Q[Z x Z/3]": R.QHRing(R.GroupDescriptor(1, 3)),
}


@st.composite
def ring_units(draw, name):
    ring = UNIT_RINGS[name]
    if name == "Z":
        return draw(st.sampled_from([1, -1]))
    if name == "Z[Z x Z/3]":
        e, j = draw(st.integers(-2, 2)), draw(st.integers(0, 2))
        return ring.monomial((e, j), draw(st.sampled_from([1, -1])))
    units = []
    for comp in ring.components:
        F = comp.coeff
        q = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                  Fraction(-1, 3)]))
        c = F.mul(F.from_fraction(q), F.zeta_power(draw(st.integers(0, 2))))
        units.append(comp.monomial((draw(st.integers(-2, 2)), 0), c))
    return tuple(units)


@st.composite
def unit_pairs(draw, name):
    """Pairs (u*b, b) for one unit u, or for u and then a second unit v,
    optionally with a zero put on one side of one pair and an all-zero
    first pair."""
    ring = UNIT_RINGS[name]
    if name == "Z":
        elems = st.integers(-4, 4)
    else:
        zh = gr_elements(1, 3, max_terms=3)
        elems = zh if name == "Z[Z x Z/3]" else zh.map(ring.from_zh)
    bs = draw(st.lists(elems, min_size=1, max_size=4))
    u = draw(ring_units(name))
    v = draw(ring_units(name)) if draw(st.booleans()) else u
    k = draw(st.integers(0, len(bs)))
    pairs = [(ring.mul(u if i < k else v, b), b) for i, b in enumerate(bs)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        a, b = pairs[i]
        pairs[i] = (ring.zero(), b) if draw(st.booleans()) else (a, ring.zero())
    if draw(st.booleans()):
        pairs.insert(0, (ring.zero(), ring.zero()))
    return pairs


CANONICAL_RINGS = {
    "Z": (R.ZZ, st.integers(-9, 9)),
    "Z[t]": (R.GroupRing(1), gr_elements(1, 1, max_terms=3)),
    "Z[Z/3]": (R.GroupRing(0, 3), gr_elements(0, 3, max_terms=3)),
    "Q(zeta3)[t]": (
        R.QHRing(R.GroupDescriptor(1, 3)).components[1],
        gr_elements(1, 3, max_terms=3).map(
            lambda a: R.QHRing(R.GroupDescriptor(1, 3)).from_zh(a)[1])),
}


class TestUnits:
    def test_int_example(self):
        ok, u = R.values_eq_up_to_unit(R.ZZ, [(5, -5)])
        assert ok and u == -1
        ok, _ = R.values_eq_up_to_unit(R.ZZ, [(5, 4)])
        assert not ok

    def test_laurent_example_true(self):
        Zt = R.GroupRing(1)
        a = R.parse_element(Zt, "2 - 3*t1")
        b = R.parse_element(Zt, "-2*t1^5 + 3*t1^6")
        ok, u = R.values_eq_up_to_unit(Zt, [(a, b)])
        assert ok
        assert u == R.parse_element(Zt, "-t1^-5")
        assert a == Zt.mul(u, b)

    def test_laurent_example_false(self):
        Zt = R.GroupRing(1)
        ok, u = R.values_eq_up_to_unit(Zt, [(R.parse_element(Zt, "1 + t1"),
                                             R.parse_element(Zt, "1 - t1"))])
        assert not ok and u is None

    def test_zero_matching(self):
        Zt = R.GroupRing(1)
        ok, u = R.values_eq_up_to_unit(Zt, [(Zt.zero(), Zt.zero())])
        assert ok and u == Zt.one()
        ok, _ = R.values_eq_up_to_unit(Zt, [(Zt.zero(), Zt.one())])
        assert not ok

    def test_common_unit_across_pairs(self):
        Zt = R.GroupRing(1)
        a = R.parse_element(Zt, "1 + t1")
        b = R.parse_element(Zt, "2 - t1^2")
        u = R.parse_element(Zt, "-t1^3")
        pairs = [(Zt.mul(u, a), a), (Zt.mul(u, b), b), (Zt.zero(), Zt.zero())]
        ok, got = R.values_eq_up_to_unit(Zt, pairs)
        assert ok and got == u

    def test_common_unit_fails_when_mixed(self):
        Zt = R.GroupRing(1)
        a = R.parse_element(Zt, "1 + t1")
        b = R.parse_element(Zt, "2 - t1^2")
        u = Zt.monomial((1, 0))
        v = Zt.neg(Zt.monomial((1, 0)))
        ok, _ = R.values_eq_up_to_unit(Zt, [(Zt.mul(u, a), a), (Zt.mul(v, b), b)])
        assert not ok

    def test_qh_units(self):
        G = R.GroupDescriptor(0, 2)
        Zh = R.GroupRing(0, 2)
        qh = R.QHRing(G)
        a = qh.from_zh(R.parse_element(Zh, "1 - s"))
        b = qh.from_zh(R.parse_element(Zh, "3 - 3*s"))
        ok, u = R.values_eq_up_to_unit(qh, [(a, b)])
        assert ok
        assert a == qh.mul(u, b)
        # d=1 components are both zero; the unit there is one
        assert u[0] == qh.components[0].one()

    @given(gr_elements(1, 1, max_terms=3),
           st.integers(-2, 2), st.booleans())
    def test_equivalence_relation(self, a, e, flip):
        Zt = R.GroupRing(1)
        ok, u = R.values_eq_up_to_unit(Zt, [(a, a)])
        assert ok and u == Zt.one()
        unit = Zt.monomial((e, 0))
        if flip:
            unit = Zt.neg(unit)
        b = Zt.mul(unit, a)
        ok1, u1 = R.values_eq_up_to_unit(Zt, [(a, b)])
        ok2, u2 = R.values_eq_up_to_unit(Zt, [(b, a)])
        assert ok1 and ok2
        assert a == Zt.mul(u1, b)
        assert b == Zt.mul(u2, a)
        c = Zt.mul(unit, b)
        ok3, u3 = R.values_eq_up_to_unit(Zt, [(a, c)])
        assert ok3 and a == Zt.mul(u3, c)

    @pytest.mark.parametrize("name", sorted(UNIT_RINGS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_normalize_every_pair(self, name, data):
        ring = UNIT_RINGS[name]
        pairs = data.draw(unit_pairs(name))
        ok, u = R.values_eq_up_to_unit(ring, pairs)
        want_ok, want_u = normalize_every_pair(ring, pairs)
        if ok:
            assert all(a == ring.mul(u, b) for a, b in pairs)
        if want_ok:
            assert ok and u == want_u
        if name != "Z[Z x Z/3]":
            # Z and the Q[H] components are domains without torsion
            # monomials, where the canonical form is a unit-orbit invariant
            assert ok == want_ok

    def test_torsion_ratio_check_finds_shifted_orbit(self):
        # s*(1 + 2s^2) = 2 + s, but the two canonical forms differ because
        # the torsion shift moves the least monomial; checking a = u*b
        # accepts what comparing canonical forms rejects
        Zh = UNIT_RINGS["Z[Z x Z/3]"]
        s1 = R.parse_element(Zh, "s")
        pairs = [(s1, Zh.one()),
                 (R.parse_element(Zh, "2 + s"), R.parse_element(Zh, "1 + 2*s^2"))]
        ok, u = R.values_eq_up_to_unit(Zh, pairs)
        assert ok and u == s1
        assert normalize_every_pair(Zh, pairs) == (False, None)

    @pytest.mark.parametrize("pairs", [
        [("2 + s", "1 + 2*s^2")],
        [("1 + s + s^2", "1 + s + s^2"), ("s", "1")],
    ])
    def test_torsion_shift_found(self, pairs):
        # the least monomial does not fix the torsion part of the unit: in
        # both cases u = s, which the lead-term ratio (u = 1) misses
        Zh = R.GroupRing(0, 3)
        pairs = [(R.parse_element(Zh, a), R.parse_element(Zh, b))
                 for a, b in pairs]
        ok, u = R.values_eq_up_to_unit(Zh, pairs)
        assert ok and u == R.parse_element(Zh, "s")

    @settings(deadline=None)
    @given(data=st.data())
    def test_torsion_answer_matches_trivial_unit_search(self, data):
        # over Z[Z x Z/3] the answer is True exactly when a trivial unit
        # +-t1^e*s^j works; the drawn units have |e| <= 2
        ring = UNIT_RINGS["Z[Z x Z/3]"]
        pairs = data.draw(unit_pairs("Z[Z x Z/3]"))
        ok, u = R.values_eq_up_to_unit(ring, pairs)
        units = [ring.monomial((e, j), c) for e in range(-2, 3)
                 for j in range(3) for c in (1, -1)]
        assert ok == any(all(a == ring.mul(w, b) for a, b in pairs)
                         for w in units)
        if ok:
            assert all(a == ring.mul(u, b) for a, b in pairs)

    def test_qh_component_zero_only_in_first_pair(self):
        qh = UNIT_RINGS["Q[Z x Z/3]"]
        Zh = R.GroupRing(1, 3)
        b0 = qh.from_zh(R.parse_element(Zh, "t1 - t1*s"))
        b1 = qh.from_zh(R.parse_element(Zh, "2 + s"))
        assert qh.components[0].is_zero(b0[0]) and not qh.is_zero(b0)
        u = qh.from_zh(R.parse_element(Zh, "-t1^2*s"))
        ok, got = R.values_eq_up_to_unit(qh, [(qh.mul(u, b0), b0),
                                              (qh.mul(u, b1), b1)])
        assert ok and got == u

    @settings(deadline=None)
    @given(data=st.data())
    def test_unit_part_gives_canonical_form(self, data):
        # c = unit_inv(u) * a with u = unit_part(a) is the canonical form:
        # u * c gives a back, and c's own unit part is one
        name = data.draw(st.sampled_from(sorted(CANONICAL_RINGS)))
        ring, elems = CANONICAL_RINGS[name]
        a = data.draw(elems.filter(lambda x: not ring.is_zero(x)))
        u = ring.unit_part(a)
        c = ring.mul(ring.unit_inv(u), a)
        assert ring.mul(u, c) == a
        assert ring.unit_part(c) == ring.one()


# ---------------------------------------------------------------------------
# matrices


class TestMatrix:
    def test_shape(self):
        m = R.Matrix(R.ZZ, [[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        with pytest.raises(ValueError):
            R.Matrix(R.ZZ, [[1, 2], [3]])


# ---------------------------------------------------------------------------
# one shared ring per group


class TestSharedRings:
    def test_equal_groups_share_one_ring(self):
        assert R.group_ring(2, 3) is R.group_ring(2, 3)
        G = R.GroupDescriptor(1, 6)
        assert R.qh_ring(G) is R.qh_ring(R.GroupDescriptor(1, 6))
        assert R.qh_ring(G).group == G
        assert R.group_ring(1, 2) is not R.group_ring(1, 3)
        assert R.group_ring(1, 2) is not R.group_ring(2, 2)
        assert R.qh_ring(G) is not R.qh_ring(R.GroupDescriptor(2, 6))

    @pytest.mark.parametrize("free_rank,order", [(-1, 1), (0, 0),
                                                 (R.MAX_FREE_RANK + 1, 1)])
    def test_bad_group_raises_and_is_not_kept(self, free_rank, order):
        before = (R.group_ring.cache_info().currsize,
                  R.qh_ring.cache_info().currsize)
        for _ in range(2):
            with pytest.raises(ValueError):
                R.group_ring(free_rank, order)
        assert (R.group_ring.cache_info().currsize,
                R.qh_ring.cache_info().currsize) == before

    def test_memo_is_bounded(self):
        groups = [(r, m) for r in range(4) for m in range(1, 51)]
        assert len(groups) == 200
        for r, m in groups:
            R.group_ring(r, m)
            R.qh_ring(R.GroupDescriptor(r, m))
        for memo in (R.group_ring, R.qh_ring):
            info = memo.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize < 200
        # an evicted group is built again, equal to the first one
        assert R.group_ring(0, 1).group == R.GroupDescriptor(0, 1)
