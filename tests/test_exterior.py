from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bsfloer import exterior as X
from bsfloer import rings as R

Zt = R.GroupRing(1)
Zh2 = R.GroupRing(1, 2)


def basis(ring, n, I, c=1):
    return X.ext_basis(ring, n, I, ring.from_int(c))


def ext_elements(ring, n, max_terms=3):
    keys = st.sampled_from(list(X.subsets(n)))
    coeff = st.integers(-3, 3).filter(lambda v: v != 0).map(ring.from_int)
    return st.dictionaries(keys, coeff, max_size=max_terms).map(
        lambda t: X.ExtElement(ring, n, t))


def graded_maps(ring, n0, n1, degree, max_entries=3):
    keys = [(I, J) for I in X.subsets(n0) for J in X.subsets(n1)
            if len(J) - len(I) == degree]
    coeff = st.integers(-3, 3).map(ring.from_int)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=max_entries).map(
        lambda e: X.GradedMap(ring, n0, n1, degree, e))


# ---------------------------------------------------------------------------
# helpers


class TestCombinatorics:
    def test_subset_key(self):
        assert X.subset_key([3, 1, 2]) == (1, 2, 3)
        assert X.subset_key(()) == ()

    def test_subset_key_canonicalizes_every_input(self):
        assert X.subset_key([2, 2, 1]) == (1, 2)
        assert X.subset_key((3, 1, 3)) == (1, 3)
        assert X.subset_key((1, 3)) == (1, 3)
        assert X.subset_key(iter([4, 2])) == (2, 4)
        key = X.subset_key((True, 2))
        assert key == (1, 2) and all(type(i) is int for i in key)

    def test_subset_key_memo_is_not_aliased(self):
        # a list is read, never cached; equal tuples give equal keys
        indices = [3, 1]
        key = X.subset_key(indices)
        indices.append(0)
        assert key == (1, 3)
        assert X.subset_key(tuple(indices)) == (0, 1, 3)
        assert X.subset_key((3, 1)) == (1, 3)
        assert key == (1, 3)

    def test_cross_inversions(self):
        assert X.cross_inversions((1, 3), (2,)) == 1
        assert X.cross_inversions((2,), (1,)) == 1
        assert X.cross_inversions((1, 2), (3, 4)) == 0
        assert X.cross_inversions((3, 4), (1, 2)) == 4

    def test_perm_inversions(self):
        assert X.perm_inversions((1, 2, 3)) == 0
        assert X.perm_inversions((2, 1)) == 1
        assert X.perm_inversions((3, 1, 2)) == 2

    def test_subsets_order(self):
        assert list(X.subsets(2)) == [(), (1,), (2,), (1, 2)]

    def test_subset_str(self):
        assert X.subset_str((1, 3)) == "{1,3}"
        assert X.subset_str(()) == "{}"


# ---------------------------------------------------------------------------
# elements and wedge


class TestWedge:
    def test_transposition(self):
        w = X.wedge(basis(R.ZZ, 2, (2,)), basis(R.ZZ, 2, (1,)))
        assert w.terms == {(1, 2): -1}

    def test_repeat_kills(self):
        w = X.wedge(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 2, (1,)))
        assert w.is_zero()

    def test_crossing_count(self):
        w = X.wedge(basis(R.ZZ, 3, (1, 3)), basis(R.ZZ, 3, (2,)))
        assert w.terms == {(1, 2, 3): -1}

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            X.wedge(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 3, (1,)))

    @given(ext_elements(R.ZZ, 4), ext_elements(R.ZZ, 4), ext_elements(R.ZZ, 4))
    def test_associative(self, x, y, z):
        lhs = X.wedge(X.wedge(x, y), z)
        rhs = X.wedge(x, X.wedge(y, z))
        assert X.ext_eq(lhs, rhs)

    @given(st.sampled_from(list(X.subsets(4))), st.sampled_from(list(X.subsets(4))))
    def test_super_commutative(self, I, J):
        x, y = basis(R.ZZ, 4, I), basis(R.ZZ, 4, J)
        lhs = X.wedge(x, y)
        rhs = X.wedge(y, x)
        if (len(I) * len(J)) % 2:
            rhs = X.ext_neg(rhs)
        assert X.ext_eq(lhs, rhs)

    @given(ext_elements(Zt, 3), ext_elements(Zt, 3))
    def test_super_commutative_laurent_homogeneous(self, x, y):
        # restrict to the homogeneous pieces of each degree
        for p in range(4):
            for q in range(4):
                xp = X.ExtElement(Zt, 3, {S: c for S, c in x.terms.items()
                                          if len(S) == p})
                yq = X.ExtElement(Zt, 3, {S: c for S, c in y.terms.items()
                                          if len(S) == q})
                lhs = X.wedge(xp, yq)
                rhs = X.wedge(yq, xp)
                if (p * q) % 2:
                    rhs = X.ext_neg(rhs)
                assert X.ext_eq(lhs, rhs)

    def test_wedge_list(self):
        vs = [basis(R.ZZ, 3, (2,)), basis(R.ZZ, 3, (1,)), basis(R.ZZ, 3, (3,))]
        assert X.wedge_list(R.ZZ, 3, vs).terms == {(1, 2, 3): -1}
        assert X.wedge_list(R.ZZ, 3, []).terms == {(): 1}

    def test_element_cleanup(self):
        e = X.ExtElement(R.ZZ, 3, {(2, 1): 1, (1, 2): 1, (3,): 0})
        assert e.terms == {(1, 2): 2}
        with pytest.raises(ValueError):
            X.ExtElement(R.ZZ, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            X.ExtElement(R.ZZ, 2, {(3,): 1})

    def test_homogeneous_degree(self):
        assert basis(R.ZZ, 3, (1, 2)).homogeneous_degree() == 2
        mixed = X.ext_add(basis(R.ZZ, 3, (1,)), basis(R.ZZ, 3, (1, 2)))
        assert mixed.homogeneous_degree() is None
        assert X.ext_zero(R.ZZ, 3).homogeneous_degree() is None


class TestEpsilon:
    def test_examples(self):
        assert X.epsilon(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 2, (2,))) == 1
        assert X.epsilon(basis(R.ZZ, 2, (2,)), basis(R.ZZ, 2, (1,))) == -1
        assert X.epsilon(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 2, (1,))) == 0

    @pytest.mark.parametrize("n0", range(5))
    def test_top_coefficient_exhaustive(self, n0):
        top = tuple(range(1, n0 + 1))
        for I in X.subsets(n0):
            for J in X.subsets(n0):
                x, y = basis(R.ZZ, n0, I), basis(R.ZZ, n0, J)
                got = X.epsilon(x, y)
                want = X.wedge(x, y).terms.get(top, 0)
                assert got == want
                # complementary pairs give the shuffle sign, others zero
                if set(I) | set(J) == set(top) and not set(I) & set(J):
                    assert got == (-1) ** X.cross_inversions(I, J)
                else:
                    assert got == 0


# ---------------------------------------------------------------------------
# graded maps


class TestGradedMap:
    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            X.GradedMap(R.ZZ, 2, 2, 0, {((1,), (1, 2)): 1})
        X.GradedMap(R.ZZ, 2, 2, 1, {((1,), (1, 2)): 1})

    def test_zero_dropped(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 0, ((1,), (1,)): 2})
        assert f.entries == {((1,), (1,)): 2}
        assert not f.is_zero()
        assert X.zero_map(R.ZZ, 1, 1, 0).is_zero()

    def test_identity_compose(self):
        f = X.GradedMap(R.ZZ, 1, 2, 1, {((), (1,)): 2, ((1,), (1, 2)): -3})
        assert X.map_eq(X.compose(X.identity_map(R.ZZ, 2), f), f)
        assert X.map_eq(X.compose(f, X.identity_map(R.ZZ, 1)), f)

    def test_explicit_dot_product(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 2, ((1,), (1,)): 3})
        g = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 5, ((1,), (1,)): 7})
        h = X.compose(g, f)
        assert h.entries == {((), ()): 10, ((1,), (1,)): 21}

    def test_degrees_add(self):
        f = X.GradedMap(R.ZZ, 1, 2, 1, {((), (1,)): 1})
        g = X.GradedMap(R.ZZ, 2, 2, 1, {((1,), (1, 2)): 1})
        assert X.compose(g, f).degree == 2

    def test_apply(self):
        f = X.GradedMap(R.ZZ, 1, 2, 1, {((), (1,)): 2, ((1,), (1, 2)): -3})
        x = X.ext_add(basis(R.ZZ, 1, ()), basis(R.ZZ, 1, (1,)))
        y = X.apply_map(f, x)
        assert y.terms == {(1,): 2, (1, 2): -3}

    def test_entry_access(self):
        f = X.GradedMap(R.ZZ, 2, 2, 0, {((1,), (2,)): 5})
        assert f.entry((1,), (2,)) == 5
        assert f.entry((2,), (1,)) == 0

    def test_rank_mismatch(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {})
        g = X.GradedMap(R.ZZ, 2, 2, 0, {})
        with pytest.raises(ValueError):
            X.compose(f, g)


def super_tensor_oracle(f, g):
    """The per-pair loop: every pair of entries shifts g's subsets and
    takes its sign (-1)^{deg(f)|I2|} on its own."""
    ring = f.ring
    out = {}
    for (I, J), a in f.entries.items():
        for (I2, J2), b in g.entries.items():
            c = ring.mul(a, b)
            if f.degree * len(I2) % 2:
                c = ring.neg(c)
            out[(I + tuple(i + f.source_rank for i in I2),
                 J + tuple(j + f.target_rank for j in J2))] = c
    return X.GradedMap(ring, f.source_rank + g.source_rank,
                       f.target_rank + g.target_rank, f.degree + g.degree, out)


class TestSuperTensor:
    @given(st.sampled_from([R.ZZ, Zt]).flatmap(lambda ring: st.tuples(
        graded_maps(ring, 2, 3, 1, max_entries=6),
        graded_maps(ring, 2, 1, -1, max_entries=6))))
    def test_matches_per_pair_oracle(self, maps):
        # odd deg f, and every entry of g has a nonempty input subset I2
        f, g = maps
        assert X.map_eq(X.super_tensor(f, g), super_tensor_oracle(f, g))
        assert X.map_eq(X.super_tensor(g, f), super_tensor_oracle(g, f))

    def test_even_degree_plain(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((1,), (1,)): 2})
        g = X.GradedMap(R.ZZ, 1, 1, 0, {((1,), (1,)): 3})
        t = X.super_tensor(f, g)
        assert t.entries == {((1, 2), (1, 2)): 6}

    def test_odd_degree_sign(self):
        f = X.GradedMap(R.ZZ, 1, 1, 1, {((), (1,)): 1})
        g = X.GradedMap(R.ZZ, 1, 1, 0, {((1,), (1,)): 1})
        t = X.super_tensor(f, g)
        # g consumes a 1-element subset, deg f = 1: one sign
        assert t.entries == {((2,), (1, 2)): -1}

    def test_tensor_with_identity_sign(self):
        c = 1
        f = X.GradedMap(R.ZZ, 1, 2, c, {((), (1,)): 1, ((1,), (1, 2)): 1})
        t = X.super_tensor(f, X.identity_map(R.ZZ, 1))
        for (I, J), v in t.entries.items():
            i2 = len([i for i in I if i > 1])
            base = f.entry(tuple(i for i in I if i <= 1),
                           tuple(j for j in J if j <= 2))
            assert v == ((-1) ** (c * i2)) * base

    @given(graded_maps(R.ZZ, 1, 1, 1), graded_maps(R.ZZ, 1, 1, 0),
           graded_maps(R.ZZ, 1, 1, 1), graded_maps(R.ZZ, 1, 1, 0))
    def test_interchange_sign(self, fp, f, gp, g):
        # maps compose 1 -> 1 -> 1; deg f' = 1, deg g = 0 here
        lhs = X.super_tensor(X.compose(fp, f), X.compose(gp, g))
        rhs = X.compose(X.super_tensor(fp, gp), X.super_tensor(f, g))
        sign = fp.degree * g.degree
        assert X.map_eq(lhs, rhs if sign % 2 == 0 else X.map_neg(rhs))

    @given(graded_maps(R.ZZ, 1, 2, 1), graded_maps(R.ZZ, 2, 1, -1),
           graded_maps(R.ZZ, 1, 2, 1), graded_maps(R.ZZ, 2, 1, -1))
    def test_interchange_sign_odd_odd(self, fp, f, gp, g):
        # deg f' = 1 and deg g = -1: the interchange sign is -1
        lhs = X.super_tensor(X.compose(fp, f), X.compose(gp, g))
        rhs = X.compose(X.super_tensor(fp, gp), X.super_tensor(f, g))
        assert X.map_eq(lhs, X.map_neg(rhs))

    @given(st.sampled_from(list(X.subsets(2))), st.sampled_from(list(X.subsets(2))))
    def test_defining_property(self, I, J):
        f = X.GradedMap(R.ZZ, 2, 2, 1,
                        {(K, L): 1 for K in X.subsets(2) for L in X.subsets(2)
                         if len(L) == len(K) + 1})
        g = X.identity_map(R.ZZ, 2)
        x, y = basis(R.ZZ, 2, I), basis(R.ZZ, 2, J)
        lhs = X.apply_map(X.super_tensor(f, g), X.monoidal_phi(x, y))
        rhs = X.monoidal_phi(X.apply_map(f, x), X.apply_map(g, y))
        if (f.degree * len(J)) % 2:
            rhs = X.ext_neg(rhs)
        assert X.ext_eq(lhs, rhs)


class TestMonoidalPhi:
    def test_d0(self):
        x = basis(R.ZZ, 1, (1,))
        y = basis(R.ZZ, 1, (1,))
        assert X.monoidal_phi(x, y, 0).terms == {(1, 2): 1}

    def test_d1_sign(self):
        x = basis(R.ZZ, 1, (1,))
        y = basis(R.ZZ, 1, (1,))
        assert X.monoidal_phi(x, y, 1).terms == {(1, 2): -1}

    def test_empty_right_factor(self):
        x = basis(R.ZZ, 2, (1, 2))
        y = basis(R.ZZ, 1, ())
        assert X.monoidal_phi(x, y, 5).terms == {(1, 2): 1}


class TestBraiding:
    @pytest.mark.parametrize("n,n2", [(0, 0), (1, 1), (1, 2), (2, 2)])
    def test_squares_to_identity(self, n, n2):
        b = X.braiding(R.ZZ, n, n2)
        b2 = X.braiding(R.ZZ, n2, n)
        assert X.map_eq(X.compose(b2, b), X.identity_map(R.ZZ, n + n2))

    def test_sign_pattern(self):
        b = X.braiding(R.ZZ, 1, 1)
        assert b.entry((), ()) == 1
        assert b.entry((1,), (2,)) == 1     # v in first slot moves to second
        assert b.entry((2,), (1,)) == 1
        assert b.entry((1, 2), (1, 2)) == -1


class TestGlobalUnit:
    def test_sign_flip(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 1, ((1,), (1,)): 2})
        ok, u = X.eq_up_to_global_unit(f, X.map_neg(f))
        assert ok and u == -1

    def test_monomial_unit(self):
        f = X.GradedMap(Zt, 1, 1, 0,
                        {((), ()): Zt.one(), ((1,), (1,)): Zt.from_int(2)})
        t = Zt.monomial((1, 0))
        ok, u = X.eq_up_to_global_unit(f, X.map_scale(t, f))
        assert ok and Zt.eq(u, Zt.monomial((-1, 0)))

    def test_mixed_signs_fail(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 1, ((1,), (1,)): 1})
        g = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 1, ((1,), (1,)): -1})
        ok, u = X.eq_up_to_global_unit(f, g)
        assert not ok and u is None

    def test_zero_maps_equal(self):
        ok, _ = X.eq_up_to_global_unit(X.zero_map(R.ZZ, 1, 1, 0),
                                       X.zero_map(R.ZZ, 1, 1, 1))
        assert ok

    def test_support_mismatch(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 1})
        g = X.GradedMap(R.ZZ, 1, 1, 0, {((1,), (1,)): 1})
        ok, _ = X.eq_up_to_global_unit(f, g)
        assert not ok

    def test_degree_mismatch(self):
        # map_eq refuses to compare nonzero maps of different degrees;
        # the up-to-unit comparison answers no instead
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((), ()): 1})
        g = X.GradedMap(R.ZZ, 1, 1, 1, {((), (1,)): 1})
        with pytest.raises(ValueError):
            X.map_eq(f, g)
        assert X.eq_up_to_global_unit(f, g) == (False, None)
        assert X.map_eq(X.zero_map(R.ZZ, 1, 1, 0), X.zero_map(R.ZZ, 1, 1, 1))
        with pytest.raises(ValueError):
            X.eq_up_to_global_unit(f, X.GradedMap(R.ZZ, 2, 2, 0, {}))


class TestRendering:
    def test_line_format(self):
        with pytest.raises(ValueError):
            X.GradedMap(R.ZZ, 3, 3, 0, {((2,), (1, 3)): -3, ((), (1,)): 1})
        # (cardinality, lex) on the input subset orders the lines
        f = X.GradedMap(R.ZZ, 3, 3, 1, {((2,), (1, 3)): -3, ((), (1,)): 1})
        assert X.map_lines(f) == [
            "out{1} <- in{}: 1",
            "out{1,3} <- in{2}: -3",
        ]
        assert X.map_str(X.zero_map(R.ZZ, 1, 1, 0)) == "0"

    def test_ext_str(self):
        e = X.ExtElement(Zt, 2, {(1,): Zt.from_int(2),
                                 (2,): R.parse_element(Zt, "-t1")})
        assert X.ext_str(e) == "2*g{1} - t1*g{2}"
        assert X.ext_str(X.ext_zero(Zt, 2)) == "0"
        two_term = X.ExtElement(Zt, 1, {(1,): R.parse_element(Zt, "1 - t1")})
        assert X.ext_str(two_term) == "(1 - t1)*g{1}"


# ---------------------------------------------------------------------------
# pairing helper


class TestComposeEpsTensor:
    def test_minus_identity_from_two_terms(self):
        w = X.ExtElement(R.ZZ, 2, {(1,): -1, (2,): 1})
        f = X.compose_eps_tensor(w, 1, 1)
        assert f.degree == 0
        assert f.entries == {((), ()): -1, ((1,), (1,)): -1}

    def test_degree_inference(self):
        w = basis(R.ZZ, 3, (1, 2))   # n0 = 2, n1 = 1, |S| = 2
        f = X.compose_eps_tensor(w, 2, 1)
        assert f.degree == 0
        z = X.compose_eps_tensor(X.ext_zero(R.ZZ, 3), 2, 1, degree=-1)
        assert z.is_zero() and z.degree == -1

    @given(st.sampled_from(list(X.subsets(2))), st.sampled_from(list(X.subsets(2))))
    def test_against_epsilon(self, A, B):
        n0 = n1 = 2
        S = A + tuple(b + n0 for b in B)
        f = X.compose_eps_tensor(basis(R.ZZ, n0 + n1, S), n0, n1)
        for I in X.subsets(n0):
            got = X.apply_map(f, basis(R.ZZ, n0, I))
            pair = X.epsilon(basis(R.ZZ, n0, I), basis(R.ZZ, n0, A))
            coeff = ((-1) ** (n0 * len(B))) * pair
            want = X.ext_scale(R.ZZ.from_int(coeff), basis(R.ZZ, n1, B))
            assert X.ext_eq(got, want)

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            X.compose_eps_tensor(basis(R.ZZ, 2, (1,)), 2, 1)
