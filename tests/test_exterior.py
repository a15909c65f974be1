from __future__ import annotations

import random
from functools import reduce
from math import prod

import pytest
from hypothesis import given, strategies as st

from bsfloer import exterior as X
from bsfloer import rings as R
from bsfloer.diagram import GroupDescriptor

Zt = R.GroupRing(1)
Zh2 = R.GroupRing(1, 2)
Zh3 = R.GroupRing(1, 3)
Zh4 = R.GroupRing(1, 4)
Qh3 = R.QHRing(GroupDescriptor(1, 3))
NORM3 = R.parse_element(Zh3, "1 + s + s^2")     # annihilates 1 - s
ONE_MINUS_S = R.parse_element(Zh3, "1 - s")


def basis(ring, n, I, c=1):
    return X.ext_basis(ring, n, I, ring.from_int(c))


def ext_elements(ring, n, max_terms=3):
    keys = st.sampled_from(list(X.subsets(n)))
    coeff = st.integers(-3, 3).filter(lambda v: v != 0).map(ring.from_int)
    return st.dictionaries(keys, coeff, max_size=max_terms).map(
        lambda t: X.ExtElement(ring, n, t))


def graded_maps(ring, n0, n1, degree, max_entries=3, coeff=None):
    keys = [(I, J) for I in X.subsets(n0) for J in X.subsets(n1)
            if len(J) - len(I) == degree]
    if coeff is None:
        coeff = st.integers(-3, 3).map(ring.from_int)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=max_entries).map(
        lambda e: X.GradedMap(ring, n0, n1, degree, e))


def laurent_elements(ring, factors=()):
    """Sums of one to three terms c*t^f*s^k (f in -1..1), times one of
    factors or one; factors bring in zero divisors over Z[Z x Z/m]."""
    m = ring.torsion_order
    term = st.tuples(st.integers(-1, 1), st.integers(0, m - 1),
                     st.sampled_from((-2, -1, 1, 2)))

    def build(args):
        terms, factor = args
        x = ring.zero()
        for f, k, c in terms:
            x = ring.add(x, ring.monomial((f, k), c))
        return ring.mul(x, factor)

    return st.tuples(st.lists(term, min_size=1, max_size=3),
                     st.sampled_from((ring.one(), *factors))).map(build)


ZERO_DIVISOR_ELEMENTS = laurent_elements(Zh3, (NORM3, ONE_MINUS_S))


def trivial_units(ring, scalars=(1, -1)):
    m = ring.torsion_order
    return st.tuples(st.integers(-2, 2), st.integers(0, m - 1),
                     st.sampled_from(scalars)).map(
        lambda a: ring.monomial((a[0], a[1]), a[2]))


# ---------------------------------------------------------------------------
# helpers


class TestCombinatorics:
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

    @staticmethod
    def plucker(n, rows):
        """r1 ^ ... ^ rk as homology.k_element builds it: one state sum over
        the sparse rows {coordinate - 1: value}, each final mask keyed by
        _arcs."""
        return X.ExtElement(R.ZZ, n, {
            X._arcs(n, m)[0]: c
            for m, c in R.state_sums(R.ZZ, rows, 0).items()})

    def test_plucker_state_sum_is_the_wedge(self):
        assert self.plucker(3, [{1: 1}, {0: 1}, {2: 1}]).terms == {
            (1, 2, 3): -1}
        assert self.plucker(3, []).terms == {(): 1}
        rng = random.Random(32)
        seen = {"k = 0": 0, "zero vector": 0, "equal vectors": 0,
                "blocks": 0}
        for draw in range(1200):
            n = rng.randint(0, 8)
            k = min(n, rng.randint(0, 8))
            vectors = [[rng.choice((0, 0, 0, -2, -1, 1, 2, 3))
                        for _ in range(n)] for _ in range(k)]
            if draw % 4 == 3:   # one or two entries a row: the engine's blocks
                for v in vectors:
                    v[:] = [0] * n
                    for i in rng.sample(range(n), min(n, rng.randint(1, 2))):
                        v[i] = rng.choice((-2, -1, 1, 2, 3))
            if k and draw % 4 == 1:
                vectors[rng.randrange(k)] = [0] * n
            if k >= 2 and draw % 4 == 2:
                i, j = rng.sample(range(k), 2)
                vectors[j] = list(vectors[i])
            rows = [{i: x for i, x in enumerate(v) if x} for v in vectors]
            seen["k = 0"] += k == 0
            seen["zero vector"] += {} in rows
            seen["equal vectors"] += len(set(map(tuple, vectors))) < k
            seen["blocks"] += (k >= R.SPLIT_MIN_ROWS
                               and len(R.row_blocks(rows) or ()) > 1)
            fold = reduce(X.wedge, (
                X.ExtElement(R.ZZ, n, {(i + 1,): x for i, x in row.items()})
                for row in rows), X.ext_basis(R.ZZ, n, ()))
            assert self.plucker(n, rows).terms == fold.terms, (n, vectors)
        assert min(seen.values()) >= 20, seen
        # a full-rank basis as k_element wedges it: the rows of one Bareiss
        # echelon, each from its pivot column on, bottom row first, so
        # row j of the state sum reaches at most C(n - k + j, j) masks; row
        # i was scaled by pivot i - 1, and the reversed row order signs the
        # minors by (-1)^(k // 2), so last / ((-1)^(k // 2) * the product of
        # the pivots) rescales them to the basis's own
        seen = {"swap": 0, "skip": 0, "k = 0": 0}
        bases = 0
        while bases < 3000:
            n = rng.randint(1, 8)
            k = min(n, rng.randint(0, 5))
            vectors = [[rng.choice((0, 0, -2, -1, 1, 2, 3)) for _ in range(n)]
                       for _ in range(k)]
            if k and rng.random() < 0.3:   # a zero column to skip
                q = rng.randrange(n)
                for v in vectors:
                    v[q] = 0
            echelon = [list(v) for v in vectors]
            order = list(echelon)
            pivots, last = R._bareiss(echelon)
            if len(pivots) < k:
                continue
            bases += 1
            rows = [{q: e[q] for q in range(p, n) if e[q]}
                    for e, p in zip(echelon[::-1], pivots[::-1])]
            scale = (-1) ** (k // 2) * prod(
                e[p] for e, p in zip(echelon, pivots))
            wedge = {m: last * v // scale
                     for m, v in R.state_sums(R.ZZ, rows, 0).items()}
            seen["swap"] += order != echelon
            seen["skip"] += pivots != list(range(k))
            seen["k = 0"] += k == 0
            fold = reduce(X.wedge, (
                X.ExtElement(R.ZZ, n, {(i + 1,): x for i, x in enumerate(v)})
                for v in vectors), X.ext_basis(R.ZZ, n, ()))
            got = X.ExtElement(R.ZZ, n, {X._arcs(n, m)[0]: c
                                         for m, c in wedge.items()})
            assert got.terms == fold.terms, (n, vectors)
        assert min(seen.values()) >= 20, seen

    def test_element_cleanup(self):
        e = X.ExtElement(R.ZZ, 3, {(1, 2): 2, (3,): 0})
        assert e.terms == {(1, 2): 2}
        with pytest.raises(ValueError):
            X.ExtElement(R.ZZ, 3, {(2, 1): 1})
        with pytest.raises(ValueError):
            X.ExtElement(R.ZZ, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            X.ExtElement(R.ZZ, 2, {(3,): 1})


class TestEpsilon:
    def test_examples(self):
        assert X.epsilon(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 2, (2,))) == 1
        assert X.epsilon(basis(R.ZZ, 2, (2,)), basis(R.ZZ, 2, (1,))) == -1
        assert X.epsilon(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 2, (1,))) == 0
        with pytest.raises(ValueError, match="different ambient rank"):
            X.epsilon(basis(R.ZZ, 2, (1,)), basis(R.ZZ, 3, (2,)))

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
        assert f.entries.get(((1,), (2,)), 0) == 5
        assert f.entries.get(((2,), (1,)), 0) == 0

    def test_rank_mismatch(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {})
        g = X.GradedMap(R.ZZ, 2, 2, 0, {})
        with pytest.raises(ValueError):
            X.compose(f, g)

    @pytest.mark.parametrize("key,bad", [
        (((1, 1), (2,)), [(1, 1)]),     # a repeated index would shift the degree
        (((0,), (-1,)), [(0,), (-1,)]),  # indices below 1
    ])
    def test_key_rejected_like_ext_element(self, key, bad):
        with pytest.raises(ValueError):
            X.GradedMap(R.ZZ, 2, 2, 0, {key: 1})
        for S in bad:
            with pytest.raises(ValueError):
                X.ExtElement(R.ZZ, 2, {S: 1})

    @pytest.mark.parametrize("key", [
        ((2, 1), (1, 2)),      # not increasing
        ((1,), (2, 1)),
        ((0,), (1,)),          # one subset below 1
        ((1,), (-1,)),
        ((1.5,), (2.5,)),      # not ints
        ("1", "2"),            # not tuples
    ])
    def test_non_canonical_key_rejected(self, key):
        with pytest.raises(ValueError):
            X.GradedMap(R.ZZ, 2, 2, len(key[1]) - len(key[0]), {key: 1})

    def test_seen_subsets_stay_bounded_and_canonical(self):
        X.identity_map(R.ZZ, 13)     # 8,192 subsets, twice the bound
        assert len(X._CANONICAL) <= 1 << 12
        with pytest.raises(ValueError):
            X.GradedMap(R.ZZ, 2, 2, 0, {((2, 1), (1, 2)): 1})
        assert (2, 1) not in X._CANONICAL
        assert all(S == tuple(sorted({int(i) for i in S}))
                   for S in X._CANONICAL)
        assert not X._canonical((2, 1)) and X._canonical((1, 2))
        with pytest.raises(ValueError):
            X.GradedMap(R.ZZ, 2, 2, 0, {((1, 1), (2,)): 1})

    def test_keys_are_kept_as_given(self):
        entries = {((1,), (2,)): 4, ((2,), (1,)): 0, ((), ()): -1}
        f = X.GradedMap(R.ZZ, 2, 2, 0, entries)
        assert f.entries == {((1,), (2,)): 4, ((), ()): -1}
        assert all(k in entries for k in f.entries)


def follows_key_rule(S, rank) -> bool:
    try:
        canonical = S == tuple(sorted({int(i) for i in S}))
    except ValueError:          # int() of a string that is not a numeral
        return False
    return canonical and (not S or 1 <= S[0] and S[-1] <= rank)


def accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


KEY_ITEMS = st.one_of(st.integers(-1, 4), st.booleans(),
                      st.sampled_from([1.0, 1.5]), st.text(max_size=2))


class TestKeyRule:
    @given(st.lists(KEY_ITEMS, max_size=4).map(tuple))
    def test_constructors_follow_the_rule_cold_and_warm(self, S):
        """Both constructors accept a subset exactly when it is its own
        sorted set of ints and lies in 1..rank, whatever the memo holds."""
        rank, want = 3, follows_key_rule(S, 3)
        builds = [lambda: X.ExtElement(R.ZZ, rank, {S: 1}),
                  lambda: X.GradedMap(R.ZZ, rank, rank, 0, {(S, S): 1}),
                  lambda: X.GradedMap(R.ZZ, rank, rank, len(S), {((), S): 1})]
        X._CANONICAL.clear()
        for build in builds:
            assert accepts(build) == want
            X._CANONICAL.clear()
        X.identity_map(R.ZZ, 4)      # every subset of 1..4, some out of range
        for _ in range(2):           # the second pass also sees S if it passed
            for build in builds:
                assert accepts(build) == want


def compose_oracle(g, f):
    """Every pair of entries of f and g, kept when the subsets match."""
    ring = f.ring
    out = {}
    for (I, J), a in f.entries.items():
        for (J2, K), b in g.entries.items():
            if J2 == J:
                R.accumulate(ring, out, (I, K), ring.mul(b, a))
    return X.GradedMap(ring, f.source_rank, g.target_rank,
                       f.degree + g.degree, out)


class TestCompose:
    @given(st.sampled_from([R.ZZ, Zt]).flatmap(lambda ring: st.tuples(
        graded_maps(ring, 2, 3, 1, max_entries=6),
        st.integers(-1, 1).flatmap(
            lambda d: graded_maps(ring, 3, 2, d, max_entries=6)))))
    def test_matches_pairwise_oracle(self, maps):
        f, g = maps
        h = X.compose(g, f)
        assert h.entries == compose_oracle(g, f).entries
        assert (h.source_rank, h.target_rank, h.degree) == (2, 2,
                                                            f.degree + g.degree)

    @given(graded_maps(Zh3, 2, 2, 0, 6, ZERO_DIVISOR_ELEMENTS),
           graded_maps(Zh3, 2, 2, 0, 6, ZERO_DIVISOR_ELEMENTS))
    def test_matches_pairwise_oracle_with_zero_divisors(self, f, g):
        assert X.compose(g, f).entries == compose_oracle(g, f).entries

    def test_no_matching_subsets(self):
        f = X.GradedMap(R.ZZ, 2, 2, 0, {((1,), (1,)): 2, ((), ()): 1})
        g = X.GradedMap(R.ZZ, 2, 3, 1, {((2,), (1, 3)): 5, ((1, 2), (1, 2, 3)): 7})
        h = X.compose(g, f)
        assert h.is_zero() and (h.source_rank, h.target_rank, h.degree) == (2, 3, 1)
        assert X.compose(X.zero_map(R.ZZ, 2, 2, 0), f).is_zero()

    def test_cancelling_terms_dropped(self):
        f = X.GradedMap(R.ZZ, 1, 2, 0, {((1,), (1,)): 1, ((1,), (2,)): 1})
        g = X.GradedMap(R.ZZ, 2, 1, 0, {((1,), (1,)): 1, ((2,), (1,)): -1})
        assert X.compose(g, f).entries == {}


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

    @given(graded_maps(Zh3, 1, 2, 1, 6, ZERO_DIVISOR_ELEMENTS),
           graded_maps(Zh3, 2, 1, -1, 6, ZERO_DIVISOR_ELEMENTS))
    def test_matches_per_pair_oracle_with_zero_divisors(self, f, g):
        for a, b in ((f, g), (g, f)):
            t = X.super_tensor(a, b)
            assert t.entries == super_tensor_oracle(a, b).entries
            assert not any(Zh3.is_zero(c) for c in t.entries.values())

    def test_zero_divisor_products_dropped(self):
        f = X.GradedMap(Zh3, 1, 1, 0, {((1,), (1,)): ONE_MINUS_S,
                                       ((), ()): Zh3.one()})
        g = X.GradedMap(Zh3, 1, 1, 0, {((1,), (1,)): NORM3,
                                       ((), ()): Zh3.one()})
        t = X.super_tensor(f, g)
        assert Zh3.is_zero(Zh3.mul(ONE_MINUS_S, NORM3))
        assert set(t.entries) == {((), ()), ((1,), (1,)), ((2,), (2,))}
        assert t.entries == super_tensor_oracle(f, g).entries

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
            base = f.entries.get((tuple(i for i in I if i <= 1),
                                  tuple(j for j in J if j <= 2)), 0)
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
        assert b.entries.get(((), ()), 0) == 1
        # v in first slot moves to second
        assert b.entries.get(((1,), (2,)), 0) == 1
        assert b.entries.get(((2,), (1,)), 0) == 1
        assert b.entries.get(((1, 2), (1, 2)), 0) == -1


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
        assert ok and u == Zt.monomial((-1, 0))

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


def eq_up_to_unit_sorted(f, g):
    """The unit comparison over every key of f and g in sorted order: the
    oracle for eq_up_to_global_unit, whose candidate unit must come from
    the same pair."""
    X._same_shape(f, g)
    if f.is_zero() and g.is_zero():
        return True, f.ring.one()
    if f.degree != g.degree and f.entries and g.entries:
        return False, None
    keys = set(f.entries) | set(g.entries)
    zero = f.ring.zero()
    pairs = [(f.entries.get(k, zero), g.entries.get(k, zero)) for k in sorted(keys)]
    return R.values_eq_up_to_unit(f.ring, pairs)


FACTORS4 = (R.parse_element(Zh4, "1 + s^2"), R.parse_element(Zh4, "1 - s^2"))

# ring -> (elements, units, factors): g may have every entry times one
# factor.  When every entry of g is a multiple of 1 + s^2 over Z[Z x Z/4],
# several units can fit and the one returned depends on the pair the
# candidate comes from.  Over Z[Z x Z/3] it cannot: two trivial units fit
# together only as s^i and s^j with every entry a multiple of 1 + s + s^2,
# whose least monomial has torsion exponent 0, so every pair proposes the
# same candidate.
UNIT_CASES = {
    "Z": (R.ZZ, st.integers(-3, 3), st.sampled_from((1, -1)), (2,)),
    "Z[t]": (Zt, laurent_elements(Zt), trivial_units(Zt),
             (R.parse_element(Zt, "1 - t1"),)),
    "Z[Z x Z/3]": (Zh3, ZERO_DIVISOR_ELEMENTS, trivial_units(Zh3),
                   (NORM3, ONE_MINUS_S)),
    "Z[Z x Z/4]": (Zh4, laurent_elements(Zh4, FACTORS4), trivial_units(Zh4),
                   FACTORS4),
    "Q[Z x Z/3]": (Qh3, ZERO_DIVISOR_ELEMENTS.map(Qh3.from_zh),
                   trivial_units(Zh3, (1, -1, 2)).map(Qh3.from_zh),
                   tuple(map(Qh3.from_zh, (NORM3, ONE_MINUS_S)))),
}


class TestGlobalUnitOrder:
    @pytest.mark.parametrize("name", sorted(UNIT_CASES))
    @given(data=st.data())
    def test_matches_sorted_oracle(self, name, data):
        ring, elements, units, factors = UNIT_CASES[name]
        maps = graded_maps(ring, 2, 2, 0, 6, elements)
        common = data.draw(st.sampled_from((ring.one(), *factors, *factors)))
        g = X.map_scale(common, data.draw(maps))
        mode = data.draw(st.sampled_from(("scaled", "scaled", "perturbed", "free")))
        if mode == "free":
            f = data.draw(maps)
        else:
            u = data.draw(units)
            entries = {k: ring.mul(u, b) for k, b in g.entries.items()}
            if mode == "perturbed":
                key = data.draw(st.sampled_from(
                    [(I, J) for I in X.subsets(2) for J in X.subsets(2)
                     if len(I) == len(J)]))
                entries[key] = data.draw(elements)
            f = X.GradedMap(ring, 2, 2, 0, entries)
        got, want = X.eq_up_to_global_unit(f, g), eq_up_to_unit_sorted(f, g)
        assert got == want
        if want[1] is not None:
            assert ring.to_str(got[1]) == ring.to_str(want[1])
        if mode == "scaled":
            assert got[0]

    def test_unit_comes_from_the_least_key(self):
        # both -s and -s^3 relate the pairs; the least key of g decides
        a0, b0 = (R.parse_element(Zh4, e) for e in ("2 + 2*s^2", "-2*s - 2*s^3"))
        a1, b1 = (R.parse_element(Zh4, e) for e in (
            "1 + 2*s + s^2 + 2*s^3", "-2 - s - 2*s^2 - s^3"))
        first, second = ((1,), (1,)), ((2,), (2,))
        for (ka, kb), want in (((first, second), "-s^3"),
                               ((second, first), "-s")):
            f = X.GradedMap(Zh4, 2, 2, 0, {ka: a0, kb: a1})
            g = X.GradedMap(Zh4, 2, 2, 0, {ka: b0, kb: b1})
            ok, u = X.eq_up_to_global_unit(f, g)
            assert ok and Zh4.to_str(u) == want
            assert (ok, u) == eq_up_to_unit_sorted(f, g)

    def test_one_side_zero(self):
        f = X.GradedMap(R.ZZ, 1, 1, 0, {((1,), (1,)): 2})
        z = X.zero_map(R.ZZ, 1, 1, 0)
        assert X.eq_up_to_global_unit(f, z) == (False, None)
        assert X.eq_up_to_global_unit(z, f) == (False, None)


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
        f = X.compose_eps_tensor(w, 1, 1, 0)
        assert f.degree == 0
        assert f.entries == {((), ()): -1, ((1,), (1,)): -1}
        z = X.compose_eps_tensor(X.ext_zero(R.ZZ, 3), 2, 1, degree=-1)
        assert z.is_zero() and z.degree == -1

    @given(st.sampled_from(list(X.subsets(2))), st.sampled_from(list(X.subsets(2))))
    def test_against_epsilon(self, A, B):
        n0 = n1 = 2
        S = A + tuple(b + n0 for b in B)
        f = X.compose_eps_tensor(basis(R.ZZ, n0 + n1, S), n0, n1,
                                 len(S) - n0)
        for I in X.subsets(n0):
            got = X.apply_map(f, basis(R.ZZ, n0, I))
            pair = X.epsilon(basis(R.ZZ, n0, I), basis(R.ZZ, n0, A))
            coeff = ((-1) ** (n0 * len(B))) * pair
            want = X.ext_scale(R.ZZ.from_int(coeff), basis(R.ZZ, n1, B))
            assert X.ext_eq(got, want)

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            X.compose_eps_tensor(basis(R.ZZ, 2, (1,)), 2, 1, -1)
