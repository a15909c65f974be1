"""Presentation matrices, kernel lattice, and the TQFT comparison."""

import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from bsfloer import exterior as X
from bsfloer.bsda import bsda_z
from bsfloer.diagram import (
    cap,
    glue,
    half_identity,
    identity_diagram,
    interval_arcs,
    make_diagram,
    normalize,
)
from bsfloer.fixtures import (
    annulus,
    bordered_mixed,
    braid_diagram,
    halfproj_left,
    halfproj_pair,
    halfproj_right,
    infinite_h1,
    mixed_2x2,
    ordinary_from_matrix,
    surplus_circle,
    torsion_vanishing,
    weighted_free2,
    zero_matrix,
)
from bsfloer.homology import (
    _core_analysis,
    chi_sfh_surrogate,
    generator_sum,
    k_element,
    kernel_istar,
    presentation_matrix,
    torsion_order,
    vfn_sut,
    weakly_balanced,
)
from bsfloer.rings import (
    ZZ,
    GroupRing,
    integer_kernel_is_zero,
    parse_element,
    smith_normal_form,
    snf_diagonal,
)
from bsfloer.selftest import random_diagram, random_gluable_pair

Z1 = interval_arcs(1)
Z2 = interval_arcs(2)


def lattice_member(entries, w):
    """Is w in the column lattice of the integer matrix?"""
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    U, D, _ = smith_normal_form(entries) if entries else ([], [], [])
    uw = [sum(U[i][t] * w[t] for t in range(rows)) for i in range(rows)]
    for i in range(rows):
        d = D[i][i] if i < min(rows, cols) else 0
        if d == 0:
            if uw[i] != 0:
                return False
        elif uw[i] % d != 0:
            return False
    return True


class TestPresentation:
    def test_annulus(self):
        for n in range(1, 5):
            pres = presentation_matrix(annulus(n))
            assert pres.matrix.entries == [[n]]
        pres = presentation_matrix(annulus(3, weighted=True), "zh")
        ring = pres.matrix.ring
        want = parse_element(ring, "1 + t1 + t1^2")
        assert ring.eq(pres.matrix.entries[0][0], want)

    def test_identity_has_no_columns(self):
        for n in range(1, 4):
            pres = presentation_matrix(identity_diagram(interval_arcs(n)))
            assert pres.matrix.rows == n
            assert pres.matrix.cols == 0

    def test_mixed(self):
        pres = presentation_matrix(mixed_2x2())
        assert pres.matrix.entries == [[1, 1], [-1, 1]]
        assert pres.elementary_divisors() == [1, 2]
        assert pres.rank() == 2
        assert pres.d == 0

    def test_normalized_identity_matrix(self):
        pres = presentation_matrix(normalize(identity_diagram(Z1)))
        assert pres.matrix.entries == [[1, 0], [-1, 1], [0, -1]]
        assert pres.matrix.row_labels == ("BOut1", "b1", "BIn1")
        assert pres.matrix.col_labels == ("aOut1", "aIn1")
        assert pres.roles == ("newOut(1)", "core", "newIn(1)")

    def test_ring_validation(self):
        with pytest.raises(ValueError, match="z or zh"):
            presentation_matrix(annulus(1), "q")


class TestTorsionOrder:
    def test_examples(self):
        assert torsion_order([[5]]) == 5
        assert torsion_order([[2, 0], [0, 3]]) == 6
        assert torsion_order([[1], [0]]) == 0
        assert torsion_order([[0]]) == 0
        assert torsion_order([[-1, 0, 1]]) == 1
        assert torsion_order([]) == 1
        assert torsion_order([[2, 0], [0, 0]]) == 0

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                    min_size=2, max_size=2),
           st.lists(st.tuples(st.sampled_from(["row", "col"]),
                              st.integers(0, 1), st.integers(-3, 3)),
                    max_size=6))
    def test_unimodular_invariance(self, rows, ops):
        before = torsion_order(rows)
        m = [list(r) for r in rows]
        for side, i, q in ops:
            j = 1 - i
            if side == "row":
                for t in range(2):
                    m[i][t] += q * m[j][t]
            else:
                for t in range(2):
                    m[t][i] += q * m[t][j]
        assert torsion_order(m) == before


class TestKernel:
    def test_identity_one_arc_frozen(self):
        vecs, K, rk = kernel_istar(normalize(identity_diagram(Z1)))
        assert (vecs, K, rk) == ([(1, -1)], 1, 1)

    def test_identity_pattern(self):
        for n in range(1, 4):
            hn = normalize(identity_diagram(interval_arcs(n)))
            vecs, K, rk = kernel_istar(hn)
            assert K == rk == n
            want = [
                tuple(1 if t == i else -1 if t == n + i else 0
                      for t in range(2 * n))
                for i in range(n)
            ]
            assert vecs == want

    def test_ordinary_empty_basis(self):
        vecs, K, rk = kernel_istar(normalize(mixed_2x2()))
        assert (vecs, K, rk) == ([], 0, 0)

    def test_surplus_rank_short(self):
        vecs, K, rk = kernel_istar(normalize(surplus_circle()))
        assert vecs == []
        assert K == 2
        assert rk == 1

    def test_infinite_cokernel_zero_basis(self):
        vecs, K, rk = kernel_istar(normalize(infinite_h1()))
        assert (vecs, rk) == ([], 0)

    def test_requires_roles(self):
        with pytest.raises(ValueError):
            kernel_istar(identity_diagram(Z1))

    def test_k_is_structural(self):
        for h in [identity_diagram(Z2), bordered_mixed(),
                  braid_diagram(Z1, Z1), halfproj_left()]:
            hn = normalize(h)
            _, K, _ = kernel_istar(hn)
            assert K == hn.n0 + hn.degree

    def test_vectors_lie_in_column_lattice(self):
        for h in [identity_diagram(Z1), identity_diagram(Z2),
                  bordered_mixed(), braid_diagram(Z1, Z1)]:
            hn = normalize(h)
            pres = presentation_matrix(hn)
            vecs, _, _ = kernel_istar(hn)
            assert vecs
            row_of = {bid: i for i, bid in enumerate(hn.beta_ids())}
            outs = [bid for bid, role in hn.beta_circles
                    if role and role.startswith("newOut")]
            ins = [bid for bid, role in hn.beta_circles
                   if role and role.startswith("newIn")]
            for v in vecs:
                w = [0] * hn.b
                for i, bid in enumerate(ins):
                    w[row_of[bid]] = -v[i]
                for j, bid in enumerate(outs):
                    w[row_of[bid]] = -v[hn.n0 + j]
                assert lattice_member(pres.matrix.entries, w)


class TestKElement:
    def test_identity_one_arc(self):
        ke = k_element(normalize(identity_diagram(Z1)))
        assert ke.prefactor == 1
        assert ke.kernel_wedge.terms == {(1,): 1, (2,): -1}
        assert ke.degree == 1

    def test_infinite_cokernel_vanishes(self):
        ke = k_element(normalize(infinite_h1()))
        assert ke.prefactor == 0
        assert ke.kernel_wedge.is_zero()

    def test_zero_matrix_vanishes(self):
        ke = k_element(normalize(zero_matrix()))
        assert ke.prefactor == 0
        assert ke.kernel_wedge.is_zero()

    def test_surplus_vanishes_despite_prefactor(self):
        ke = k_element(normalize(surplus_circle()))
        assert ke.prefactor == 1
        assert ke.kernel_wedge.is_zero()

    def test_ordinary_scalar(self):
        for n in range(1, 5):
            ke = k_element(normalize(annulus(n)))
            assert ke.prefactor == n
            assert ke.kernel_wedge.terms == {(): n}
            assert ke.degree == 0
        ke = k_element(normalize(mixed_2x2()))
        assert ke.prefactor == 2
        assert ke.kernel_wedge.terms == {(): 2}


def check_core_analysis(hn) -> bool:
    """prefactor and injective, read from the core SNF alone, against the
    SNF of the core and of the whole presentation; returns star3_ok."""
    data = _core_analysis(hn)
    assert data["prefactor"] == torsion_order(data["core"])
    if data["star3_ok"]:
        M = presentation_matrix(hn, "z").matrix.entries
        want = integer_kernel_is_zero(M) if M else not hn.alpha_circles
        assert data["injective"] == want
    return data["star3_ok"]


class TestCoreAnalysis:
    @given(st.integers(0, 2 ** 32))
    def test_random_diagrams(self, seed):
        rng = random.Random(seed)
        check_core_analysis(normalize(random_diagram(rng)))
        check_core_analysis(normalize(glue(*random_gluable_pair(rng))))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("length", [2, 3])
    def test_identity_and_braid_chains(self, k, length):
        z = interval_arcs(k)
        ident = reduce(glue, [identity_diagram(z)] * length)
        swap = reduce(glue, [braid_diagram(z, z)] * length)
        assert check_core_analysis(normalize(ident))
        assert check_core_analysis(normalize(swap))

    def test_fixtures(self):
        # surplus_circle passes star3 but is not injective; infinite_h1
        # fails star3, so only the prefactor is compared there
        star3 = {name: check_core_analysis(normalize(h))
                 for name, h in [("surplus", surplus_circle()),
                                 ("infinite", infinite_h1()),
                                 ("zero", zero_matrix()),
                                 ("mixed", mixed_2x2()),
                                 ("torsion", torsion_vanishing()),
                                 ("bordered", bordered_mixed())]}
        assert star3["surplus"] and not star3["infinite"]
        assert not _core_analysis(normalize(surplus_circle()))["injective"]


class TestMainComparison:
    FIXTURES = [
        identity_diagram(Z1),
        identity_diagram(Z2),
        identity_diagram(interval_arcs(3)),
        annulus(1), annulus(3),
        mixed_2x2(),
        zero_matrix(),
        infinite_h1(),
        surplus_circle(),
        halfproj_left(), halfproj_right(), halfproj_pair(),
        bordered_mixed(),
        braid_diagram(Z1, Z1),
        glue(identity_diagram(Z1), identity_diagram(Z1)),
        half_identity(Z2, "in"),
        half_identity(Z2, "out"),
        torsion_vanishing(),
        weighted_free2(),
    ]

    def test_vfn_equals_bsda_up_to_one_sign(self):
        for h in self.FIXTURES:
            hn = normalize(h)
            v = vfn_sut(hn)
            f = bsda_z(hn)
            ok, unit = X.eq_up_to_global_unit(v, f)
            assert ok, (v.entries, f.entries)
            assert unit in (None, 1, -1)

    def test_identity_frozen(self):
        v = vfn_sut(normalize(identity_diagram(Z1)))
        assert X.map_eq(v, X.identity_map(ZZ, 1))

    def test_bordered_mixed_frozen(self):
        v = vfn_sut(normalize(bordered_mixed()))
        assert v.entries == {((), ()): 1, ((1,), (1,)): -1}

    def test_engineered_zero_cases(self):
        for h in [zero_matrix(), infinite_h1(), surplus_circle()]:
            hn = normalize(h)
            assert vfn_sut(hn).entries == {}
            assert bsda_z(hn).entries == {}

    def test_ordinary_scalar_value(self):
        for n in range(1, 4):
            v = vfn_sut(normalize(annulus(n)))
            assert v.entries == {((), ()): n}
        v = vfn_sut(normalize(mixed_2x2()))
        assert v.entries == {((), ()): 2}


class TestChiSurrogate:
    def test_annulus(self):
        for n in range(1, 5):
            assert chi_sfh_surrogate(annulus(n)) == n

    def test_mixed(self):
        assert chi_sfh_surrogate(mixed_2x2()) == 2

    def test_unbalanced_is_zero(self):
        h = ordinary_from_matrix([[1], [1]])
        assert chi_sfh_surrogate(h) == 0

    def test_zero_matrix(self):
        assert chi_sfh_surrogate(zero_matrix()) == 0

    def test_weighted_variant(self):
        h = torsion_vanishing()
        ring = GroupRing(0, 2)
        got = chi_sfh_surrogate(h, "zh")
        # integer presentation is [[0]], so the free cokernel rank is 1 and
        # the weighted sum 1 - s flips sign
        want = parse_element(ring, "-1 + s")
        assert ring.eq(got, want)

    def test_rejects_bordered(self):
        with pytest.raises(ValueError, match="empty"):
            chi_sfh_surrogate(identity_diagram(Z1))


class TestCapping:
    CASES = [
        identity_diagram(Z1),
        identity_diagram(Z2),
        bordered_mixed(),
        braid_diagram(Z1, Z1),
        half_identity(Z2, "in"),
    ]

    def test_matrix_entries_from_caps(self):
        for h in self.CASES:
            hn = normalize(h)
            f = bsda_z(hn)
            c = hn.degree
            for k in range(hn.n0 + 1):
                if k + c < 0 or k + c > hn.n1:
                    continue
                for I in itertools.combinations(range(1, hn.n0 + 1), k):
                    for J in itertools.combinations(
                            range(1, hn.n1 + 1), k + c):
                        jc = tuple(j for j in range(1, hn.n1 + 1)
                                   if j not in J)
                        sign_exp = (X.cross_inversions(J, jc)
                                    + hn.a * k + hn.n1 * k)
                        sign = 1 if sign_exp % 2 == 0 else -1
                        got = sign * generator_sum(cap(hn, I, J))
                        assert got == f.entries.get((I, J), 0), (I, J)

    def test_identity_one_arc_frozen(self):
        hn = normalize(identity_diagram(Z1))
        assert generator_sum(cap(hn, (), ())) == -1
        assert generator_sum(cap(hn, (1,), (1,))) == 1

    def test_weak_balance_matches_circle_counts(self):
        for h in self.CASES:
            hn = normalize(h)
            for k in range(hn.n0 + 1):
                for I in itertools.combinations(range(1, hn.n0 + 1), k):
                    for m in range(hn.n1 + 1):
                        for J in itertools.combinations(
                                range(1, hn.n1 + 1), m):
                            capped = cap(hn, I, J)
                            assert weakly_balanced(hn, I, J) == (
                                capped.a == capped.b)

    def test_unbalanced_cap_sum_vanishes(self):
        hn = normalize(identity_diagram(Z1))
        assert generator_sum(cap(hn, (1,), ())) == 0

    def test_weakly_balanced_basics(self):
        hn = normalize(identity_diagram(Z2))
        assert weakly_balanced(hn, (1,), (1,))
        assert not weakly_balanced(hn, (1,), (1, 2))
        with pytest.raises(ValueError):
            weakly_balanced(hn, (3,), ())
        with pytest.raises(ValueError):
            weakly_balanced(identity_diagram(Z1), (), ())
