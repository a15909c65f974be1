"""One normalization step: normalize returns a normalize output as it is,
and every map of a diagram equals that map of its normalization.

Inputs are the shipped fixtures and seeded random pieces over Z^0, Z, Z/2
and Z x Z/3, each as it is, normalized, and in three shapes that are not
normalize outputs (normalize builds them again): a normalize output with
its tags dropped, a bordered piece tagged all core, and a normalize output
whose newIn rows are retagged core.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from bsfloer import exterior as X
from bsfloer.alexander import alexander_functor
from bsfloer.bsda import (Incidence, NormalizedIncidence, incidence,
                          normalized_incidence)
from bsfloer.cli import main
from bsfloer.diagram import (GroupDescriptor, cap, dumps, normalize,
                             normalized_roles)
from bsfloer.fixtures import fixture_library
from bsfloer.homology import k_element, vfn_sut, weakly_balanced
from bsfloer.selftest import random_diagram

GROUPS = [GroupDescriptor(0), GroupDescriptor(1), GroupDescriptor(0, 2),
          GroupDescriptor(1, 3)]
PER_GROUP = 300


def not_normalize_outputs(h):
    """Diagrams with role tags that normalized_roles refuses, and a
    normalize output with its tags dropped."""
    hn = normalize(h)
    out = [replace(hn, beta_circles=tuple(
        (bid, None) for bid, _ in hn.beta_circles))]
    if h.n0 or h.n1:
        out.append(replace(h, beta_circles=tuple(
            (bid, "core") for bid, _ in h.beta_circles)))
    if h.n0:
        out.append(replace(hn, beta_circles=tuple(
            (bid, "core" if r.startswith("newIn") else r)
            for bid, r in hn.beta_circles)))
    return out


def variants(h):
    return [h, normalize(h), *not_normalize_outputs(h)]


def random_pieces(seed, per_group=PER_GROUP):
    rng = random.Random(seed)
    return [random_diagram(rng, group=g) for g in GROUPS
            for _ in range(per_group)]


def subset_pairs(h):
    return [(I, J) for I in X.subsets(h.n0) for J in X.subsets(h.n1)]


FIXTURES = [h for h, _ in fixture_library().values()]


class TestIdempotent:
    def test_fixtures_and_random_pieces(self):
        redone = 0
        for h in FIXTURES + random_pieces(41):
            hn = normalize(h)
            normalized_roles(hn)
            assert normalize(hn) is hn
            for x in not_normalize_outputs(h):
                y = normalize(x)
                assert y is not x and normalize(y) is y
                redone += 1
        assert redone > 1200


class TestMapsReadTheNormalization:
    """k_element, vfn_sut, weakly_balanced and cap of h are those of
    normalize(h)."""

    def check(self, h):
        hn = normalize(h)
        ke, want = k_element(h), k_element(hn)
        assert ke == want
        assert (ke.prefactor, ke.kernel_wedge, ke.degree, ke.rank,
                ke.basis) == (want.prefactor, want.kernel_wedge,
                              want.degree, want.rank, want.basis)
        f, g = vfn_sut(h), vfn_sut(hn)
        assert f == g and X.map_lines(f) == X.map_lines(g)
        for I, J in subset_pairs(h):
            assert weakly_balanced(h, I, J) == weakly_balanced(hn, I, J)
            assert cap(h, I, J) == cap(hn, I, J)
        return not ke.kernel_wedge.is_zero()

    def test_fixtures(self):
        assert len(FIXTURES) == 26
        for h in FIXTURES:
            for x in variants(h):
                self.check(x)

    def test_random_pieces(self):
        nonzero = checked = 0
        for h in random_pieces(42):
            for x in variants(h):
                nonzero += self.check(x)
                checked += 1
        assert checked > 3 * len(GROUPS) * PER_GROUP
        assert nonzero > checked // 10


class TestCliOnANormalizeOutput:
    """fn, cap, alexander and alexander --compare print the same bytes on a
    file and on the file normalize --output writes from it."""

    def stdout(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def check(self, capsys, tmp_path, h, name):
        path, npath = tmp_path / f"{name}.json", tmp_path / f"{name}-n.json"
        path.write_text(dumps(h))
        assert main(["normalize", str(path), "--output", str(npath)]) == 0
        capsys.readouterr()
        verbs = [["fn"], ["alexander"], ["alexander", "--compare"]]
        verbs += [["cap", "--in", ",".join(map(str, I)) or "-",
                   "--out", ",".join(map(str, J)) or "-"]
                  for I, J in subset_pairs(h)]
        for verb in verbs:
            got = self.stdout(capsys, [verb[0], str(path), *verb[1:]])
            want = self.stdout(capsys, [verb[0], str(npath), *verb[1:]])
            assert got == want, (name, verb)
        # a normalize output is written back unchanged
        again = tmp_path / f"{name}-nn.json"
        assert main(["normalize", str(npath), "--output", str(again)]) == 0
        capsys.readouterr()
        assert again.read_text() == npath.read_text()

    def test_fixtures(self, capsys, tmp_path):
        for k, h in enumerate(FIXTURES):
            for v, x in enumerate(variants(h)):
                self.check(capsys, tmp_path, x, f"f{k}-{v}")

    def test_random_pieces(self, capsys, tmp_path):
        for k, h in enumerate(random_pieces(43, per_group=10)):
            for v, x in enumerate(variants(h)):
                self.check(capsys, tmp_path, x, f"r{k}-{v}")


class TestFunctorInput:
    """alexander_functor reads the row roles from the normalization rule,
    so it takes only a NormalizedIncidence."""

    def test_both_branches_build_the_type(self):
        for h in FIXTURES + random_pieces(44, per_group=25):
            for x in (h, normalize(h)):
                for weighted in (False, True):
                    inc = normalized_incidence(x, weighted)
                    assert type(inc) is NormalizedIncidence
                    assert isinstance(inc, Incidence)

    def test_refuses_a_plain_incidence(self):
        refused = 0
        for h in FIXTURES + random_pieces(45, per_group=25):
            if not (h.n0 or h.n1):
                continue
            for x in (h, normalize(h)):
                for tag in ("z", "zh"):
                    with pytest.raises(ValueError,
                                       match="normalized_incidence"):
                        alexander_functor(x, tag, incidence(x, tag == "zh"))
                    refused += 1
            assert (alexander_functor(h, "z", normalized_incidence(h))
                    == alexander_functor(h, "z"))
        assert refused > 200
