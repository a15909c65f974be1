"""Command line behavior: exit codes, deterministic output, JSON shape,
and the fixture round-trip."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bsfloer import cli
from bsfloer import diagram as D
from bsfloer import rings as R
from bsfloer.cli import main
from bsfloer.diagram import dumps, loads
from bsfloer.fixtures import fixture_library, ordinary_from_matrix
from bsfloer.selftest import CriterionResult


SHIPPED = Path(__file__).resolve().parent.parent / "fixtures"

FN_BORDERED_MIXED = "\n".join([
    "presentation: 4 rows x 3 cols (deficiency 1)",
    "torsion prefactor: 1",
    "kernel rank: 1 (expected degree 1)",
    "kernel element: g{1} + g{2}",
    "ring: Z",
    "degree: 0",
    "out{} <- in{}: 1",
    "out{1} <- in{1}: -1",
    "against the matrix: PASS (unit -1)",
]) + "\n"


@pytest.fixture(scope="module")
def fxdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--output", str(d)]) == 0
    return d


def permanent(rows):
    """Ryser's formula, for the generator count of an ordinary diagram."""
    n = len(rows)
    total = 0
    for r in range(1, n + 1):
        for cols in itertools.combinations(range(n), r):
            prod = 1
            for row in rows:
                prod *= sum(row[j] for j in cols)
            total += (-1) ** (n - r) * prod
    return total


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_ok(self, capsys, fxdir):
        code, out, _ = run(capsys, ["validate", str(fxdir / "identity_n2.json")])
        assert code == 0
        assert out.rstrip().endswith("ok")

    def test_malformed_json_is_input_failure(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"alpha": [1,')
        code, _, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert "line" in err

    def test_wrong_field_is_input_failure(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"alpha": 3}')
        code, _, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("sign", ["true", "1.0"])
    def test_non_integer_sign_is_input_failure(self, capsys, tmp_path, sign):
        p = tmp_path / "bad.json"
        p.write_text('{"alpha": {"circles": ["A1"]}, '
                     '"beta": {"circles": [{"id": "B1"}]}, '
                     '"points": [{"alpha": "A1", "beta": "B1", '
                     f'"sign": {sign}}}]}}')
        code, out, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sign" in err

    @pytest.mark.parametrize("verb, group", [
        ("validate", '{"free_rank": true}'),
        ("validate", '{"free_rank": "2"}'),
        ("validate", '{"free_rank": 1000000000}'),
        ("bsda", '{"torsion_order": 1000000000000}'),
    ])
    def test_hostile_group_is_input_failure(self, capsys, tmp_path, verb, group):
        p = tmp_path / "bad.json"
        p.write_text(f'{{"group": {group}, "alpha": {{"circles": ["A1"]}}, '
                     '"beta": {"circles": [{"id": "B1"}]}, '
                     '"points": [{"alpha": "A1", "beta": "B1", "sign": 1}]}')
        argv = [verb, str(p)] + (["--ring", "qh"] if verb == "bsda" else [])
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "free_rank" in err or "torsion_order" in err

    @pytest.mark.parametrize("points", [math.inf, 2.5, True, None])
    def test_hostile_arc_document_is_input_failure(self, capsys, tmp_path,
                                                   fxdir, points):
        """A point count that is not an integer ends in one error line
        (None: a nesting too deep for the JSON parser)."""
        p = tmp_path / "bad.json"
        doc = json.loads((fxdir / "identity_n1.json").read_text())
        doc["boundary_left"]["components"][0]["points"] = points
        p.write_text("[" * 100_000 + "]" * 100_000 if points is None
                     else json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("invalid JSON" if points is None else "point count") in err

    @pytest.mark.parametrize("edit", [
        {"circles": "AB"},
        {"circles": [{"x": 1}]},
        {"alpha id": 5},
        {"beta id": {"x": 1}},
        {"point beta": 1},
    ], ids=["circles-text", "circle-object", "alpha-id-number",
            "beta-id-object", "point-beta-number"])
    def test_curve_ids_must_be_strings(self, capsys, tmp_path, fxdir, edit):
        """Curve ids are JSON strings and alpha.circles a list; each edit
        keeps every reference consistent once ids are turned into text."""
        doc = json.loads((fxdir / "identity_n1.json").read_text())
        if "circles" in edit:
            doc["alpha"]["circles"] = edit["circles"]
        if "alpha id" in edit:
            doc["alpha"]["out"][0]["id"] = doc["points"][0]["alpha"] = 5
        if "beta id" in edit:
            doc["beta"]["circles"][0]["id"] = {"x": 1}
            for pt in doc["points"]:
                pt["beta"] = "{'x': 1}"
        if "point beta" in edit:
            doc["beta"]["circles"][0]["id"] = "1"
            for pt in doc["points"]:
                pt["beta"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not a string" in err or "must be a list" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["bsda", "/nonexistent/x.json"])
        assert code == 1
        assert "cannot read" in err

    def test_unknown_verb_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 64
        assert "usage error" in err

    def test_bad_ring_is_usage_error(self, capsys, fxdir):
        code, _, _ = run(capsys, ["bsda", str(fxdir / "identity_n1.json"),
                                  "--ring", "zz"])
        assert code == 64

    def test_bad_subset_is_usage_error(self, capsys, fxdir):
        code, _, _ = run(capsys, ["cap", str(fxdir / "identity_n1.json"),
                                  "--in", "a,b"])
        assert code == 64

    def test_no_verb_is_usage_error(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 64

    def test_compare_fail_exits_2(self, capsys, fxdir, monkeypatch):
        import bsfloer.cli as cli

        real = cli.compare_bsda_alexander

        def fake(h, tag):
            return replace(real(h, tag), match=False, unit=None)

        monkeypatch.setattr(cli, "compare_bsda_alexander", fake)
        code, out, _ = run(capsys, ["alexander",
                                    str(fxdir / "identity_n1.json"),
                                    "--compare"])
        assert code == 2
        assert "FAIL" in out

    def test_selftest_fail_exits_2(self, capsys, monkeypatch):
        import bsfloer.cli as cli

        monkeypatch.setattr(
            cli, "run_all",
            lambda seed: [CriterionResult(1, "t", False, "d", 0.0)])
        code, out, _ = run(capsys, ["selftest"])
        assert code == 2
        assert "0/1 passed" in out


class TestOutput:
    def test_bsda_text_byte_stable(self, capsys, fxdir):
        path = str(fxdir / "bordered_mixed.json")
        _, out1, _ = run(capsys, ["bsda", path, "--ring", "zh"])
        _, out2, _ = run(capsys, ["bsda", path, "--ring", "zh"])
        assert out1 == out2
        assert "degree: 0" in out1

    def test_bsda_json_shape(self, capsys, fxdir):
        code, out, _ = run(capsys, ["bsda", str(fxdir / "identity_n2.json"),
                                    "--json"])
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["degree", "entries"]
        assert doc["degree"] == 0
        for entry in doc["entries"]:
            assert sorted(entry) == ["in", "out", "value"]
        assert {"in": [1, 2], "out": [1, 2], "value": "1"} in doc["entries"]

    def test_alexander_compare_unit_line(self, capsys, fxdir):
        code, out, _ = run(capsys, ["alexander",
                                    str(fxdir / "annulus_n3_weighted.json"),
                                    "--ring", "zg", "--compare"])
        assert code == 0
        assert "unit: +1" in out
        assert "1 + t1 + t1^2" in out

    def test_validate_counts_dense_generators_fast(self, capsys, tmp_path):
        # Magnitudes 1 and 2 on a 9x9 circulant: |M|'s permanent is the
        # generator count, far too many to list one by one.
        n = 9
        rows = [[(2 if (j - i) % n < n // 2 else 1) * (-1) ** (i * j + j)
                 for j in range(n)] for i in range(n)]
        p = tmp_path / "dense9.json"
        p.write_text(dumps(ordinary_from_matrix(rows)))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["validate", str(p)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        count = permanent([[abs(m) for m in r] for r in rows])
        assert f"generators: {count}" in out

    def test_generators_listing(self, capsys, fxdir):
        code, out, _ = run(capsys, ["generators",
                                    str(fxdir / "bordered_mixed.json")])
        assert code == 0
        assert out.startswith("generators: 2")
        assert "parity" in out

    def test_generators_over_budget_exits_1(self, capsys, tmp_path,
                                             monkeypatch):
        # a dense closed 12 x 12 diagram has 12! generators: counted by one
        # state sum and refused, never listed
        def refuse(h):
            raise AssertionError("enumerate_generators called")

        monkeypatch.setattr(cli, "enumerate_generators", refuse)
        n = 12
        rows = [[(-1) ** (i * j + j) for j in range(n)] for i in range(n)]
        p = tmp_path / "dense12.json"
        p.write_text(dumps(ordinary_from_matrix(rows)))
        code, out, err = run(capsys, ["generators", str(p)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {math.factorial(n)} generators exceed the listing "
            f"budget MAX_GENERATORS = {cli.MAX_GENERATORS}"]

    def test_fn_reports_pass(self, capsys, fxdir):
        code, out, _ = run(capsys, ["fn", str(fxdir / "mixed_2x2.json")])
        assert code == 0
        assert "PASS" in out
        assert "torsion prefactor: 2" in out

    def test_fn_runs_the_core_analysis_once(self, capsys, fxdir, monkeypatch):
        # one SNF of the core rows and one for the rank of the readings,
        # shared by the kernel rank, the kernel element and the pairing map
        import bsfloer.homology as homology
        import bsfloer.rings as rings

        calls = []
        snf = rings.smith_normal_form

        def counting(entries):
            calls.append(entries)
            return snf(entries)

        monkeypatch.setattr(rings, "smith_normal_form", counting)
        monkeypatch.setattr(homology, "smith_normal_form", counting)
        code, out, _ = run(capsys, ["fn", str(fxdir / "bordered_mixed.json")])
        assert code == 0
        assert len(calls) == 2
        assert out == FN_BORDERED_MIXED

    def test_fn_builds_one_presentation(self, capsys, monkeypatch):
        # the header's shape is b x a of the normalized diagram, so only
        # the core analysis builds the presentation
        import bsfloer.homology as homology

        calls = []
        build = homology.presentation_matrix

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        # every module that imported the function by name
        for name, mod in list(sys.modules.items()):
            if name.startswith("bsfloer") and vars(mod).get(
                    "presentation_matrix") is build:
                monkeypatch.setattr(mod, "presentation_matrix", counting)
        code, out, _ = run(capsys, ["fn", str(SHIPPED / "bordered_mixed.json")])
        assert code == 0
        assert len(calls) == 1
        assert out == FN_BORDERED_MIXED

    def test_alexander_compare_evaluates_once(self, capsys, monkeypatch):
        # the printed map is the one the comparison already evaluated on
        # normalize(h), so neither is computed twice
        import bsfloer.alexander as alexander
        import bsfloer.diagram as diagram

        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for fn in (diagram.normalize, alexander.alexander_functor):
            for name, mod in list(sys.modules.items()):
                if name.startswith("bsfloer") and vars(mod).get(
                        fn.__name__) is fn:
                    monkeypatch.setattr(mod, fn.__name__,
                                        counting(fn.__name__, fn))
        code, out, _ = run(capsys, ["alexander", "--compare", "--ring", "qh",
                                    str(SHIPPED / "weighted_torsion3.json")])
        assert code == 0
        assert sorted(calls) == ["alexander_functor", "normalize"]
        assert out == ("ring: Q[H](r=0,m=3)\n"
                       "degree: 0\n"
                       "out{} <- in{}: [d=1] 3; [d=3] 0\n"
                       "unit: [d=1] 1; [d=3] 1\n")

    def test_fn_on_vanishing_fixture(self, capsys, fxdir):
        code, out, _ = run(capsys, ["fn", str(fxdir / "zero_matrix.json")])
        assert code == 0
        assert "zero map" in out
        assert "kernel element: 0" in out

    def test_selftest_summary(self, capsys):
        code, out, err = run(capsys, ["selftest", "--seed", "3"])
        assert code == 0
        assert "selftest: 12/12 passed (seed 3)" in out
        assert [line.split(":")[0] for line in err.splitlines()] == [
            f"criterion {n:>2}" for n in range(1, 13)]

    def test_selftest_seconds_go_to_stderr(self, capsys, monkeypatch):
        import bsfloer.cli as cli

        monkeypatch.setattr(cli, "run_all", lambda seed: [
            CriterionResult(1, "one", True, "d1", 0.25),
            CriterionResult(12, "twelve", False, "d12", 1.5)])
        code, out, err = run(capsys, ["selftest"])
        assert code == 2
        assert out == (" 1 PASS  one\n        d1\n12 FAIL  twelve\n"
                       "        d12\nselftest: 1/2 passed (seed 0)\n")
        assert err == "criterion  1: 0.250 s\ncriterion 12: 1.500 s\n"

    def test_fixtures_listing_sorted(self, capsys):
        code, out, _ = run(capsys, ["fixtures"])
        assert code == 0
        names = [line.split(":", 1)[0] for line in out.strip().splitlines()]
        assert names == sorted(names)
        assert len(names) == len(fixture_library())


def rational_det(rows):
    """Gaussian elimination over Q: an oracle independent of the integer
    elimination and of the state sum."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            for j in range(k, len(a)):
                row[j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


class TestBudgets:
    """A dense closed 24 x 24 diagram: its invariant is one elimination,
    while every verb that needs a state sum over it stops at MAX_STATES
    (C(24, 12), about 2.7 x 10^6 states, at the middle row)."""

    @pytest.fixture(scope="class")
    def dense24(self, tmp_path_factory):
        rng = random.Random(24)
        rows = [[rng.choice((-2, -1, 1, 2)) for _ in range(24)]
                for _ in range(24)]
        path = tmp_path_factory.mktemp("dense") / "dense24.json"
        path.write_text(dumps(ordinary_from_matrix(rows)))
        return rows, path

    def test_bsda_is_the_determinant(self, capsys, dense24):
        rows, path = dense24
        det = rational_det(rows)
        assert det != 0
        code, out, err = run(capsys, ["bsda", str(path)])
        assert (code, err) == (0, "")
        assert out == f"ring: Z\ndegree: 0\nout{{}} <- in{{}}: {det}\n"

    @pytest.mark.parametrize("argv", [["validate"], ["generators"],
                                      ["alexander"], ["bsda", "--ring", "zh"]],
                             ids=["validate", "generators", "alexander",
                                  "bsda-zh"])
    def test_state_sums_stop_at_the_budget(self, capsys, dense24, argv):
        code, out, err = run(capsys, [argv[0], str(dense24[1]), *argv[1:]])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: state sum over the budget "
                              f"MAX_STATES = {R.MAX_STATES}: ")
        assert "live states at row" in err

    @pytest.mark.parametrize("limit", ["MAX_CURVES", "MAX_POINTS"])
    def test_document_size_limits(self, capsys, tmp_path, limit):
        # at the limit a document loads; one more curve or point and it
        # ends in one error line, before any curve or point is built
        def doc(count):
            if limit == "MAX_CURVES":
                return {"alpha": {"circles": [f"A{i}" for i in range(count)]}}
            point = {"alpha": "A1", "beta": "B1", "sign": 1}
            return {"alpha": {"circles": ["A1"]},
                    "beta": {"circles": [{"id": "B1"}]},
                    "points": [point] * count}

        n = getattr(D, limit)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc(n)))
        code, _, err = run(capsys, ["bsda", str(path)])
        assert (code, err) == (0, "")
        path.write_text(json.dumps(doc(n + 1)))
        code, out, err = run(capsys, ["bsda", str(path)])
        assert (code, out) == (1, "")
        what = "curves" if limit == "MAX_CURVES" else "points"
        assert err.splitlines() == [
            f"error: {path}: {n + 1} {what} exceed the limit {limit} = {n}"]


class TestBrokenPipe:
    def test_closed_stdout_ends_without_traceback(self):
        """The reader of stdout is gone before the output is written: exit 1
        and nothing on stderr, as the cli docstring says."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run([sys.executable, "-m", "bsfloer.cli",
                                   "fixtures"], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestFileFlow:
    def test_glue_then_bsda(self, capsys, fxdir, tmp_path):
        out_path = tmp_path / "glued.json"
        code, _, _ = run(capsys, ["glue", str(fxdir / "identity_n1.json"),
                                  str(fxdir / "identity_n1.json"),
                                  "--output", str(out_path)])
        assert code == 0
        code, out, _ = run(capsys, ["bsda", str(out_path)])
        assert code == 0
        assert "out{1} <- in{1}: 1" in out

    def test_glue_mismatch_is_input_failure(self, capsys, fxdir):
        code, _, err = run(capsys, ["glue", str(fxdir / "identity_n1.json"),
                                    str(fxdir / "identity_n2.json")])
        assert code == 1
        assert "interface" in err

    @pytest.mark.parametrize("argv, fragment", [
        (["disjoint", "identity_n1.json", "weighted_torsion3.json"],
         "group descriptors"),
        (["cap", "identity_n1.json", "--in", "5"], "incoming arcs"),
    ])
    def test_library_value_error_is_one_error_line(self, capsys, fxdir,
                                                   argv, fragment):
        argv = [str(fxdir / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    def test_disjoint_roundtrip(self, capsys, fxdir, tmp_path):
        out_path = tmp_path / "pair.json"
        code, _, _ = run(capsys, ["disjoint",
                                  str(fxdir / "identity_n1.json"),
                                  str(fxdir / "mixed_2x2.json"),
                                  "--output", str(out_path)])
        assert code == 0
        h = loads(out_path.read_text())
        assert h.n0 == 1 and h.n1 == 1

    def test_normalize_stdout_parses(self, capsys, fxdir):
        code, out, _ = run(capsys, ["normalize",
                                    str(fxdir / "bordered_mixed.json")])
        assert code == 0
        h = loads(out)
        assert all(role for _, role in h.beta_circles)

    def test_cap_auto_normalizes(self, capsys, fxdir, tmp_path):
        out_path = tmp_path / "capped.json"
        code, _, _ = run(capsys, ["cap", str(fxdir / "identity_n1.json"),
                                  "--in", "1", "--out", "1",
                                  "--output", str(out_path)])
        assert code == 0
        h = loads(out_path.read_text())
        assert h.n0 == 0 and h.n1 == 0

    def test_output_file_ends_in_one_newline(self, capsys, fxdir, tmp_path):
        out_path = tmp_path / "out.json"
        code, _, _ = run(capsys, ["normalize", str(fxdir / "identity_n1.json"),
                                  "--output", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.endswith("}\n") and not text.endswith("\n\n")

    def test_fixture_files_end_in_one_newline(self, fxdir):
        for path in fxdir.iterdir():
            assert not path.read_text().endswith("\n\n"), path.name

    def test_fixture_files_round_trip(self, fxdir):
        lib = fixture_library()
        for name, (h, _) in lib.items():
            text = (fxdir / f"{name}.json").read_text()
            assert loads(text) == h, name
