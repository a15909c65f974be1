"""Command line behavior: exit codes, deterministic output, JSON shape,
and the fixture round-trip."""

import errno
import itertools
import json
import math
import os
import random
import reprlib
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bsfloer import alexander as A
from bsfloer import cli
from bsfloer import diagram as D
from bsfloer import exterior as X
from bsfloer import rings as R
from bsfloer.alexander import (
    alexander_functor, bsda_map, compare_bsda_alexander)
from bsfloer.cli import main
from bsfloer.diagram import dumps, loads
from bsfloer.fixtures import fixture_library, ordinary_from_matrix
from bsfloer.selftest import CriterionResult, random_diagram


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


# selftest --seed 0 stdout, byte for byte (md5 3bbada3550cc929e8a41233f02647990)
SELFTEST_SEED0 = "\n".join([
    " 1 PASS  identity interfaces give a signed identity matrix",
    "        5 interfaces up to 4 arcs each give a signed identity matrix",
    " 2 PASS  gluing matches composition up to sign",
    "        100 random gluable pairs match; 13 composites nonzero",
    " 3 PASS  normalization leaves the matrix unchanged up to sign",
    "        300 diagrams from the gluing corpus, matrix unchanged by normalization",
    " 4 PASS  ordinary diagrams compute the exact determinant",
    "        100 random square presentations, entry equals the exact determinant",
    " 5 PASS  sutured TQFT map agrees up to sign, zeros included",
    "        51 diagrams agree up to sign; 3 engineered fixtures vanish on both sides",
    " 6 PASS  pairing the one-sided element recovers the matrix",
    "        51 diagrams: pairing the one-sided element recovers the matrix up to sign",
    " 7 PASS  determinant functor matches; stabilization invariant",
    "        all 26 fixtures match with unit +/-1; 100 stabilized presentations each off by one common sign",
    " 8 PASS  augmentation, weighted circles, torsion counts",
    "        augmentation exact on all 26 fixtures; circle entries 1+t+...+t^(n-1) and torsion count n for n=1..5",
    " 9 PASS  weighted rings compare; components vanish as predicted",
    "        9 weighted fixtures compare over both weighted rings; component vanishing lands exactly as predicted",
    "10 PASS  monoidal structure map and braiding",
    "        exhaustive braid check on interfaces up to 2 arcs with the (-1)^(kk') pattern; 5 disjoint pairs commute with the structure map up to sign",
    "11 PASS  capped generator counts and weak balance",
    "        22 capped entries equal signed generator counts; weak balance matches equal circle counts throughout",
    "12 PASS  lift changes scale the matrix by the expected unit",
    "        every single-circle reweight is one exact unit (h on alpha, 1/h on beta); the four boundary cases give (h, 1/h, 1, 1/h)",
    "selftest: 12/12 passed (seed 0)",
]) + "\n"


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
        assert ("invalid JSON" if points is None
                else "boundary_left.components[].points") in err

    @pytest.mark.parametrize("pair", [[0, 1, 2], [0], 0, {"p": 0}])
    def test_matching_entry_must_be_a_pair(self, capsys, tmp_path, fxdir,
                                           pair):
        p = tmp_path / "bad.json"
        doc = json.loads((fxdir / "identity_n1.json").read_text())
        doc["boundary_left"]["matching"] = [pair]
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "boundary_left.matching[]" in err

    @pytest.mark.parametrize("edit", [
        {"circles": "AB"},
        {"circles": [{"x": 1}]},
        {"alpha id": 5},
        {"beta id": {"x": 1}},
        {"point beta": 1},
        {"beta role": 5},
    ], ids=["circles-text", "circle-object", "alpha-id-number",
            "beta-id-object", "point-beta-number", "beta-role-number"])
    def test_curve_ids_must_be_strings(self, capsys, tmp_path, fxdir, edit):
        """Curve ids and beta roles are JSON strings and alpha.circles a
        list; each edit
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
        if "beta role" in edit:
            doc["beta"]["circles"][0]["role"] = 5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not a string" in err or "is not a list" in err

    @pytest.mark.parametrize("path, value, message", [
        (("boundary_left", "matching"), 5,
         "boundary_left.matching 5 is not a list"),
        (("boundary_left", "components"), 5,
         "boundary_left.components 5 is not a list"),
        (("points",), 5, "points 5 is not a list"),
        (("beta",), {"circles": 5}, "beta.circles 5 is not a list"),
        (("alpha",), {"out": 5}, "alpha.out 5 is not a list"),
        (("points", 0, "weight"), 5, "points[].weight 5 is not a string"),
        (("boundary_left", "components", 0, "kind"), None,
         "missing kind in boundary_left.components[]"),
        (("points", 0, "weight"), "x" * 10**6,
         "points[].weight: malformed factor 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ], ids=["matching", "components", "points", "beta-circles", "alpha-out",
            "weight", "component-kind", "weight-1mb"])
    def test_refusal_names_the_field_path(self, capsys, tmp_path, fxdir,
                                          path, value, message):
        """One field of a valid file edited (None: deleted) ends in exit 1
        and one error line naming the field by its path."""
        doc = json.loads((fxdir / "identity_n1.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert (code, out) == (1, "")
        assert err == f"error: {p}: {message}\n"

    @pytest.mark.parametrize("edit", ["faulty-points", "alpha-1mb",
                                      "role-1mb", "orient-1mb"])
    def test_hostile_diagram_is_one_short_line(self, capsys, tmp_path, fxdir,
                                               edit):
        """MAX_POINTS faulty points, or a 1 MB alpha id, role tag or
        orientation: the first fault alone, quoted short, ends in exit 1."""
        h = loads((fxdir / "identity_n1.json").read_text())
        doc = json.loads(dumps(D.normalize(h)))
        big = "x" * 10**6
        if edit == "faulty-points":
            doc["points"] = [{"alpha": "A", "beta": "B", "sign": 5}] * D.MAX_POINTS
        elif edit == "alpha-1mb":
            doc["points"][0]["alpha"] = big
        elif edit == "role-1mb":
            doc["beta"]["circles"][1]["role"] = big
        else:
            doc["alpha"]["out"][0]["orient"] = big
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1
        assert len(err.encode()) < 200
        assert "malformed diagram data" not in err

    @pytest.mark.parametrize("row, tag", [
        (1, "core\n"), (0, "newOut(1)\n"), (2, "newIn(01)"),
        (2, "newIn(١)"), (2, "newIn(" + "1" * 5000 + ")"),
    ], ids=["core-newline", "newOut-newline", "leading-zero", "arabic-digit",
            "index-5000-digits"])
    def test_role_tags_are_exact_strings(self, capsys, tmp_path, fxdir,
                                         row, tag):
        """A role tag other than the exact strings newOut(j), core and
        newIn(i) is refused by name and row."""
        h = loads((fxdir / "identity_n1.json").read_text())
        doc = json.loads(dumps(D.normalize(h)))
        doc["beta"]["circles"][row]["role"] = tag
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(p)])
        assert (code, out) == (1, "")
        assert err == (f"error: {p}: role {reprlib.repr(tag)} of beta row "
                       f"{row} breaks the run newOut(1..), core, newIn(1..)\n")

    def test_integer_past_int_limit_is_invalid_json(self, capsys, tmp_path,
                                                     fxdir):
        """A JSON integer longer than int() converts is refused in one line
        that names the limit, not in Python's own message."""
        doc = json.loads((fxdir / "identity_n1.json").read_text())
        doc["points"][0]["sign"] = 0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc).replace('"sign": 0', '"sign": '
                                             + "1" * 5000, 1))
        code, out, err = run(capsys, ["validate", str(p)])
        assert (code, out) == (1, "")
        assert err == (f"error: {p}: invalid JSON: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["bsda", "/nonexistent/x.json"])
        assert code == 1
        assert "cannot read" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff{}")
        code, out, err = run(capsys, ["validate", str(p)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {p}: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, target, errno_", [
        (["normalize", "{fx}/identity_n1.json", "--output"], "{tmp}/none/x.json",
         errno.ENOENT),
        (["glue", "{fx}/identity_n1.json", "{fx}/identity_n1.json", "--output"],
         "{tmp}", errno.EISDIR),
        (["fixtures", "--output"], "{tmp}/file.json/out", errno.ENOTDIR),
    ], ids=["missing-dir", "is-a-dir", "not-a-dir"])
    def test_write_failure_is_one_line(self, capsys, tmp_path, fxdir, argv,
                                       target, errno_):
        (tmp_path / "file.json").write_text("{}")
        target = target.format(tmp=tmp_path)
        argv = [a.format(fx=fxdir) for a in argv] + [target]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: {os.strerror(errno_)}\n"

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


TOP_HELP = """\
usage: bsfloer [-h] verb ...

exact bordered sutured invariants from combinatorial Heegaard diagram files

positional arguments:
  verb
    validate  check a diagram file and summarize it
    generators
              list the generators of a diagram
    bsda      print the invariant matrix
    alexander
              print the determinant functor matrix
    fn        print the sutured TQFT data and map
    glue      glue two diagrams along the shared interface
    disjoint  disjoint union of two diagrams
    normalize
              promote boundary arcs to circles with fresh arc pairs
    cap       close a diagram along chosen arc subsets (normalizing first when
              needed)
    selftest  run the twelve acceptance checks
    fixtures  list shipped fixtures, or write them as JSON files

options:
  -h, --help  show this help message and exit
"""


class TestUsageSurface:
    """Help, usage lines and usage errors, byte for byte at 80 columns.  The
    error texts are argparse's own (CPython 3.11 wording)."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def help_of(capsys, parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_verb_help_is_the_subparser_help(self, capsys, verb):
        full = self.help_of(
            capsys, lambda: cli.build_parser().parse_args([verb, "-h"]))
        assert full.startswith(f"usage: bsfloer {verb} [-h]")
        assert self.help_of(capsys, lambda: main([verb, "-h"])) == full

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: bsfloer [-h] verb ..."),
        (["bsda", "-h"],
         "usage: bsfloer bsda [-h] [--ring {z,zh,zg,qh}] [--json] file"),
        (["cap", "-h"],
         "usage: bsfloer cap [-h] [--in I] [--out J] [--output OUTPUT] file"),
        (["alexander", "-h"], "usage: bsfloer alexander [-h] "
                              "[--ring {z,zg,qh}] [--json] [--compare] file"),
        (["fixtures", "-h"], "usage: bsfloer fixtures [-h] [--output DIR]"),
    ])
    def test_help_usage_line(self, capsys, argv, usage):
        out = self.help_of(capsys, lambda: main(argv))
        assert out.splitlines()[0] == usage
        if argv == ["-h"]:
            assert out == TOP_HELP

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: verb"),
        (["frobnicate"], "argument verb: invalid choice: 'frobnicate' "
                         "(choose from 'validate', 'generators', 'bsda', "
                         "'alexander', 'fn', 'glue', 'disjoint', 'normalize', "
                         "'cap', 'selftest', 'fixtures')"),
        (["--version"], "the following arguments are required: verb"),
        (["bsda"], "the following arguments are required: file"),
        (["bsda", "x", "--ring", "zz"],
         "argument --ring: invalid choice: 'zz' "
         "(choose from 'z', 'zh', 'zg', 'qh')"),
        (["bsda", "x", "extra"], "unrecognized arguments: extra"),
        (["bsda", "--ring"], "argument --ring: expected one argument"),
        (["selftest", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["glue", "a"], "the following arguments are required: right"),
        (["validate", "--bogus", "x"], "unrecognized arguments: --bogus"),
        (["cap", str(SHIPPED / "identity_n1.json"), "--in", "a,b"],
         "subset must be comma-separated integers, got 'a,b'"),
        # refused before the file is read: a missing file gives the same line
        (["alexander", str(SHIPPED / "bordered_mixed.json"), "--compare",
          "--json"], "--json and --compare cannot be combined"),
        (["alexander", "missing.json", "--json", "--compare"],
         "--json and --compare cannot be combined"),
    ])
    def test_usage_error_line(self, capsys, argv, message):
        assert run(capsys, argv) == (64, "", f"usage error: {message}\n")

    def test_one_shot_process_help(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
        proc = subprocess.run([sys.executable, "-m", "bsfloer.cli", "bsda",
                               "-h"], capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout.decode() == (
            "usage: bsfloer bsda [-h] [--ring {z,zh,zg,qh}] [--json] file\n"
            "\n"
            "positional arguments:\n"
            "  file\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --ring {z,zh,zg,qh}\n"
            "  --json\n")


class TestDispatch:
    def test_a_named_verb_never_builds_the_full_parser(self, capsys,
                                                       monkeypatch, tmp_path):
        def full_parser():
            raise AssertionError("build_parser called for a named verb")

        monkeypatch.setattr(cli, "build_parser", full_parser)
        fx = str(SHIPPED / "identity_n1.json")
        out = str(tmp_path / "out.json")
        cases = {
            "validate": ([fx], 0),
            "generators": ([fx], 0),
            "bsda": ([fx, "--ring", "zh"], 0),
            "alexander": ([fx, "--compare"], 0),
            "fn": ([fx], 0),
            "glue": ([fx, fx, "--output", out], 0),
            "disjoint": ([fx, fx, "--output", out], 0),
            "normalize": ([fx, "--bogus"], 64),
            "cap": ([fx, "--in", "a,b"], 64),
            "selftest": (["--seed", "x"], 64),
            "fixtures": ([], 0),
        }
        assert list(cases) == list(cli.VERBS)
        for verb, (rest, code) in cases.items():
            assert run(capsys, [verb, *rest])[0] == code, verb

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        fx = str(SHIPPED / "identity_n1.json")
        expected = run(capsys, ["validate", fx])
        monkeypatch.setattr(sys, "argv", ["bsfloer", "validate", fx])
        assert run(capsys, None) == expected
        assert expected[0] == 0 and expected[1].endswith("ok\n")


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
        # one SNF of the core rows and one elimination of the readings,
        # whose pivots give the kernel rank and whose echelon gives the
        # kernel element and the pairing map; no integer_rank besides
        import bsfloer.homology as homology
        import bsfloer.rings as rings

        calls = []
        for name in ("smith_normal_form", "integer_rank", "_bareiss"):
            def counting(entries, name=name, real=getattr(rings, name)):
                calls.append(name)
                return real(entries)

            if name != "_bareiss":
                monkeypatch.setattr(rings, name, counting)
            monkeypatch.setattr(homology, name, counting)
        code, out, _ = run(capsys, ["fn", str(fxdir / "bordered_mixed.json")])
        assert code == 0
        assert sorted(calls) == ["_bareiss", "smith_normal_form"]
        assert out == FN_BORDERED_MIXED

    def test_fn_answers_a_wide_kernel(self, capsys, tmp_path, wide_diagrams):
        # draw 8 of the wide family: 22 out-arcs and 6 betas, a kernel basis
        # of 19 dense vectors in Z^22 whose raw wedge state sum would pass
        # MAX_STATES at its middle rows; its echelon form reaches at most
        # C(22, 19) = 1,540 masks
        h = wide_diagrams[8]
        assert (len(h.alpha_out), len(h.beta_circles)) == (22, 6)
        path = tmp_path / "wide8.json"
        path.write_text(dumps(h))
        code, out, err = run(capsys, ["fn", str(path)])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("against the matrix: PASS")

    def test_fn_never_normalizes(self, capsys, monkeypatch):
        # the header's shape and both maps come from the normalized
        # incidence of h, so no normalized diagram is built
        import bsfloer.diagram as diagram

        calls = []
        build = diagram.normalize

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        # every module that imported the function by name
        for name, mod in list(sys.modules.items()):
            if name.startswith("bsfloer") and vars(mod).get(
                    "normalize") is build:
                monkeypatch.setattr(mod, "normalize", counting)
        code, out, _ = run(capsys, ["fn", str(SHIPPED / "bordered_mixed.json")])
        assert code == 0
        assert calls == []
        assert out == FN_BORDERED_MIXED

    def test_alexander_compare_evaluates_once(self, capsys, monkeypatch):
        # the printed map is the one the comparison already evaluated on
        # the normalized incidence of h, so it is not computed twice, and
        # h is never normalized as a diagram
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
        assert calls == ["alexander_functor"]
        assert out == ("ring: Q[H](r=0,m=3)\n"
                       "degree: 0\n"
                       "out{} <- in{}: [d=1] 3; [d=3] 0\n"
                       "unit: [d=1] 1; [d=3] 1\n")

    def test_alexander_compare_on_a_normalized_file(self, capsys, tmp_path):
        # the file is already normalized, so the printed map is its own
        # functor and the unit compares the file itself, in the library as
        # in the CLI; normalize(h) is h itself, with that same unit
        h = D.normalize(random_diagram(random.Random(9), D.GroupDescriptor(0)))
        path = tmp_path / "normalized.json"
        path.write_text(dumps(h))
        D.normalized_roles(loads(path.read_text()))     # a normalize output
        code, out, _ = run(capsys, ["alexander", "--compare", "--ring", "z",
                                    str(path)])
        rep = compare_bsda_alexander(h, "z")
        ok, own = X.eq_up_to_global_unit(alexander_functor(h, "z"),
                                         bsda_map(h, "z"))
        assert code == 0 and ok and rep.match and rep.unit == own
        assert out.splitlines()[-1] == f"unit: {cli._unit_str(R.ZZ, own)}"
        assert D.normalize(h) is h
        assert own == compare_bsda_alexander(D.normalize(h), "z").unit

    def test_alexander_compare_fail_on_a_normalized_file(self, capsys,
                                                         tmp_path, monkeypatch):
        h = D.normalize(random_diagram(random.Random(9), D.GroupDescriptor(0)))
        path = tmp_path / "normalized.json"
        path.write_text(dumps(h))
        # the wrong sign fails the exact test, then the search fails too
        parity = A._sign_parity
        monkeypatch.setattr(A, "_sign_parity", lambda inc: 1 - parity(inc))
        monkeypatch.setattr(X, "eq_up_to_global_unit", lambda g, f: (False, None))
        code, out, _ = run(capsys, ["alexander", "--compare", str(path)])
        assert code == 2
        assert out.splitlines()[-1] == (
            "FAIL: no single unit relates the two matrices")

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

    def test_selftest_seed0_table_is_pinned(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--seed", "0"])
        assert code == 0
        assert out == SELFTEST_SEED0

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

    def test_shipped_fixtures_match_their_builders(self, capsys, tmp_path):
        # the goldens read the shipped files, so they must be exactly what
        # the builders write today
        code, _, _ = run(capsys, ["fixtures", "--output", str(tmp_path)])
        assert code == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(p.name for p in SHIPPED.iterdir())
        for name in written:
            assert (tmp_path / name).read_bytes() == \
                (SHIPPED / name).read_bytes(), name


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

    @pytest.mark.parametrize("argv", [["generators"], ["alexander"],
                                      ["bsda", "--ring", "zh"]],
                             ids=["generators", "alexander", "bsda-zh"])
    def test_state_sums_stop_at_the_budget(self, capsys, dense24, argv):
        code, out, err = run(capsys, [argv[0], str(dense24[1]), *argv[1:]])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: state sum over the budget "
                              f"MAX_STATES = {R.MAX_STATES}: ")
        assert "live states at row" in err

    def test_validate_reports_the_budget(self, capsys, dense24):
        # a valid file whose generators cannot be counted is still ok
        rows, path = dense24
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[-1] == "ok"
        assert lines[-2].startswith("generators: not counted (state sum over "
                                    "the budget MAX_STATES = "
                                    f"{R.MAX_STATES}: ")
        assert lines[-2].endswith(")")
        assert lines[:-2] == [
            "boundaries: 0 outgoing arc(s), 0 incoming arc(s)",
            "alpha circles: 24; beta circles: 24; points: "
            f"{sum(abs(x) for row in rows for x in row)}",
            "group: free rank 0, torsion order 1", "degree: 0"]

    def test_kernel_wedge_stops_at_the_budget(self, capsys, tmp_path):
        # 20 out-arcs and 10 beta circles that meet each of them: the kernel
        # basis is K = 10 dense vectors in Z^20, whose wedge passes through
        # C(20, 10) = 184,756 partial minors, so fn stops at the wedge's
        # 10-row state sum, before the 30-row one of the invariant
        rng = random.Random(1)
        g = R.GroupDescriptor(0)
        outs = [f"o{j}" for j in range(20)]
        pts = [D.Point(o, f"B{i}", rng.choice((1, -1)), g.identity())
               for i in range(10) for o in outs]
        h = D.make_diagram(g, D.interval_arcs(20), None,
                           [(o, "same") for o in outs], [], [],
                           [(f"B{i}", None) for i in range(10)], pts)
        path = tmp_path / "dense_out20.json"
        path.write_text(dumps(h))
        code, out, err = run(capsys, ["fn", str(path)])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: kernel wedge: state sum over the budget "
                              f"MAX_STATES = {R.MAX_STATES}: ")
        assert err.endswith(" of 10\n")

    def test_invariant_budget_error_has_no_prefix(self, capsys, tmp_path,
                                                  wide_diagrams):
        # draw 7 of the wide family: the kernel wedge answers, and fn stops
        # in the invariant's own state sum, whose error keeps its plain form
        path = tmp_path / "wide7.json"
        path.write_text(dumps(wide_diagrams[7]))
        code, out, err = run(capsys, ["fn", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: state sum over the budget MAX_STATES = "
                       f"{R.MAX_STATES}: 65538 live states at row 23 of 28\n")

    def test_smith_normal_form_stops_at_the_budget(self, capsys, tmp_path):
        # the core Smith normal form of this closed 7 x 7 diagram grows its
        # entries without end: fn stops at MAX_SNF_BITS in one error line,
        # while bsda, which takes no Smith normal form, prints the
        # determinant
        rows = [[4, 3, 2, -3, -3, 2, 2], [4, -2, 4, 2, 0, -3, -2],
                [-3, -2, 3, 3, 0, -2, -2], [-3, 3, -4, -4, -4, -4, 2],
                [-4, 0, 0, -2, 4, 0, 2], [4, -3, -4, 4, -4, 0, 3],
                [0, -4, 3, -4, 2, 3, -4]]
        path = tmp_path / "snf7.json"
        path.write_text(dumps(ordinary_from_matrix(rows)))
        start = time.perf_counter()
        code, out, err = run(capsys, ["fn", str(path)])
        assert time.perf_counter() - start < 20
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: Smith normal form over the budget "
                              f"MAX_SNF_BITS = {R.MAX_SNF_BITS}: an entry of ")
        det = rational_det(rows)
        assert det == -305468
        code, out, err = run(capsys, ["bsda", str(path)])
        assert (code, err) == (0, "")
        assert out == f"ring: Z\ndegree: 0\nout{{}} <- in{{}}: {det}\n"

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
