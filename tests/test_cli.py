"""Command line behavior: exit codes, deterministic output, JSON shape,
and the fixture round-trip."""

import itertools
import json
import time

import pytest

from bsfloer.alexander import CompareReport
from bsfloer.cli import main
from bsfloer.diagram import dumps, loads
from bsfloer.fixtures import fixture_library, ordinary_from_matrix
from bsfloer.selftest import CriterionResult


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

        def fake(h, tag):
            return CompareReport(tag, False, None, None, None)

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

    def test_fn_reports_pass(self, capsys, fxdir):
        code, out, _ = run(capsys, ["fn", str(fxdir / "mixed_2x2.json")])
        assert code == 0
        assert "PASS" in out
        assert "torsion prefactor: 2" in out

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
