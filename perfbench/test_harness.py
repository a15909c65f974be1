"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.bootstrap()
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from bsfloer import alexander as A  # noqa: E402
from bsfloer import bsda as B  # noqa: E402
from bsfloer import exterior as X  # noqa: E402
from bsfloer import rings as R  # noqa: E402

SMALL = {"dense_closed": 4, "weighted_functor": 24, "bordered_chains": 3,
         "cli_fixtures": 12}


def inputs(name, seed, tmp_path):
    """Comparable form of a workload's parsed inputs."""
    workdir = tmp_path / f"{name}-{seed}-{len(os.listdir(tmp_path))}"
    workdir.mkdir()
    loaded = W.load(name, seed, str(workdir))
    if name == "cli_fixtures":
        return [h for _, h in loaded]
    return loaded


def traced_counts(name, seed, tmp_path):
    """Count metrics of one traced pass over the first ops of a workload."""
    workdir = tmp_path / f"trace-{name}-{seed}-{len(os.listdir(tmp_path))}"
    workdir.mkdir()
    loaded = W.load(name, seed, str(workdir))
    ops = W.operations(name, loaded, seed, str(workdir), run.ROOT)[:SMALL[name]]
    tr = T.Tracer()
    tr.install()
    try:
        _, failed = run.run_round(ops, run.Speed())
    finally:
        tr.uninstall()
    assert not failed
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]
                 if m["unit"] == "count" and not m["name"].startswith("src.")]
    return {n: tr.value(n) for n in names}


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    assert inputs(name, 7, tmp_path) == inputs(name, 7, tmp_path)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_other_seed_gives_other_inputs(name, tmp_path):
    assert inputs(name, 7, tmp_path) != inputs(name, 8, tmp_path)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_gives_identical_counts(name, tmp_path):
    first = traced_counts(name, 3, tmp_path)
    assert first == traced_counts(name, 3, tmp_path)
    assert any(first.values())


def test_tracer_patches_names_imported_by_value_and_restores_them():
    original = B.bsda_z
    tr = T.Tracer()
    tr.install()
    try:
        assert A.bsda_z is B.bsda_z is not original
    finally:
        tr.uninstall()
    assert A.bsda_z is B.bsda_z is original


def test_self_time_excludes_child_spans(tmp_path):
    (_, h), = W.load("dense_closed", 1, str(tmp_path))[:1]
    tr = T.Tracer()
    tr.install()
    try:
        B.bsda_z(h)
    finally:
        tr.uninstall()
    calls, total, own = tr.stats["bsda.bsda_z"]
    assert calls == 1 and 0 < own < total
    assert tr.value("bsda.generators") == tr.stats["bsda.gr_da"][0] > 0


def test_wrong_result_is_counted_not_raised(monkeypatch, tmp_path):
    loaded = W.load("dense_closed", 1, str(tmp_path))[:3]
    ops = W.operations("dense_closed", loaded, 1, str(tmp_path), run.ROOT)
    calls = []

    def wrong(h):
        calls.append(h)
        if len(calls) % 2:
            raise ArithmeticError("test double")
        return X.GradedMap(R.ZZ, 0, 0, 0, {((), ()): 12345})

    monkeypatch.setattr(B, "bsda_z", wrong)
    values, attempted, failed, _ = run.end_to_end(ops, 0, 1.0, run.Speed())
    assert attempted >= run.MIN_OPS
    assert len(failed) == attempted
    assert values["ops_per_s"] > 0
