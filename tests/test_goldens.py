"""Replay every CLI command of perfbench/goldens.json on the shipped fixtures.

The benchmark's cli_fixtures workload checks these digests on every round;
replaying them here makes a byte change in CLI output fail the test suite
too.  perfbench/ is only read: its command list, runner and digests.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads as W  # noqa: E402


def test_every_golden_command_prints_its_recorded_bytes(tmp_path):
    goldens = W.load_goldens(ROOT)
    commands = W.fixture_commands(ROOT, str(tmp_path))
    assert sorted(key for key, _, _ in commands) == sorted(goldens)
    assert len(commands) == 336
    wrong = []
    for key, argv, out_path in commands:
        g = goldens[key]
        check = W.expect(g["code"], digest=g["stdout"], out_path=out_path,
                         file_digest=g["file"])
        if not check(W.run_cli(argv)):
            wrong.append(key)
    assert wrong == []
