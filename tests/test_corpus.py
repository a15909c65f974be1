"""scripts/run_corpus.py at a small size: the engine, closed, core and every
other sweep it runs must hold, so a mismatch there fails the test suite
and not only a manual run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_small_corpus_sweep_holds():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_corpus.py"),
         "--pairs", "40", "--per-ring", "40"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "corpus sweep: all identities held"
