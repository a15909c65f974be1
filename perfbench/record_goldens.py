#!/usr/bin/env python3
"""Record the CLI goldens that the cli_fixtures workload checks against.

Runs every command on the shipped fixtures once, in process, and writes
perfbench/goldens.json: per command its exit code and the SHA-256 of its
stdout or, for commands that write a file, of that file's canonical JSON.
Run it from the repository root, and only at a commit whose output is meant
to be the reference:

    python3 perfbench/record_goldens.py
"""

import json
import os
import shutil
import sys
import tempfile

import run

if __name__ == "__main__":
    run.bootstrap()
    import workloads as W

    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.OUT)
    try:
        goldens = {}
        for key, argv, out in W.fixture_commands(run.ROOT, workdir):
            code, stdout, _ = W.run_cli(argv)
            if out:  # stdout names the output path, so only the file counts
                goldens[key] = {"code": code, "stdout": None,
                                "file": W.canonical_digest(W.read_text(out))}
            else:
                goldens[key] = {"code": code, "stdout": W.sha256(stdout),
                                "file": None}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(goldens)} commands", file=sys.stderr)
