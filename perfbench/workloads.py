"""The four workloads: seeded inputs parsed by the library, the timed
operations, and the oracle that checks each operation's result.

Library functions are always reached through their module objects (B.bsda_z,
not a name imported by value) so that the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable

import inputs as I
from bsfloer import alexander as A
from bsfloer import bsda as B
from bsfloer import cli as C
from bsfloer import diagram as D
from bsfloer import exterior as X
from bsfloer import homology as H
from bsfloer import rings as R

WORKLOADS = ("dense_closed", "weighted_functor", "bordered_chains",
             "cli_fixtures")

# Per round: 4 diagrams at n = 4, 8 at n = 5 and 2 at n = 6.  Every diagram
# of one size costs about the same, so the median lands inside the n = 5
# operations and p90 inside the n = 6 ones, away from the class edges.
DENSE_MIX = ((4, 4), (5, 8), (6, 2))
WEIGHTED_COUNT = 648  # every group, arc count and curve count combination
# Two chains per arc count and pattern, which differ in their signs.  Costs
# are fixed by the shape, so the median lands among the k = 4 chains and
# p90 among the k = 5 ones.
CHAIN_ARCS = (3, 4, 5)
CHAIN_COPIES = 2


@dataclass
class Op:
    """run() is timed; check(value) is the oracle, run outside the timer."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def canonical_digest(text: str) -> str:
    """Digest of a JSON document that ignores layout and key order."""
    obj = json.loads(text)
    return sha256(json.dumps(obj, sort_keys=True))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# inputs: generated from the seed, then parsed by the library


def load(name: str, seed: int, workdir: str):
    """Everything set-up does: build the seeded documents and parse them with
    diagram.loads.  cli_fixtures also writes them to files in workdir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "dense_closed":
        out = []
        for n, count in DENSE_MIX:
            for _ in range(count):
                m = I.dense_matrix(rng, n)
                out.append((m, D.loads(I.text(I.closed_doc(m)))))
        return out
    if name == "weighted_functor":
        return [D.loads(I.text(d)) for d in I.weighted_docs(rng, WEIGHTED_COUNT)]
    if name == "bordered_chains":
        return [[D.loads(I.text(d)) for d in I.chain_docs(rng, k, pattern)]
                for k in CHAIN_ARCS for pattern in I.CHAIN_PATTERNS
                for _ in range(CHAIN_COPIES)]
    if name == "cli_fixtures":
        return load_cli(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


def operations(name: str, loaded, seed: int, workdir: str, root: str) -> list:
    if name == "dense_closed":
        return [dense_op(m, h) for m, h in loaded]
    if name == "weighted_functor":
        return [weighted_op(i, h) for i, h in enumerate(loaded)]
    if name == "bordered_chains":
        return [chain_op(i, pieces) for i, pieces in enumerate(loaded)]
    if name == "cli_fixtures":
        return cli_ops(loaded, seed, workdir, root)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# dense_closed: the invariant of a closed diagram is a determinant


def dense_op(matrix, h) -> Op:
    want = R.det_exact(R.ZZ, matrix)

    def check(f):
        return (f.entries.get(((), ()), 0) == want
                and (want == 0) == f.is_zero())

    return Op(f"bsda_z n={len(matrix)}", lambda: B.bsda_z(h), check)


# ---------------------------------------------------------------------------
# weighted_functor: invariant against the Alexander functor over Z[G], Q[H]


def weighted_op(i: int, h) -> Op:
    def run():
        return (A.compare_bsda_alexander(h, "zg").match,
                A.compare_bsda_alexander(h, "qh").match)

    return Op(f"compare #{i}", run, lambda v: v == (True, True))


# ---------------------------------------------------------------------------
# bordered_chains: gluing, normalization and disjoint union


def chain_op(i: int, pieces) -> Op:
    def run():
        glued = reduce(D.glue, pieces)
        f = B.bsda_z(glued)
        maps = [B.bsda_z(p) for p in pieces]
        glue_ok = X.eq_up_to_global_unit(f, reduce(X.compose, maps))[0]
        hn = D.normalize(glued)
        fn = B.bsda_z(hn)
        norm_ok = X.eq_up_to_global_unit(fn, f)[0]
        sut_ok = X.eq_up_to_global_unit(H.vfn_sut(hn), fn)[0]
        pair = B.bsda_z(D.disjoint(pieces[0], pieces[1]))
        tensor_ok = X.eq_up_to_global_unit(
            pair, X.super_tensor(maps[0], maps[1]))[0]
        return glue_ok, norm_ok, sut_ok, tensor_ok

    return Op(f"chain #{i} of {len(pieces)}", run, all)


# ---------------------------------------------------------------------------
# scaling curves, for the traced run


def curve_ops(seed):
    """One Op per curve point, named after its layer metric: dense closed
    n = 3..7, normalized identity on k = 1..7 arcs, identity chains of
    length 2..4 on k = 3..5 arcs."""

    def is_identity(f, k):
        ok, unit = X.eq_up_to_global_unit(f, X.identity_map(R.ZZ, k))
        return ok and unit in (1, -1)

    rng = random.Random(f"curves:{seed}")
    ops = []
    for n in range(3, 8):
        m = I.dense_matrix(rng, n)
        op = dense_op(m, D.loads(I.text(I.closed_doc(m))))
        ops.append(Op(f"bsda.bsda_z.ms.n{n}", op.run, op.check))
    for k in range(1, 8):
        h = D.normalize(D.loads(I.text(I.identity_doc(k))))
        ops.append(Op(f"bsda.bsda_z.ms.k{k}", lambda h=h: B.bsda_z(h),
                      lambda f, k=k: is_identity(f, k)))
    for length in range(2, 5):
        for k in range(3, 6):
            piece = D.loads(I.text(I.identity_doc(k)))
            glued = reduce(D.glue, [piece] * length)
            ops.append(Op(f"bsda.bsda_z.ms.L{length}k{k}",
                          lambda h=glued: B.bsda_z(h),
                          lambda f, k=k: is_identity(f, k)))
    return ops


# ---------------------------------------------------------------------------
# cli_fixtures: the command line, in process


READ_VERBS = (
    ("validate",),
    ("generators",),
    ("bsda", "--ring", "z"),
    ("bsda", "--ring", "zh"),
    ("bsda", "--ring", "zg"),
    ("bsda", "--ring", "qh"),
    ("bsda", "--ring", "z", "--json"),
    ("bsda", "--ring", "qh", "--json"),
    ("alexander", "--compare"),
    ("fn",),
)
# Weighted rings are compared on the fixtures whose weights they see, and
# on identity_n4, whose Q[H] comparison is the slow case users hit.
WEIGHTED_COMPARE = ("annulus_n2_weighted", "annulus_n3_weighted",
                    "weighted_free2", "weighted_torsion3",
                    "torsion_vanishing", "bordered_mixed", "identity_n4")
GLUE_PAIRS = (("halfproj_left", "halfproj_right"),
              ("identity_n2", "identity_n2"),
              ("identity_n3", "identity_n3"),
              ("braid_swap", "braid_swap"),
              ("bordered_mixed", "bordered_mixed"),
              ("identity_n1", "infinite_h1"))
DISJOINT_PAIRS = (("identity_n1", "annulus_n2"),
                  ("mixed_2x2", "identity_n2"),
                  ("braid_swap", "identity_n1"),
                  ("bordered_mixed", "annulus_n3_weighted"))
MALFORMED = {
    "bad_syntax.json": "{\"group\": ",
    "bad_field.json": json.dumps({"group": {"free_rank": 0}, "colour": 1}),
    "bad_point.json": json.dumps({"alpha": {"circles": ["A1"]},
                                  "beta": {"circles": [{"id": "B1"}]},
                                  "points": [{"alpha": "A1", "beta": "B9",
                                              "sign": 1}]}),
    "bad_weight.json": json.dumps({"group": {"free_rank": 1},
                                   "alpha": {"circles": ["A1"]},
                                   "beta": {"circles": [{"id": "B1"}]},
                                   "points": [{"alpha": "A1", "beta": "B1",
                                               "sign": 1, "weight": "2*t1"}]}),
}


def fixture_names(root: str) -> list:
    return sorted(f[:-5] for f in os.listdir(os.path.join(root, "fixtures"))
                  if f.endswith(".json"))


def fixture_commands(root: str, workdir: str) -> list:
    """(golden key, argv, output path or None) for every command on the
    shipped fixtures.  The key writes paths relative to the fixture folder
    and the output file as <out>, so it does not depend on where it runs."""
    def fx(name):
        return os.path.join(root, "fixtures", f"{name}.json")

    cmds = []
    for name in fixture_names(root):
        for verb in READ_VERBS:
            cmds.append((" ".join((verb[0], f"{name}.json") + verb[1:]),
                         [verb[0], fx(name), *verb[1:]], None))
        if name in WEIGHTED_COMPARE:
            for ring in ("zg", "qh"):
                cmds.append((f"alexander {name}.json --ring {ring} --compare",
                             ["alexander", fx(name), "--ring", ring,
                              "--compare"], None))
        for verb in ("normalize", "cap"):
            out = os.path.join(workdir, f"{verb}_{name}.json")
            cmds.append((f"{verb} {name}.json --output <out>",
                         [verb, fx(name), "--output", out], out))
    for verb, pairs in (("glue", GLUE_PAIRS), ("disjoint", DISJOINT_PAIRS)):
        for left, right in pairs:
            out = os.path.join(workdir, f"{verb}_{left}_{right}.json")
            cmds.append((f"{verb} {left}.json {right}.json --output <out>",
                         [verb, fx(left), fx(right), "--output", out], out))
    return cmds


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = C.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_cli(rng: random.Random, workdir: str) -> list:
    """Write and parse the seeded files: a dense closed diagram, two weighted
    pieces and a split piece; also write the malformed files.  Returns
    (path, diagram) pairs."""
    docs = [I.closed_doc(I.dense_matrix(rng, 4))]
    docs += I.weighted_docs(rng, 2)
    docs += I.chain_docs(rng, 3, ("split",))
    generated = []
    for i, doc in enumerate(docs):
        path = os.path.join(workdir, f"gen_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(I.text(doc))
        generated.append((path, D.loads(read_text(path))))
    for fname, body in MALFORMED.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(body)
    return generated


def load_goldens(root: str) -> dict:
    with open(os.path.join(root, "perfbench", "goldens.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def map_text(f) -> str:
    """The text form the bsda verb prints, from the library's own parts."""
    lines = [f"ring: {f.ring.name}", f"degree: {f.degree}"]
    lines += X.map_lines(f) if f.entries else ["zero map"]
    return "\n".join(lines) + "\n"


def map_json(f) -> str:
    entries = [{"in": list(i), "out": list(j), "value": f.ring.to_str(f.entries[(i, j)])}
               for i, j in sorted(f.entries, key=lambda k: (X.sort_key(k[0]),
                                                            X.sort_key(k[1])))]
    return json.dumps({"degree": f.degree, "entries": entries}, indent=2,
                      sort_keys=True) + "\n"


def validate_text(h) -> str:
    return "\n".join([
        f"boundaries: {h.n1} outgoing arc(s), {h.n0} incoming arc(s)",
        f"alpha circles: {h.a}; beta circles: {h.b}; points: {len(h.points)}",
        (f"group: free rank {h.group.free_rank}, "
         f"torsion order {h.group.torsion_order}"),
        f"degree: {h.degree}",
        f"generators: {len(B.enumerate_generators(h))}",
        "ok",
    ]) + "\n"


def expect(code, stdout=None, digest=None, out_path=None, file_digest=None,
           error_line=False, last_line=None):
    """Oracle for one CLI run: exit code, then stdout by text or digest, an
    output file by canonical digest, or a single error line on stderr."""
    def check(result):
        got_code, out, err = result
        if got_code != code:
            return False
        if stdout is not None and out != stdout:
            return False
        if digest is not None and sha256(out) != digest:
            return False
        if out_path is not None:
            if out != f"wrote {out_path}\n":
                return False
            if canonical_digest(read_text(out_path)) != file_digest:
                return False
        if error_line and (out or not err.startswith("error: ")
                           or err.count("\n") != 1):
            return False
        if last_line is not None and out.rstrip("\n").split("\n")[-1] != last_line:
            return False
        return True

    return check


def cli_op(label, argv, check) -> Op:
    return Op(label, lambda: run_cli(argv), check)


def cli_ops(loaded, seed: int, workdir: str, root: str) -> list:
    goldens = load_goldens(root)
    ops = []
    for key, argv, out_path in fixture_commands(root, workdir):
        g = goldens[key]
        ops.append(cli_op(key, argv, expect(
            g["code"], digest=g["stdout"], out_path=out_path,
            file_digest=g["file"])))
    # seeded files: stdout must match what the library gives directly
    for path, h in loaded:
        base = os.path.basename(path)
        ops.append(cli_op(f"validate {base}", ["validate", path],
                          expect(0, stdout=validate_text(h))))
        ops.append(cli_op(f"bsda {base}", ["bsda", path],
                          expect(0, stdout=map_text(A.bsda_map(h, "z")))))
        ops.append(cli_op(f"bsda {base} --ring qh --json",
                          ["bsda", path, "--ring", "qh", "--json"],
                          expect(0, stdout=map_json(A.bsda_map(h, "qh")))))
        out = os.path.join(workdir, f"normalize_{base}")
        ops.append(cli_op(f"normalize {base}", ["normalize", path, "--output", out],
                          expect(0, out_path=out, file_digest=canonical_digest(
                              D.dumps(D.normalize(h))))))
    for fname in (*MALFORMED, "missing.json"):
        path = os.path.join(workdir, fname)
        ops.append(cli_op(f"validate {fname}", ["validate", path],
                          expect(1, error_line=True)))
    ops.append(cli_op(f"selftest --seed {seed}", ["selftest", "--seed", str(seed)],
                      expect(0, last_line=f"selftest: 12/12 passed (seed {seed})")))
    return ops
