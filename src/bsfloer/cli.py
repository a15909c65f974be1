"""Command line front end.

Subcommands read diagrams from JSON files and print deterministic text, or
JSON with --json.  Exit status: 0 on success, 1 on input or validation
failure or when the reader of stdout has gone (a broken pipe, which ends
silently), 2 when a comparison reports FAIL, 64 on usage errors.

The verbs are one table, VERBS.  A call that names a verb builds only that
verb's parser; any other call builds the full parser from the same table.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import exterior as X
from .alexander import alexander_functor, bsda_map, compare_bsda_alexander
from .bsda import (bsda_z, enumerate_generators, generator_count, gr_da,
                   normalized_incidence)
from .diagram import cap, disjoint, dumps, glue, loads, normalize
from .fixtures import fixture_library
from .homology import k_element, vfn_sut
from .rings import ZZ
from .selftest import run_all


# the generators verb lists one line pair per generator; it counts them
# first (one state sum) and refuses to list more than this
MAX_GENERATORS = 100_000


class UsageError(Exception):
    pass


class CommandError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CommandError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CommandError(f"cannot read {path}: {e}")
    try:
        return loads(text)
    except ValueError as e:
        raise CommandError(f"{path}: {e}")


@contextmanager
def _writing(path):
    """An OSError from the block, which writes path, is one error line."""
    try:
        yield
    except OSError as e:
        raise CommandError(f"cannot write {path}: {e.strerror or e}")


def _parse_subset(text):
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        items = sorted({int(t) for t in text.split(",")})
    except ValueError:
        raise UsageError(f"subset must be comma-separated integers, got {text!r}")
    return tuple(items)


def _unit_str(ring, u):
    s = ring.to_str(u)
    if s.startswith("-") or s.startswith("["):
        return s
    return "+" + s


def _map_text(f):
    out = [f"ring: {f.ring.name}", f"degree: {f.degree}"]
    if f.is_zero():
        out.append("zero map")
    else:
        out.extend(X.map_lines(f))
    return out


def _map_json(f):
    entries = []
    for I, J in X.entry_order(f):
        entries.append({"in": list(I), "out": list(J),
                        "value": f.ring.to_str(f.entries[(I, J)])})
    return {"degree": f.degree, "entries": entries}


def _emit_diagram(h, output, comment=None):
    text = dumps(h, comment=comment)
    if output:
        with _writing(output), open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"wrote {output}", 0
    return text, 0


# subcommand bodies

def _cmd_validate(args):
    h = _load(args.file)
    out = [
        f"boundaries: {h.n1} outgoing arc(s), {h.n0} incoming arc(s)",
        f"alpha circles: {h.a}; beta circles: {h.b}; points: {len(h.points)}",
        (f"group: free rank {h.group.free_rank}, "
         f"torsion order {h.group.torsion_order}"),
        f"degree: {h.degree}",
    ]
    try:
        out.append(f"generators: {generator_count(h)}")
    except ValueError as e:     # the state sum's budget, on a valid file
        out.append(f"generators: not counted ({e})")
    out.append("ok")
    return "\n".join(out), 0


def _cmd_generators(args):
    h = _load(args.file)
    count = generator_count(h)
    if count > MAX_GENERATORS:
        raise CommandError(f"{count} generators exceed the listing budget "
                           f"MAX_GENERATORS = {MAX_GENERATORS}")
    gens = enumerate_generators(h)
    out = [f"generators: {len(gens)}"]
    for k, x in enumerate(gens):
        g = gr_da(h, x)
        pts = ", ".join(f"{p.alpha}*{p.beta}({'+' if p.sign > 0 else '-'})"
                        for p in x.points) or "(empty)"
        out.append(f"[{k}] {pts}")
        out.append(f"    in {X.subset_str(g.o_r)} -> out unoccupied "
                   f"{X.subset_str(g.obar_l)}, parity {g.total}")
    return "\n".join(out), 0


def _cmd_bsda(args):
    h = _load(args.file)
    f = bsda_map(h, args.ring)
    if args.json:
        return json.dumps(_map_json(f), indent=2, sort_keys=True), 0
    return "\n".join(_map_text(f)), 0


def _cmd_alexander(args):
    h = _load(args.file)
    if not args.compare:
        f = alexander_functor(h, args.ring)
        if args.json:
            return json.dumps(_map_json(f), indent=2, sort_keys=True), 0
        return "\n".join(_map_text(f)), 0
    rep = compare_bsda_alexander(h, args.ring)
    f, match, unit = rep.alexander, rep.match, rep.unit
    if not match:
        return "\n".join(_map_text(f) + [
            "FAIL: no single unit relates the two matrices"]), 2
    return "\n".join(_map_text(f) + [f"unit: {_unit_str(f.ring, unit)}"]), 0


def _cmd_fn(args):
    h = _load(args.file)
    inc = normalized_incidence(h)
    rows, cols = len(inc.rows), len(inc.circles)  # the presentation's shape
    ke = k_element(h)
    f = vfn_sut(h, ke)
    out = [
        f"presentation: {rows} rows x {cols} cols (deficiency {rows - cols})",
        f"torsion prefactor: {ke.prefactor}",
        f"kernel rank: {ke.rank} (expected degree {ke.degree})",
        f"kernel element: {X.ext_str(ke.kernel_wedge)}",
    ]
    out.extend(_map_text(f))
    ok, unit = X.eq_up_to_global_unit(f, bsda_z(h, inc))
    if ok:
        out.append(f"against the matrix: PASS (unit {_unit_str(ZZ, unit)})")
        return "\n".join(out), 0
    out.append("against the matrix: FAIL")
    return "\n".join(out), 2


def _cmd_glue(args):
    left, right = _load(args.left), _load(args.right)
    return _emit_diagram(glue(left, right), args.output)


def _cmd_disjoint(args):
    left, right = _load(args.left), _load(args.right)
    return _emit_diagram(disjoint(left, right), args.output)


def _cmd_normalize(args):
    h = _load(args.file)
    return _emit_diagram(normalize(h), args.output)


def _cmd_cap(args):
    h = _load(args.file)
    I = _parse_subset(args.subset_in)
    J = _parse_subset(args.subset_out)
    return _emit_diagram(cap(h, I, J), args.output)


def _cmd_fixtures(args):
    lib = fixture_library()
    if args.output:
        with _writing(args.output):
            os.makedirs(args.output, exist_ok=True)
        for name, (h, comment) in sorted(lib.items()):
            _emit_diagram(h, os.path.join(args.output, f"{name}.json"), comment)
        return f"wrote {len(lib)} fixtures to {args.output}", 0
    return "\n".join(f"{name}: {lib[name][1]}" for name in sorted(lib)), 0


def _cmd_selftest(args):
    results = run_all(args.seed)
    out = []
    for r in results:
        # timings vary run to run, so they go to stderr, off the table
        print(f"criterion {r.number:>2}: {r.seconds:.3f} s", file=sys.stderr)
        status = "PASS" if r.ok else "FAIL"
        out.append(f"{r.number:>2} {status}  {r.title}")
        out.append(f"        {r.detail}")
    passed = sum(1 for r in results if r.ok)
    out.append(f"selftest: {passed}/{len(results)} passed (seed {args.seed})")
    return "\n".join(out), 0 if passed == len(results) else 2


_FILE = (("file",), {})
_OUTPUT = (("--output",), {})
_PAIR = ((("left",), {}), (("right",), {}), _OUTPUT)
_JSON = (("--json",), {"action": "store_true"})

# name: (body, help, ((flags, options), ...)), in the order -h lists them
VERBS = {
    "validate": (_cmd_validate, "check a diagram file and summarize it", (_FILE,)),
    "generators": (_cmd_generators, "list the generators of a diagram", (_FILE,)),
    "bsda": (_cmd_bsda, "print the invariant matrix", (
        _FILE, (("--ring",), {"choices": ("z", "zh", "zg", "qh"), "default": "z"}),
        _JSON)),
    "alexander": (_cmd_alexander, "print the determinant functor matrix", (
        _FILE, (("--ring",), {"choices": ("z", "zg", "qh"), "default": "z"}), _JSON,
        (("--compare",), {"action": "store_true",
                          "help": "also compare against the invariant matrix"}))),
    "fn": (_cmd_fn, "print the sutured TQFT data and map", (_FILE,)),
    "glue": (_cmd_glue, "glue two diagrams along the shared interface", _PAIR),
    "disjoint": (_cmd_disjoint, "disjoint union of two diagrams", _PAIR),
    "normalize": (_cmd_normalize,
                  "promote boundary arcs to circles with fresh arc pairs",
                  (_FILE, _OUTPUT)),
    "cap": (_cmd_cap, "close a diagram along chosen arc subsets "
                      "(normalizing first when needed)", (
        _FILE,
        (("--in",), {"dest": "subset_in", "default": "", "metavar": "I",
                     "help": "incoming arcs, e.g. 1,3"}),
        (("--out",), {"dest": "subset_out", "default": "", "metavar": "J",
                      "help": "outgoing arcs, e.g. 2"}),
        _OUTPUT)),
    "selftest": (_cmd_selftest, "run the twelve acceptance checks",
                 ((("--seed",), {"type": int, "default": 0}),)),
    "fixtures": (_cmd_fixtures, "list shipped fixtures, or write them as JSON files",
                 ((("--output",), {"metavar": "DIR"}),)),
}


def _fill(parser, name):
    body, _, arguments = VERBS[name]
    parser.set_defaults(fn=body)
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    return parser


def build_parser():
    p = Parser(prog="bsfloer",
               description="exact bordered sutured invariants from "
                           "combinatorial Heegaard diagram files")
    sub = p.add_subparsers(dest="verb", metavar="verb")
    sub.required = True
    for name, (_, help_text, _) in VERBS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in VERBS:
            # argparse names a subparser "<prog> <verb>", so this one parser
            # prints the help, usage and errors that build_parser's would
            parser = Parser(prog=f"bsfloer {argv[0]}")
            args = _fill(parser, argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
        text, code = args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except (CommandError, ValueError) as e:
        # a library ValueError is bad input the verb could not act on
        print(f"error: {e}", file=sys.stderr)
        return 1
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the Python docs' SIGPIPE recipe: stdout goes to devnull, so
            # the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
