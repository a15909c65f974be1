"""Command line front end.

Subcommands read diagrams from JSON files and print deterministic text, or
JSON with --json.  Exit status: 0 on success, 1 on input or validation
failure, 2 when a comparison reports FAIL, 64 on usage errors.
"""

import argparse
import json
import os
import sys

from . import exterior as X
from .alexander import alexander_functor, bsda_map, compare_bsda_alexander
from .bsda import bsda_z, enumerate_generators, generator_count, gr_da
from .diagram import cap, disjoint, dumps, glue, loads, normalize, normalized_roles
from .fixtures import fixture_library
from .homology import k_element, kernel_istar, presentation_matrix, vfn_sut
from .rings import ZZ
from .selftest import run_all


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
    try:
        return loads(text)
    except ValueError as e:
        raise CommandError(f"{path}: {e}")


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
    for I, J in sorted(f.entries, key=lambda k: (X.sort_key(k[0]),
                                                 X.sort_key(k[1]))):
        entries.append({"in": list(I), "out": list(J),
                        "value": f.ring.to_str(f.entries[(I, J)])})
    return {"degree": f.degree, "entries": entries}


def _emit_diagram(h, output, comment=None):
    text = dumps(h, comment=comment)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"wrote {output}", 0
    return text, 0


def _ensure_normalized(h):
    try:
        normalized_roles(h)
        return h
    except ValueError:
        return normalize(h)


# subcommand bodies

def _cmd_validate(args):
    h = _load(args.file)
    out = [
        f"boundaries: {h.n1} outgoing arc(s), {h.n0} incoming arc(s)",
        f"alpha circles: {h.a}; beta circles: {h.b}; points: {len(h.points)}",
        (f"group: free rank {h.group.free_rank}, "
         f"torsion order {h.group.torsion_order}"),
        f"degree: {h.degree}",
        f"generators: {generator_count(h)}",
        "ok",
    ]
    return "\n".join(out), 0


def _cmd_generators(args):
    h = _load(args.file)
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
    hn = _ensure_normalized(h)
    f = alexander_functor(hn, args.ring)
    if args.json and not args.compare:
        return json.dumps(_map_json(f), indent=2, sort_keys=True), 0
    out = _map_text(f)
    code = 0
    if args.compare:
        rep = compare_bsda_alexander(h, args.ring)
        if rep.match:
            out.append(f"unit: {_unit_str(f.ring, rep.unit)}")
        else:
            out.append("FAIL: no single unit relates the two matrices")
            code = 2
    return "\n".join(out), code


def _cmd_fn(args):
    h = _load(args.file)
    hn = _ensure_normalized(h)
    pres = presentation_matrix(hn, "z")
    rows, cols = pres.matrix.rows, pres.matrix.cols
    _, big_k, rank = kernel_istar(hn)
    ke = k_element(hn)
    f = vfn_sut(hn)
    out = [
        f"presentation: {rows} rows x {cols} cols (deficiency {rows - cols})",
        f"torsion prefactor: {ke.prefactor}",
        f"kernel rank: {rank} (expected degree {big_k})",
        f"kernel element: {X.ext_str(ke.kernel_wedge)}",
    ]
    out.extend(_map_text(f))
    ok, unit = X.eq_up_to_global_unit(f, bsda_z(hn))
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
    h = _ensure_normalized(_load(args.file))
    I = _parse_subset(args.subset_in)
    J = _parse_subset(args.subset_out)
    return _emit_diagram(cap(h, I, J), args.output)


def _cmd_fixtures(args):
    lib = fixture_library()
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for name in sorted(lib):
            h, comment = lib[name]
            path = os.path.join(args.output, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps(h, comment=comment))
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


def build_parser():
    p = Parser(prog="bsfloer",
               description="exact bordered sutured invariants from "
                           "combinatorial Heegaard diagram files")
    sub = p.add_subparsers(dest="verb", metavar="verb")
    sub.required = True

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate, "check a diagram file and summarize it")
    sp.add_argument("file")

    sp = add("generators", _cmd_generators, "list the generators of a diagram")
    sp.add_argument("file")

    sp = add("bsda", _cmd_bsda, "print the invariant matrix")
    sp.add_argument("file")
    sp.add_argument("--ring", choices=("z", "zh", "zg", "qh"), default="z")
    sp.add_argument("--json", action="store_true")

    sp = add("alexander", _cmd_alexander,
             "print the determinant functor matrix")
    sp.add_argument("file")
    sp.add_argument("--ring", choices=("z", "zg", "qh"), default="z")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--compare", action="store_true",
                    help="also compare against the invariant matrix")

    sp = add("fn", _cmd_fn, "print the sutured TQFT data and map")
    sp.add_argument("file")

    sp = add("glue", _cmd_glue, "glue two diagrams along the shared interface")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--output")

    sp = add("disjoint", _cmd_disjoint, "disjoint union of two diagrams")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--output")

    sp = add("normalize", _cmd_normalize,
             "promote boundary arcs to circles with fresh arc pairs")
    sp.add_argument("file")
    sp.add_argument("--output")

    sp = add("cap", _cmd_cap, "close a diagram along chosen arc subsets "
                              "(normalizing first when needed)")
    sp.add_argument("file")
    sp.add_argument("--in", dest="subset_in", default="",
                    metavar="I", help="incoming arcs, e.g. 1,3")
    sp.add_argument("--out", dest="subset_out", default="",
                    metavar="J", help="outgoing arcs, e.g. 2")
    sp.add_argument("--output")

    sp = add("selftest", _cmd_selftest, "run the twelve acceptance checks")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("fixtures", _cmd_fixtures,
             "list shipped fixtures, or write them as JSON files")
    sp.add_argument("--output", metavar="DIR")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except (CommandError, ValueError) as e:
        # a library ValueError is bad input the verb could not act on
        print(f"error: {e}", file=sys.stderr)
        return 1
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
