"""Spans and counts around the library's public functions, without editing it.

install() replaces each listed function or method by a wrapper.  A function
is replaced in every bsfloer module that holds it, because many modules
import names by value (``from .rings import det_exact``).  Each call records
a span (id, name, parent id, start, end) in memory; per name the tracer keeps
calls, inclusive seconds (outermost calls only, so recursion is not counted
twice) and self seconds (duration minus the time covered by child spans).
Hooks add counts that repeat exactly for a given input.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Names called once per generator or per ring operation: their spans are
# aggregated but not stored one by one.
HOT = {"bsda.gr_da", "rings.GroupRing.mul", "rings.CycloField.mul",
       "rings.CycloField.inv"}
SPAN_CAP = 200_000
DET_BUCKETS = ((3, "n0_3"), (6, "n4_6"), (9, "n7_9"), (None, "n10_up"))


def _generators(counts, args, kwargs, result, dur):
    counts["bsda.generators"] += len(result)


def _bsda_entries(counts, args, kwargs, result, dur):
    counts["bsda.nonzero_entries"] += len(result.entries)


def _alexander_entries(counts, args, kwargs, result, dur):
    counts["alexander.nonzero_entries"] += len(result.entries)


def _det_size(counts, args, kwargs, result, dur):
    n = len(args[1])
    counts["rings.det_exact.max_n"] = max(counts["rings.det_exact.max_n"], n)
    for top, label in DET_BUCKETS:
        if top is None or n <= top:
            counts[f"rings.det_exact.calls.{label}"] += 1
            return


def _compose_pairs(counts, args, kwargs, result, dur):
    g, f = args[0], args[1]
    sources = Counter(j for j, _ in g.entries)
    counts["exterior.compose.pairs_visited"] += len(f.entries) * len(g.entries)
    counts["exterior.compose.pairs_matched"] += sum(sources[j] for _, j in f.entries)


def _cli_verb(counts, args, kwargs, result, dur):
    argv = args[0] if args else kwargs.get("argv")
    counts[f"cli.main.s.{argv[0]}"] += dur


def _criteria(counts, args, kwargs, result, dur):
    for r in result:
        counts[f"selftest.criterion_{r.number}.s"] += r.seconds


# (module, function or Class.method, hook)
TARGETS = (
    ("bsda", "enumerate_generators", _generators),
    ("bsda", "gr_da", None),
    ("bsda", "bsda_z", _bsda_entries),
    ("bsda", "bsda_zh", _bsda_entries),
    ("rings", "det_exact", _det_size),
    ("rings", "GroupRing.mul", None),
    ("rings", "CycloField.mul", None),
    ("rings", "CycloField.inv", None),
    ("rings", "rank_over_fractions", None),
    ("rings", "integer_kernel_is_zero", None),
    ("rings", "smith_normal_form", None),
    ("alexander", "alexander_functor", _alexander_entries),
    ("alexander", "alexander_function", None),
    ("alexander", "bsda_map", None),
    ("alexander", "compare_bsda_alexander", None),
    ("exterior", "compose", _compose_pairs),
    ("exterior", "super_tensor", None),
    ("exterior", "eq_up_to_global_unit", None),
    ("diagram", "glue", None),
    ("diagram", "normalize", None),
    ("diagram", "disjoint", None),
    ("diagram", "cap", None),
    ("diagram", "loads", None),
    ("diagram", "dumps", None),
    ("diagram", "validate", None),
    ("homology", "presentation_matrix", None),
    ("homology", "k_element", None),
    ("homology", "vfn_sut", None),
    ("selftest", "run_all", _criteria),
    ("cli", "main", _cli_verb),
)


class Tracer:
    def __init__(self):
        self.stats: dict = {}      # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []     # [span id, child seconds] per open call
        self._depth: Counter = Counter()
        self._next_id = 0
        self._patches: list = []

    def _wrap(self, name, fn, hook):
        tracer = self
        hot = name in HOT
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            tracer._depth[name] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer._depth[name] -= 1
                stat[0] += 1
                stat[2] += dur - frame[1]
                if not tracer._depth[name]:
                    stat[1] += dur
                if not hot:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((frame[0], name, parent, start, end))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, dur)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bsfloer" or n.startswith("bsfloer."))]
        for modname, qual, hook in TARGETS:
            owner = importlib.import_module(f"bsfloer.{modname}")
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth], hook))
                continue
            orig = getattr(owner, qual)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def _patch(self, obj, attr, wrapper) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def value(self, metric: str):
        """Value of a layer metric: a hook count, a ratio, or the calls, s or
        self_s of a span name; 0 when the layer never ran."""
        if metric == "bsda.useful_ratio":
            return _ratio(self.counts["bsda.nonzero_entries"],
                          self.counts["bsda.generators"])
        if metric == "alexander.useful_ratio":
            return _ratio(self.counts["alexander.nonzero_entries"],
                          self.stats["alexander.alexander_function"][0])
        if metric in self.counts:
            return self.counts[metric]
        name, _, stat = metric.rpartition(".")
        column = {"calls": 0, "s": 1, "self_s": 2}.get(stat)
        if name in self.stats and column is not None:
            return self.stats[name][column]
        return 0

    def span_table(self) -> list:
        """(name, calls, inclusive s, self s) for every name that ran."""
        return [(name, *vals) for name, vals in sorted(self.stats.items())
                if vals[0]]

    def write(self, path: str, meta: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, names=names, dropped=self.dropped,
                   columns=["id", "name", "parent", "start", "end"],
                   spans=[[sid, index[n], parent, round(a, 7), round(b, 7)]
                          for sid, n, parent, a, b in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
