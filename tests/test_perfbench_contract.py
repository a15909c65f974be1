"""The library names the benchmark under perfbench/ depends on.

perfbench/ is only read here.  Its tracer wraps library functions by name
and its workloads call the library through module aliases, so renaming or
deleting one of those names breaks a traced benchmark run; these tests make
it fail the suite instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import bsfloer.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname: str, qual: str):
    """A tracer target (module, function or Class.method) as an object."""
    obj = importlib.import_module(f"bsfloer.{modname}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_tracer_target_resolves_and_is_restored():
    T = load_tracer()
    keys = [(modname, qual) for modname, qual, _ in T.TARGETS]
    assert len(keys) == len(set(keys)) == 30
    before = {key: resolve(*key) for key in keys}
    assert all(callable(f) for f in before.values())
    modules = [m for name, m in sys.modules.items()
               if name == "bsfloer" or name.startswith("bsfloer.")]
    snapshot = [(m, dict(vars(m))) for m in modules]
    tracer = T.Tracer()
    tracer.install()
    try:
        unpatched = [key for key, f in before.items() if resolve(*key) is f]
    finally:
        tracer.uninstall()
    assert unpatched == []
    assert [key for key, f in before.items() if resolve(*key) is not f] == []
    assert [(m.__name__, attr) for m, names in snapshot
            for attr, value in names.items() if vars(m)[attr] is not value] == []


def test_every_library_name_the_workloads_read_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "bsfloer"
               for a in node.names}
    assert sorted(aliases) == ["A", "B", "C", "D", "H", "R", "X"]
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert ("B", "bsda_z") in read
    modules = {alias: importlib.import_module(f"bsfloer.{name}")
               for alias, name in aliases.items()}
    missing = [f"{alias}.{attr}" for alias, attr in sorted(read)
               if not hasattr(modules[alias], attr)]
    assert missing == []
