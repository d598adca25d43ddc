"""The benchmark's traced names still name functions of the package.

``perfbench/run.py`` wraps each name in its ``TRACED`` list and reports the
ones that do not resolve as ``absent``; a traced run with a missing name
does not produce the per-layer metrics ``BENCHMARK.json`` declares.  The
list is read with ``ast``, so the harness is not imported, and each name is
resolved the way ``perfbench/spans.py`` resolves it: ``<module>.<func>`` or
``<module>.<Class>.<method>`` inside ``ssforms``."""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUFFIXES = (".calls", ".self_s", ".s")


def _traced() -> list[str]:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED list")


def _resolve(name: str):
    parts = name.split(".")
    owner = importlib.import_module(f"ssforms.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    return raw


def test_traced_names_resolve_to_callables():
    names = _traced()
    assert names
    unresolved = [name for name in names if not callable(_resolve(name))]
    assert not unresolved, f"traced names that do not resolve: {unresolved}"


def test_per_layer_span_metrics_are_traced():
    traced = set(_traced())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [m["name"] for m in bench["per_layer"] if m["name"].endswith(SUFFIXES)]
    assert spans
    untraced = [m for m in spans if m.rsplit(".", 1)[0] not in traced]
    assert not untraced, f"per-layer metrics of untraced names: {untraced}"
