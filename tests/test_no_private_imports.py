"""No module of the package reaches into another's private names: a helper
that two modules share is public in the module that owns it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssforms"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a `from ... import` names, '' for the package
    itself, None for anything outside it."""
    mod = node.module or ""
    if node.level == 0:
        if mod != "ssforms" and not mod.startswith("ssforms."):
            return None
        mod = mod[len("ssforms."):] if mod != "ssforms" else ""
    return mod


def _violations(text: str, name: str) -> list[str]:
    tree = ast.parse(text, name)
    modules = set()  # local names bound to other package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _package_module(node)
            if mod is None:
                continue
            for alias in node.names:
                if mod == "" and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{name}:{node.lineno} imports {mod}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ssforms" and len(parts) > 1:
                    if any(_private(x) for x in parts[1:]):
                        found.append(f"{name}:{node.lineno} imports {alias.name}")
                    if alias.asname:
                        modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_guard_sees_private_access():
    src = ("from . import gf as g, lift\nfrom .linalg import _dot_mod, rank_mod\n"
           "import ssforms.sieve as sv\nx = g._npoly_monic(lift.f, sv._y, g.__name__)\n")
    got = _violations(src, "probe.py")
    assert [x.split(" ", 1)[1] for x in got] == [
        "imports linalg._dot_mod", "uses g._npoly_monic", "uses sv._y"]


def test_package_has_no_private_cross_module_access():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [v for path in files for v in _violations(path.read_text(), path.name)]
    assert not found, f"private names used across modules: {found}"
