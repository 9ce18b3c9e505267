"""No dead weight in `src/aelcert`: every import is used in its module, and
every private module-level name and private method is referenced somewhere
in the package.  The check reads the source with `ast` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "aelcert"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _loaded_names(tree) -> set[str]:
    """Every name a module reads: bare names, and the strings of `__all__`."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _package_references() -> set[str]:
    """Every name the package reads anywhere: names, attributes and the
    names that `from ... import` statements bring in."""
    refs = set()
    for tree in MODULES.values():
        refs |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs |= {alias.name for alias in node.names}
    return refs


def unused_imports(name: str, tree) -> list[str]:
    """The names `name` imports and never reads (`__init__` re-exports through
    `__all__`, which counts as a read)."""
    used = _loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}: import {alias.name}")
    return unused


def private_definitions(name: str, tree) -> list[tuple[str, str]]:
    """(where, name) of each private module-level name and private method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            out.append((name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for elt in ast.walk(target):
                    if isinstance(elt, ast.Name) and _private(elt.id):
                        out.append((name, elt.id))
        if isinstance(node, ast.ClassDef):
            out += [(f"{name}:{node.name}", item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and _private(item.name)]
    return out


def test_the_package_is_parsed():
    assert {"__init__.py", "arld.py", "inner.py"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    assert unused_imports(name, MODULES[name]) == []


def test_every_private_name_and_method_is_referenced():
    refs = _package_references()
    unreferenced = [f"{where}: {name}" for module, tree in MODULES.items()
                    for where, name in private_definitions(module, tree) if name not in refs]
    assert unreferenced == []


def test_the_checks_flag_dead_code():
    tree = ast.parse(
        "import os\nfrom math import comb, gcd\n_LIMIT = 3\n"
        "def _helper():\n    return gcd(1, 2)\n"
        "class C:\n    def _unused(self):\n        return 0\n"
    )
    assert unused_imports("m.py", tree) == ["m.py: import os", "m.py: import comb"]
    assert private_definitions("m.py", tree) == [
        ("m.py", "_LIMIT"), ("m.py", "_helper"), ("m.py:C", "_unused")]
