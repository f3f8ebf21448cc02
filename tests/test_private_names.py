"""Every private name of the package is read somewhere in the package.

A module-level name or a method whose name starts with one underscore has no
caller outside ``src/su_einstein``, so one that no source line loads is dead
code: deleting its last caller should delete it too.  The check reads the
source with ``ast``; dunder names are left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "su_einstein"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _stored(target: ast.expr) -> list[str]:
    return [node.id for node in ast.walk(target) if isinstance(node, ast.Name)]


def defined() -> set[tuple[str, str]]:
    """(file, name) of each private module-level name and each private method."""
    found = set()
    for file, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [name for target in node.targets for name in _stored(target)]
            elif isinstance(node, ast.AnnAssign):
                names = _stored(node.target)
            else:
                names = []
            if isinstance(node, ast.ClassDef):
                names += [item.name for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            found |= {(file, name) for name in names if _private(name)}
    return found


def loaded() -> set[str]:
    """Every name the package reads: as a variable, an attribute or an import."""
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def test_the_scan_finds_private_names():
    found = defined()
    assert {("curvature.py", "_koszul"), ("curvature.py", "_unit_fit"),
            ("solver.py", "_OUTCOME"), ("solver.py", "_columns"),
            ("liealg.py", "_Numbers")} <= found
    assert not any(name.startswith("__") for _, name in found)


def test_every_private_name_is_loaded():
    names = loaded()
    assert sorted((file, name) for file, name in defined() if name not in names) == []
