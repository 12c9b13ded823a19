"""Every public function, class and class member of the library has a caller.

A public top-level def or class in a module of ``src/reebzeta`` must be
referenced, as a name, an attribute or an import, by some other code in
``src/`` or ``demos/``.  ``__init__.py`` re-exports names and is not a
caller, so it is neither checked nor counted.  Tests do not count either:
a helper only tests reach should be deleted, not kept for them.

The same holds for the public methods, properties and classmethods of a
public class: each must be referenced as an attribute in ``src/`` or
``demos/``; its own ``def`` is not a reference.  Dunders, ``_``-named
members and the members of ``_``-named classes are skipped.  Members are
matched by name alone, so a member is taken as called when any attribute
of that name is used: a member that shares its name with one that has a
caller is not flagged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reebzeta"

# Public names kept without a caller, each for a stated reason.
ALLOWED = {}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _caller_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in _modules() + sorted((ROOT / "demos").glob("*.py"))]


def _definitions():
    """{name: module file name} of the public top-level defs and classes."""
    found = {}
    for path in _modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[node.name] = path.name
    return found


def _members():
    """(where, member name) of the public methods, properties and
    classmethods of the public top-level classes."""
    found = []
    for path in _modules():
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                found.extend(
                    (f"{path.name}: {cls.name}.{node.name}", node.name)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_"))
    return found


def _references():
    """Every name used as a Name, an Attribute or an imported name."""
    used = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2]
                            for alias in node.names)
    return used


def _attributes():
    """Every name used as an Attribute."""
    return {node.attr for tree in _caller_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def test_every_public_definition_has_a_caller():
    definitions, used = _definitions(), _references()
    orphans = sorted(f"{module}: {name}"
                     for name, module in definitions.items()
                     if name not in used and name not in ALLOWED)
    assert not orphans, "no caller in src/ or demos/: " + ", ".join(orphans)


def test_every_public_class_member_has_a_caller():
    used = _attributes()
    orphans = sorted(where for where, name in _members() if name not in used)
    assert not orphans, "no caller in src/ or demos/: " + ", ".join(orphans)


def test_allowed_names_are_still_public_definitions():
    assert ALLOWED.keys() <= _definitions().keys()
