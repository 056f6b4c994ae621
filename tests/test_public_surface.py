"""Every public top-level name and every public method or property in
``src/ofal`` must have a caller, and no module may import another
module's private name.

A top-level ``def`` or ``class`` whose name has no leading underscore is
public.  It must be named somewhere in ``src/ofal`` outside its own
definition and ``__init__.py``, or in ``perfbench/``.  Nothing is
exempt: a re-export from the package root is not a caller, and a name
reached only from tests belongs in the tests.  A public method or
property of a top-level class is called when its name appears as an
attribute in ``src/ofal`` or ``perfbench/`` outside its own definition.
A name with a leading underscore (dunders aside) is private to its
module: code another module needs gets a public name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ofal"


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) for every name, attribute and imported name."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
    return refs


def _parse(directory: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.py"))}


def uncalled_public_names(package: Path = PACKAGE, others: Path = ROOT / "perfbench") -> list[str]:
    modules = _parse(package)
    refs = {p: _references(tree) for p, tree in modules.items() if p.name != "__init__.py"}
    refs.update((p, _references(tree)) for p, tree in _parse(others).items())
    flagged = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_"):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (where == path and line in span)
                for where, found in refs.items()
                for ref, line in found
            ):
                flagged.append(f"{path.stem}.{name}")
    return flagged


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def uncalled_public_methods(package: Path = PACKAGE, others: Path = ROOT / "perfbench") -> list[str]:
    modules = _parse(package)
    attributes = {
        p: [(node.attr, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        for p, tree in {**modules, **_parse(others)}.items()
    }
    flagged = []
    for path, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                span = range(node.lineno, node.end_lineno + 1)
                if not any(
                    attr == node.name and not (where == path and line in span)
                    for where, found in attributes.items()
                    for attr, line in found
                ):
                    flagged.append(f"{path.stem}.{cls.name}.{node.name}")
    return flagged


def test_every_public_method_has_a_caller():
    assert uncalled_public_methods() == []


def private_imports(package: Path = PACKAGE) -> list[str]:
    """``module -> name`` for each private name imported from another ofal module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "ofal":
                continue
            found.extend(
                f"{path.stem} -> {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            )
    return found


def test_no_private_cross_module_imports():
    assert private_imports() == []
