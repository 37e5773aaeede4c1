"""The package defines no name that only its tests use.

Every module-level function and class of ``src/dualmae`` and every method
must be named somewhere else in the package or in the modules of
``perfbench/`` (not its tests), which count because the tracer swaps
package names by their strings. A name only the tests call is API kept
alive for them alone; it goes, and the tests call what the package runs.
Dunders are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualmae"


def _trees():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in files}


def _definitions(tree):
    """(name, node) of each module-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member


def _references(tree):
    """Every name the tree reads, imports or spells as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_name_is_used_outside_the_tests():
    trees = _trees()
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    ]
    assert unused == [], "defined in the package but named nowhere else in it or in perfbench/"
