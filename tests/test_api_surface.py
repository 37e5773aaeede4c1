"""The package defines no name that only its tests use.

Every module-level function and class of ``src/dualmae`` and every method
must be named somewhere else in the package or in the modules of
``perfbench/`` (not its tests), which count because the tracer swaps
package names by their strings. A method or property counts as used only
when it is read as an attribute (``x.name``) or spelled as a string: a
local variable that happens to share its name does not keep it. A name
only the tests call is API kept alive for them alone; it goes, and the
tests call what the package runs. Dunders are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualmae"


def _trees():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in files}


def _definitions(tree):
    """(name, node, is_member) of each module-level function and class and
    each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member, True


def _references(tree):
    """(bare names, attribute names) the tree uses: the first set holds the
    names it reads as variables, the second the attributes it reads, the
    names it imports and the strings it spells."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return bare, attributes


def _unused(trees):
    bare, attributes = set(), set()
    for tree in trees.values():
        tree_bare, tree_attributes = _references(tree)
        bare |= tree_bare
        attributes |= tree_attributes
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node, is_member in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in attributes
        and (is_member or name not in bare)
    ]


def test_every_package_name_is_used_outside_the_tests():
    assert _unused(_trees()) == [], "defined in the package but named nowhere else in it or in perfbench/"


def test_a_local_variable_does_not_keep_a_method_alive():
    # the module-level function and class are read as bare names, which
    # counts; the property is only shadowed by a local, which does not
    source = """def scale(x):
    width = 2
    return x * width

class Config:
    @property
    def width(self):
        return scale(1)

CONFIG = Config()
"""
    assert _unused({PACKAGE / "probe.py": ast.parse(source)}) == ["src/dualmae/probe.py:7 width"]
