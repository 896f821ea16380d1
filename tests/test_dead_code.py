"""A lint for dead definitions: every function and class defined in the
package must be named by some code in the package or in ``scripts/``.

A definition is named where a ``Name`` or an attribute access spells it;
an import alone is not a use, and nothing in ``__init__.py`` counts, as an
export there is reachable only from outside. Dunder methods are called by
the language, not by name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "procure_learn"

# Named only from outside the package: perfbench's tracer wraps it by name
# (ROADMAP item 4 deletes both). An entry that is named again, or gone,
# fails the test too, so the list cannot go stale.
ALLOWED = ["ProblemInstance.data_point"]


def _definitions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, prefix + node.name
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_package_definition_is_named():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    named = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            named.update(_names(tree))
    dead = [
        qualified
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, qualified in _definitions(tree)
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == ALLOWED
