"""Every module-level private name in src/hodoflow is used somewhere.

A private function, class or constant (`_x`, not a dunder) that nothing in the
package references beyond its own definition is dead code: delete it with the
route that used it.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _module_private_definitions(tree):
    """(name, node) of every private def, class and assigned constant at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _is_private(name))


def _references(tree):
    """(name, node) of every use of a name: a bare name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node) for alias in node.names)


def test_every_private_module_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "matops.py" in trees
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _module_private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(r == name and id(node) not in own for r, node in refs):
                unused.append(f"{module}:{definition.lineno} {name}")
    assert unused == [], "private names nothing references:\n" + "\n".join(unused)
