"""Every module-level private name in src/hodoflow is used somewhere, and so
is every public module-level function and class.

A private function, class or constant (`_x`, not a dunder) that nothing in the
package references beyond its own definition is dead code: delete it with the
route that used it.  A public function or class is kept by a reference
elsewhere in the package (the lazy exports of __init__ aside), by an entry in
hodoflow._EXPORTS, or by an entry in TEST_REFERENCES, the exact list of public
names that only the tests and the benchmark call, each with its reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"

#: module.name -> why a public name that nothing in the package calls is kept
TEST_REFERENCES = {
    "hodograph.residual_u": "the velocity-form residual, an independent route to residual_M",
    "hodograph.to_bar_variables": "the scalar-forcing change of variables the tests solve through",
    "oracle.flow_jacobian_det": "the one-matrix caustic determinant the oracle tests bisect",
    "oracle.pde_residual": "the finite-difference PDE residual the tests measure solutions by",
}


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


def _module_public_definitions(tree):
    """(name, node) of every public def and class at module level."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node


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


def test_every_public_module_name_is_called_exported_or_listed():
    import hodoflow

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "blowup.py" in trees
    refs = [ref for module, tree in trees.items() if module != "__init__.py"
            for ref in _references(tree)]
    exported = {name for names in hodoflow._EXPORTS.values() for name in names}
    uncalled = set()
    for module, tree in trees.items():
        for name, definition in _module_public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if name not in exported and not any(r == name and id(node) not in own
                                                for r, node in refs):
                uncalled.add(f"{module.removesuffix('.py')}.{name}")
    assert uncalled - TEST_REFERENCES.keys() == set(), (
        "public names nothing calls, exports or lists:\n" + "\n".join(sorted(uncalled)))
    assert TEST_REFERENCES.keys() - uncalled == set(), (
        "listed names that have a caller or are gone:\n"
        + "\n".join(sorted(TEST_REFERENCES.keys() - uncalled)))
