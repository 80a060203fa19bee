"""Every module-level private name in src/hodoflow is used somewhere, and so
is every public module-level function and class; every defaulted parameter of
a module-level function is set by some call.

A private function, class or constant (`_x`, not a dunder) that nothing in the
package references beyond its own definition is dead code: delete it with the
route that used it.  A public function or class is kept by a reference
elsewhere in the package (the lazy exports of __init__ aside), by an entry in
hodoflow._EXPORTS, or by an entry in TEST_REFERENCES, the exact list of public
names that only the tests and the benchmark call, each with its reason.  A
routine that only the tests run lives with them, in tests/reference_routes.py.

A defaulted parameter that no call in src/, tests/ or perfbench/ sets has one
value in use: make it a module constant.  A call sets it by keyword, by a
positional argument at or past its place, or through a * or ** splat; calls
are matched to a function by its name alone.  UNSET_DEFAULTS lists the
parameters that are set in a way this scan cannot see, each with its reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hodoflow"

#: module.name -> why a public name that nothing in the package calls is kept
TEST_REFERENCES = {
    "hodograph.m_from_u": "the launch velocity of a solved (t, u), which the benchmark's "
                          "output check and the tests recover M by",
    "matops.phi2": "the one-matrix phi2 the tests check the time tables against and the "
                   "benchmark's tracer wraps",
    "oracle.flow_jacobian_det": "the one-matrix caustic determinant the oracle tests bisect",
}

#: module.function(parameter) -> how a call the scan cannot see sets it
UNSET_DEFAULTS = {
    "cli._solve(basis)": "cmd_coriolis3d passes its basis through the alias run",
    "cli._blowup(basis)": "cmd_coriolis3d passes its basis through the alias run",
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


def _defaulted_parameters(tree):
    """(function, place, name) of every defaulted parameter of a module-level
    function; place is its index among the positional parameters, None for a
    keyword-only one."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        for place in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, place, positional[place].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, None, arg.arg


def _calls(tree):
    """(called name, call) of every call of a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _sets(call, place, name):
    """Whether the call sets the parameter name at place (None: keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return place is not None and len(call.args) > place


def test_every_defaulted_parameter_is_set_by_some_call():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "oracle" in trees
    calls = [call for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls
    unset = {f"{module}.{function}({name})"
             for module, tree in trees.items()
             for function, place, name in _defaulted_parameters(tree)
             if not any(called == function and _sets(call, place, name)
                        for called, call in calls)}
    assert unset - UNSET_DEFAULTS.keys() == set(), (
        "defaulted parameters no call sets (make each a module constant):\n"
        + "\n".join(sorted(unset - UNSET_DEFAULTS.keys())))
    assert UNSET_DEFAULTS.keys() - unset == set(), (
        "listed parameters that a call sets or that are gone:\n"
        + "\n".join(sorted(UNSET_DEFAULTS.keys() - unset)))
