"""Every stacked determinant in src/hodoflow goes through matops.det.

np.linalg.det runs one LAPACK LU per matrix, which for the 2x2 and 3x3
tables of the caustic screen and the blow-up scan costs several times the
cofactor expansion of matops.det.  Three places keep it, on purpose:
matops.det's own n >= 4 fallback, and the one-matrix re-checks
blowup.blowup_residual and oracle.flow_jacobian_det, which give the values
the tables produce a second, independent route.  Any other reference to
numpy's det (a call, an alias or an import) fails this scan.

The cofactor formulas themselves, matops._DET_FORMULA, are referenced in
matops.py alone: det is where the choice between them and LAPACK is made,
so it is made in one module.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"

ALLOWED = {("matops.py", "det"), ("blowup.py", "blowup_residual"),
           ("oracle.py", "flow_jacobian_det")}


def _lapack_det_uses(tree):
    """(enclosing function, line) of every reference to numpy's linalg det."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if (isinstance(node, ast.Attribute) and node.attr == "det"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.append((func, node.lineno))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                and any(alias.name == "det" for alias in node.names)):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_lapack_det_only_at_the_allowed_sites():
    uses = {path.name: _lapack_det_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))}
    sites = {(module, func) for module, found in uses.items() for func, _ in found}
    stray = [f"{module}:{line} in {func}" for module, found in uses.items()
             for func, line in found if (module, func) not in ALLOWED]
    assert stray == [], "np.linalg.det outside the allowed sites:\n" + "\n".join(stray)
    assert sites == ALLOWED, sites


def _names_used(tree, name):
    """Lines of every reference to name: a bare name, an attribute or an import."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))]


def test_det_formula_only_in_matops():
    stray = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "matops.py"
             for line in _names_used(ast.parse(path.read_text(encoding="utf-8")), "_DET_FORMULA")]
    assert stray == [], "matops._DET_FORMULA outside matops.py:\n" + "\n".join(stray)
    assert _names_used(ast.parse((SRC / "matops.py").read_text(encoding="utf-8")), "_DET_FORMULA")
