"""Every linear solve in src/hodoflow goes through the guard of
matops.solve_stacked.

solve_stacked refuses a matrix above condition number _SOLVE_COND_LIMIT,
solves the certified 2x2 rows by their adjugate and the others by LAPACK,
so a solve that calls np.linalg.solve itself would take neither the guard
nor that route.  Three places keep LAPACK, on purpose: solve_stacked itself,
matops._pade (the Pade denominator q_m(W), whose conditioning the degree
and scaling choice of _expm bounds), and the two B~ solves of
degenerate.degenerate_integrals, whose conditioning degenerate._assemble
checks when it builds the basis.  Any other reference to a linalg solve (a
call through numpy.linalg or another linalg module, or an import of it)
fails this scan.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"

#: (module, enclosing function) -> number of linalg solves it may make
ALLOWED = {("matops.py", "solve_stacked"): 2, ("matops.py", "_pade"): 1,
           ("degenerate.py", "degenerate_integrals"): 2}


def _linalg_solve_uses(tree):
    """(enclosing function, line) of every reference to a linalg solve:
    x.linalg.solve, linalg.solve, or an import of solve from a linalg module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if isinstance(node, ast.Attribute) and node.attr == "solve" and (
                (isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")
                or (isinstance(node.value, ast.Name) and node.value.id == "linalg")):
            found.append((func, node.lineno))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                and any(alias.name == "solve" for alias in node.names)):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_linalg_solve_only_at_the_allowed_sites():
    uses = {path.name: _linalg_solve_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))}
    stray = [f"{module}:{line} in {func}" for module, found in uses.items()
             for func, line in found if (module, func) not in ALLOWED]
    assert stray == [], ("a linear solve outside matops.solve_stacked's guard:\n"
                         + "\n".join(stray))
    counts = Counter((module, func) for module, found in uses.items() for func, _ in found)
    assert counts == ALLOWED, counts


def test_scan_sees_a_stray_solve():
    """A solve through numpy.linalg, a bare linalg module or an import is
    reported with its function; the guard's own call and a method named
    solve on another object are not."""
    tree = ast.parse("import numpy as np\n"
                     "from numpy import linalg\n"
                     "from scipy.linalg import solve\n"
                     "def solve_stacked(A, B):\n    return np.linalg.solve(A, B)\n"
                     "def newton_step(K, r):\n    return np.linalg.solve(K, r)\n"
                     "def other(K, r):\n    return linalg.solve(K, r) + solver.solve(K, r)\n")
    found = _linalg_solve_uses(tree)
    assert found == [(None, 3), ("solve_stacked", 5), ("newton_step", 7), ("other", 9)]
    assert [f for f in found if ("matops.py", f[0]) not in ALLOWED] == [
        (None, 3), ("newton_step", 7), ("other", 9)]
