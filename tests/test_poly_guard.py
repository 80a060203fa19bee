"""No polynomial root finding in src/hodoflow.

The blow-up roots tau of det(tau I + dphi/dM) = 0 are the eigenvalues of
-dphi/dM.  Going through np.poly (which itself takes eigvals, then multiplies
them out into coefficients) and back through np.roots (the eigenvalues of a
companion matrix) computes the same numbers twice, one point at a time, and
splits an exact double root into a complex pair.  Any reference to numpy's
poly or roots (a call, an alias or an import) fails this scan.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"

BANNED = {"poly", "roots"}


def _polynomial_uses(tree):
    """(name, line) of every reference to numpy's poly or roots."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in BANNED
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.attr, node.lineno))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found.extend((alias.name, node.lineno) for alias in node.names
                         if alias.name in BANNED)
    return found


def test_guard_sees_a_polynomial_root_call():
    tree = ast.parse("import numpy as np\nfrom numpy import roots\nr = np.roots(np.poly(J))\n")
    assert sorted(_polynomial_uses(tree)) == [("poly", 3), ("roots", 2), ("roots", 3)]


def test_no_polynomial_roots_in_src():
    stray = [f"{path.name}:{line} np.{name}" for path in sorted(SRC.glob("*.py"))
             for name, line in _polynomial_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert stray == [], "polynomial root finding in src/hodoflow:\n" + "\n".join(stray)
