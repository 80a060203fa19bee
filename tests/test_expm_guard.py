"""Every matrix exponential in src/hodoflow goes through matops._block_row,
and every block row through the one evaluator matops.time_table.

The phi-functions, e^{tA} and their tables are all first block rows of one
augmented exponential, so one builder makes that matrix and calls
matops._expm: a scalar t on its single-matrix path, a 1-D t as one stack.
Any other reference to _expm (a call, an alias or an import), outside
_block_row and _expm itself, fails this scan.  Likewise matops._pade, the
Pade approximant, is referenced by _expm alone: the one place that picks
each matrix's degree and scaling, so a matrix gets the same bits in any
stack.  And _block_row is referenced by time_table alone, the one place
that tests the structure of A and scales block j by t^j, so mat_exp, phi1,
phi2 and every table take their rows from it.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"

ALLOWED = {("matops.py", "_block_row")}
#: the one reference allowed to matops._block_row: the evaluator
ROW_ALLOWED = {("matops.py", "time_table")}
#: _expm may name itself; it is not a caller
OWN = {("matops.py", "_expm")}


def _uses(tree, name):
    """(enclosing function, line) of every reference to name."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.append((func, node.lineno))
        if (isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _sites(name):
    """{module: [(enclosing function, line), ...]} of every reference to name
    in src/hodoflow."""
    return {path.name: _uses(ast.parse(path.read_text(encoding="utf-8")), name)
            for path in sorted(SRC.glob("*.py"))}


def test_expm_only_in_the_block_row_builder():
    uses = _sites("_expm")
    sites = {(module, func) for module, found in uses.items() for func, _ in found} - OWN
    stray = [f"{module}:{line} in {func}" for module, found in uses.items()
             for func, line in found if (module, func) not in ALLOWED | OWN]
    assert stray == [], "matops._expm outside _block_row:\n" + "\n".join(stray)
    assert sites == ALLOWED, sites


def test_pade_only_in_expm():
    uses = _sites("_pade")
    own = {("matops.py", "_pade")}
    sites = {(module, func) for module, found in uses.items() for func, _ in found} - own
    stray = [f"{module}:{line} in {func}" for module, found in uses.items()
             for func, line in found if (module, func) not in OWN | own]
    assert stray == [], "matops._pade outside _expm:\n" + "\n".join(stray)
    assert sites == OWN, sites


def test_block_row_only_in_the_evaluator():
    uses = _sites("_block_row")
    sites = {(module, func) for module, found in uses.items() for func, _ in found}
    stray = [f"{module}:{line} in {func}" for module, found in uses.items()
             for func, line in found if (module, func) not in ROW_ALLOWED]
    assert stray == [], "matops._block_row outside time_table:\n" + "\n".join(stray)
    assert sites == ROW_ALLOWED, sites


def test_scan_sees_a_stray_block_row():
    """A block row taken outside the evaluator, as a call, an alias or an
    import, is reported; one inside it is not."""
    tree = ast.parse("from .matops import _block_row\n"
                     "def time_table(A, k):\n    def table(ts):\n"
                     "        return _block_row(ts * A, 1.0, k)\n    return table\n"
                     "def phi2(A, t):\n    return t * t * matops._block_row(t * A, 1.0, 2)\n"
                     "row = _block_row\n")
    found = _uses(tree, "_block_row")
    assert [f for f in found if ("matops.py", f[0]) not in ROW_ALLOWED] == [
        (None, 1), ("phi2", 7), (None, 8)]


def test_scan_sees_a_stray_call():
    """The scan finds a direct call, a module attribute and an import."""
    tree = ast.parse("from .matops import _expm\n"
                     "def f(W):\n    return _expm(W)\n"
                     "def g(W):\n    return matops._expm(W)\n")
    assert _uses(tree, "_expm") == [(None, 1), ("f", 3), ("g", 5)]
