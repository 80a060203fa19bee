"""The cold-start guess is made in one place: hodograph._newton.

A solve given no starting guess starts from hodograph._default_guess, which
_newton calls itself, so every caller gets the same clipped guess and the
guess is tested for the domain once.  Any reference to _default_guess in
src/hodoflow outside hodograph.py (a call, an attribute or an import) fails
this scan.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"


def _names_used(tree, name):
    """Lines of every reference to name: a bare name, an attribute or an import."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))]


def test_default_guess_only_in_hodograph():
    stray = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "hodograph.py"
             for line in _names_used(ast.parse(path.read_text(encoding="utf-8")), "_default_guess")]
    assert stray == [], "hodograph._default_guess outside hodograph.py:\n" + "\n".join(stray)
    assert _names_used(ast.parse((SRC / "hodograph.py").read_text(encoding="utf-8")),
                       "_default_guess")
