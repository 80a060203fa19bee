"""Separable evaluates its components through their column forms only.

Separable.u0, phi and phi_jacobian fill one array column by column from each
component's _u0_column, _phi_column and _dphi_column, and in_domain tests the
stacked domain box (or each component's own _inside).  A component's public
u0, phi, phi_jacobian or in_domain is its (1,) / (k, 1) form: reaching for it
from Separable brings back a reshape, a stacked call and a concatenation per
component.  Any reference to those names on anything but self inside class
Separable, a call or a bound method kept for later, fails this scan.
"""
from __future__ import annotations

import ast
from pathlib import Path

MODEL = Path(__file__).resolve().parent.parent / "src" / "hodoflow" / "model.py"
PUBLIC = {"u0", "phi", "phi_jacobian", "in_domain"}


def _public_uses(source):
    """method:line of every reference to a public evaluation method of an
    object other than self in class Separable of source."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "Separable")
    return [f"{fn.name}:{node.lineno}" for fn in cls.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr in PUBLIC
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


def test_separable_uses_no_public_component_method():
    stray = _public_uses(MODEL.read_text(encoding="utf-8"))
    assert stray == [], "Separable calls a component's public method:\n" + "\n".join(stray)


def test_scan_catches_a_public_component_call():
    source = '''
class Separable:
    def __init__(self, comps):
        self.components = comps
        self._forms = [c.phi for c in comps]

    def u0(self, x):
        return np.concatenate([c.u0(x[..., i : i + 1]) for i, c in enumerate(self.components)])

    def in_domain(self, M):
        return self.in_domain(M)
'''
    assert _public_uses(source) == ["__init__:5", "u0:8"]
