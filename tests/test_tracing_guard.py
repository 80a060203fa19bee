"""The span tracer of perfbench/run.py --trace 1 still finds every layer it wraps.

The tracer looks each traced function up with ``owner.__dict__[attr]`` and
wraps the data-family methods by name, so renaming or deleting one of them
breaks a traced benchmark run rather than any test.  perfbench/tracing.py is
read and executed here as source, so nothing is written under perfbench/.
"""
from __future__ import annotations

import pathlib
import types

import pytest

from hodoflow import model

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_layer_function_exists(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.LAYER_FUNCTIONS
               if attr not in owner.__dict__]
    assert not missing, f"traced functions missing from their modules: {missing}"


def test_every_family_has_the_traced_methods(tracing):
    missing = [f"{name}.{meth}" for name, cls in model.FAMILIES.items()
               for meth in tracing.FAMILY_METHODS if not callable(getattr(cls, meth, None))]
    assert not missing, f"data families missing traced methods: {missing}"
