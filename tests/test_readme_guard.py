"""Every module-qualified name the README cites in backticks exists.

The README names library functions as `module.name`; renaming or deleting one
of them leaves the documentation pointing at nothing, which no other test sees.
"""
from __future__ import annotations

import pathlib
import re

from hodoflow import blowup, cli, degenerate, hodograph, matops, model, oracle, periodicity

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (blowup, cli, degenerate, hodograph, matops, model, oracle, periodicity)}


def test_every_backticked_module_name_in_the_readme_exists():
    cited = set(re.findall(r"`(" + "|".join(MODULES) + r")\.(\w+)",
                           README.read_text(encoding="utf-8")))
    assert len(cited) >= 10, sorted(cited)
    missing = sorted(f"{mod}.{name}" for mod, name in cited if not hasattr(MODULES[mod], name))
    assert not missing, f"README names missing from their modules: {missing}"
