"""Every module-qualified name the README cites in backticks exists.

The README names library functions as `module.name`; renaming or deleting one
of them leaves the documentation pointing at nothing, which no other test sees.
"""
from __future__ import annotations

import pathlib
import re

import numpy as np

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


def test_library_use_snippet_runs_and_prints_its_values(capsys):
    """The README's Library-use block, imported through the package's lazy
    exports, prints the t_star and u_star its comment gives."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert printed[0].startswith("0.81625656"), printed
    ext = namespace["ext"]
    assert str(ext.t_star) == printed[0]
    assert np.round(ext.u_star, 3).tolist() == [0.865, -0.058]
