"""PyYAML's whole-document load and dump run only inside cli.load_config and
cli.dump_config.

Every config is read by load_config and every stamp is the hash of
dump_config's text, which write plain data without PyYAML's per-node Python
and hand the rest to PyYAML.  A second route through yaml.load, yaml.dump,
yaml.safe_load or yaml.safe_dump elsewhere in src/hodoflow (a call, an
alias or an import) could read or write a config differently, or hash a
config through the slow path, so it fails this scan.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hodoflow"

NAMES = {"load", "dump", "safe_load", "safe_dump"}
ALLOWED = {("cli.py", "load_config"), ("cli.py", "dump_config")}


def _yaml_uses(tree):
    """(enclosing function, line) of every reference to a NAMES function of yaml."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if (isinstance(node, ast.Attribute) and node.attr in NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "yaml"):
            found.append((func, node.lineno))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yaml"
                and any(alias.name in NAMES for alias in node.names)):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_yaml_load_and_dump_only_in_the_config_functions():
    uses = {path.name: _yaml_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))}
    stray = [f"{module}:{line} in {func}" for module, found in uses.items()
             for func, line in found if (module, func) not in ALLOWED]
    assert stray == [], "yaml load/dump outside the config functions:\n" + "\n".join(stray)
    assert ("cli.py", "dump_config") in {(m, f) for m, found in uses.items() for f, _ in found}


def test_scan_sees_calls_aliases_and_imports():
    tree = ast.parse(
        "import yaml\n"
        "from yaml import safe_load as sl\n"
        "def stamp(cfg):\n"
        "    return hash(yaml.dump(cfg))\n"
        "dumper = yaml.safe_dump\n")
    assert _yaml_uses(tree) == [(None, 2), ("stamp", 4), (None, 5)]
