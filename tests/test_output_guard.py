"""In cli.py only _write_text opens a file for writing.

Every command's output goes through cli._write_text, which rewrites --out in
place: it opens the file without O_TRUNC and cuts it at the end of the new
bytes.  A truncating open(path, "w") anywhere else in the CLI would bring
back the cost that design removes (see _write_text's docstring), so this
scan fails on any call in cli.py, outside _write_text, that can open a file
for writing: write_text, write_bytes, and any open whose mode it cannot read
as a read (an open, io.open or Path.open with a constant mode holding none
of w, a, x and +, or with no mode).  os.open and os.fdopen are taken for
writes whatever their flags.  O_TRUNC is named nowhere in cli.py.
"""
from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "hodoflow" / "cli.py"

ALLOWED = "_write_text"


def _mode(call):
    """The mode argument of an open call (None when it has none): the second
    of open(file, mode) and io.open(file, mode), the first of Path.open(mode)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    func = call.func
    at = 0 if isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id == "io") else 1
    return call.args[at] if len(call.args) > at else None


def _opens_for_writing(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "fdopen"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
        return True
    mode = _mode(call)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _write_opens(tree):
    """(enclosing top-level function, line) of every call that can open a file for writing."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_write_text_opens_a_file_for_writing():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    found = _write_opens(tree)
    stray = [f"cli.py:{line} in {func}" for func, line in found if func != ALLOWED]
    assert stray == [], "a file opened for writing outside _write_text:\n" + "\n".join(stray)
    assert {func for func, _ in found} == {ALLOWED}, found
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC"]


def test_the_scan_sees_writes_and_passes_reads():
    snippets = {
        'def f(p):\n    open(p, "w")\n': True,
        'def f(p):\n    open(p, mode="a", encoding="utf-8")\n': True,
        'def f(p, m):\n    open(p, m)\n': True,
        'def f(p):\n    io.open(p, "r+")\n': True,
        'def f(p):\n    p.open("wb")\n': True,
        'def f(p):\n    p.write_text("x")\n': True,
        'def f(p):\n    os.open(p, os.O_RDONLY)\n': True,
        'def f(fd):\n    os.fdopen(fd)\n': True,
        'def f(p):\n    open(p, "r", encoding="utf-8")\n': False,
        'def f(p):\n    open(p)\n': False,
        'def f(p):\n    p.open("rb")\n': False,
    }
    for code, writes in snippets.items():
        assert bool(_write_opens(ast.parse(code))) == writes, code
