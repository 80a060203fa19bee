"""Command-line front end: solve sweeps, blow-up scans, period checks, comparisons.

One structured YAML config file drives every run (the full grammar is documented
in the repository README).  The file has up to four blocks::

    problem:   the force term -- a named preset or an explicit matrix plus g
    data:      the initial-velocity family and its parameters
    task:      the command block (times/points to sweep, tolerances, seeds)
    solver:    optional Newton knobs (newton_tol, max_iter)

Subcommands: ``solve`` (CSV sweep of u(t, x)), ``blowup`` (sheet scan plus
catastrophe summary, for any force matrix A), ``period`` (text report from the
matrix-exponential period test), ``compare`` (random characteristic samples
against the implicit solver, with a pass/fail error gate) and ``coriolis3d``
(solve or blowup in the kernel-adapted frame of the rotating 3D preset).
``solve`` and ``blowup`` read coriolis3d-preset data in the original frame x,
``compare`` and ``coriolis3d`` in the rotated frame ``y = L x`` (_frame).

Output is CSV (or plain text for ``period``) with a leading comment block that
carries the config hash; identical config plus seed produces byte-identical
output (``--threads`` is accepted and has no effect).  ``--out`` is rewritten
in place (_write_text).  Exit codes: 0 success, 1 config or output error,
2 solver failure, 3 comparison gate breach.

Every command runs hodograph, matops and model, which load with this module;
blowup, degenerate, oracle and periodicity are imported inside the functions
that run them, so a command loads only its own modules (``solve`` none of
these four).  The argument parser is built on the first main() call and kept.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import re
import stat
import sys

import numpy as np
import yaml

from . import hodograph, matops, model  # every command runs these; the rest load where used
from .errors import ConfigError, HodoflowError

_COMMAND_HELP = {  # each command's one-line description in --help
    "solve": "sweep u(t, x) over a time/point grid, CSV output",
    "blowup": "scan blow-up sheets and report the first catastrophe",
    "period": "matrix-exponential periodicity report for A",
    "compare": "random characteristics vs the implicit solver, with gate",
    "coriolis3d": "solve/blowup through the kernel-adapted rotating frame",
}
_COMMANDS = tuple(_COMMAND_HELP)
_PRESETS = ("coriolis2d", "coriolis3d", "diag", "periodic2d")
_TOP_KEYS = ("problem", "data", "task", "solver")

# libyaml's parser, and its emitter for what dump_config does not write itself,
# when PyYAML was built with it: same documents, same canonical text, a
# fraction of the pure-Python time.
if yaml.__with_libyaml__:
    _SafeLoader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _SafeLoader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


class _Loader(_SafeLoader):
    """The safe loader, whose composer tags plain int and float text of
    _DECIMAL's patterns at once; any other node goes through PyYAML's
    resolver and its per-node list of regular expressions."""

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0]:
            if _FLOAT_TEXT.match(value):
                return _FLOAT
            if _INT_TEXT.match(value):
                return _INT
        return _SafeLoader.resolve(self, kind, value, implicit)


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _coerce(kind, value, key):
    """kind(value) for a config number or array, or a ConfigError naming the key;
    an int key takes no bool and no fraction, which int() would truncate."""
    try:
        if kind is int and (isinstance(value, bool)
                            or isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value {value!r} for config key {key!r}") from None


def _positive(kind, value, key):
    """_coerce, and a ConfigError unless the value is positive and finite."""
    value = _coerce(kind, value, key)
    _require(0 < value < np.inf, f"config key {key!r} must be positive and finite, got {value!r}")
    return value


def _seed(flag, block):
    """The --seed flag, else the block's seed (default 0); a ConfigError unless >= 0."""
    seed = _coerce(int, block.get("seed", 0), "seed") if flag is None else flag
    _require(seed >= 0, f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _floats(value, key):
    """A config number or array as floats; a ConfigError unless all are finite."""
    arr = _coerce(lambda v: np.asarray(v, dtype=float), value, key)
    if not np.isfinite(arr).all():  # its text, the repr of every value, only on failure
        raise ConfigError(f"config key {key!r} needs finite numbers, got {value!r}")
    return arr


def _pair(value, key):
    """A two-entry config list of finite floats lo <= hi, such as t_range."""
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"config key {key!r} needs a list of two numbers, got {value!r}")
    lo, hi = (_coerce(float, v, key) for v in value)
    _require(-np.inf < lo <= hi < np.inf,
             f"config key {key!r} needs finite low <= high, got {value!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# config loading


def load_config(path):
    """Read and validate a YAML run config; returns a plain dict.

    The loader (libyaml when PyYAML has it) composes the document into nodes,
    with yaml.load's parser and error messages.  Plain data (string keys, str,
    int, float, bool and null scalars, lists and mappings, no node met twice)
    is then built in one walk, to the values SafeLoader gives; any other
    document is built whole by the loader's own constructor.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = _load(_Loader(fh))
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    _require(isinstance(cfg, dict), "top-level config must be a mapping")
    validate_config(cfg)
    return cfg


def dump_config(cfg):
    """Canonical YAML serialization (sorted keys); load(dump(cfg)) == cfg.

    The text is yaml.safe_dump(cfg, sort_keys=True)'s.  Plain data (string
    keys, lists, mappings, floats, ints, bools, None and ASCII identifiers
    that read back as strings, no list or mapping met twice) is written here
    in SafeDumper's block layout; anything else goes through PyYAML, whose
    libyaml emitter gives the same text for any config with non-empty keys,
    except a string long enough to be line-folded that holds non-ASCII or
    control characters, which libyaml folds differently, and a key of 123 to
    128 characters, which libyaml writes as a simple key.
    """
    if type(cfg) is dict or type(cfg) is list:
        try:
            return "\n".join(_block_lines(cfg, set())) + "\n"
        except _NotPlain:
            pass
    return yaml.dump(cfg, Dumper=_Dumper, sort_keys=True)


def config_hash(cfg):
    """SHA-256 of the canonical serialization, used to stamp output files."""
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()


class _NotPlain(Exception):
    """A node or value outside plain data: PyYAML builds or writes the whole document."""


_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _TAG + "str", _TAG + "seq", _TAG + "map"
_INT, _FLOAT = _TAG + "int", _TAG + "float"
# int and float text that the resolver tags int and float (_Loader at once)
# and int() and float() read as SafeConstructor does; other int, float, bool
# and null text goes through the resolver's list and the constructor for its tag
_INT_TEXT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)\Z")
_FLOAT_TEXT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?\Z")
_DECIMAL = {_INT: (_INT_TEXT, int), _FLOAT: (_FLOAT_TEXT, float)}
_SCALAR_TAGS = (*_DECIMAL, _TAG + "bool", _TAG + "null")


def _load(loader):
    """yaml.load's value of the loader's one document (None for none)."""
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        try:
            return _plain_data(node, loader, set())
        except _NotPlain:
            return loader.construct_document(node)
    finally:
        loader.dispose()


def _plain_data(node, loader, seen):
    """SafeConstructor's value of a composed plain-data node, built directly;
    _NotPlain for merge keys, non-string keys, other tags and aliases (seen
    holds the ids of the collection nodes met so far)."""
    if node.id == "scalar":
        return _scalar_value(node, loader)
    if id(node) in seen:
        raise _NotPlain  # an alias: SafeLoader shares the object, or builds a cycle
    seen.add(id(node))
    if node.tag == _SEQ:
        return [_plain_data(item, loader, seen) for item in node.value]
    if node.tag != _MAP:
        raise _NotPlain
    data = {}
    for key, value in node.value:
        if key.tag != _STR or key.id != "scalar":
            raise _NotPlain  # also the merge key <<
        data[key.value] = _plain_data(value, loader, seen)
    return data


def _scalar_value(node, loader):
    """SafeConstructor's value of a str, int, float, bool or null scalar node."""
    tag, text = node.tag, node.value
    if tag == _STR:
        return text
    if tag in _DECIMAL:
        pattern, kind = _DECIMAL[tag]
        if pattern.match(text):
            return kind(text)
    if tag in _SCALAR_TAGS:
        return loader.yaml_constructors[tag](loader, node)
    raise _NotPlain


# at most 122 characters: SafeDumper writes a longer key as '? key' (it counts
# the 5 characters of the tag !!str toward its simple-key limit of 128),
# libyaml only one past 128, so a longer key goes to PyYAML as it always did
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,121}\Z")
_RESOLVER = yaml.resolver.Resolver()


def _plain_str(text):
    """Whether SafeDumper writes text as it is: an ASCII identifier that the
    resolver reads back as a string (not yes, On, null, ...)."""
    return (_WORD.match(text) is not None
            and _RESOLVER.resolve(yaml.ScalarNode, text, (True, False)) == _STR)


_NON_FINITE = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}


def _scalar_text(value):
    """SafeRepresenter's plain text of a scalar; _NotPlain for any other value.
    A float is repr().lower() with '.0' put before a bare exponent."""
    kind = type(value)
    if kind is float:
        text = repr(value).lower()
        if "e" in text and "." not in text:
            return text.replace("e", ".0e", 1)
        return _NON_FINITE.get(text, text)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is str and _plain_str(value):
        return value
    raise _NotPlain


def _block_lines(value, seen):
    """SafeDumper's block-style lines of a list or mapping, without the indent
    of its position: one line for an empty one (seen holds the ids of the
    collections written so far; a second meeting would be an anchor and an
    alias)."""
    if id(value) in seen:
        raise _NotPlain
    seen.add(id(value))
    if not value:
        return ["{}" if type(value) is dict else "[]"]
    lines = []
    if type(value) is list:
        for item in value:
            if type(item) is dict or type(item) is list:
                first, *rest = _block_lines(item, seen)
                lines.append("- " + first)
                lines.extend(["  " + line for line in rest])
            else:
                lines.append("- " + _scalar_text(item))
        return lines
    if not all(type(key) is str and _plain_str(key) for key in value):
        raise _NotPlain
    for key in sorted(value):
        item = value[key]
        if type(item) is not dict and type(item) is not list:
            lines.append(f"{key}: {_scalar_text(item)}")
        elif not item:
            lines.append(f"{key}: {_block_lines(item, seen)[0]}")
        else:  # a mapping in a mapping is indented, a sequence is not
            lines.append(key + ":")
            sub = _block_lines(item, seen)
            lines.extend(["  " + line for line in sub] if type(item) is dict else sub)
    return lines


def validate_config(cfg):
    """Structural checks; raises ConfigError with a pointed message."""
    for key in cfg:
        _require(key in _TOP_KEYS, f"unknown top-level config key {key!r}")
    _require("problem" in cfg, "config needs a 'problem' block")
    problem = cfg["problem"]
    _require(isinstance(problem, dict), "'problem' must be a mapping")
    preset = problem.get("preset")
    if preset is not None:
        _require(preset in _PRESETS, f"unknown preset {preset!r}; known: {_PRESETS}")
    else:
        _require("matrix" in problem, "problem needs a 'preset' or an explicit 'matrix'")
    if "data" in cfg:
        data = cfg["data"]
        _require(isinstance(data, dict), "'data' must be a mapping")
        _require("family" in data, "data block needs a 'family'")
        _require(isinstance(data["family"], str) and data["family"] in model.FAMILIES,
                 f"unknown data family {data['family']!r}; known: {sorted(model.FAMILIES)}")
    if "task" in cfg:
        task = cfg["task"]
        _require(isinstance(task, dict), "'task' must be a mapping")
        name = task.get("name")
        if name is not None:
            _require(name in _COMMANDS, f"unknown task name {name!r}; known: {_COMMANDS}")
    if "solver" in cfg:
        _require(isinstance(cfg["solver"], dict), "'solver' must be a mapping")


def build_spec(problem):
    """ForceSpec from the problem block (preset or explicit matrix)."""
    g = problem.get("g")
    preset = problem.get("preset")
    try:
        g_vec = None if g is None else np.asarray(g, dtype=float)
        if preset == "coriolis2d":
            spec = model.coriolis2d_spec(float(problem["omega"]), g=g_vec)
        elif preset == "coriolis3d":
            _require(g is None, "the coriolis3d preset takes 'g_mag', not a 'g' vector")
            spec = model.coriolis3d_spec(problem["omega"], g_mag=float(problem.get("g_mag", 0.0)))
        elif preset == "diag":
            spec = model.diag_spec(problem["rates"], g=g_vec)
        elif preset == "periodic2d":
            from . import periodicity

            A = periodicity.make_periodic_2d(
                float(problem["lam"]), float(problem["a11"]), float(problem["a12"])
            )
            spec = model.ForceSpec(A, np.zeros(2) if g_vec is None else g_vec)
        else:
            A = np.asarray(problem["matrix"], dtype=float)
            _require(A.ndim == 2 and A.shape[0] == A.shape[1], "'matrix' must be square")
            spec = model.ForceSpec(A, np.zeros(A.shape[0]) if g_vec is None else g_vec)
    except KeyError as exc:
        raise ConfigError(f"problem block is missing {exc.args[0]!r}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad problem block: {exc}") from None
    dim = problem.get("dimension")
    if dim is not None:
        _require(_coerce(int, dim, "dimension") == spec.n,
                 f"declared dimension {dim} != matrix size {spec.n}")
    return spec


def _make_data(family, params):
    """model.make_data(family, **params); a ConfigError when params is not a
    mapping or the family's constructor refuses it (TypeError, ValueError)."""
    _require(isinstance(params, dict), "'params' must be a mapping")
    try:
        return model.make_data(family, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params for family {family!r}: {exc}") from None


def build_data(data_block):
    """InitialData from the data block (family + params, separable recursion)."""
    family = data_block["family"]
    if family != "separable":
        return _make_data(family, data_block.get("params", {}))
    comps = data_block.get("components")
    _require(isinstance(comps, list) and comps, "separable data needs a 'components' list")
    parts = []
    for comp in comps:
        _require(isinstance(comp, dict) and "family" in comp,
                 "each separable component needs a 'family'")
        name = comp["family"]
        _require(isinstance(name, str) and name in model.FAMILIES and name != "separable",
                 f"a separable component needs a registered family other than 'separable', "
                 f"got {name!r}")
        parts.append(_make_data(name, comp.get("params", {})))
    return model.Separable(parts)


def build_problem(cfg):
    """HodographProblem from the problem/data/solver blocks."""
    _require("data" in cfg, "this command needs a 'data' block")
    spec = build_spec(cfg["problem"])
    data = build_data(cfg["data"])
    solver = cfg.get("solver", {})
    return model.HodographProblem(
        spec,
        data,
        newton_tol=_positive(float, solver.get("newton_tol", 1e-12), "newton_tol"),
        newton_max_iter=_positive(int, solver.get("max_iter", 50), "max_iter"),
    )


def _frame(cfg, problem):
    """(problem, None), or for the coriolis3d preset (its rotated problem, the
    basis): compare and coriolis3d read that preset's data in y = L x."""
    if cfg["problem"].get("preset") != "coriolis3d":
        return problem, None
    from . import degenerate

    basis = degenerate.coriolis3d_basis(cfg["problem"]["omega"])
    return degenerate.rotated_problem(problem, basis), basis


def _task_block(cfg, command):
    task = cfg.get("task", {})
    name = task.get("name")
    if name is not None:
        _require(name == command,
                 f"config task name {name!r} does not match command {command!r}")
    return task


def _parse_times(task):
    times = task.get("times")
    if isinstance(times, dict):
        try:
            start, stop, num = times["start"], times["stop"], times["num"]
        except KeyError as exc:
            raise ConfigError(f"times range is missing {exc.args[0]!r}") from None
        num = _coerce(int, num, "num")
        if not num > 0:
            raise ConfigError(f"times range needs num > 0, got {num}")
        start, stop = _coerce(float, start, "start"), _coerce(float, stop, "stop")
        if not np.isfinite([start, stop]).all():
            raise ConfigError(f"times range needs finite start and stop, got {[start, stop]}")
        return np.linspace(start, stop, num)
    if isinstance(times, list):
        _require(len(times) > 0, "'times' list is empty")
        arr = _floats(times, "times")
        if arr.ndim != 1:
            raise ConfigError(f"'times' must be a flat list of numbers, got {times!r}")
        return arr
    raise ConfigError("task needs 'times': a list or {start, stop, num}")


def _parse_points(task, n):
    pts = task.get("points")
    if isinstance(pts, dict):
        try:
            lo = np.atleast_1d(_floats(pts["min"], "min"))
            hi = np.atleast_1d(_floats(pts["max"], "max"))
            num = pts["num"]
        except KeyError as exc:
            raise ConfigError(f"points range is missing {exc.args[0]!r}") from None
        _require(lo.size == n and hi.size == n, f"points min/max must have {n} entries")
        nums = [_coerce(int, k, "num") for k in ([num] * n if np.isscalar(num) else num)]
        _require(len(nums) == n, f"points num must be a scalar or {n} entries")
        _require(min(nums) > 0, f"points range needs every num > 0, got {nums}")
        axes = [np.linspace(lo[i], hi[i], nums[i]) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
    if isinstance(pts, list):
        _require(len(pts) > 0, "'points' list is empty")
        arr = _floats(pts, "points")
        if arr.ndim == 1:
            arr = arr[:, None]
        _require(arr.ndim == 2 and arr.shape[1] == n,
                 f"each point must have {n} coordinates")
        return arr
    raise ConfigError("task needs 'points': a list or {min, max, num}")


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v):
    return repr(float(v))


def _emit(out_path, comments, header, columns):
    """Commented CSV from one column per header entry: a list of text cells,
    or an array, range or list of numbers (NaN for an empty cell, written
    'nan').

    Text columns go in as they are and each other column is formatted in one
    pass; str of a Python float is its repr, so every float cell is _fmt's
    text.  A column is all text or all numbers, so its first cell tells which.
    """
    cells = []
    for column in columns:
        values = column.tolist() if isinstance(column, np.ndarray) else column
        cells.append(values if values and type(values[0]) is str else map(str, values))
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    _write_text(out_path, "\n".join(lines) + "\n")


# O_BINARY (Windows only) keeps '\n' as it is; there is no O_TRUNC (_write_text)
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


class _OutputError(Exception):
    """The --out file could not be opened or written: exit 1, 'output error'."""


def _write_text(out_path, text):
    """text as UTF-8 into the file out_path, rewritten in place, or to stdout.

    The file is opened without truncating it, the bytes go through a buffered
    binary file object (which retries a partial write) and are flushed, and
    then a regular file is cut at the current offset (ftruncate of a device
    such as /dev/null fails with EINVAL).  After a success the file holds
    exactly the new bytes; after a failed write, exactly the bytes written,
    as a truncating open leaves it.  The reason is time: on ext4, truncating
    a file that holds data frees its blocks, and auto_da_alloc then starts
    writeback of the new data when the file is closed.  Timed on a 2-vCPU
    VM's ext4 root, one CLI run then perfbench's reference loop, 40 times,
    each write took a median 0.46-0.58 ms with a truncating open (~1/5 of a
    ~2.5 ms blowup-scan run) and 0.08-0.17 ms in place.  Nothing is synced:
    after a power loss the file may still hold older bytes, and the CLI
    makes no durability promise.  An OSError of the file other than a broken
    pipe is an _OutputError naming the path.
    """
    if not out_path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        with open(os.open(out_path, _OUT_FLAGS, 0o666), "wb") as fh:
            try:
                fh.write(data)
                fh.flush()  # so the cut is at their end: a short text is still buffered
            finally:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.raw.truncate()  # at the offset the written bytes reached
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _OutputError(f"cannot write {out_path!r}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# solve


def _sample_columns(times, points, U, iters, status):
    """CSV columns t, x1..xn, u1..un, newton_iters, status of a solve_field
    sweep over times x points, point-major.  Each time and point coordinate
    is formatted once and repeated: by position, as a cache by value would
    merge -0.0 with 0.0."""
    k, q, n = U.shape
    t = [_fmt(v) for v in times] * k
    X = [[text for text in map(_fmt, axis.tolist()) for _ in range(q)] for axis in points.T]
    return [t, *X, *U.reshape(-1, n).T, iters.ravel(), status.ravel()]


def cmd_solve(cfg, out_path):
    return _solve(cfg, out_path, "solve", build_problem(cfg), _task_block(cfg, "solve"))


def _solve(cfg, out_path, command, problem, task, basis=None):
    """The solve sweep of the task's times and points.  With the basis of a
    rotated frame (_frame), problem is the rotated problem: points map in
    through L and each solved u back through P."""
    times = _parse_times(task)
    points = _parse_points(task, problem.spec.n)
    frame_points = points if basis is None else points @ basis.L.T
    U, iters, status = hodograph.solve_field(problem, times, frame_points)
    U = U if basis is None else matops.matvec(basis.P, U)
    n = problem.spec.n
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(n)] + ["newton_iters", "status"])
    _emit(out_path, [f"config-sha256: {config_hash(cfg)}", f"command: {command}"], header,
          _sample_columns(times, points, U, iters, status))
    if not (status == "OK").any():
        print(f"{command}: no point/time converged", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# blowup


def _summary_lines(ext, basis=None):
    from . import blowup

    if isinstance(ext, blowup.NoBlowup):
        return [f"no blow-up: {ext.reason}"]
    x_star, u_star = ext.x_star, ext.u_star
    if basis is not None:
        x_star, u_star = basis.P @ x_star, basis.P @ u_star
    return [
        f"t_star: {_fmt(ext.t_star)}",
        f"M_star: {' '.join(_fmt(v) for v in np.atleast_1d(ext.M_star))}",
        f"x_star: {' '.join(_fmt(v) for v in np.atleast_1d(x_star))}",
        f"u_star: {' '.join(_fmt(v) for v in np.atleast_1d(u_star))}",
        f"branch: {ext.branch}",
    ]


def _sheet_columns(sheets, n):
    """CSV columns branch, M1..Mn, t: every sheet's grid points in turn."""
    branch = [sheet.branch for sheet in sheets for _ in range(len(sheet.t))]
    M = np.concatenate([np.empty((0, n)), *(sheet.points for sheet in sheets)])
    t = np.concatenate([np.empty(0), *(sheet.t for sheet in sheets)])
    return [branch, *M.T, t]


def cmd_blowup(cfg, out_path):
    return _blowup(cfg, out_path, "blowup", build_problem(cfg), _task_block(cfg, "blowup"))


def _blowup(cfg, out_path, command, problem, task, basis=None):
    """The sheet scan and catastrophe summary.  With the basis of a rotated
    frame (_frame), problem is the rotated problem, x* and u* map back through
    P, and the task may set scan_step."""
    from . import blowup

    grid_num = task.get("grid_num")
    step = 5e-2 if basis is None else task.get("scan_step", 5e-2)  # blowup has no scan_step key
    sheets, cert_lines = blowup.build_sheets(
        problem,
        grid_num=None if grid_num is None else _positive(int, grid_num, "grid_num"),
        t_max=_positive(float, task.get("t_max", 10.0), "t_max"),
        scan_step=_positive(float, step, "scan_step"),
    )
    ext = blowup.min_blowup_time(problem, sheets)
    comments = [f"config-sha256: {config_hash(cfg)}", f"command: {command}"]
    for sheet in sheets:
        if sheet.absent_reason:
            comments.append(f"sheet {sheet.branch} nan entries: {sheet.absent_reason}")
    comments.extend(cert_lines)
    summary = _summary_lines(ext, basis)
    comments.extend(summary)
    header = ["branch"] + [f"M{i + 1}" for i in range(problem.spec.n)] + ["t"]
    _emit(out_path, comments, header, _sheet_columns(sheets, problem.spec.n))
    if out_path:
        print("\n".join(summary + cert_lines))
    return 0


# ---------------------------------------------------------------------------
# period


def cmd_period(cfg, out_path, seed=None):
    from . import periodicity

    spec = build_spec(cfg["problem"])
    task = _task_block(cfg, "period")
    report = periodicity.check_periodic(
        spec.A,
        rational_tol=_positive(float, task.get("rational_tol", 1e-9), "rational_tol"),
        max_denominator=_positive(int, task.get("max_denominator", 64), "max_denominator"),
    )
    lines = [f"# config-sha256: {config_hash(cfg)}", "command: period"]
    lines.append(f"periodic: {str(bool(report)).lower()}")
    if report.periodic:
        lines.append(f"T: {_fmt(report.T)}")
        lines.append("eigenvalues: " + "; ".join(
            f"{v.real:+.12g}{v.imag:+.12g}j" for v in report.eigenvalues))
        lines.append("multipliers: " + "; ".join(
            f"{f.numerator}/{f.denominator}" for f in report.multipliers))
        lines.append(f"exp_defect: {_fmt(report.exp_defect)}")
    else:
        lines.append(f"reason: {report.reason}")
    verify = task.get("verify")
    if verify is not None:  # checked whole, also where A turns out not to be periodic
        _require(isinstance(verify, dict), "'verify' must be a mapping")
        _require("data" in cfg, "period verification needs a 'data' block")
        problem = build_problem(cfg)
        _require(not np.any(problem.spec.g), "period verification needs g = 0")
        rng = np.random.default_rng(_seed(seed, verify))
        num = _coerce(int, verify.get("num_points", 20), "num_points")
        _require(num > 0, f"period verify needs num_points > 0, got {num}")
        t_range = _pair(verify["t_range"], "t_range") if "t_range" in verify else None
        tol = _positive(float, verify.get("tol", 1e-8), "tol")
        if report.periodic:
            t_lo, t_hi = t_range or (0.0, report.T)
            box = problem.data.sample_box()
            R = rng.random((num, 1 + len(box)))  # per sample: t, then x
            samples = list(zip(t_lo + (t_hi - t_lo) * R[:, 0],
                               box[:, 0] + (box[:, 1] - box[:, 0]) * R[:, 1:]))
            check = periodicity.verify_solution_period(problem, report.T, samples, tol=tol)
            lines.append(f"verify: {'pass' if check.ok else 'fail'}")
            lines.append(f"verify_max_delta: {_fmt(check.max_delta)}")
            for t, x, why in check.failures:
                lines.append(f"verify_failure: t = {_fmt(t)}, "
                             f"x = ({', '.join(map(_fmt, x))}): {why}")
    _write_text(out_path, "\n".join(lines) + "\n")
    if out_path:
        print("\n".join(lines[1:]))
    return 0


# ---------------------------------------------------------------------------
# compare


def _compare_columns(cfg, problem, task, seed):
    """Random characteristic endpoints vs the implicit solver: (T, X, err, status).

    Samples x0 from the data's sampling box and t from t_range, flows the
    exact characteristic to (t, x(t)), then asks the solver for u(t, x(t)).
    Points whose track hits a caustic before t are tagged POST_BLOWUP and
    excluded from the gate.  Every sample is handled at once: one caustic
    screen, one stacked exact flow and one Newton solve with a time per row,
    which also gives the velocities in the solve frame.
    err is NaN where status is not OK; a sample the solver fails is SOLVE_FAIL(<error>).
    """
    from . import oracle

    spec, data = problem.spec, problem.data
    num = _coerce(int, task.get("num_samples", 200), "num_samples")
    _require(num > 0, f"compare needs num_samples > 0, got {num}")
    t_lo, t_hi = _pair(task.get("t_range", [0.05, 0.5]), "t_range")
    _require(t_lo >= 0.0, f"compare screens caustics for t > 0 only; t_range {[t_lo, t_hi]} "
                          "has a negative bound")
    rng = np.random.default_rng(seed)
    box = data.sample_box()
    R = rng.random((num, len(box) + 1))  # per sample: x0, then t
    Y0, T = box[:, 0] + (box[:, 1] - box[:, 0]) * R[:, :-1], t_lo + (t_hi - t_lo) * R[:, -1]
    # x0 and the solve run in the data's frame: the kernel-adapted one for coriolis3d
    frame, basis = _frame(cfg, problem)
    if basis is None:
        X0, U0 = Y0, data.u0(Y0)
        to_frame = from_frame = np.eye(spec.n)
    else:
        from . import degenerate

        X0 = matops.matvec(basis.P, Y0)
        U0 = degenerate.u0_original(basis, data, X0)
        to_frame, from_frame = basis.L, basis.P
    constant = isinstance(data, model.Constant)
    # constant data is rigid transport: its characteristics never cross
    caustic = np.full(num, np.inf) if constant else oracle.caustic_times(frame.spec, data, Y0, T)
    flow = oracle.exact_flow(spec, X0, U0, T)
    err = np.full(num, np.nan)
    status = np.full(num, "POST_BLOWUP", dtype=object)
    rows = np.flatnonzero(~(caustic <= T))
    if constant:
        u = np.array([hodograph.closed_form("const_M", spec, T[i], flow.x[i], U0[i]) for i in rows])
        err[rows], status[rows] = np.abs(u - flow.u[rows]).max(axis=1), "OK"
    elif rows.size:
        Xf = matops.matvec(to_frame, flow.x[rows])
        _, U, _, _, st = hodograph._newton(frame, T[rows, None], Xf)
        ok = st[:, 0] == "OK"
        u = matops.matvec(from_frame, U[ok, 0])
        err[rows[ok]] = np.abs(u - flow.u[rows[ok]]).max(axis=1)
        status[rows] = [s if s == "OK" else
                        f"SOLVE_FAIL({hodograph.STATUS_ERRORS[s].__name__})" for s in st[:, 0]]
    return T, flow.x, err, status


def cmd_compare(cfg, out_path, seed=None):
    problem = build_problem(cfg)
    task = _task_block(cfg, "compare")
    eff_seed = _seed(seed, task)
    bound = _coerce(float, task.get("bound", 1e-9), "bound")
    _require(bound >= 0.0, f"config key 'bound' must be a non-negative number, got {bound!r}")
    T, X, err, status = _compare_columns(cfg, problem, task, eff_seed)
    ok = status == "OK"
    n_ok, n_post = int(ok.sum()), int((status == "POST_BLOWUP").sum())
    n_fail = len(T) - n_ok - n_post
    max_err = err[ok].max() if n_ok else float("nan")
    gate_ok = n_ok > 0 and max_err <= bound
    comments = [
        f"config-sha256: {config_hash(cfg)}",
        "command: compare",
        f"seed: {eff_seed}",
        f"samples: {len(T)} (ok: {n_ok}, post_blowup: {n_post}, solve_fail: {n_fail})",
        f"max_error: {_fmt(max_err)}",
        f"bound: {_fmt(bound)}",
        f"gate: {'pass' if gate_ok and not n_fail else 'fail'}",
    ]
    n = problem.spec.n
    header = ["sample", "t"] + [f"x{i + 1}" for i in range(n)] + ["err", "status"]
    _emit(out_path, comments, header, [range(len(T)), T, *X.T, err, status])
    if out_path:
        print("\n".join(comments[3:]))
    if n_fail:
        print(f"compare: {n_fail} pre-blow-up sample(s) failed to solve", file=sys.stderr)
        return 2
    if not gate_ok:
        print(f"compare: max error {_fmt(max_err)} exceeds bound {_fmt(bound)}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# coriolis3d (solve/blowup in the kernel-adapted frame)


def cmd_coriolis3d(cfg, out_path):
    problem = build_problem(cfg)
    _require(cfg["problem"].get("preset") == "coriolis3d",
             "the coriolis3d command needs problem.preset: coriolis3d")
    task = _task_block(cfg, "coriolis3d")
    mode = task.get("mode", "solve")
    _require(mode in ("solve", "blowup"), "coriolis3d mode must be 'solve' or 'blowup'")
    frame, basis = _frame(cfg, problem)
    run = _solve if mode == "solve" else _blowup
    return run(cfg, out_path, f"coriolis3d ({mode})", frame, task, basis)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1 for config errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and kept: each add_argument
    makes a help formatter that queries the terminal size."""
    commands = "\n".join(f"  {name:<12}{text}" for name, text in _COMMAND_HELP.items())
    parser = _Parser(prog="hodoflow", description=__doc__.splitlines()[0],
                     epilog=f"commands:\n{commands}",
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, help="what to run (see below)")
    parser.add_argument("--config", required=True, help="YAML run config")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the task seed (compare / period verify)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "blowup":
            return cmd_blowup(cfg, args.out)
        if args.command == "period":
            return cmd_period(cfg, args.out, seed=args.seed)
        if args.command == "compare":
            return cmd_compare(cfg, args.out, seed=args.seed)
        return cmd_coriolis3d(cfg, args.out)
    except BrokenPipeError:
        return 0
    except _OutputError as exc:
        print(f"hodoflow: output error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"hodoflow: config error: {exc}", file=sys.stderr)
        return 1
    except HodoflowError as exc:
        print(f"hodoflow: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
