"""Command-line front end: solve sweeps, blow-up scans, period checks, comparisons.

One structured YAML config file drives every run (the full grammar is documented
in the repository README).  The file has up to four blocks::

    problem:   the force term -- a named preset or an explicit matrix plus g
    data:      the initial-velocity family and its parameters
    task:      the command block (times/points to sweep, tolerances, seeds)
    solver:    optional Newton knobs (newton_tol, max_iter)

Subcommands: ``solve`` (CSV sweep of u(t, x)), ``blowup`` (sheet scan plus
catastrophe summary), ``period`` (text report from the matrix-exponential
period test), ``compare`` (random characteristic samples against the implicit
solver, with a pass/fail error gate) and ``coriolis3d`` (solve/blowup routed
through the kernel-adapted frame for the rotating 3D preset; initial data for
this command is registered in the rotated coordinates ``y = L x``).

Output is CSV (or plain text for ``period``) with a leading comment block that
carries the config hash; identical config plus seed produces byte-identical
output (``--threads`` is accepted and has no effect).  Exit codes: 0 success,
1 config error, 2 solver failure, 3 comparison gate breach.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np
import yaml

from . import blowup, degenerate, hodograph, model, oracle, periodicity
from .errors import ConfigError, HodoflowError

_COMMANDS = ("solve", "blowup", "period", "compare", "coriolis3d")
_PRESETS = ("coriolis2d", "coriolis3d", "diag", "periodic2d")
_TOP_KEYS = ("problem", "data", "task", "solver")

# libyaml's parser and emitter when PyYAML was built with it: same documents,
# same canonical text (see dump_config), a fraction of the pure-Python time.
if yaml.__with_libyaml__:
    _Loader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _Loader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _coerce(kind, value, key):
    """kind(value) for a config number or array, or a ConfigError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value {value!r} for config key {key!r}") from None


def _floats(value, key):
    return _coerce(lambda v: np.asarray(v, dtype=float), value, key)


def _pair(value, key):
    """A two-entry config list of floats, such as t_range."""
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"config key {key!r} needs a list of two numbers, got {value!r}")
    return tuple(_coerce(float, v, key) for v in value)


# ---------------------------------------------------------------------------
# config loading


def load_config(path):
    """Read and validate a YAML run config; returns a plain dict."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.load(fh, Loader=_Loader)
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    _require(isinstance(cfg, dict), "top-level config must be a mapping")
    validate_config(cfg)
    return cfg


def dump_config(cfg):
    """Canonical YAML serialization (sorted keys); load(dump(cfg)) == cfg.

    The text is yaml.safe_dump(cfg, sort_keys=True)'s for any config with
    non-empty keys, except a string long enough to be line-folded that holds
    non-ASCII or control characters, which libyaml folds differently.
    """
    return yaml.dump(cfg, Dumper=_Dumper, sort_keys=True)


def config_hash(cfg):
    """SHA-256 of the canonical serialization, used to stamp output files."""
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()


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
        _require(data["family"] in model.FAMILIES,
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


def build_data(data_block):
    """InitialData from the data block (family + params, separable recursion)."""
    family = data_block["family"]
    if family == "separable":
        comps = data_block.get("components")
        _require(isinstance(comps, list) and comps, "separable data needs a 'components' list")
        pairs = []
        for comp in comps:
            _require(isinstance(comp, dict) and "family" in comp,
                     "each separable component needs a 'family'")
            pairs.append((comp["family"], dict(comp.get("params", {}))))
        return model.make_data("separable", components=pairs)
    params = data_block.get("params", {})
    _require(isinstance(params, dict), "'params' must be a mapping")
    try:
        return model.make_data(family, **params)
    except TypeError as exc:
        raise ConfigError(f"bad params for family {family!r}: {exc}") from None


def build_problem(cfg):
    """HodographProblem from the problem/data/solver blocks."""
    _require("data" in cfg, "this command needs a 'data' block")
    spec = build_spec(cfg["problem"])
    data = build_data(cfg["data"])
    solver = cfg.get("solver", {})
    return model.HodographProblem(
        spec,
        data,
        newton_tol=_coerce(float, solver.get("newton_tol", 1e-12), "newton_tol"),
        newton_max_iter=_coerce(int, solver.get("max_iter", 50), "max_iter"),
    )


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
        _require(num > 0, f"times range needs num > 0, got {num}")
        return np.linspace(_coerce(float, start, "start"), _coerce(float, stop, "stop"), num)
    if isinstance(times, list):
        _require(len(times) > 0, "'times' list is empty")
        return _floats(times, "times")
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
    if v is None:
        return "nan"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit(out_path, comments, header, columns):
    """Commented CSV from one column per header entry: a float array (NaN
    for an empty cell, written 'nan') or a list of ints or strings.

    Each column is formatted in one pass; str of a Python float is its repr,
    so every float cell is _fmt's text.
    """
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    _write_text(out_path, "\n".join(lines) + "\n")


def _write_text(out_path, text):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# solve


def _sample_columns(samples, points, U):
    """CSV columns t, x1..xn, u1..un, newton_iters, status of solve_field's
    point-major samples over points; U holds each sample's u (None where
    unsolved)."""
    n = points.shape[1]
    X = np.repeat(points, len(samples) // len(points), axis=0)
    nan_u = np.full(n, np.nan)
    U = np.array([nan_u if u is None else u for u in U], dtype=float).reshape(-1, n)
    return [np.array([s.t for s in samples], dtype=float), *X.T, *U.T,
            [s.iters for s in samples], [s.status for s in samples]]


def cmd_solve(cfg, out_path):
    problem = build_problem(cfg)
    task = _task_block(cfg, "solve")
    times = _parse_times(task)
    points = _parse_points(task, problem.spec.n)
    samples = hodograph.solve_field(problem, times, points)
    n = problem.spec.n
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(n)] + ["newton_iters", "status"])
    _emit(out_path, [f"config-sha256: {config_hash(cfg)}", "command: solve"], header,
          _sample_columns(samples, points, [s.u for s in samples]))
    if not any(s.status == "OK" for s in samples):
        print("solve: no point/time converged", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# blowup


def _summary_lines(ext, to_original=None):
    if isinstance(ext, blowup.NoBlowup):
        return [f"no blow-up: {ext.reason}"]
    x_star, u_star = ext.x_star, ext.u_star
    if to_original is not None:
        x_star, u_star = to_original(x_star), to_original(u_star)
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
    problem = build_problem(cfg)
    task = _task_block(cfg, "blowup")
    grid_num = task.get("grid_num")
    sheets, cert_lines = blowup.build_sheets(
        problem,
        grid_num=None if grid_num is None else _coerce(int, grid_num, "grid_num"),
        t_max=_coerce(float, task.get("t_max", 10.0), "t_max"),
    )
    ext = blowup.min_blowup_time(problem, sheets)
    comments = [f"config-sha256: {config_hash(cfg)}", "command: blowup"]
    for sheet in sheets:
        if sheet.absent_reason:
            comments.append(f"sheet {sheet.branch} nan entries: {sheet.absent_reason}")
    comments.extend(cert_lines)
    summary = _summary_lines(ext)
    comments.extend(summary)
    header = ["branch"] + [f"M{i + 1}" for i in range(problem.spec.n)] + ["t"]
    _emit(out_path, comments, header, _sheet_columns(sheets, problem.spec.n))
    if out_path:
        print("\n".join(summary + cert_lines))
    return 0


# ---------------------------------------------------------------------------
# period


def cmd_period(cfg, out_path, seed=None):
    spec = build_spec(cfg["problem"])
    task = _task_block(cfg, "period")
    report = periodicity.check_periodic(
        spec.A,
        rational_tol=_coerce(float, task.get("rational_tol", 1e-9), "rational_tol"),
        max_denominator=_coerce(int, task.get("max_denominator", 64), "max_denominator"),
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
    if report.periodic and verify is not None and "data" in cfg:
        _require(isinstance(verify, dict), "'verify' must be a mapping")
        problem = build_problem(cfg)
        _require(not np.any(problem.spec.g), "period verification needs g = 0")
        if seed is None:
            seed = _coerce(int, verify.get("seed", 0), "seed")
        rng = np.random.default_rng(seed)
        num = _coerce(int, verify.get("num_points", 20), "num_points")
        t_lo, t_hi = _pair(verify.get("t_range", [0.0, report.T]), "t_range")
        box = problem.data.sample_box()
        samples = [
            (rng.uniform(t_lo, t_hi), rng.uniform(box[:, 0], box[:, 1])) for _ in range(num)
        ]
        check = periodicity.verify_solution_period(
            problem, report.T, samples, tol=_coerce(float, verify.get("tol", 1e-8), "tol")
        )
        lines.append(f"verify: {'pass' if check.ok else 'fail'}")
        lines.append(f"verify_max_delta: {_fmt(check.max_delta)}")
        for failure in check.failures:
            lines.append(f"verify_failure: {failure}")
    _write_text(out_path, "\n".join(lines) + "\n")
    if out_path:
        print("\n".join(lines[1:]))
    return 0


# ---------------------------------------------------------------------------
# compare


def _compare_rows(cfg, problem, task, seed):
    """Random characteristic endpoints vs the implicit solver.

    Samples x0 from the data's sampling box and t from t_range, flows the
    exact characteristic to (t, x(t)), then asks the solver for u(t, x(t)).
    Points whose track hits a caustic before t are tagged POST_BLOWUP and
    excluded from the gate.
    """
    spec, data = problem.spec, problem.data
    preset = cfg["problem"].get("preset")
    rot = None
    if preset == "coriolis3d":
        basis = degenerate.coriolis3d_basis(cfg["problem"]["omega"])
        rot = (basis, degenerate.rotated_spec(spec, basis))
    rng = np.random.default_rng(seed)
    num = _coerce(int, task.get("num_samples", 200), "num_samples")
    t_lo, t_hi = _pair(task.get("t_range", [0.05, 0.5]), "t_range")
    box = data.sample_box()
    draws = []
    for _ in range(num):
        y0 = rng.uniform(box[:, 0], box[:, 1])
        draws.append((rng.uniform(t_lo, t_hi), y0))

    def evaluate(idx):
        t, y0 = draws[idx]
        if rot is None:
            x0, u0_val = y0, data.u0(y0)
            caustic = oracle.first_caustic_time(spec, data, y0, t_max=t)
        else:
            basis, rot_spec = rot
            x0 = basis.P @ y0
            u0_val = degenerate.u0_original(basis, data, x0)
            caustic = oracle.first_caustic_time(rot_spec, data, y0, t_max=t)
        flow = oracle.exact_flow(spec, x0, u0_val, t)
        if caustic is not None and caustic <= t:
            return [idx, t, *flow.x, None, "POST_BLOWUP"]
        try:
            if rot is None:
                numeric = hodograph.solve_u(problem, t, flow.x)
            else:
                numeric = degenerate.degenerate_solve(problem, rot[0], t, flow.x)
        except HodoflowError as exc:
            return [idx, t, *flow.x, None, f"SOLVE_FAIL({type(exc).__name__})"]
        err = float(np.max(np.abs(numeric.u - flow.u)))
        return [idx, t, *flow.x, err, "OK"]

    return [evaluate(i) for i in range(num)]


def cmd_compare(cfg, out_path, seed=None):
    problem = build_problem(cfg)
    task = _task_block(cfg, "compare")
    eff_seed = seed if seed is not None else _coerce(int, task.get("seed", 0), "seed")
    rows = _compare_rows(cfg, problem, task, eff_seed)
    bound = _coerce(float, task.get("bound", 1e-9), "bound")
    errs = [r[-2] for r in rows if r[-1] == "OK"]
    max_err = max(errs) if errs else float("nan")
    n_fail = sum(1 for r in rows if str(r[-1]).startswith("SOLVE_FAIL"))
    n_post = sum(1 for r in rows if r[-1] == "POST_BLOWUP")
    gate_ok = bool(errs) and max_err <= bound
    comments = [
        f"config-sha256: {config_hash(cfg)}",
        "command: compare",
        f"seed: {eff_seed}",
        f"samples: {len(rows)} (ok: {len(errs)}, post_blowup: {n_post}, solve_fail: {n_fail})",
        f"max_error: {_fmt(max_err)}",
        f"bound: {_fmt(bound)}",
        f"gate: {'pass' if gate_ok and not n_fail else 'fail'}",
    ]
    n = problem.spec.n
    header = ["sample", "t"] + [f"x{i + 1}" for i in range(n)] + ["err", "status"]
    cols = list(zip(*rows)) or [()] * len(header)
    floats = [np.array([np.nan if v is None else v for v in c], dtype=float) for c in cols[1:-1]]
    _emit(out_path, comments, header, [cols[0], *floats, cols[-1]])
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
# coriolis3d (degenerate-frame solve/blowup)


def _coriolis3d_setup(cfg):
    problem = build_problem(cfg)
    _require(cfg["problem"].get("preset") == "coriolis3d",
             "the coriolis3d command needs problem.preset: coriolis3d")
    basis = degenerate.coriolis3d_basis(cfg["problem"]["omega"])
    return problem, basis


def cmd_coriolis3d(cfg, out_path):
    problem, basis = _coriolis3d_setup(cfg)
    task = _task_block(cfg, "coriolis3d")
    mode = task.get("mode", "solve")
    _require(mode in ("solve", "blowup"), "coriolis3d mode must be 'solve' or 'blowup'")
    rot_problem = degenerate.rotated_problem(problem, basis)
    comments = [f"config-sha256: {config_hash(cfg)}", f"command: coriolis3d ({mode})"]
    if mode == "solve":
        times = _parse_times(task)
        points = _parse_points(task, 3)
        y_points = points @ basis.L.T
        samples = hodograph.solve_field(rot_problem, times, y_points)
        header = (["t"] + [f"x{i + 1}" for i in range(3)]
                  + [f"u{i + 1}" for i in range(3)] + ["newton_iters", "status"])
        U = [None if s.u is None else basis.P @ s.u for s in samples]
        _emit(out_path, comments, header, _sample_columns(samples, points, U))
        if not any(s.status == "OK" for s in samples):
            print("coriolis3d: no point/time converged", file=sys.stderr)
            return 2
        return 0
    # blowup: the first positive root of the residual on the rotated M-grid
    sheets = blowup.sheets_first_root(
        rot_problem,
        M_grid=rot_problem.data.m_grids(_coerce(int, task.get("grid_num", 11), "grid_num")),
        t_max=_coerce(float, task.get("t_max", 10.0), "t_max"),
        scan_step=_coerce(float, task.get("scan_step", 5e-2), "scan_step"),
        branch="coriolis3d_first",
    )
    ext = blowup.min_blowup_time(rot_problem, sheets)
    comments.extend(_summary_lines(ext, to_original=lambda v: basis.P @ v))
    _emit(out_path, comments, ["branch", "M1", "M2", "M3", "t"], _sheet_columns(sheets, 3))
    if out_path:
        print("\n".join(comments[2:]))
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1 for config errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="hodoflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "sweep u(t, x) over a time/point grid, CSV output"),
        ("blowup", "scan blow-up sheets and report the first catastrophe"),
        ("period", "matrix-exponential periodicity report for A"),
        ("compare", "random characteristics vs the implicit solver, with gate"),
        ("coriolis3d", "solve/blowup through the kernel-adapted rotating frame"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--seed", type=int, default=None,
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
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"hodoflow: config error: {exc}", file=sys.stderr)
        return 1
    except HodoflowError as exc:
        print(f"hodoflow: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
