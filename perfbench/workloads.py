"""The three benchmark workloads: seeded configs, correctness gates, self-tests.

Each workload is one ``hodoflow`` CLI command on a config that the benchmark
writes from its seed.  The program sees only that config.  Every workload
comes with a gate that re-checks the command's output independently of the
code path that produced it, and with a corruption of one output row that the
gate must reject (the self-test run alongside every benchmark run).

Why these three (each stresses different layers; see ``tracing.py`` for the
per-layer metrics and which end-to-end number each should move):

* ``solve-sweep`` -- the per-point Newton path that batching the t-only
  matrix functions targets: ``hodograph.solve_M`` with warm-start
  continuation, ``matops.phi1``/``phi2``/``mat_exp``/``solve`` once per
  space-time point and the data family's ``phi``/``phi_jacobian`` once per
  Newton iterate.  700 rows: one seeded point in each cell of a 10 x 10
  grid, at 7 times.  The sampled box reaches past the first catastrophe, so
  the status branches OK, POST_BLOWUP and DOMAIN_EXIT all occur (and
  NO_CONVERGENCE on rare seeds); there is no root scanning.
* ``blowup-scan`` -- the sign-scan path that hoisting ``phi1`` out of root
  scans targets.  ``matops.phi1`` (augmented ``expm``) dominates its time and
  ``hodograph`` is idle, so a Newton-batching change must show no change here.
  A = diag(1, -sqrt 2), tanh2d data with eps 9, grid 3 (9 points),
  ``t_max: 0.11``: the first catastrophe is at t* ~ 0.101, M* = 0, and the
  next root of the residual at t ~ -0.123 lies outside the scan, so each
  scan brackets and bisects one root.  Every command run is kept short
  (well under a second on an idle core) so that one benchmark run holds
  many of them; see ``run.py``.
  Finding: the refinement in ``min_blowup_time`` outweighs the sheet build,
  because every golden-section probe calls the branch function, which
  rescans the whole of [-t_max, t_max] and bisects to 1e-12.  On this
  workload it costs ~29x the sheet build (1.90 s against 0.065 s in a traced
  run, 116 probes, 753 ``blowup_residual`` calls per grid point); at the CLI
  default ``t_max: 10``, grid 3 and eps 0.5, ~12x (37.7 s against 3.2 s).
  Compare the inclusive ``blowup.min_blowup_time.s`` and ``blowup.sheets.s``
  of a traced run.
  The seed does not change this workload.
* ``compare-3d`` -- cold single-point solves (default guess, no continuation)
  through the ``degenerate`` rotated frame, so ``hodograph`` is used
  differently from ``solve-sweep``: a gain that only helps sweeps shows up
  here as no change.  Most of its time is ``oracle.first_caustic_time``,
  which calls ``phi1`` once per 0.01 time step up to each sample's time.  It
  is the only workload that touches ``oracle`` and ``degenerate``.  24
  samples, with times drawn from [0.9, 1.3]: the work of a sample grows with
  its time, and a narrow range keeps the work of a run nearly the same on
  every seed (with 32 samples over [0.05, 1.3], the interquartile range of
  ``wall_s`` over five seeds was 13% of its median).
  Finding (open defect in ``cli._compare_rows``, out of scope here): the
  global blow-up time of this data is t* ~ 1.389 (``coriolis3d --mode
  blowup``, grid 7, gives t* = 1.38889).  With ``t_range: [0.05, 1.5]`` and
  seed 3 ``compare`` exits 2 with one SOLVE_FAIL(DomainExitError) and three
  OK samples with errors 0.49, 0.38 and 0.37, all at t > 1.41 (measured on
  this workload's data, 400 samples): the gate tags POST_BLOWUP only from
  each sample's own caustic, so it still compares samples where the field is
  multivalued.  The workload therefore stops at t = 1.3.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hodoflow import blowup, cli, hodograph, oracle

#: tolerance of the solve-sweep round trip through the exact characteristic
SOLVE_TOL = 1e-9
#: solve-sweep draws one point in each cell of a SWEEP_CELLS x SWEEP_CELLS grid
SWEEP_CELLS = 10
#: tanh2d coupling of blowup-scan; its first catastrophe is at t* ~ 0.101
BLOWUP_EPS = 9.0
BLOWUP_TOL = 1e-9
#: samples per compare-3d run, and the range their times are drawn from
COMPARE_SAMPLES = 24
COMPARE_T_RANGE = [0.9, 1.3]


@dataclass
class Outcome:
    """What the gate found in one command's output.

    ``items`` is the work size (rows, grid points or samples); ``fail_share``
    is ``failed / attempted`` under the workload's own definition; any entry
    in ``problems`` makes the run incorrect.
    """

    items: int
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    statuses: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    command: str
    item_label: str
    make_config: Callable[[int], dict]
    check: Callable[[dict, int, str], Outcome]
    corrupt: Callable[[str], str]


# ---------------------------------------------------------------------------
# CSV helpers


def parse_csv(text):
    """(comment lines without '# ', data rows split on commas) of a CLI CSV output."""
    comments, lines = [], []
    for line in text.splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif line:
            lines.append(line)
    return comments, [ln.split(",") for ln in lines[1:]]


def _comment_value(comments, key):
    for line in comments:
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def _replace_line(text, old, new):
    if old not in text:
        raise ValueError(f"line to corrupt not found: {old!r}")
    return text.replace(old, new, 1)


def _common_problems(cfg, rc, comments):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if _comment_value(comments, "config-sha256") != cli.config_hash(cfg):
        problems.append("config hash missing or wrong")
    return problems


# ---------------------------------------------------------------------------
# solve-sweep


def solve_sweep_config(seed):
    # one seeded point in each cell of a 10 x 10 grid over the sample box
    # [0.05, 1.2]^2: the status mix, and so the work, varies little by seed
    rng = np.random.default_rng(seed)
    cells = np.stack(np.meshgrid(np.arange(SWEEP_CELLS), np.arange(SWEEP_CELLS),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    points = 0.05 + 1.15 * (cells + rng.uniform(size=cells.shape)) / SWEEP_CELLS
    return {
        "problem": {"preset": "coriolis2d", "omega": 1.0},
        "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
        "task": {
            "name": "solve",
            "times": {"start": 0.0, "stop": 0.9, "num": 7},
            "points": [[float(a), float(b)] for a, b in points],
        },
    }


def check_solve_sweep(cfg, rc, text):
    """Every OK row must lie on the exact characteristic of its own M.

    M is recovered from the row's (t, u) with ``hodograph.m_from_u``; the
    closed-form flow from (phi(M), M) must land on the row's (x, u).
    """
    comments, rows = parse_csv(text)
    problems = _common_problems(cfg, rc, comments)
    spec = cli.build_spec(cfg["problem"])
    data = cli.build_data(cfg["data"])
    n = spec.n
    n_times = cfg["task"]["times"]["num"]
    expected = len(cfg["task"]["points"]) * n_times
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    statuses = Counter(row[-1] for row in rows)
    bad = 0
    with np.errstate(all="ignore"):
        for row in rows:
            if row[-1] != "OK":
                continue
            t = float(row[0])
            x = np.array([float(v) for v in row[1 : 1 + n]])
            u = np.array([float(v) for v in row[1 + n : 1 + 2 * n]])
            try:
                M = hodograph.m_from_u(spec, t, u)
                flow = oracle.exact_flow(spec, data.phi(M), M, t)
                err = max(np.abs(flow.x - x).max(), np.abs(flow.u - u).max())
            except (ArithmeticError, ValueError):
                err = math.inf
            if not err <= SOLVE_TOL:
                bad += 1
    if bad:
        problems.append(f"{bad} OK row(s) off their characteristic by more than {SOLVE_TOL}")
    attempted = len(rows) - statuses["POST_BLOWUP"]
    failed = statuses["SINGULAR"] + statuses["NO_CONVERGENCE"] + statuses["DOMAIN_EXIT"] + bad
    return Outcome(items=len(rows), attempted=attempted, failed=failed,
                   problems=problems, statuses=dict(statuses))


def corrupt_solve_sweep(text):
    """Shift u1 of the first OK row after t = 0 by 1e-6."""
    for line in text.splitlines():
        cells = line.split(",")
        if cells[-1] == "OK" and float(cells[0]) > 0.0:
            cells[3] = repr(float(cells[3]) + 1e-6)
            return _replace_line(text, line + "\n", ",".join(cells) + "\n")
    raise ValueError("no OK row after t = 0 to corrupt")


# ---------------------------------------------------------------------------
# blowup-scan


def blowup_scan_config(seed):
    del seed  # fixed grid: the reference t* is a property of this exact scan
    return {
        "problem": {"preset": "diag", "rates": [1.0, -math.sqrt(2.0)]},
        "data": {"family": "tanh2d", "params": {"eps": BLOWUP_EPS}},
        "task": {"name": "blowup", "grid_num": 3, "t_max": 0.11},
    }


def blowup_reference_t_star(eps, t_max):
    """First positive blow-up time of tanh2d under A = diag(1, -sqrt 2), at M = 0.

    The blow-up time grows with |M| on this data, so the catastrophe sits at
    M* = 0, where phi1(A, t) = diag(expm1(t), -expm1(-sqrt(2) t) / sqrt 2) and
    d(phi)/dM = [[1, -eps], [-eps, 1]] / (eps^2 - 1) in closed form.  The root
    of det(phi1 + dphi/dM) is bisected on (0, t_max], with no matrix
    exponential and no scan, so it is independent of the program's path.
    """
    d = eps * eps - 1.0
    r2 = math.sqrt(2.0)

    def det(t):
        return (math.expm1(t) + 1.0 / d) * (-math.expm1(-r2 * t) / r2 + 1.0 / d) - (eps / d) ** 2

    lo, hi = 1e-6, t_max
    sign_lo = det(lo) > 0.0
    while hi - lo > 1e-15 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (det(mid) > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_blowup_scan(cfg, rc, text):
    """t* and M* = 0 against the closed-form reference, and the blow-up residual
    re-checked at (t*, M*)."""
    comments, _ = parse_csv(text)
    problems = _common_problems(cfg, rc, comments)
    t_txt, m_txt = _comment_value(comments, "t_star"), _comment_value(comments, "M_star")
    if t_txt is None or m_txt is None:
        problems.append("no t_star/M_star in the summary")
    else:
        t_star = float(t_txt)
        M_star = np.array([float(v) for v in m_txt.split()])
        t_ref = blowup_reference_t_star(float(cfg["data"]["params"]["eps"]),
                                        float(cfg["task"]["t_max"]))
        if not abs(t_star - t_ref) <= BLOWUP_TOL:
            problems.append(f"t_star {t_star!r} is not {t_ref!r} to {BLOWUP_TOL}")
        if not np.all(np.abs(M_star) <= BLOWUP_TOL):
            problems.append(f"M_star {m_txt} is not 0 to {BLOWUP_TOL}")
        res = blowup.blowup_residual(cli.build_problem(cfg), t_star, M_star)
        if not abs(res) <= BLOWUP_TOL:
            problems.append(f"blow-up residual {res!r} at (t_star, M_star) exceeds {BLOWUP_TOL}")
    grid_points = cfg["task"]["grid_num"] ** 2
    return Outcome(items=grid_points, attempted=1, failed=int(bool(problems)),
                   problems=problems)


def corrupt_blowup_scan(text):
    """Move the reported t* by 1e-6."""
    for line in text.splitlines():
        if line.startswith("# t_star: "):
            t_star = float(line.split(": ", 1)[1])
            return _replace_line(text, line, f"# t_star: {t_star + 1e-6!r}")
    raise ValueError("no t_star line to corrupt")


# ---------------------------------------------------------------------------
# compare-3d


def compare_3d_config(seed):
    # t_range stops below the data's global t* ~ 1.389; see the module docstring
    return {
        "problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
        "data": {"family": "separable", "components": [
            {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
            {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
            {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}},
        ]},
        "task": {"name": "compare", "num_samples": COMPARE_SAMPLES,
                 "t_range": COMPARE_T_RANGE, "bound": 1.0e-8, "seed": int(seed)},
    }


def check_compare_3d(cfg, rc, text):
    """The CLI gate and exit code, re-derived from the rows."""
    comments, rows = parse_csv(text)
    problems = _common_problems(cfg, rc, comments)
    bound = float(cfg["task"]["bound"])
    statuses = Counter(row[-1] for row in rows)
    n_solve_fail = sum(v for k, v in statuses.items() if k.startswith("SOLVE_FAIL"))
    over = sum(1 for row in rows if row[-1] == "OK" and not float(row[-2]) <= bound)
    if len(rows) != cfg["task"]["num_samples"]:
        problems.append(f"{len(rows)} samples, expected {cfg['task']['num_samples']}")
    if _comment_value(comments, "gate") != "pass":
        problems.append("CLI gate did not pass")
    if n_solve_fail or over:
        problems.append(f"{n_solve_fail} SOLVE_FAIL and {over} OK sample(s) over bound {bound}")
    attempted = len(rows) - statuses["POST_BLOWUP"]
    return Outcome(items=len(rows), attempted=attempted, failed=n_solve_fail + over,
                   problems=problems, statuses=dict(statuses))


def corrupt_compare_3d(text):
    """Raise the error of the first OK sample to 1e-3."""
    for line in text.splitlines():
        cells = line.split(",")
        if cells[-1] == "OK":
            cells[-2] = repr(1e-3)
            return _replace_line(text, line + "\n", ",".join(cells) + "\n")
    raise ValueError("no OK sample to corrupt")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-sweep", "solve", "rows", solve_sweep_config,
                 check_solve_sweep, corrupt_solve_sweep),
        Workload("blowup-scan", "blowup", "grid points", blowup_scan_config,
                 check_blowup_scan, corrupt_blowup_scan),
        Workload("compare-3d", "compare", "samples", compare_3d_config,
                 check_compare_3d, corrupt_compare_3d),
    )
}
