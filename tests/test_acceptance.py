"""Acceptance gate: ten end-to-end criteria with their stated tolerances.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with -rA / -s,
and mirrored by the per-test PASSED/FAILED verdict of pytest -v).  Criteria
are asserted at face value; where a measured quantity disagrees with the
required window, the test fails with the measurement rather than widening
the tolerance.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest
import yaml

from hodoflow import (
    blowup,
    cli,
    degenerate,
    hodograph,
    matops,
    model,
    oracle,
    periodicity,
)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d}: FAIL — {label}")
                raise
            print(f"criterion {num:02d}: PASS — {label}")
        return wrapper
    return deco


def tanh_problem(a, g, mu=1.0, kappa=1.0):
    spec = model.ForceSpec(np.array([[float(a)]]), np.array([float(g)]))
    return model.HodographProblem(spec, model.make_data("tanh1d", mu=mu, kappa=kappa))


@criterion(1, "free/forced tanh catastrophe at t*=1, u*=mu+g/(kappa mu), 1e-8")
def test_criterion_01_tanh_free_extremum():
    for g in (0.0, 1.0):
        problem = tanh_problem(0.0, g)
        ext = blowup.min_blowup_time(problem, blowup.sheet_1d(problem))
        assert abs(ext.t_star - 1.0) <= 1e-8, f"g={g}: t* = {ext.t_star!r}"
        u_exp = 1.0 + g  # mu + g/(kappa mu) with mu = kappa = 1
        assert abs(ext.u_star[0] - u_exp) <= 1e-8, f"g={g}: u* = {ext.u_star[0]!r}"


@criterion(2, "A=1, g=1 tanh catastrophe at t*=log 2, u*=3, 1e-8")
def test_criterion_02_forced_linear_extremum():
    problem = tanh_problem(1.0, 1.0)
    ext = blowup.min_blowup_time(problem, blowup.sheet_1d(problem))
    assert abs(ext.t_star - np.log(2.0)) <= 1e-8, f"t* = {ext.t_star!r}"
    assert abs(ext.u_star[0] - 3.0) <= 1e-8, f"u* = {ext.u_star[0]!r}"


def _residual_sign_scan(problem, t_grid=None):
    """Signs of the blow-up residual over a dense (t, M) grid."""
    if t_grid is None:
        t_grid = np.linspace(0.05, 8.0, 40)
    M_grid = problem.data.m_grids(101)[0]
    signs = set()
    for M in M_grid:
        for t in t_grid:
            r = blowup.blowup_residual(problem, float(t), np.array([M]))
            if np.isfinite(r) and abs(r) > 1e-13:
                signs.add(r > 0)
    return signs


@criterion(3, "damping certificates flip exactly at the threshold, scan-corroborated")
def test_criterion_03_certificate_thresholds():
    # tanh family: threshold |a| = kappa * mu
    certified = blowup.certify_no_blowup_1d(tanh_problem(-1.01, 0.0))
    assert certified.certified, certified.reason
    open_case = blowup.certify_no_blowup_1d(tanh_problem(-0.99, 0.0))
    assert not open_case.certified, open_case.reason
    assert len(_residual_sign_scan(tanh_problem(-1.01, 0.0))) == 1, (
        "certified problem must have a sign-constant residual"
    )
    assert len(_residual_sign_scan(tanh_problem(-0.99, 0.0))) == 2, (
        "uncertified problem must show a residual sign change"
    )
    # gauss family: threshold |a| = kappa * eta * sqrt(2/e)
    thr = np.sqrt(2.0 / np.e)

    def gauss_problem(a):
        spec = model.ForceSpec(np.array([[a]]), np.zeros(1))
        return model.HodographProblem(spec, model.make_data("gauss1d", eta=1.0, kappa=1.0))

    assert blowup.certify_no_blowup_1d(gauss_problem(-1.01 * thr)).certified
    assert not blowup.certify_no_blowup_1d(gauss_problem(-0.99 * thr)).certified
    assert len(_residual_sign_scan(gauss_problem(-1.01 * thr))) == 1
    assert len(_residual_sign_scan(gauss_problem(-0.99 * thr))) == 2


def _nelder_mead_extremum(sheet, sign):
    """The least (sign 1) or greatest (sign -1) time of a sheet: scipy
    Nelder-Mead on its branch_fn (xatol 1e-13, fatol 1e-16) from the grid
    extremum, a reference that shares no code with min_blowup_time."""
    from scipy.optimize import minimize

    def f(M):
        t = sheet.branch_fn(M[None])[0]
        return sign * t if np.isfinite(t) else np.inf

    grid = np.where(np.isfinite(sheet.t), sign * sheet.t, np.inf)
    found = minimize(f, sheet.points[np.argmin(grid)], method="Nelder-Mead",
                     options={"xatol": 1e-13, "fatol": 1e-16})
    return sign * min(found.fun, grid.min())


@criterion(4, "tanh2d branch extrema 1/(1+eps), 1/(1-eps) to 1e-6; absence at -(1+eps)-0.01")
def test_criterion_04_tanh2d_sheets():
    for eps in (0.5, 2.0):
        problem = model.HodographProblem(
            model.ForceSpec(np.zeros((2, 2)), np.zeros(2)),
            model.make_data("tanh2d", eps=eps),
            grid_num=121,
        )
        sheets = blowup.sheets_diag(problem)
        f_plus = 1.0 / (1.0 + eps)
        f_minus = 1.0 / (1.0 - eps)
        if eps < 1.0:
            t0 = _nelder_mead_extremum(sheets[0], 1.0)
            t1 = _nelder_mead_extremum(sheets[1], 1.0)
        else:
            # the negative branch sorts first; its extremum closest to zero is a max
            t1 = _nelder_mead_extremum(sheets[0], -1.0)
            t0 = _nelder_mead_extremum(sheets[1], 1.0)
        assert abs(t0 - f_plus) <= 1e-6, f"eps={eps}: fast branch {t0!r} vs {f_plus}"
        assert abs(t1 - f_minus) <= 1e-6, f"eps={eps}: slow branch {t1!r} vs {f_minus}"
    # eps = 2, a = -(1+eps) - 0.01: the positive branch is certified absent
    eps = 2.0
    problem = model.HodographProblem(
        model.ForceSpec(-3.01 * np.eye(2), np.zeros(2)),
        model.make_data("tanh2d", eps=eps),
        grid_num=121,
    )
    sheets = blowup.sheets_diag(problem)
    positive = sheets[1]
    assert bool(np.all(positive.absent)), "positive branch should have no real time"
    cert = blowup.certify_branch_absent(problem, positive)
    assert cert.certified, cert.reason


@criterion(5, "unit Gaussian under unit rotation folds at t* = 0.78 +/- 0.03")
def test_criterion_05_coriolis_gauss_time():
    problem = model.HodographProblem(
        model.coriolis2d_spec(1.0),
        model.make_data("gauss2d_coriolis", amplitude=1.0),
        grid_num=101,
    )
    sheets = blowup.sheets_coriolis2d(problem)
    ext = blowup.min_blowup_time(problem, sheets)
    # independent corroboration: bisection on the raw residual at the extremal M
    lo, hi = 0.5 * ext.t_star, 1.2 * ext.t_star
    f = lambda t: blowup.blowup_residual(problem, t, ext.M_star)
    assert f(lo) * f(hi) < 0, "extremal point does not bracket a residual root"
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    t_bis = 0.5 * (lo + hi)
    assert abs(t_bis - ext.t_star) <= 1e-6, (
        f"scan and bisection disagree: {ext.t_star!r} vs {t_bis!r}"
    )
    assert abs(ext.t_star - 0.78) <= 0.03, (
        f"measured first catastrophe t* = {ext.t_star:.5f} (sheet scan and residual "
        f"bisection agree to {abs(t_bis - ext.t_star):.1e}); this sits outside the "
        "required 0.78 +/- 0.03 window, and the implementation is kept faithful "
        "rather than tuned to pass"
    )


@criterion(6, "periodicity: T = 2 pi/omega detection, flow verification, 3D witness")
def test_criterion_06_periodicity():
    for w in (1.0, 2.5):
        rep = periodicity.check_periodic(model.coriolis2d_spec(w).A)
        assert rep, rep.reason
        assert abs(rep.T - 2.0 * np.pi / w) <= 1e-9 * (2.0 * np.pi / w)
        assert rep.exp_defect <= 1e-9
    lam = 1.3
    pair_a = lam * np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    pair_b = lam * np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    for A in (pair_a, pair_b):
        rep = periodicity.check_periodic(A)
        assert rep, rep.reason
        assert abs(rep.T - 2.0 * np.pi / lam) <= 1e-9
        assert np.max(np.abs(matops.mat_exp(A, rep.T) - np.eye(4))) <= 1e-9
    # small-amplitude 2D flow really is T-periodic, to 1e-8
    problem = model.HodographProblem(
        model.coriolis2d_spec(1.0), model.make_data("gauss2d_coriolis", amplitude=0.05)
    )
    rng = np.random.default_rng(20)
    pts = [(rng.uniform(0.0, 2.0), rng.uniform(0.1, 1.5, size=2)) for _ in range(20)]
    check = periodicity.verify_solution_period(problem, 2.0 * np.pi, pts, tol=1e-8)
    assert check.ok, check.failures
    # 3D rotation: e^{TA} = I holds, yet the flow is NOT periodic
    w = 1.1
    spec3 = model.coriolis3d_spec(w)
    T = 2.0 * np.pi / w
    assert np.max(np.abs(matops.mat_exp(spec3.A, T) - np.eye(3))) <= 1e-9
    data3 = model.make_data(
        "separable",
        components=[
            ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
            ("gauss1d", {"eta": 0.05, "kappa": 1.1}),
            ("gauss1d", {"eta": 0.07, "kappa": 0.8}),
        ],
    )
    problem3 = model.HodographProblem(spec3, data3)
    basis = degenerate.coriolis3d_basis(w)
    rng = np.random.default_rng(5)
    pts3 = []
    for _ in range(40):
        y = np.array([rng.uniform(1.5, 2.3), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)])
        pts3.append((rng.uniform(0.0, 0.3), basis.P @ y))
    witness = degenerate.non_periodicity_witness(problem3, T, pts3, threshold=1e-3)
    assert witness is not None, "no non-periodicity witness found"
    assert witness.delta > 1e-3, f"witness delta {witness.delta!r}"


CRITERION7_CASES = [
    (model.ForceSpec(np.zeros((1, 1)), np.array([1.0])),
     ("tanh1d", {"mu": 1.0, "kappa": 1.0})),
    (model.ForceSpec(np.array([[1.0]]), np.array([1.0])),
     ("tanh1d", {"mu": 1.0, "kappa": 1.0})),
    (model.coriolis2d_spec(1.0), ("gauss2d_coriolis", {"amplitude": 0.4})),
    (model.diag_spec([0.6, -0.6]), ("tanh2d", {"eps": 0.5})),
]


@criterion(7, "200 pre-blow-up samples match characteristics to 1e-9; degenerate to 1e-8")
def test_criterion_07_solver_vs_characteristics():
    total = 0
    for k, (spec, (family, params)) in enumerate(CRITERION7_CASES):
        data = model.make_data(family, **params)
        problem = model.HodographProblem(spec, data)
        box = data.sample_box()
        rng = np.random.default_rng(40 + k)
        kept = 0
        for _ in range(80):
            if kept >= 50:
                break
            x0 = rng.uniform(box[:, 0], box[:, 1])
            t = rng.uniform(0.05, 0.45)
            caustic = oracle.first_caustic_time(spec, data, x0, t_max=t)
            if caustic is not None and caustic <= t:
                continue
            fl = oracle.exact_flow(spec, x0, data.u0(x0), t)
            got = hodograph.solve_u(problem, t, fl.x)
            err = float(np.max(np.abs(got.u - fl.u)))
            assert err <= 1e-9, f"case {k}: error {err:.3e} at t={t}, x0={x0}"
            kept += 1
        assert kept == 50, f"case {k}: only {kept} pre-blow-up samples"
        total += kept
    assert total == 200
    # degenerate preset: kernel-adapted solve against the same characteristics
    spec = model.coriolis3d_spec(1.2, g_mag=0.5)
    data = model.make_data(
        "separable",
        components=[
            ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
            ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
            ("gauss1d", {"eta": 0.7, "kappa": 0.8}),
        ],
    )
    problem = model.HodographProblem(spec, data)
    basis = degenerate.coriolis3d_basis(1.2)
    rng = np.random.default_rng(31)
    for _ in range(25):
        y0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.2), rng.uniform(0.3, 2.2)])
        t = rng.uniform(0.05, 0.8)
        x0 = basis.P @ y0
        fl = oracle.exact_flow(spec, x0, degenerate.u0_original(basis, data, x0), t)
        got = degenerate.degenerate_solve(problem, basis, t, fl.x)
        err = float(np.max(np.abs(got.u - fl.u)))
        assert err <= 1e-8, f"degenerate error {err:.3e} at t={t}, y0={y0}"


def _sheet_time_at(problem, M0):
    """First positive blow-up time at a single M, via the sheet machinery."""
    n = problem.spec.n
    if n == 1:
        sheet = blowup.sheet_1d(problem, M_grid=np.array([float(M0[0])]))
        times = sheet.t
    else:
        grids = [np.array([float(M0[i])]) for i in range(n)]
        A = problem.spec.A
        if abs(A[0, 0] - A[1, 1]) < 1e-14:
            sheets = blowup.sheets_diag(problem, M_grid=grids)
        else:
            sheets = blowup.sheets_diag2(problem, M_grid=grids, t_max=14.0)
        times = np.concatenate([np.atleast_1d(s.t) for s in sheets])
    times = times[np.isfinite(times) & (times > 1e-10)]
    return float(times.min()) if times.size else None


@criterion(8, "flow-map Jacobian first zero equals the sheet time at M = u0(x0), 1e-8")
def test_criterion_08_jacobian_vs_sheet_times():
    rng = np.random.default_rng(77)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 80:
        attempts += 1
        kind = attempts % 3
        if kind == 0:
            a = float(rng.uniform(-0.4, 0.8))
            spec = model.ForceSpec(np.array([[a]]), np.zeros(1))
            data = model.make_data(
                "tanh1d", mu=float(rng.uniform(0.8, 1.4)), kappa=float(rng.uniform(0.7, 1.2))
            )
            x0 = rng.uniform(-0.5, 0.5, size=1)
        elif kind == 1:
            a = float(rng.uniform(-0.3, 0.8))
            spec = model.ForceSpec(a * np.eye(2), np.zeros(2))
            data = model.make_data("tanh2d", eps=float(rng.uniform(0.3, 0.8)))
            x0 = rng.uniform(-0.6, 0.6, size=2)
        else:
            rates = rng.uniform(-0.5, 0.8, size=2)
            spec = model.diag_spec(rates)
            data = model.make_data("tanh2d", eps=float(rng.uniform(0.3, 0.8)))
            x0 = rng.uniform(-0.6, 0.6, size=2)
        problem = model.HodographProblem(spec, data)
        M0 = data.u0(x0)
        t_sheet = _sheet_time_at(problem, M0)
        if t_sheet is None or t_sheet > 10.0:
            continue
        t_flow = oracle.first_caustic_time(spec, data, x0, t_max=12.0)
        assert t_flow is not None, f"flow det has no zero but sheet says {t_sheet}"
        assert abs(t_flow - t_sheet) <= 1e-8, (
            f"sheet {t_sheet!r} vs flow Jacobian {t_flow!r} (A={spec.A}, x0={x0})"
        )
        checked += 1
    assert checked == 20, f"only {checked} comparable problems in {attempts} draws"


@criterion(9, "matrix-function and integrator invariants hold at tolerance")
def test_criterion_09_matops_oracle_invariants():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        t = float(rng.uniform(-1.5, 1.5))
        E = matops.mat_exp(A, t)
        P1 = matops.phi1(A, t)
        P2 = matops.phi2(A, t)
        scale = max(1.0, float(np.linalg.norm(E, np.inf)))
        assert np.max(np.abs(A @ P1 - (E - np.eye(n)))) <= 1e-10 * scale
        assert np.max(np.abs(A @ P2 - (P1 - t * np.eye(n)))) <= 1e-10 * scale
        s = float(rng.uniform(-1.0, 1.0))
        assert np.max(np.abs(matops.mat_exp(A, s + t) - matops.mat_exp(A, s) @ E)) <= 1e-9 * scale
    # A -> 0 limits
    Z = np.zeros((3, 3))
    assert np.allclose(matops.phi1(Z, 0.7), 0.7 * np.eye(3), atol=1e-14)
    assert np.allclose(matops.phi2(Z, 0.7), 0.245 * np.eye(3), atol=1e-14)
    # RK4 is really fourth order, and agrees with the closed-form flow
    spec = model.ForceSpec(np.array([[0.3, 0.8], [-0.5, -0.1]]), np.array([0.2, 0.1]))
    x0, u0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    exact = oracle.exact_flow(spec, x0, u0, 2.0)

    def err(dt):
        rk = oracle.rk4_flow(spec, x0, u0, 2.0, dt=dt)
        return float(np.max(np.abs(np.concatenate([rk.x - exact.x, rk.u - exact.u]))))

    ratio = err(0.02) / err(0.01)
    assert 12.0 < ratio < 20.0, f"RK4 dt-halving error ratio {ratio}"
    assert err(1e-4) <= 1e-10


@criterion(10, "CLI solve output obeys the forcing shift u_g(t,x) = u_0(t, x - g t^2/2) + g t")
def test_criterion_10_cli_forcing_shift(tmp_path):
    xs = np.linspace(-1.5, 0.5, 21)
    t_eval = 1.0
    shift = 0.5 * 1.0 * t_eval**2

    def run(g, points):
        cfg = {
            "problem": {"matrix": [[0.0]], "g": [float(g)]},
            "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
            "task": {"name": "solve", "times": [t_eval],
                     "points": [[float(x)] for x in points]},
        }
        path = tmp_path / f"solve_g{g}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / f"out_g{g}.csv"
        rc = cli.main(["solve", "--config", str(path), "--out", str(out)])
        assert rc == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        assert all(r[4] == "OK" for r in rows), [r[4] for r in rows]
        return np.array([float(r[2]) for r in rows])

    u_forced = run(1.0, xs)
    u_free = run(0.0, xs - shift)
    gap = float(np.max(np.abs(u_forced - (u_free + 1.0 * t_eval))))
    assert gap <= 1e-6, f"shift relation violated by {gap:.3e}"
