"""Blow-up sheets: closed forms, certificates, diagonal machinery, Coriolis scan."""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import blowup, matops, model


def make_problem(A, family, params, g=None, grid_num=201):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    spec = model.ForceSpec(A, np.zeros(A.shape[0]) if g is None else np.asarray(g, float))
    return model.HodographProblem(spec, model.make_data(family, **params), grid_num=grid_num)


def test_sheet_1d_closed_form_extremum():
    """Tanh profile, A = a: t* = log(1 + a/(kappa mu))/a at M* = mu."""
    mu, kappa, a = 1.3, 0.9, 0.45
    problem = make_problem([[a]], "tanh1d", {"mu": mu, "kappa": kappa})
    ext = blowup.min_blowup_time(problem, blowup.sheet_1d(problem))
    t_exp = np.log1p(a / (kappa * mu)) / a
    assert ext.t_star == pytest.approx(t_exp, abs=1e-9), f"t* {ext.t_star} vs {t_exp}"
    assert ext.M_star[0] == pytest.approx(mu, abs=1e-6)
    assert ext.u_star[0] == pytest.approx(mu + a / kappa, abs=1e-8)


def test_sheet_1d_free_limit():
    problem = make_problem([[0.0]], "tanh1d", {"mu": 1.0, "kappa": 1.0})
    ext = blowup.min_blowup_time(problem, blowup.sheet_1d(problem))
    assert ext.t_star == pytest.approx(1.0, abs=1e-9)


def test_certificate_1d_threshold_sides():
    mu = kappa = 1.0
    certified = blowup.certify_no_blowup_1d(
        make_problem([[-1.01 * kappa * mu]], "tanh1d", {"mu": mu, "kappa": kappa})
    )
    assert certified.certified, certified.reason
    open_case = blowup.certify_no_blowup_1d(
        make_problem([[-0.99 * kappa * mu]], "tanh1d", {"mu": mu, "kappa": kappa})
    )
    assert not open_case.certified, open_case.reason


def test_certificate_gauss_threshold():
    """Gauss profile: the damping threshold sits at |a| = kappa eta sqrt(2/e)."""
    eta = kappa = 1.0
    thr = kappa * eta * np.sqrt(2.0 / np.e)
    good = blowup.certify_no_blowup_1d(
        make_problem([[-1.01 * thr]], "gauss1d", {"eta": eta, "kappa": kappa})
    )
    assert good.certified, good.reason
    bad = blowup.certify_no_blowup_1d(
        make_problem([[-0.99 * thr]], "gauss1d", {"eta": eta, "kappa": kappa})
    )
    assert not bad.certified, bad.reason


def test_sheets_diag_free_tanh2d():
    """A = 0, eps = 0.5: branch extrema 1/(1+eps) and 1/(1-eps), both at M = 0."""
    problem = make_problem(np.zeros((2, 2)), "tanh2d", {"eps": 0.5}, grid_num=121)
    sheets = blowup.sheets_diag(problem)
    t_fast, _ = blowup.sheet_extremum(sheets[0], mode="min")
    t_slow, _ = blowup.sheet_extremum(sheets[1], mode="min")
    assert t_fast == pytest.approx(1.0 / 1.5, abs=1e-6)
    assert t_slow == pytest.approx(2.0, abs=1e-6)
    ext = blowup.min_blowup_time(problem, sheets)
    assert ext.t_star == pytest.approx(1.0 / 1.5, abs=1e-8)


def test_branch_absence_certificate_diag():
    """eps = 2, A = -(1+eps)-0.01: the positive branch has no real time at all."""
    problem = make_problem(-3.01 * np.eye(2), "tanh2d", {"eps": 2.0})
    sheets = blowup.sheets_diag(problem)
    absent = [s for s in sheets if np.all(s.absent)]
    assert absent, "expected a fully absent branch"
    cert = blowup.certify_branch_absent(problem, absent[0])
    assert cert.certified, cert.reason


def test_branch_absence_not_granted_below_threshold():
    problem = make_problem(-2.99 * np.eye(2), "tanh2d", {"eps": 2.0})
    sheets = blowup.sheets_diag(problem)
    certs = [blowup.certify_branch_absent(problem, s) for s in sheets]
    assert not all(c.certified for c in certs), "no branch should certify at -2.99"


def test_coriolis_abc_identity():
    """w^2 * residual(t, M) equals a sin(wt) + b cos(wt) + c with the sheet's abc."""
    problem = make_problem(
        model.coriolis2d_spec(1.3).A, "gauss2d_coriolis", {"amplitude": 0.7}
    )
    rng = np.random.default_rng(8)
    w = 1.3
    for _ in range(10):
        # draw M inside the (coupled) invertibility region via the profile itself
        M = problem.data.u0(rng.uniform(0.1, 1.2, size=2))
        abc = blowup.coriolis2d_abc(problem, M)
        for t in rng.uniform(0.1, 4.0, size=5):
            lhs = w * w * blowup.blowup_residual(problem, t, M)
            rhs = abc.a * np.sin(w * t) + abc.b * np.cos(w * t) + abc.c
            assert abs(lhs - rhs) < 1e-10, f"abc identity off by {lhs - rhs:.2e}"


def test_coriolis_small_amplitude_absent():
    """a^2 + b^2 < c^2 everywhere: rotation suppresses small-slope blow-up."""
    problem = make_problem(
        model.coriolis2d_spec(1.0).A, "gauss2d_coriolis", {"amplitude": 0.05},
        grid_num=61,
    )
    sheets = blowup.sheets_coriolis2d(problem)
    assert all(np.all(s.absent) for s in sheets)
    out = blowup.min_blowup_time(problem, sheets)
    assert isinstance(out, blowup.NoBlowup), out


def test_coriolis_gauss_catastrophe_time():
    """Unit-amplitude Gaussian under unit rotation: first fold near t = 0.8163."""
    problem = make_problem(
        model.coriolis2d_spec(1.0).A, "gauss2d_coriolis", {"amplitude": 1.0},
        grid_num=101,
    )
    sheets = blowup.sheets_coriolis2d(problem)
    ext = blowup.min_blowup_time(problem, sheets)
    assert ext.t_star == pytest.approx(0.8162566, abs=2e-4), f"t* = {ext.t_star}"


def test_sheets_diag2_rational_against_residual():
    """diag(0.6, -0.6): every stored sheet time is a true residual root."""
    problem = make_problem(np.diag([0.6, -0.6]), "tanh2d", {"eps": 0.5}, grid_num=31)
    sheets = blowup.sheets_diag2(problem)
    n_checked = 0
    for sheet in sheets:
        for M, t in zip(sheet.points, sheet.t):
            if not np.isfinite(t):
                continue
            r = blowup.blowup_residual(problem, float(t), M)
            assert abs(r) < 1e-8, f"stored time t={t} has residual {r:.2e} at M={M}"
            n_checked += 1
    assert n_checked > 50, f"only {n_checked} finite sheet entries"


def test_sheets_diag2_irrational_scan_path():
    """Irrational rate ratio falls back to sign-scan; roots still verify."""
    problem = make_problem(
        np.diag([0.4, 0.4 * np.sqrt(2.0)]), "tanh2d", {"eps": 0.5}, grid_num=13
    )
    sheets = blowup.sheets_diag2(problem, t_max=6.0)
    finite = 0
    for sheet in sheets:
        for M, t in zip(sheet.points, sheet.t):
            if np.isfinite(t):
                assert abs(blowup.blowup_residual(problem, float(t), M)) < 1e-8
                finite += 1
    assert finite > 20


def test_sheets_diag2_equal_rates_delegates():
    problem = make_problem(np.diag([0.5, 0.5]), "tanh2d", {"eps": 0.5}, grid_num=41)
    a = blowup.min_blowup_time(problem, blowup.sheets_diag2(problem))
    b = blowup.min_blowup_time(problem, blowup.sheets_diag(problem))
    assert a.t_star == pytest.approx(b.t_star, abs=1e-10)


def test_no_blowup_reported_for_damped_gauss():
    problem = make_problem([[-3.01]], "gauss1d", {"eta": 1.0, "kappa": 1.0})
    out = blowup.min_blowup_time(problem, blowup.sheet_1d(problem))
    assert isinstance(out, blowup.NoBlowup)
    assert "Absent" in out.reason


def _reference_scan(problem, M, t_max, scan_step=1e-2):
    """Per-point sign scan and bisection, one blowup_residual call per step."""
    ts = np.arange(-t_max, t_max + scan_step, scan_step)
    vals = [blowup.blowup_residual(problem, ti, M) for ti in ts]
    out = []
    for i in range(1, ts.size):
        va, vb = vals[i - 1], vals[i]
        if va == 0.0:
            out.append(float(ts[i - 1]))
            continue
        if va * vb < 0.0:
            lo, hi, flo = ts[i - 1], ts[i], va
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fm = blowup.blowup_residual(problem, mid, M)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            out.append(float(0.5 * (lo + hi)))
    return sorted(out)


@pytest.mark.parametrize("rates, eps, t_max", [
    ((0.4, 0.4 * np.sqrt(2.0)), 0.5, 6.0),
    ((1.0, -np.sqrt(2.0)), 0.5, 3.0),
])
def test_sheets_diag2_table_scan_matches_per_point_scan(rates, eps, t_max):
    """The tabulated phi1 scan reproduces the per-point residual scan:
    identical NaN pattern, times within 1e-12."""
    problem = make_problem(np.diag(rates), "tanh2d", {"eps": eps}, grid_num=5)
    sheets = blowup.sheets_diag2(problem, t_max=t_max)
    assert "sign change" in sheets[0].absent_reason, "expected the scan path"
    finite = 0
    for i, M in enumerate(sheets[0].points):
        ref = _reference_scan(problem, M, t_max) if problem.data.in_domain(M) else []
        assert len(ref) <= len(sheets)
        for k, sheet in enumerate(sheets):
            if k < len(ref):
                assert abs(sheet.t[i] - ref[k]) <= 1e-12, f"M={M} sheet {k}"
                finite += 1
            else:
                assert np.isnan(sheet.t[i]), f"M={M} sheet {k}"
    assert finite > 10


def test_first_root_sheet_matches_diag2_scan():
    """The generic first-root sheet finds the smallest positive diag2 scan
    time at every grid point (both go through blowup.scan_roots)."""
    problem = make_problem(np.diag([1.0, -np.sqrt(2.0)]), "tanh2d", {"eps": 0.5}, grid_num=5)
    diag2 = blowup.sheets_diag2(problem, t_max=3.0)
    (first,) = blowup.sheets_first_root(problem, t_max=3.0)
    finite = 0
    for i, M in enumerate(first.points):
        positive = [s.t[i] for s in diag2 if s.t[i] > 0.0]
        if not positive:
            assert np.isnan(first.t[i]), f"M={M}"
            continue
        assert abs(first.t[i] - min(positive)) <= 1e-11, f"M={M}"
        finite += 1
    assert finite > 5


def test_near_rotation_is_not_a_rotation():
    """[[0, 1], [-1.000009, 0]] is refused, not scanned as a unit rotation."""
    A = np.array([[0.0, 1.0], [-1.000009, 0.0]])
    assert blowup._coriolis_omega(A) is None
    problem = make_problem(A, "gauss2d_coriolis", {"amplitude": 1.0}, grid_num=5)
    with pytest.raises(ValueError):
        blowup.sheets_coriolis2d(problem)


def test_near_scalar_diagonal_is_not_scalar():
    """diag(0.5, 0.5000045) is not 0.5*I; its scan times are roots for the actual A."""
    A = np.diag([0.5, 0.5000045])
    assert matops.scalar_multiple(A) is None
    problem = make_problem(A, "tanh2d", {"eps": 0.5}, grid_num=5)
    sheets = blowup.sheets_diag2(problem, t_max=2.0)
    assert "sign change" in sheets[0].absent_reason, "expected the scan path"
    finite = 0
    for sheet in sheets:
        for M, t in zip(sheet.points, sheet.t):
            if np.isfinite(t):
                assert abs(blowup.blowup_residual(problem, float(t), M)) <= 1e-8
                finite += 1
    assert finite > 10


@pytest.mark.parametrize("family, params", [
    ("tanh2d", {"eps": 2.0}),
    ("gauss2d_coriolis", {"amplitude": 1.0}),
])
@pytest.mark.parametrize("w", [1.0, -2.0, 0.8])
def test_coriolis_first_time_matches_residual_scan(family, params, w):
    """The closed-form first root equals the first positive root of the
    residual itself: a scan with step 1e-3 on [0, 4 pi/|w|], bisected to 1e-12.

    M is drawn uniformly over the domain and near the sheet's finite grid
    points, so both roots and no-root points are compared.
    """
    problem = make_problem(model.coriolis2d_spec(w).A, family, params, grid_num=41)
    sheet = blowup.sheets_coriolis2d(problem)[0]
    scanned = blowup.sheets_first_root(
        problem, M_grid=[[0.0], [0.0]], t_max=4.0 * np.pi / abs(w), scan_step=1e-3
    )[0].branch_fn
    data = problem.data
    rng = np.random.default_rng(5)
    lo = np.array([ax[0] for ax in sheet.axes])
    hi = np.array([ax[-1] for ax in sheet.axes])
    spacing = (hi - lo) / 40
    near = sheet.points[np.isfinite(sheet.t)]
    Ms = []
    while len(Ms) < 20:
        M = rng.uniform(lo, hi)
        if data.in_domain(M):
            Ms.append(M)
    jitter = [near[i] + rng.uniform(-spacing, spacing) for i in rng.integers(len(near), size=12)]
    Ms += [M for M in jitter if data.in_domain(M)]
    finite = 0
    for M in Ms:
        t_closed, t_scan = sheet.branch_fn(M), scanned(M)
        assert np.isnan(t_closed) == np.isnan(t_scan), f"M={M}: {t_closed} vs {t_scan}"
        if np.isfinite(t_closed):
            assert abs(t_closed - t_scan) <= 1e-10, f"M={M}: {t_closed!r} vs {t_scan!r}"
            finite += 1
    assert 0 < finite < len(Ms), (finite, len(Ms))


def test_coriolis_first_time_degenerate_trig():
    """a = b = 0 and a^2 + b^2 < c^2 give NaN, not a ValueError; the first
    root follows the sign of w and skips a root at t = 0."""
    assert np.isnan(blowup.coriolis2d_first_time(blowup.CoriolisABC(0.0, 0.0, -3.0), 2.0))
    assert np.isnan(blowup.coriolis2d_first_time(blowup.CoriolisABC(0.0, 0.0, 0.0), 2.0))
    assert np.isnan(blowup.coriolis2d_first_time(blowup.CoriolisABC(0.3, 0.4, 0.6), 1.0))
    # sin(t) = 1/2: roots pi/6 and 5 pi/6; for w = -1, sin(-t) = 1/2 first at 7 pi/6
    abc = blowup.CoriolisABC(1.0, 0.0, -0.5)
    assert blowup.coriolis2d_first_time(abc, 1.0) == pytest.approx(np.pi / 6, abs=1e-14)
    assert blowup.coriolis2d_first_time(abc, -1.0) == pytest.approx(7 * np.pi / 6, abs=1e-14)
    # a root at t = 0 is skipped: cos(t) - 1 = 0 next at 2 pi
    abc = blowup.CoriolisABC(0.0, 1.0, -1.0)
    assert blowup.coriolis2d_first_time(abc, 1.0) == pytest.approx(2 * np.pi, abs=1e-12)
