"""Blow-up sheets: closed forms, certificates, diagonal machinery, Coriolis scan."""
from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from hodoflow import blowup, degenerate, matops, model, periodicity


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
    """w^2 * residual(t, M) equals a sin(wt) + b cos(wt) + c with the sheet's
    (a, b, c) at M."""
    problem = make_problem(
        model.coriolis2d_spec(1.3).A, "gauss2d_coriolis", {"amplitude": 0.7}
    )
    rng = np.random.default_rng(8)
    w = 1.3
    for _ in range(10):
        # draw M inside the (coupled) invertibility region via the profile itself
        M = problem.data.u0(rng.uniform(0.1, 1.2, size=2))
        a, b, c = blowup._coriolis_abc(problem.spec.A, blowup._elliptic_lambda(problem.spec.A),
                                       problem.data.phi_jacobian(M))
        for t in rng.uniform(0.1, 4.0, size=5):
            lhs = w * w * blowup.blowup_residual(problem, t, M)
            rhs = a * np.sin(w * t) + b * np.cos(w * t) + c
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


def _random_margins(problem, n=100_000, seed=0):
    """max of a^2 + b^2 - c^2 over n random M of the domain box, in-domain only."""
    A, data = problem.spec.A, problem.data
    box = data.domain_box()
    M = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], (n, 2))
    M = M[data.in_domain(M)]
    with np.errstate(all="ignore"):
        a, b, c = blowup._coriolis_abc(A, blowup._elliptic_lambda(A), data.phi_jacobian(M))
    return float(np.max(a * a + b * b - c * c))


@pytest.mark.parametrize("amplitude, w, grid, certified", [
    (0.05, 1.0, 61, True), (0.7, 1.3, 61, False), (0.5, 1.0, 21, False),
])
def test_coriolis_absence_certificate_is_bounded(amplitude, w, grid, certified):
    """Absent everywhere only when the sup of a^2 + b^2 - c^2 over the domain is
    below 0, and then the sup found is at least every random sample.  In the
    two refused cases no grid point has a root, but the margin turns positive
    next to the edge M2 = M1; at amplitude 0.5 only the edge points find it."""
    problem = make_problem(model.coriolis2d_spec(w).A, "gauss2d_coriolis",
                           {"amplitude": amplitude}, grid_num=grid)
    sheets, lines = blowup.build_sheets(problem, grid_num=grid)
    assert np.all(sheets[0].absent)
    cert = blowup.certify_coriolis_absent(problem, sheets[0])
    assert cert.certified == certified
    assert problem.data.in_domain(cert.worst_M)
    sampled = _random_margins(problem)
    if certified:
        assert sampled <= cert.value < 0.0
        word = "Absent everywhere"
    else:
        assert sampled > 0.0 and cert.value > 0.0
        M1, M2 = cert.worst_M
        assert abs(M1 - M2) < 1e-9
        word = "NotCertified"
    assert lines == [f"certificate[coriolis_first]: {word} ({cert.reason})"]
    out = blowup.min_blowup_time(problem, sheets)
    assert out.reason == "no positive root on the M-grid"


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


@pytest.mark.parametrize("rates", [(0.6, 0.0), (0.0, 0.6)])
def test_sheets_diag2_zero_entry_scan_path(rates):
    """A zero rate (rank-deficient A) goes to the same all-roots scan as an
    irrational ratio, sheets t0, t1, ...; every root verifies."""
    problem = make_problem(np.diag(rates), "tanh2d", {"eps": 0.5}, grid_num=9)
    sheets = blowup.sheets_diag2(problem, t_max=3.0)
    assert sheets[0].branch == "t0"
    finite = 0
    for sheet in sheets:
        for M, t in zip(sheet.points, sheet.t):
            if np.isfinite(t):
                assert abs(blowup.blowup_residual(problem, float(t), M)) < 1e-8
                finite += 1
    assert finite > 20
    assert blowup.min_blowup_time(problem, sheets).t_star > 0.0


def test_sheets_diag2_equal_rates_delegates():
    """diag(0.5, 0.5) called on sheets_diag2 directly gets its all-roots scan
    (build_sheets sends it to sheets_diag); the scan's t* is sheets_diag's."""
    problem = make_problem(np.diag([0.5, 0.5]), "tanh2d", {"eps": 0.5}, grid_num=41)
    a = blowup.min_blowup_time(problem, blowup.sheets_diag2(problem))
    b = blowup.min_blowup_time(problem, blowup.sheets_diag(problem))
    assert a.t_star == pytest.approx(b.t_star, abs=1e-10)


def test_sheets_diag2_look_alike_ratio_is_scanned():
    """a1/a2 within 1e-9 of -2 but not -2: sheets_diag2 is the all-roots scan
    of the A given, so no grid point loses a root that it finds, and each
    first positive time is the scan's."""
    problem = make_problem(np.diag([1.0, -0.5000000004]), "tanh2d", {"eps": 0.5}, grid_num=11)
    diag2 = blowup.sheets_diag2(problem)
    scan = blowup.sheets_scan(problem, t_max=10.0, scan_step=1e-2, first_only=False)
    finite = 0
    for i, M in enumerate(scan[0].points):
        got = [s.t[i] for s in diag2 if s.t[i] > 0.0]
        want = [s.t[i] for s in scan if s.t[i] > 0.0]
        assert bool(got) == bool(want), f"M={M}: diag2 {got}, scan {want}"
        if want:
            assert min(got) == min(want), f"M={M}"
            finite += 1
    assert finite > 20


def _real_roots_poly(coeffs):
    """Real roots of a polynomial given by numpy-order coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    nz = np.flatnonzero(np.abs(coeffs) > 0.0)
    if nz.size == 0:
        return np.array([])
    coeffs = coeffs[nz[0] :]
    if coeffs.size <= 1:
        return np.array([])
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) <= blowup._IMAG_TOL * np.maximum(1.0, np.abs(roots.real))]
    return np.sort(real.real)


def _exp_poly_times(problem, M):
    """Every real blow-up time at M for A = diag(a1, a2) with a1/a2 = p/q, from
    the paper's exponential polynomial in tau = e^{t a2/q}:

        tau^{p+q} + K1 tau^p + K2 tau^q + K3 = 0,
        K1 = a2 J22 - 1,  K2 = a1 J11 - 1,  K3 = 1 - a1 J11 - a2 J22 + a1 a2 det J,

    its real positive roots from the companion matrix (np.roots), t = (q/a2)
    log tau, each re-checked against blowup_residual to 1e-9 max(1, |det J|).
    A test-only reference: sheets_diag2's scan is held to it."""
    a1, a2 = np.diagonal(problem.spec.A)
    ratio = Fraction(float(a1 / a2)).limit_denominator(64)
    p, q = ratio.numerator, ratio.denominator
    exps = np.array([p + q, p, q, 0])
    exps -= min(exps.min(), 0)
    J = problem.data.phi_jacobian(M[None])[0]
    detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    K = (1.0, a2 * J[1, 1] - 1.0, a1 * J[0, 0] - 1.0,
         1.0 - a1 * J[0, 0] - a2 * J[1, 1] + a1 * a2 * detJ)
    coeffs = np.zeros(exps.max() + 1)
    for e, k in zip(exps, K):
        coeffs[exps.max() - e] += k
    tau = _real_roots_poly(coeffs)
    times = (q / a2) * np.log(tau[tau > 0.0])
    scale = max(1.0, abs(detJ))
    return sorted(float(t) for t in times
                  if abs(blowup.blowup_residual(problem, t, M)) <= 1e-9 * scale)


@pytest.mark.parametrize("rates, grid_num", [
    ((0.6, -0.6), 11), ((1.0, 2.0), 15), ((0.5, -1.0), 21), ((1.0, -0.5), 13), ((0.3, 0.9), 17),
])
def test_sheets_diag2_scan_matches_the_exponential_polynomial(rates, grid_num):
    """A rational ratio: at every grid point the all-roots scan of sheets_diag2
    finds exactly the polynomial's roots inside [-t_max, t_max], each within
    1e-12, and NaN in every other sheet."""
    t_max = 10.0
    problem = make_problem(np.diag(rates), "tanh2d", {"eps": 0.5}, grid_num=grid_num)
    sheets = blowup.sheets_diag2(problem, t_max=t_max)
    finite = 0
    for i, M in enumerate(sheets[0].points):
        inside = problem.data.in_domain(M[None])[0]
        ref = [t for t in _exp_poly_times(problem, M) if abs(t) <= t_max] if inside else []
        got = [s.t[i] for s in sheets if np.isfinite(s.t[i])]
        assert len(got) == len(ref), f"M={M}: scan {got}, polynomial {ref}"
        assert np.all(np.abs(np.subtract(got, ref)) <= 1e-12), f"M={M}: {got} vs {ref}"
        finite += len(got)
    assert finite > grid_num, finite


@pytest.mark.parametrize("rates, t_star", [
    ((20.0, 40.0), 0.09081400186377889),
    ((20.0, 40.0 * np.sqrt(2.0)), 0.07086116580067613),
], ids=["rational", "irrational"])
def test_sheets_diag2_scan_past_the_float_range_is_warning_free(rates, t_star):
    """Large rates: det(phi1 + J) leaves the float range on the scan grid far
    from any root.  The scan reads those values as +-inf or NaN without a
    floating-point warning, and diag(20, 40) keeps the exponential
    polynomial's t*."""
    problem = make_problem(np.diag(rates), "tanh2d", {"eps": 0.5}, grid_num=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ext = blowup.min_blowup_time(problem, blowup.sheets_diag2(problem))
    assert abs(ext.t_star - t_star) <= 1e-12, ext.t_star


@pytest.mark.parametrize("A", [
    [[0.5, 0.0], [0.0, 0.5 + 3e-13]],
    [[0.5, 4e-13], [0.0, 0.5]],
    [[-0.4, 0.0], [2e-13, -0.4]],
], ids=["diagonal", "upper", "lower"])
def test_near_scalar_matrix_reaches_the_scan(monkeypatch, A):
    """A matrix within 1e-12 of a*I that is not a*I is no scalar multiple:
    build_sheets scans the A given, writes no tau certificate, and its t*
    passes the residual re-check for that A."""
    assert matops.scalar_multiple(np.array(A)) is None
    problem = make_problem(A, "tanh2d", {"eps": 0.5}, grid_num=11)
    scans, sheets_scan = [], blowup.sheets_scan
    monkeypatch.setattr(blowup, "sheets_scan",
                        lambda *args, **kwargs: scans.append(1) or sheets_scan(*args, **kwargs))
    sheets, cert_lines = blowup.build_sheets(problem, grid_num=11)
    assert scans == [1] and not any(s.branch.startswith("tau") for s in sheets)
    assert not any("tau" in line for line in cert_lines), cert_lines
    ext = blowup.min_blowup_time(problem, sheets)
    blowup._verify_blowup_time(problem, ext.t_star, ext.M_star,
                               matops.phi1(problem.spec.A, ext.t_star))


def test_no_blowup_reported_for_damped_gauss():
    problem = make_problem([[-3.01]], "gauss1d", {"eta": 1.0, "kappa": 1.0})
    out = blowup.min_blowup_time(problem, blowup.sheet_1d(problem))
    assert isinstance(out, blowup.NoBlowup)
    assert out.reason == "no positive root on the M-grid"


def _reference_scan(problem, M, ts):
    """Per-point sign scan on the nodes ts and bisection, one blowup_residual
    call per step."""
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
    ts = np.arange(-t_max, t_max + 1e-2, 1e-2)
    finite = 0
    for i, M in enumerate(sheets[0].points):
        ref = _reference_scan(problem, M, ts) if problem.data.in_domain(M) else []
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
    (first,) = blowup.sheets_scan(problem, t_max=3.0)
    finite = 0
    for i, M in enumerate(first.points):
        positive = [s.t[i] for s in diag2 if s.t[i] > 0.0]
        if not positive:
            assert np.isnan(first.t[i]), f"M={M}"
            continue
        assert abs(first.t[i] - min(positive)) <= 1e-11, f"M={M}"
        finite += 1
    assert finite > 5


_OFF_PATTERN = [[0.2, 1.1], [-0.9, -0.3]]


def _c3d_rotated_problem(grid_num):
    """The coriolis3d preset (|omega| = 1.2, g_mag 0.5) in its rotated frame."""
    spec = model.coriolis3d_spec(1.2, g_mag=0.5)
    data = model.make_data("separable", components=[
        ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
        ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
        ("gauss1d", {"eta": 0.7, "kappa": 0.8}),
    ])
    problem = model.HodographProblem(spec, data, grid_num=grid_num)
    return degenerate.rotated_problem(problem, degenerate.coriolis3d_basis(1.2))


@pytest.mark.parametrize("case, first_only", [
    ("off_pattern", True), ("coriolis3d", True), ("off_pattern", False),
], ids=["off_pattern", "coriolis3d", "off_pattern-all-roots"])
def test_first_root_newton_matches_bisection_non_diagonal(case, first_only):
    """Newton-refined scan sheets for a non-diagonal A against the plain
    bisection scan on the same nodes: identical NaN pattern, times within 1e-12.
    first_only keeps the first root t > 0 on 0, step, ..., t_max; otherwise
    sheet k holds the k-th root on [-t_max, t_max]."""
    if case == "off_pattern":
        problem = make_problem(_OFF_PATTERN, "tanh2d", {"eps": 0.5}, grid_num=7)
        t_max = 10.0
    else:
        problem, t_max = _c3d_rotated_problem(grid_num=4), 5.0
    assert not matops.is_exact_diagonal(problem.spec.A)
    sheets = blowup.sheets_scan(problem, t_max=t_max, first_only=first_only, branch="s{}")
    if first_only:
        ts = np.concatenate([[0.0], np.arange(5e-2, t_max + 5e-2, 5e-2)])
        reason = f"[0, {t_max}]"
        assert len(sheets) == 1
    else:
        ts = np.arange(-t_max, t_max + 5e-2, 5e-2)
        reason = f"[{-t_max}, {t_max}]"
        assert len(sheets) > 1
    assert [s.branch for s in sheets] == [f"s{k}" for k in range(len(sheets))]
    assert all(s.absent_reason == f"no sign change of the residual on {reason}" for s in sheets)
    finite = 0
    for i, M in enumerate(sheets[0].points):
        roots = _reference_scan(problem, M, ts) if problem.data.in_domain(M) else []
        if first_only:
            roots = [r for r in roots if r > 0.0][:1]
        for k, sheet in enumerate(sheets):
            t = sheet.t[i]
            if k < len(roots):
                assert abs(t - roots[k]) <= 1e-12, f"M={M} sheet {k}: {t!r} vs {roots[k]!r}"
                finite += 1
            else:
                assert np.isnan(t), f"M={M} sheet {k}: {t!r}"
    assert 5 < finite < sum(s.t.size for s in sheets), finite


@pytest.mark.parametrize("w, step", [(1.0, 1.7), (-2.5, 1.1)])
def test_scan_roots_coarse_brackets_match_bisection(w, step):
    """A rotation's residual oscillates, so a coarse bracket can hold a turning
    point where a Newton step overshoots the bracket; every root must still
    come from its own bracket, as the bisection scan's does."""
    problem = make_problem(model.coriolis2d_spec(w).A, "tanh2d", {"eps": 2.0}, grid_num=7)
    A, data = problem.spec.A, problem.data
    ts = np.arange(0.0, 12.0, step)
    table = matops.time_table(A, 1)
    P1_tab = table(ts)[1]
    compared = 0
    for M in blowup._grid_points(data, None, 7)[1]:
        if not data.in_domain(M):
            continue
        got = blowup.scan_roots(ts, P1_tab, data.phi_jacobian(M), A, table)
        ref = _reference_scan(problem, M, ts)
        assert len(got) == len(ref), f"M={M}: {got} vs {ref}"
        assert np.all(np.abs(np.subtract(got, ref)) <= 1e-12), f"M={M}: {got} vs {ref}"
        compared += len(ref)
    assert compared > 10, compared


_ROT4 = [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, -2.0, 0.0]]


def _table_case(case):
    """(problem, builder) of a scan-table case: the builder maps a problem to
    its sheets, and to sheets_scan's arguments (first_only, t_max, scan_step)."""
    if case == "blowup-scan":
        problem = make_problem(np.diag([1.0, -np.sqrt(2.0)]), "tanh2d", {"eps": 9.0}, grid_num=3)
        return problem, (False, 0.11, 1e-2), lambda p: blowup.sheets_diag2(p, t_max=0.11)
    if case == "rotation4":
        tanh, gauss = ("tanh1d", {"mu": 0.8, "kappa": 0.9}), ("gauss1d", {"eta": 0.6, "kappa": 1.1,
                                                                          "branch": -1})
        data = model.make_data("separable", components=[tanh, gauss, tanh, gauss])
        problem = model.HodographProblem(model.ForceSpec(np.array(_ROT4), np.zeros(4)), data,
                                         grid_num=3)
        return problem, (False, 5.0, 5e-2), lambda p: blowup.sheets_scan(p, t_max=5.0,
                                                                          first_only=False)
    if case == "coriolis3d":
        problem, args = _c3d_rotated_problem(grid_num=4), (True, 5.0, 5e-2)
    else:
        problem = make_problem(_OFF_PATTERN, "tanh2d", {"eps": 0.5}, grid_num=7)
        args = (case == "off_pattern", 10.0, 5e-2)
    first_only, t_max, _ = args
    return problem, args, lambda p: blowup.sheets_scan(p, t_max=t_max, first_only=first_only)


def _per_point_sheets(problem, first_only, t_max, scan_step):
    """The sheet times of a scan, point by point: scan_roots of each in-domain
    grid point's own phi_jacobian (its one-point form), over the scan's nodes."""
    A, data = problem.spec.A, problem.data
    if first_only:
        ts = np.concatenate([[0.0], np.arange(scan_step, t_max + scan_step, scan_step)])
    else:
        ts = np.arange(-t_max, t_max + scan_step, scan_step)
    table = matops.time_table(A, 1)
    P1_tab = table(ts)[1]
    assert np.isfinite(P1_tab).all()
    rows = []
    for M in blowup._grid_points(data, None, problem.grid_num)[1]:
        if not data.in_domain(M):
            rows.append(None)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            roots = blowup.scan_roots(ts, P1_tab, data.phi_jacobian(M), A, table)
        if first_only:
            first = [r for r in roots if r > 0.0][:1]
            rows.append([r for r in first if r <= t_max])
        else:
            rows.append([r for r in roots if abs(r) <= t_max])
    width = 1 if first_only else max(len(r) for r in rows if r is not None)
    return np.array([[np.nan] * width if r is None else r + [np.nan] * (width - len(r))
                     for r in rows]).T


_TABLE_CASES = ["blowup-scan", "off_pattern", "off_pattern-all-roots", "coriolis3d", "rotation4"]


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_scan_table_is_the_per_point_scan_bit_for_bit(case):
    """The sheets of one determinant table over the whole in-domain M stack
    hold, bit for bit and with the same NaN pattern, the per-point scan_roots
    roots of the same grid: the same first root t > 0 within t_max in
    first-root mode, every root within t_max otherwise (rotation4 is n = 4,
    matops.det's LAPACK branch)."""
    problem, args, build = _table_case(case)
    sheets = build(problem)
    ref = _per_point_sheets(problem, *args)
    got = np.array([s.t for s in sheets])
    assert got.shape == ref.shape, (got.shape, ref.shape)
    assert got.tobytes() == ref.tobytes(), case
    assert 0 < np.isfinite(got).sum() < got.size, case


@pytest.mark.parametrize("case, entries", [
    ("blowup-scan", 23 * 2 * 2),  # the phi1 table's own budget: 1 point per chunk
    ("off_pattern", 202 * 4 * 4),  # the augmented phi1 table's budget: 4 points per chunk
    ("off_pattern-all-roots", 401 * 2 * 2 * 10),  # 10 points per chunk
    ("rotation4", 201 * 4 * 4 * 10),
])
def test_scan_table_chunks_give_the_same_sheets(monkeypatch, case, entries):
    """With _SCAN_MAX_ENTRIES lowered so that the in-domain M stack is
    scanned in three or more chunks of points x nodes x n^2 entries, the
    sheets keep every bit, and a grid that only needs chunking is not
    refused."""
    problem, _, build = _table_case(case)
    whole = build(problem)
    chunks = []
    scan_table = blowup._scan_table

    def counted(t_grid, P1_tab, J, *args):
        chunks.append(len(J))
        assert len(J) * len(t_grid) * J.shape[-1] ** 2 <= entries
        return scan_table(t_grid, P1_tab, J, *args)

    monkeypatch.setattr(blowup, "_SCAN_MAX_ENTRIES", entries)
    monkeypatch.setattr(blowup, "_scan_table", counted)
    chunked = build(problem)
    assert len(chunks) >= 3, chunks
    assert [s.branch for s in chunked] == [s.branch for s in whole]
    assert np.array([s.t for s in chunked]).tobytes() == np.array([s.t for s in whole]).tobytes()


def _refine_root_reference(A, table, J, lo, hi, flo, fhi, exits):
    """One bracket refined alone, as scan_roots refined it before its
    brackets were stacked, on one-row tables: each step fills one
    (n+1, n, n) stack (K = phi1 + J, then K with column j replaced by column
    j of e^{tA} = I + A phi1) and takes f and f' from one matops.det of it.
    exits collects the branches taken: "zero" (f exactly 0), "flat" (f'
    exactly 0), "leave" (a Newton step outside the bracket), "narrow" (the
    bracket below _ROOT_TOL) and "step"."""
    n = J.shape[0]
    cols = np.arange(n)
    rows = cols + 1
    Ks = np.empty((n + 1, n, n))
    t = lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(blowup._ROOT_MAX_ITER):
        P1 = table(np.array([t]))[1][0]
        Ks[:] = P1 + J
        Ks[rows, :, cols] = (np.eye(n) + A @ P1).T
        dets = matops.det(Ks)
        f = float(dets[0])
        if f == 0.0:
            exits.add("zero")
            return float(t)
        if flo * f < 0.0:
            hi = t
        else:
            lo, flo = t, f
        df = float(dets[1:].sum())
        if df == 0.0:
            exits.add("flat")
        step = f / df if df != 0.0 else np.inf
        if abs(step) <= blowup._ROOT_TOL:
            exits.add("step")
            return float(t - step)
        if hi - lo <= blowup._ROOT_TOL:
            exits.add("narrow")
            break
        t = t - step
        if not lo < t < hi:
            exits.add("leave")
            t = 0.5 * (lo + hi)
    return float(0.5 * (lo + hi))


def _random_brackets(rng):
    """(A, J, lo, hi) brackets of det(phi1(A, t) + J) for n = 1-4: sign changes
    on random coarse grids, and for n = 2, 3 brackets of 1e-12 to 5e-12 around a
    bisected root of a near-rank-1 J with entries ~1e6, whose determinant is
    rounding noise that near."""
    for trial in range(240):
        n = 1 + trial % 4
        A = rng.normal(size=(n, n)) * rng.choice([0.3, 1.0, 3.0])
        A = np.diag(np.diagonal(A)) if trial % 3 == 0 else A
        J = rng.normal(size=(n, n))
        ts = np.linspace(-3.0, 3.0, int(rng.integers(4, 40)))
        vals = matops.det(matops.time_table(A, 1)(ts)[1] + J)
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
            yield A, J, float(ts[i]), float(ts[i + 1])
    for trial in range(120):
        n = 2 + trial % 2
        A = np.diag(rng.normal(size=n)) if trial % 3 else rng.normal(size=(n, n))
        J = 1e6 * rng.normal(size=(n, 1)) @ rng.normal(size=(1, n)) + rng.normal(size=(n, n))
        table = matops.time_table(A, 1)
        f = lambda t: float(matops.det(table(np.array([t]))[1][0] + J))
        lo, hi = -2.0, 2.0
        if not f(lo) * f(hi) < 0.0:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if f(mid) * f(lo) < 0.0 else (mid, hi)
        w = float(rng.choice([1e-12, 2e-12, 5e-12]))
        yield A, J, lo - w * float(rng.random()), hi + w * float(rng.random())


def test_stacked_refinement_is_each_bracket_refined_alone():
    """_refine_brackets over every bracket of one A at once returns, bit for
    bit, each bracket refined as a stack of one, and the one-bracket
    reference refinement on one-row tables: random brackets for n = 1-4,
    noisy ones narrower than a few _ROOT_TOL, and a step at t = 1 where f' is
    exactly 0 (A = 0, f = (t - 1)^2 - 1 on [0.5, 3], regula falsi lands on 1).
    Between them they take every exit: f exactly 0, f' exactly 0, a Newton
    step outside the bracket, a bracket below _ROOT_TOL and a short step."""
    rng = np.random.default_rng(2024)
    brackets = [(np.zeros((2, 2)), np.array([[-1.0, 1.0], [1.0, -1.0]]), 0.5, 3.0),
                *_random_brackets(rng)]
    by_A = {}
    for A, J, lo, hi in brackets:
        by_A.setdefault(A.tobytes() + bytes(A.shape), (A, []))[1].append((J, lo, hi))
    exits, refined = set(), 0
    for A, group in by_A.values():
        table = matops.time_table(A, 1)
        rows = []
        for J, lo, hi in group:
            flo, fhi = (float(matops.det(table(np.array([t]))[1][0] + J)) for t in (lo, hi))
            if flo * fhi < 0.0:
                rows.append((J, lo, hi, flo, fhi))
        if not rows:
            continue
        J, lo, hi, flo, fhi = (np.array(v) for v in zip(*rows))
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = blowup._refine_brackets(A, table, J, lo, hi, flo, fhi)
            for b, row in enumerate(rows):
                alone = blowup._refine_brackets(A, table, *(np.array([v]) for v in row))
                ref = _refine_root_reference(A, table, *row, exits)
                assert stacked[b].hex() == alone[0].hex() == ref.hex(), (A, row, stacked[b], ref)
                refined += 1
    assert refined > 300, refined
    assert exits == {"zero", "flat", "leave", "narrow", "step"}, exits


@pytest.mark.parametrize("first_only", [True, False])
def test_scan_without_brackets_evaluates_no_table(first_only):
    """A scan chunk with no sign change (the 4x4 rotation's residual keeps its
    sign on [0, 5] at these points) returns NaN rows without a single phi1
    table evaluation for the refinement."""
    problem, _, _ = _table_case("rotation4")
    A, data = problem.spec.A, problem.data
    ts = np.arange(0.0, 5.05, 5e-2)
    table = matops.time_table(A, 1)
    P1_tab, calls = table(ts)[1], []
    counted = lambda t: calls.append(len(t)) or table(t)
    J = data.phi_jacobian(blowup._grid_points(data, None, 3)[1][:4])
    vals = matops.det(P1_tab + J[:, None])
    assert np.all(vals[:, :-1] * vals[:, 1:] > 0.0)
    out = blowup._scan_table(ts, P1_tab, J, A, counted, 5.0, first_only)
    assert out.shape == (4, 1 if first_only else 0) and np.isnan(out).all()
    assert calls == []


def test_blowup_scan_phi1_call_budget(monkeypatch):
    """The blowup-scan benchmark problem, diag(1, -sqrt 2) with tanh2d eps 9 on
    a grid of 3 up to t_max 0.11, stays within 600 phi1 calls through sheet
    build and refinement (bisecting every bracket made 3932)."""
    calls = []
    phi1 = matops.phi1

    def counted(A, t):
        calls.append(t)
        return phi1(A, t)

    monkeypatch.setattr(matops, "phi1", counted)
    problem = make_problem(np.diag([1.0, -np.sqrt(2.0)]), "tanh2d", {"eps": 9.0})
    sheets, _ = blowup.build_sheets(problem, grid_num=3, t_max=0.11)
    ext = blowup.min_blowup_time(problem, sheets)
    # closed-form root at M* = 0: phi1 is diagonal and dphi/dM = [[1, -9], [-9, 1]] / 80
    assert ext.t_star == pytest.approx(0.10096597532376497, abs=1e-12)
    assert len(calls) <= 600, len(calls)


def test_blowup_scan_grid_6_minimum_is_solved_to_rounding():
    """The blowup-scan problem at grid 6, where no grid node is M = 0: Newton
    on the extremum conditions puts M* at 0 to 1e-14 (central differences of
    branch_fn left it near (-2e-12, -5e-12)), and t* within 1e-15 of the
    bisection of the closed form det(phi1(A, t) + J(0)) =
    (expm1(t) + 1/80) (expm1(-sqrt 2 t) / -sqrt 2 + 1/80) - 81/6400."""
    problem = make_problem(np.diag([1.0, -np.sqrt(2.0)]), "tanh2d", {"eps": 9.0})
    sheets, _ = blowup.build_sheets(problem, grid_num=6, t_max=0.11)
    ext = blowup.min_blowup_time(problem, sheets)
    assert np.all(np.abs(ext.M_star) <= 1e-14), ext.M_star
    r = np.sqrt(2.0)
    f = lambda t: (np.expm1(t) + 1 / 80) * (np.expm1(-r * t) / -r + 1 / 80) - 81 / 6400
    lo, hi = 0.1, 0.11
    assert f(lo) < 0.0 < f(hi)
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    assert abs(ext.t_star - lo) <= 1e-15, (ext.t_star, lo, hi)


def _synthetic_sheet(f, num=11, calls=None):
    """A sheet of t = f(M) on a num x num grid of [0, 1]^2 whose branch_fn is f
    on each row of a stack, with every probe value recorded: (sheet, probes).
    calls, when given, gets each branch_fn call's row count."""
    axes = [np.linspace(0.0, 1.0, num)] * 2
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    probes = []

    def branch_fn(stack):
        if calls is not None:
            calls.append(len(stack))
        values = [f(M) for M in stack]
        probes.extend(values)
        return np.array(values)

    sheet = blowup.BlowupSheet("s", axes, points, np.array([f(M) for M in points]),
                               branch_fn=branch_fn)
    return sheet, probes


@pytest.mark.parametrize("f, t_min, M_min", [
    (lambda M: 2.0 + (M[0] - 0.33) ** 2 + 0.5 * (M[0] - 0.33) * (M[1] - 0.61)
     + 2.0 * (M[1] - 0.61) ** 2, 2.0, (0.33, 0.61)),
    (lambda M: 1.0 + (M[0] - 0.123456789) ** 2 * (M[0] + 1.0) ** 2
     + (M[1] - 0.77) ** 2 * (M[1] + 1.0) ** 2, 1.0, (0.123456789, 0.77)),
    (lambda M: 1.0 + 5.0 * (M[1] - 0.5 - (M[0] - 0.4) ** 2) ** 2 + (M[0] - 0.43) ** 2,
     1.0, (0.43, 0.5009)),
    (lambda M: np.cosh(M[0] - 0.314) * np.cosh(2.0 * (M[1] - 0.456)), 1.0, (0.314, 0.456)),
], ids=["coupled-quadratic", "quartic", "curved-valley", "cosh"])
def test_sheet_extremum_smooth_minimum_in_few_probes(f, t_min, M_min):
    """A smooth minimum between grid points: Newton on the central-difference
    gradient and Hessian reaches it to 1e-11 in at most 40 branch_fn probes,
    also along a curved valley that no coordinate direction follows.  Each
    stencil is one call: the grid extremum and its 4 axis points, then per
    step the 4 corners, the Newton point and the next 4 axis points."""
    calls = []
    sheet, probes = _synthetic_sheet(f, calls=calls)
    t, M = blowup.sheet_extremum(sheet)
    assert abs(t - t_min) <= 1e-11, t
    assert np.allclose(M, M_min, atol=1e-6), M
    assert len(probes) <= 40, len(probes)
    assert sum(calls) == len(probes) and calls[0] == 5, calls
    assert calls[1:] == ([4, 1, 4] * len(calls))[: len(calls) - 1], calls


def _smooth(M):
    return 1.0 + (M[0] - 0.41) ** 2 + (M[1] - 0.53) ** 2


@pytest.mark.parametrize("f", [
    lambda M: np.inf if M[0] < 0.4 else _smooth(M),
    lambda M: np.nan if M[1] > 0.53 + 5e-6 else _smooth(M),
    lambda M: np.inf if np.hypot(M[0] - 0.4, M[1] - 0.5) < 1e-9 else _smooth(M),
], ids=["inf-left", "nan-right", "inf-at-start"])
def test_sheet_extremum_finite_beside_non_finite_probes(f):
    """Where the branch has no root the probe is inf or NaN: a non-finite probe
    beside the minimum, or at the grid extremum itself, ends the search with a
    finite value no worse than the grid's.  The stored grid is the smooth sheet,
    so the probe at the grid extremum (0.4, 0.5) can disagree with it."""
    sheet, probes = _synthetic_sheet(f)
    sheet.t = np.array([_smooth(M) for M in sheet.points])
    t, M = blowup.sheet_extremum(sheet)
    assert any(not np.isfinite(v) for v in probes), probes
    assert np.isfinite(t) and t <= sheet.t.min(), t
    assert t == _smooth(M)


@pytest.mark.parametrize("f, M_min", [
    (lambda M: 1.0 + M[0] + M[1], (0.0, 0.0)),
    (lambda M: (M[0] - 2.0) ** 2 + (M[1] - 0.537) ** 2, (1.0, 0.537)),
], ids=["left", "right"])
def test_sheet_extremum_edge_minimum_stays_in_box(f, M_min):
    """A minimum on the edge of the grid's box, or past it, is reported inside
    the box: the Newton point is clipped to the box."""
    sheet, _ = _synthetic_sheet(f)
    t, M = blowup.sheet_extremum(sheet)
    assert np.all((0.0 <= M) & (M <= 1.0)), M
    assert np.allclose(M, M_min, atol=1e-9), M
    assert t == f(M)


@pytest.mark.parametrize("f, mode", [
    (lambda M: abs(M[0] - 0.33) + M[1] ** 2, "min"),
    (lambda M: np.sin(20.0 * M[0]) + M[0] + (M[1] - 0.47) ** 2, "min"),
    (lambda M: -abs(M[0] - 0.33) - (M[1] - 0.61) ** 2 - 0.2 * M[0] * M[1], "max"),
], ids=["kink", "wiggle", "max"])
def test_sheet_extremum_returns_a_probed_value_no_worse_than_grid(f, mode):
    """The result is a probed value at the point returned, and no worse than
    the grid extremum, also on a kinked sheet and in mode="max"."""
    sheet, probes = _synthetic_sheet(f)
    grid = sheet.t.min() if mode == "min" else sheet.t.max()
    t, M = blowup.sheet_extremum(sheet, mode=mode)
    assert t in probes and t == f(M)
    assert (t <= grid) if mode == "min" else (t >= grid), (t, grid)


def _c2d_problem(A, grid_num):
    return make_problem(A, "gauss2d_coriolis", {"amplitude": 1.0}, grid_num=grid_num)


@pytest.mark.parametrize("problem, build, refs", [
    (_c2d_problem(model.coriolis2d_spec(1.0).A, 101), blowup.sheets_coriolis2d,
     [0.8162565608586139]),
    (_c2d_problem(periodicity.make_periodic_2d(1.0, 0.3, 0.8), 41), blowup.sheets_coriolis2d,
     [0.8649620763002015]),
    (_c2d_problem(-0.2 * np.eye(2), 41), blowup.sheets_diag,
     [0.786938115497736, 11.121261681602014]),
], ids=["criterion-5", "periodic2d", "scalar-0.2"])
def test_sheet_minimum_matches_nelder_mead(problem, build, refs):
    """Each sheet minimum on gauss2d_coriolis lies within 1e-12 of a
    scipy Nelder-Mead minimum of the same branch_fn (xatol 1e-13, fatol 1e-16),
    taken once and pinned here, and min_blowup_time's t* from the extremum
    conditions lies within 1e-14 of the least of them."""
    sheets = build(problem)
    got = [blowup.sheet_extremum(s, positive_only=True)[0] for s in sheets]
    assert np.all(np.abs(np.subtract(got, refs)) <= 1e-12), got
    assert abs(blowup.min_blowup_time(problem, sheets).t_star - min(got)) <= 1e-14


def test_criterion_5_refinement_probes_in_few_calls(monkeypatch):
    """Criterion 5's sheet (unit rotation, unit Gaussian, grid 101): the
    minimum lies between grid points, and Newton on the extremum conditions
    reaches it in at most 6 stacked evaluations of them (the grid point, then
    each iterate, each with its 6 shifted points), with no branch_fn call and
    no fallback to sheet_extremum; F = (f, f_M) is 0 there to rounding."""
    problem = _c2d_problem(model.coriolis2d_spec(1.0).A, 101)
    (sheet,) = blowup.sheets_coriolis2d(problem)
    calls, rows, branch_fn = [], [], sheet.branch_fn
    conditions = blowup._extremum_conditions
    sheet.branch_fn = lambda M: calls.append(len(M)) or branch_fn(M)
    monkeypatch.setattr(blowup, "_extremum_conditions",
                        lambda A, data, table, z: rows.append(len(z)) or conditions(A, data, table, z))
    monkeypatch.setattr(blowup, "sheet_extremum", None)
    ext = blowup.min_blowup_time(problem, [sheet])
    assert calls == [] and set(rows) == {7} and len(rows) <= 6, (calls, rows)
    z = np.concatenate([[ext.t_star], ext.M_star])[None]
    f, grad, _ = conditions(problem.spec.A, problem.data, matops.time_table(problem.spec.A, 1), z)
    assert np.all(np.abs([f[0], *grad[0, 1:]]) <= 1e-13 * abs(grad[0, 0])), (f, grad)


def _routes(monkeypatch, problem, sheets):
    """min_blowup_time over sheets, with the branch of every sheet that fell
    back to sheet_extremum: (result, fallen-back branches)."""
    fallen, sheet_extremum = [], blowup.sheet_extremum
    monkeypatch.setattr(blowup, "sheet_extremum",
                        lambda sheet, *a, **k: fallen.append(sheet.branch) or sheet_extremum(sheet, *a, **k))
    return blowup.min_blowup_time(problem, sheets), fallen


def _grid_minimum(sheet):
    positive = sheet.finite_positive()
    return int(np.argmin(np.where(positive, sheet.t, np.inf)))


def test_edge_minimum_falls_back_to_branch_fn(monkeypatch):
    """gauss2d_coriolis amplitude 0.3 under coriolis2d omega 0.5: the sheet's
    grid minimum lies next to the curved domain's edge and Newton on the
    extremum conditions leaves the domain, so the sheet falls back to
    sheet_extremum, whose t* it reports bit for bit."""
    problem = make_problem(model.coriolis2d_spec(0.5).A, "gauss2d_coriolis",
                           {"amplitude": 0.3}, grid_num=101)
    (sheet,) = blowup.sheets_coriolis2d(problem)
    i0 = _grid_minimum(sheet)
    shape = [ax.size for ax in sheet.axes]
    i, j = np.unravel_index(i0, shape)
    near = sheet.points.reshape(*shape, 2)[[i - 1, i + 1, i, i], [j, j, j - 1, j + 1]]
    assert not problem.data.in_domain(near).all()
    table = matops.time_table(problem.spec.A, 1)
    assert blowup._stationary_minimum(problem, table, sheet, i0) is None
    ext, fallen = _routes(monkeypatch, problem, [sheet])
    assert fallen == ["coriolis_first"]
    assert ext.t_star == 3.1333699787763134
    assert ext.t_star == blowup.sheet_extremum(sheet, positive_only=True)[0]


def test_crossing_branches_fall_back_to_branch_fn(monkeypatch):
    """A = 0.3 I (a repeated eigenvalue) on separable tanh data with mu kappa
    = 0.72 in both components: the two branches tau0, tau1 of det(tau I + J)
    cross at the minimum M = (0.8, 0.9), where f_t vanishes to within
    _CROSSING_TOL and the extremum conditions degenerate.  Both sheets fall
    back to sheet_extremum and keep its times bit for bit."""
    data = ("separable", {"components": [("tanh1d", {"mu": 0.8, "kappa": 0.9}),
                                         ("tanh1d", {"mu": 0.9, "kappa": 0.8})]})
    problem = make_problem(0.3 * np.eye(2), *data, grid_num=11)
    sheets = blowup.sheets_diag(problem)
    table = matops.time_table(problem.spec.A, 1)
    for sheet in sheets:
        i0 = _grid_minimum(sheet)
        assert np.array_equal(sheet.points[i0], [0.8, 0.9000000000000001])
        t0, M0 = sheet.t[i0], sheet.points[i0]
        f, grad, scale = blowup._extremum_conditions(problem.spec.A, problem.data, table,
                                                     np.concatenate([[t0], M0])[None])
        P1, J = matops.phi1(problem.spec.A, t0), problem.data.phi_jacobian(M0)
        bound = np.linalg.norm(np.eye(2) + problem.spec.A @ P1) * (np.linalg.norm(P1)
                                                                   + np.linalg.norm(J))
        assert scale[0] == pytest.approx(bound, rel=1e-14)
        assert f[0] or grad[0, 1:].any()
        assert abs(grad[0, 0]) <= blowup._CROSSING_TOL * bound, (f, grad, bound)
        assert blowup._stationary_minimum(problem, table, sheet, i0) is None
    ext, fallen = _routes(monkeypatch, problem, sheets)
    assert fallen == ["tau0", "tau1"]
    assert ext.t_star == 1.1610222993520276 and ext.branch == "tau0"
    assert blowup.min_blowup_time(problem, sheets[1:]).t_star == 1.1610223291027442


def _c3d_rotated():
    """The coriolis3d preset (omega 1.2) in its kernel-adapted frame, on
    separable data whose tanh component (mu 0.8, kappa 0.9) sits on the
    decoupled axis: the first blow-up time depends on M1 alone."""
    spec = model.coriolis3d_spec(1.2, g_mag=0.5)
    data = model.make_data("separable", components=[
        ("tanh1d", {"mu": 0.8, "kappa": 0.9}), ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
        ("gauss1d", {"eta": 0.7, "kappa": 0.8})])
    return degenerate.rotated_problem(model.HodographProblem(spec, data),
                                      degenerate.coriolis3d_basis(1.2))


def test_flat_coriolis3d_sheet_on_its_grid_node_takes_the_conditions(monkeypatch):
    """The flat coriolis3d separable sheet at the default grid 11: every grid
    time with M1 = 0.8 is the exact root 1/(mu kappa), so the grid is flat
    along M2 and M3 at its minimum.  Newton on the extremum conditions in t
    and M1 alone, without a fallback, keeps that grid point and its time bit
    for bit."""
    problem = _c3d_rotated()
    sheets, _ = blowup.build_sheets(problem, grid_num=11)
    (sheet,) = sheets
    i0 = _grid_minimum(sheet)
    assert blowup._flat_axes(sheet, i0).tolist() == [False, True, True]
    ext, fallen = _routes(monkeypatch, problem, sheets)
    assert fallen == []
    assert ext.t_star == sheet.t[i0] == 1.3888888888888888
    assert np.array_equal(ext.M_star, sheet.points[i0])


def test_flat_coriolis3d_sheet_off_its_grid_node_keeps_the_flat_coordinates(monkeypatch):
    """At grid 10 no grid node has M1 = 0.8: Newton moves t and M1 only, the
    flat axes M2 and M3 keep the grid minimum's coordinates, and t* is the
    closed form 1/(mu kappa).  Newton steps on branch_fn stopped at the grid
    value 1.4059002823047766, 1.2% late, because the flat axes leave the
    central-difference Hessian singular."""
    problem = _c3d_rotated()
    sheets, _ = blowup.build_sheets(problem, grid_num=10)
    (sheet,) = sheets
    i0 = _grid_minimum(sheet)
    assert blowup._flat_axes(sheet, i0).tolist() == [False, True, True]
    ext, fallen = _routes(monkeypatch, problem, sheets)
    assert fallen == []
    assert abs(ext.t_star - 1.0 / (0.8 * 0.9)) <= 1e-15
    assert abs(ext.M_star[0] - 0.8) <= 1e-12
    assert np.array_equal(ext.M_star[1:], sheet.points[i0][1:])
    assert blowup.sheet_extremum(sheet, positive_only=True)[0] == 1.4059002823047766


def test_root_pair_inside_one_scan_step_is_reached_from_the_grid(monkeypatch):
    """diag(1000, 1000 + 5e-10) on tanh2d eps 0.5, grid 5, t_max 0.7: at M = 0
    both roots of det(phi1 + J(0)), expm1(1000 t) / 1000 = 2/3 and 2 (J(0) has
    eigenvalues -2/3 and -2), lie in one 0.01 step of the all-roots scan, whose
    sign does not change across it, so the grid's centre has no time and the
    grid minimum, at M = (-0.99, 0), is 6% late.  Newton on the extremum
    conditions goes from there to M = 0, with no fallback: t* is within 1e-14
    of log1p(2000 / 3) / 1000.  Newton steps on branch_fn keep the grid
    value."""
    problem = make_problem(np.diag([1000.0, 1000.0 + 5e-10]), "tanh2d", {"eps": 0.5})
    sheets, _ = blowup.build_sheets(problem, grid_num=5, t_max=0.7)
    first = sheets[0]
    assert np.isnan(first.t[12]) and np.array_equal(first.points[12], [0.0, 0.0])
    assert blowup.sheet_extremum(first, positive_only=True)[0] == 0.006903722540265938
    ext, fallen = _routes(monkeypatch, problem, sheets)
    assert fallen == [] and ext.branch == first.branch
    assert abs(ext.t_star - np.log1p(2000.0 / 3.0) / 1000.0) <= 1e-14, ext.t_star
    assert np.all(np.abs(ext.M_star) <= 1e-14), ext.M_star


def test_near_rotation_is_not_a_rotation():
    """[[0, 1], [-1.000009, 0]] is elliptic with lam = sqrt(1.000009), not a unit
    rotation: every finite sheet time is a residual root of that A."""
    A = np.array([[0.0, 1.0], [-1.000009, 0.0]])
    assert blowup._elliptic_lambda(A) == np.sqrt(1.000009)
    problem = make_problem(A, "gauss2d_coriolis", {"amplitude": 1.0}, grid_num=21)
    (sheet,) = blowup.sheets_coriolis2d(problem)
    finite = 0
    for M, t in zip(sheet.points, sheet.t):
        if np.isfinite(t):
            assert abs(blowup.blowup_residual(problem, float(t), M)) <= 1e-8, f"M={M}"
            finite += 1
    assert finite > 10, finite


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
@pytest.mark.parametrize("A", [
    model.coriolis2d_spec(1.0).A,
    model.coriolis2d_spec(-2.0).A,
    model.coriolis2d_spec(0.8).A,
    periodicity.make_periodic_2d(1.3, 0.7, 2.0),
], ids=["1.0", "-2.0", "0.8", "periodic2d"])
def test_coriolis_first_time_matches_residual_scan(family, params, A):
    """The closed-form first root for an elliptic A (w [[0, 1], [-1, 0]], or the
    periodic2d preset) equals the first positive root of the residual itself:
    a scan with step 1e-3 on [0, 4 pi/lam], Newton-refined to 1e-12.

    M is drawn uniformly over the domain and near the sheet's finite grid
    points, so both roots and no-root points are compared.
    """
    problem = make_problem(A, family, params, grid_num=41)
    sheet = blowup.sheets_coriolis2d(problem)[0]
    lam = blowup._elliptic_lambda(problem.spec.A)
    scanned = blowup.sheets_scan(
        problem, M_grid=[[0.0], [0.0]], t_max=4.0 * np.pi / lam, scan_step=1e-3
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
        (t_closed,), (t_scan,) = sheet.branch_fn(M[None]), scanned(M[None])
        assert np.isnan(t_closed) == np.isnan(t_scan), f"M={M}: {t_closed} vs {t_scan}"
        if np.isfinite(t_closed):
            assert abs(t_closed - t_scan) <= 1e-10, f"M={M}: {t_closed!r} vs {t_scan!r}"
            finite += 1
    assert 0 < finite < len(Ms), (finite, len(Ms))


def test_coriolis_first_time_degenerate_trig():
    """a = b = 0 and a^2 + b^2 < c^2 give NaN, not a ValueError; the first
    root follows the sign of a and skips a root at t = 0."""
    assert np.isnan(blowup.coriolis2d_first_time(0.0, 0.0, -3.0, 2.0))
    assert np.isnan(blowup.coriolis2d_first_time(0.0, 0.0, 0.0, 2.0))
    assert np.isnan(blowup.coriolis2d_first_time(0.3, 0.4, 0.6, 1.0))
    # sin(t) = 1/2: roots pi/6 and 5 pi/6; -sin(t) = 1/2 first at 7 pi/6
    assert blowup.coriolis2d_first_time(1.0, 0.0, -0.5, 1.0) == pytest.approx(np.pi / 6, abs=1e-14)
    assert blowup.coriolis2d_first_time(-1.0, 0.0, -0.5, 1.0) == pytest.approx(7 * np.pi / 6,
                                                                                abs=1e-14)
    # a root at t = 0 is skipped: cos(t) - 1 = 0 next at 2 pi
    assert blowup.coriolis2d_first_time(0.0, 1.0, -1.0, 1.0) == pytest.approx(2 * np.pi, abs=1e-12)


def _per_point_scalar2d_taus(problem, pts):
    """Roots of tau^2 + tr(J) tau + det(J) = 0, one phi_jacobian call per point."""
    taus = []
    for p in pts:
        J = problem.data.phi_jacobian(p)
        tr, dt = J[0, 0] + J[1, 1], J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        disc = tr * tr - 4.0 * dt
        ok = disc >= -1e-9 * max(1.0, tr * tr)
        root = np.sqrt(max(disc, 0.0))
        taus.append([0.5 * (-tr - root), 0.5 * (-tr + root)] if ok else [np.nan, np.nan])
    return np.array(taus)


@pytest.mark.parametrize("case", ["1d", "scalar2d", "coriolis", "periodic2d"])
def test_closed_form_sheets_match_per_point_loop(case):
    """Each closed-form sheet, built from one stacked phi_jacobian, equals the
    point-by-point evaluation (branch_fn, or the quadratic for A = a*Id) to
    1e-14 relative, NaN at the same points."""
    if case == "1d":
        problem = make_problem([[-0.7]], "tanh1d", {"mu": 1.0, "kappa": 1.0}, grid_num=101)
        sheets = [blowup.sheet_1d(problem)]
        refs = [[sheets[0].branch_fn(p[None])[0] for p in sheets[0].points]]
    elif case == "scalar2d":
        problem = make_problem(-0.3 * np.eye(2), "tanh2d", {"eps": 0.5}, grid_num=31)
        sheets = blowup.sheets_diag(problem)
        taus = _per_point_scalar2d_taus(problem, sheets[0].points)
        refs = [blowup._time_from_tau(-0.3, taus[:, k]) for k in range(2)]
    else:
        A = (model.coriolis2d_spec(-1.3).A if case == "coriolis"
             else periodicity.make_periodic_2d(1.3, 0.7, 2.0))
        problem = make_problem(A, "gauss2d_coriolis", {"amplitude": 1.0}, grid_num=41)
        sheets = blowup.sheets_coriolis2d(problem)
        refs = [[sheets[0].branch_fn(p[None])[0] for p in sheets[0].points]]
    for sheet, ref in zip(sheets, refs):
        ref = np.asarray(ref, dtype=float)
        assert np.array_equal(np.isnan(sheet.t), np.isnan(ref))
        finite = np.isfinite(ref)
        assert 0 < finite.sum() < ref.size, finite.sum()
        assert np.allclose(sheet.t[finite], ref[finite], rtol=1e-14, atol=0.0)


_C3D_SCALAR_DATA = ("separable", {"components": [
    ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
    ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
    ("gauss1d", {"eta": 0.7, "kappa": 0.8}),
]})
#: the same tanh component twice: -J has an exact double eigenvalue wherever M1 = M2
_C3D_REPEATED_DATA = ("separable", {"components": [
    ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
    ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
    ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
]})


@pytest.mark.parametrize("case", [
    "1d", "scalar2d", "scalar2d-linear-double-root", "scalar2d-linear-close-roots",
    "scalar3d", "scalar3d-repeated", "elliptic", "periodic2d", "diag2-rational", "diag2-irrational",
    "scan-first", "scan-all",
])
def test_branch_fn_returns_the_stored_grid_value(case):
    """At every grid point each sheet's branch_fn returns the sheet's own stored
    time bit for bit, NaN at the same points: the grid and the refinement probe
    are one evaluation.  The two linear cases have a (near-)double root, where a
    probe that solved the quadratic another way than the grid gave NaN beside a
    finite grid value, or one root for both sheets.  One call on a shuffled
    stack of the grid, off-grid points and points past the grid's box (out of
    the domain, unless it is all of M-space) returns each row's one-row value
    bit for bit, NaN for NaN."""
    if case == "1d":
        problem = make_problem([[-0.7]], "tanh1d", {"mu": 1.0, "kappa": 1.0}, grid_num=41)
        sheets = [blowup.sheet_1d(problem)]
    elif case.startswith("scalar2d"):
        R = {"scalar2d-linear-double-root": [[1.1, 0.3], [-0.3, 0.5]],
             "scalar2d-linear-close-roots": [[0.3, 0.2], [-0.05, 0.5]]}.get(case)
        family, params = ("tanh2d", {"eps": 0.5}) if R is None else ("linear", {"R": R})
        problem = make_problem(-0.4 * np.eye(2), family, params, grid_num=21)
        sheets = blowup.sheets_diag(problem)
    elif case.startswith("scalar3d"):
        data = _C3D_REPEATED_DATA if case == "scalar3d-repeated" else _C3D_SCALAR_DATA
        problem = make_problem(-0.3 * np.eye(3), *data, grid_num=7)
        sheets = blowup.sheets_diag(problem)
    elif case in ("elliptic", "periodic2d"):
        A = (model.coriolis2d_spec(-1.3).A if case == "elliptic"
             else periodicity.make_periodic_2d(1.3, 0.7, 2.0))
        problem = make_problem(A, "gauss2d_coriolis", {"amplitude": 1.0}, grid_num=31)
        sheets = blowup.sheets_coriolis2d(problem)
    elif case == "diag2-rational":
        problem = make_problem(np.diag([0.6, -0.6]), "tanh2d", {"eps": 0.5}, grid_num=15)
        sheets = blowup.sheets_diag2(problem)
    elif case == "diag2-irrational":
        problem = make_problem(np.diag([1.0, -np.sqrt(2.0)]), "tanh2d", {"eps": 0.5}, grid_num=5)
        sheets = blowup.sheets_diag2(problem, t_max=3.0)
        assert "sign change" in sheets[0].absent_reason, "expected the scan path"
    else:
        problem = make_problem(_OFF_PATTERN, "tanh2d", {"eps": 0.5}, grid_num=5)
        sheets = blowup.sheets_scan(problem, t_max=6.0, first_only=case == "scan-first")
    points = sheets[0].points
    lo, hi = points.min(axis=0), points.max(axis=0)
    cell = np.array([ax[1] - ax[0] for ax in sheets[0].axes])
    rng = np.random.default_rng(3)
    probes = np.concatenate([points, points[::3] + 0.37 * cell,
                             lo + (hi - lo) * rng.uniform(-1.0, 2.0, (20, len(lo)))])
    order = rng.permutation(len(probes))
    assert case.startswith("scalar2d-linear") or not problem.data.in_domain(probes).all()
    finite = 0
    for sheet in sheets:
        single = np.array([sheet.branch_fn(M[None])[0] for M in probes])
        assert _same_bits(single[: len(points)], sheet.t), (
            f"{sheet.branch}: probe differs from the grid value")
        assert _same_bits(sheet.branch_fn(probes[order]), single[order]), (
            f"{sheet.branch}: a stacked probe differs from the one-row probes")
        finite += int(np.isfinite(sheet.t).sum())
    assert finite > 0, case


def _same_bits(x, y):
    """x and y hold the same floats bit for bit, NaN at the same places."""
    nan = np.isnan(y)
    return (np.array_equal(np.isnan(x), nan)
            and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


@pytest.mark.parametrize("data", [_C3D_SCALAR_DATA, _C3D_REPEATED_DATA], ids=["distinct", "repeated"])
@pytest.mark.parametrize("grid_num", [7, 11, 21])
def test_scalar3d_separable_t_star_is_the_closed_form(data, grid_num):
    """A = -0.3 I on separable data with a tanh component (mu 0.8, kappa
    0.9): a blow-up time is t = -log1p(-0.3 tau)/0.3 with tau an eigenvalue
    of -J, and the sheet's extremum tau = 1/(kappa mu) sits on the grid node
    M = mu, so t* = -log1p(-0.3/(0.9*0.8))/0.3 is reported bit for bit at
    every grid, as is the tau0 certificate's sup A*tau = -5/12."""
    problem = make_problem(-0.3 * np.eye(3), *data, grid_num=grid_num)
    sheets, lines = blowup.build_sheets(problem, grid_num=grid_num)
    ext = blowup.min_blowup_time(problem, sheets)
    assert ext.t_star == -np.log1p(-0.3 / (0.9 * 0.8)) / 0.3
    assert ext.t_star == 1.7966550024422898
    assert lines[0].startswith("certificate[tau0]: NotAbsent (A*tau(M) = -0.416666666667 >= -1")


def test_scalar3d_repeated_eigenvalue_stays_real():
    """Separable data has a diagonal J, so the roots tau of det(tau I + J) are
    the sorted diagonal of -J.  Every sheet stores exactly those, so where the
    two tanh components meet (M1 = M2, an exact double root) the middle sheet
    keeps its real tau: a root finder that split the double root into a
    complex pair left NaN there."""
    problem = make_problem(-0.3 * np.eye(3), *_C3D_REPEATED_DATA, grid_num=7)
    sheets = blowup.sheets_diag(problem)
    pts = sheets[0].points
    assert problem.data.in_domain(pts).all()
    J = problem.data.phi_jacobian(pts)
    diag = np.diagonal(J, axis1=1, axis2=2)
    assert np.array_equal(J, diag[:, :, None] * np.eye(3))
    ref = np.sort(-diag, axis=1)
    for k, sheet in enumerate(sheets):
        assert np.array_equal(sheet.tau, ref[:, k]), sheet.branch
        assert np.array_equal(sheet.t, blowup._time_from_tau(-0.3, ref[:, k]), equal_nan=True)
    double = pts[:, 0] == pts[:, 1]
    assert double.sum() == 49
    assert int(np.isfinite(sheets[1].t[double]).sum()) == 35
