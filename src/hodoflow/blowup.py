"""Gradient-catastrophe (blow-up) surfaces of the implicit solution.

The spatial gradient of the solved field is K^{-1} with

    K(t, M) = A^{-1}(1 - e^{-tA}) + (d phi/dM) e^{-tA}

so the solution blows up exactly where det K = 0, equivalently (multiplying by
det e^{tA}) where

    blowup_residual(t, M) = det( phi1(A,t) + d(phi)/dM ) = 0.

For the force matrices treated here this transcendental condition reduces to
algebra in one scalar:

* 1D:             t = log(1 - A phi'(M)) / A, real iff A phi'(M) < 1
* A = a*Id:       det(tau*Id + J) = 0 with tau = (e^{at}-1)/a  (polynomial)
* elliptic 2x2:   trace A = 0 and det A = lam^2 > 0 (the coriolis2d and
                  periodic2d presets), so A^2 = -lam^2 I and
                  a sin(lam t) + b cos(lam t) + c = 0 with (a,b,c) from A and J;
                  the first positive root in closed form (coriolis2d_first_time)
* A = diag(a1,a2): exponential polynomial in tau = e^{t a2/q} when a1/a2 = p/q

Everything else (an irrational ratio a1/a2, the rotated rank-deficient 3D
force) goes through the one residual scan, scan_roots: a sign scan over one
phi1 table (matops.phi1_table), each bracket refined by safeguarded Newton on
the exact t-derivative, which needs no further matrix function because
d/dt phi1(A, t) = e^{tA} = I + A phi1(A, t).  build_sheets picks the sheet
routine from the structure of A; every closed-form sheet is one stacked
phi_jacobian over its grid.

A *sheet* is one root branch sampled over a grid in M-space; absent entries
(no real root) record the violated reality condition.  min_blowup_time picks
the catastrophe: the infimum of positive blow-up times over all sheets,
re-checked against blowup_residual for the actual A before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import matops
from .errors import (
    BlowupVerificationError,
    ConfigError,
    DegenerateMatrixError,
    OverflowMatrixError,
)
from .hodograph import hodograph_position, u_from_M

#: imaginary-part tolerance for accepting a polynomial root as real
_IMAG_TOL = 1e-9
#: residual tolerance for accepting a candidate blow-up time
_TIME_RESIDUAL_TOL = 1e-9
#: scan_roots stops refining a bracket once the Newton step or the bracket is this short
_ROOT_TOL = 1e-12
#: Newton iterations per bracket before scan_roots settles for the bracket midpoint
_ROOT_MAX_ITER = 100


@dataclass
class BlowupSheet:
    """One root branch of the blow-up condition over an M-grid.

    t holds NaN where the branch has no real time; absent_reason says which
    reality condition failed.  branch_fn re-evaluates the branch at an
    off-grid M (used by the extremum refinement), tau holds the pre-time-map
    root values for the diagonal machinery.
    """

    branch: str
    axes: list
    points: np.ndarray
    t: np.ndarray
    tau: np.ndarray | None = None
    absent_reason: str = ""
    branch_fn: Callable | None = field(default=None, repr=False)

    @property
    def absent(self):
        return ~np.isfinite(self.t)

    def finite_positive(self):
        return np.isfinite(self.t) & (self.t > 1e-12)


@dataclass
class CoriolisABC:
    """Coefficients of a sin(lam t) + b cos(lam t) + c = lam^2 * blow-up residual;
    floats, or arrays of one shape."""

    a: float
    b: float
    c: float


@dataclass
class Certificate:
    certified: bool
    reason: str
    worst_M: np.ndarray | None
    value: float


@dataclass
class BlowupExtremum:
    t_star: float
    M_star: np.ndarray
    x_star: np.ndarray
    u_star: np.ndarray
    branch: str


@dataclass
class NoBlowup:
    reason: str


def blowup_residual(problem, t, M):
    """det(phi1(A,t) + d(phi)/dM); zero on the blow-up set."""
    M = np.atleast_1d(np.asarray(M, dtype=float))
    P1 = matops.phi1(problem.spec.A, t)
    return float(np.linalg.det(P1 + problem.data.phi_jacobian(M)))


def _scan_table(A, t_grid):
    """matops.phi1_table over a scan grid; OverflowMatrixError if any row is not finite."""
    table = matops.phi1_table(A, t_grid)
    if not np.all(np.isfinite(table)):
        raise OverflowMatrixError(
            f"phi1 overflowed on the scan grid [{t_grid[0]!r}, {t_grid[-1]!r}]"
        )
    return table


def _refine_root(A, J, lo, hi, flo, fhi):
    """Root of f(t) = det(phi1(A, t) + J) in a bracket with f(lo) f(hi) < 0.

    Safeguarded Newton from the regula-falsi point, one phi1 per step.  With
    K = phi1 + J, f'(t) = sum_j det(K with column j replaced by column j of
    e^{tA} = I + A phi1), one stacked det.  Each step shrinks the bracket by
    the sign of f; a Newton step that leaves the open bracket is replaced by
    its midpoint.  Returns the Newton iterate once the step is <= _ROOT_TOL,
    the bracket midpoint once the bracket is, or t itself where f is exactly 0.
    """
    n = J.shape[0]
    cols = np.arange(n)
    t = lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(_ROOT_MAX_ITER):
        P1 = matops.phi1(A, t)
        K = P1 + J
        f = float(np.linalg.det(K))
        if f == 0.0:
            return float(t)
        if flo * f < 0.0:
            hi = t
        else:
            lo, flo = t, f
        Kj = np.repeat(K[None], n, axis=0)
        Kj[cols, :, cols] = (np.eye(n) + A @ P1).T
        df = float(np.linalg.det(Kj).sum())
        step = f / df if df != 0.0 else np.inf
        if abs(step) <= _ROOT_TOL:
            return float(t - step)
        if hi - lo <= _ROOT_TOL:
            break
        t = t - step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    return float(0.5 * (lo + hi))


def scan_roots(A, t_grid, P1_tab, J):
    """Roots of det(phi1(A, t) + J) on t_grid, yielded in increasing t.

    P1_tab[i] = phi1(A, t_grid[i]); the scan values are one stacked
    det(P1_tab + J).  A value of exactly 0 at a grid node is a root; a strict
    sign change between neighbours is refined by _refine_root (safeguarded
    Newton on the blow-up residual itself) to 1e-12.
    """
    vals = np.linalg.det(P1_tab + J)
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        if vals[i] == 0.0:
            yield float(t_grid[i])
            continue
        yield _refine_root(A, J, t_grid[i], t_grid[i + 1], vals[i], vals[i + 1])


def _time_from_tau(a, tau):
    """Map root values tau = (e^{at}-1)/a to times; NaN where 1 + a*tau <= 0."""
    tau = np.asarray(tau, dtype=float)
    if a == 0.0:
        return tau.copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        arg = a * tau
        t = np.where(arg > -1.0, np.log1p(np.maximum(arg, -1.0 + 1e-300)) / a, np.nan)
    return t


def _grid_points(data, M_grid, num):
    axes = data.m_grids(num) if M_grid is None else [np.asarray(g, dtype=float) for g in M_grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return axes, pts


def sheet_1d(problem, M_grid=None):
    """The single 1D blow-up sheet t(M) = log(1 - A phi'(M))/A over an M-grid."""
    data = problem.data
    a = float(problem.spec.A[0, 0])
    axes, pts = _grid_points(data, None if M_grid is None else [M_grid], problem.grid_num)
    tau = -data.phi_jacobian(pts)[:, 0, 0]
    t = _time_from_tau(a, tau)

    def branch_fn(M):
        return float(_time_from_tau(a, -data.phi_jacobian(np.atleast_1d(M))[0, 0]))

    return BlowupSheet(
        branch="1d",
        axes=axes,
        points=pts,
        t=t,
        tau=tau,
        absent_reason="A*phi'(M) >= 1 (no real blow-up time)",
        branch_fn=branch_fn,
    )


def _golden_min(f, a, b, tol=1e-12, max_iter=200):
    """Plain golden-section minimization on [a, b]; returns (x, f(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if (b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def certify_no_blowup_1d(problem, num=2001):
    """Global no-blow-up certificate for 1D: A phi'(M) >= 1 on the whole domain.

    Minimizes s(M) = A*phi'(M) by dense grid plus golden-section refinement;
    Certified iff the minimum exceeds 1 (then 1 - A phi' <= 0 everywhere and
    the log in the sheet formula never has a positive argument).
    """
    data = problem.data
    a = float(problem.spec.A[0, 0])
    grid = data.m_grids(num)[0]
    vals = a * data.phi_jacobian(grid[:, None])[:, 0, 0]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    f = lambda m: a * data.phi_jacobian(np.array([m]))[0, 0]
    m_star, v_star = _golden_min(f, lo, hi)
    if vals[i] < v_star:
        m_star, v_star = grid[i], vals[i]
    certified = bool(v_star > 1.0)
    reason = (f"min over M of A*phi'(M) = {v_star:.12g} > 1: no real blow-up time" if certified
              else f"A*phi'(M) = {v_star:.12g} <= 1 at M = {m_star:.12g}")
    return Certificate(certified, reason, np.array([m_star]), float(v_star))


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
    real = roots[np.abs(roots.imag) <= _IMAG_TOL * np.maximum(1.0, np.abs(roots.real))]
    return np.sort(real.real)


def sheets_diag(problem, M_grid=None):
    """Blow-up sheets for A = a*Id: roots of det(tau*Id + J_phi(M)) = 0.

    Returns n sheets labelled tau0 < tau1 < ... (roots sorted ascending per
    grid point); complex pairs and grid points outside the domain leave NaN
    gaps.  Works for a = 0, where the time map is the identity t = tau.
    """
    spec, data = problem.spec, problem.data
    a = matops.scalar_multiple(spec.A)
    if a is None:
        raise ValueError("sheets_diag needs A to be a scalar multiple of the identity")
    n = spec.n
    axes, pts = _grid_points(data, M_grid, problem.grid_num)
    taus = np.full((pts.shape[0], n), np.nan)
    inside = np.flatnonzero(data.in_domain(pts))
    J = data.phi_jacobian(pts[inside])
    if n == 2:
        # det(tau*I + J) = tau^2 + tr(J) tau + det(J), vectorized over the grid
        tr = J[:, 0, 0] + J[:, 1, 1]
        dt = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        disc = tr * tr - 4.0 * dt
        ok = disc >= -_IMAG_TOL * np.maximum(1.0, tr * tr)
        root = np.sqrt(np.maximum(disc, 0.0))
        taus[inside[ok], 0] = 0.5 * (-tr[ok] - root[ok])
        taus[inside[ok], 1] = 0.5 * (-tr[ok] + root[ok])
    else:
        for i, Ji in zip(inside, J):
            rr = _real_roots_poly(np.poly(-Ji))
            taus[i, : min(n, rr.size)] = rr[:n]

    def make_branch_fn(idx):
        def branch_fn(M):
            M = np.atleast_1d(M)
            if not data.in_domain(M):
                return np.nan
            rr = _real_roots_poly(np.poly(-data.phi_jacobian(M)))
            if idx >= rr.size:
                return np.nan
            return float(_time_from_tau(a, rr[idx]))

        return branch_fn

    sheets = []
    for k in range(n):
        sheets.append(
            BlowupSheet(
                branch=f"tau{k}",
                axes=axes,
                points=pts,
                t=_time_from_tau(a, taus[:, k]),
                tau=taus[:, k],
                absent_reason="complex root pair or 1 + a*tau <= 0",
                branch_fn=make_branch_fn(k),
            )
        )
    return sheets


def _elliptic_lambda(A):
    """lam = sqrt(det A) for a 2x2 A with trace exactly 0 and det A > 0, else None.

    Then A^2 = -lam^2 I (Cayley-Hamilton); A = w [[0, 1], [-1, 0]] gives lam = |w|.
    """
    if A.shape != (2, 2) or A[0, 0] + A[1, 1] != 0.0:
        return None
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return float(np.sqrt(det)) if det > 0.0 else None


def _coriolis_abc(A, lam, J):
    """(a, b, c) of coriolis2d_abc for one Jacobian (2, 2) or a stack (k, 2, 2)."""
    J11, J12, J21, J22 = J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1]
    # tr(adj(J) A) for A = p diag(1, -1) + s [[0, 1], [-1, 0]] + d [[0, 1], [1, 0]];
    # a rotation w [[0, 1], [-1, 0]] has p = d = 0, leaving the one product w (J12 - J21)
    p, s, d = A[0, 0], 0.5 * (A[0, 1] - A[1, 0]), 0.5 * (A[0, 1] + A[1, 0])
    a = lam * (J11 + J22)
    b = -2.0 - (p * (J22 - J11) + s * (J12 - J21) - d * (J12 + J21))
    c = -b + lam * lam * (J11 * J22 - J12 * J21)
    return a, b, c


def coriolis2d_abc(problem, M):
    """Trig coefficients of the elliptic 2x2 blow-up condition at M.

    For trace A = 0 and det A = lam^2 > 0, phi1(A, t) = sin(lam t)/lam I +
    (1 - cos(lam t))/lam^2 A, and with J = d(phi)/dM
        a = lam tr J,  b = -2 - tr(adj(J) A),  c = -b + lam^2 det J
    so that lam^2 * blowup_residual(t, M) = a sin(lam t) + b cos(lam t) + c.
    """
    lam = _elliptic_lambda(problem.spec.A)
    if lam is None:
        raise ValueError("coriolis2d_abc needs a 2x2 A with trace 0 and det A > 0")
    a, b, c = _coriolis_abc(problem.spec.A, lam, problem.data.phi_jacobian(np.atleast_1d(M)))
    return CoriolisABC(a=float(a), b=float(b), c=float(c))


def coriolis2d_first_time(abc, lam):
    """First t > 1e-12 with a sin(lam t) + b cos(lam t) + c = 0, or NaN if none.

    a, b, c are floats, or arrays of one shape evaluated elementwise; lam > 0.
    With theta = lam t, a sin(theta) + b cos(theta) = R sin(theta + phi) for
    R = hypot(a, b) and phi = atan2(b, a), so the roots are theta = alpha - phi
    and pi - alpha - phi (mod 2 pi), alpha = arcsin(-c/R); there is no real
    root when R < |c| or R = 0.  Each returned time is re-verified against the
    trig equation to 1e-10.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (abc.a, abc.b, abc.c))
    R = np.hypot(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arctan2(b, a)
        alpha = np.arcsin(-c / R)
        theta = np.mod([alpha - phi, np.pi - alpha - phi], 2.0 * np.pi)
        theta[theta <= 1e-12 * lam] += 2.0 * np.pi
        t = theta.min(axis=0) / lam
        scale = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(abs(c), 1.0))
        miss = abs(a * np.sin(lam * t) + b * np.cos(lam * t) + c)
    t = np.where((R != 0.0) & (R >= abs(c)) & (miss <= 1e-10 * scale), t, np.nan)
    return float(t) if t.ndim == 0 else t


def sheets_coriolis2d(problem, M_grid=None):
    """First-positive-time blow-up sheet for an elliptic 2x2 A (trace 0, det > 0).

    One sheet: coriolis2d_first_time of the trig condition, from one stacked
    phi_jacobian over the in-domain grid points (NaN outside the domain or
    where there is no real root); branch_fn is the same evaluation at one M.
    """
    A, data = problem.spec.A, problem.data
    lam = _elliptic_lambda(A)
    if lam is None:
        raise ValueError("sheets_coriolis2d needs a 2x2 A with trace 0 and det A > 0")
    axes, pts = _grid_points(data, M_grid, problem.grid_num)

    def first_times(M):
        abc = CoriolisABC(*_coriolis_abc(A, lam, data.phi_jacobian(M)))
        return coriolis2d_first_time(abc, lam)

    def first_positive(M):
        M = np.atleast_1d(M)
        return first_times(M) if data.in_domain(M) else np.nan

    inside = data.in_domain(pts)
    t = np.full(len(pts), np.nan)
    t[inside] = first_times(pts[inside])
    return [
        BlowupSheet(
            branch="coriolis_first",
            axes=axes,
            points=pts,
            t=t,
            absent_reason="a^2 + b^2 < c^2: no real root of a sin(wt) + b cos(wt) + c",
            branch_fn=first_positive,
        )
    ]


def _domain_edges(data, axes, points, inside, steps=60):
    """In-domain points next to the domain edge, one on each grid segment that
    crosses it: the segment's in-domain end, moved by bisection (steps halvings)
    to within its length / 2^steps of the edge."""
    shape = [ax.size for ax in axes]
    grid = points.reshape(*shape, -1)
    inside = inside.reshape(shape)
    lo, hi = [], []
    for j in range(len(shape)):
        first = tuple(slice(None, -1) if i == j else slice(None) for i in range(len(shape)))
        second = tuple(slice(1, None) if i == j else slice(None) for i in range(len(shape)))
        flip = inside[first] != inside[second]
        a_in = inside[first][flip][:, None]
        pa, pb = grid[first][flip], grid[second][flip]
        lo.append(np.where(a_in, pa, pb))
        hi.append(np.where(a_in, pb, pa))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ins = data.in_domain(mid)
        lo[ins], hi[~ins] = mid[ins], mid[~ins]
    return lo


def certify_coriolis_absent(problem, sheet):
    """Absence certificate for the elliptic 2x2 sheet (sheets_coriolis2d).

    a sin(lam t) + b cos(lam t) + c has no real root at M iff a^2 + b^2 - c^2
    < 0 there, so the sheet is absent everywhere iff that margin stays below 0
    on the whole domain.  Its sup is taken over the in-domain grid points and
    the points where the grid lines meet the domain edge, then golden-refined
    per coordinate (sheet_extremum); Certified iff the sup is below 0.
    """
    A, data = problem.spec.A, problem.data
    lam = _elliptic_lambda(A)
    if lam is None:
        raise ValueError("certify_coriolis_absent needs a 2x2 A with trace 0 and det A > 0")

    def margin(M):
        with np.errstate(all="ignore"):
            a, b, c = _coriolis_abc(A, lam, data.phi_jacobian(M))
        return np.where(data.in_domain(M), a * a + b * b - c * c, np.nan)

    inside = data.in_domain(sheet.points)
    pts = np.concatenate([sheet.points[inside],
                          _domain_edges(data, sheet.axes, sheet.points, inside)])
    samples = BlowupSheet(branch="margin", axes=sheet.axes, points=pts, t=margin(pts),
                          branch_fn=lambda M: float(margin(M[None])[0]))
    found = sheet_extremum(samples, mode="max")
    if found is None:
        return Certificate(False, "no in-domain M with a finite a^2 + b^2 - c^2", None, np.nan)
    sup, worst = found
    certified = sup < 0.0
    reason = (f"sup over M of a^2 + b^2 - c^2 = {sup:.12g} < 0: "
              "no real root of a sin(wt) + b cos(wt) + c" if certified
              else f"a^2 + b^2 - c^2 = {sup:.12g} >= 0 at M = {worst!r}")
    return Certificate(certified, reason, worst, sup)


def _rationalize(r, max_denominator=64, tol=1e-9):
    fr = Fraction(r).limit_denominator(max_denominator)
    if abs(float(fr) - r) <= tol * max(1.0, abs(r)):
        return fr
    return None


def sheets_diag2(problem, M_grid=None, t_max=10.0, scan_step=1e-2):
    """Blow-up sheets for A = diag(a1, a2) in two dimensions.

    When a1/a2 is rational p/q (continued-fraction reconstruction, denominator
    <= 64) and the resulting polynomial in tau = e^{t a2 / q},

        tau^{p+q} + K1 tau^p + K2 tau^q + K3 = 0,
        K1 = a2 J22 - 1,  K2 = a1 J11 - 1,  K3 = 1 - a1 J11 - a2 J22 + a1 a2 det J,

    has degree <= 6, roots come from the companion matrix, and every candidate
    time is re-verified against blowup_residual to 1e-9.  Otherwise each grid
    point is scanned on [-t_max, t_max] with the given step by scan_roots,
    with J = d(phi)/dM evaluated once per point, phi1 tabulated once over the
    scan grid (entrywise, A being diagonal) and every bracket refined by
    Newton.  A must be exactly diagonal; a1 = a2 delegates to sheets_diag.
    """
    spec, data = problem.spec, problem.data
    A = spec.A
    if A.shape != (2, 2) or not matops.is_exact_diagonal(A):
        raise ValueError("sheets_diag2 needs A = diag(a1, a2)")
    a1, a2 = float(A[0, 0]), float(A[1, 1])
    if a1 == a2:
        return sheets_diag(problem, M_grid)
    if a1 == 0.0 or a2 == 0.0:
        raise DegenerateMatrixError("diag(a1, a2) with a zero entry is rank-deficient")

    frac = _rationalize(a1 / a2)
    use_poly = False
    if frac is not None:
        p, q = frac.numerator, frac.denominator
        exps = np.array([p + q, p, q, 0])
        shift = -min(exps.min(), 0)
        degree = int(exps.max() + shift)
        use_poly = degree <= 6 and degree >= 1

    axes, pts = _grid_points(data, M_grid, problem.grid_num)

    def times_poly(M):
        J = data.phi_jacobian(M)
        detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        K1 = a2 * J[1, 1] - 1.0
        K2 = a1 * J[0, 0] - 1.0
        K3 = 1.0 - a1 * J[0, 0] - a2 * J[1, 1] + a1 * a2 * detJ
        coeffs = np.zeros(degree + 1)
        for e, K in zip(exps + shift, (1.0, K1, K2, K3)):
            coeffs[degree - int(e)] += K
        out = []
        scale = max(1.0, abs(detJ))
        for tau in _real_roots_poly(coeffs):
            if tau <= 0.0:
                continue
            ti = (q / a2) * np.log(tau)
            if abs(blowup_residual(problem, ti, M)) <= _TIME_RESIDUAL_TOL * scale:
                out.append(float(ti))
        return sorted(out)

    if not use_poly:
        t_grid = np.arange(-t_max, t_max + scan_step, scan_step)
        P1_tab = _scan_table(A, t_grid)

    def times_scan(M):
        return list(scan_roots(A, t_grid, P1_tab, data.phi_jacobian(M)))

    times_of = times_poly if use_poly else times_scan

    all_times = [times_of(p) if data.in_domain(p) else [] for p in pts]
    n_sheets = max((len(ts) for ts in all_times), default=0)
    sheets = []
    for k in range(n_sheets):
        tk = np.array([ts[k] if k < len(ts) else np.nan for ts in all_times])

        def make_fn(idx):
            def branch_fn(M):
                M = np.atleast_1d(M)
                if not data.in_domain(M):
                    return np.nan
                ts = times_of(M)
                return ts[idx] if idx < len(ts) else np.nan

            return branch_fn

        sheets.append(
            BlowupSheet(
                branch=f"t{k}",
                axes=axes,
                points=pts,
                t=tk,
                absent_reason="no real root of the exponential polynomial"
                if use_poly
                else f"no sign change of the residual on [{-t_max}, {t_max}]",
                branch_fn=make_fn(k),
            )
        )
    return sheets


def sheets_first_root(problem, M_grid=None, t_max=10.0, scan_step=5e-2, branch="first_root"):
    """First-positive-time blow-up sheet for any force matrix A.

    One sheet: per grid point, the smallest t > 0 among the scan_roots of
    det(phi1(A, t) + d(phi)/dM) on the grid 0, scan_step, 2 scan_step, ...,
    t_max (NaN outside the domain or where no root is found).  One phi1 table
    per call serves every grid point and every branch_fn probe; each bracket
    up to the first positive root is refined by Newton, one phi1 per step.
    """
    A, data = problem.spec.A, problem.data
    axes, pts = _grid_points(data, M_grid, problem.grid_num)
    t_grid = np.concatenate([[0.0], np.arange(scan_step, t_max + scan_step, scan_step)])
    P1_tab = _scan_table(A, t_grid)

    def first_positive(M):
        M = np.atleast_1d(M)
        if not data.in_domain(M):
            return np.nan
        roots = scan_roots(A, t_grid, P1_tab, data.phi_jacobian(M))
        return next((t for t in roots if t > 0.0), np.nan)

    return [
        BlowupSheet(
            branch=branch,
            axes=axes,
            points=pts,
            t=np.array([first_positive(p) for p in pts]),
            absent_reason=f"no sign change of the residual on [0, {t_max}]",
            branch_fn=first_positive,
        )
    ]


def sheet_extremum(sheet, mode="min", positive_only=False):
    """Grid extremum of a sheet's time values, golden-refined via branch_fn.

    Returns (t_extreme, M_at).  positive_only restricts to t > 0 entries.
    """
    t = sheet.t.copy()
    if positive_only:
        t[~sheet.finite_positive()] = np.nan
    if not np.any(np.isfinite(t)):
        return None
    sign = 1.0 if mode == "min" else -1.0
    vals = np.where(np.isfinite(t), sign * t, np.inf)
    i0 = int(np.argmin(vals))
    M0 = sheet.points[i0].copy()
    t0 = float(t[i0])
    if sheet.branch_fn is None:
        return t0, M0
    spacing = [float(ax[1] - ax[0]) if ax.size > 1 else 1.0 for ax in sheet.axes]
    bounds = [(ax[0], ax[-1]) for ax in sheet.axes]

    def f(Mv):
        ti = sheet.branch_fn(Mv)
        if ti is None or not np.isfinite(ti) or (positive_only and ti <= 0.0):
            return np.inf
        return sign * ti

    M = M0.copy()
    best = sign * t0
    for _ in range(40):
        improved = False
        for j in range(M.size):
            lo = max(bounds[j][0], M[j] - spacing[j])
            hi = min(bounds[j][1], M[j] + spacing[j])

            def f1(v, jj=j):
                Mv = M.copy()
                Mv[jj] = v
                return f(Mv)

            v_star, fv = _golden_min(f1, lo, hi, tol=1e-11)
            if fv < best - 1e-14:
                M[j] = v_star
                best = fv
                improved = True
        if not improved:
            break
    if not np.isfinite(best):
        return t0, M0
    return float(sign * best), M


def certify_branch_absent(problem, sheet):
    """Absence certificate for one diagonal-machinery sheet.

    The branch has no real time anywhere iff 1 + a*tau(M) <= 0 on the whole
    domain, i.e. sup_M a*tau(M) <= -1.  Needs the sheet's tau samples.
    """
    a = matops.scalar_multiple(problem.spec.A)
    if a is None or sheet.tau is None:
        raise ValueError("absence certificate needs A = a*Id and tau samples")
    vals = a * sheet.tau
    finite = np.isfinite(vals)
    if not np.any(finite):
        return Certificate(False, "no tau samples", None, np.nan)
    i0 = int(np.nanargmax(np.where(finite, vals, -np.inf)))
    sup = float(vals[i0])
    worst = sheet.points[i0].copy()
    certified = sup < -1.0
    reason = (f"sup over M of A*tau(M) = {sup:.12g} < -1: reality condition "
              "1 + A*tau > 0 violated everywhere on the branch" if certified
              else f"A*tau(M) = {sup:.12g} >= -1 at M = {worst!r}")
    return Certificate(certified, reason, worst, sup)


def min_blowup_time(problem, sheets):
    """Catastrophe record: infimum of positive blow-up times over all sheets.

    Grid minimum refined by per-coordinate golden-section descent on the
    owning branch; returns NoBlowup when no sheet has a positive time on its
    grid.  The reported (t*, M*) must satisfy

        |blowup_residual(t*, M*)| <= 1e-9 * max(1, |phi1(A, t*)|_F, |J(M*)|_F)^n

    for the actual A, else BlowupVerificationError.
    """
    if isinstance(sheets, BlowupSheet):
        sheets = [sheets]
    best = None
    for sheet in sheets:
        res = sheet_extremum(sheet, mode="min", positive_only=True)
        if res is None:
            continue
        t_s, M_s = res
        if best is None or t_s < best[0]:
            best = (t_s, M_s, sheet.branch)
    if best is None:
        return NoBlowup(reason="no positive root on the M-grid")
    t_star, M_star, branch = best
    _verify_blowup_time(problem, t_star, M_star)
    return BlowupExtremum(
        t_star=float(t_star),
        M_star=M_star,
        x_star=hodograph_position(problem, t_star, M_star),
        u_star=u_from_M(problem.spec, t_star, M_star),
        branch=branch,
    )


def _verify_blowup_time(problem, t_star, M_star):
    """BlowupVerificationError unless (t_star, M_star) is a root of the residual."""
    res = blowup_residual(problem, t_star, M_star)
    scale = max(
        1.0,
        float(np.linalg.norm(matops.phi1(problem.spec.A, t_star))),
        float(np.linalg.norm(problem.data.phi_jacobian(np.atleast_1d(M_star)))),
    ) ** problem.spec.n
    if not abs(res) <= _TIME_RESIDUAL_TOL * scale:
        raise BlowupVerificationError(
            f"blow-up time t*={t_star!r} at M*={M_star!r} fails the re-check: "
            f"residual {res:.3e} exceeds {_TIME_RESIDUAL_TOL * scale:.3e}"
        )


def build_sheets(problem, grid_num=None, t_max=10.0):
    """Blow-up sheets dispatched on the structure of A, with certificate lines.

    1D goes to sheet_1d plus the global certificate; A = a*Id to sheets_diag
    plus a per-sheet absence certificate; an elliptic 2x2 A (trace exactly 0,
    det A > 0: the coriolis2d and periodic2d presets) to sheets_coriolis2d (a
    sheet with no root on its grid gets certify_coriolis_absent); an exactly
    diagonal 2x2 A to sheets_diag2 up to t_max.  The per-axis M-grid size is
    grid_num, else the data family's default.  Returns (sheets,
    certificate_lines); any other A raises ConfigError.
    """
    A, n = problem.spec.A, problem.spec.n
    grids = problem.data.m_grids(grid_num) if grid_num else problem.data.m_grids()
    cert_lines = []
    if n == 1:
        sheets = [sheet_1d(problem, M_grid=grids[0])]
        cert = certify_no_blowup_1d(problem)
        word = "Certified" if cert.certified else "NotCertified"
        cert_lines.append(f"certificate: {word} ({cert.reason})")
    elif matops.scalar_multiple(A) is not None:
        sheets = sheets_diag(problem, M_grid=grids)
        for sheet in sheets:
            cert = certify_branch_absent(problem, sheet)
            word = "Absent" if cert.certified else "NotAbsent"
            cert_lines.append(f"certificate[{sheet.branch}]: {word} ({cert.reason})")
    elif _elliptic_lambda(A) is not None:
        sheets = sheets_coriolis2d(problem, M_grid=grids)
        if np.all(sheets[0].absent):
            cert = certify_coriolis_absent(problem, sheets[0])
            word = "Absent everywhere" if cert.certified else "NotCertified"
            cert_lines.append(f"certificate[{sheets[0].branch}]: {word} ({cert.reason})")
    elif n == 2 and matops.is_exact_diagonal(A):
        sheets = sheets_diag2(problem, M_grid=grids, t_max=t_max)
    else:
        raise ConfigError(
            "blowup scan needs A scalar, 1D, 2x2 diagonal, or 2x2 elliptic (trace 0, det > 0); "
            "use the coriolis3d command for the rotating 3D preset"
        )
    return sheets, cert_lines
