"""Gradient-catastrophe (blow-up) surfaces of the implicit solution.

The spatial gradient of the solved field is K^{-1} with

    K(t, M) = A^{-1}(1 - e^{-tA}) + (d phi/dM) e^{-tA}

so the solution blows up exactly where det K = 0, equivalently (multiplying by
det e^{tA}) where

    blowup_residual(t, M) = det( phi1(A,t) + d(phi)/dM ) = 0.

A *sheet* is one root branch of this condition sampled over a grid in M-space.
Every sheet comes from the one constructor _stacked_sheets: it builds the
grid, masks it with one data.in_domain call, evaluates the builder's root
function once over the in-domain (k, n) stack (one column per branch,
NaN-padded), applies the builder's time map, and gives each sheet a branch_fn
that is the same evaluation on a one-row stack, so a probe at a grid point
returns the stored value bit for bit.  A builder is its root function:

* 1D (sheet_1d):        t = log(1 - A phi'(M)) / A, real iff A phi'(M) < 1
* A = a*Id (sheets_diag): det(tau*Id + J) = 0 with tau = (e^{at}-1)/a
                        (a quadratic for n = 2, the characteristic polynomial
                        otherwise)
* elliptic 2x2 (sheets_coriolis2d): trace A = 0 and det A = lam^2 > 0 (the
                        coriolis2d and periodic2d presets), so A^2 = -lam^2 I
                        and a sin(lam t) + b cos(lam t) + c = 0 with (a,b,c)
                        from A and J; the first positive root in closed form
                        (coriolis2d_first_time)
* any other A, singular ones and n >= 3 included (sheets_scan): the roots of
                        the residual scan scan_roots, a sign scan over one
                        phi1 table (matops.phi1_table), each bracket refined
                        by safeguarded Newton on the exact t-derivative
                        d/dt phi1(A, t) = e^{tA} = I + A phi1(A, t), both
                        from one matops.phi1_exp evaluator per scan;
                        the first positive root on (0, t_max] or every root on
                        [-t_max, t_max] (sheets_diag2, for any A = diag(a1, a2)
                        that is not a*Id).

build_sheets picks the builder from the structure of A; no A is refused.
Absent entries (no real root) record the violated reality condition.
min_blowup_time picks the catastrophe: the infimum of positive blow-up times
over all sheets, re-checked against blowup_residual for the actual A before
it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matops
from .errors import BlowupVerificationError, ConfigError, OverflowMatrixError
from .hodograph import hodograph_position, u_from_M
from .model import Constant

#: imaginary-part tolerance for accepting a polynomial root as real
_IMAG_TOL = 1e-9
#: residual tolerance for accepting a candidate blow-up time
_TIME_RESIDUAL_TOL = 1e-9
#: scan_roots stops refining a bracket once the Newton step or the bracket is this short
_ROOT_TOL = 1e-12
#: Newton iterations per bracket before scan_roots settles for the bracket midpoint
_ROOT_MAX_ITER = 100
#: most matrix entries a sheets_scan phi1 table may take: nodes * n^2 for an
#: exactly diagonal A, nodes * (2n)^2 for the augmented exponential of any other
#: (10^6 nodes of a diagonal 2x2); past it the run is refused, not tabulated.
#: An M-grid's mesh (points * n entries) has the same cap
_SCAN_MAX_ENTRIES = 4 * 10**6
#: Newton steps sheet_extremum takes from the grid extremum before it settles
_EXTREMUM_STEPS = 20


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


def _refine_root(phi1_exp, J, lo, hi, flo, fhi):
    """Root of f(t) = det(phi1(A, t) + J) in a bracket with f(lo) f(hi) < 0.

    Safeguarded Newton from the regula-falsi point, one phi1_exp(t) =
    (phi1(A, t), e^{tA}) per step (the matops.phi1_exp evaluator of A).  With
    K = phi1 + J, f'(t) = sum_j det(K with column j replaced by column j of
    e^{tA}); f and those n determinants are one matops.det over one (n+1,
    n, n) array, filled afresh each step.  Each step shrinks the bracket by
    the sign of f; a Newton step that leaves the open bracket is replaced by
    its midpoint.  Returns the Newton iterate once the step is <= _ROOT_TOL,
    the bracket midpoint once the bracket is, or t itself where f is exactly 0.
    """
    n = J.shape[0]
    cols = np.arange(n)
    rows = cols + 1
    Ks = np.empty((n + 1, n, n))
    t = lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(_ROOT_MAX_ITER):
        P1, E = phi1_exp(t)
        Ks[:] = P1 + J
        Ks[rows, :, cols] = E.T
        dets = matops.det(Ks)
        f = float(dets[0])
        if f == 0.0:
            return float(t)
        if flo * f < 0.0:
            hi = t
        else:
            lo, flo = t, f
        df = float(dets[1:].sum())
        step = f / df if df != 0.0 else np.inf
        if abs(step) <= _ROOT_TOL:
            return float(t - step)
        if hi - lo <= _ROOT_TOL:
            break
        t = t - step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    return float(0.5 * (lo + hi))


def scan_roots(t_grid, P1_tab, J, phi1_exp):
    """Roots of det(phi1(A, t) + J) on t_grid, yielded in increasing t.

    P1_tab[i] = phi1(A, t_grid[i]); the scan values are one stacked
    matops.det(P1_tab + J), the cofactor expansion for n <= 3, whose bits do
    not depend on the stack, so a branch_fn probe rescans a grid point to the
    same roots.  A value of exactly 0 at a grid node is a root; a strict
    sign change between neighbours is refined by _refine_root (safeguarded
    Newton on the blow-up residual itself) to 1e-12, through phi1_exp, the
    matops.phi1_exp(A) evaluator of the A that P1_tab tabulates.
    """
    vals = matops.det(P1_tab + J)
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        if vals[i] == 0.0:
            yield float(t_grid[i])
            continue
        yield _refine_root(phi1_exp, J, t_grid[i], t_grid[i + 1], vals[i], vals[i + 1])


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
    """The grid axes and their (k, n) mesh; a ConfigError naming grid_num when
    the mesh would take more than _SCAN_MAX_ENTRIES entries."""
    axes = data.m_grids(num) if M_grid is None else [np.asarray(g, dtype=float) for g in M_grid]
    points = int(np.prod([ax.size for ax in axes]))
    if points * len(axes) > _SCAN_MAX_ENTRIES:
        raise ConfigError(f"an M-grid of {points:,} points in {len(axes)}D exceeds the "
                          f"{_SCAN_MAX_ENTRIES:,} entries allowed; lower grid_num")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return axes, pts


def _ragged(rows, width=0):
    """The rows as one (len(rows), max(width, longest row)) array, NaN-padded."""
    out = np.full((len(rows), max([width, *map(len, rows)])), np.nan)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _stacked_sheets(problem, M_grid, branch, values, absent_reason, to_time=None):
    """Sheets from one stacked evaluation over an M-grid.

    The grid is M_grid (per-axis arrays), else the data's default grid of
    problem.grid_num points per axis.  values maps an in-domain (k, n) stack
    of M to (k, b) root values, one column per branch, NaN-padded; points
    outside the domain get NaN.  to_time, when given, maps root values to
    times and the raw values are kept as tau.  Sheet k is named
    branch.format(k), and its branch_fn is values and to_time on the one-row
    stack M[None].
    """
    data = problem.data
    axes, pts = _grid_points(data, M_grid, problem.grid_num)
    inside = data.in_domain(pts)
    roots = values(pts[inside])
    tau = np.full((roots.shape[1], len(pts)), np.nan)
    tau[:, inside] = roots.T
    t = tau if to_time is None else to_time(tau)

    def probe(k):
        def branch_fn(M):
            M = np.atleast_1d(np.asarray(M, dtype=float))
            if not data.in_domain(M):
                return np.nan
            row = values(M[None])[0]
            row = row if to_time is None else to_time(row)
            return float(row[k]) if k < row.size else np.nan

        return branch_fn

    return [BlowupSheet(branch.format(k), axes, pts, t[k], None if to_time is None else tau[k],
                        absent_reason, probe(k)) for k in range(len(t))]


def sheet_1d(problem, M_grid=None):
    """The single 1D blow-up sheet t(M) = log(1 - A phi'(M))/A over an M-grid."""
    a = float(problem.spec.A[0, 0])
    (sheet,) = _stacked_sheets(
        problem,
        None if M_grid is None else [M_grid],
        "1d",
        lambda M: -problem.data.phi_jacobian(M)[:, 0],
        "A*phi'(M) >= 1 (no real blow-up time)",
        to_time=lambda tau: _time_from_tau(a, tau),
    )
    return sheet


def certify_no_blowup_1d(problem, num=2001):
    """Global no-blow-up certificate for 1D: A phi'(M) >= 1 on the whole domain.

    Minimizes s(M) = A*phi'(M) over a one-axis sheet of num grid points,
    refined by sheet_extremum's Newton steps; Certified iff the minimum
    exceeds 1 (then 1 - A phi' <= 0 everywhere and the log in the sheet
    formula never has a positive argument).
    """
    data = problem.data
    a = float(problem.spec.A[0, 0])
    grid = data.m_grids(num)[0]
    slope = lambda M: a * data.phi_jacobian(M)[:, 0, 0]
    samples = BlowupSheet(branch="slope", axes=[grid], points=grid[:, None],
                          t=slope(grid[:, None]), branch_fn=lambda M: float(slope(M[None])[0]))
    v_star, (m_star,) = sheet_extremum(samples)
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
    gaps.  n = 2 is the quadratic tau^2 + tr(J) tau + det(J) over the stack,
    larger n the real roots of each characteristic polynomial.  Works for
    a = 0, where the time map is the identity t = tau.
    """
    spec, data = problem.spec, problem.data
    a = matops.scalar_multiple(spec.A)
    if a is None:
        raise ValueError("sheets_diag needs A to be a scalar multiple of the identity")
    n = spec.n

    def taus(M):
        J = data.phi_jacobian(M)
        if n != 2:
            return _ragged([_real_roots_poly(np.poly(-Ji))[:n] for Ji in J], width=n)
        tr = J[:, 0, 0] + J[:, 1, 1]
        dt = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        disc = tr * tr - 4.0 * dt
        ok = disc >= -_IMAG_TOL * np.maximum(1.0, tr * tr)
        root = np.sqrt(np.maximum(disc, 0.0))
        pair = np.stack([0.5 * (-tr - root), 0.5 * (-tr + root)], axis=1)
        return np.where(ok[:, None], pair, np.nan)

    return _stacked_sheets(problem, M_grid, "tau{}", taus,
                           "complex root pair or 1 + a*tau <= 0",
                           to_time=lambda tau: _time_from_tau(a, tau))


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

    One sheet: coriolis2d_first_time of the trig condition from one stacked
    phi_jacobian (NaN outside the domain or where there is no real root).
    """
    A, data = problem.spec.A, problem.data
    lam = _elliptic_lambda(A)
    if lam is None:
        raise ValueError("sheets_coriolis2d needs a 2x2 A with trace 0 and det A > 0")

    def first_times(M):
        abc = CoriolisABC(*_coriolis_abc(A, lam, data.phi_jacobian(M)))
        return coriolis2d_first_time(abc, lam)[:, None]

    return _stacked_sheets(problem, M_grid, "coriolis_first", first_times,
                           "a^2 + b^2 < c^2: no real root of a sin(wt) + b cos(wt) + c")


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
    the points where the grid lines meet the domain edge, then refined by
    Newton steps on the margin (sheet_extremum); Certified iff the sup is
    below 0.
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


def sheets_diag2(problem, M_grid=None, t_max=10.0, scan_step=1e-2):
    """Blow-up sheets for A = diag(a1, a2) in two dimensions: every root on
    [-t_max, t_max], sheets t0, t1, ..., from sheets_scan with the given step,
    whatever the ratio a1/a2 (rational, irrational, a zero entry or a1 = a2).
    A must be exactly diagonal.
    """
    A = problem.spec.A
    if A.shape != (2, 2) or not matops.is_exact_diagonal(A):
        raise ValueError("sheets_diag2 needs A = diag(a1, a2)")
    return sheets_scan(problem, M_grid, t_max, scan_step, first_only=False, branch="t{}")


def sheets_scan(problem, M_grid=None, t_max=10.0, scan_step=5e-2, first_only=True,
                branch="first_root"):
    """Blow-up sheets of the residual scan, for any force matrix A.

    Per in-domain grid point, the scan_roots of det(phi1(A, t) + d(phi)/dM)
    over one phi1 table and one matops.phi1_exp evaluator, both shared by
    every grid point and every branch_fn probe.
    first_only: one sheet named branch, the smallest t in (0, t_max], scanned
    on the nodes 0, scan_step, 2 scan_step, ..., up to one step past t_max.
    Otherwise every root in [-t_max, t_max], scanned on arange(-t_max, t_max
    + scan_step, scan_step), in increasing t, sheet k named branch.format(k).
    Roots refined past t_max are dropped.  NaN where no root is found.
    A grid whose phi1 table would take more than _SCAN_MAX_ENTRIES matrix
    entries raises ConfigError before anything is tabulated.  The scan stops
    short of the first node on each side of t = 0 where phi1 overflows, and
    the sheets' absent_reason names that node and the lowered horizon;
    OverflowMatrixError is raised only when no finite node past t = 0 is left
    on a side being scanned.  A determinant that leaves the float range is a
    scan value of +-inf or NaN, without a floating-point warning.
    """
    A, data = problem.spec.A, problem.data
    lo = 0 if first_only else -t_max
    start = scan_step if first_only else -t_max
    nodes = first_only + (t_max + scan_step - start) / scan_step
    width = A.shape[0] * (1 if matops.is_exact_diagonal(A) else 2)
    if nodes * width**2 > _SCAN_MAX_ENTRIES:
        raise ConfigError(
            f"blowup scan of t_max {t_max!r} with step {scan_step!r} needs {nodes:,.0f} "
            f"t-nodes of {width}x{width} matrices, more than the {_SCAN_MAX_ENTRIES:,} "
            f"entries allowed; lower t_max (coriolis3d also takes a larger scan_step)")
    t_grid = np.arange(start, t_max + scan_step, scan_step)
    if first_only:
        t_grid = np.concatenate([[0.0], t_grid])
    P1_tab = matops.phi1_table(A, t_grid)
    # the scan stops short of the first overflowing node on each side of t = 0
    over = np.flatnonzero(~np.isfinite(P1_tab).all(axis=(1, 2)))
    below, above = over[t_grid[over] < 0.0], over[t_grid[over] > 0.0]
    i0 = below[-1] + 1 if below.size else 0
    i1 = above[0] if above.size else len(t_grid)
    if not (t_grid[i1 - 1] > 0.0 and (first_only or t_grid[i0] < 0.0)):
        node = float(t_grid[i1] if t_grid[i1 - 1] <= 0.0 else t_grid[i0 - 1])
        raise OverflowMatrixError(
            f"phi1 overflowed at t = {node!r}, the first node of the scan grid "
            f"[{float(t_grid[0])!r}, {float(t_grid[-1])!r}] past t = 0 on its side: no finite "
            f"node is left to scan there")
    reason = f"no sign change of the residual on [{lo}, {t_max}]"
    if over.size:
        edges = " and ".join(repr(float(t)) for t in t_grid[[*below[-1:], *above[:1]]])
        t_grid, P1_tab = t_grid[i0:i1], P1_tab[i0:i1]
        low = float(t_grid[0]) if below.size else lo
        high = float(t_grid[-1]) if above.size else t_max
        reason = (f"no sign change of the residual on [{low!r}, {high!r}]: phi1 overflows at "
                  f"t = {edges}, so the horizon is lowered from t_max {t_max!r} to the last "
                  f"finite node")
    phi1_exp = matops.phi1_exp(A)

    def roots(M):
        # one point at a time: the scan of each row costs far more than its Jacobian
        with np.errstate(over="ignore", invalid="ignore"):
            scans = [scan_roots(t_grid, P1_tab, data.phi_jacobian(Mi), phi1_exp) for Mi in M]
            if first_only:
                firsts = (next((t for t in r if t > 0.0), np.nan) for r in scans)
                return np.array([t if t <= t_max else np.nan for t in firsts]).reshape(-1, 1)
            return _ragged([[t for t in r if abs(t) <= t_max] for r in scans])

    return _stacked_sheets(problem, M_grid, branch, roots, reason)


def sheet_extremum(sheet, mode="min", positive_only=False):
    """Grid extremum of a sheet's time values, refined by Newton on branch_fn.

    Newton starts from the grid extremum, whose value is probed again through
    branch_fn.  Each step takes the central-difference gradient and Hessian of
    branch_fn with a step of 1e-4 grid cells per axis (2n axis probes and 4
    corner probes per coordinate pair) and probes the Newton point, clipped to
    the grid's bounding box.  The search stops at the first step that does not
    strictly improve the value, at a non-finite probe, at a Hessian that is
    not definite (positive for "min", negative for "max"), at a gradient of
    exactly 0, or after _EXTREMUM_STEPS steps.

    Returns (t_extreme, M_at), the best probed value and its point, or the
    grid value where the probe at the grid extremum is not finite.
    positive_only restricts to t > 0 entries.
    """
    t = sheet.t.copy()
    if positive_only:
        t[~sheet.finite_positive()] = np.nan
    if not np.any(np.isfinite(t)):
        return None
    sign = 1.0 if mode == "min" else -1.0
    i0 = int(np.argmin(np.where(np.isfinite(t), sign * t, np.inf)))
    M = sheet.points[i0].copy()
    if sheet.branch_fn is None:
        return float(t[i0]), M

    def f(Mv):
        ti = sheet.branch_fn(Mv)
        if ti is None or not np.isfinite(ti) or (positive_only and ti <= 0.0):
            return np.inf
        return sign * ti

    best = f(M)
    if not np.isfinite(best):
        return float(t[i0]), M
    h = np.array([1e-4 * float(ax[1] - ax[0]) if ax.size > 1 else 1e-4 for ax in sheet.axes])
    e = np.diag(h)
    lo, hi = np.array([ax[0] for ax in sheet.axes]), np.array([ax[-1] for ax in sheet.axes])
    for _ in range(_EXTREMUM_STEPS):
        up, down = (np.array([f(M + s * ej) for ej in e]) for s in (1.0, -1.0))
        grad = (up - down) / (2.0 * h)
        if not np.all(np.isfinite(grad)) or not np.any(grad):
            break
        hess = np.diag((up - 2.0 * best + down) / h**2)
        for j in range(M.size):
            for k in range(j):
                pp, pm, mp, mm = (f(M + a * e[j] + b * e[k])
                                  for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
                hess[j, k] = hess[k, j] = (pp - pm - mp + mm) / (4.0 * h[j] * h[k])
        if not np.all(np.isfinite(hess)) or np.linalg.eigvalsh(hess)[0] <= 0.0:
            break
        trial = np.clip(M - np.linalg.solve(hess, grad), lo, hi)
        value = f(trial)
        if not value < best:
            break
        M, best = trial, value
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

    Grid minimum refined by Newton steps on the owning branch's branch_fn
    (sheet_extremum); returns NoBlowup when no sheet has a positive time on
    its grid.  The reported (t*, M*) must satisfy

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


def build_sheets(problem, grid_num=None, t_max=10.0, scan_step=5e-2):
    """Blow-up sheets dispatched on the structure of A, with certificate lines.

    1D goes to sheet_1d plus the global certificate; A = a*Id to sheets_diag
    plus a per-sheet absence certificate; an elliptic 2x2 A (trace exactly 0,
    det A > 0: the coriolis2d and periodic2d presets) to sheets_coriolis2d (a
    sheet with no root on its grid gets certify_coriolis_absent); an exactly
    diagonal 2x2 A to sheets_diag2's every root on [-t_max, t_max]; any other
    A, singular ones included, to sheets_scan's first positive root on
    (0, t_max] with the step scan_step.  Every test is exact: A = a*Id only
    when every entry is, so a matrix merely close to a pattern goes to a scan
    of the A given.  The per-axis M-grid size is grid_num, else 201 for n <= 2
    and 11 for n >= 3.  Returns (sheets, certificate_lines); constant data,
    whose characteristics never cross, raises ConfigError.
    """
    A, n = problem.spec.A, problem.spec.n
    if isinstance(problem.data, Constant):
        raise ConfigError("constant data has no blow-up sheets: its characteristics never cross")
    if grid_num is None:
        grid_num = 201 if n <= 2 else 11
    grids = problem.data.m_grids(grid_num)
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
        sheets = sheets_scan(problem, M_grid=grids, t_max=t_max, scan_step=scan_step)
    return sheets, cert_lines
