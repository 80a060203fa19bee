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
NaN-padded) and applies the builder's time map.  Each sheet's branch_fn is
that same evaluation on any (k, n) stack of M, so a probe at a grid point
returns the stored value bit for bit, whatever stack it sits in.  A builder
is its root function:

* 1D (sheet_1d):        t = log(1 - A phi'(M)) / A, real iff A phi'(M) < 1
* A = a*Id (sheets_diag): det(tau*Id + J) = 0 with tau = (e^{at}-1)/a
                        (a quadratic for n = 2, the real eigenvalues of -J
                        otherwise)
* elliptic 2x2 (sheets_coriolis2d): trace A = 0 and det A = lam^2 > 0 (the
                        coriolis2d and periodic2d presets), so A^2 = -lam^2 I
                        and a sin(lam t) + b cos(lam t) + c = 0 with (a,b,c)
                        from A and J (_coriolis_abc); the first positive root
                        in closed form (coriolis2d_first_time)
* any other A, singular ones and n >= 3 included (sheets_scan): the roots of
                        the residual, from a sign scan of one (points x
                        t-nodes) determinant table over one phi1 table and
                        the in-domain M stack, every bracket refined at once
                        by one masked, safeguarded Newton on the exact
                        t-derivative d/dt phi1(A, t) = e^{tA}
                        (_refine_brackets), each pass one (e^{tA}, phi1)
                        table over the live brackets and one matops.det of their
                        column-replaced stacks, every table from one
                        matops.time_table(A, 1) evaluator per scan;
                        the first positive root on (0, t_max] or every root on
                        [-t_max, t_max] (sheets_diag2, for any A = diag(a1, a2)
                        that is not a*Id).

build_sheets picks the builder from the structure of A; no A is refused.
Absent entries (no real root) record the violated reality condition.
min_blowup_time picks the catastrophe: the infimum of positive blow-up times
over all sheets, re-checked against blowup_residual for the actual A before
it is reported.  Each sheet's grid minimum is refined by Newton on the
extremum conditions f = 0, f_M = 0 of the residual (_stationary_minimum),
whose f, f_t and f_M come from one matops.det of the column-replaced stack
(_extremum_conditions); a sheet that cannot meet them keeps its grid
minimum.  The same Newton (_extremum_newton) refines the best sample of the
certificates (_sample_extremum), on the complex-step gradient of A phi'(M)
or of a^2 + b^2 - c^2.  No blow-up run probes branch_fn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matops
from .errors import BlowupVerificationError, ConfigError, OverflowMatrixError, point_text
from .hodograph import _rows
from .model import Constant, mesh_points

#: imaginary-part tolerance for accepting a root or an eigenvalue as real
_IMAG_TOL = 1e-9
#: residual tolerance for accepting a candidate blow-up time
_TIME_RESIDUAL_TOL = 1e-9
#: the scan stops refining a bracket once the Newton step or the bracket is this short
_ROOT_TOL = 1e-12
#: Newton iterations per bracket before the scan settles for the bracket midpoint
_ROOT_MAX_ITER = 100
#: most matrix entries a sheets_scan phi1 table may take: nodes * n^2 for an
#: exactly diagonal A, nodes * (2n)^2 for the augmented exponential of any other
#: (10^6 nodes of a diagonal 2x2); past it the run is refused, not tabulated.
#: An M-grid's mesh (points * n entries) has the same cap, and so has each
#: chunk of the scan's determinant table (points * nodes * n^2 entries): a grid
#: past it is scanned in several chunks, not refused
_SCAN_MAX_ENTRIES = 4 * 10**6
#: Newton steps the extremum-condition Newton (_extremum_newton) takes from a
#: grid minimum or a certificate's best sample before it gives up
_EXTREMUM_STEPS = 20
#: halvings of a Newton step whose point leaves the grid box or the data domain
#: before the extremum-condition Newton gives up
_STEP_HALVINGS = 8
#: imaginary step h of df/dM_k = Im f(M + i h e_k) / h, exact to rounding
_COMPLEX_STEP = 1e-30
#: grid points over which certify_no_blowup_1d samples A phi'(M)
_CERT_GRID_1D = 2001
#: bisection halvings that move a point of _domain_edges onto the domain edge
_EDGE_HALVINGS = 60
#: node spacing of sheets_diag2's scan
_DIAG2_SCAN_STEP = 1e-2
#: central-difference step of the extremum-condition Newton's Jacobian, and the
#: step length at which it has converged, both in its units (t and a grid cell)
_DIFF_STEP = 1e-5
_STEP_TOL = 1e-12
#: singular values of the scaled Newton Jacobian below this fraction of the
#: largest are flat directions, which the minimum-norm step leaves alone
_FLAT_RCOND = 1e-8
#: |f_t| at or below this fraction of |e^{tA}| (|phi1| + |J|)^(n-1) is a
#: crossing of two branches, where the extremum conditions degenerate
_CROSSING_TOL = 1e-6


@dataclass
class BlowupSheet:
    """One root branch of the blow-up condition over an M-grid.

    t holds NaN where the branch has no real time; absent_reason says which
    reality condition failed.  branch_fn re-evaluates the branch over a (k, n)
    stack of M, grid points or not, to k values, NaN where the branch has none.
    No blow-up run calls it; it stays because the benchmark's tracer wraps it
    on every traced blow-up run, and the tests take it as the per-point
    reference of a sheet.  tau holds the pre-time-map root values for the
    diagonal machinery.
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


def _det_derivatives(K, D):
    """det K and its derivatives d/ds det(K + s D_i) along directions D_i by
    Jacobi's formula, for the (k, n, n) stack K and the (k, m, n, n) stack D
    of m directions per matrix: shapes (k,) and (k, m).

    Derivative i is the sum over j of det(K with column j replaced by column j
    of D_i); every determinant is one matops.det of the (k, 1 + m n, n, n)
    stack, K first, then the column-replaced matrices of D_1, ..., D_m.
    """
    k, m, n = *D.shape[:2], K.shape[-1]
    swap = np.eye(n, dtype=bool)[:, None, :]  # matrix j takes column j
    replaced = np.where(swap, D[:, :, None], K[:, None, None]).reshape(k, -1, n, n)
    dets = matops.det(np.concatenate([K[:, None], replaced], axis=1))
    return dets[:, 0], dets[:, 1:].reshape(k, m, n).sum(axis=2)


def _refine_brackets(table, J, lo, hi, flo, fhi):
    """Roots of f(t) = det(phi1(A, t) + J[b]) in the brackets (lo[b], hi[b])
    with flo[b] fhi[b] < 0, one per matrix of the (k, n, n) stack J, all
    refined together: a (k,) array.

    Safeguarded Newton from the regula-falsi point.  Each pass takes one
    table(t) = (e^{tA}, phi1(A, t)) over the live brackets (table is the
    matops.time_table(A, 1) evaluator); with K = phi1 + J, f = det K and
    f'(t) = d/ds det(K + s e^{tA}) come from one _det_derivatives.
    Each step shrinks a bracket by the sign of f; a Newton step that leaves
    the open bracket is replaced by its midpoint.  A root is the Newton
    iterate once its step is <= _ROOT_TOL, the bracket midpoint once the
    bracket is, or t itself where f is exactly 0.  Every operation is
    entrywise or per matrix, so a root has the same bits whatever other
    brackets are refined with it.
    """
    t = lo - flo * (hi - lo) / (fhi - flo)
    roots = np.empty_like(t)
    live = np.arange(len(t))
    with np.errstate(divide="ignore"):
        for _ in range(_ROOT_MAX_ITER):
            if not live.size:
                return roots
            E, P1 = table(t)
            f, df = _det_derivatives(P1 + J, E[:, None])
            left = flo * f < 0.0
            hi = np.where(left, t, hi)
            lo, flo = np.where(left, lo, t), np.where(left, flo, f)
            step = f / df[:, 0]
            mid = 0.5 * (lo + hi)
            zero, short = f == 0.0, np.abs(step) <= _ROOT_TOL
            end = zero | short | (hi - lo <= _ROOT_TOL)
            if np.count_nonzero(end):
                roots[live[end]] = np.where(zero, t, np.where(short, t - step, mid))[end]
                go = ~end
                live, t, step, lo, hi, flo, mid, J = (v[go] for v in (live, t, step, lo, hi,
                                                                      flo, mid, J))
            t = t - step
            t = np.where((lo < t) & (t < hi), t, mid)
    roots[live] = 0.5 * (lo + hi)
    return roots


def _scan_table(t_grid, P1_tab, J, table, t_max, first_only):
    """Roots t with |t| <= t_max of det(phi1(A, t) + J[p]) on t_grid for each
    Jacobian J[p] of the (k, n, n) stack J: a (k, w) array, each row's roots
    in increasing t, NaN-padded.

    P1_tab = table(t_grid)[1], table the matops.time_table(A, 1) evaluator; the
    scan values are one (k, nodes) table matops.det(P1_tab + J[:, None]).  A
    value of exactly 0 at a grid node is a root; a strict sign change between
    neighbours is a bracket, refined to 1e-12 by _refine_brackets, one
    stacked Newton over the brackets of every point.  The table rows, the
    determinants and the refinement steps are each the same for a point
    whatever stack it sits in, so a branch_fn probe rescans a grid point to
    the same roots.  first_only gives w = 1: each point's first root t > 0,
    from its first bracket, handing over to its next bracket where a root
    comes out <= 0; no bracket past it is refined.  Otherwise every bracket
    is refined, and w is the most roots of any point.
    """
    vals = matops.det(P1_tab + J[:, None])
    left, right = vals[:, :-1], vals[:, 1:]
    points, nodes = np.nonzero((left == 0.0) | (left * right < 0.0))
    lo, hi = t_grid[nodes], t_grid[nodes + 1]
    flo, fhi = left[points, nodes], right[points, nodes]
    roots = lo.copy()  # where the left node is exactly 0

    def refine(b):
        b = b[flo[b] != 0.0]
        roots[b] = _refine_brackets(table, J[points[b]], lo[b], hi[b], flo[b], fhi[b])

    if not first_only:
        refine(np.arange(len(points)))
        keep = np.abs(roots) <= t_max
        points, roots = points[keep], roots[keep]
        rank = np.arange(len(points)) - np.searchsorted(points, points)  # place in its point
        out = np.full((len(J), rank.max(initial=-1) + 1), np.nan)
        out[points, rank] = roots
        return out
    out = np.full((len(J), 1), np.nan)
    b = np.flatnonzero(np.diff(points, prepend=-1))  # each point's first bracket
    while b.size:
        refine(b)
        found = roots[b] > 0.0
        out[points[b[found]], 0] = roots[b[found]]
        b = b[~found] + 1
        b = b[b < len(points)]
        b = b[points[b] == points[b - 1]]
    out[out > t_max] = np.nan
    return out


def _time_from_tau(a, tau):
    """Map root values tau = (e^{at}-1)/a to times; NaN where 1 + a*tau <= 0."""
    tau = np.asarray(tau, dtype=float)
    if a == 0.0:
        return tau.copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        arg = a * tau
        t = np.where(arg > -1.0, np.log1p(np.maximum(arg, -1.0 + 1e-300)) / a, np.nan)
    return t


def _check_grid(sizes):
    """ConfigError naming grid_num when an M-grid of these per-axis sizes
    takes more than _SCAN_MAX_ENTRIES entries (points * n); its callers check
    before they build an axis."""
    points = math.prod(sizes)
    if points * len(sizes) > _SCAN_MAX_ENTRIES:
        raise ConfigError(f"an M-grid of {points:,} points in {len(sizes)}D exceeds the "
                          f"{_SCAN_MAX_ENTRIES:,} entries allowed; lower grid_num")


def _grid_points(data, M_grid, num):
    """The grid axes (M_grid, else the data's default grid of num points per
    axis, num None taking 201 for n <= 2 and 11 otherwise) and their (k, n)
    mesh; a ConfigError naming grid_num past _SCAN_MAX_ENTRIES entries
    (_check_grid)."""
    if M_grid is None:
        num = (201 if data.dim <= 2 else 11) if num is None else num
        _check_grid([num] * data.dim)
        M_grid = data.m_grids(num)
    axes = [np.asarray(g, dtype=float) for g in M_grid]
    _check_grid([ax.size for ax in axes])
    return axes, mesh_points(axes)


def _stacked_sheets(problem, M_grid, branch, values, absent_reason, to_time=None):
    """Sheets from one stacked evaluation over an M-grid.

    The grid is M_grid (per-axis arrays), else the data's default grid of
    problem.grid_num points per axis (_grid_points).  values maps an
    in-domain (k, n) stack of M to (k, b) root values, one column per branch,
    NaN-padded; points outside the domain get NaN.  to_time, when given, maps root values to
    times and the raw values are kept as tau.  Sheet k is named
    branch.format(k), and its branch_fn is the same evaluation on any (k, n)
    stack: row k of its times, NaN where a point has fewer branches than the
    grid.
    """
    data = problem.data

    def evaluate(M, width=None):
        """(tau, t) of the stack M, each (width, len(M)); width defaults to
        the stack's own branch count."""
        inside = data.in_domain(M)
        roots = values(M[inside])[:, :width]
        tau = np.full((roots.shape[1] if width is None else width, len(M)), np.nan)
        tau[: roots.shape[1], inside] = roots.T
        return tau, tau if to_time is None else to_time(tau)

    axes, pts = _grid_points(data, M_grid, problem.grid_num)
    tau, t = evaluate(pts)
    return [BlowupSheet(branch.format(k), axes, pts, t[k], None if to_time is None else tau[k],
                        absent_reason, lambda M, k=k: evaluate(M, len(t))[1][k])
            for k in range(len(t))]


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


def certify_no_blowup_1d(problem):
    """Global no-blow-up certificate for 1D: A phi'(M) >= 1 on the whole domain.

    Minimizes s(M) = A*phi'(M) over _CERT_GRID_1D grid points, refined by
    Newton on s'(M) = 0 (_sample_extremum); Certified iff the minimum exceeds
    1 (then 1 - A phi' <= 0 everywhere and the log in the sheet formula never
    has a positive argument).
    """
    data = problem.data
    a = float(problem.spec.A[0, 0])
    grid = data.m_grids(_CERT_GRID_1D)[0]
    slope = lambda M: a * data.phi_jacobian(M)[:, 0, 0]
    v_star, (m_star,) = _sample_extremum(data, [grid], grid[:, None], slope)
    certified = bool(v_star > 1.0)
    reason = (f"min over M of A*phi'(M) = {v_star:.12g} > 1: no real blow-up time" if certified
              else f"A*phi'(M) = {v_star:.12g} <= 1 at M = {m_star:.12g}")
    return Certificate(certified, reason, np.array([m_star]), float(v_star))


def sheets_diag(problem, M_grid=None):
    """Blow-up sheets for A = a*Id: roots of det(tau*Id + J_phi(M)) = 0.

    Returns n sheets labelled tau0 < tau1 < ... (roots sorted ascending per
    grid point); complex pairs and grid points outside the domain leave NaN
    gaps.  n = 2 is the quadratic tau^2 + tr(J) tau + det(J) over the stack,
    any other n the real eigenvalues of -J from one eigvals call over the
    stack.  Works for a = 0, where the time map is the identity t = tau.
    """
    spec, data = problem.spec, problem.data
    a = matops.scalar_multiple(spec.A)
    if a is None:
        raise ValueError("sheets_diag needs A to be a scalar multiple of the identity")
    n = spec.n

    def taus(M):
        J = data.phi_jacobian(M)
        if n != 2:
            lam = np.linalg.eigvals(-J)
            real = np.abs(lam.imag) <= _IMAG_TOL * np.maximum(1.0, np.abs(lam.real))
            return np.sort(np.where(real, lam.real, np.nan), axis=1)
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
    """Trig coefficients (a, b, c) of the elliptic 2x2 blow-up condition for one
    Jacobian J = d(phi)/dM (2, 2), or for each of a stack (k, 2, 2).

    For trace A = 0 and det A = lam^2 > 0, phi1(A, t) = sin(lam t)/lam I +
    (1 - cos(lam t))/lam^2 A, and
        a = lam tr J,  b = -2 - tr(adj(J) A),  c = -b + lam^2 det J
    so that lam^2 * blowup_residual(t, M) = a sin(lam t) + b cos(lam t) + c.
    """
    J11, J12, J21, J22 = J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1]
    # tr(adj(J) A) for A = p diag(1, -1) + s [[0, 1], [-1, 0]] + d [[0, 1], [1, 0]];
    # a rotation w [[0, 1], [-1, 0]] has p = d = 0, leaving the one product w (J12 - J21)
    p, s, d = A[0, 0], 0.5 * (A[0, 1] - A[1, 0]), 0.5 * (A[0, 1] + A[1, 0])
    a = lam * (J11 + J22)
    b = -2.0 - (p * (J22 - J11) + s * (J12 - J21) - d * (J12 + J21))
    c = -b + lam * lam * (J11 * J22 - J12 * J21)
    return a, b, c


def coriolis2d_first_time(a, b, c, lam):
    """First t > 1e-12 with a sin(lam t) + b cos(lam t) + c = 0, or NaN if none.

    a, b, c are floats, or arrays of one shape evaluated elementwise; lam > 0.
    With theta = lam t, a sin(theta) + b cos(theta) = R sin(theta + phi) for
    R = hypot(a, b) and phi = atan2(b, a), so the roots are theta = alpha - phi
    and pi - alpha - phi (mod 2 pi), alpha = arcsin(-c/R); there is no real
    root when R < |c| or R = 0.  Each returned time is re-verified against the
    trig equation to 1e-10.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
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
        return coriolis2d_first_time(*_coriolis_abc(A, lam, data.phi_jacobian(M)), lam)[:, None]

    return _stacked_sheets(problem, M_grid, "coriolis_first", first_times,
                           "a^2 + b^2 < c^2: no real root of a sin(wt) + b cos(wt) + c")


def _domain_edges(data, axes, points, inside):
    """In-domain points next to the domain edge, one on each grid segment that
    crosses it: the segment's in-domain end, moved by bisection (_EDGE_HALVINGS
    halvings) to within its length / 2^_EDGE_HALVINGS of the edge."""
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
    for _ in range(_EDGE_HALVINGS):
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
    Newton on grad margin = 0 (_sample_extremum); Certified iff the sup is
    below 0.
    """
    A, data = problem.spec.A, problem.data
    lam = _elliptic_lambda(A)
    if lam is None:
        raise ValueError("certify_coriolis_absent needs a 2x2 A with trace 0 and det A > 0")

    def margin(M):
        a, b, c = _coriolis_abc(A, lam, data.phi_jacobian(M))
        return a * a + b * b - c * c

    inside = data.in_domain(sheet.points)
    pts = np.concatenate([sheet.points[inside],
                          _domain_edges(data, sheet.axes, sheet.points, inside)])
    found = _sample_extremum(data, sheet.axes, pts, margin, sign=-1.0)
    if found is None:
        return Certificate(False, "no in-domain M with a finite a^2 + b^2 - c^2", None, np.nan)
    sup, worst = found
    certified = sup < 0.0
    reason = (f"sup over M of a^2 + b^2 - c^2 = {sup:.12g} < 0: "
              "no real root of a sin(wt) + b cos(wt) + c" if certified
              else f"a^2 + b^2 - c^2 = {sup:.12g} >= 0 at M = {point_text(worst)}")
    return Certificate(certified, reason, worst, sup)


def sheets_diag2(problem, M_grid=None, t_max=10.0):
    """Blow-up sheets for A = diag(a1, a2) in two dimensions: every root on
    [-t_max, t_max], sheets t0, t1, ..., from sheets_scan with the step
    _DIAG2_SCAN_STEP, whatever the ratio a1/a2 (rational, irrational, a zero
    entry or a1 = a2).  A must be exactly diagonal.
    """
    A = problem.spec.A
    if A.shape != (2, 2) or not matops.is_exact_diagonal(A):
        raise ValueError("sheets_diag2 needs A = diag(a1, a2)")
    return sheets_scan(problem, M_grid, t_max, _DIAG2_SCAN_STEP, first_only=False, branch="t{}")


def sheets_scan(problem, M_grid=None, t_max=10.0, scan_step=5e-2, first_only=True,
                branch="first_root"):
    """Blow-up sheets of the residual scan, for any force matrix A.

    The roots of det(phi1(A, t) + d(phi)/dM) at every in-domain grid point,
    from one matops.time_table(A, 1) evaluator and its table over the nodes,
    both shared by every grid point and every branch_fn probe.  The
    in-domain M stack is scanned in chunks of at most _SCAN_MAX_ENTRIES
    entries (points x nodes x n^2), each one _scan_table: one phi_jacobian
    call (through hodograph._rows, so a one-row probe takes the one-point
    form), one determinant table and one stacked refinement of its
    brackets.
    first_only: one sheet named branch, the smallest t in (0, t_max], scanned
    on the nodes 0, scan_step, 2 scan_step, ..., up to one step past t_max.
    Otherwise every root in [-t_max, t_max], scanned on arange(-t_max, t_max
    + scan_step, scan_step), in increasing t, sheet k named branch.format(k).
    Roots refined past t_max are dropped.  NaN where no root is found.
    A scan whose table would take more than _SCAN_MAX_ENTRIES matrix entries
    (the evaluator's entries per node) raises ConfigError before any node is
    evaluated.  The scan stops
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
    table = matops.time_table(A, 1)
    if nodes * table.entries > _SCAN_MAX_ENTRIES:
        width = math.isqrt(table.entries)
        raise ConfigError(
            f"blowup scan of t_max {t_max!r} with step {scan_step!r} needs {nodes:,.0f} "
            f"t-nodes of {width}x{width} matrices, more than the {_SCAN_MAX_ENTRIES:,} "
            f"entries allowed; lower t_max (coriolis3d also takes a larger scan_step)")
    t_grid = np.arange(start, t_max + scan_step, scan_step)
    if first_only:
        t_grid = np.concatenate([[0.0], t_grid])
    P1_tab = table(t_grid)[1]
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
    chunk = max(1, _SCAN_MAX_ENTRIES // (len(t_grid) * A.shape[0] ** 2))

    def roots(M):
        starts = range(0, len(M), chunk)
        with np.errstate(over="ignore", invalid="ignore"):
            found = [_scan_table(t_grid, P1_tab, _rows(data.phi_jacobian, M[s : s + chunk]),
                                 table, t_max, first_only) for s in starts]
        t = np.full((len(M), max((f.shape[1] for f in found), default=int(first_only))), np.nan)
        for s, f in zip(starts, found):
            t[s : s + len(f), : f.shape[1]] = f
        return t

    return _stacked_sheets(problem, M_grid, branch, roots, reason)


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
              else f"A*tau(M) = {sup:.12g} >= -1 at M = {point_text(worst)}")
    return Certificate(certified, reason, worst, sup)


def _extremum_conditions(data, table, z):
    """f(t, M) = det K, K = phi1(A, t) + J(M), its gradient (f_t, f_M1, ...,
    f_Mn) and the scale |e^{tA}|_F (|phi1|_F + |J|_F)^(n-1) of f_t at each row
    (t, M) of the (k, 1 + n) stack z: shapes (k,), (k, 1 + n) and (k,).  The
    extremum conditions of the blow-up sheets are f = 0 and f_M = 0.

    table is the matops.time_table(A, 1) evaluator.  f, f_t = d/ds det(K + s
    e^{tA}) and f_M_k = d/ds det(K + s dJ_k) come from one _det_derivatives.
    dJ_k is the complex step of the data's own phi_jacobian (_complex_step).
    A row whose matrices are not finite gets non-finite values.
    """
    t, M = z[:, 0], z[:, 1:]
    (E, P1), J = table(t), _rows(data.phi_jacobian, M)
    K = P1 + J
    dJ = _complex_step(data.phi_jacobian, M)
    f, grads = _det_derivatives(K, np.concatenate([E[:, None], dJ], axis=1))
    norms = np.linalg.norm(np.stack([E, P1, J]), axis=(2, 3))
    scale = norms[0] * (norms[1] + norms[2]) ** (M.shape[1] - 1)
    return f, grads, scale


def _flat_axes(sheet, i0):
    """(n,) bool: the grid axes along which every grid neighbour of point i0
    has the time of i0 bit for bit, an axis of one point among them (none
    where the points are not the grid's mesh)."""
    shape = [ax.size for ax in sheet.axes]
    if sheet.t.size != np.prod(shape):
        return np.zeros(len(shape), dtype=bool)
    T, idx = sheet.t.reshape(shape), np.unravel_index(i0, shape)
    flat = []
    for k, size in enumerate(shape):
        near = [T[idx[:k] + (j,) + idx[k + 1 :]] for j in (idx[k] - 1, idx[k] + 1) if 0 <= j < size]
        flat.append(all(v == T[idx] for v in near))
    return np.array(flat)


def _cells(axes):
    """(n,): each grid axis' cell width, 1 for an axis of one point."""
    return np.array([float(ax[1] - ax[0]) if ax.size > 1 else 1.0 for ax in axes])


def _in_grid(data, axes):
    """The predicate of one point M (n,): inside the grid's box and the data domain."""
    lo, hi = np.array([ax[0] for ax in axes]), np.array([ax[-1] for ax in axes])
    return lambda M: bool(((lo <= M) & (M <= hi)).all() and data.in_domain(M))


def _stencil(unit):
    """(h, offsets) with h = _DIFF_STEP unit: the (1 + 2m, m) offsets of one
    Newton evaluation's points, 0 (the iterate) first, then +h_j e_j, -h_j e_j."""
    h = _DIFF_STEP * unit
    return h, np.concatenate([np.zeros((1, h.size)), np.diag(h), np.diag(-h)])


def _central_jacobian(G, h):
    """(m, m): row i the derivative of G_i at the iterate, by central
    differences of the rows G of the stencil (_stencil) with steps h."""
    return (G[1 : 1 + h.size] - G[1 + h.size :]).T / (2.0 * h)


def _complex_step(f, M):
    """d/dM_j of a holomorphic f over the rows of the (k, n) stack M, whose
    values have shape s per row: (k, n, *s), entry j Im f(M + i h e_j) / h
    (h = _COMPLEX_STEP), exact to rounding, from one call on a (k n, n) stack."""
    k, n = M.shape
    values = f((M[:, None] + 1j * _COMPLEX_STEP * np.eye(n)).reshape(-1, n))
    return values.imag.reshape(k, n, *values.shape[1:]) / _COMPLEX_STEP


def _extremum_newton(conditions, z, unit, vary, inside):
    """Newton from z on the extremum conditions F = 0 of a sheet, where
    conditions(z) is F at z and its (m, m) Jacobian: the root, or None.

    Only the coordinates of the bool mask vary move.  The step is the
    minimum-norm least-squares solution in units of unit, so a direction the
    Jacobian does not see (a singular value below _FLAT_RCOND of the largest)
    keeps its coordinate too; a step whose point fails inside (a predicate of
    z) is halved, up to _STEP_HALVINGS times.  Converged once F[vary] is
    exactly 0 (at z itself too) or a step is within _STEP_TOL of unit; None
    where a value is not finite, where every halving fails inside, or after
    _EXTREMUM_STEPS steps.
    """
    sel, unit = np.ix_(vary, vary), unit[vary]
    with np.errstate(all="ignore"):
        F, jac = conditions(z)
        for _ in range(_EXTREMUM_STEPS):
            if not F[vary].any():
                return z
            jac, Fv = jac[sel] * unit, F[vary]
            if not (np.isfinite(jac).all() and np.isfinite(Fv).all()):
                return None
            step = unit * np.linalg.lstsq(jac, -Fv, rcond=_FLAT_RCOND)[0]
            for _ in range(_STEP_HALVINGS + 1):
                trial = z.copy()
                trial[vary] += step
                if inside(trial):
                    break
                step = 0.5 * step
            else:
                return None
            z = trial
            if (np.abs(step) <= _STEP_TOL * unit).all():
                return z
            F, jac = conditions(z)
    return None if F[vary].any() else z


def _sample_extremum(data, axes, points, value, sign=1.0):
    """The least (sign 1) or greatest (sign -1) finite value of a holomorphic
    value ((k, n) stack -> (k,)) over the sample stack points, refined by
    Newton on grad value = 0: (value, M), or None where no sample is finite.

    Newton (_extremum_newton) starts at the best sample, in units of the grid
    cells of axes, on the complex-step gradient (_complex_step) with its
    central differences as the Jacobian, and stays in the grid's box and the
    data domain.  Its root replaces the sample only where its value is
    strictly better, so the result is never worse than the best sample.
    """
    unit = _cells(axes)
    h, shifts = _stencil(unit)

    def conditions(z):
        G = _complex_step(value, z + shifts)
        return G[0], _central_jacobian(G, h)

    with np.errstate(all="ignore"):
        v = sign * value(points)
        if not np.isfinite(v).any():
            return None
        i0 = int(np.argmin(np.where(np.isfinite(v), v, np.inf)))
        best, M = v[i0], points[i0]
        z = _extremum_newton(conditions, M, unit, np.ones(M.size, dtype=bool),
                             _in_grid(data, axes))
        vz = np.inf if z is None else sign * value(z[None])[0]
    return (float(sign * vz), z) if vz < best else (float(sign * best), M)


def _stationary_minimum(problem, table, sheet, i0):
    """The sheet's minimum (t*, M*) from its grid point i0 as the root of the
    n + 1 extremum conditions F = (f, f_M) = 0 (_extremum_conditions), or
    None where the sheet cannot meet them.

    At a minimum of t(M) on a sheet, grad t = -f_M / f_t vanishes.  Newton
    (_extremum_newton) starts at (t0, M0), the grid point's time and point,
    in units of t0 and a grid cell, and stays in the grid's box and the data
    domain.  Each evaluation is one stacked call on the iterate and its
    2 (n + 1) stencil points (_stencil), about the cost of one on the iterate
    alone.  An axis along which the grid is flat at i0 (_flat_axes) keeps the
    grid's coordinate and drops its condition f_M_k: a sheet that depends on
    some coordinates only has a whole set of minima, and Newton would wander
    along it.  The Jacobian's f row is the exact gradient (f_t, f_M), its f_M
    rows central differences of the exact f_M.  None where branches cross
    (|f_t| <= _CROSSING_TOL |e^{tA}|_F (|phi1|_F + |J|_F)^(n-1) at an
    iterate), where Newton fails (an edge minimum, a value that is not
    finite, no convergence), or where the result has t > t0 or t <= 0.
    """
    data = problem.data
    t0, M0 = float(sheet.t[i0]), sheet.points[i0]
    unit = np.concatenate([[t0], _cells(sheet.axes)])
    h, shifts = _stencil(unit)
    in_grid = _in_grid(data, sheet.axes)

    def conditions(z):
        f, grads, scale = _extremum_conditions(data, table, z + shifts)
        F = np.concatenate([f[:1], grads[0, 1:]])
        if not abs(grads[0, 0]) > _CROSSING_TOL * scale[0]:
            F[0] = np.nan  # crossing branches: the conditions degenerate
        jac = _central_jacobian(grads, h)
        jac[0] = grads[0]
        return F, jac

    vary = np.concatenate([[True], ~_flat_axes(sheet, i0)])  # t, free M_k
    z = _extremum_newton(conditions, np.concatenate([[t0], M0]), unit, vary,
                         lambda z: in_grid(z[1:]))
    return None if z is None or not 0.0 < z[0] <= t0 else (float(z[0]), z[1:])


def min_blowup_time(problem, sheets):
    """Catastrophe record: infimum of positive blow-up times over all sheets.

    Each sheet's positive grid minimum (t0, M0) is refined by Newton on the
    extremum conditions f = 0, f_M = 0 of the residual f = det(phi1(A, t) +
    J(M)) (_stationary_minimum), with no branch_fn probe; a sheet that cannot
    meet them (crossing branches, an edge minimum, no convergence, or a result
    with t > t0 or t <= 0) keeps its grid minimum (t0, M0).  Returns NoBlowup
    when no sheet has a positive time on its grid.  The reported (t*, M*)
    must satisfy

        |blowup_residual(t*, M*)| <= 1e-9 * max(1, |phi1(A, t*)|_F, |J(M*)|_F)^n

    for the actual A, else BlowupVerificationError.  That scale, x* = phi(M*)
    + phi1 M* + phi2 g and u* = e^{t*A} M* + phi1 g come from one
    matops.time_row at t*, of k = 2 for a non-zero g and k = 1 for g = 0,
    where phi2 g is zero.
    """
    if isinstance(sheets, BlowupSheet):
        sheets = [sheets]
    table = matops.time_table(problem.spec.A, 1)
    best = None
    for sheet in sheets:
        positive = sheet.finite_positive()
        if not positive.any():
            continue
        i0 = int(np.argmin(np.where(positive, sheet.t, np.inf)))
        res = _stationary_minimum(problem, table, sheet, i0)
        t_s, M_s = (float(sheet.t[i0]), sheet.points[i0].copy()) if res is None else res
        if best is None or t_s < best[0]:
            best = (t_s, M_s, sheet.branch)
    if best is None:
        return NoBlowup(reason="no positive root on the M-grid")
    t_star, M_star, branch = best
    A, g = problem.spec.A, problem.spec.g
    if g.any():
        E, P1, P2 = matops.time_row(A, t_star, 2)
        P2g = P2 @ g
    else:  # phi2 g is zero: the k = 1 row, whose exponential is a size smaller
        (E, P1), P2g = matops.time_row(A, t_star, 1), np.zeros_like(g)
    _verify_blowup_time(problem, t_star, M_star, P1)
    return BlowupExtremum(
        t_star=float(t_star),
        M_star=M_star,
        x_star=problem.data.phi(M_star) + P1 @ M_star + P2g,
        u_star=E @ M_star + P1 @ g,
        branch=branch,
    )


def _verify_blowup_time(problem, t_star, M_star, P1):
    """BlowupVerificationError unless (t_star, M_star) is a root of the
    residual; P1 = phi1(A, t_star) gives the scale."""
    res = blowup_residual(problem, t_star, M_star)
    scale = max(
        1.0,
        float(np.linalg.norm(P1)),
        float(np.linalg.norm(problem.data.phi_jacobian(np.atleast_1d(M_star)))),
    ) ** problem.spec.n
    if not abs(res) <= _TIME_RESIDUAL_TOL * scale:
        raise BlowupVerificationError(
            f"blow-up time t*={float(t_star)!r} at M*={point_text(M_star)} fails the re-check: "
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
    of the A given.  The per-axis M-grid size is grid_num, else the
    builders' default (_grid_points).  Returns (sheets, certificate_lines);
    constant data, whose characteristics never cross, raises ConfigError.
    """
    A, n = problem.spec.A, problem.spec.n
    if isinstance(problem.data, Constant):
        raise ConfigError("constant data has no blow-up sheets: its characteristics never cross")
    if grid_num is not None:
        _check_grid([grid_num] * n)
    grids = None if grid_num is None else problem.data.m_grids(grid_num)
    cert_lines = []
    if n == 1:
        sheets = [sheet_1d(problem, M_grid=None if grids is None else grids[0])]
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
