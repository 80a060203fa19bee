"""Independent reference solutions along characteristics.

Characteristics of u_t + (u.grad)u = g + Au are particle paths

    dx/dt = u,    du/dt = g + A u

which is a linear ODE with the closed-form solution

    u(t) = e^{tA} u0 + phi1(A,t) g
    x(t) = x0 + phi1(A,t) u0 + phi2(A,t) g

(the x(t) line is the t-integral of the u(t) line).  These routines exist to
check the implicit solver, so they deliberately share nothing with it beyond
the phi-function evaluator and the determinant kernel matops.det, which is
tested against exact rational determinants; the one-point flow_jacobian_det
(like blowup.blowup_residual on the solver's side) stays on LAPACK's
np.linalg.det, a second route to the values the tables produce.  The
routes that share nothing with the package at all (a fixed-step RK4
integrator that uses no phi functions, a finite-difference PDE residual) are
the tests' own, in tests/reference_routes.py.

The caustic screen (caustic_times) first clears every row it can by a norm
bound, with no matrix function: with mu a Gershgorin bound on the log-norm
of A (0 for a skew A) and c >= ||Du0(x0)||_2, a row with c t_max phi_1(mu
t_max) <= 1 - _FREE_DELTA keeps det(I + phi1(A, t) Du0) >= _FREE_DELTA^n on
[0, t_max] and has no caustic.  _FREE_DELTA (0.01) keeps that floor far
above the rounding of the determinant table, so the sign scan could not
have found a root on such a row, and every output is the one the scan of
all rows gives.  Only the rows the bound does not clear are scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import ConfigError, OverflowMatrixError

#: node spacing of caustic_times' sign scan, and the bracket width its
#: bisection stops at
_SCAN_STEP = 1e-2
_BISECT_TOL = 1e-10
#: time steps per phi1 table in caustic_times' sign scan
_SCAN_CHUNK = 256
#: matrices per block of caustic_times' determinant table, one GEMM and one
#: matops.det each (bounds its memory: about 2.4 MB of 3x3 matrices)
_DET_BLOCK = 1 << 15
#: margin of _caustic_free's certificate: a certified row keeps det(I + phi1
#: Du0) >= _FREE_DELTA^n, far above the determinant table's rounding
_FREE_DELTA = 0.01


@dataclass
class FlowResult:
    t: float
    x: np.ndarray
    u: np.ndarray


def exact_flow(spec, x0, u0_val, t):
    """Closed-form characteristic through (x0, u0_val) evaluated at time t.

    A (k,) array t flows the rows of the (k, n) stacks x0 and u0_val, row i to
    its own time t[i]; a scalar t flows the one point.  Either way it is one
    matops.time_row, of one row for a scalar t.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    u0_val = np.atleast_1d(np.asarray(u0_val, dtype=float))
    E, P1, P2 = matops.time_row(spec.A, t, 2)
    u = matops.matvec(E, u0_val) + matops.matvec(P1, spec.g)
    x = x0 + matops.matvec(P1, u0_val) + matops.matvec(P2, spec.g)
    return FlowResult(t=t, x=x, u=u)


def flow_jacobian_det(spec, data, x0, t):
    """det d(x(t; x0))/d(x0) along the characteristic map, analytically.

    Equals det(I + phi1(A,t) J_{u0}(x0)) with J_{u0} = (d phi/dM)^{-1} at
    M = u0(x0); its first positive zero is where neighbouring characteristics
    cross (the solution's gradient catastrophe).
    """
    Ju0 = _u0_jacobian(data, np.atleast_1d(np.asarray(x0, dtype=float)))
    return float(np.linalg.det(np.eye(Ju0.shape[0]) + matops.phi1(spec.A, t) @ Ju0))


def _u0_jacobian(data, x0):
    """J_{u0}(x0) = (d phi/dM)^{-1} at M = u0(x0), for one x0 (n,) or a stack (k, n)."""
    return np.linalg.inv(data.phi_jacobian(data.u0(x0)))


def _flow_dets(P, Ju0):
    """det(I + P[i] Ju0[j]) as a (len(P), len(Ju0)) table, _DET_BLOCK matrices at a time.

    Each block of columns is one 2-D GEMM, (nodes n, n) @ (n, cols n), whose
    entry (i, a; j, c) is (P[i] Ju0[j])[a, c], I added on its diagonal in
    place, and one matops.det of its (nodes, cols, n, n) view.
    """
    m, n = len(P), Ju0.shape[-1]
    rows, diag = P.reshape(-1, n), np.arange(n)
    cols = max(1, _DET_BLOCK // m)
    out = []
    for j in range(0, len(Ju0), cols):
        block = Ju0[j : j + cols]
        K = (rows @ block.transpose(1, 0, 2).reshape(n, -1)).reshape(m, n, len(block), n)
        K[:, diag, :, diag] += 1.0
        out.append(matops.det(K.transpose(0, 2, 1, 3)))
    return np.concatenate(out, axis=1)


def first_caustic_time(spec, data, x0, t_max=50.0):
    """First positive zero of the flow Jacobian determinant, or None.

    The one-row call of caustic_times.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    t = caustic_times(spec, data, x0[None], np.array([float(t_max)]))[0]
    return None if np.isnan(t) else float(t)


def _caustic_free(A, Ju0, t_max):
    """The rows of caustic_times whose flow Jacobian determinant stays at
    least _FREE_DELTA^n on [0, t_max[i]], by a norm bound; a (k,) bool mask.

    mu, the largest Gershgorin bound on the eigenvalues of (A + A^T)/2,
    bounds the logarithmic 2-norm of A (mu = 0 for a skew A), so ||e^{sA}||_2
    <= e^{mu s} and ||phi1(A, t)||_2 <= t phi_1(mu t), which increases with
    t.  With c = sqrt(||Du0||_1) sqrt(||Du0||_inf) >= ||Du0||_2, a row with
    c t_max phi_1(mu t_max) <= 1 - _FREE_DELTA has ||phi1 Du0||_2 <= 1 -
    _FREE_DELTA up to t_max: every eigenvalue of I + phi1 Du0 lies within 1 -
    _FREE_DELTA of 1, so det >= _FREE_DELTA^n > 0.  A bound that is not
    finite certifies nothing.
    """
    J = np.abs(Ju0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        S = 0.5 * (A + A.T)
        d = np.diagonal(S)
        mu = np.max(d + np.abs(S).sum(axis=1) - np.abs(d))
        c = np.sqrt(J.sum(axis=-2).max(axis=-1)) * np.sqrt(J.sum(axis=-1).max(axis=-1))
        z = mu * t_max
        phi = np.where(z == 0.0, 1.0, np.expm1(z) / z)  # phi_1(z) = (e^z - 1) / z
        return c * (t_max * phi) <= 1.0 - _FREE_DELTA


def caustic_times(spec, data, x0, t_max):
    """First positive zero of flow_jacobian_det for every row of the (k, n)
    stack x0, each scanned up to its own t_max[i]; a (k,) array, NaN where a
    row has none.

    A row _caustic_free certifies, by a norm bound (c t_max phi_1(mu t_max)
    <= 1 - _FREE_DELTA), has none, and leaves before any table is built: a
    screen whose rows all certify makes no time_table call.  The bound is
    only sufficient, so every other row is scanned.  On a certified row the
    determinant stays at least _FREE_DELTA^n, far above the rounding of the
    determinant table, so the scan could not have reported a root there and
    every result is the one the scan of all rows gives.

    Row i is sign-scanned on the nodes min(j * _SCAN_STEP, t_max[i]), then its
    first bracketing interval is bisected to _BISECT_TOL.  phi1 depends on t
    alone, so the rows share their nodes and one matops.time_table(A, 1)
    evaluator: one table per _SCAN_CHUNK steps (up to the largest live t_max),
    the first of them also over the scanned rows' end nodes t_max (one call,
    split: a row has the same bits in any stack), and the determinants of a
    chunk are one (nodes x rows) table, _flow_dets (one GEMM and one
    matops.det per _DET_BLOCK matrices), with J_{u0} computed once per row.
    A row leaves the scan at its first zero or sign change, or past its own
    t_max.  The bracketing
    rows are bisected together, one table over their midpoints per step.  A
    row whose first such node is not finite (phi1 overflowed), within its
    own t_max, raises OverflowMatrixError.  A row to scan whose t_max is not
    finite, or needs 2**63 steps or more, raises ConfigError.
    """
    Ju0 = _u0_jacobian(data, x0)
    k = len(Ju0)
    t_max = np.asarray(t_max, dtype=float)
    steps = np.ceil(t_max / _SCAN_STEP)
    live = ~(steps <= 0.0) & ~_caustic_free(spec.A, Ju0, t_max)
    out = np.full(k, np.nan)
    if not live.any():
        return out
    far = ~(steps[live] < 2.0**63)
    if far.any():
        raise ConfigError(f"the caustic screen cannot scan to t = {float(t_max[live][far][0])!r}: "
                          f"it takes 2**63 or more steps of {_SCAN_STEP!r}; lower t_range")
    nsteps = np.where(live, steps, 0.0).astype(int)
    table, eye = matops.time_table(spec.A, 1), np.eye(Ju0.shape[-1])
    f_prev, t_prev = np.ones(k), np.zeros(k)  # the t = 0 node: det(I)
    a, b, fa = np.zeros(k), np.zeros(k), np.zeros(k)  # bracket [a, b], det at a
    f_end = np.zeros(k)
    bracket = np.zeros(k, dtype=bool)
    lo = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while live.any():
            rows = np.flatnonzero(live)
            hi = min(lo + _SCAN_CHUNK, int(nsteps[rows].max()) + 1)
            idx = np.arange(lo, hi)
            ts = idx * _SCAN_STEP
            if lo == 1:  # the first chunk and the live end nodes t_max: one table, split
                P = table(np.concatenate([ts, t_max[rows]]))[1]
                P, f_end[rows] = P[: len(ts)], matops.det(eye + P[len(ts) :] @ Ju0[rows])
            else:
                P = table(ts)[1]
            tm = t_max[rows]
            # node j of row i is min(j * _SCAN_STEP, t_max[i]): a shared row before its end
            f = np.where(ts[:, None] < tm, _flow_dets(P, Ju0[rows]), f_end[rows])
            g = np.vstack([f_prev[rows], f])
            nodes = np.vstack([t_prev[rows], np.minimum(ts[:, None], tm)])
            hit = ~np.isfinite(g[1:]) | (g[1:] == 0.0) | (g[:-1] * g[1:] < 0.0)
            hit &= idx[:, None] <= nsteps[rows]
            j = np.flatnonzero(hit.any(axis=0))
            i = hit[:, j].argmax(axis=0) + 1
            bad = ~np.isfinite(g[i, j])
            if bad.any():
                raise OverflowMatrixError(f"flow Jacobian determinant not finite at "
                                          f"t={float(nodes[i[bad][0], j[bad][0]])!r}")
            done = rows[j]
            out[done] = np.where(g[i, j] == 0.0, nodes[i, j], np.nan)
            bracket[done] = g[i, j] != 0.0
            a[done], b[done], fa[done] = nodes[i - 1, j], nodes[i, j], g[i - 1, j]
            live[done] = False
            live[rows[hi - 1 >= nsteps[rows]]] = False
            f_prev[rows], t_prev[rows] = g[-1], nodes[-1]
            lo = hi
        # bisection of every bracket at once, each row to its own b - a <= _BISECT_TOL
        act = bracket & (b - a > _BISECT_TOL)
        while act.any():
            r = np.flatnonzero(act)
            m = 0.5 * (a[r] + b[r])
            fm = matops.det(eye + table(m)[1] @ Ju0[r])
            zero = fm == 0.0
            out[r[zero]] = m[zero]
            bracket[r[zero]] = False
            left = fa[r] * fm < 0.0
            b[r[left]] = m[left]
            a[r[~left]], fa[r[~left]] = m[~left], fm[~left]
            act = bracket & (b - a > _BISECT_TOL)
        out[bracket] = 0.5 * (a[bracket] + b[bracket])
    return out
