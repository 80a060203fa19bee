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
np.linalg.det, a second route to the values the tables produce.  There is
also a plain fixed-step RK4 integrator that does not even use phi functions,
plus a finite-difference PDE residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import OverflowMatrixError

#: time steps per phi1 table in caustic_times' sign scan
_SCAN_CHUNK = 256
#: matrices per block of caustic_times' determinant table, one GEMM and one
#: matops.det each (bounds its memory: about 2.4 MB of 3x3 matrices)
_DET_BLOCK = 1 << 15


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


def rk4_flow(spec_or_force, x0, u0_val, t, dt=1e-3):
    """Classical RK4 on (x, u) with uniform steps covering [0, t].

    spec_or_force is either a ForceSpec or a callable force(t, x, u) -> du/dt.
    """
    if callable(spec_or_force):
        force = spec_or_force
    else:
        A, g = spec_or_force.A, spec_or_force.g

        def force(s, x, u):
            return g + A @ u

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    u = np.atleast_1d(np.asarray(u0_val, dtype=float)).copy()
    if t == 0.0:
        return FlowResult(t=0.0, x=x, u=u)
    nsteps = max(1, int(np.ceil(abs(t) / dt)))
    if nsteps > 10_000_000:
        raise ValueError(f"step budget exceeded: {nsteps} steps for t={t}, dt={dt}")
    h = t / nsteps
    s = 0.0
    for _ in range(nsteps):
        k1x, k1u = u, force(s, x, u)
        k2x, k2u = u + 0.5 * h * k1u, force(s + 0.5 * h, x + 0.5 * h * k1x, u + 0.5 * h * k1u)
        k3x, k3u = u + 0.5 * h * k2u, force(s + 0.5 * h, x + 0.5 * h * k2x, u + 0.5 * h * k2u)
        k4x, k4u = u + h * k3u, force(s + h, x + h * k3x, u + h * k3u)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        s += h
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


def first_caustic_time(spec, data, x0, t_max=50.0, step=1e-2, tol=1e-10):
    """First positive zero of the flow Jacobian determinant, or None.

    The one-row call of caustic_times.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    t = caustic_times(spec, data, x0[None], np.array([float(t_max)]), step=step, tol=tol)[0]
    return None if np.isnan(t) else float(t)


def caustic_times(spec, data, x0, t_max, step=1e-2, tol=1e-10):
    """First positive zero of flow_jacobian_det for every row of the (k, n)
    stack x0, each scanned up to its own t_max[i]; a (k,) array, NaN where a
    row has none.

    Row i is sign-scanned on the nodes min(j * step, t_max[i]), then its first
    bracketing interval is bisected to tol.  phi1 depends on t alone, so the
    rows share their nodes and one matops.time_table(A, 1) evaluator: one
    table per _SCAN_CHUNK steps (up to the largest live t_max) and one over
    the end nodes t_max, and the determinants of a chunk are one (nodes x
    rows) table, _flow_dets (one GEMM and one matops.det per _DET_BLOCK
    matrices), with J_{u0} computed once per row.  A row leaves the scan at
    its first zero or sign change, or past its own t_max.  The bracketing
    rows are bisected together, one table over their midpoints per step.  A
    row whose first such node is not finite (phi1 overflowed), within its
    own t_max, raises OverflowMatrixError.
    """
    table, Ju0 = matops.time_table(spec.A, 1), _u0_jacobian(data, x0)
    eye = np.eye(Ju0.shape[-1])
    k = len(Ju0)
    t_max = np.asarray(t_max, dtype=float)
    nsteps = np.maximum(np.ceil(t_max / step), 0.0).astype(int)
    out = np.full(k, np.nan)
    f_prev, t_prev = np.ones(k), np.zeros(k)  # the t = 0 node: det(I)
    a, b, fa = np.zeros(k), np.zeros(k), np.zeros(k)  # bracket [a, b], det at a
    bracket = np.zeros(k, dtype=bool)
    live = nsteps > 0
    lo = 1
    with np.errstate(over="ignore", invalid="ignore"):
        f_end = matops.det(eye + table(t_max)[1] @ Ju0)
        while live.any():
            rows = np.flatnonzero(live)
            hi = min(lo + _SCAN_CHUNK, int(nsteps[rows].max()) + 1)
            idx = np.arange(lo, hi)
            ts = idx * step
            tm = t_max[rows]
            # node j of row i is min(j * step, t_max[i]): a shared row before its end
            f = np.where(ts[:, None] < tm, _flow_dets(table(ts)[1], Ju0[rows]),
                         f_end[rows])
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
        # bisection of every bracket at once, each row to its own b - a <= tol
        act = bracket & (b - a > tol)
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
            act = bracket & (b - a > tol)
        out[bracket] = 0.5 * (a[bracket] + b[bracket])
    return out


def pde_residual(u_field, spec, t, x, h=1e-4):
    """Max-norm residual of u_t + (u.grad)u - g - Au by central differences.

    u_field(t, x) -> u must be smooth in a (2h)-ball; points within O(h) of a
    gradient catastrophe will report garbage, by design.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    u = np.atleast_1d(u_field(t, x))
    ut = (np.atleast_1d(u_field(t + h, x)) - np.atleast_1d(u_field(t - h, x))) / (2.0 * h)
    adv = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        dj = (np.atleast_1d(u_field(t, x + e)) - np.atleast_1d(u_field(t, x - e))) / (2.0 * h)
        adv += u[j] * dj
    res = ut + adv - spec.g - spec.A @ u
    return float(np.abs(res).max())
