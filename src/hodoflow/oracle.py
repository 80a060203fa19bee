"""Independent reference solutions along characteristics.

Characteristics of u_t + (u.grad)u = g + Au are particle paths

    dx/dt = u,    du/dt = g + A u

which is a linear ODE with the closed-form solution

    u(t) = e^{tA} u0 + phi1(A,t) g
    x(t) = x0 + phi1(A,t) u0 + phi2(A,t) g

(the x(t) line is the t-integral of the u(t) line).  These routines exist to
check the implicit solver, so they deliberately share nothing with it beyond
the phi-function evaluator: there is also a plain fixed-step RK4 integrator
that does not even use phi functions, plus a finite-difference PDE residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import OverflowMatrixError

#: time steps per phi1_table in first_caustic_time's sign scan
_SCAN_CHUNK = 256


@dataclass
class FlowResult:
    t: float
    x: np.ndarray
    u: np.ndarray
    jac_det: float | None = None


def exact_flow(spec, x0, u0_val, t):
    """Closed-form characteristic through (x0, u0_val) evaluated at time t."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    u0_val = np.atleast_1d(np.asarray(u0_val, dtype=float))
    E = matops.mat_exp(spec.A, t)
    P1 = matops.phi1(spec.A, t)
    P2 = matops.phi2(spec.A, t)
    u = E @ u0_val + P1 @ spec.g
    x = x0 + P1 @ u0_val + P2 @ spec.g
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
    return _jac_det(spec.A, _u0_jacobian(data, x0), t)


def _u0_jacobian(data, x0):
    """J_{u0}(x0) = (d phi/dM)^{-1} at M = u0(x0)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return np.linalg.inv(data.phi_jacobian(data.u0(x0)))


def _jac_det(A, Ju0, t):
    """det(I + phi1(A,t) J_{u0}), the flow Jacobian determinant at time t."""
    return float(np.linalg.det(np.eye(Ju0.shape[0]) + matops.phi1(A, t) @ Ju0))


def first_caustic_time(spec, data, x0, t_max=50.0, step=1e-2, tol=1e-10):
    """First positive zero of the flow Jacobian determinant, or None.

    Sign-scan on the nodes min(i * step, t_max), then bisect the first
    bracketing interval.  The determinant is flow_jacobian_det's, with
    J_{u0}(x0) computed once; the scan evaluates it _SCAN_CHUNK steps at a
    time from one matops.phi1_table each and stops at the first chunk that
    holds a zero or a sign change.  A node whose determinant is not finite
    (phi1 overflowed) before any bracket raises OverflowMatrixError; the
    bisection uses the scalar phi1.
    """
    A, Ju0 = spec.A, _u0_jacobian(data, x0)
    eye = np.eye(Ju0.shape[0])
    nsteps = int(np.ceil(t_max / step))
    for start in range(0, nsteps, _SCAN_CHUNK):
        # steps start .. start + _SCAN_CHUNK; a chunk repeats the last node of the one before
        ts = np.minimum(np.arange(start, min(start + _SCAN_CHUNK, nsteps) + 1) * step, t_max)
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.linalg.det(eye + matops.phi1_table(A, ts) @ Ju0)
            hit = ~np.isfinite(f[1:]) | (f[1:] == 0.0) | (f[:-1] * f[1:] < 0.0)
        if not hit.any():
            continue
        i = int(np.argmax(hit)) + 1
        if not np.isfinite(f[i]):
            raise OverflowMatrixError(
                f"flow Jacobian determinant not finite at t={float(ts[i])!r}"
            )
        if f[i] == 0.0:
            return float(ts[i])
        a, b, fa = float(ts[i - 1]), float(ts[i]), float(f[i - 1])
        while b - a > tol:
            m = 0.5 * (a + b)
            fm = _jac_det(A, Ju0, m)
            if fm == 0.0:
                return m
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        return 0.5 * (a + b)
    return None


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
