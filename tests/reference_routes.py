"""Independent reference routes that only the tests run.

A fixed-step RK4 integrator of the characteristics that uses no phi
functions, a finite-difference PDE residual, the velocity-form residual of
the hodograph system (matrix inverses instead of phi functions) and the
scalar-forcing change of variables onto the free hodograph relation.  Each
checks the package along a route that shares as little with it as possible;
the package itself calls none of them.  Not collected: the test modules
import it.
"""

from __future__ import annotations

import numpy as np

from hodoflow import matops
from hodoflow.errors import DegenerateMatrixError
from hodoflow.hodograph import StateSample, m_from_u
from hodoflow.oracle import FlowResult


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


def residual_u(problem, t, x, u):
    """Velocity-form residual, via explicit A^{-1} (invertible A only).

    Mathematically identical to residual_M at M = m_from_u(u), but computed
    through a genuinely different route (matrix inverses instead of phi
    functions) so the two can cross-check each other.
    """
    spec, data = problem.spec, problem.data
    if spec.is_degenerate:
        raise DegenerateMatrixError("velocity-form residual needs invertible A")
    A, g = spec.A, spec.g
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    Ainv = np.linalg.inv(A)
    Em = matops.mat_exp(A, -t)
    W = Em - np.eye(spec.n)
    N = x + Ainv @ Ainv @ (W @ (g + A @ u)) + Ainv @ g * t
    M = Em @ u + Ainv @ (W @ g)
    return N - data.phi(M)


def to_bar_variables(spec, s):
    """Change of variables collapsing scalar forcing A = a*I onto A = 0, g = 0.

    (t, x, u)  ->  (tbar, xbar, ubar) with

        tbar = (e^{at} - 1)/a,   xbar = x - phi2(A,t) g,   ubar = M(t, u)

    after which the solution satisfies the free hodograph relation
    xbar - ubar*tbar = phi(ubar).  The a -> 0 limit is the pure Galilean shift
    (t, x - g t^2/2, u - g t).
    """
    A = spec.A
    a = matops.scalar_multiple(A)
    if a is None:
        raise ValueError("bar-variable map is defined for scalar matrices A = a*I only")
    t = s.t
    if a == 0.0:
        return StateSample(t=t, x=s.x - 0.5 * spec.g * t * t, u=s.u - spec.g * t)
    tbar = float(np.expm1(a * t) / a)
    xbar = s.x - matops.phi2(A, t) @ spec.g
    ubar = m_from_u(spec, t, s.u)
    return StateSample(t=tbar, x=xbar, u=ubar)
