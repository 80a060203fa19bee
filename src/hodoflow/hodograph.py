"""Implicit (hodograph) solution of u_t + (u.grad)u = g + Au.

Along characteristics the velocity and position follow the linear flow, so the
solution is pinned down by the conserved labels

    I1 = u - g t - A x                      (linear-in-x invariant)
    I2 = e^{-tA} (g + A u)                  (transported forcing)
    M  = e^{-tA} u + phi1(A,-t) g           (initial velocity of the particle)
    N  = x + phi1(A,-t) u + phi2(A,-t) g    (initial position of the particle)

For invertible data u0 = phi^{-1}, eliminating N via N = phi(M) yields one
n-dimensional algebraic system per space-time point:

    residual_M(t, x, M) = x - phi1(A,t) M - phi2(A,t) g - phi(M) = 0

solved here by damped Newton; the Newton matrix phi1(A,t) + d(phi)/dM is
exactly the matrix whose determinant vanishes on the blow-up set, so a
singular Jacobian is the solver touching a gradient catastrophe, not a bug.
All formulas are phi-function based and remain finite for singular A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import (
    DegenerateMatrixError,
    DomainError,
    DomainExitError,
    JacobianSingularError,
    NoConvergenceError,
    NotInvertibleError,
    SingularMatrixError,
)
from .model import Constant

#: damping budget: the Newton step may be halved this many times
_MAX_HALVINGS = 8
#: solve_field row status for each solver failure that ends a track
_DEAD_STATUS = {
    JacobianSingularError: "SINGULAR",
    NoConvergenceError: "NO_CONVERGENCE",
    DomainExitError: "DOMAIN_EXIT",
}


@dataclass
class StateSample:
    """One space-time sample of the velocity field."""

    t: float
    x: np.ndarray
    u: np.ndarray


@dataclass
class IntegralValues:
    I1: np.ndarray
    I2: np.ndarray
    M: np.ndarray
    N: np.ndarray


@dataclass
class NewtonInfo:
    iters: int
    M: np.ndarray
    residual_norm: float


def integrals(spec, s):
    """All four conserved labels at a state sample (invertible A only).

    The degenerate case has its own reduced set of invariants; this routine
    refuses rank-deficient A rather than returning a partially meaningless
    answer.
    """
    if spec.is_degenerate:
        raise DegenerateMatrixError(
            f"A has rank {spec.rank} < {spec.n}; use the degenerate module's "
            "degenerate_integrals on rotated coordinates"
        )
    A, g, t = spec.A, spec.g, s.t
    Em = matops.mat_exp(A, -t)
    P1m = matops.phi1(A, -t)
    P2m = matops.phi2(A, -t)
    I1 = s.u - g * t - A @ s.x
    I2 = Em @ (g + A @ s.u)
    M = Em @ s.u + P1m @ g
    N = s.x + P1m @ s.u + P2m @ g
    return IntegralValues(I1=I1, I2=I2, M=M, N=N)


def u_from_M(spec, t, M):
    """Velocity at time t of the particle launched with velocity M."""
    M = np.atleast_1d(np.asarray(M, dtype=float))
    return matops.mat_exp(spec.A, t) @ M + matops.phi1(spec.A, t) @ spec.g


def m_from_u(spec, t, u):
    """Inverse of u_from_M: the launch velocity of the particle carrying u at t."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return matops.mat_exp(spec.A, -t) @ u + matops.phi1(spec.A, -t) @ spec.g


def hodograph_position(problem, t, M):
    """The x at which the particle with launch velocity M sits at time t."""
    spec, data = problem.spec, problem.data
    M = np.atleast_1d(np.asarray(M, dtype=float))
    return (
        data.phi(M)
        + matops.phi1(spec.A, t) @ M
        + matops.phi2(spec.A, t) @ spec.g
    )


def residual_M(problem, t, x, M):
    """x - phi1(A,t) M - phi2(A,t) g - phi(M); zero exactly on the solution."""
    spec, data = problem.spec, problem.data
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M = np.atleast_1d(np.asarray(M, dtype=float))
    return (
        x
        - matops.phi1(spec.A, t) @ M
        - matops.phi2(spec.A, t) @ spec.g
        - data.phi(M)
    )


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


def _default_guess(problem, x):
    data = problem.data
    try:
        M0 = data.u0(np.atleast_1d(x))
        if data.in_domain(M0):
            return np.asarray(M0, dtype=float)
        return data.clip_to_domain(M0)
    except (DomainError, NotInvertibleError):
        box = data.domain_box()
        lo = np.where(np.isfinite(box[:, 0]), box[:, 0], -1.0)
        hi = np.where(np.isfinite(box[:, 1]), box[:, 1], 1.0)
        return 0.5 * (lo + hi)


def _scan_guess(problem, res_fn):
    """Coarse residual scan over the M-domain; restart point for a stuck Newton.

    Used when the starting guess happens to sit exactly on the fold set (e.g.
    the warm start u0(x) at the profile's inflection point) even though the
    target point itself is regular.
    """
    data = problem.data
    num = {1: 65, 2: 25}.get(data.dim, 9)
    grids = data.m_grids(num)
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    best, best_val = None, np.inf
    for M in pts:
        if not data.in_domain(M):
            continue
        try:
            val = float(np.abs(res_fn(M)).max())
        except (DomainError, FloatingPointError):
            continue
        if np.isfinite(val) and val < best_val:
            best, best_val = M.copy(), val
    return best


def solve_M(problem, t, x, guess_M=None):
    """Newton solve of residual_M = 0; returns (M, NewtonInfo)."""
    spec, data = problem.spec, problem.data
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M = np.asarray(
        _default_guess(problem, x) if guess_M is None else np.atleast_1d(guess_M),
        dtype=float,
    ).copy()
    if not data.in_domain(M):
        M = data.clip_to_domain(M)
    P1 = matops.phi1(spec.A, t)
    P2g = matops.phi2(spec.A, t) @ spec.g

    def res(Mv):
        return x - P1 @ Mv - P2g - data.phi(Mv)

    r = res(M)
    rnorm = float(np.abs(r).max())
    stepped = False
    rescued = False
    for it in range(1, problem.newton_max_iter + 1):
        if rnorm <= problem.newton_tol:
            return M, NewtonInfo(iters=it - 1, M=M, residual_norm=rnorm)
        J = P1 + data.phi_jacobian(M)
        try:
            step = matops.solve(J, r)
        except SingularMatrixError:
            if not stepped and not rescued:
                # singular at the start: the guess, not the target, is on the
                # fold set; restart from the best point of a coarse scan
                rescued = True
                M_new = _scan_guess(problem, res)
                if M_new is not None:
                    M = M_new
                    r = res(M)
                    rnorm = float(np.abs(r).max())
                    continue
            raise JacobianSingularError(
                f"Newton matrix singular at M={M!r}, t={t!r}: the iterate "
                "sits on the blow-up set",
                M=M.copy(),
            ) from None
        # damped update: halve until the residual decreases and M stays in-domain
        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            M_new = M + lam * step
            if data.in_domain(M_new):
                r_new = res(M_new)
                rn_new = float(np.abs(r_new).max())
                if rn_new < rnorm or rn_new <= problem.newton_tol:
                    break
            lam *= 0.5
        else:
            if not data.in_domain(M + lam * 2.0 * step):
                raise DomainExitError(
                    f"Newton iterate left the data domain at t={t!r} "
                    f"(last in-domain M={M!r})",
                    M=M.copy(),
                )
            raise NoConvergenceError(
                f"Newton stalled at t={t!r} with residual {rnorm:.3e}",
                M=M.copy(),
                residual=rnorm,
            )
        M, r, rnorm = M_new, r_new, rn_new
        stepped = True
    if rnorm <= problem.newton_tol:
        return M, NewtonInfo(iters=problem.newton_max_iter, M=M, residual_norm=rnorm)
    raise NoConvergenceError(
        f"no convergence in {problem.newton_max_iter} iterations at t={t!r} "
        f"(residual {rnorm:.3e})",
        M=M.copy(),
        residual=rnorm,
    )


def solve_u(problem, t, x, guess_M=None):
    """Velocity at (t, x); StateSample whose u solves the implicit system.

    Constant data has no inverse map: it is transported in closed form instead
    of iterated.
    """
    sample, _ = solve_u_info(problem, t, x, guess_M)
    return sample


def solve_u_info(problem, t, x, guess_M=None):
    """solve_u plus the Newton iteration record (used by the CLI CSV output)."""
    spec, data = problem.spec, problem.data
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(data, Constant):
        u = closed_form("const_M", spec, t, x, data.c)
        return StateSample(t=t, x=x, u=u), NewtonInfo(iters=0, M=data.c.copy(), residual_norm=0.0)
    M, info = solve_M(problem, t, x, guess_M)
    return StateSample(t=t, x=x, u=u_from_M(spec, t, M)), info


def closed_form(kind, spec, t, x, c):
    """Exact fields with one invariant frozen to the constant vector c.

    kind        field
    --------    ------------------------------------------------------------
    const_I1    u = g t + A x + c
    const_I2    u = A^{-1}(e^{tA} c - g)                 (invertible A)
    const_M     u = e^{tA} c + phi1(A,t) g               (rigid transport)
    const_N     u from x + phi-map of the frozen initial position
                = (e^{-tA}-1)^{-1} (A(c - x) - g t) - A^{-1} g
                (invertible A, t away from 0 and from e^{-tA} resonances)
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    A, g = spec.A, spec.g
    if kind == "const_I1":
        return g * t + A @ x + c
    if kind == "const_I2":
        if spec.is_degenerate:
            raise DegenerateMatrixError("const_I2 field needs invertible A")
        return matops.solve(A, matops.mat_exp(A, t) @ c - g)
    if kind == "const_M":
        return matops.mat_exp(A, t) @ c + matops.phi1(A, t) @ g
    if kind == "const_N":
        if spec.is_degenerate:
            raise DegenerateMatrixError("const_N field needs invertible A")
        if t == 0.0:
            raise SingularMatrixError("const_N field is singular at t = 0")
        W = matops.mat_exp(A, -t) - np.eye(spec.n)
        return matops.solve(W, A @ (c - x) - g * t) - matops.solve(A, g)
    raise ValueError(f"unknown closed-form kind {kind!r}")


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


@dataclass
class FieldSample:
    """One row of a solve sweep."""

    t: float
    x: np.ndarray
    u: np.ndarray | None
    iters: int
    status: str  # OK | SINGULAR | NO_CONVERGENCE | DOMAIN_EXIT | POST_BLOWUP


def solve_field(problem, t_values, x_points):
    """Sweep the solver over times x points with per-point guess continuation.

    Each spatial point keeps its own M guess, updated after every successful
    solve at the previous time.  A sweep does not attempt to continue past a
    gradient catastrophe: after the first failed time on a track, later times
    on that track are marked POST_BLOWUP, never interpolated or branch-hopped.
    """
    rows = []
    for x in x_points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        guess = None
        dead = False
        for t in t_values:
            if dead:
                rows.append(FieldSample(t=float(t), x=x, u=None, iters=0, status="POST_BLOWUP"))
                continue
            try:
                sample, info = solve_u_info(problem, float(t), x, guess)
            except tuple(_DEAD_STATUS) as exc:
                status = _DEAD_STATUS[type(exc)]
                rows.append(FieldSample(t=float(t), x=x, u=None, iters=0, status=status))
                dead = True
                continue
            guess = info.M
            rows.append(
                FieldSample(t=float(t), x=x, u=sample.u, iters=info.iters, status="OK")
            )
    return rows
