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
from functools import reduce

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
    point_text,
)
from .model import Constant

#: damping budget: the Newton step may be halved this many times
_MAX_HALVINGS = 8
#: the damped step lengths, longest first: 1, 1/2, ..., 2^-_MAX_HALVINGS
_LADDER = 0.5 ** np.arange(_MAX_HALVINGS + 1)
#: _newton's statuses: it holds each as its index here until it returns
_STATUSES = np.array(["OK", "SINGULAR", "NO_CONVERGENCE", "DOMAIN_EXIT", "POST_BLOWUP"],
                     dtype=object)
_OK, _SINGULAR, _NO_CONVERGENCE, _DOMAIN_EXIT, _POST_BLOWUP = range(len(_STATUSES))


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
    Em, P1m, P2m = matops.time_row(A, -t, 2)
    I1 = s.u - g * t - A @ s.x
    I2 = Em @ (g + A @ s.u)
    M = Em @ s.u + P1m @ g
    N = s.x + P1m @ s.u + P2m @ g
    return IntegralValues(I1=I1, I2=I2, M=M, N=N)


def u_from_M(spec, t, M):
    """Velocity at time t of the particle launched with velocity M, (n,) or (k, n)."""
    M = np.atleast_1d(np.asarray(M, dtype=float))
    E, P1 = matops.time_row(spec.A, t, 1)
    return matops.matvec(E, M) + P1 @ spec.g


def m_from_u(spec, t, u):
    """Inverse of u_from_M: the launch velocity of the particle carrying u at t."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    E, P1 = matops.time_row(spec.A, -t, 1)
    return E @ u + P1 @ spec.g


def residual_M(problem, t, x, M):
    """x - phi1(A,t) M - phi2(A,t) g - phi(M); zero exactly on the solution."""
    spec, data = problem.spec, problem.data
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M = np.atleast_1d(np.asarray(M, dtype=float))
    _, P1, P2 = matops.time_row(spec.A, t, 2)
    return x - P1 @ M - P2 @ spec.g - data.phi(M)


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
    """Cold-start M for one position x (n,) or for each row of a stack (k, n).

    u0(x) clipped into the domain; where u0 is not defined at x, the middle
    of the domain box, or, when that is outside the domain (a curved one, such
    as gauss2d_coriolis's), the in-domain point of a coarse grid nearest to
    it.  A stack that u0 refuses is guessed row by row.  Its one caller is
    _newton, for a solve given no starting guess.
    """
    data = problem.data
    X = np.atleast_1d(np.asarray(x, dtype=float))
    if X.ndim == 1:
        return _default_guess(problem, X[None])[0]
    try:
        M0 = np.array(_rows(data.u0, X), dtype=float)
    except (DomainError, NotInvertibleError):
        if len(X) > 1:
            return np.concatenate([_default_guess(problem, X[i : i + 1]) for i in range(len(X))])
        box = data.domain_box()
        lo = np.where(np.isfinite(box[:, 0]), box[:, 0], -1.0)
        hi = np.where(np.isfinite(box[:, 1]), box[:, 1], 1.0)
        mid = 0.5 * (lo + hi)
        pts = () if data.in_domain(mid) else _domain_points(data, 9)
        if not len(pts):
            return mid[None]
        return pts[np.argmin(((pts - mid) ** 2).sum(axis=1))][None]
    outside = ~_rows(data.in_domain, M0)
    if outside.any():
        M0[outside] = data.clip_to_domain(M0[outside])
    return M0


def _scan_guess(problem, res_fn):
    """Coarse residual scan over the M-domain; restart point for a stuck Newton.

    Used when the starting guess happens to sit exactly on the fold set (e.g.
    the warm start u0(x) at the profile's inflection point) even though the
    target point itself is regular.  res_fn maps a (m, n) stack of M to its
    residuals; the first in-domain grid point with the smallest finite
    max-norm residual wins.
    """
    data = problem.data
    pts = _domain_points(data, {1: 65, 2: 25}.get(data.dim, 9))
    if not len(pts):
        return None
    with np.errstate(all="ignore"):
        vals = np.abs(res_fn(pts)).max(axis=1)
    finite = np.flatnonzero(np.isfinite(vals))
    if not finite.size:
        return None
    return pts[finite[np.argmin(vals[finite])]].copy()


def _domain_points(data, num):
    """The in-domain points of the grid data.m_grids(num), a (m, n) stack."""
    mesh = np.meshgrid(*data.m_grids(num), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts[data.in_domain(pts)]


def _rows(f, M):
    """A data-family method over the rows of a (k, n) stack.

    A single row goes through the method's one-point form, which numpy
    evaluates on scalars, several times faster than on a one-row array; the
    values are the same either way.
    """
    if len(M) == 1:
        return np.asarray(f(M[0]))[None]
    return f(M)


def _max_norm(R):
    """max_j |R[i, j]| for each row of a (k, n) stack: its columns folded by
    np.maximum, the same values as a max along the short last axis, faster."""
    return reduce(np.maximum, np.abs(R).T)


def _newton(problem, t, X, M0=None):
    """Damped Newton on residual_M = 0 for every row of X, each row on its own schedule.

    X holds k positions and M0 their starting guesses, both (k, n); with no
    M0 the rows start cold, from _default_guess, which is already clipped
    into the domain, and a caller's M0 is clipped into the domain here.  t is a
    (k, q) queue of times: row i solves t[i, 0], ..., t[i, q - 1] in turn,
    each root the guess for its next time.  e^{tA}, phi1 and phi2 come from
    one matops.time_row over the distinct times np.unique(t).
    Returns (M, U, iters, rnorm, status), one entry per row and queued time,
    (k, q) (M and U (k, q, n)): status is OK, SINGULAR, NO_CONVERGENCE or
    DOMAIN_EXIT, and POST_BLOWUP for every queued time after a row's first
    failure; M is the root or the last in-domain iterate of a failed time, U
    the velocity e^{tA} M + phi1(A,t) g at a root and NaN elsewhere, iters
    the Newton iterations used and rnorm the max-norm residual at M.

    Rows do not wait for each other: a row that converges moves on to its
    next time in the same pass, from its root (an in-domain iterate, so only
    the starting guesses are tested for the domain), with the phi(M) of the
    round that accepted it and a fresh newton_max_iter budget.  Each time
    follows the one-point rules: the step is damped by the first of 1, 1/2,
    ..., 2^-_MAX_HALVINGS that keeps M in-domain and decreases the residual
    (or meets newton_tol), the smallest length deciding DOMAIN_EXIT or
    NO_CONVERGENCE when none does; a singular Newton matrix before the first
    step restarts the row once from _scan_guess.  All step lengths of every
    row are tested with one in_domain call, and a row with no in-domain
    length leaves then.  The first residual round takes each remaining row at
    its longest in-domain length; a further round takes the next in-domain
    length of each row that refused the one before, so a pass usually makes
    one residual evaluation per row.
    """
    spec, data = problem.spec, problem.data
    tol, max_iter = problem.newton_tol, problem.newton_max_iter
    k, n = np.shape(X)
    if M0 is None:
        M = _default_guess(problem, X)
    else:  # only a caller's guesses are clipped: every later M is an in-domain iterate
        M = np.array(M0, dtype=float)
        outside = ~_rows(data.in_domain, M)
        if outside.any():
            M[outside] = data.clip_to_domain(M[outside])
    times, queue = np.unique(np.asarray(t, dtype=float), return_inverse=True)
    queue = queue.reshape(k, -1)
    E, P1, P2 = matops.time_row(spec.A, times, 2)
    P2g = matops.matvec(P2, spec.g)
    q = queue.shape[1]
    P1c, P2gc = P1[queue[:, 0]], P2g[queue[:, 0]]  # each row's table rows at its current time
    phiM = _rows(data.phi, M)  # phi of each row's M
    pos = np.zeros(k, dtype=int)  # its place in the queue
    r = np.empty_like(M)
    rnorm = np.empty(k)
    iters = np.zeros(k, dtype=int)  # 0: neither stepped nor rescued at this time
    alive = np.ones(k, dtype=bool)
    # results by slot: row * q + place in the queue
    out_M = np.full((k * q, n), np.nan)
    out_iters = np.zeros(k * q, dtype=int)
    out_rnorm = np.full(k * q, np.nan)
    out_status = np.full(k * q, _POST_BLOWUP, dtype=np.int8)

    def res(rows, Ms, phis):
        return X[rows] - matops.matvec(P1c[rows], Ms) - P2gc[rows] - phis

    def arm(rows):
        """Start rows at their current time from the M and phi(M) they hold."""
        r[rows] = r_rows = res(rows, M[rows], phiM[rows])
        rnorm[rows] = _max_norm(r_rows)
        iters[rows] = 0

    def finish(rows, why, it):
        s = rows * q + pos[rows]
        out_M[s], out_rnorm[s], out_iters[s], out_status[s] = M[rows], rnorm[rows], it, why
        alive[rows] = False

    arm(np.arange(k))
    rounds = 0  # passes made: no row has more iterations at its current time
    while True:
        done = (alive & (rnorm <= tol)).nonzero()[0]
        while done.size:
            finish(done, _OK, iters[done])
            pos[done] += 1
            done = done[pos[done] < q]
            if done.size:  # a converged row moves on to its next time at once
                alive[done] = True
                c = queue[done, pos[done]]
                P1c[done], P2gc[done] = P1[c], P2g[c]
                arm(done)
                done = done[rnorm[done] <= tol]
        rows = alive.nonzero()[0]
        if rounds >= max_iter:
            spent = iters[rows] >= max_iter
            if spent.any():
                finish(rows[spent], _NO_CONVERGENCE, max_iter)
                rows = rows[~spent]
        if not rows.size:
            break
        rounds += 1
        Mr = M[rows]
        step, singular = matops.solve_stacked(P1c[rows] + _rows(data.phi_jacobian, Mr), r[rows])
        if singular.any():
            for i in rows[singular]:
                # singular at the start: the guess, not the target, is on the
                # fold set; restart once from the best point of a coarse scan
                M_new = (_scan_guess(problem, lambda Ms, i=i: res(i, Ms, _rows(data.phi, Ms)))
                         if iters[i] == 0 else None)
                if M_new is None:
                    finish(i, _SINGULAR, iters[i])
                else:
                    M[i], phiM[i] = M_new, data.phi(M_new)
                    arm([i])
                    iters[i] = 1  # the restart counts as an iteration
            rows, Mr, step = rows[~singular], Mr[~singular], step[~singular]
            if not rows.size:
                continue
        # damped update: every step length of every row in one domain test,
        # the trial points M + length * step in a (length, row) table
        trials = (Mr + _LADDER[:, None, None] * step).reshape(-1, n)
        untried = _rows(data.in_domain, trials).reshape(len(_LADDER), -1)  # in-domain lengths left
        stuck = ~untried.any(axis=0)
        if stuck.any():
            finish(rows[stuck], _DOMAIN_EXIT, iters[rows[stuck]])
            rows, Mr, step, untried = rows[~stuck], Mr[~stuck], step[~stuck], untried[:, ~stuck]
        if not rows.size:
            continue
        shortest_inside = untried[-1].copy()
        lanes = np.arange(len(rows))  # the rows of this round, by place in rows
        first = untried.argmax(axis=0)
        Mt = Mr + _LADDER[first, None] * step
        while True:
            owner = rows[lanes]
            phi_t = _rows(data.phi, Mt)
            r_new = res(owner, Mt, phi_t)
            rn_new = _max_norm(r_new)
            take = (rn_new < rnorm[owner]) | (rn_new <= tol)
            if take.all():  # as a rule every row takes it: no mask to apply
                M[owner], r[owner], rnorm[owner], phiM[owner] = Mt, r_new, rn_new, phi_t
                break
            moved = owner[take]
            M[moved], r[moved], rnorm[moved] = Mt[take], r_new[take], rn_new[take]
            phiM[moved] = phi_t[take]
            # the rows that refused take their next in-domain length; the
            # smallest step length decides why a row with none left failed
            lanes, first = lanes[~take], first[~take]
            untried[first, lanes] = False
            left = untried[:, lanes].any(axis=0)
            if not left.all():
                for why, mask in ((_DOMAIN_EXIT, ~left & ~shortest_inside[lanes]),
                                  (_NO_CONVERGENCE, ~left & shortest_inside[lanes])):
                    if mask.any():
                        finish(rows[lanes[mask]], why, iters[rows[lanes[mask]]])
                lanes = lanes[left]
                if not lanes.size:
                    break
            first = untried[:, lanes].argmax(axis=0)
            Mt = Mr[lanes] + _LADDER[first, None] * step[lanes]
        rows = rows[alive[rows]]
        iters[rows] += 1
    ok = out_status == _OK
    c = queue.ravel()[ok]
    out_U = np.full((k * q, n), np.nan)
    out_U[ok] = matops.matvec(E[c], out_M[ok]) + matops.matvec(P1[c], spec.g)
    return (out_M.reshape(k, q, n), out_U.reshape(k, q, n), out_iters.reshape(k, q),
            out_rnorm.reshape(k, q), _STATUSES[out_status].reshape(k, q))


#: the error class of each failed _newton status
STATUS_ERRORS = {
    "SINGULAR": JacobianSingularError,
    "DOMAIN_EXIT": DomainExitError,
    "NO_CONVERGENCE": NoConvergenceError,
}


def newton_error(status, t, M, iters, rnorm):
    """The STATUS_ERRORS error of a failed _newton status at time t, M the last iterate.

    The text gives t and each coordinate of M as its float repr: a row of a
    stacked _newton run has the bits of the one-point run at its time (each
    matops.time_row row is that of a one-row call), so the text of a
    failure does not depend on how the points were batched.
    """
    text = {
        "SINGULAR": f"Newton matrix singular at M={point_text(M)}, t={float(t)!r}: the "
                    "iterate sits on the blow-up set",
        "DOMAIN_EXIT": f"Newton iterate left the data domain at t={float(t)!r} "
                       f"(last in-domain M={point_text(M)})",
        "NO_CONVERGENCE": f"no convergence at t={float(t)!r} after {iters} iterations "
                          f"(residual {rnorm:.3e})",
    }[status]
    extra = {"residual": rnorm} if status == "NO_CONVERGENCE" else {}
    return STATUS_ERRORS[status](text, M=M.copy(), **extra)


def solve_M(problem, t, x, guess_M=None):
    """Newton solve of residual_M = 0; returns (M, NewtonInfo).

    The one-point case of _newton, which makes the cold start when guess_M is
    None; a failed row raises its newton_error.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M0 = None if guess_M is None else np.asarray(np.atleast_1d(guess_M), dtype=float)[None]
    M, _, iters, rnorm, status = _newton(problem, np.full((1, 1), t), x[None], M0)
    M, iters, rnorm, status = M[0, 0], int(iters[0, 0]), float(rnorm[0, 0]), status[0, 0]
    if status != "OK":
        raise newton_error(status, t, M, iters, rnorm)
    return M, NewtonInfo(iters=iters, M=M, residual_norm=rnorm)


def solve_u(problem, t, x, guess_M=None):
    """Velocity at (t, x); StateSample whose u solves the implicit system.

    Constant data has no inverse map: it is transported in closed form instead
    of iterated.
    """
    spec, data = problem.spec, problem.data
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(data, Constant):
        return StateSample(t=t, x=x, u=closed_form("const_M", spec, t, x, data.c))
    M, _ = solve_M(problem, t, x, guess_M)
    return StateSample(t=t, x=x, u=u_from_M(spec, t, M))


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
        E, P1 = matops.time_row(A, t, 1)
        return E @ c + P1 @ g
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


def solve_field(problem, t_values, x_points):
    """Sweep the solver over k points x q times with per-point guess continuation.

    Each of the k points of x_points, a (k, n) array or a list of k
    length-n points, is one track: its times are solved in order, each from
    the root of the one before.  A sweep does not attempt to continue past a
    gradient catastrophe: after the first failed time on a track, later times
    on that track are marked POST_BLOWUP, never interpolated or branch-hopped.
    One _newton call solves every track, each moving on to its next time as
    soon as it converges, and gives the velocities too.
    Returns (U, iters, status), point i and time j at [i, j]: U (k, q, n) is
    NaN and iters (k, q) is 0 where status (k, q), _newton's, is not OK.
    """
    spec, data = problem.spec, problem.data
    X = np.asarray(x_points, dtype=float)
    times = np.asarray(t_values, dtype=float)
    if isinstance(data, Constant) or not times.size:
        # constant data is rigid transport, u depends on t only (no times: empty arrays)
        u = [closed_form("const_M", spec, t, X[:1], data.c) for t in times.tolist()]
        shape = (len(X), len(times))
        return (np.tile(np.reshape(u, (-1, spec.n)), (len(X), 1, 1)),
                np.zeros(shape, dtype=int), np.full(shape, "OK", dtype=object))
    _, U, iters, _, status = _newton(problem, np.tile(times, (len(X), 1)), X)
    return U, np.where(status == "OK", iters, 0), status
