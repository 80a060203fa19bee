"""Rank-deficient force matrices: kernel-adapted bases and rotated solves.

When rank(A) = r < n the left kernel of A carries n - r velocity components
that feel only the constant forcing.  Stack an orthonormal basis into L (the
kernel rows first, indices alpha = 0..n-r-1; the complement rows beta follow),
put P = L^T, and rotate

    y = L x,   v = L u,   f = L g,   Atil = L A P.

The alpha-rows of Atil vanish identically, its beta-rows form B = [B_alpha |
Btil] with an r x r block Btil that must be invertible, and the rotated system

    dy/dt = v,   dv/dt = f + Atil v

is *exactly* the nondegenerate model with (Atil, f) in place of (A, g) -- all
propagator-based machinery applies verbatim because phi1/phi2 never invert
their matrix argument.  The conserved quantities split:

    M_alpha = v_alpha - f_alpha t            N_alpha = y_alpha - v_alpha t + f_alpha t^2/2
    M_beta, N_beta: Btil^{-1}-coupled combinations built from
    C(t) = L e^{-tA} P  and  D(t) = L A e^{-tA} P  (C(0) = I, D(0)|_beta = B).

The implicit solve runs in rotated coordinates and maps back with u = P v.

The skew force A u = u x omega (rotation about omega) is the packaged
specialization: rank 2, kernel along omega, Btil the planar rotation
generator.  Although e^{tA} is 2*pi/|omega|-periodic, the y_alpha - v_alpha t
term in the rotated equations breaks time periodicity of the solutions --
non_periodicity_witness exhibits the violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hodograph, matops, model
from .errors import DegenerateMatrixError, HodoflowError

_SIGN_TOL = 1e-12
_BTILDE_COND_LIMIT = 1e12


@dataclass
class DegenerateBasis:
    """Orthonormal rotation adapted to the left kernel of A."""

    r: int
    L: np.ndarray        # rows: kernel first (alpha), complement after (beta)
    P: np.ndarray        # = L^T = L^{-1}
    A_rot: np.ndarray    # L A P with the alpha-rows zeroed exactly
    B: np.ndarray        # beta-rows of A_rot, shape (r, n)
    B_tilde: np.ndarray  # trailing r x r block of B

    @property
    def n(self):
        return self.L.shape[0]

    @property
    def n_kernel(self):
        return self.n - self.r


def _fix_row_signs(rows):
    rows = rows.copy()
    for row in rows:
        nz = np.flatnonzero(np.abs(row) > _SIGN_TOL)
        if nz.size and row[nz[0]] < 0.0:
            row *= -1.0
    return rows


def _assemble(L, A, r):
    P = L.T.copy()
    A_rot = L @ A @ P
    A_rot[: L.shape[0] - r, :] = 0.0
    B = A_rot[L.shape[0] - r :, :]
    B_tilde = B[:, L.shape[0] - r :]
    if np.linalg.cond(B_tilde) > _BTILDE_COND_LIMIT:
        raise DegenerateMatrixError(
            "the complement block B~ is singular: the kernel-adapted rotation "
            "does not decouple this matrix (nilpotent-type degeneracy)"
        )
    return DegenerateBasis(r=r, L=L, P=P, A_rot=A_rot, B=B, B_tilde=B_tilde)


def build_basis(A):
    """Kernel-adapted orthonormal basis for a rank-deficient matrix.

    Rows come from the left singular vectors: the null ones first, each row
    sign-fixed (first nonzero component positive) so the construction is
    deterministic.  Requires 0 < rank < n and an invertible B~ block.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    r = matops.rank(A)
    if r == n:
        raise ValueError("matrix has full rank; use the generic path")
    if r == 0:
        raise DegenerateMatrixError(
            "rank-0 matrix: the force reduces to the constant g; solve with A = 0 directly"
        )
    U, _, _ = np.linalg.svd(A)
    L = _fix_row_signs(np.vstack([U[:, r:].T, U[:, :r].T]))
    return _assemble(L, A, r)


def coriolis3d_basis(omega):
    """Basis for the 3D rotation force, matching the reference conventions.

    Scalar omega selects the z-axis preset L = P = [(0,0,1),(0,1,0),(1,0,0)];
    a 3-vector uses the explicit kernel/complement rows (axis omega/|omega|
    first).  Either way det L = det P = -1 and B~ is |omega| times the planar
    rotation generator.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.size == 1:
        spec = model.coriolis3d_spec(float(w[0]))
        L = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        return _assemble(L, spec.A, 2)
    if w.shape != (3,):
        raise ValueError("omega must be a scalar or a 3-vector")
    wn = float(np.linalg.norm(w))
    if wn == 0.0:
        raise DegenerateMatrixError("omega = 0 gives A = 0; solve with A = 0 directly")
    spec = model.coriolis3d_spec(w)
    s = float(np.hypot(w[1], w[2]))
    if s < 1e-14 * wn:
        # rotation about the x-axis: the generic rows below divide by s
        sigma = 1.0 if w[0] > 0 else -1.0
        L = np.array([[sigma, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -sigma]])
        return _assemble(L, spec.A, 2)
    L1 = w / wn
    L2 = np.array([0.0, w[2], -w[1]]) / s
    L3 = np.array([w[1] ** 2 + w[2] ** 2, -w[0] * w[1], -w[0] * w[2]]) / (wn * s)
    return _assemble(np.vstack([L1, L2, L3]), spec.A, 2)


@dataclass
class TimeMatrices:
    """C(t) = L e^{-tA} P and D(t) = L A e^{-tA} P (beta-rows feed M_beta)."""

    C: np.ndarray
    D: np.ndarray


def time_matrices(basis, A, t):
    A = np.asarray(A, dtype=float)
    E = matops.mat_exp(A, -t)
    return TimeMatrices(C=basis.L @ E @ basis.P, D=basis.L @ A @ E @ basis.P)


def rotated_spec(spec, basis):
    """The nondegenerate-form force (Atil, f = L g) driving the rotated system."""
    return model.ForceSpec(basis.A_rot, basis.L @ np.asarray(spec.g, dtype=float))


def rotated_problem(problem, basis):
    """Problem in rotated coordinates; problem.data must already be rotated."""
    return model.HodographProblem(
        rotated_spec(problem.spec, basis),
        problem.data,
        newton_tol=problem.newton_tol,
        newton_max_iter=problem.newton_max_iter,
        grid_num=problem.grid_num,
    )


def degenerate_integrals(spec, basis, t, y, v):
    """Conserved quantities of the rotated system at state (t, y, v).

    The alpha components are the free-fall invariants; the beta components
    couple through B~^{-1} and the C/D matrices.  M(0) = v and N(0) = y.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    f = basis.L @ np.asarray(spec.g, dtype=float)
    nk = basis.n_kernel
    tm = time_matrices(basis, spec.A, t)
    Cb, Db = tm.C[nk:, :], tm.D[nk:, :]

    M = np.empty(basis.n)
    N = np.empty(basis.n)
    M[:nk] = v[:nk] - f[:nk] * t
    N[:nk] = y[:nk] - v[:nk] * t + 0.5 * f[:nk] * t * t
    bracket = Cb @ f + Db @ v - f[nk:] - basis.B[:, :nk] @ (v[:nk] - f[:nk] * t)
    M[nk:] = np.linalg.solve(basis.B_tilde, bracket)
    bracket = M[nk:] - v[nk:] + f[nk:] * t + basis.B[:, :nk] @ (v[:nk] * t - 0.5 * f[:nk] * t * t)
    N[nk:] = y[nk:] + np.linalg.solve(basis.B_tilde, bracket)

    I1 = v - f * t - basis.A_rot @ y
    I2 = np.concatenate([f[:nk], Cb @ f + Db @ v])
    return hodograph.IntegralValues(I1=I1, I2=I2, M=M, N=N)


def u0_original(basis, data, x):
    """Initial velocity in original coordinates from rotated-frame data, at one
    point x (n,) or a stack (k, n)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return matops.matvec(basis.P, data.u0(matops.matvec(basis.L, x)))


def degenerate_solve_info(problem, basis, t, x, guess_M=None):
    """Implicit solve for rank-deficient A; returns (StateSample, NewtonInfo).

    problem.data holds the *rotated* initial velocity v0(y); the sample comes
    back in original coordinates through u = P v.
    """
    rp = rotated_problem(problem, basis)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M, info = hodograph.solve_M(rp, t, basis.L @ x, guess_M=guess_M)
    v = hodograph.u_from_M(rp.spec, t, M)
    return hodograph.StateSample(t=t, x=x, u=basis.P @ v), info


def degenerate_solve(problem, basis, t, x, guess_M=None):
    return degenerate_solve_info(problem, basis, t, x, guess_M)[0]


def _zaxis_omega(A):
    """omega of A when A is exactly the z-axis preset coriolis3d_spec(omega).A:
    the preset basis is built from that matrix, so a matrix merely close to it
    is refused (ValueError), and its caller must pass a basis."""
    A = np.asarray(A, dtype=float)
    w = float(A[0, 1]) if A.shape == (3, 3) else 0.0
    if w == 0.0 or not np.array_equal(A, model.coriolis3d_spec(w).A):
        raise ValueError("expected the z-axis rotation force omega*[[0,1,0],[-1,0,0],[0,0,0]]")
    return w


@dataclass
class WitnessPoint:
    """A (t, x) sample where the solution fails e^{TA}-periodicity."""

    t: float
    x: np.ndarray
    delta: float


def non_periodicity_witness(problem, T, sample_points, threshold=1e-3, basis=None):
    """Search sample (t, x) points for |u(t+T, x) - u(t, x)| > threshold.

    Even though e^{TA} = I for the rotation force, the kernel component rides
    dy/dt = v with no restoring term, so any dependence of the kernel velocity
    on the kernel coordinate breaks periodicity.  One _newton call solves
    every sample in the rotated frame at t and, from that root, at t + T; a
    sample that fails either solve is just not a witness.  Returns the first
    witness in sample order, or None (e.g. when that component of the data
    is constant).
    """
    if np.any(np.asarray(problem.spec.g, dtype=float) != 0.0):
        raise ValueError("periodicity comparison is a g = 0 statement")
    if basis is None:
        basis = coriolis3d_basis(_zaxis_omega(problem.spec.A))
    if not len(sample_points):
        return None
    rp = rotated_problem(problem, basis)
    ts = np.array([t for t, _ in sample_points], dtype=float)
    X = np.array([x for _, x in sample_points], dtype=float)
    Y = matops.matvec(basis.L, X)
    try:
        _, V, _, _, _ = hodograph._newton(rp, np.column_stack([ts, ts + T]), Y)
    except HodoflowError:
        return None  # data without an inverse map (constant) solves no sample
    U = matops.matvec(basis.P, V)
    delta = np.abs(U[:, 1] - U[:, 0]).max(axis=1)  # NaN, never a witness, where a solve failed
    i = int(np.argmax(delta > threshold))  # the first witness, if there is one
    if not delta[i] > threshold:
        return None
    return WitnessPoint(t=float(ts[i]), x=X[i], delta=float(delta[i]))
