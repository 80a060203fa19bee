"""Dense matrix operations used throughout the solver.

Everything here works on small (n <= 4 in practice) real matrices.  The
matrix functions of the implicit solution formulas are e^{tA} and

    phi1(A, t) = A^-1 (e^{tA} - 1)            = t * phi_1(tA)
    phi2(A, t) = A^-2 (e^{tA} - 1 - tA)       = t^2 * phi_2(tA)

with the dimensionless entire functions phi_1(z) = (e^z - 1)/z and
phi_2(z) = (e^z - 1 - z)/z^2, evaluated without ever inverting A, so
singular (including nilpotent and exactly zero) matrices are fine.  They
depend on t alone, so one evaluator makes them all: time_table(A, k) is
ts -> (e^{tA}, phi1, ..., phik) over many times at once of one fixed A,
whose structure it tests once.  Every block comes from the first block row
of the augmented exponential at (tA, 1),

    exp [[tA, I, 0],   =  [[e^{tA}, phi_1(tA), phi_2(tA)],
         [0,  0, I],        [0,      I,         I        ],
         [0,  0, 0]]        [0,      0,         I        ]]

block j times t^j, except that an exactly diagonal A (every off-diagonal
entry exactly 0) takes e^{tA} and phi1 entrywise, as exp(a t) and expm1(a
t)/a (t where a = 0), so its k = 1 table runs no Pade evaluation.
mat_exp, phi1 and phi2 are one-row calls of it (time_row) at k = 0, 1 and 2.
A row has the bits of a one-row call at its time, whatever stack it sits in.

_block_row(A, t, k) builds that row, and time_table is its one caller;
_block_row is the one caller of _expm, and _expm the one caller of _pade:
scaling and squaring with a diagonal Pade approximant of degree 3, 5, 7, 9
or 13 (Higham 2005), in numpy alone, on one matrix (a scalar t: the fast
path for one call) or a stack.  Each matrix of a stack gets the degree and
the power of 2 a single call would give it, and a stack runs _pade once per
degree over its rows of that degree, so a row has the bits of a single
call, whatever stack it sits in, and a row that overflows leaves the others
finite.

det takes the determinants of a stack, for the tables and root refinements
of the blow-up scan and the caustic screen: written out by cofactors for
n <= 3, with the same bits for a matrix in any stack, instead of one LAPACK
LU per matrix.

solve_stacked refuses matrices above condition number _SOLVE_COND_LIMIT.
For n <= 3 the norm bound ||K||_F^n / |det K|, from det's cofactors,
clears most matrices, and only the others take the exact condition number
_cond, an SVD for every n.  A 2x2 matrix it clears is solved by its
adjugate (_adjugate_solve), from the same det K; every other accepted
matrix by LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OverflowMatrixError, SingularMatrixError, point_text

# eigenvector-matrix condition number above which we refuse to call a matrix
# diagonalizable (defective matrices come out of LAPACK with cond(V) ~ 1/sqrt(eps))
_DIAG_COND_LIMIT = 1e8
# conditioning ceiling for solve_stacked() and solve(), certified with no exact
# condition number for a matrix whose bound ||K||_F^n / |det K| (_cond_bound)
# is at most _CERT_LIMIT
_SOLVE_COND_LIMIT = 1e13
_CERT_LIMIT = _SOLVE_COND_LIMIT / 10
# smallest |det K| _cond_bound takes: det's underflow errors stay far below it
_CERT_DET_FLOOR = 1e-290
# coefficients b_0..b_m of the degree-m diagonal Pade approximant to e^x
# (Higham 2005, "The scaling and squaring method for the matrix exponential
# revisited", Algorithm 2.3); all are integers, exact in double precision
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# largest 1-norm theta_m at which degree m needs no scaling (same paper)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETAS = np.array([theta for _, theta in _PADE_THETA])
_THETA_13 = 5.371920351148152


def _as_square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def is_exact_diagonal(A):
    """True iff every off-diagonal entry of the square matrix A is exactly 0."""
    return np.count_nonzero(A) == np.count_nonzero(np.diagonal(A))


def scalar_multiple(A):
    """a such that A == a*Id entry for entry, or None: a matrix merely close to
    a*Id is not taken for it."""
    a = float(A[0, 0])
    return a if np.array_equal(A, a * _eye(A.shape[0])) else None


@lru_cache(maxsize=None)
def _eye(n):
    """The read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _pade(W, m):
    """Degree-m diagonal Pade approximant r_m(W) = q_m(W)^-1 p_m(W) of e^W.

    W is one (k, k) matrix or a (..., k, k) stack: p_m(W) = V + U and
    q_m(W) = V - U, with U = W u(W^2) the odd and V = v(W^2) the even part.
    """
    b = _PADE[m]
    eye = _eye(W.shape[-1])
    W2 = W @ W
    if m == 13:
        W4 = W2 @ W2
        W6 = W4 @ W2
        U = W6 @ (b[13] * W6 + b[11] * W4 + b[9] * W2) + b[7] * W6 + b[5] * W4 + b[3] * W2
        V = W6 @ (b[12] * W6 + b[10] * W4 + b[8] * W2) + b[6] * W6 + b[4] * W4 + b[2] * W2
    else:
        U, V, P = b[3] * W2, b[2] * W2, W2
        for j in range(2, m // 2 + 1):
            P = P @ W2
            U += b[2 * j + 1] * P
            V += b[2 * j] * P
    U = W @ (U + b[1] * eye)
    V += b[0] * eye
    return np.linalg.solve(V - U, V + U)


def _expm(W):
    """e^W by scaling and squaring (Higham 2005) for one (k, k) matrix or a
    (N, k, k) stack.

    Each matrix gets the lowest Pade degree whose theta_m bounds its own
    1-norm; past theta_9 it is 13, with its own scaling power s (W / 2^s
    within theta_13), squared s times.  A stack runs _pade once per degree on
    its rows of that degree, so each row has the bits of a single call on it.
    Rows with a non-finite norm come back NaN, and rows that overflow while
    squaring come back non-finite, each without touching the other rows.
    """
    norm = np.abs(W).sum(axis=-2).max(axis=-1)
    if W.ndim == 2:
        top = float(norm)
        for m, theta in _PADE_THETA:
            if top <= theta:
                return _pade(W, m)
        if not math.isfinite(top):
            return np.full(W.shape, np.nan)
        s = max(0, math.ceil(math.log2(top / _THETA_13)))
        E = _pade(W * 2.0**-s, 13)
        for _ in range(s):
            E = E @ E
        return E
    E = np.full(W.shape, np.nan)
    group = np.searchsorted(_THETAS, norm)  # index into _PADE_THETA, or past it: degree 13
    for g in np.unique(group).tolist():
        rows = np.flatnonzero(group == g)
        if g < len(_PADE_THETA):
            E[rows] = _pade(W[rows], _PADE_THETA[g][0])
            continue
        rows = rows[np.isfinite(norm[rows])]
        s = np.ceil(np.log2(np.maximum(norm[rows], _THETA_13) / _THETA_13)).astype(int)
        E[rows] = _pade(W[rows] * np.exp2(-s)[:, None, None], 13)
        for i in range(s.max(initial=0)):
            sq = rows[s > i]
            E[sq] = E[sq] @ E[sq]
    return E


def _block_row(A, t, k):
    """[e^{tA}, phi1(A, t), ..., phik(A, t)], the first block row of
    exp(t [[A, I, 0...], [0, 0, I...], ..., [0...]]): the one caller of _expm.

    A scalar t gives one (n, (k+1) n) row by _expm's single-matrix path, a 1-D
    float array t a (len(t), n, (k+1) n) stack by one stacked _expm, and so
    does a (N, n, n) stack A with a scalar t.  Entries that overflow come back
    non-finite, for the caller to judge.
    """
    n, m = A.shape[-1], A.shape[-1] * (k + 1)
    tt = t[:, None, None] if getattr(t, "ndim", 0) else t
    W = tt * A
    if k:  # pad with tI on the block superdiagonal; k = 0 keeps mat_exp at _expm(tA)'s cost
        tA, tI, W = W, tt * _eye(n), np.zeros(W.shape[:-2] + (m, m))
        W[..., :n, :n] = tA
        for r in range(n, m, n):
            W[..., r - n : r, r : r + n] = tI
    with np.errstate(over="ignore", invalid="ignore"):
        return _expm(W)[..., :n, :]


def time_table(A, k):
    """The evaluator ts -> (E, P1, ..., Pk) of one fixed A: e^{tA}, phi1(A,
    t), ..., phik(A, t) at a scalar t, each (n, n), or at every t of a 1-D
    array ts, each a (len(ts), n, n) stack.

    The structure of A is tested here, once, not per call.  Block j is t^j
    times block j of the k-row at (tA, 1) (_block_row), except E and P1 of
    an exactly diagonal A with k >= 1: exp(a t) and expm1(a t)/a, t where
    a = 0, entrywise.  Each row has the bits of a one-row call at its time.
    Rows that overflow come back non-finite, not raised (time_row raises).
    The evaluator's entries is the size of the largest matrix one t makes:
    n^2 entrywise, ((k + 1) n)^2 for the row, for a caller's memory budget.
    """
    A = _as_square(A).copy()
    n = A.shape[0]
    a = np.diagonal(A) if k and is_exact_diagonal(A) else None
    if a is not None:
        zero, idx = a == 0.0, np.arange(n)
        divisor, any_zero = np.where(zero, 1.0, a), bool(zero.any())

    def table(ts):
        ts = np.asarray(ts, dtype=float)
        tt, blocks = ts[..., None, None], []
        if a is None or k > 1:
            row = _block_row(tt * A, 1.0, k)
            blocks, scale = [row[..., :n]], tt
            for j in range(1, k + 1):
                blocks.append(scale * row[..., j * n : (j + 1) * n])
                scale = scale * tt
        if a is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                at = a * ts[..., None]
                d = np.expm1(at) / divisor
                E, P1 = np.zeros((2,) + at.shape + (n,))
                E[..., idx, idx] = np.exp(at)
            P1[..., idx, idx] = np.where(zero, ts[..., None], d) if any_zero else d
            blocks[:2] = [E, P1]
        return tuple(blocks)

    table.entries = (n if a is not None and k == 1 else (k + 1) * n) ** 2
    return table


def time_row(A, t, k):
    """(E, P1, ..., Pk) of time_table(A, k) at t, a scalar or a 1-D array,
    every entry finite: a row that overflows raises OverflowMatrixError
    naming its t (reported, never silently saturated)."""
    A = _as_square(A)
    blocks = time_table(A, k)(t)
    if not all(np.isfinite(b).all() for b in blocks):
        bad = ~np.all([np.isfinite(b).all(axis=(-2, -1)) for b in blocks], axis=0)
        where = (f"diagonal {point_text(np.diagonal(A))}" if is_exact_diagonal(A)
                 else f"||A||_inf = {np.linalg.norm(A, np.inf):.3e}")
        raise OverflowMatrixError(f"e^{{tA}} or a phi function overflowed for "
                                  f"t={float(np.ravel(t)[bad.argmax()])!r} on {where}")
    return blocks


def mat_exp(A, t=1.0):
    """e^{tA}, the one-row time_table call at k = 0."""
    return time_row(A, t, 0)[0]


def phi1(A, t):
    """A^-1 (e^{tA} - 1) = t * phi_1(tA), the one-row time_table call at k = 1;
    valid for singular A, the zero matrix at t = 0."""
    return time_row(A, t, 1)[1]


def phi2(A, t):
    """A^-2 (e^{tA} - 1 - tA) = t^2 * phi_2(tA), the one-row time_table call
    at k = 2; valid for singular A."""
    return time_row(A, t, 2)[2]


@dataclass
class Spectrum:
    """Eigenvalues plus the diagonalizability verdict the periodicity analysis needs."""

    eigenvalues: np.ndarray
    diagonalizable: bool


def eig(A):
    """Eigenvalues of A, sorted deterministically, with a diagonalizability verdict."""
    A = _as_square(A)
    w, V = np.linalg.eig(A)
    order = np.lexsort((np.round(w.imag, 12), np.round(w.real, 12)))
    w = w[order]
    return Spectrum(eigenvalues=w, diagonalizable=bool(np.linalg.cond(V) < _DIAG_COND_LIMIT))


def rank(A, tol=1e-10):
    """Numerical rank: number of singular values above tol * sigma_max."""
    A = _as_square(A)
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def matvec(A, V):
    """A @ v for every vector v along the last axis of V ((n,) or (k, n)).

    Each row is rounded exactly as the one-vector product A @ v, which a plain
    V @ A.T is not.
    """
    return np.matmul(A, V[..., None])[..., 0]


# det's cofactor expansions along the first row, of the entries in row-major order
_DET_FORMULA = {
    1: lambda a: +a,
    2: lambda a, b, c, d: a * d - b * c,
    3: lambda a, b, c, d, e, f, g, h, i: (a * (e * i - f * h) - b * (d * i - f * g)
                                          + c * (d * h - e * g)),
}


def det(A):
    """Determinants of a (..., n, n) stack, shape (...).

    n <= 3 by the cofactor expansion _DET_FORMULA, entrywise over the stack,
    so a matrix gets the same bits whatever stack it sits in; n >= 4 by
    np.linalg.det.  A non-finite entry gives a non-finite determinant; the
    floating-point warnings on the way are the caller's np.errstate to set.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if n > 3:
        return np.linalg.det(A)
    return _DET_FORMULA[n](*(A[..., r, c] for r in range(n) for c in range(n)))


def _cond(A):
    """2-norm condition numbers of a (k, n, n) stack by the SVD
    (np.linalg.cond), for every n; inf where the SVD fails.
    """
    try:
        return np.linalg.cond(A)
    except np.linalg.LinAlgError:  # one bad matrix fails the whole stack
        if len(A) == 1:
            return np.array([np.inf])
        return np.concatenate([_cond(a[None]) for a in A])


def _over_det(norm, det_K):
    """norm / |det K| entrywise: the certificate of _cond_bound and of the
    adjugate route, from one ||K||_F^n and one det K per matrix.  It is inf
    or NaN where |det K| < _CERT_DET_FLOOR and where norm or det K is not
    finite; the warnings on the way are the caller's np.errstate to set."""
    d = np.abs(det_K)
    return norm / (d * (d >= _CERT_DET_FLOOR))


def _cond_bound(A):
    """||K||_F^n / |det K|, an upper bound on the 2-norm condition number of
    each matrix K of a (k, n, n) stack, n <= 3, with no SVD; (k,).

    |det K| <= sigma_max^(n-1) sigma_min gives the bound (cond + 1/cond for
    n = 2, 1 for n = 1).  det's cofactors err by at most ~(n+1) eps
    ||K||_F^n, so the computed bound is at least ~||K||_F / (sigma_min +
    (n+1) eps ||K||_F): one at most _CERT_LIMIT means cond below 1.01
    _CERT_LIMIT.  It is inf or NaN where |det K| < _CERT_DET_FLOOR, which
    keeps underflow out, and where K is not finite or ||K||_F^n overflows
    (|det K| <= ||K||_F^n / n^(n/2), so det cannot overflow first).
    solve_stacked takes it for n = 1 and 3; for n = 2, _adjugate_solve
    forms the same certificate from the det K it solves with.
    """
    n = A.shape[-1]
    X = A.reshape(len(A), n * n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if len(X) == 1:  # one matrix: det's formula on numpy scalars, several times faster
            f2, d = X[0] @ X[0], _DET_FORMULA[n](*X[0])
        else:
            f2, d = np.einsum("ki,ki->k", X, X), det(A)
        return np.atleast_1d(_over_det(f2 ** (0.5 * n), d))


def _adjugate_solve(A, B):
    """K x = r for a (k, 2, 2) stack and (k, 2) right-hand sides by the
    adjugate: x1 = (d r1 - b r2) / det K, x2 = (a r2 - c r1) / det K, with
    det K = a d - b c by det's formula.  Returns (X, exact).

    The same det K and ||K||_F^2 = a^2 + b^2 + c^2 + d^2 make _cond_bound's
    certificate; a row it clears (at most _CERT_LIMIT) is not singular.  The
    certificate also keeps the formula safe: ||K||_F^2 is finite, so every
    entry is below ~1.3e154 and the products are finite for a moderate r,
    and |det K| >= _CERT_DET_FLOOR.  exact marks the rows it does not clear,
    and the rows whose x is not finite (an r beyond ~1e154 can overflow the
    products), for the caller to decide by the exact condition number; their
    X is not an answer.  Every row is entrywise arithmetic, so it has the same
    bits in any stack.
    """
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    r1, r2 = B[:, 0], B[:, 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det_K = _DET_FORMULA[2](a, b, c, d)
        cleared = _over_det(a * a + b * b + c * c + d * d, det_K) <= _CERT_LIMIT
        x1, x2 = (d * r1 - b * r2) / det_K, (a * r2 - c * r1) / det_K
    X = np.empty(B.shape)
    X[:, 0], X[:, 1] = x1, x2
    return X, ~(cleared & np.isfinite(x1) & np.isfinite(x2))


def solve_stacked(A, B):
    """A[i] x[i] = B[i] for a (k, n, n) stack and (k, n) right-hand sides.

    Returns (X, singular).  Row i is flagged in the (k,) bool mask singular,
    and left NaN in X, when its condition number is not finite or exceeds
    _SOLVE_COND_LIMIT: an explicit guard instead of garbage output.  The other
    rows are solved together.

    For n <= 3 a row whose _cond_bound is at most _CERT_LIMIT, a tenth of the
    limit, is not singular, and only the other rows take the exact condition
    number _cond (np.linalg.cond); for n >= 4 every row does.  The factor 10
    is far above the rounding of the bound and of the SVD there, so every
    flag is the one _cond alone gives.  For n = 2 a cleared row is solved by
    its adjugate (_adjugate_solve, which forms the bound from the det K it
    divides by); every other row that is not singular, and every row for
    n != 2, is solved by LAPACK (np.linalg.solve).  A row has the same bits
    in any stack.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[-1]
    if n == 2:  # the rows the adjugate clears are solved already
        X, exact = _adjugate_solve(A, B)
        if not exact.any():
            return X, exact
        unsolved = exact
    else:
        exact = ~(_cond_bound(A) <= _CERT_LIMIT) if n <= 3 else np.ones(len(A), dtype=bool)
        if not exact.any():
            return np.linalg.solve(A, B[..., None])[..., 0], exact
        X, unsolved = np.full(B.shape, np.nan), np.ones(len(A), dtype=bool)
    cond = _cond(A[exact])
    singular = exact.copy()
    singular[exact] = ~np.isfinite(cond) | (cond > _SOLVE_COND_LIMIT)
    X[singular] = np.nan
    todo = unsolved & ~singular
    if todo.any():
        X[todo] = np.linalg.solve(A[todo], B[todo][..., None])[..., 0]
    return X, singular


def solve(A, b):
    """A x = b for one vector b, under the guard of solve_stacked."""
    A = _as_square(A)
    x, singular = solve_stacked(A[None], np.asarray(b, dtype=float)[None])
    if singular[0]:
        raise SingularMatrixError(
            f"matrix numerically singular (condition number not finite or above "
            f"{_SOLVE_COND_LIMIT:.0e})"
        )
    return x[0]
