"""Time-periodicity of the propagator e^{tA} and of the g = 0 solutions.

With g = 0 every solution produced by the implicit system inherits its time
dependence from e^{tA}, so the field is periodic exactly when

    e^{TA} = I                                              (*)

for some T > 0.  For diagonalizable A this forces every eigenvalue to be pure
imaginary, nu_k = i*lam_k, with T*lam_k in 2*pi*Z.  Writing
lam_k = lam_ref * p_k/q_k (reduced fractions), the smallest admissible T is

    T = 2*pi * lcm(q_1..q_n) / |lam_ref|,

which this module computes from floating-point eigenvalues by continued
fractions (fractions.Fraction.limit_denominator) and then re-verifies against
(*) directly, once.  It is fundamental: the reference's own ratio is 1/1 and
every p_k/q_k is reduced, so a period m*2*pi/|lam_ref| needs lcm(q_k) | m.

Necessary structure: tr A = 0, det A != 0, and n even (pure-imaginary spectra
of real matrices come in conjugate pairs), so odd dimensions never pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, pi

import numpy as np

from . import hodograph, matops
from .model import Constant

_EXP_DEFECT_TOL = 1e-8


@dataclass
class PeriodicityReport:
    """Outcome of check_periodic; truthy exactly when periodic."""

    periodic: bool
    T: float | None
    eigenvalues: np.ndarray
    multipliers: list[Fraction] | None = None
    reason: str = ""
    exp_defect: float | None = None

    def __bool__(self):
        return self.periodic


def _report_false(nu, reason):
    return PeriodicityReport(periodic=False, T=None, eigenvalues=nu, reason=reason)


def check_periodic(A, rational_tol=1e-9, max_denominator=64):
    """Decide e^{TA} = I solvability and return the minimal positive T.

    T is 2*pi*lcm(q_k)/|lam_ref| from the reduced multipliers p_k/q_k, with
    no divisor left to try (see the module docstring), and one mat_exp
    checks e^{TA} = I.  Failure reasons are returned in the report, never
    raised: singular A, non-diagonalizable A, eigenvalues with a real part
    beyond rational_tol*||A||, imaginary-part ratios that no fraction with
    denominator <= max_denominator approximates to rational_tol, or a
    defect of e^{TA} - I that is not within _EXP_DEFECT_TOL.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    spect = matops.eig(A)
    nu = spect.eigenvalues
    if matops.rank(A) < n:
        return _report_false(nu, "zero eigenvalue (A is singular)")
    if not spect.diagonalizable:
        return _report_false(nu, "not diagonalizable within tolerance")
    if float(np.abs(nu.real).max()) > rational_tol * scale:
        return _report_false(nu, "real eigenvalue part")

    lam = nu.imag
    ref = float(lam[np.argmax(np.abs(lam))])
    ratios = lam / ref
    fracs = [Fraction(float(r)).limit_denominator(max_denominator) for r in ratios]
    defects = [abs(float(f) - float(r)) for f, r in zip(fracs, ratios)]
    if max(defects) > rational_tol:
        return _report_false(
            nu,
            f"irrational ratio beyond tolerance (best defect {max(defects):.3e} "
            f"with denominators <= {max_denominator})",
        )

    # T0 is fundamental (module docstring); the one test of (*) guards the
    # rational approximation, and `not <=` also fails a NaN defect
    T0 = 2.0 * pi * lcm(*(f.denominator for f in fracs)) / abs(ref)
    defect = float(np.abs(matops.mat_exp(A, T0) - np.eye(n)).max())
    if not defect <= _EXP_DEFECT_TOL:
        return _report_false(
            nu, f"e^{{TA}} never reached the identity (defect at T0: {defect:.3e})"
        )
    return PeriodicityReport(
        periodic=True,
        T=T0,
        eigenvalues=nu,
        multipliers=fracs,
        exp_defect=defect,
    )


def make_periodic_2d(lam, a11, a12):
    """Traceless 2x2 matrix lam*[[A11, A12], [A21, -A11]] with A^2 = -lam^2 I.

    The off-diagonal completion A21 = -(1 + A11^2)/A12 enforces
    A11^2 + A12*A21 + 1 = 0, i.e. det = lam^2 and a 2*pi/lam period.
    """
    if a12 == 0.0:
        raise ValueError("A12 = 0 does not determine A21; pick A12 != 0")
    a21 = -(1.0 + a11 * a11) / a12
    return float(lam) * np.array([[a11, a12], [a21, -a11]])


@dataclass
class PeriodCheck:
    """Per-point outcome of verify_solution_period; truthy iff all points pass."""

    ok: bool
    max_delta: float
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def verify_solution_period(problem, T, sample_points, tol=1e-8):
    """Check u(t + T, x) = u(t, x) at the given (t, x) samples.

    Requires g = 0 (with forcing the particle positions drift by phi2-type
    secular terms and the field is not periodic).  One _newton call solves
    every sample at t and, from that root, at t + T; constant data is
    transported in closed form.  A failed solve, or a point on or carried
    past the catastrophe set (the blow-up determinant at the solved M has
    left its t = 0 sign), is a per-point failure with a diagnostic instead
    of poisoning the whole verdict; an error of the whole stack (a phi table
    that overflows) is raised.
    """
    spec, data = problem.spec, problem.data
    if np.any(np.asarray(spec.g, dtype=float) != 0.0):
        raise ValueError("solution periodicity is a g = 0 statement")
    ts = [float(t) for t, _ in sample_points]
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for _, x in sample_points]
    if not ts:
        return PeriodCheck(ok=True, max_delta=0.0)
    times = np.column_stack([ts, np.add(ts, T)])
    why = [None] * len(ts)  # each sample's failure text, before the delta test
    if isinstance(data, Constant):
        # rigid transport u = e^{tA} c: nothing to solve and no blow-up set
        E = matops.time_row(spec.A, times.ravel(), 0)[0].reshape(len(ts), 2, spec.n, spec.n)
        U = matops.matvec(E, data.c)
    else:
        X = np.array(xs)
        M, U, iters, rnorm, status = hodograph._newton(problem, times, X)
        fail = status != "OK"
        for i in np.flatnonzero(fail.any(axis=1)):
            j = fail[i].argmax()  # the first failed time; the later one is POST_BLOWUP
            exc = hodograph.newton_error(status[i, j], float(times[i, j]), M[i, j],
                                         int(iters[i, j]), float(rnorm[i, j]))
            why[i] = f"{type(exc).__name__}: {exc}"
        # det(phi1(A, t) + dphi/dM) and det(dphi/dM), its t = 0 value, at each root
        rows = np.flatnonzero(~fail[:, 0])
        J = data.phi_jacobian(M[rows, 0])
        r = matops.det(np.stack([matops.time_row(spec.A, times[rows, 0], 1)[1] + J, J], axis=1))
        for i in rows[r[:, 0] * r[:, 1] <= 0.0]:
            why[i] = "sample point is on or past the blow-up set"
    delta = np.abs(U[:, 1] - U[:, 0]).max(axis=1)
    max_delta = float(delta[[w is None for w in why]].max(initial=0.0))
    failures = [(t, x, w or f"|u(t+T) - u(t)| = {d:.3e} > {tol:.1e}")
                for t, x, w, d in zip(ts, xs, why, delta) if w or d > tol]
    return PeriodCheck(ok=not failures, max_delta=max_delta, failures=failures)
