"""Time-periodicity of the velocity field via e^{TA} = I: detection and verification."""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import matops, model, periodicity


def block_diag_rotations(*lams):
    n = 2 * len(lams)
    A = np.zeros((n, n))
    for k, lam in enumerate(lams):
        i = 2 * k
        A[i, i + 1] = lam
        A[i + 1, i] = -lam
    return A


def test_coriolis2d_period():
    for w in (1.0, 2.0, 2.5):
        rep = periodicity.check_periodic(model.coriolis2d_spec(w).A)
        assert rep, rep.reason
        assert rep.T == pytest.approx(2.0 * np.pi / w, rel=1e-12)
        assert rep.exp_defect <= 1e-9


def test_4d_paired_rotations_both_orderings():
    lam = 1.3
    A1 = lam * np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    A2 = lam * np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    for A in (A1, A2):
        rep = periodicity.check_periodic(A)
        assert rep, rep.reason
        assert rep.T == pytest.approx(2.0 * np.pi / lam, rel=1e-12)
        assert np.max(np.abs(matops.mat_exp(A, rep.T) - np.eye(4))) <= 1e-9


def test_mixed_rates_lcm_period():
    """Blocks at rates 2 and 3 share the period 2*pi (lcm of pi and 2*pi/3)."""
    rep = periodicity.check_periodic(block_diag_rotations(2.0, 3.0))
    assert rep, rep.reason
    assert rep.T == pytest.approx(2.0 * np.pi, rel=1e-12)
    # minimality: no proper divisor of the period works
    for d in (2, 3, 4, 5, 6):
        E = matops.mat_exp(block_diag_rotations(2.0, 3.0), rep.T / d)
        assert np.max(np.abs(E - np.eye(4))) > 1e-6, f"T/{d} is already a period"


def test_divisor_sweep_finds_fundamental():
    rep = periodicity.check_periodic(block_diag_rotations(2.0, 4.0))
    assert rep, rep.reason
    assert rep.T == pytest.approx(np.pi, rel=1e-12), "gcd(2,4)=2 gives T = pi"


def test_rejects_real_eigenvalues():
    rep = periodicity.check_periodic(np.diag([1.0, -1.0]))
    assert not rep
    assert "real eigenvalue" in rep.reason


def test_rejects_singular_matrix():
    rep = periodicity.check_periodic(model.coriolis3d_spec(1.0).A)
    assert not rep
    assert "zero eigenvalue" in rep.reason


def test_rejects_defective_matrix():
    # Jordan coupling between two identical rotation blocks: e^{tA} has secular terms
    J = np.array(
        [[0, 1, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    rep = periodicity.check_periodic(J)
    assert not rep
    assert "diagonalizable" in rep.reason


def test_rejects_irrational_ratio():
    rep = periodicity.check_periodic(block_diag_rotations(1.0, np.sqrt(2.0)))
    assert not rep
    assert "irrational" in rep.reason


def test_odd_dimension_never_periodic():
    """Odd n forces a real eigenvalue, so no skew/odd matrix can satisfy e^{TA} = I."""
    rng = np.random.default_rng(12)
    for _ in range(5):
        B = rng.standard_normal((3, 3))
        A = B - B.T  # skew: eigenvalues 0, +i s, -i s
        rep = periodicity.check_periodic(A)
        assert not rep, f"odd-dimensional skew matrix reported periodic: {A}"


def test_nonzero_trace_never_periodic():
    rep = periodicity.check_periodic(np.array([[0.1, 1.0], [-1.0, 0.1]]))
    assert not rep


def test_exp_invariance_along_multiples():
    """e^{(t+T)A} = e^{tA} for random t once T is certified."""
    A = model.coriolis2d_spec(1.7).A
    rep = periodicity.check_periodic(A)
    rng = np.random.default_rng(7)
    for t in rng.uniform(-5.0, 5.0, size=10):
        dev = np.max(np.abs(matops.mat_exp(A, t + rep.T) - matops.mat_exp(A, t)))
        assert dev <= 1e-9, f"exp not T-periodic at t={t}: dev={dev:.2e}"


def test_make_periodic_2d_family():
    for lam, a11, a12 in [(1.0, 1.0, 2.0), (0.7, -0.4, 1.1), (2.0, 0.0, 1.0)]:
        A = periodicity.make_periodic_2d(lam, a11, a12)
        assert np.allclose(A @ A, -(lam**2) * np.eye(2), atol=1e-12)
        assert np.trace(A) == pytest.approx(0.0, abs=1e-14)
        rep = periodicity.check_periodic(A)
        assert rep and rep.T == pytest.approx(2.0 * np.pi / lam, rel=1e-10)


def test_make_periodic_2d_rejects_zero_offdiagonal():
    with pytest.raises(ValueError):
        periodicity.make_periodic_2d(1.0, 1.0, 0.0)


def test_verify_solution_period_small_amplitude():
    problem = model.HodographProblem(
        model.coriolis2d_spec(1.0), model.make_data("gauss2d_coriolis", amplitude=0.05)
    )
    rng = np.random.default_rng(20)
    pts = [(rng.uniform(0.0, 2.0), rng.uniform(0.1, 1.5, size=2)) for _ in range(20)]
    check = periodicity.verify_solution_period(problem, 2.0 * np.pi, pts, tol=1e-8)
    assert check.ok, check.failures
    assert check.max_delta < 1e-12, f"period defect {check.max_delta:.2e}"


def test_verify_solution_period_requires_zero_g():
    problem = model.HodographProblem(
        model.coriolis2d_spec(1.0, g=np.array([0.1, 0.0])),
        model.make_data("gauss2d_coriolis", amplitude=0.05),
    )
    with pytest.raises(ValueError):
        periodicity.verify_solution_period(problem, 2.0 * np.pi, [(0.1, np.array([0.5, 0.5]))])


def test_verify_solution_period_lets_programming_errors_through():
    """Only solver failures become per-point failures; a TypeError surfaces."""
    data = model.make_data("gauss2d_coriolis", amplitude=0.05)

    def broken_phi(M):
        raise TypeError("broken data family")

    data.phi = broken_phi
    problem = model.HodographProblem(model.coriolis2d_spec(1.0), data)
    with pytest.raises(TypeError):
        periodicity.verify_solution_period(problem, 2.0 * np.pi, [(0.1, np.array([0.5, 0.5]))])
