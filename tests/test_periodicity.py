"""Time-periodicity of the velocity field via e^{TA} = I: detection and verification."""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import blowup, hodograph, matops, model, periodicity
from hodoflow.errors import HodoflowError


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


def test_periodic_A_costs_one_matrix_exponential(monkeypatch):
    """The period 2*pi*lcm(q_k)/|lam_ref| is fundamental, so rates 2 and 3
    are checked by one e^{TA} (a divisor sweep also tried T/2, T/3, T/6)."""
    calls = []
    real_exp = matops.mat_exp

    def counting(A, t):
        calls.append(t)
        return real_exp(A, t)

    monkeypatch.setattr(matops, "mat_exp", counting)
    rep = periodicity.check_periodic(block_diag_rotations(2.0, 3.0))
    assert rep, rep.reason
    assert calls == [rep.T] and rep.T == pytest.approx(2.0 * np.pi, rel=1e-15)


def test_near_rational_rates_never_reach_the_identity():
    """62 + 5e-8 passes for 62/63 of the rate 63 (ratio defect 8e-10 <=
    1e-9), so T0 = 2*pi; the second block then misses the identity there by
    2*pi*5e-8."""
    rep = periodicity.check_periodic(block_diag_rotations(63.0, 62.0 + 5e-8))
    assert not rep and rep.T is None
    assert rep.reason == "e^{TA} never reached the identity (defect at T0: 3.142e-07)"


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


def _per_sample_period(problem, T, samples, tol):
    """(failure text or None, delta or None) of each sample, solved one at a
    time: solve_M at t, the blow-up determinant sign test at its root, then
    solve_M at t + T from that root."""
    spec = problem.spec
    out = []
    for t, x in samples:
        t = float(t)
        try:
            M1, _ = hodograph.solve_M(problem, t, x)
            if blowup.blowup_residual(problem, t, M1) * blowup.blowup_residual(problem, 0.0, M1) <= 0:
                out.append(("sample point is on or past the blow-up set", None))
                continue
            M2, _ = hodograph.solve_M(problem, t + T, x, guess_M=M1)
        except HodoflowError as exc:
            out.append((f"{type(exc).__name__}: {exc}", None))
            continue
        delta = float(np.abs(hodograph.u_from_M(spec, t + T, M2)
                             - hodograph.u_from_M(spec, t, M1)).max())
        out.append((f"|u(t+T) - u(t)| = {delta:.3e} > {tol:.1e}" if delta > tol else None, delta))
    return out


def test_stacked_period_check_matches_per_sample_solves(monkeypatch):
    """The amplitude-1.0 Gaussian under unit rotation, 40 samples drawn as the
    CLI's period verify with seed 3 draws them: one _newton call over the
    (t, t + T) queue gives every sample the verdict and failure text of a
    per-sample solve_M route, 8 of them DomainExit or NoConvergence, and each
    passing sample's delta to 1e-15."""
    problem = model.HodographProblem(model.coriolis2d_spec(1.0),
                                     model.make_data("gauss2d_coriolis", amplitude=1.0))
    T = periodicity.check_periodic(problem.spec.A).T
    rng = np.random.default_rng(3)
    box = problem.data.sample_box()
    samples = [(rng.uniform(0.0, T), rng.uniform(box[:, 0], box[:, 1])) for _ in range(40)]
    real_newton = hodograph._newton
    calls = []

    def recording(*args):
        calls.append(real_newton(*args))
        return calls[-1]

    monkeypatch.setattr(hodograph, "_newton", recording)
    check = periodicity.verify_solution_period(problem, T, samples, tol=1e-8)
    monkeypatch.undo()
    assert len(calls) == 1
    ref = _per_sample_period(problem, T, samples, 1e-8)
    failed = [i for i, (why, _) in enumerate(ref) if why is not None]
    assert [t for t, _, _ in check.failures] == [float(samples[i][0]) for i in failed]
    assert all(x is samples[i][1] or np.array_equal(x, samples[i][1])
               for (_, x, _), i in zip(check.failures, failed))
    assert [why for _, _, why in check.failures] == [ref[i][0] for i in failed]
    assert len(failed) == 8 and not check.ok
    assert all(ref[i][0].startswith(("DomainExitError", "NoConvergenceError")) for i in failed)
    U = calls[0][1]
    deltas = np.abs(U[:, 1] - U[:, 0]).max(axis=1)
    passed = [i for i in range(40) if i not in failed]
    assert max(abs(deltas[i] - ref[i][1]) for i in passed) <= 1e-15
    assert abs(check.max_delta - max(ref[i][1] for i in passed)) <= 1e-15


def test_stacked_newton_rows_are_the_one_point_solves_bit_for_bit():
    """The seed-3 period-verify samples of the test above, solved as one
    _newton call over the (t, t + T) queue: every row that a per-sample
    solve_M reaches (t from the default guess, then t + T from the root at t)
    has its M, iteration count, residual and status bit for bit, a failed
    row's last iterate included, so a failure's text may write M in full."""
    problem = model.HodographProblem(model.coriolis2d_spec(1.0),
                                     model.make_data("gauss2d_coriolis", amplitude=1.0))
    T = periodicity.check_periodic(problem.spec.A).T
    rng = np.random.default_rng(3)
    box = problem.data.sample_box()
    samples = [(rng.uniform(0.0, T), rng.uniform(box[:, 0], box[:, 1])) for _ in range(40)]
    times = np.array([[t, t + T] for t, _ in samples])
    X = np.array([x for _, x in samples])
    M, _, iters, rnorm, status = hodograph._newton(problem, times, X,
                                                   hodograph._default_guess(problem, X))
    failed = 0
    for i, (t, x) in enumerate(samples):
        guess = None
        for j in range(2):
            try:
                M_one, info = hodograph.solve_M(problem, times[i, j], x, guess_M=guess)
            except HodoflowError as exc:
                assert type(exc) is hodograph.STATUS_ERRORS[status[i, j]], (i, j, exc)
                assert M[i, j].tobytes() == exc.M.tobytes(), (i, j, M[i, j], exc.M)
                assert str(exc) == str(hodograph.newton_error(status[i, j], times[i, j], M[i, j],
                                                              iters[i, j], rnorm[i, j]))
                failed += 1
                break
            assert M[i, j].tobytes() == M_one.tobytes(), (i, j, M[i, j], M_one)
            assert (int(iters[i, j]), float(rnorm[i, j]), status[i, j]) == (
                info.iters, info.residual_norm, "OK"), (i, j)
            guess = M_one
    assert failed >= 7, failed


def test_verify_solution_period_flags_points_past_the_blow_up_set():
    """Linear data phi(M) = R M under unit rotation: det(phi1(A, t) + R) is
    the same at every M, -0.5 at t = 0 and positive from t ~ 0.51 on.  The
    solves converge at every time, so the two later samples fail on the sign
    test alone, and the earlier ones pass."""
    problem = model.HodographProblem(model.coriolis2d_spec(1.0),
                                     model.make_data("linear", R=[[1.0, 0.0], [0.0, -0.5]]))
    x = np.array([0.3, -0.2])
    samples = [(0.1, x), (0.4, x), (0.8, x), (1.8, x)]
    check = periodicity.verify_solution_period(problem, 2.0 * np.pi, samples)
    assert not check.ok
    assert [(t, why) for t, _, why in check.failures] == [
        (0.8, "sample point is on or past the blow-up set"),
        (1.8, "sample point is on or past the blow-up set")]
    assert check.max_delta <= 1e-13


def test_period_check_of_no_samples_passes():
    problem = model.HodographProblem(model.coriolis2d_spec(1.0),
                                     model.make_data("gauss2d_coriolis", amplitude=0.05))
    check = periodicity.verify_solution_period(problem, 2.0 * np.pi, [])
    assert check.ok and check.max_delta == 0.0 and check.failures == []


def test_period_check_of_constant_data_is_closed_form():
    """Constant data is rigid transport u = e^{tA} c, exactly T-periodic when
    g = 0: every sample passes, with no Newton solve."""
    problem = model.HodographProblem(model.coriolis2d_spec(1.0),
                                     model.make_data("constant", c=[0.3, -0.1]))
    rng = np.random.default_rng(1)
    samples = [(rng.uniform(0.0, 5.0), rng.uniform(-1.0, 1.0, size=2)) for _ in range(5)]
    check = periodicity.verify_solution_period(problem, 2.0 * np.pi, samples)
    assert check.ok, check.failures
    assert check.max_delta <= 1e-15
