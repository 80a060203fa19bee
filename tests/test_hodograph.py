"""Implicit solver: Newton solve vs characteristics, integrals, field sweeps."""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import hodograph, model, oracle
from hodoflow.errors import (
    DegenerateMatrixError,
    DomainExitError,
    JacobianSingularError,
    NoConvergenceError,
)

SPEC_CASES = [
    ("free1d", model.ForceSpec(np.zeros((1, 1)), np.array([1.0])),
     ("tanh1d", {"mu": 1.0, "kappa": 1.0})),
    ("linear1d", model.ForceSpec(np.array([[1.0]]), np.array([1.0])),
     ("tanh1d", {"mu": 1.0, "kappa": 1.0})),
    ("damped1d", model.ForceSpec(np.array([[-0.8]]), np.array([0.3])),
     ("gauss1d", {"eta": 0.9, "kappa": 1.1})),
    ("coriolis2d", model.coriolis2d_spec(1.0),
     ("gauss2d_coriolis", {"amplitude": 0.4})),
    ("diag2d", model.diag_spec([0.6, -0.6]),
     ("tanh2d", {"eps": 0.5})),
]


@pytest.mark.parametrize("label,spec,family", SPEC_CASES, ids=[c[0] for c in SPEC_CASES])
def test_solver_matches_characteristics(label, spec, family):
    """Launch exact characteristics, then ask the solver for u at the endpoint."""
    data = model.make_data(family[0], **family[1])
    problem = model.HodographProblem(spec, data)
    box = data.sample_box()
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(30):
        x0 = rng.uniform(box[:, 0], box[:, 1])
        t = rng.uniform(0.05, 0.4)
        caustic = oracle.first_caustic_time(spec, data, x0, t_max=t)
        if caustic is not None and caustic <= t:
            continue
        flow = oracle.exact_flow(spec, x0, data.u0(x0), t)
        got = hodograph.solve_u(problem, t, flow.x)
        err = np.max(np.abs(got.u - flow.u))
        assert err < 1e-9, f"{label}: solver error {err:.3e} at t={t}, x0={x0}"
        checked += 1
    assert checked >= 20, f"{label}: too few pre-caustic samples ({checked})"


def test_residual_vanishes_at_solution():
    spec = model.coriolis2d_spec(0.8)
    data = model.make_data("gauss2d_coriolis", amplitude=0.3)
    problem = model.HodographProblem(spec, data)
    x = np.array([0.4, 0.2])
    M, info = hodograph.solve_M(problem, 0.3, x)
    assert np.max(np.abs(hodograph.residual_M(problem, 0.3, x, M))) < 1e-11
    assert info.iters <= 10


def test_u_from_M_inverts_m_from_u():
    spec = model.ForceSpec(np.array([[0.4, 1.0], [-0.7, 0.2]]), np.array([0.1, -0.3]))
    M = np.array([0.7, -0.2])
    u = hodograph.u_from_M(spec, 0.9, M)
    assert np.allclose(hodograph.m_from_u(spec, 0.9, u), M, atol=1e-12)


def test_integrals_conserved_along_characteristics():
    """I1, I2, M, N are constant in t along every exact trajectory (invertible A)."""
    spec = model.ForceSpec(np.array([[0.5, 0.8], [-0.6, 0.3]]), np.array([0.2, -0.4]))
    rng = np.random.default_rng(23)
    for _ in range(10):
        x0 = rng.uniform(-1, 1, size=2)
        u0 = rng.uniform(-1, 1, size=2)
        vals0 = hodograph.integrals(spec, hodograph.StateSample(t=0.0, x=x0, u=u0))
        for t in (0.3, 0.9, 1.6):
            f = oracle.exact_flow(spec, x0, u0, t)
            vals = hodograph.integrals(spec, hodograph.StateSample(t=t, x=f.x, u=f.u))
            for name in ("I1", "I2", "M", "N"):
                dev = np.max(np.abs(getattr(vals, name) - getattr(vals0, name)))
                assert dev < 1e-10, f"{name} drifts by {dev:.2e} at t={t}"


def test_integrals_refuse_degenerate():
    spec = model.coriolis3d_spec(1.0)
    s = hodograph.StateSample(t=0.1, x=np.zeros(3), u=np.ones(3))
    with pytest.raises(DegenerateMatrixError):
        hodograph.integrals(spec, s)


def test_closed_form_constant_data():
    """Constant initial data short-circuits Newton entirely."""
    spec = model.ForceSpec(np.array([[0.7]]), np.array([0.2]))
    data = model.make_data("constant", c=[0.9])
    problem = model.HodographProblem(spec, data)
    sample, info = hodograph.solve_u_info(problem, 0.6, np.array([1.3]))
    assert info.iters == 0
    exact = oracle.exact_flow(spec, [0.0], [0.9], 0.6)
    assert np.allclose(sample.u, exact.u, atol=1e-12)


def test_closed_form_kinds_are_consistent():
    spec = model.ForceSpec(np.array([[0.5, 0.8], [-0.6, 0.3]]), np.array([0.2, -0.4]))
    x = np.array([0.3, -0.5])
    t = 0.7
    c = np.array([0.4, 0.1])
    u_M = hodograph.closed_form("const_M", spec, t, x, c)
    # const_M: u(t) of the particle with launch velocity c, independent of x
    assert np.allclose(u_M, hodograph.u_from_M(spec, t, c), atol=1e-12)
    u_I1 = hodograph.closed_form("const_I1", spec, t, x, c)
    assert np.allclose(u_I1 - spec.g * t - spec.A @ x, c, atol=1e-12)


def test_to_bar_variables_reduces_to_free_hodograph():
    """After the bar map, the forced solution satisfies xbar - tbar*ubar = phi(ubar)."""
    spec = model.ForceSpec(np.array([[0.5]]), np.array([0.3]))
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    problem = model.HodographProblem(spec, data)
    for t, x in [(0.2, -0.6), (0.4, 0.8)]:
        s = hodograph.solve_u(problem, t, np.array([x]))
        bar = hodograph.to_bar_variables(spec, s)
        gap = bar.x - bar.t * bar.u - data.phi(bar.u)
        assert np.max(np.abs(gap)) < 1e-9, f"free relation violated by {gap} at (t={t}, x={x})"
    # a -> 0 limit: plain Galilean shift
    free = model.ForceSpec(np.zeros((1, 1)), np.array([0.3]))
    s = hodograph.StateSample(t=0.8, x=np.array([0.5]), u=np.array([0.9]))
    bar = hodograph.to_bar_variables(free, s)
    assert bar.t == 0.8
    assert np.allclose(bar.x, 0.5 - 0.5 * 0.3 * 0.64, atol=1e-14)
    assert np.allclose(bar.u, 0.9 - 0.3 * 0.8, atol=1e-14)


def test_solve_field_tracks_die_after_blowup():
    spec = model.ForceSpec(np.zeros((1, 1)), np.zeros(1))
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    problem = model.HodographProblem(spec, data)
    times = [0.0, 0.5, 1.05, 1.5, 2.0]
    rows = hodograph.solve_field(problem, times, [np.array([1.0])])
    statuses = [r.status for r in rows]
    assert statuses[0] == "OK" and statuses[1] == "OK"
    first_bad = next(i for i, s in enumerate(statuses) if s != "OK")
    assert all(s == "POST_BLOWUP" for s in statuses[first_bad + 1:]), (
        f"track must stay dead after first failure: {statuses}"
    )


def test_singular_starting_guess_is_rescued():
    """u0(0) sits exactly where the Newton matrix vanishes at t=1, yet the
    target point itself is regular (the root is far from the fold)."""
    spec = model.ForceSpec(np.zeros((1, 1)), np.array([1.0]))
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    problem = model.HodographProblem(spec, data)
    got = hodograph.solve_u(problem, 1.0, np.array([0.0]))
    # cross-check against characteristics: find x0 with x0 + u0(x0) + 1/2 = 0
    from scipy.optimize import brentq

    def endpoint(x0):
        return x0 + data.u0(np.array([x0]))[0] + 0.5

    x0 = brentq(endpoint, -6.0, 0.0, xtol=1e-14)
    flow = oracle.exact_flow(spec, np.array([x0]), data.u0(np.array([x0])), 1.0)
    assert abs(flow.x[0]) < 1e-12, f"characteristic endpoint should hit 0, got {flow.x}"
    err = abs(got.u[0] - flow.u[0])
    assert err < 1e-9, f"rescued solve disagrees with characteristics: {err:.3e}"


def test_solve_field_guess_continuation_keeps_iterations_low():
    spec = model.coriolis2d_spec(1.0)
    data = model.make_data("gauss2d_coriolis", amplitude=0.3)
    problem = model.HodographProblem(spec, data)
    times = np.linspace(0.0, 1.0, 21)
    rows = hodograph.solve_field(problem, times, [np.array([0.5, 0.5])])
    assert all(r.status == "OK" for r in rows)
    late = [r.iters for r in rows[2:]]
    assert max(late) <= 5, f"warm-started Newton should stay cheap, got {late}"


def test_to_bar_variables_refuses_near_scalar_matrix():
    """diag(0.5, 0.5000045) is not 0.5*I: its second tbar would be wrong."""
    spec = model.diag_spec([0.5, 0.5000045])
    s = hodograph.StateSample(t=0.3, x=np.array([0.1, 0.2]), u=np.array([0.3, 0.4]))
    with pytest.raises(ValueError):
        hodograph.to_bar_variables(spec, s)


def test_residual_u_cross_checks_residual_M():
    """The inverse-matrix route agrees with the phi-function route at solved
    points and at a perturbed velocity, where both are visibly nonzero."""
    spec = model.ForceSpec(np.diag([0.6, -0.6]), np.array([0.2, 0.1]))
    problem = model.HodographProblem(spec, model.make_data("tanh2d", eps=0.5))
    for t, M0 in [(0.2, (0.3, -0.2)), (0.45, (-0.5, 0.4))]:
        x = hodograph.hodograph_position(problem, t, np.array(M0))
        M, _ = hodograph.solve_M(problem, t, x)
        u = hodograph.u_from_M(spec, t, M)
        assert np.max(np.abs(hodograph.residual_u(problem, t, x, u))) <= 1e-12
        assert np.max(np.abs(hodograph.residual_M(problem, t, x, M))) <= 1e-12
        u_off = u + np.array([1e-3, -2e-3])
        r_u = hodograph.residual_u(problem, t, x, u_off)
        r_M = hodograph.residual_M(problem, t, x, hodograph.m_from_u(spec, t, u_off))
        assert np.max(np.abs(r_u)) > 1e-6
        assert np.max(np.abs(r_u - r_M)) <= 1e-12


@pytest.mark.parametrize("error, status", [
    (JacobianSingularError("singular"), "SINGULAR"),
    (NoConvergenceError("stalled"), "NO_CONVERGENCE"),
    (DomainExitError("left the domain"), "DOMAIN_EXIT"),
])
def test_solve_field_marks_the_failed_track_dead(monkeypatch, error, status):
    """A solver failure writes its status with u = None and iters = 0, and every
    later time on that track is POST_BLOWUP without another solve."""
    problem = model.HodographProblem(
        model.ForceSpec(np.array([[0.5]]), np.zeros(1)), model.make_data("tanh1d", mu=1.0, kappa=1.0)
    )
    real_solve = hodograph.solve_u_info
    calls = []

    def failing_after_first(problem, t, x, guess_M=None):
        calls.append(t)
        if t > 0.0:
            raise error
        return real_solve(problem, t, x, guess_M)

    monkeypatch.setattr(hodograph, "solve_u_info", failing_after_first)
    rows = hodograph.solve_field(problem, [0.0, 0.1, 0.2, 0.3], [np.array([0.2])])
    assert [r.status for r in rows] == ["OK", status, "POST_BLOWUP", "POST_BLOWUP"]
    assert rows[0].u is not None
    assert all(r.u is None and r.iters == 0 for r in rows[1:])
    assert calls == [0.0, 0.1]
