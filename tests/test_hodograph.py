"""Implicit solver: Newton solve vs characteristics, integrals, field sweeps."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
import yaml

from hodoflow import cli, hodograph, matops, model, oracle
from hodoflow.errors import (
    DegenerateMatrixError,
    DomainExitError,
    JacobianSingularError,
    NoConvergenceError,
    SingularMatrixError,
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
    sample = hodograph.solve_u(problem, 0.6, np.array([1.3]))
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


@pytest.mark.parametrize("kind, tol", [
    ("const_I1", 1e-11), ("const_I2", 1e-9), ("const_M", 1e-8), ("const_N", 1e-6),
])
def test_closed_form_kinds_solve_the_pde(kind, tol):
    """Each closed-form field solves u_t + (u.grad)u = g + Au for an A of no
    special pattern and g != 0, to the central-difference error (h = 1e-4) of
    oracle.pde_residual, at times on both sides of t = 0."""
    spec = model.ForceSpec(np.array([[0.2, 1.1], [-0.9, -0.3]]), np.array([0.2, -0.4]))
    c = np.array([0.4, 0.1])
    field = lambda t, x: hodograph.closed_form(kind, spec, t, x, c)
    for t, x in [(0.3, [0.1, -0.2]), (0.7, [0.3, -0.5]), (1.2, [-0.6, 0.4]), (-0.5, [0.2, 0.9])]:
        res = oracle.pde_residual(field, spec, t, np.array(x))
        assert res <= tol, f"{kind} at t={t}, x={x}: residual {res:.3e}"


@pytest.mark.parametrize("kind", ["const_I2", "const_N"])
def test_closed_form_kinds_refuse_degenerate_A(kind):
    spec = model.coriolis3d_spec(1.0)
    with pytest.raises(DegenerateMatrixError, match=f"{kind} field needs invertible A"):
        hodograph.closed_form(kind, spec, 0.5, np.zeros(3), np.ones(3))


def test_closed_form_const_N_refuses_t_zero():
    spec = model.ForceSpec(np.array([[0.2, 1.1], [-0.9, -0.3]]), np.array([0.2, -0.4]))
    with pytest.raises(SingularMatrixError, match="singular at t = 0"):
        hodograph.closed_form("const_N", spec, 0.0, np.zeros(2), np.ones(2))


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
    _, _, status = hodograph.solve_field(problem, times, [np.array([1.0])])
    statuses = list(status[0])
    assert statuses[0] == "OK" and statuses[1] == "OK"
    first_bad = next(i for i, s in enumerate(statuses) if s != "OK")
    assert all(s == "POST_BLOWUP" for s in statuses[first_bad + 1:]), (
        f"track must stay dead after first failure: {statuses}"
    )


def test_constant_data_sweep_equals_closed_form_at_every_point_and_time():
    """Constant data is transported in closed form once per time and spread
    over the points; each cell is closed_form's u at that (point, time) bit for
    bit.  As many points as times, each distinct, so a sweep that spread the
    times over the points axis would still have the right shape."""
    spec = model.ForceSpec(np.array([[0.2, 1.1], [-0.9, -0.3]]), np.array([0.3, -0.7]))
    c = np.array([0.5, -0.25])
    problem = model.HodographProblem(spec, model.make_data("constant", c=c))
    times = [0.0, 0.35, 1.7]
    points = [np.array([0.1, 0.2]), np.array([-2.0, 3.0]), np.array([5.0, -1.0])]
    U, iters, status = hodograph.solve_field(problem, times, points)
    assert U.shape == (3, 3, 2)
    for i, x in enumerate(points):
        for j, t in enumerate(times):
            assert np.array_equal(U[i, j], hodograph.closed_form("const_M", spec, t, x, c))
    assert not iters.any() and (status == "OK").all()
    assert not np.array_equal(U[0, 1], U[0, 2]), "u must vary with t for this test to bite"


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
    _, iters, status = hodograph.solve_field(problem, times, [np.array([0.5, 0.5])])
    assert (status == "OK").all()
    late = iters[0, 2:].tolist()
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
    for t, M0 in [(0.2, np.array([0.3, -0.2])), (0.45, np.array([-0.5, 0.4]))]:
        # the x at which the particle launched with velocity M0 sits at time t
        x = problem.data.phi(M0) + matops.phi1(spec.A, t) @ M0 + matops.phi2(spec.A, t) @ spec.g
        M, _ = hodograph.solve_M(problem, t, x)
        u = hodograph.u_from_M(spec, t, M)
        assert np.max(np.abs(hodograph.residual_u(problem, t, x, u))) <= 1e-12
        assert np.max(np.abs(hodograph.residual_M(problem, t, x, M))) <= 1e-12
        u_off = u + np.array([1e-3, -2e-3])
        r_u = hodograph.residual_u(problem, t, x, u_off)
        r_M = hodograph.residual_M(problem, t, x, hodograph.m_from_u(spec, t, u_off))
        assert np.max(np.abs(r_u)) > 1e-6
        assert np.max(np.abs(r_u - r_M)) <= 1e-12


#: one track of a FIELD_CASES case that fails with each status: (case, point, statuses)
_FAILED_TRACKS = {
    "SINGULAR": ("linear", [0.3, -0.2], ["OK", "SINGULAR", "POST_BLOWUP"]),
    "NO_CONVERGENCE": ("tanh2d", [1.0, -0.5],
                       ["OK", "NO_CONVERGENCE", "POST_BLOWUP", "POST_BLOWUP", "POST_BLOWUP"]),
    "DOMAIN_EXIT": ("gauss1d", [0.5], ["OK", "OK", "DOMAIN_EXIT", "POST_BLOWUP", "POST_BLOWUP"]),
}


@pytest.mark.parametrize("status, error, text", [
    ("SINGULAR", JacobianSingularError,
     "Newton matrix singular at M=(0.123456789012, -0.2), t=0.5: the iterate sits on the "
     "blow-up set"),
    ("DOMAIN_EXIT", DomainExitError,
     "Newton iterate left the data domain at t=0.5 (last in-domain M=(0.123456789012, -0.2))"),
    ("NO_CONVERGENCE", NoConvergenceError,
     "no convergence at t=0.5 after 3 iterations (residual 1.000e-03)"),
])
def test_newton_error_text_is_plain_floats(status, error, text):
    """A failed status's message writes t and each coordinate of M as its
    float repr, whatever numpy's print options, for a numpy scalar t and an
    array M alike; the error keeps M itself."""
    M = np.array([0.123456789012, -0.2])
    with np.printoptions(precision=3, floatmode="fixed"):
        exc = hodograph.newton_error(status, np.float64(0.5), M, 3, 1e-3)
    assert type(exc) is error and str(exc) == text
    assert np.array_equal(exc.M, M) and exc.M is not M


@pytest.mark.parametrize("error, status", [
    (JacobianSingularError("singular"), "SINGULAR"),
    (NoConvergenceError("stalled"), "NO_CONVERGENCE"),
    (DomainExitError("left the domain"), "DOMAIN_EXIT"),
])
def test_solve_field_marks_the_failed_track_dead(monkeypatch, error, status):
    """A failed row status writes u = NaN and iters = 0, and every later time on
    that track is POST_BLOWUP without another solve; solve_M raises the
    status's error for the same row."""
    case, point, statuses = _FAILED_TRACKS[status]
    problem, times, _ = _field_problem(next(c for c in FIELD_CASES if c[0] == case))
    x = np.array(point)
    fail = next(j for j, st in enumerate(statuses) if st != "OK")
    real_solve = matops.solve_stacked
    solved = []

    def counting(A, B):
        solved.append(len(A))
        return real_solve(A, B)

    monkeypatch.setattr(matops, "solve_stacked", counting)
    U, iters, status = hodograph.solve_field(problem, times, [x])
    assert status[0].tolist() == statuses
    assert np.isfinite(U[0, :fail]).all()
    assert np.isnan(U[0, fail:]).all() and not iters[0, fail:].any()
    # the Newton steps of the whole sweep are those of the sweep cut at the failure
    steps, solved[:] = sum(solved), []
    hodograph.solve_field(problem, times[: fail + 1], [x])
    assert steps == sum(solved) > 0
    monkeypatch.undo()
    guess = None
    for t in times[:fail]:
        guess = hodograph.solve_M(problem, t, x, guess)[1].M
    with pytest.raises(type(error)):
        hodograph.solve_M(problem, times[fail], x, guess)


def _scan_guess_loop(problem, res_fn):
    """Reference: the point-by-point scan, first strict minimum of the finite values."""
    data = problem.data
    num = {1: 65, 2: 25}.get(data.dim, 9)
    mesh = np.meshgrid(*data.m_grids(num), indexing="ij")
    best, best_val = None, np.inf
    for M in np.stack([m.ravel() for m in mesh], axis=-1):
        if not data.in_domain(M):
            continue
        val = float(np.abs(res_fn(M)).max())
        if np.isfinite(val) and val < best_val:
            best, best_val = M.copy(), val
    return best


@pytest.mark.parametrize("family, params, spec, targets", [
    ("tanh1d", {"mu": 1.0, "kappa": 1.0}, model.ForceSpec(np.zeros((1, 1)), np.array([1.0])),
     [(1.0, [0.0]), (0.4, [-1.3]), (2.0, [2.5])]),
    ("tanh2d", {"eps": 0.5}, model.diag_spec([0.6, -0.6]),
     [(0.3, [0.2, -0.4]), (1.2, [1.0, 1.5]), (0.0, [-0.7, 0.1])]),
])
def test_scan_guess_picks_the_point_of_the_loop(family, params, spec, targets):
    """The array scan returns the loop's point: on real residuals, on all-equal
    values (the first in-domain point wins a tie) and past NaN values."""
    problem = model.HodographProblem(spec, model.make_data(family, **params))
    data = problem.data
    res_fns = [lambda Ms: np.ones_like(Ms),
               lambda Ms: np.where(Ms < 0.0, np.nan, (Ms - 0.3) ** 2)]
    for t, x in targets:
        P1, P2g = matops.phi1(spec.A, t), matops.phi2(spec.A, t) @ spec.g
        res_fns.append(lambda Ms, x=np.array(x): x - matops.matvec(P1, Ms) - P2g - data.phi(Ms))
    for res_fn in res_fns:
        want = _scan_guess_loop(problem, res_fn)
        got = hodograph._scan_guess(problem, res_fn)
        assert want is not None and np.array_equal(got, want), (got, want)


def _solve_M_loop(problem, t, x, guess_M=None):
    """Reference: the one-point damped Newton, written as a plain loop."""
    data = problem.data
    M = np.array(hodograph._default_guess(problem, x) if guess_M is None else guess_M, dtype=float)
    if not data.in_domain(M):
        M = data.clip_to_domain(M)
    P1 = matops.phi1(problem.spec.A, t)
    P2g = matops.phi2(problem.spec.A, t) @ problem.spec.g

    def res(Mv):
        return x - P1 @ Mv - P2g - data.phi(Mv)

    rnorm = float(np.abs(res(M)).max())
    stepped = rescued = False
    for it in range(1, problem.newton_max_iter + 1):
        if rnorm <= problem.newton_tol:
            return M, hodograph.NewtonInfo(iters=it - 1, M=M, residual_norm=rnorm)
        try:
            step = matops.solve(P1 + data.phi_jacobian(M), res(M))
        except SingularMatrixError:
            if not stepped and not rescued:
                rescued = True
                M_new = _scan_guess_loop(problem, res)
                if M_new is not None:
                    M, rnorm = M_new, float(np.abs(res(M_new)).max())
                    continue
            raise JacobianSingularError("singular") from None
        lam = 1.0
        for _ in range(hodograph._MAX_HALVINGS + 1):
            M_new = M + lam * step
            if data.in_domain(M_new):
                rn_new = float(np.abs(res(M_new)).max())
                if rn_new < rnorm or rn_new <= problem.newton_tol:
                    break
            lam *= 0.5
        else:
            if not data.in_domain(M + lam * 2.0 * step):
                raise DomainExitError("left the domain")
            raise NoConvergenceError("stalled")
        M, rnorm, stepped = M_new, rn_new, True
    if rnorm <= problem.newton_tol:
        return M, hodograph.NewtonInfo(iters=problem.newton_max_iter, M=M, residual_norm=rnorm)
    raise NoConvergenceError("iteration budget spent")


def _per_point_field(problem, times, points, solve):
    """Reference sweep: one solve per point and time, guess continued per track."""
    status_of = {JacobianSingularError: "SINGULAR", NoConvergenceError: "NO_CONVERGENCE",
                 DomainExitError: "DOMAIN_EXIT"}
    rows = []
    for x in points:
        guess, dead = None, False
        for t in times:
            if dead:
                rows.append((None, 0, "POST_BLOWUP"))
                continue
            try:
                M, info = solve(problem, t, x, guess)
            except tuple(status_of) as exc:
                rows.append((None, 0, status_of[type(exc)]))
                dead = True
                continue
            guess = info.M
            rows.append((hodograph.u_from_M(problem.spec, t, M), info.iters, "OK"))
    return rows


FIELD_CASES = [
    # free fall: the cold start u0(0) = 1 at t = 1 sits on the fold and is rescued
    ("tanh1d", model.ForceSpec(np.zeros((1, 1)), np.array([1.0])), {"mu": 1.0, "kappa": 1.0},
     50, [1.0, 1.5, 2.0], [[0.0], [-1.0], [1.0], [2.5]]),
    ("gauss1d", model.ForceSpec(np.array([[-0.8]]), np.array([0.3])), {"eta": 0.9, "kappa": 1.1},
     50, np.linspace(0.0, 2.0, 5), [[0.1], [0.5], [1.0], [1.4]]),
    # three iterations are too few once the times grow
    ("tanh2d", model.diag_spec([0.6, -0.6]), {"eps": 0.5},
     3, np.linspace(0.0, 2.0, 5), [[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5], [1.5, 1.5]]),
    # some rows converge on the last of four iterations
    ("gauss2d_coriolis", model.coriolis2d_spec(1.0), {"amplitude": 1.0},
     4, np.linspace(0.0, 0.9, 4), [[0.1, 0.16], [0.5, 0.3], [0.9, 0.9], [1.1, 0.5]]),
    # phi1 + R = (t - 1) I: the Newton matrix vanishes at t = 1
    ("linear", model.ForceSpec(np.zeros((2, 2)), np.zeros(2)), {"R": [[-1.0, 0.0], [0.0, -1.0]]},
     50, [0.5, 1.0, 1.5], [[0.3, -0.2], [1.0, 0.5]]),
    ("separable", model.diag_spec([0.4, -0.2]),
     {"components": [("tanh1d", {"mu": 1.0, "kappa": 1.0}), ("gauss1d", {"eta": 1.0, "kappa": 1.0})]},
     50, np.linspace(0.0, 2.0, 5), [[-1.0, 0.2], [0.0, 0.5], [1.0, 1.0], [2.0, 1.5]]),
]


def _field_problem(case):
    family, spec, params, max_iter, times, points = case
    problem = model.HodographProblem(spec, model.make_data(family, **params), newton_max_iter=max_iter)
    return problem, [float(t) for t in times], [np.array(p, dtype=float) for p in points]


@pytest.mark.parametrize("solve", [hodograph.solve_M, _solve_M_loop], ids=["solve_M", "loop"])
@pytest.mark.parametrize("case", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_solve_field_matches_per_point_solves(case, solve):
    """The batched sweep against per-point solve_M calls and against the plain
    one-point Newton loop: same status and iterations, u within 1e-13."""
    problem, times, points = _field_problem(case)
    U, iters, status = hodograph.solve_field(problem, times, points)
    ref = _per_point_field(problem, times, points, solve)
    assert list(zip(status.ravel(), iters.ravel().tolist())) == [(st, it) for _, it, st in ref]
    # point i and time j at [i, j]: ref is point-major
    assert U.shape == (len(points), len(times), problem.spec.n)
    assert iters.shape == status.shape == (len(points), len(times))
    for u_row, (u, _, _) in zip(U.reshape(-1, problem.spec.n), ref):
        if u is None:
            assert np.isnan(u_row).all()
        else:
            assert np.max(np.abs(u_row - u)) <= 1e-13


#: a track's times repeat and go back, so its queue length and iteration
#: counts differ from its neighbours' and the tracks fall out of step
_OUT_OF_STEP_TIMES = [0.0, 0.1, 0.1, 0.05, 0.25, 0.2, 0.4, 0.3, 0.6, 0.9]
_OUT_OF_STEP_CASES = [
    ("gauss2d_coriolis", model.coriolis2d_spec(1.0), {"amplitude": 1.0},
     [[0.1, 0.16], [0.3, 0.2], [0.5, 0.3], [0.6, 0.6], [0.9, 0.9], [1.1, 0.5], [0.2, 1.0], [1.2, 1.1]]),
    ("tanh2d", model.diag_spec([0.6, -0.6]), {"eps": 0.5},
     [[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5], [1.5, 1.5], [0.3, 0.8], [-0.6, -1.2]]),
]


@pytest.mark.parametrize("max_iter", range(1, 7))
@pytest.mark.parametrize("case", _OUT_OF_STEP_CASES, ids=[c[0] for c in _OUT_OF_STEP_CASES])
def test_solve_field_tracks_out_of_step_match_the_loop(case, max_iter):
    """Repeated and decreasing times under budgets of 1 to 6 iterations: the
    sweep gives the plain one-point loop's statuses and iterations, u within 1e-13."""
    family, spec, params, points = case
    problem = model.HodographProblem(spec, model.make_data(family, **params), newton_max_iter=max_iter)
    points = [np.array(p, dtype=float) for p in points]
    U, iters, status = hodograph.solve_field(problem, _OUT_OF_STEP_TIMES, points)
    ref = _per_point_field(problem, _OUT_OF_STEP_TIMES, points, _solve_M_loop)
    assert list(zip(status.ravel(), iters.ravel().tolist())) == [(st, it) for _, it, st in ref]
    for u_row, (u, _, _) in zip(U.reshape(-1, spec.n), ref):
        assert np.isnan(u_row).all() == (u is None)
        if u is not None:
            assert np.max(np.abs(u_row - u)) <= 1e-13


def test_sample_columns_text_equals_per_cell_formatting(tmp_path):
    """The CSV text of _sample_columns, which formats each time and point
    coordinate once, is the text of formatting every cell: with a -0.0
    coordinate, repeated times and unsolved (nan) rows."""
    family, spec, params, _ = _OUT_OF_STEP_CASES[1]
    problem = model.HodographProblem(spec, model.make_data(family, **params), newton_max_iter=4)
    points = np.array([[-0.0, 0.5], [0.0, -0.0], [1.5, 1.5], [-1.0, 0.0]])
    U, iters, status = hodograph.solve_field(problem, _OUT_OF_STEP_TIMES, points)
    out = tmp_path / "cols.csv"
    cli._emit(str(out), [], ["h"], cli._sample_columns(_OUT_OF_STEP_TIMES, points, U, iters, status))
    want = ["h"] + [",".join([cli._fmt(t), *map(cli._fmt, x),
                              *(["nan"] * 2 if status[i, j] != "OK" else map(cli._fmt, U[i, j])),
                              str(iters[i, j]), status[i, j]])
                    for i, x in enumerate(points) for j, t in enumerate(_OUT_OF_STEP_TIMES)]
    assert out.read_text().splitlines() == want
    assert {"-0.0", "nan"} <= {cell for line in want for cell in line.split(",")}
    assert set(status.ravel()) >= {"OK", "NO_CONVERGENCE", "POST_BLOWUP"}


#: tanh1d free flow (A = 0, g = 0), where the Newton step of each row ends
#: the damped update in a different way: (t, x, M0, status)
_LADDER_ROWS = [
    (0.3, -1.5, 0.2, "OK"),  # some step is refused at an in-domain length
    (1.5, -2.0, 0.4, "NO_CONVERGENCE"),  # no length decreases the residual
    (1.5, -2.0, 0.6, "DOMAIN_EXIT"),  # the shortest length leaves the domain
]


def _ladder_problem():
    return model.HodographProblem(model.ForceSpec(np.zeros((1, 1)), np.zeros(1)),
                                  model.make_data("tanh1d", mu=1.0, kappa=1.0))


def _phi_points(monkeypatch, data):
    """Record the points at which data.phi is evaluated, one per row."""
    points, real = [], data.phi

    def recording(M):
        points.extend(np.atleast_2d(M).copy())
        return real(M)

    monkeypatch.setattr(data, "phi", recording)
    return points


def test_ladder_takes_a_shorter_length_in_a_second_round(monkeypatch):
    """A row whose first in-domain step length fails the decrease test tries
    the next one in a second round: _newton evaluates the residual at the
    loop's points in the loop's order, so more evaluations than passes."""
    problem = _ladder_problem()
    t, x, m0, _ = _LADDER_ROWS[0]
    x, M0 = np.array([x]), np.array([m0])
    seen = _phi_points(monkeypatch, problem.data)
    M, _, iters, _, status = hodograph._newton(problem, np.full((1, 1), t), x[None], M0[None])
    got, seen[:] = list(seen), []
    M_ref, info = _solve_M_loop(problem, t, x, M0)
    # the loop evaluates its accepted point again to build the next step
    ref = [p for i, p in enumerate(seen) if i == 0 or not np.array_equal(p, seen[i - 1])]
    assert (status[0, 0], iters[0, 0]) == ("OK", info.iters)
    assert np.max(np.abs(M[0, 0] - M_ref)) <= 1e-13
    assert len(got) == len(ref) > 1 + info.iters, (len(got), info.iters)
    assert np.max(np.abs(np.array(got) - np.array(ref))) <= 1e-12


def test_ladder_smallest_length_decides_the_failure():
    """Rows solved together end OK, NO_CONVERGENCE and DOMAIN_EXIT, each as
    the one-point loop ends alone, the failures decided at the smallest step
    length before the iteration budget is spent."""
    problem = _ladder_problem()
    T = np.array([row[0] for row in _LADDER_ROWS])
    X = np.array([[row[1]] for row in _LADDER_ROWS])
    M0 = np.array([[row[2]] for row in _LADDER_ROWS])
    M, _, iters, _, status = hodograph._newton(problem, T[:, None], X, M0)
    M, iters, status = M[:, 0], iters[:, 0], status[:, 0]
    assert list(status) == [row[3] for row in _LADDER_ROWS]
    for i, (t, _, _, want) in enumerate(_LADDER_ROWS):
        if want == "OK":
            M_ref, info = _solve_M_loop(problem, t, X[i], M0[i])
            assert iters[i] == info.iters and np.max(np.abs(M[i] - M_ref)) <= 1e-13
            continue
        error = NoConvergenceError if want == "NO_CONVERGENCE" else DomainExitError
        with pytest.raises(error, match="stalled|left the domain"):
            _solve_M_loop(problem, t, X[i], M0[i])
        assert iters[i] < problem.newton_max_iter and problem.data.in_domain(M[i])


def _sweep_seed_1_config():
    """The solve-sweep benchmark config of seed 1: one seeded point in each cell
    of a 10 x 10 grid over [0.05, 1.2]^2, at 7 times in [0, 0.9]."""
    rng = np.random.default_rng(1)
    cells = np.stack(np.meshgrid(np.arange(10), np.arange(10), indexing="ij"), axis=-1).reshape(-1, 2)
    points = 0.05 + 1.15 * (cells + rng.uniform(size=cells.shape)) / 10
    return {
        "problem": {"preset": "coriolis2d", "omega": 1.0},
        "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
        "task": {"name": "solve", "times": {"start": 0.0, "stop": 0.9, "num": 7},
                 "points": [[float(a), float(b)] for a, b in points]},
    }


def test_sweep_newton_passes_stay_few(monkeypatch, tmp_path):
    """On the seed-1 sweep, one phi_jacobian call per batched Newton pass, at
    most 60 passes and at most 47 in_domain calls: 46 for the step lengths
    (one a pass), 1 for the cold start and
    none for the guesses of new times, which are in-domain roots (a schedule
    in which every time waits for its slowest track, and every halving for
    the slowest row, makes 98 and 790).  At most 60 phi calls: one for the
    cold start and about one a pass, as a row that moves on to its next
    time keeps the phi(M) of the round that accepted its root (evaluating
    it again there makes 81)."""
    calls = {"phi": 0, "phi_jacobian": 0, "in_domain": 0, "solve_stacked": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(model.Gauss2DCoriolis, "phi")
    counting(model.Gauss2DCoriolis, "phi_jacobian")
    counting(model.Gauss2DCoriolis, "in_domain")
    counting(matops, "solve_stacked")
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(_sweep_seed_1_config()))
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
    assert calls["phi_jacobian"] == calls["solve_stacked"], calls
    assert calls["phi_jacobian"] <= 60 and calls["in_domain"] <= 47, calls
    assert calls["phi"] <= 60, calls


def _count_lapack_solves(monkeypatch):
    """The calls to np.linalg.solve, as a list of their matrix orders n."""
    real, calls = np.linalg.solve, []

    def counting(A, B):
        calls.append(np.shape(A)[-1])
        return real(A, B)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_sweep_newton_steps_take_no_lapack_solve(monkeypatch, tmp_path):
    """Every 2x2 Newton system of the seed-1 sweep is cleared by the norm
    bound and solved by its adjugate in matops.solve_stacked: np.linalg.solve
    is never called on a 2x2 stack.  A compare run on the coriolis3d preset
    still solves its 3x3 Newton systems through LAPACK."""
    calls = _count_lapack_solves(monkeypatch)
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(_sweep_seed_1_config()))
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
    assert 2 not in calls, calls
    cfg_path.write_text(yaml.safe_dump({
        "problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
        "data": {"family": "separable", "components": [
            {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
            {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
            {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}},
        ]},
        "task": {"name": "compare", "num_samples": 6, "t_range": [0.9, 1.3],
                 "bound": 1.0e-8, "seed": 1},
    }))
    calls.clear()
    assert cli.main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "c.csv")]) == 0
    assert 3 in calls and 2 not in calls, calls


def _count_exact_cond(monkeypatch):
    """The calls to the exact matops._cond, as a list of their stack sizes."""
    real, calls = matops._cond, []

    def counting(A):
        calls.append(len(A))
        return real(A)

    monkeypatch.setattr(matops, "_cond", counting)
    return calls


def test_sweep_newton_matrices_need_no_exact_cond(monkeypatch, tmp_path):
    """Every Newton matrix of the seed-1 sweep is cleared by matops._cond_bound:
    the exact condition number is never computed."""
    calls = _count_exact_cond(monkeypatch)
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(_sweep_seed_1_config()))
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == []


@pytest.mark.parametrize("case, status", [("linear", "SINGULAR"), ("tanh1d", "OK")])
def test_singular_newton_matrices_still_take_the_exact_cond(monkeypatch, case, status):
    """A sweep whose Newton matrix vanishes (linear: SINGULAR) or whose cold
    start sits on the fold (tanh1d: rescued by _scan_guess, then OK) still
    reaches the exact matops._cond."""
    calls = _count_exact_cond(monkeypatch)
    _, _, got = hodograph.solve_field(*_field_problem(next(c for c in FIELD_CASES if c[0] == case)))
    assert status in set(got.ravel())
    assert calls


def test_field_cases_reach_every_status_and_a_rescue(monkeypatch):
    real_scan = hodograph._scan_guess
    rescues = []

    def spy(problem, res_fn):
        rescues.append(real_scan(problem, res_fn))
        return rescues[-1]

    monkeypatch.setattr(hodograph, "_scan_guess", spy)
    seen = set()
    for case in FIELD_CASES:
        _, _, status = hodograph.solve_field(*_field_problem(case))
        seen.update(status.ravel())
        if case[0] == "tanh1d":
            assert status[0, 0] == "OK" and len(rescues) == 1 and rescues[0] is not None
    assert seen == {"OK", "SINGULAR", "NO_CONVERGENCE", "DOMAIN_EXIT", "POST_BLOWUP"}


@pytest.mark.parametrize("case", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_newton_with_a_time_per_row_matches_one_time_calls(case):
    """_newton with a one-time queue per row, each row at its own time,
    against one call per row: the same statuses and iterations, M and U
    within 1e-12, U NaN exactly where the status is not OK."""
    problem, times, points = _field_problem(case)
    X = np.array([x for x in points for _ in times])
    T = np.array([[t] for _ in points for t in times])
    M0 = hodograph._default_guess(problem, X)
    M, U, iters, _, status = hodograph._newton(problem, T, X, M0)
    assert np.isnan(U[status != "OK"]).all() and np.isfinite(U[status == "OK"]).all()
    for i in range(len(X)):
        Mi, Ui, it, _, st = hodograph._newton(problem, T[i : i + 1], X[i : i + 1], M0[i : i + 1])
        assert (status[i, 0], iters[i, 0]) == (st[0, 0], it[0, 0]), (i, T[i], X[i])
        if st[0, 0] == "OK":
            assert np.max(np.abs(M[i, 0] - Mi[0, 0])) <= 1e-12
            assert np.max(np.abs(U[i, 0] - Ui[0, 0])) <= 1e-12


@pytest.mark.parametrize("case", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_newton_cold_start_is_the_default_guess(case):
    """_newton with no starting guesses has the bits of _newton started from
    _default_guess: M, U, iterations, residuals and statuses."""
    problem, times, points = _field_problem(case)
    X, T = np.array(points), np.tile(times, (len(points), 1))
    cold = hodograph._newton(problem, T, X)
    given = hodograph._newton(problem, T, X, hodograph._default_guess(problem, X))
    for a, b in zip(cold, given):
        same = a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
        assert a.dtype == b.dtype and a.shape == b.shape and same


def test_stacked_default_guess_matches_row_calls():
    """The stack guess equals the (n,) guesses, also when u0 refuses a row."""
    problem = model.HodographProblem(model.ForceSpec(np.zeros((1, 1)), np.zeros(1)),
                                     model.make_data("gauss1d", eta=0.9, kappa=1.1))
    X = np.array([[0.3], [-0.4], [1.2], [5.0]])
    rows = np.array([hodograph._default_guess(problem, x) for x in X])
    assert np.array_equal(hodograph._default_guess(problem, X), rows)
    assert rows[1, 0] == 0.45, "u0 is undefined at x < 0: the middle of (0, eta)"


def test_cold_start_off_u0_lies_in_a_curved_domain():
    """Where u0 refuses a point, the cold start lies in the data domain even
    when the middle of the domain box does not: gauss2d_coriolis's box
    middle (0.5, 0.5) is on the domain's edge M1 = M2, and a solve started
    there divided by zero in phi_jacobian.  The solve raises no warning; the
    refused point has no root on the (+, +) branch, so it ends DOMAIN_EXIT."""
    data = model.make_data("gauss2d_coriolis", amplitude=1.0)
    problem = model.HodographProblem(model.coriolis2d_spec(1.0), data)
    X = np.array([[-0.1, 0.5], [0.3, 0.4]])
    assert not data.in_domain(np.array([0.5, 0.5]))
    guess = hodograph._default_guess(problem, X)
    assert data.in_domain(guess).all()
    assert np.array_equal(guess[1], data.u0(X[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, status = hodograph.solve_field(problem, [0.0, 0.3], X)
    assert status.tolist() == [["DOMAIN_EXIT", "POST_BLOWUP"], ["OK", "DOMAIN_EXIT"]]
