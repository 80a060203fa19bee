"""Characteristic oracle: closed-form flow, RK4 convergence, caustic detection."""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import degenerate, matops, model, oracle
from hodoflow.errors import ConfigError, OverflowMatrixError
from reference_routes import pde_residual, rk4_flow


def test_exact_flow_t0_identity():
    spec = model.coriolis2d_spec(1.3, g=np.array([0.5, -0.2]))
    res = oracle.exact_flow(spec, [1.0, 2.0], [0.3, -0.4], 0.0)
    assert np.allclose(res.x, [1.0, 2.0]) and np.allclose(res.u, [0.3, -0.4])


def test_exact_flow_composition():
    """Flowing t1 then t2 from the intermediate state equals flowing t1 + t2."""
    spec = model.ForceSpec(np.array([[0.4, 1.0], [-0.7, 0.2]]), np.array([0.1, -0.3]))
    x0, u0 = np.array([0.2, -1.0]), np.array([1.1, 0.5])
    one = oracle.exact_flow(spec, x0, u0, 0.7)
    two = oracle.exact_flow(spec, one.x, one.u, 0.5)
    direct = oracle.exact_flow(spec, x0, u0, 1.2)
    assert np.allclose(two.x, direct.x, atol=1e-12)
    assert np.allclose(two.u, direct.u, atol=1e-12)


def test_exact_flow_free_streaming():
    spec = model.ForceSpec(np.zeros((2, 2)), np.zeros(2))
    res = oracle.exact_flow(spec, [0.0, 0.0], [1.0, -2.0], 3.0)
    assert np.allclose(res.x, [3.0, -6.0]) and np.allclose(res.u, [1.0, -2.0])


def test_rk4_matches_exact_flow():
    spec = model.coriolis3d_spec(1.1, g_mag=0.4)
    x0, u0 = np.array([0.1, -0.2, 0.5]), np.array([0.7, 0.3, -0.6])
    exact = oracle.exact_flow(spec, x0, u0, 1.5)
    rk = rk4_flow(spec, x0, u0, 1.5, dt=1e-3)
    assert np.max(np.abs(rk.x - exact.x)) < 1e-10
    assert np.max(np.abs(rk.u - exact.u)) < 1e-10


def test_rk4_fourth_order_convergence():
    spec = model.ForceSpec(np.array([[0.3, 0.8], [-0.5, -0.1]]), np.array([0.2, 0.1]))
    x0, u0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    exact = oracle.exact_flow(spec, x0, u0, 2.0)

    def err(dt):
        rk = rk4_flow(spec, x0, u0, 2.0, dt=dt)
        return np.max(np.abs(np.concatenate([rk.x - exact.x, rk.u - exact.u])))

    e1, e2 = err(0.02), err(0.01)
    ratio = e1 / e2
    assert 12.0 < ratio < 20.0, f"RK4 halving ratio {ratio}, expected about 16"


def test_rk4_accepts_callable_force():
    calls = []

    def force(s, x, u):
        calls.append(s)
        return np.array([0.0])

    res = rk4_flow(force, [0.0], [1.0], 1.0, dt=0.25)
    assert np.allclose(res.x, [1.0]) and calls, "callable force was not used"


def test_flow_jacobian_det_starts_at_one():
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    spec = model.ForceSpec(np.zeros((1, 1)), np.zeros(1))
    assert oracle.flow_jacobian_det(spec, data, np.array([0.0]), 0.0) == pytest.approx(1.0)


def test_first_caustic_time_free_tanh():
    """Free 1D tanh: the map x0 + t u0(x0) folds first at t = -1/min u0' = 1/(mu kappa)."""
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    spec = model.ForceSpec(np.zeros((1, 1)), np.zeros(1))
    t_c = oracle.first_caustic_time(spec, data, np.array([0.0]), t_max=3.0)
    assert t_c == pytest.approx(1.0, abs=1e-8), f"caustic at {t_c}, expected 1"
    # a point away from the steepest slope folds strictly later
    t_off = oracle.first_caustic_time(spec, data, np.array([0.8]), t_max=10.0)
    assert t_off is not None and t_off > t_c + 0.1


def test_first_caustic_time_none_when_certified_absent():
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    spec = model.ForceSpec(np.array([[-2.0]]), np.zeros(1))
    assert oracle.first_caustic_time(spec, data, np.array([0.0]), t_max=20.0) is None


def _reference_caustic(spec, data, x0, t_max, step=1e-2, tol=1e-10):
    """Node-by-node sign scan of flow_jacobian_det, then bisection of the first bracket."""
    f_prev, t_prev = oracle.flow_jacobian_det(spec, data, x0, 0.0), 0.0
    for i in range(1, int(np.ceil(t_max / step)) + 1):
        t = min(i * step, t_max)
        f = oracle.flow_jacobian_det(spec, data, x0, t)
        if f == 0.0:
            return t
        if f_prev * f < 0.0:
            a, b, fa = t_prev, t, f_prev
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = oracle.flow_jacobian_det(spec, data, x0, m)
                if fm == 0.0:
                    return m
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            return 0.5 * (a + b)
        t_prev, f_prev = t, f
    return None


def _c3d_rotated():
    """Rotated force and rotated-frame data of the coriolis3d compare preset."""
    basis = degenerate.coriolis3d_basis(1.2)
    spec = degenerate.rotated_spec(model.coriolis3d_spec(1.2, g_mag=0.5), basis)
    data = model.make_data("separable", components=[
        ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
        ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
        ("gauss1d", {"eta": 0.7, "kappa": 0.8}),
    ])
    return spec, data


@pytest.mark.parametrize("case", ["tanh1d", "coriolis3d"])
def test_first_caustic_time_matches_scalar_scan(case):
    """The tabulated scan gives the node-by-node scan's caustic: both None, or
    times within 1e-10."""
    rng = np.random.default_rng(12)
    if case == "tanh1d":
        data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
        runs = [(model.ForceSpec(np.array([[a]]), np.zeros(1)), np.array([x]), 3.0)
                for a in (0.0, 0.6, -0.4, -2.0) for x in (0.0, 0.8, -1.5)]
    else:
        spec, data = _c3d_rotated()
        box = data.sample_box()
        runs = [(spec, rng.uniform(box[:, 0], box[:, 1]), 3.0) for _ in range(10)]
    found = 0
    for spec, x0, t_max in runs:
        got = oracle.first_caustic_time(spec, data, x0, t_max=t_max)
        ref = _reference_caustic(spec, data, x0, t_max)
        assert (got is None) == (ref is None), f"x0={x0}: {got} vs {ref}"
        if ref is not None:
            assert abs(got - ref) <= 1e-10, f"x0={x0}: {got!r} vs {ref!r}"
            found += 1
    assert 0 < found < len(runs), (found, len(runs))


def test_first_caustic_time_overflow_order():
    """A = 800 overflows e^{tA} past t ~ 0.887: a caustic before that is returned
    (the scan's first chunk holds both), no caustic before it raises."""
    spec = model.ForceSpec(np.array([[800.0]]), np.zeros(1))
    falling = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    t_c = oracle.first_caustic_time(spec, falling, np.array([0.0]), t_max=2.0)
    assert t_c == pytest.approx(np.log1p(800.0) / 800.0, abs=1e-10)
    rising = model.make_data("gauss1d", eta=1.0, kappa=1.0, branch=-1)
    with pytest.raises(OverflowMatrixError):
        oracle.first_caustic_time(spec, rising, np.array([-0.5]), t_max=2.0)
    with pytest.raises(OverflowMatrixError):
        _reference_caustic(spec, rising, np.array([-0.5]), 2.0)


def test_pde_residual_on_exact_solution():
    """The implicit solver's field satisfies u_t + (u.grad)u = g + Au pointwise."""
    from hodoflow import hodograph

    spec = model.ForceSpec(np.array([[1.0]]), np.array([1.0]))
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    problem = model.HodographProblem(spec, data)

    def u_field(t, x):
        return hodograph.solve_u(problem, t, x).u

    for t, x in [(0.1, -0.4), (0.25, 0.3), (0.4, 1.0)]:
        res = pde_residual(u_field, spec, t, np.array([x]))
        assert np.max(np.abs(res)) < 1e-5, f"PDE residual {res} at (t={t}, x={x})"


def _tanh_runs():
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    x0 = np.array([[0.0], [0.8], [-1.5], [2.5], [-0.3]])
    return [(model.ForceSpec(np.array([[a]]), np.zeros(1)), data, x0) for a in (0.0, 0.6, -0.4)]


@pytest.mark.parametrize("case", ["tanh1d", "coriolis3d"])
def test_caustic_times_match_row_calls(case):
    """The stacked screen, every row with its own t_max, against
    first_caustic_time row by row: the same None/NaN pattern and times within
    1e-10, with rows that end before, inside and after a caustic."""
    rng = np.random.default_rng(8)
    if case == "tanh1d":
        runs = _tanh_runs()
    else:
        spec, data = _c3d_rotated()
        box = data.sample_box()
        runs = [(spec, data, rng.uniform(box[:, 0], box[:, 1], size=(12, 3)))]
    found = missed = 0
    for spec, data, x0 in runs:
        t_max = rng.uniform(0.0, 3.2, size=len(x0))
        got = oracle.caustic_times(spec, data, x0, t_max)
        assert got.shape == (len(x0),)
        for g, x, t in zip(got, x0, t_max):
            ref = oracle.first_caustic_time(spec, data, x, t_max=t)
            assert np.isnan(g) == (ref is None), (x, t, g, ref)
            if ref is not None:
                assert abs(g - ref) <= 1e-10 and g <= t
                found += 1
            else:
                missed += 1
    assert found and missed


def test_caustic_times_span_several_chunks():
    """Rows scanned past one _SCAN_CHUNK of steps meet the row calls too."""
    spec, data, x0 = _tanh_runs()[2]  # A = -0.4: late caustics or none
    t_max = np.array([2.0, 4.0, 6.0, 9.0, 9.5])
    got = oracle.caustic_times(spec, data, x0, t_max)
    for g, x, t in zip(got, x0, t_max):
        ref = oracle.first_caustic_time(spec, data, x, t_max=t)
        assert (ref is None and np.isnan(g)) or abs(g - ref) <= 1e-10
    assert np.isfinite(got).any() and np.isnan(got).any()


def _counting_tables(monkeypatch):
    """Patch matops.time_table to record ("build", k) for every evaluator it
    builds and (k, shape of ts) for every evaluator call; the record."""
    calls, real_table = [], matops.time_table

    def counting(A, k):
        calls.append(("build", k))
        table = real_table(A, k)

        def counted(ts):
            calls.append((k, np.shape(ts)))
            return table(ts)
        return counted

    monkeypatch.setattr(matops, "time_table", counting)
    return calls


def test_one_chunk_caustic_screen_is_one_table_call(monkeypatch):
    """A screen whose scan fits one _SCAN_CHUNK and brackets no row makes one
    time_table(A, 1) evaluator call: its first chunk of nodes and the end
    nodes t_max in one stack, split.  The rising flanks of the data (every
    Du0 entry positive, up to ~2.6) keep det(I + phi1 Du0) > 0 under the
    rotated force up to t = 1.3, but the norm bound clears none of the rows,
    so all of them are scanned."""
    spec, _ = _c3d_rotated()
    data = model.make_data("separable", components=[
        ("gauss1d", {"eta": 2.0, "kappa": 1.5, "branch": -1})] * 3)
    box = data.sample_box()
    x0 = np.random.default_rng(1).uniform(box[:, 0], box[:, 1], size=(24, 3))
    t_max = np.random.default_rng(2).uniform(0.9, 1.3, size=24)
    assert not oracle._caustic_free(spec.A, oracle._u0_jacobian(data, x0), t_max).any()
    calls = _counting_tables(monkeypatch)
    got = oracle.caustic_times(spec, data, x0, t_max)
    assert np.isnan(got).all()
    nodes = int(np.ceil(t_max.max() / oracle._SCAN_STEP))
    assert nodes < oracle._SCAN_CHUNK and calls == [("build", 1), (1, (nodes + 24,))]


def test_certified_caustic_screen_makes_no_table_call(monkeypatch):
    """The compare-3d screen: 24 rotated-frame samples at t_max in [0.9, 1.3],
    before the data's t* ~ 1.389.  With the skew rotated force (log-norm bound
    0) and ||Du0||_2 <= 1/1.389, every row is certified caustic-free by the
    norm bound, so no time_table evaluator is built or called."""
    spec, data = _c3d_rotated()
    box = data.sample_box()
    x0 = np.random.default_rng(1).uniform(box[:, 0], box[:, 1], size=(24, 3))
    t_max = np.random.default_rng(2).uniform(0.9, 1.3, size=24)
    calls = _counting_tables(monkeypatch)
    got = oracle.caustic_times(spec, data, x0, t_max)
    assert np.isnan(got).all() and calls == []


def _random_forces(rng, n):
    """Seeded n x n forces by kind: skew, symmetric, non-normal (a large
    entry above a stable diagonal) and with a positive log-norm."""
    B = rng.normal(size=(n, n))
    return {"skew": 1.5 * (B - B.T), "symmetric": 0.5 * (B + B.T),
            "non-normal": 3.0 * np.triu(B, 1) - 0.5 * np.eye(n),
            "positive": 0.5 * B + 0.8 * np.eye(n)}


_SOUNDNESS_DATA = [
    ("tanh1d", {"mu": 1.0, "kappa": 1.0}),
    ("tanh2d", {"eps": 0.5}),
    ("gauss2d_coriolis", {"amplitude": 1.0}),
    ("separable", {"components": [("tanh1d", {"mu": 0.4, "kappa": 0.9}),
                                  ("gauss1d", {"eta": 0.6, "kappa": 1.1})]}),
    ("separable", {"components": [("tanh1d", {"mu": 0.8, "kappa": 0.9}),
                                  ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
                                  ("gauss1d", {"eta": 0.7, "kappa": 0.8, "branch": -1})]}),
]


@pytest.mark.parametrize("family, params", _SOUNDNESS_DATA,
                         ids=["tanh1d", "tanh2d", "gauss2d_coriolis", "separable2d",
                              "separable3d"])
def test_caustic_free_rows_are_sound(monkeypatch, family, params):
    """Every row the norm bound certifies has a positive LAPACK
    det(I + phi1 Du0) on 400 nodes up to its t_max, and caustic_times gives
    NaN for it; the screen's output is bit for bit the one of a scan of
    every row.  Seeded random forces of four kinds, random x0 and t_max:
    some rows certify and some do not."""
    rng = np.random.default_rng(43)
    data = model.make_data(family, **params)
    n, box = data.dim, data.sample_box()
    certified = scanned = 0
    for kind, A in _random_forces(rng, n).items():
        spec = model.ForceSpec(A, np.zeros(n))
        x0 = rng.uniform(box[:, 0], box[:, 1], size=(30, n))
        t_max = rng.uniform(0.0, 3.0, size=30)
        Ju0 = oracle._u0_jacobian(data, x0)
        free = oracle._caustic_free(A, Ju0, t_max)
        got = oracle.caustic_times(spec, data, x0, t_max)
        table = matops.time_table(A, 1)
        for i in np.flatnonzero(free):
            P = table(np.linspace(0.0, t_max[i], 401)[1:])[1]
            assert (np.linalg.det(np.eye(n) + P @ Ju0[i]) > 0.0).all(), (kind, i)
        assert np.isnan(got[free]).all(), kind
        with monkeypatch.context() as m:
            m.setattr(oracle, "_caustic_free", lambda A, Ju0, t_max: np.zeros(len(Ju0), bool))
            assert np.array_equal(oracle.caustic_times(spec, data, x0, t_max), got,
                                  equal_nan=True), kind
        certified, scanned = certified + free.sum(), scanned + (~free).sum()
    assert certified and scanned, (certified, scanned)


def test_caustic_free_is_tight_for_free_tanh():
    """Falling tanh1d under A = 0: det = 1 + t u0'(x0), so the bound is the
    exact horizon.  A row certifies exactly when t_max |u0'(x0)| <= 1 -
    _FREE_DELTA, and its caustic at -1/u0'(x0) lies within a factor
    1/(1 - _FREE_DELTA) of that horizon."""
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    spec = model.ForceSpec(np.zeros((1, 1)), np.zeros(1))
    x0 = np.linspace(-2.0, 2.0, 41)[:, None]
    slope = -1.0 / np.cosh(x0[:, 0]) ** 2  # u0' = -mu kappa sech^2(kappa x)
    horizon = (1.0 - oracle._FREE_DELTA) / np.abs(slope)
    Ju0 = oracle._u0_jacobian(data, x0)
    assert oracle._caustic_free(spec.A, Ju0, horizon * (1.0 - 1e-9)).all()
    assert not oracle._caustic_free(spec.A, Ju0, horizon * (1.0 + 1e-9)).any()
    caustic = oracle.caustic_times(spec, data, x0, 1.5 * horizon)
    np.testing.assert_allclose(caustic, -1.0 / slope, rtol=1e-9)
    assert (horizon < caustic).all()
    assert (caustic <= horizon / (1.0 - oracle._FREE_DELTA) * (1.0 + 1e-9)).all()


@pytest.mark.parametrize("t", [1.0e20, np.inf, np.nan])
def test_caustic_screen_past_its_step_count_is_refused(t):
    """A row to scan whose t_max is not finite or takes 2**63 or more scan
    steps raises ConfigError instead of leaving the screen silently; a
    certified row that far (u0' ~ 6e-24, on the flat tail of a Gaussian
    under A = 0) needs no scan."""
    spec = model.coriolis2d_spec(1.0)
    data = model.make_data("tanh2d", eps=0.5)
    x0 = np.array([[0.1, -0.2], [0.3, 0.4]])
    with pytest.raises(ConfigError, match="t_range"):
        oracle.caustic_times(spec, data, x0, np.array([1.0, t]))
    with pytest.raises(ConfigError, match="t_range"):
        oracle.first_caustic_time(spec, data, x0[0], t_max=t)
    flat = model.make_data("gauss1d", eta=1.0, kappa=1.0)
    free = model.ForceSpec(np.zeros((1, 1)), np.zeros(1))
    assert oracle.first_caustic_time(free, flat, np.array([7.5]), t_max=1.0e20) is None


def test_caustic_times_overflow_order():
    """A = 800 overflows phi1 past t ~ 0.887 on the shared nodes.  Rows with a
    caustic before that return it; a rising row raises only when its own
    t_max reaches the overflow."""
    spec = model.ForceSpec(np.array([[800.0]]), np.zeros(1))
    falling = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    x0 = np.array([[0.0], [1.0], [-2.0], [3.0]])
    got = oracle.caustic_times(spec, falling, x0, np.array([2.0, 1.5, 2.0, 0.5]))
    ref = [oracle.first_caustic_time(spec, falling, x, t_max=2.0) for x in x0]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10)
    assert got[0] == pytest.approx(np.log1p(800.0) / 800.0, abs=1e-10)
    rising = model.make_data("gauss1d", eta=1.0, kappa=1.0, branch=-1)
    xr = np.array([[-0.5], [-1.0]])
    assert np.isnan(oracle.caustic_times(spec, rising, xr, np.array([0.5, 0.8]))).all()
    with pytest.raises(OverflowMatrixError):
        oracle.caustic_times(spec, rising, xr, np.array([0.5, 2.0]))


def test_stacked_exact_flow_matches_row_calls():
    """exact_flow with one time per row equals the scalar calls to rounding."""
    spec = model.ForceSpec(np.array([[0.4, 1.0], [-0.7, 0.2]]), np.array([0.1, -0.3]))
    rng = np.random.default_rng(1)
    x0, u0, t = rng.normal(size=(7, 2)), rng.normal(size=(7, 2)), rng.uniform(-1.0, 3.0, 7)
    flow = oracle.exact_flow(spec, x0, u0, t)
    for i in range(7):
        one = oracle.exact_flow(spec, x0[i], u0[i], t[i])
        np.testing.assert_allclose(flow.x[i], one.x, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(flow.u[i], one.u, rtol=1e-14, atol=1e-14)


def test_coriolis3d_axis_entries_are_exact():
    """The coriolis3d force rotates about the z axis and leaves z decoupled, so
    e^{tA}, phi1 and phi2 have the z entries 1, t and t^2/2 and no coupling.
    The k = 2 table that _newton and exact_flow take (time_row, every block
    from the row at (tA, 1) times t^j) gives them exactly at 2000 t in
    [1.3, 1.45], past the data's t* ~ 1.389, and so does the exact flow of
    a particle launched along z; a table at (A, t) missed P1 = t and
    P2 = t^2/2 in 599 and 1111 of these rows."""
    spec = model.coriolis3d_spec(1.2, g_mag=0.5)
    ts = np.linspace(1.3, 1.45, 2000)
    E, P1, P2 = matops.time_row(spec.A, ts, 2)
    for block, axis in ((E, np.ones_like(ts)), (P1, ts), (P2, ts * ts / 2)):
        assert np.array_equal(block[:, 2, 2], axis)
        assert not block[:, 2, :2].any() and not block[:, :2, 2].any()
    flow = oracle.exact_flow(spec, np.zeros((ts.size, 3)), np.tile([0.0, 0.0, 1.0], (ts.size, 1)), ts)
    assert np.array_equal(flow.x[:, 2], ts - ts * ts / 4)
    assert np.array_equal(flow.u[:, 2], 1.0 - ts / 2)


def _c3d_table():
    """The compare-3d caustic table's inputs: phi1 of the rotated force on 130
    nodes of step 0.02 (past the data's t* ~ 1.389, so both signs occur), and
    J_{u0} at 24 seeded rotated-frame samples."""
    spec, data = _c3d_rotated()
    box = data.sample_box()
    x0 = np.random.default_rng(1).uniform(box[:, 0], box[:, 1], size=(24, 3))
    P = matops.time_table(spec.A, 1)(np.arange(1, 131) * 0.02)[1]
    return spec, data, x0, P, oracle._u0_jacobian(data, x0)


def test_flow_dets_match_per_matrix_lapack():
    """The GEMM-and-cofactor table against det(I + P[i] Ju0[j]) one matrix at
    a time: 1e-12 relative and the identical sign pattern."""
    _, _, _, P, Ju0 = _c3d_table()
    got = oracle._flow_dets(P, Ju0)
    ref = np.array([[np.linalg.det(np.eye(3) + p @ j) for j in Ju0] for p in P])
    assert got.shape == (130, 24)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    assert np.array_equal(np.sign(got), np.sign(ref))
    assert (ref < 0.0).any() and (ref > 0.0).any()


@pytest.mark.parametrize("block", [None, 300])
def test_flow_dets_blocks_stay_within_det_block(monkeypatch, block):
    """No stacked determinant of caustic_times holds more than _DET_BLOCK
    matrices, also when a small _DET_BLOCK splits the table into blocks; the
    screen keeps its caustics."""
    spec, data, x0, P, Ju0 = _c3d_table()
    t_max = np.full(len(x0), 2.6)
    full = oracle._flow_dets(P, Ju0)
    expected = oracle.caustic_times(spec, data, x0, t_max)
    if block is not None:
        monkeypatch.setattr(oracle, "_DET_BLOCK", block)
    shapes, calls = [], []
    real_det, real_flow_dets = matops.det, oracle._flow_dets

    def recording(A):
        shapes.append(A.shape)
        return real_det(A)

    def counting(P, Ju0):
        calls.append(len(P))
        return real_flow_dets(P, Ju0)

    monkeypatch.setattr(matops, "det", recording)
    monkeypatch.setattr(oracle, "_flow_dets", counting)
    split = oracle._flow_dets(P, Ju0)
    got = oracle.caustic_times(spec, data, x0, t_max)
    tables = [s for s in shapes if len(s) == 4]  # (nodes, samples, n, n) blocks
    assert all(np.prod(s[:-2]) <= oracle._DET_BLOCK for s in shapes)
    # one block per table at the default size, several at 300 matrices
    assert (len(tables) == len(calls)) == (block is None) and len(calls) >= 2
    assert np.all(np.abs(split - full) <= 1e-13 * np.abs(full))
    assert np.array_equal(np.isnan(got), np.isnan(expected)) and np.isfinite(got).any()
    assert np.nanmax(np.abs(got - expected)) <= 1e-10
