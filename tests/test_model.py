"""Force specs and initial-data families: inverses, Jacobians, domains, registry."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodoflow import model
from hodoflow.errors import ConfigError, DomainError, NotInvertibleError


def test_force_spec_shapes_and_rank():
    spec = model.ForceSpec(np.diag([1.0, 0.0]), np.zeros(2))
    assert spec.n == 2
    assert spec.rank == 1
    assert spec.is_degenerate


def test_force_spec_rejects_bad_g():
    with pytest.raises(ConfigError):
        model.ForceSpec(np.eye(2), np.zeros(3))


def test_coriolis2d_structure():
    spec = model.coriolis2d_spec(1.5)
    assert np.allclose(spec.A, 1.5 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(spec.A + spec.A.T, 0.0)


def test_coriolis3d_scalar_is_z_axis():
    spec = model.coriolis3d_spec(2.0, g_mag=0.5)
    assert np.allclose(spec.A, 2.0 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(spec.g, [0.0, 0.0, -0.5])
    assert spec.rank == 2 and spec.is_degenerate


def test_coriolis3d_vector_skew_and_rank():
    spec = model.coriolis3d_spec([0.3, -1.1, 0.7])
    assert np.allclose(spec.A, -spec.A.T, atol=1e-14), "Coriolis matrix must be skew"
    assert spec.rank == 2, "3D rotation generator has a one-dimensional kernel"


FAMILY_CASES = [
    ("tanh1d", {"mu": 1.2, "kappa": 0.7}),
    ("gauss1d", {"eta": 0.9, "kappa": 1.3}),
    ("gauss1d", {"eta": 0.9, "kappa": 1.3, "branch": -1}),
    ("tanh2d", {"eps": 0.5}),
    ("gauss2d_coriolis", {"amplitude": 0.8}),
    ("gauss2d_coriolis", {"amplitude": 0.8, "sx": -1, "sy": 1}),
    ("linear", {"R": [[0.9, 0.2], [-0.1, 1.1]]}),
]


@pytest.mark.parametrize("family,params", FAMILY_CASES)
def test_phi_inverts_u0(family, params):
    data = model.make_data(family, **params)
    box = data.sample_box()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(box[:, 0], box[:, 1])
        M = data.u0(x)
        assert data.in_domain(M), f"{family}: u0({x}) = {M} left the M-domain"
        back = data.phi(M)
        assert np.allclose(back, x, atol=1e-9), f"{family}: phi(u0(x)) != x at {x}"


@pytest.mark.parametrize("family,params", FAMILY_CASES)
def test_phi_jacobian_matches_finite_differences(family, params):
    data = model.make_data(family, **params)
    box = data.sample_box()
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(box[:, 0], box[:, 1])
        M = data.u0(x)
        J = data.phi_jacobian(M)
        n = M.size
        J_fd = np.zeros((n, n))
        for j in range(n):
            dm = np.zeros(n)
            dm[j] = h
            J_fd[:, j] = (data.phi(M + dm) - data.phi(M - dm)) / (2 * h)
        assert np.allclose(J, J_fd, atol=5e-6), f"{family}: Jacobian off at M={M}"


def test_tanh1d_profile_shape():
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    # decreasing profile with limits 2*mu and 0
    assert data.u0(np.array([-50.0]))[0] == pytest.approx(2.0, abs=1e-12)
    assert data.u0(np.array([50.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert data.u0(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-14)


def test_gauss1d_branch_domains():
    plus = model.make_data("gauss1d", eta=1.0, kappa=1.0)
    minus = model.make_data("gauss1d", eta=1.0, kappa=1.0, branch=-1)
    assert plus.phi(np.array([0.5]))[0] > 0
    assert minus.phi(np.array([0.5]))[0] < 0


def test_constant_data_not_invertible():
    data = model.make_data("constant", c=[1.0, 2.0])
    with pytest.raises(NotInvertibleError):
        data.phi(np.array([1.0, 2.0]))


def test_separable_composes_components():
    data = model.make_data(
        "separable",
        components=[("tanh1d", {"mu": 1.0, "kappa": 1.0}), ("gauss1d", {"eta": 0.5, "kappa": 2.0})],
    )
    assert data.dim == 2
    x = np.array([0.3, 0.7])
    u = data.u0(x)
    assert np.allclose(data.phi(u), x, atol=1e-10)
    assert np.allclose(data.phi_jacobian(u), np.diag(np.diag(data.phi_jacobian(u))))


def test_make_data_unknown_family():
    with pytest.raises(ConfigError):
        model.make_data("nosuch")


def test_problem_dimension_mismatch():
    with pytest.raises(ConfigError):
        model.HodographProblem(model.coriolis2d_spec(1.0), model.make_data("tanh1d", mu=1.0, kappa=1.0))


@pytest.mark.parametrize("knob", [{"newton_tol": float("nan")}, {"newton_max_iter": -1},
                                  {"grid_num": 0}], ids=["tol-nan", "max-iter-negative", "grid-zero"])
def test_problem_solver_knobs_must_be_positive_and_finite(knob):
    """The Python API applies the CLI's rule for solver knobs: a NaN tolerance
    or a non-positive budget is a ConfigError, not a silent NO_CONVERGENCE."""
    with pytest.raises(ConfigError, match=next(iter(knob))):
        model.HodographProblem(model.coriolis2d_spec(1.0), model.make_data("gauss2d_coriolis"), **knob)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.2, max_value=3.0))
def test_tanh1d_inverse_property(mu, kappa):
    data = model.make_data("tanh1d", mu=mu, kappa=kappa)
    for x in (-1.0, -0.25, 0.0, 0.6, 1.4):
        got = data.phi(data.u0(np.array([x])))[0]
        assert abs(got - x) < 1e-8, f"phi(u0({x})) = {got} for mu={mu}, kappa={kappa}"


def test_force_spec_rank_computed_once(monkeypatch):
    """rank is an SVD; is_degenerate reads the cached value, not a fresh one."""
    calls = []
    real_rank = model.matops.rank
    monkeypatch.setattr(model.matops, "rank", lambda A: calls.append(1) or real_rank(A))
    spec = model.coriolis3d_spec(1.2)
    for _ in range(5):
        assert spec.is_degenerate and spec.rank == 2
    assert len(calls) == 1


#: one instance of every registered family for the stacked-call property
STACK_CASES = {
    "tanh1d": {"mu": 1.2, "kappa": 0.7},
    "gauss1d": {"eta": 0.9, "kappa": 1.3, "branch": -1},
    "tanh2d": {"eps": 0.5},
    "gauss2d_coriolis": {"amplitude": 0.8, "sx": -1, "sy": 1},
    "linear": {"R": [[0.9, 0.2], [-0.1, 1.1]]},
    "constant": {"c": [0.3, -0.2]},
    "separable": {"components": [("tanh1d", {"mu": 1.0, "kappa": 1.0}),
                                 ("gauss1d", {"eta": 0.5, "kappa": 2.0})]},
}


def test_stack_cases_cover_every_family():
    assert set(STACK_CASES) == set(model.FAMILIES)


@pytest.mark.parametrize("family", sorted(STACK_CASES))
@settings(max_examples=40, deadline=None)
@given(unit=st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), min_size=1, max_size=6))
def test_stacked_family_calls_match_row_calls(family, unit):
    """On a (k, n) stack, in_domain equals the row-by-row calls exactly and phi /
    phi_jacobian agree to 1e-15 relative; (n,) calls keep their shapes.  Points
    are drawn from the domain's bounding box widened by 10%, so some lie outside."""
    data = model.make_data(family, **STACK_CASES[family])
    n = data.dim
    if family == "constant":
        lo, hi = np.full(n, -1.0), np.ones(n)
    else:
        lo, hi = np.array([g[[0, -1]] for g in data.m_grids(2, inset=-0.1)]).T
    M = lo + (hi - lo) * np.array(unit)[:, :n]
    inside = data.in_domain(M)
    assert inside.dtype == bool and inside.shape == (len(M),)
    assert inside.tolist() == [data.in_domain(m) for m in M]
    assert all(type(data.in_domain(m)) is bool for m in M)
    if family == "constant":
        for call in (data.phi, data.phi_jacobian):
            for arg in (M, M[0]):
                with pytest.raises(NotInvertibleError):
                    call(arg)
        return
    pts = M[inside]
    if not len(pts):
        return
    with np.errstate(all="ignore"):
        phi, jac = data.phi(pts), data.phi_jacobian(pts)
        phi_rows = [data.phi(m) for m in pts]
        jac_rows = [data.phi_jacobian(m) for m in pts]
    assert phi.shape == (len(pts), n) and jac.shape == (len(pts), n, n)
    assert all(p.shape == (n,) for p in phi_rows) and all(j.shape == (n, n) for j in jac_rows)
    np.testing.assert_allclose(phi, np.array(phi_rows), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(jac, np.array(jac_rows), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("family", sorted(STACK_CASES))
def test_stacked_u0_matches_row_calls(family):
    """u0 on a (k, n) stack of sample-box points equals the row-by-row (n,)
    calls exactly; a stack with one row off the profile's branch raises as
    that row alone does."""
    data = model.make_data(family, **STACK_CASES[family])
    box = data.sample_box()
    X = np.random.default_rng(4).uniform(box[:, 0], box[:, 1], size=(9, len(box)))
    stacked = data.u0(X)
    rows = [data.u0(x) for x in X]
    assert stacked.shape == X.shape and all(r.shape == (len(box),) for r in rows)
    assert np.array_equal(stacked, np.array(rows))
    assert data.u0(X[:1]).shape == (1, len(box))
    if family in ("gauss1d", "gauss2d_coriolis"):
        X[4] = -X[4]
        with pytest.raises(DomainError):
            data.u0(X[4])
        with pytest.raises(DomainError):
            data.u0(X)


@pytest.mark.parametrize("family", sorted(set(STACK_CASES) - {"constant"}))
def test_phi_jacobian_complex_step_matches_central_differences(family):
    """dJ/dM_k = Im J(M + i h e_k) / h with h = 1e-30, from one stacked complex
    call of phi_jacobian (as the blow-up extremum conditions take it), matches
    central differences of the real phi_jacobian at points of the domain, with
    no ComplexWarning; a real call still returns float64 with the bits of the
    row calls."""
    data = model.make_data(family, **STACK_CASES[family])
    box = data.sample_box()
    M = data.u0(np.random.default_rng(6).uniform(box[:, 0], box[:, 1], size=(8, len(box))))
    k, n = M.shape
    eye = np.eye(n)
    shifted = (M[:, None] + 1e-30j * eye).reshape(-1, n)
    dJ = data.phi_jacobian(shifted).imag.reshape(k, n, n, n) / 1e-30
    h = 1e-6 * np.maximum(np.abs(M), 1e-2)
    up, down = (data.phi_jacobian((M[:, None] + s * h[:, :, None] * eye).reshape(-1, n))
                .reshape(k, n, n, n) for s in (1.0, -1.0))
    central = (up - down) / (2.0 * h[:, :, None, None])
    scale = np.abs(dJ).max(axis=(1, 2, 3), keepdims=True)
    assert np.all(np.abs(dJ - central) <= 1e-6 * np.maximum(scale, 1.0)), (
        f"{family}: complex step off by {np.abs(dJ - central).max():.3e}")
    real = data.phi_jacobian(M)
    assert real.dtype == np.float64
    assert np.array_equal(real, np.array([data.phi_jacobian(m) for m in M]))


#: separable profiles of every 1D column form: both gauss1d flanks and tanh1d
#: (their domains are boxes, tested in one go), and with a 1x1 linear part,
#: which keeps its own domain test
SEPARABLE_PARTS = {
    "boxed": [("gauss1d", {"eta": 0.9, "kappa": 1.3}), ("tanh1d", {"mu": 1.2, "kappa": 0.7}),
              ("gauss1d", {"eta": 0.5, "kappa": 2.0, "branch": -1})],
    "with-linear": [("gauss1d", {"eta": 0.9, "kappa": 1.3}), ("linear", {"R": [[-0.8]]}),
                    ("tanh1d", {"mu": 1.2, "kappa": 0.7})],
}


def _by_component(data, call, X):
    """The components' own stacked (k, 1) calls on the columns of X, side by side."""
    return [getattr(c, call)(X[:, i : i + 1]) for i, c in enumerate(data.components)]


@pytest.mark.parametrize("parts", sorted(SEPARABLE_PARTS))
@pytest.mark.parametrize("shift", [0.0, 1e-30j], ids=["real", "complex-step"])
def test_separable_equals_its_components_bit_for_bit(parts, shift):
    """Separable u0, phi, phi_jacobian and in_domain equal the components'
    stacked (k, 1) and one-point (1,) calls bit for bit, in the dtype of the
    input: on real stacks and on the complex-step stacks of the blow-up
    extremum conditions (M + i h e_k, h = 1e-30)."""
    data = model.make_data("separable", components=SEPARABLE_PARTS[parts])
    n = data.dim
    box = data.sample_box()
    X = np.random.default_rng(9).uniform(box[:, 0], box[:, 1], size=(10, n))
    U = data.u0(X)
    assert np.array_equal(U, np.hstack(_by_component(data, "u0", X)))
    for x, u in zip(X, U):
        assert np.array_equal(data.u0(x), [c.u0(x[i : i + 1])[0]
                                           for i, c in enumerate(data.components)])
        assert np.array_equal(data.u0(x), u)
    M = (U[:, None] + shift * np.eye(n)).reshape(-1, n)
    phi, jac = data.phi(M), data.phi_jacobian(M)
    assert phi.dtype == jac.dtype == M.dtype
    assert np.array_equal(phi, np.hstack(_by_component(data, "phi", M)))
    diag = np.hstack([j[:, :, 0] for j in _by_component(data, "phi_jacobian", M)])
    assert np.array_equal(jac, diag[:, :, None] * np.eye(n))
    for m, p, j in zip(M, phi, jac):
        cols = [(c.phi(m[i : i + 1])[0], c.phi_jacobian(m[i : i + 1])[0, 0])
                  for i, c in enumerate(data.components)]
        assert np.array_equal(data.phi(m), [v for v, _ in cols])
        assert np.array_equal(data.phi_jacobian(m), np.diag([d for _, d in cols]))
    # in_domain on real points of the box widened by 10%, so some columns fall outside
    lo, hi = np.array([g[[0, -1]] for g in data.m_grids(2, inset=-0.1)]).T
    W = lo + (hi - lo) * np.random.default_rng(10).random((40, n))
    inside = data.in_domain(W)
    assert np.array_equal(inside, np.logical_and.reduce(_by_component(data, "in_domain", W)))
    assert inside.any() and not inside.all()
    assert [data.in_domain(w) for w in W] == [
        all(c.in_domain(w[i : i + 1]) for i, c in enumerate(data.components)) for w in W]


def test_separable_keeps_component_errors():
    """A gauss1d x on the wrong flank raises the component's own DomainError
    text from a Separable stack and from one point; a 1D constant part keeps
    its NotInvertibleError and its empty domain."""
    data = model.make_data("separable", components=SEPARABLE_PARTS["boxed"])
    box = data.sample_box()
    X = np.random.default_rng(11).uniform(box[:, 0], box[:, 1], size=(5, 3))
    X[3, 2] = -X[3, 2]  # the branch -1 flank takes x <= 0
    for arg, own in ((X, X[:, 2:3]), (X[3], X[3, 2:3])):
        with pytest.raises(DomainError) as got:
            data.u0(arg)
        with pytest.raises(DomainError) as ref:
            data.components[2].u0(own)
        assert str(got.value) == str(ref.value)
    rigid = model.make_data("separable", components=[("tanh1d", {}), ("constant", {"c": [0.4]})])
    x = np.array([[0.2, -1.0], [0.5, 3.0]])
    assert np.array_equal(rigid.u0(x)[:, 1], [0.4, 0.4])
    assert not rigid.in_domain(np.array([0.5, 0.4])) and not rigid.in_domain(x).any()
    for call in (rigid.phi, rigid.phi_jacobian):
        with pytest.raises(NotInvertibleError):
            call(x)
