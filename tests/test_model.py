"""Force specs and initial-data families: inverses, Jacobians, domains, registry."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodoflow import model
from hodoflow.errors import ConfigError, NotInvertibleError


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
