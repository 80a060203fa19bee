"""The solver contracts that callers outside the package read stay in place.

The benchmark's span tracer takes ``solve_M(...)[1].iters`` as an int, the
CLI writes ``solve_field``'s three arrays as CSV columns, and callers of
``matops.solve`` catch ``SingularMatrixError``; the stacked solve under both
flags a singular row without losing its neighbours.
"""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import hodograph, matops, model
from hodoflow.errors import SingularMatrixError

SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])


def test_solve_M_returns_an_array_and_newton_info_with_int_iters():
    problem = model.HodographProblem(model.coriolis2d_spec(0.8),
                                     model.make_data("gauss2d_coriolis", amplitude=0.3))
    out = hodograph.solve_M(problem, 0.3, np.array([0.4, 0.2]))
    assert isinstance(out, tuple) and len(out) == 2
    M, info = out
    assert isinstance(M, np.ndarray) and M.shape == (2,)
    assert isinstance(info, hodograph.NewtonInfo)
    assert type(info.iters) is int


_FIELD_STATUSES = {"OK", "SINGULAR", "NO_CONVERGENCE", "DOMAIN_EXIT", "POST_BLOWUP"}


@pytest.mark.parametrize("data, max_iter", [
    (model.make_data("gauss2d_coriolis", amplitude=1.0), 4),
    (model.make_data("constant", c=[0.3, -0.1]), 50),
], ids=["newton", "constant"])
def test_solve_field_returns_point_time_arrays(data, max_iter):
    """(U, iters, status) with point i and time j at [i, j]: U is NaN and
    iters 0 exactly where the status is not OK."""
    problem = model.HodographProblem(model.coriolis2d_spec(1.0), data, newton_max_iter=max_iter)
    points = [[0.1, 0.16], [0.9, 0.9], [1.1, 0.5]]
    out = hodograph.solve_field(problem, [0.0, 0.3, 0.6, 0.9], points)
    assert isinstance(out, tuple) and len(out) == 3
    U, iters, status = out
    assert isinstance(U, np.ndarray) and U.dtype == float and U.shape == (3, 4, 2)
    assert isinstance(iters, np.ndarray) and iters.dtype.kind == "i" and iters.shape == (3, 4)
    assert isinstance(status, np.ndarray) and status.shape == (3, 4)
    assert set(status.ravel()) <= _FIELD_STATUSES
    ok = status == "OK"
    assert np.isfinite(U[ok]).all() and np.isnan(U[~ok]).all()
    assert not iters[~ok].any()
    if isinstance(data, model.Gauss2DCoriolis):
        assert 0 < ok.sum() < ok.size and iters[ok].any()


def test_matops_solve_still_raises_on_a_singular_matrix():
    with pytest.raises(SingularMatrixError):
        matops.solve(SINGULAR, np.ones(2))


def test_stacked_solve_flags_exactly_the_singular_row():
    A = np.array([[[2.0, 1.0], [0.5, 3.0]], SINGULAR, [[1.0, -1.0], [1.0, 1.0]]])
    B = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, -0.5]])
    X, singular = matops.solve_stacked(A, B)
    assert singular.tolist() == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(X[i], np.linalg.solve(A[i], B[i]))
        assert np.array_equal(X[i], matops.solve(A[i], B[i]))
