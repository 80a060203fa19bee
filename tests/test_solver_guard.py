"""The solver contracts that callers outside the package read stay in place.

The benchmark's span tracer takes ``solve_M(...)[1].iters`` as an int, and
callers of ``matops.solve`` catch ``SingularMatrixError``; the stacked solve
under both flags a singular row without losing its neighbours.
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
