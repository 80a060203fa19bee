"""Matrix-exponential and phi-function identities, spectra, rank/solve guards."""
from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodoflow import matops, model
from hodoflow.errors import OverflowMatrixError, SingularMatrixError

def random_matrix(n, scale=1.0, seed=None):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n, n)))


def test_mat_exp_matches_series_small():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = 0.3
    # rotation block: exact exponential is the rotation matrix
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    got = matops.mat_exp(A, t)
    assert np.allclose(got, expected, atol=1e-14), f"exp mismatch:\n{got}\n{expected}"


def test_group_property():
    A = random_matrix(3, seed=11)
    for s, t in [(0.2, 0.5), (-0.4, 1.1), (0.0, 0.9)]:
        left = matops.mat_exp(A, s + t)
        right = matops.mat_exp(A, s) @ matops.mat_exp(A, t)
        assert np.allclose(left, right, atol=1e-11), f"group law fails at s={s}, t={t}"


def test_phi1_scalar_formula():
    a, t = 0.7, 0.9
    got = matops.phi1(np.array([[a]]), t)[0, 0]
    assert abs(got - (np.exp(a * t) - 1.0) / a) < 1e-14


def test_phi2_scalar_formula():
    a, t = -1.3, 0.6
    got = matops.phi2(np.array([[a]]), t)[0, 0]
    assert abs(got - (np.exp(a * t) - 1.0 - a * t) / a**2) < 1e-14


def test_phi_functions_zero_matrix_limits():
    A = np.zeros((3, 3))
    t = 1.7
    assert np.allclose(matops.phi1(A, t), t * np.eye(3), atol=1e-15)
    assert np.allclose(matops.phi2(A, t), 0.5 * t * t * np.eye(3), atol=1e-15)


def test_phi_identities_nilpotent():
    # strictly upper triangular: singular, series terminates; never inverts A
    A = np.array([[0.0, 2.0, -1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    t = 0.8
    E = matops.mat_exp(A, t)
    P1 = matops.phi1(A, t)
    P2 = matops.phi2(A, t)
    assert np.allclose(A @ P1, E - np.eye(3), atol=1e-13)
    assert np.allclose(A @ P2, P1 - t * np.eye(3), atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_phi_identities_random(n, t, seed):
    A = random_matrix(n, seed=seed)
    E = matops.mat_exp(A, t)
    P1 = matops.phi1(A, t)
    P2 = matops.phi2(A, t)
    scale = max(1.0, float(np.linalg.norm(E, np.inf)))
    assert np.allclose(A @ P1, E - np.eye(n), atol=1e-10 * scale)
    assert np.allclose(A @ P2, P1 - t * np.eye(n), atol=1e-10 * scale)


def test_phi_small_and_large_arguments_agree_with_solve():
    # ||tA|| from 0.01 to 1: small and large arguments alike
    A = random_matrix(3, seed=4)
    A /= np.linalg.norm(A, np.inf)
    for t in (0.01, 0.1, 0.24, 0.26, 1.0):
        P1 = matops.phi1(A, t)
        # reference through the identity phi1 = A^{-1} (e^{tA} - I) via solve
        ref = np.linalg.solve(A, matops.mat_exp(A, t) - np.eye(3))
        assert np.allclose(P1, ref, atol=1e-11), f"phi1 branch mismatch at t={t}"


def test_eig_rotation_block():
    w = 2.0
    spec = matops.eig(w * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert spec.diagonalizable
    assert np.allclose(sorted(spec.eigenvalues.imag), [-2.0, 2.0], atol=1e-12)
    assert np.allclose(spec.eigenvalues.real, 0.0, atol=1e-12)


def test_eig_orders_a_huge_spectrum_without_warning():
    """Rounding the sort key to 12 decimals scales by 1e12, which overflows
    past |lambda| ~ 1.8e296; such a key is taken as it is, with no warning,
    and every ordinary spectrum keeps the order of the rounded key."""
    w = 1.0e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = matops.eig(w * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        big = matops.eig(np.diag([3.0e300, -2.0e300, 1.0]))
    np.testing.assert_allclose(spec.eigenvalues.imag, [-w, w], rtol=1e-14)
    assert big.eigenvalues.tolist() == [-2.0e300, 1.0, 3.0e300]
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        for A in (rng.normal(size=(n, n)), np.round(rng.normal(size=(n, n)), 1),
                  np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])):
            w_all = np.linalg.eig(A)[0]
            order = np.lexsort((np.round(w_all.imag, 12), np.round(w_all.real, 12)))
            assert np.array_equal(matops.eig(A).eigenvalues, w_all[order])


def test_eig_defective_flagged():
    spec = matops.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not spec.diagonalizable, f"Jordan block reported diagonalizable: {spec}"


def test_rank_and_det():
    A = np.diag([1.0, 2.0, 0.0])
    assert matops.rank(A) == 2


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        matops.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def test_solve_stacked_flags_a_non_finite_row_alone():
    """A NaN matrix fails the SVD of the whole stack; its neighbours still solve."""
    A = np.array([np.eye(2), [[np.nan, 1.0], [0.0, 1.0]], [[2.0, 0.0], [1.0, 4.0]]])
    B = np.ones((3, 2))
    X, singular = matops.solve_stacked(A, B)
    assert singular.tolist() == [False, True, False]
    assert np.array_equal(X[[0, 2]], np.linalg.solve(A[[0, 2]], B[[0, 2]][..., None])[..., 0])
    with pytest.raises(SingularMatrixError):
        matops.solve(A[1], B[1])


def test_cond_of_a_3x3_stack_falls_back_per_matrix():
    """3x3 stacks take the SVD, which one NaN matrix fails for the whole
    stack: _cond then conditions each matrix alone, inf for the bad one, and
    solve_stacked flags only that row."""
    A = np.stack([np.eye(3), np.eye(3), 2.0 * np.eye(3)])
    A[1, 0, 0] = np.nan
    assert matops._cond(A).tolist() == [1.0, np.inf, 1.0]
    B = np.arange(9.0).reshape(3, 3)
    X, singular = matops.solve_stacked(A, B)
    assert singular.tolist() == [False, True, False]
    assert np.isnan(X[1]).all()
    assert np.array_equal(X[[0, 2]], np.linalg.solve(A[[0, 2]], B[[0, 2]][..., None])[..., 0])


def test_solve_matches_numpy():
    A = random_matrix(4, seed=9) + 4.0 * np.eye(4)
    b = np.arange(4.0)
    assert np.allclose(matops.solve(A, b), np.linalg.solve(A, b), atol=1e-12)


DIAG_VALUES = (-3.0, -0.5, 0.0, 1e-9, 0.7, 2.0)


def test_exact_diagonal_route_matches_augmented():
    """Entrywise expm1 on an exactly diagonal A (a = 0 included) against the
    block-augmented exponential, to 1e-14 relative per entry."""
    A = np.diag(DIAG_VALUES)
    assert matops.is_exact_diagonal(A)
    for t in DIAG_VALUES:
        got = matops.phi1(A, t)
        ref = t * matops._block_row(t * A, 1.0, 1)[:, len(A):]
        assert np.count_nonzero(got - np.diag(np.diagonal(got))) == 0
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), f"t={t}:\n{got}\n{ref}"


def test_exact_diagonal_predicate_is_exact():
    assert matops.is_exact_diagonal(np.diag([1.0, 0.0, -2.0]))
    assert matops.is_exact_diagonal(np.zeros((2, 2)))
    assert not matops.is_exact_diagonal(np.array([[1.0, 1e-300], [0.0, 2.0]]))
    assert not matops.is_exact_diagonal(np.array([[1.0, 0.0], [np.nan, 2.0]]))


def test_exact_diagonal_overflow_raises():
    A = np.diag([800.0, 1.0])
    with pytest.raises(OverflowMatrixError):
        matops.phi1(A, 1.0)


def test_exact_diagonal_overflow_message_has_plain_floats():
    """The overflow message writes t and the diagonal as float reprs, also for
    a numpy scalar t, never as numpy reprs."""
    with pytest.raises(OverflowMatrixError) as info:
        matops.phi1(np.diag([1000.0, 1.0]), np.float64(1.0))
    message = str(info.value)
    assert "t=1.0 on diagonal (1000.0, 1.0)" in message, message
    assert "array(" not in message and "np.float64(" not in message, message


def _phi_reference(A, t):
    """(phi1(A, t), phi2(A, t)) to 40 digits (mpmath), rounded to float: the
    first block row of exp(t [[A, I, 0], [0, 0, I], [0, 0, 0]]), with A and t
    taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    n = A.shape[0]
    W = np.zeros((3 * n, 3 * n), dtype=object)
    W[:n, :n] = A
    W[:n, n:2 * n] = W[n:2 * n, 2 * n:] = np.eye(n)
    with mpmath.workdps(40):
        tm = mpmath.mpf(t)
        E = mpmath.expm(mpmath.matrix([[tm * mpmath.mpf(float(w)) for w in row] for row in W]))
        top = np.array(E.tolist()[:n], dtype=float)
    return top[:, n:2 * n], top[:, 2 * n:]


#: t for ||A||_inf = 1, so ||tA||_inf runs from 1e-12 to 1, both signs
ACCURACY_TIMES = [s * t for t in np.geomspace(1e-12, 1.0, 13) for s in (1.0, -1.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi1_phi2_against_40_digit_reference(n):
    """phi1 and phi2 within 2e-15 of the 40-digit augmented exponential, in
    the inf-norm relative to the reference, for ||tA||_inf from 1e-12 to 1."""
    A = random_matrix(n, seed=40 + n)
    A /= np.linalg.norm(A, np.inf)
    for t in ACCURACY_TIMES:
        for got, ref in zip((matops.phi1(A, t), matops.phi2(A, t)), _phi_reference(A, t)):
            err = np.linalg.norm(got - ref, np.inf) / np.linalg.norm(ref, np.inf)
            assert err <= 2e-15, f"n={n} t={t}: {err:.2e}"


#: ||tA||_inf small and large, of both signs, for ||A||_inf = 1
TABLE_TIMES = np.array([0.0, 1e-6, -0.05, 0.2, 0.2499, -0.2501, 0.3, 1.0, -2.5])
#: the single call that is the top block of a time_table(A, k) row, by k
SINGLE_CALLS = (matops.mat_exp, matops.phi1, matops.phi2)


def _assert_rows_are_single_calls(A, ts):
    """For k = 0, 1, 2: every block of every row of time_table(A, k)(ts) is
    that of the evaluator's one-row call at its time bit for bit, and block
    k is the single call mat_exp, phi1 or phi2 bit for bit."""
    for k in range(3):
        table = matops.time_table(A, k)
        blocks = table(ts)
        assert [b.shape for b in blocks] == [(len(ts),) + A.shape] * (k + 1)
        for i, t in enumerate(ts):
            one = table(t)
            for j in range(k + 1):
                assert blocks[j][i].tobytes() == one[j].tobytes(), f"k={k} j={j} t={t}"
            ref = SINGLE_CALLS[k](A, t)
            assert one[k].tobytes() == ref.tobytes(), f"k={k} t={t}:\n{one[k]}\n{ref}"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["zero", "nilpotent", "skew", "random", "diagonal"])
def test_phi1_table_matches_phi1(kind, n):
    """time_table row by row against the single calls, bit for bit, for k =
    0, 1, 2 (_assert_rows_are_single_calls): phi1 entrywise for an exactly
    diagonal A (zero included), t phi_1(tA) for any other A."""
    rng = np.random.default_rng(60 + n)
    K = rng.standard_normal((n, n))
    A = {
        "zero": np.zeros((n, n)),
        "nilpotent": np.triu(K, 1),
        "skew": K - K.T,
        "random": K,
        "diagonal": np.diag(np.diagonal(K)),
    }[kind]
    norm = np.linalg.norm(A, np.inf)
    if norm:
        A = A / norm
    _assert_rows_are_single_calls(A, TABLE_TIMES)


def test_phi1_table_diagonal_bits_and_overflow_rows():
    """The entrywise route keeps phi1's bits on DIAG_VALUES; rows that overflow
    come back non-finite instead of raising, on both routes."""
    A = np.diag(DIAG_VALUES)
    table = matops.time_table(A, 1)(np.array(DIAG_VALUES))[1]
    for t, row in zip(DIAG_VALUES, table):
        assert np.array_equal(row, matops.phi1(A, t)), f"t={t}"
    for A in (np.diag([800.0, 1.0]), np.array([[800.0, 1.0], [0.0, 1.0]])):
        table = matops.time_table(A, 1)(np.array([0.5, 1.0]))[1]
        assert np.all(np.isfinite(table[0])) and not np.all(np.isfinite(table[1]))


# ---------------------------------------------------------------------------
# _expm: the numpy scaling-and-squaring exponential behind every route above

#: 1-norms of the random dense matrices, past the last Pade threshold (~5.4)
EXPM_NORMS = np.geomspace(1e-3, 50.0, 12)


def _expm_reference(A):
    """e^A to 30 digits (mpmath), rounded to float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)


def _expm_err(E, ref):
    """||E - ref||_1 / max(1, ||ref||_1)."""
    return np.linalg.norm(E - ref, 1) / max(1.0, np.linalg.norm(ref, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_expm_random_dense_matches_30_digit_reference(n):
    """Random dense matrices with 1-norms from 1e-3 to 50, every Pade degree and
    up to 4 squarings, to 1e-13 of a 30-digit exponential.  The reference is
    mpmath rather than scipy.linalg.expm: at 1-norms 11-50 scipy 1.17 itself
    differs from the 30-digit value by up to 2e-12 on these matrices."""
    rng = np.random.default_rng(70 + n)
    for norm in EXPM_NORMS:
        A = rng.standard_normal((n, n))
        A *= norm / np.linalg.norm(A, 1)
        err = _expm_err(matops._expm(A), _expm_reference(A))
        assert err <= 1e-13, f"n={n} ||A||_1={norm:.3g}: {err:.2e}"


@pytest.mark.parametrize("kind", ["upper", "nilpotent", "skew", "diagonal"])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_expm_structured_matches_30_digit_reference(kind, n):
    """Upper-triangular, nilpotent, skew (rotation) and exactly diagonal
    matrices to 1e-13 of the 30-digit exponential; skew ones stay orthogonal
    and diagonal ones diagonal.  (scipy 1.17's triangular route is itself
    1.6e-13 off on the 2x2 upper-triangular case at scale 2.)"""
    rng = np.random.default_rng(80 + n)
    K = rng.standard_normal((n, n))
    A = {
        "upper": np.triu(K),
        "nilpotent": np.triu(K, 1),
        "skew": K - K.T,
        "diagonal": np.diag(np.diagonal(K)),
    }[kind]
    for scale in (1e-3, 0.3, 2.0, 12.0):
        B = scale * A
        E = matops._expm(B)
        assert _expm_err(E, _expm_reference(B)) <= 1e-13, f"{kind} scale={scale}"
        if kind == "skew":
            assert np.allclose(E @ E.T, np.eye(n), rtol=0.0, atol=1e-13)
        if kind == "diagonal":
            assert matops.is_exact_diagonal(E)


def test_expm_agrees_with_scipy_at_workload_norms():
    """Against scipy.linalg.expm, the exponential this module used before,
    on the augmented phi1 matrices [[tA, tI], [0, 0]] of the 2D and 3D
    rotation forces for t in [-2, 2] (the norms the workloads reach), to
    1e-14."""
    expm = pytest.importorskip("scipy.linalg").expm
    for A in (np.array([[0.0, 1.0], [-1.0, 0.0]]),
              np.array([[0.0, 1.2, 0.0], [-1.2, 0.0, 0.0], [0.0, 0.0, 0.0]]),
              random_matrix(3, seed=5)):
        n = A.shape[0]
        for t in np.linspace(-2.0, 2.0, 41):
            W = np.zeros((2 * n, 2 * n))
            W[:n, :n], W[:n, n:] = t * A, t * np.eye(n)
            assert _expm_err(matops._expm(W), expm(W)) <= 1e-14, f"n={n} t={t}"


def test_expm_stack_rows_match_single_calls():
    """A stack with mixed norms (one Pade degree, a scaling power per row)
    agrees with one call per matrix to 1e-14."""
    rng = np.random.default_rng(90)
    norms = [0.0, 1e-3, 0.2, 0.9, 2.0, 5.0, 11.0, 40.0]
    W = np.array([rng.standard_normal((6, 6)) for _ in norms])
    W *= (np.array(norms) / np.linalg.norm(W, 1, axis=(1, 2)))[:, None, None]
    stack = matops._expm(W)
    for norm, Wi, Ei in zip(norms, W, stack):
        err = _expm_err(Ei, matops._expm(Wi))
        assert err <= 1e-14, f"||W||_1={norm}: {err:.2e}"


def test_expm_overflow_stays_in_its_row():
    """One overflowing row of a time_table stack comes back non-finite and
    leaves the other rows finite and bit for bit as without it; mat_exp
    reports the overflow."""
    A = np.array([[1.0, 2.0], [-0.5, 3.0]])
    ts = np.array([0.5, 2.0, 400.0, -1.0, 3.0])
    table = matops.time_table(A, 1)(ts)[1]
    finite = np.isfinite(table).all(axis=(1, 2))
    assert finite.tolist() == [True, True, False, True, True]
    keep = ts != 400.0
    assert np.array_equal(table[keep], matops.time_table(A, 1)(ts[keep])[1])
    with pytest.raises(OverflowMatrixError):
        matops.mat_exp(A, 400.0)
    bad = np.array([np.eye(2), [[np.inf, 0.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]])
    E = matops._expm(bad)
    assert np.isnan(E[1]).all()
    assert np.allclose(E[[0, 2]], matops._expm(bad[[0, 2]]), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("A", [
    np.array([[0.0, 1.2, 0.0], [-1.2, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[0.4, 1.0], [-0.7, 0.2]]),
    np.array([[0.5]]),
    np.zeros((2, 2)),
], ids=["rotation3d", "dense2d", "scalar", "zero"])
def test_phi_table_matches_single_calls(A):
    """Each block j of each row of time_table(A, k), for every k = 0, 1, 2 and
    j <= k, is the single call mat_exp, phi1 or phi2 at its own time, to
    rounding (bit for bit for j = k), for small and large arguments and
    negative times."""
    ts = np.array([0.0, 1e-3, 0.05, 0.3, 0.9, 1.3, 3.0, -1.0])
    for k in range(3):
        blocks = matops.time_table(A, k)(ts)
        assert len(blocks) == k + 1
        for j, block in enumerate(blocks):
            assert block.shape == (len(ts),) + A.shape
            for t, got in zip(ts, block):
                np.testing.assert_allclose(got, SINGLE_CALLS[j](A, t), rtol=1e-14, atol=1e-15)


def test_phi_table_overflow_raises():
    """time_row raises where a row is not finite, naming its time."""
    with pytest.raises(OverflowMatrixError, match="t=2.0"):
        matops.time_row(np.array([[800.0]]), np.array([0.1, 2.0]), 2)


def test_phi_table_overflow_of_t_times_a_raises_without_warning():
    """tA and the t^j scalings overflow under time_table's np.errstate, as the
    block row does: with warnings as errors the overflow is still the
    OverflowMatrixError time_row raises, not a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowMatrixError, match="t=10.0"):
            matops.time_row(np.diag([1e308, 2.0]), 10.0, 2)
        with pytest.raises(OverflowMatrixError, match="t=1e[+]200"):
            matops.time_row(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0e200, 2)


# ---------------------------------------------------------------------------
# time_table over the force matrices of every route: each row is the single
# call, and its e^{tA}, which the blow-up root refinement takes, is I + A phi1

#: force matrices of every route: diagonal (negative, zero, mixed), the
#: elliptic 2x2, the coriolis3d 3x3 and a 4x4 block rotation
EVALUATOR_MATRICES = {
    "diag-negative": np.diag([-1.0, -0.5, -3.0]),
    "diag-zero": np.diag([0.0, 0.0]),
    "diag-mixed": np.diag(DIAG_VALUES),
    "diag-1x1": np.array([[0.7]]),
    "elliptic": np.array([[0.0, 1.0], [-1.0, 0.0]]),
    "coriolis3d": model.coriolis3d_spec(1.2, g_mag=0.5).A,
    "rotation4": np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, -2.0, 0.0]]),
}


def _phi1_formula(A, t):
    """phi1 written out: diag(expm1(a t)/a), t where a = 0, for an exactly
    diagonal A; t phi_1(tA) by the augmented exponential otherwise."""
    if np.count_nonzero(A - np.diag(np.diagonal(A))):
        return t * matops._block_row(t * A, 1.0, 1)[:, len(A):]
    a = np.diagonal(A)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.diag(np.where(a == 0.0, t, np.expm1(a * t) / np.where(a == 0.0, 1.0, a)))


@pytest.mark.parametrize("name", list(EVALUATOR_MATRICES))
def test_phi1_exp_is_phi1_bit_for_bit(name):
    """Each row of one time_table(A, 1) evaluation is phi1(A, t) bit for bit,
    for small and large ||tA|| and t of both signs, and so is a one-row
    evaluation; the table's e^{tA} is the one-row evaluation's bit for bit
    and I + A phi1(A, t) to 4e-16 of 1 + |A phi1|; and phi1 is its formula
    bit for bit.  Every k = 0, 1, 2 row is the single call
    (_assert_rows_are_single_calls)."""
    A = EVALUATOR_MATRICES[name]
    ts = np.array([*TABLE_TIMES, *DIAG_VALUES, -1e-9, 0.1, -4.0])
    _assert_rows_are_single_calls(A, ts)
    table = matops.time_table(A, 1)
    E, P1 = table(ts)
    assert P1.shape == E.shape == (len(ts),) + A.shape
    for t, row, E_row in zip(ts, P1, E):
        ref = matops.phi1(A, t)
        assert ref.tobytes() == _phi1_formula(A, t).tobytes(), f"t={t}"
        assert row.tobytes() == ref.tobytes(), f"t={t}:\n{row}\n{ref}"
        assert table(np.array([t]))[1][0].tobytes() == ref.tobytes(), f"t={t}"
        assert E_row.tobytes() == table(np.array([t]))[0][0].tobytes(), f"t={t}"
        near = np.abs(E_row - np.eye(len(A)) - A @ ref).max() / (1.0 + np.abs(A @ ref).max())
        assert near <= 4e-16, f"t={t}: {near:.2e}"


@pytest.mark.parametrize("A", [np.diag([800.0, 1.0]), np.array([[800.0, 1.0], [0.0, 1.0]])],
                         ids=["diagonal", "triangular"])
def test_phi1_exp_overflow_raises_where_phi1_does(A):
    """A time_table(A, 1) row is non-finite exactly where phi1 raises, and
    leaves the other rows finite."""
    table = matops.time_table(A, 1)(np.array([0.5, 1.0, 0.25]))[1]
    assert np.isfinite(table[[0, 2]]).all() and not np.isfinite(table[1]).all()
    matops.phi1(A, 0.5)
    matops.phi1(A, 0.25)
    with pytest.raises(OverflowMatrixError):
        matops.phi1(A, 1.0)


# ---------------------------------------------------------------------------
# stack invariance: a matrix function row depends on its own matrix alone

#: the 1-norms the stacks cover: inside each Pade threshold (3, 5, 7, 9),
#: degree 13 without scaling, and degree 13 with 1-6 squarings
INVARIANCE_NORMS = [1e-3, 0.012, 0.1, 0.25, 0.6, 0.95, 1.5, 2.09, 3.0, 5.3, 9.0, 40.0, 300.0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_block_row_stacks_are_stack_invariant(n, k):
    """Random stacks of block rows whose augmented matrices span every Pade
    degree and scaling power: every permutation and sub-stack gives each
    row bit for bit, and so does the one-matrix _expm on that row's matrix."""
    rng = np.random.default_rng(100 + 10 * n + k)
    m = n * (k + 1)
    for trial in range(4):
        A = rng.standard_normal((n, n))
        W = np.zeros((len(INVARIANCE_NORMS), m, m))
        W[:, :n, :n] = A
        for r in range(n, m, n):
            W[:, r - n : r, r : r + n] = np.eye(n)
        ts = np.array(INVARIANCE_NORMS) / np.linalg.norm(W, 1, axis=(1, 2))
        ts *= rng.choice([-1.0, 1.0], size=ts.size)
        stack = matops._block_row(A, ts, k)
        assert np.isfinite(stack).all()
        for i, t in enumerate(ts):
            W_i = t * W[i]
            assert stack[i].tobytes() == matops._expm(W_i)[:n].tobytes(), (trial, t)
            assert stack[i].tobytes() == matops._block_row(A, float(t), k).tobytes(), (trial, t)
        for _ in range(3):
            perm = rng.permutation(ts.size)
            assert matops._block_row(A, ts[perm], k).tobytes() == stack[perm].tobytes()
            sub = np.sort(rng.choice(ts.size, size=int(rng.integers(1, ts.size)), replace=False))
            assert matops._block_row(A, ts[sub], k).tobytes() == stack[sub].tobytes()


# ---------------------------------------------------------------------------
# solve_stacked's guard on 2x2 matrices

_EPS = np.finfo(float).eps


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _conditioned_2x2(rng, conds, scales):
    """U diag(1, 1/cond) V times a scale, U and V random rotations."""
    return np.array([s * _rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([1.0, 1.0 / c])
                     @ _rotation(rng.uniform(0, 2 * np.pi)) for c, s in zip(conds, scales)])


def test_solve_stacked_2x2_keeps_every_singular_decision():
    """Random and scaled 2x2 matrices with cond outside [1e12, 1e14], entries
    near 1e+-150, exactly singular and non-finite ones: solve_stacked flags
    every exactly singular or non-finite matrix, and every other one on the
    side of _SOLVE_COND_LIMIT that np.linalg.cond gives."""
    rng = np.random.default_rng(72)
    conds = 10.0 ** np.concatenate([rng.uniform(0, 12, 1500), rng.uniform(14, 18, 1500)])
    scales = (10.0 ** rng.choice([-150.0, 0.0, 150.0], conds.size)
              * rng.uniform(0.5, 2.0, conds.size))
    singular = np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
                         [[1e-300, 0.0], [0.0, 0.0]], [[3.0, 0.0], [1e150, 0.0]],
                         [[np.nan, 1.0], [0.0, 1.0]], [[np.inf, 1.0], [0.0, 1.0]]])
    A = np.concatenate([_conditioned_2x2(rng, conds, scales), singular])
    with np.errstate(all="ignore"):
        X, flagged = matops.solve_stacked(A, rng.standard_normal((len(A), 2)))
        ref = np.linalg.cond(A[: -2])  # the two non-finite matrices stay out of the SVD
    assert flagged[-len(singular):].all() and np.isnan(X[flagged]).all()
    outside = ~((ref >= 1e12) & (ref <= 1e14))
    assert outside.sum() > 2900
    want = ~np.isfinite(ref) | (ref > matops._SOLVE_COND_LIMIT)
    assert np.array_equal(flagged[: -2][outside], want[outside])


# ---------------------------------------------------------------------------
# _cond_bound: the norm bound that spares solve_stacked the exact _cond


def _conditioned(rng, n, conds, scales):
    """s U diag(1, ..., 1/cond) V^T for each cond and scale s, U and V random
    orthogonal, the middle singular values log-uniform in between."""
    out = []
    for c, s in zip(conds, scales):
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sv = np.sort(10.0 ** rng.uniform(-np.log10(c), 0.0, n))[::-1]
        sv[0], sv[-1] = 1.0, 1.0 / c
        out.append(s * (U * sv) @ V.T)
    return np.array(out)


def _unsolvable(n):
    """Exactly singular, non-finite, underflowing and overflowing n x n matrices."""
    eye = np.eye(n)
    bad = [np.zeros((n, n)), np.ones((n, n)) if n > 1 else np.zeros((1, 1)),
           1e-300 * eye, 1e-160 * eye, 1e200 * eye]
    for value in (np.nan, np.inf, -np.inf):
        M = eye.copy()
        M[0, -1] = value
        bad.append(M)
    if n == 2:  # products that round to neighbouring subnormals: det = 5e-324, cond ~4e14
        s = np.sqrt(2000.5) * 2.0**-537
        bad.append(np.array([[s, s], [s, s * (1.0 + 1e-14)]]))
    return np.array(bad)


def _reference_solve(A, B):
    """np.linalg.solve, except that a 2x2 row the norm bound clears,
    ||K||_F^2 <= _CERT_LIMIT |det K| with |det K| >= _CERT_DET_FLOOR (taken
    as ||K||_F^2 / |det K|, the bound's own rounding), is solved by its
    adjugate, x1 = (d r1 - b r2) / det K, x2 = (a r2 - c r1) / det K with
    det K = a d - b c, where that is finite."""
    if A.shape[-1] != 2:
        return np.linalg.solve(A, B[..., None])[..., 0]
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    r1, r2 = B[:, 0], B[:, 1]
    with np.errstate(all="ignore"):
        det_K = a * d - b * c
        f2, abs_det = a * a + b * b + c * c + d * d, np.abs(det_K)
        cleared = (f2 / abs_det <= matops._CERT_LIMIT) & (abs_det >= matops._CERT_DET_FLOOR)
        X = np.column_stack([(d * r1 - b * r2) / det_K, (a * r2 - c * r1) / det_K])
    rest = ~(cleared & np.isfinite(X).all(axis=1))
    if rest.any():
        X[rest] = np.linalg.solve(A[rest], B[rest][..., None])[..., 0]
    return X


def _exact_guard_solve(A, B):
    """solve_stacked deciding every row by the exact _cond, with no bound,
    solving the rows it accepts by _reference_solve."""
    cond = matops._cond(A)
    singular = ~np.isfinite(cond) | (cond > matops._SOLVE_COND_LIMIT)
    if not singular.any():
        return _reference_solve(A, B), singular
    X = np.full(B.shape, np.nan)
    ok = ~singular
    if ok.any():
        X[ok] = _reference_solve(A[ok], B[ok])
    return X, singular


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_stacked_keeps_the_exact_guards_decisions(n):
    """Against the exact guard alone, on matrices with cond in [1e11, 1e15]
    (and a quarter as many in [1, 1e11]), entries scaled to 1e+-150, and
    exactly singular, NaN, inf, underflowing and overflowing ones: the same
    singular mask and the same bytes of X, for the whole stack, a shuffled
    part of it and every matrix alone."""
    rng = np.random.default_rng(80 + n)
    m = 500
    conds = 10.0 ** np.concatenate([rng.uniform(11, 15, 400), rng.uniform(0, 11, 100)])
    scales = (10.0 ** rng.choice([-150.0, -100.0, 0.0, 0.0, 100.0, 150.0], m)
              * rng.uniform(0.5, 2.0, m))
    A = np.concatenate([_conditioned(rng, n, conds, scales), _unsolvable(n)])
    B = rng.standard_normal((len(A), n))
    if n == 3:  # one singular matrix makes LAPACK refuse the whole stack
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(A)
    for rows in [np.arange(len(A)), rng.permutation(len(A))[:60]] + [[i] for i in range(len(A))]:
        X, singular = matops.solve_stacked(A[rows], B[rows])
        X_ref, singular_ref = _exact_guard_solve(A[rows], B[rows])
        assert np.array_equal(singular, singular_ref), rows
        assert X.tobytes() == X_ref.tobytes(), rows
    if n <= 3:  # both routes are taken, and both verdicts given
        bounded = matops._cond_bound(A) <= matops._CERT_LIMIT
        _, singular = _exact_guard_solve(A, B)
        assert bounded.any() and (~bounded & ~singular).any() and singular.any()


def test_solve_stacked_2x2_is_accurate_against_exact_rationals():
    """Against the exact solutions of the float systems, in Fractions, on
    matrices with cond log-uniform in [1, 1e13] and entries scaled by 1e-150,
    1 or 1e150 (the adjugate takes the cleared rows, LAPACK the others): the
    relative forward error ||x - x*||_2 / ||x*||_2 of every row stays within
    cond * eps, for the whole stack and for each matrix alone."""
    rng = np.random.default_rng(39)
    m = 1300
    conds = 10.0 ** rng.uniform(0, 13, m)
    scales = 10.0 ** rng.choice([-150.0, 0.0, 150.0], m) * rng.uniform(0.5, 2.0, m)
    A = _conditioned_2x2(rng, conds, scales)
    B = rng.standard_normal((m, 2)) * scales[:, None]
    X, singular = matops.solve_stacked(A, B)
    assert not singular.any()
    assert all(matops.solve_stacked(A[i : i + 1], B[i : i + 1])[0].tobytes() == X[i].tobytes()
               for i in range(m))
    cleared = ~matops._adjugate_solve(A, B)[1]
    assert 0 < cleared.sum() < m  # both routes are measured
    for K, r, x, cond in zip(A, B, X, np.linalg.cond(A)):
        a, b, c, d = (Fraction(float(v)) for v in K.ravel())
        r1, r2 = Fraction(float(r[0])), Fraction(float(r[1]))
        det_K = a * d - b * c
        x1, x2 = (d * r1 - b * r2) / det_K, (a * r2 - c * r1) / det_K
        err2 = (Fraction(float(x[0])) - x1) ** 2 + (Fraction(float(x[1])) - x2) ** 2
        assert float(err2 / (x1 * x1 + x2 * x2)) <= (cond * _EPS) ** 2, (K, r, x, cond)


def test_solve_stacked_2x2_overflowing_adjugate_takes_lapack():
    """A cleared matrix whose right-hand side is so large that the adjugate's
    products overflow, though x does not, is solved by LAPACK: finite, and
    with LAPACK's bits; the rows beside it keep the adjugate's."""
    A = np.array([[[2e100, 1e100], [1e100, 3e100]], [[2.0, 1.0], [1.0, 3.0]]])
    B = np.array([[1e250, -1e250], [1.0, -1.0]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(A[0, 1, 1] * B[0, 0])
    X, singular = matops.solve_stacked(A, B)
    assert not singular.any() and np.isfinite(X).all()
    assert X[0].tobytes() == np.linalg.solve(A[0], B[0]).tobytes()
    assert X[1].tobytes() == (np.array([3.0 + 1.0, -2.0 - 1.0]) / 5.0).tobytes()  # adj(K) r / 5
    for i in range(2):
        assert matops.solve_stacked(A[i : i + 1], B[i : i + 1])[0].tobytes() == X[i].tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_cond_bound_is_never_below_the_svd(n):
    """On random Gaussian matrices, and built ones with cond up to 1e12 and
    entries scaled by 1e+-80, the bound is at least np.linalg.cond, up to the
    ~eps cond rounding both share, for a stack and for one matrix alone."""
    rng = np.random.default_rng(90 + n)
    gauss = rng.standard_normal((4000, n, n))
    built = _conditioned(rng, n, 10.0 ** rng.uniform(0, 12, 2000), 10.0 ** rng.uniform(-80, 80, 2000))
    for A in (gauss, built):
        ref = np.linalg.cond(A)
        floor = ref * (1.0 - 8.0 * _EPS * ref)
        assert np.all(matops._cond_bound(A) >= floor)
        alone = np.concatenate([matops._cond_bound(A[i : i + 1]) for i in range(200)])
        assert np.all(alone >= floor[:200])


def _dyadic_stack(rng, m, n):
    """m random n x n matrices whose entries are integers over powers of 2,
    so Fraction holds every entry exactly."""
    return rng.integers(-2**20, 2**20, size=(m, n, n)) / 2.0 ** rng.integers(0, 24, size=(m, n, n))


def _leibniz_terms(A):
    """The n! signed products of the Leibniz expansion of det A, as Fractions."""
    n = len(A)
    terms = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term *= Fraction(float(A[r, c]))
        terms.append(term)
    return terms


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_matches_exact_rationals(n):
    """The cofactor expansion against the exact determinant, to 4 ulps of the
    sum of the absolute Leibniz terms (its rounding scale)."""
    A = _dyadic_stack(np.random.default_rng(n), 500, n)
    got = matops.det(A)
    assert got.shape == (500,)
    for a, d in zip(A, got):
        terms = _leibniz_terms(a)
        scale = float(sum(abs(t) for t in terms))
        assert abs(float(sum(terms) - Fraction(float(d)))) <= 4 * np.finfo(float).eps * scale


def test_det_of_4x4_is_lapacks():
    A = np.random.default_rng(4).standard_normal((50, 4, 4))
    assert np.array_equal(matops.det(A), np.linalg.det(A))
    assert matops.det(A[0]) == np.linalg.det(A[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 7, 1000])
def test_det_row_of_a_stack_is_the_one_matrix_call(n, m):
    """A matrix gets the same bits whatever stack it sits in (branch_fn probes
    of a blow-up sheet rely on it)."""
    A = np.random.default_rng(10 * m + n).standard_normal((m, n, n))
    stacked = matops.det(A)
    assert stacked.shape == (m,)
    assert all(stacked[i] == matops.det(A[i]) for i in range(m))
    assert np.array_equal(matops.det(A.reshape(1, m, n, n))[0], stacked)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_det_non_finite_entry_is_non_finite(n, bad):
    """Every position of a matrix with zeros and ones around it: the
    determinant is not finite, and under the caller's errstate no
    RuntimeWarning escapes."""
    A = np.array([np.eye(n), np.zeros((n, n)), np.ones((n, n)), random_matrix(n, seed=n)])
    stack = np.repeat(A[None], n * n, axis=0)  # (positions, 4, n, n)
    for p in range(n * n):
        stack[p, :, p // n, p % n] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        got = matops.det(stack)
    assert got.shape == (n * n, 4) and not np.isfinite(got).any()
