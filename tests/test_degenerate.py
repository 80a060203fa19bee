"""Kernel-adapted frame for rank-deficient A: bases, reduced integrals, 3D rotation."""
from __future__ import annotations

import numpy as np
import pytest

from hodoflow import blowup, degenerate, hodograph, matops, model, oracle
from hodoflow.errors import DegenerateMatrixError, HodoflowError, NotInvertibleError

C3D_COMPONENTS = [
    ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
    ("gauss1d", {"eta": 0.6, "kappa": 1.1}),
    ("gauss1d", {"eta": 0.7, "kappa": 0.8}),
]


def rotated_c3d_data():
    return model.make_data("separable", components=C3D_COMPONENTS)


def random_rank_deficient(n, r, seed):
    """Random A with exact rank r via an SVD construction."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([rng.uniform(0.5, 2.0, size=r), np.zeros(n - r)])
    return U @ np.diag(s) @ V.T


def test_build_basis_identities():
    rng_seeds = [(3, 2, 0), (3, 1, 1), (4, 2, 2), (4, 3, 3), (5, 3, 4)]
    for n, r, seed in rng_seeds:
        A = random_rank_deficient(n, r, seed)
        b = degenerate.build_basis(A)
        assert b.r == r and b.n == n and b.n_kernel == n - r
        assert np.allclose(b.L @ b.P, np.eye(n), atol=1e-12)
        assert np.allclose(b.L @ b.L.T, np.eye(n), atol=1e-12)
        assert np.allclose(b.A_rot, b.L @ A @ b.P, atol=1e-12)
        assert np.all(b.A_rot[: n - r, :] == 0.0), "kernel rows must vanish exactly"
        assert np.allclose(b.B, b.A_rot[n - r :, :], atol=1e-15)


def test_build_basis_rejects_full_rank_and_zero():
    with pytest.raises(ValueError):
        degenerate.build_basis(np.eye(3))
    with pytest.raises(DegenerateMatrixError):
        degenerate.build_basis(np.zeros((2, 2)))


def test_coriolis3d_basis_z_axis_preset():
    b = degenerate.coriolis3d_basis(1.5)
    assert np.allclose(b.L, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    A = model.coriolis3d_spec(1.5).A
    assert np.allclose(b.A_rot, 1.5 * np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]]))
    assert np.allclose(b.B_tilde, 1.5 * np.array([[0, -1], [1, 0]]))
    assert np.allclose(b.L @ A @ b.P, b.A_rot, atol=1e-14)


def test_coriolis3d_basis_general_axis():
    w = np.array([0.4, -0.7, 1.1])
    b = degenerate.coriolis3d_basis(w)
    nw = np.linalg.norm(w)
    s = np.hypot(w[1], w[2])
    assert np.allclose(b.L[0], w / nw, atol=1e-14)
    assert np.allclose(b.L[1], np.array([0.0, w[2], -w[1]]) / s, atol=1e-14)
    assert np.allclose(
        b.L[2], np.array([w[1] ** 2 + w[2] ** 2, -w[0] * w[1], -w[0] * w[2]]) / (nw * s),
        atol=1e-14,
    )
    # reference orientation: both determinants are -1
    assert np.linalg.det(b.L) == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.det(b.P) == pytest.approx(-1.0, abs=1e-12)
    # kernel row really kills A
    A = model.coriolis3d_spec(w).A
    assert np.max(np.abs(b.L[0] @ A)) < 1e-12


def test_time_matrices_initial_values():
    A = model.coriolis3d_spec([0.3, 0.9, -0.5]).A
    b = degenerate.coriolis3d_basis([0.3, 0.9, -0.5])
    tm = degenerate.time_matrices(b, A, 0.0)
    assert np.allclose(tm.C, np.eye(3), atol=1e-14)
    assert np.allclose(tm.D, b.A_rot, atol=1e-14)


def test_degenerate_integrals_match_propagator_route():
    """Display formulas for (M, N) agree with the phi-function propagator route."""
    rng = np.random.default_rng(14)
    for seed in range(10):
        if seed % 2 == 0:
            A = random_rank_deficient(3, 2, 100 + seed)
        else:
            A = model.coriolis3d_spec(rng.uniform(-1.5, 1.5, size=3)).A
        try:
            b = degenerate.build_basis(A)
        except DegenerateMatrixError:
            continue
        f = rng.uniform(-1.0, 1.0, size=3)
        spec = model.ForceSpec(A, f)
        rspec = degenerate.rotated_spec(spec, b)
        for _ in range(5):
            t = rng.uniform(-1.0, 1.0)
            y = rng.uniform(-1.0, 1.0, size=3)
            v = rng.uniform(-1.0, 1.0, size=3)
            vals = degenerate.degenerate_integrals(spec, b, t, y, v)
            M_ref = matops.mat_exp(rspec.A, -t) @ v + matops.phi1(rspec.A, -t) @ rspec.g
            N_ref = y + matops.phi1(rspec.A, -t) @ v + matops.phi2(rspec.A, -t) @ rspec.g
            assert np.allclose(vals.M, M_ref, atol=1e-9), f"M mismatch at t={t}"
            assert np.allclose(vals.N, N_ref, atol=1e-9), f"N mismatch at t={t}"


def test_degenerate_integrals_conserved_along_flow():
    rng = np.random.default_rng(31)
    for seed in range(8):
        w = rng.uniform(-1.5, 1.5, size=3)
        if np.linalg.norm(w) < 0.3:
            continue
        spec = model.coriolis3d_spec(w, g_mag=0.4)
        b = degenerate.coriolis3d_basis(w)
        x0 = rng.uniform(-1.0, 1.0, size=3)
        u0 = rng.uniform(-1.0, 1.0, size=3)
        ref = None
        for t in (0.0, 0.4, 1.1):
            fl = oracle.exact_flow(spec, x0, u0, t)
            vals = degenerate.degenerate_integrals(spec, b, t, b.L @ fl.x, b.L @ fl.u)
            packed = np.concatenate([vals.I1, vals.I2, vals.M, vals.N])
            if ref is None:
                ref = packed
            else:
                dev = np.max(np.abs(packed - ref))
                assert dev < 1e-9, f"degenerate integrals drift {dev:.2e} (seed {seed})"


def test_degenerate_integrals_initial_values():
    spec = model.coriolis3d_spec(1.2, g_mag=0.5)
    b = degenerate.coriolis3d_basis(1.2)
    y = np.array([0.3, -0.4, 0.9])
    v = np.array([1.1, 0.2, -0.6])
    vals = degenerate.degenerate_integrals(spec, b, 0.0, y, v)
    assert np.allclose(vals.M, v, atol=1e-14)
    assert np.allclose(vals.N, y, atol=1e-14)


def test_degenerate_solve_matches_characteristics():
    """Frozen battery: z-axis rotation with gravity, 25 pre-blow-up samples."""
    spec = model.coriolis3d_spec(1.2, g_mag=0.5)
    data = rotated_c3d_data()
    problem = model.HodographProblem(spec, data)
    basis = degenerate.coriolis3d_basis(1.2)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(25):
        y0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.2), rng.uniform(0.3, 2.2)])
        t = rng.uniform(0.05, 0.8)
        x0 = basis.P @ y0
        u0 = degenerate.u0_original(basis, data, x0)
        fl = oracle.exact_flow(spec, x0, u0, t)
        got = degenerate.degenerate_solve(problem, basis, t, fl.x)
        worst = max(worst, float(np.max(np.abs(got.u - fl.u))))
    assert worst < 1e-8, f"degenerate solve error {worst:.3e}"


def test_generic_limit_matches_degenerate_path():
    """Perturbing the zero rate to eps = 1e-6 reproduces the degenerate solve to 1e-4."""
    a = 0.6
    comps = [("gauss1d", {"eta": 0.5, "kappa": 1.0}),
             ("gauss1d", {"eta": 0.6, "kappa": 0.9}),
             ("tanh1d", {"mu": 0.7, "kappa": 0.8})]
    data = model.make_data("separable", components=comps)
    generic = model.HodographProblem(
        model.diag_spec([a, -a, 1e-6]), data
    )
    A0 = np.diag([a, -a, 0.0])
    basis = degenerate.build_basis(A0)
    rot_data = model.make_data("separable", components=[comps[2], comps[1], comps[0]])
    deg = model.HodographProblem(model.ForceSpec(A0, np.zeros(3)), rot_data)
    from hodoflow import hodograph

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(12):
        x = np.array([rng.uniform(0.3, 1.8), rng.uniform(0.3, 1.8), rng.uniform(-1.0, 1.0)])
        t = rng.uniform(0.05, 0.5)
        u_gen = hodograph.solve_u(generic, t, x).u
        u_deg = degenerate.degenerate_solve(deg, basis, t, x).u
        worst = max(worst, float(np.max(np.abs(u_gen - u_deg))))
    assert worst < 1e-4, f"generic/degenerate gap {worst:.3e}"


def rotated_c3d_problem(w):
    problem = model.HodographProblem(model.coriolis3d_spec(w), rotated_c3d_data())
    return degenerate.rotated_problem(problem, degenerate.coriolis3d_basis(w))


def test_coriolis3d_blowup_residual_root():
    """Frozen root: w = 1.2, separable data, M = (0.75, 0.35, 0.4)."""
    problem = rotated_c3d_problem(1.2)
    M = np.array([0.75, 0.35, 0.4])
    (sheet,) = blowup.sheets_scan(
        problem, M_grid=[[m] for m in M], t_max=5.0, scan_step=1e-2
    )
    t_root = float(sheet.t[0])
    assert t_root == pytest.approx(1.3943355119824998, abs=1e-6)
    assert abs(blowup.blowup_residual(problem, t_root, M)) < 1e-9


def test_coriolis3d_small_wt_cubic_limit():
    """For wt << 1 the residual approaches det(t I + J_phi(M)), error O((wt)^2)."""
    data = rotated_c3d_data()
    M = np.array([0.75, 0.35, 0.4])
    J = data.phi_jacobian(M)
    rel_errs = []
    for w in (0.05, 0.02):
        t = 0.5
        full = blowup.blowup_residual(rotated_c3d_problem(w), t, M)
        cubic = np.linalg.det(t * np.eye(3) + J)
        rel = abs(full - cubic) / abs(cubic)
        assert rel < 5.0 * (w * t) ** 2, f"w={w}: rel err {rel:.2e} not O((wt)^2)"
        rel_errs.append(rel)
    assert rel_errs[1] < rel_errs[0] / 3.0, "error should shrink quadratically in w"


def test_non_periodicity_witness_found():
    """e^{TA} = I yet the flow is not T-periodic: kernel transport is secular."""
    w = 1.1
    spec = model.coriolis3d_spec(w)
    data = model.make_data(
        "separable",
        components=[
            ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
            ("gauss1d", {"eta": 0.05, "kappa": 1.1}),
            ("gauss1d", {"eta": 0.07, "kappa": 0.8}),
        ],
    )
    problem = model.HodographProblem(spec, data)
    T = 2.0 * np.pi / w
    assert np.max(np.abs(matops.mat_exp(spec.A, T) - np.eye(3))) < 1e-12
    basis = degenerate.coriolis3d_basis(w)
    rng = np.random.default_rng(5)
    pts = []
    for _ in range(40):
        # sample in the rotated frame (kernel coordinate on the tanh tail,
        # transverse ones where the small Gaussians are invertible), then map back
        y = np.array([rng.uniform(1.5, 2.3), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)])
        pts.append((rng.uniform(0.0, 0.3), basis.P @ y))
    witness = degenerate.non_periodicity_witness(problem, T, pts, threshold=1e-3)
    assert witness is not None, "expected a non-periodicity witness"
    assert witness.delta > 1e-3


def test_witness_absent_for_kernel_constant_data():
    """A constant kernel component has no inverse map, so the rotated problem
    has no M-domain: its default guess and _newton both raise
    NotInvertibleError ("constant profile has no M-domain"), no sample is
    solved or compared, and the search returns None instead of inventing a
    delta."""
    w = 1.1
    spec = model.coriolis3d_spec(w)
    data = model.make_data(
        "separable",
        components=[
            ("constant", {"c": [0.4]}),
            ("gauss1d", {"eta": 0.05, "kappa": 1.1}),
            ("gauss1d", {"eta": 0.07, "kappa": 0.8}),
        ],
    )
    problem = model.HodographProblem(spec, data)
    T = 2.0 * np.pi / w
    basis = degenerate.coriolis3d_basis(w)
    rng = np.random.default_rng(5)
    pts = [
        (rng.uniform(0.0, 0.3), basis.P @ np.array([rng.uniform(1.5, 2.3),
                                                    rng.uniform(0.3, 1.5),
                                                    rng.uniform(0.3, 1.5)]))
        for _ in range(20)
    ]
    rp = degenerate.rotated_problem(problem, basis)
    ts = np.array([t for t, _ in pts])
    Y = matops.matvec(basis.L, np.array([x for _, x in pts]))
    with pytest.raises(NotInvertibleError, match="constant profile has no M-domain"):
        hodograph._default_guess(rp, Y)
    with pytest.raises(NotInvertibleError, match="constant profile has no M-domain"):
        hodograph._newton(rp, np.column_stack([ts, ts + T]), Y, np.zeros_like(Y))
    witness = degenerate.non_periodicity_witness(problem, T, pts, threshold=1e-3)
    assert witness is None, f"flat kernel produced witness {witness}"


def test_witness_refuses_a_1d_force():
    """The z-axis rotation check looks at the shape before any entry, so a 1D
    force is a ValueError, not an IndexError."""
    problem = model.HodographProblem(model.ForceSpec(np.array([[0.5]]), np.zeros(1)),
                                     model.make_data("tanh1d", mu=1.0, kappa=1.0))
    with pytest.raises(ValueError, match="z-axis rotation"):
        degenerate.non_periodicity_witness(problem, 1.0, [(0.1, np.zeros(1))])


def test_witness_refuses_a_matrix_near_the_zaxis_preset():
    """The preset basis is taken only for the exact z-axis matrix: one entry
    off by 1e-13 would be solved with the preset's A_rot, not L A P of the A
    given, so it is a ValueError, and a caller passes a basis instead."""
    A = model.coriolis3d_spec(1.2).A.copy()
    A[0, 1] += 1e-13
    assert degenerate._zaxis_omega(model.coriolis3d_spec(1.2).A) == 1.2
    with pytest.raises(ValueError, match="z-axis rotation"):
        degenerate._zaxis_omega(A)
    problem = model.HodographProblem(model.ForceSpec(A, np.zeros(3)), rotated_c3d_data())
    with pytest.raises(ValueError, match="z-axis rotation"):
        degenerate.non_periodicity_witness(problem, 2.0 * np.pi / 1.2,
                                           [(0.1, np.array([0.5, 0.8, 1.9]))])
    degenerate.non_periodicity_witness(problem, 2.0 * np.pi / 1.2,
                                       [(0.1, np.array([0.5, 0.8, 1.9]))],
                                       basis=degenerate.build_basis(A))


def test_witness_search_lets_programming_errors_through():
    """A failed solve is not a witness, but a TypeError is a bug and surfaces."""
    w = 1.1
    data = rotated_c3d_data()

    def broken_phi(M):
        raise TypeError("broken data family")

    data.phi = broken_phi
    problem = model.HodographProblem(model.coriolis3d_spec(w), data)
    with pytest.raises(TypeError):
        degenerate.non_periodicity_witness(
            problem, 2.0 * np.pi / w, [(0.1, np.array([0.5, 0.8, 1.9]))]
        )


def test_u0_original_takes_a_stack():
    """u0_original on a (k, 3) stack equals its (3,) calls row by row."""
    basis = degenerate.coriolis3d_basis([0.3, -1.1, 0.7])
    data = rotated_c3d_data()
    box = data.sample_box()
    Y = np.random.default_rng(2).uniform(box[:, 0], box[:, 1], size=(6, 3))
    X = Y @ basis.P.T
    stacked = degenerate.u0_original(basis, data, X)
    assert stacked.shape == (6, 3)
    assert np.array_equal(stacked, np.array([degenerate.u0_original(basis, data, x) for x in X]))


def test_witness_builds_the_rotated_problem_once(monkeypatch):
    """The rotated problem depends on the force alone: one per witness search,
    however many sample points it solves at two times each."""
    w = 1.1
    problem = model.HodographProblem(model.coriolis3d_spec(w), rotated_c3d_data())
    basis = degenerate.coriolis3d_basis(w)
    real = degenerate.rotated_problem
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(degenerate, "rotated_problem", counting)
    pts = [(0.1 * i, basis.P @ np.array([0.5, 0.8, 1.2 + 0.1 * i])) for i in range(5)]
    degenerate.non_periodicity_witness(problem, 2.0 * np.pi / w, pts, threshold=1e9)
    assert len(calls) == 1


def test_stacked_witness_matches_per_sample_solves(monkeypatch):
    """One _newton call over the (t, t + T) queue: each sample fails exactly
    where a per-sample degenerate_solve_info route raises, its delta agrees
    to 1e-15 elsewhere, and the witness is the route's first delta over the
    threshold."""
    w = 1.1
    data = model.make_data("separable", components=[
        ("tanh1d", {"mu": 0.8, "kappa": 0.9}),
        ("gauss1d", {"eta": 0.05, "kappa": 1.1}),
        ("gauss1d", {"eta": 0.07, "kappa": 0.8}),
    ])
    problem = model.HodographProblem(model.coriolis3d_spec(w), data)
    basis = degenerate.coriolis3d_basis(w)
    T = 2.0 * np.pi / w
    rng = np.random.default_rng(7)
    ys = [np.array([rng.uniform(1.5, 2.3), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)])
          for _ in range(40)]
    pts = [(rng.uniform(0.0, 0.3), basis.P @ y) for y in ys]
    ref = []
    for t, x in pts:
        try:
            s1, info = degenerate.degenerate_solve_info(problem, basis, t, x)
            s2, _ = degenerate.degenerate_solve_info(problem, basis, t + T, x, guess_M=info.M)
        except HodoflowError:
            ref.append(None)
            continue
        ref.append(float(np.abs(s2.u - s1.u).max()))
    real_newton = hodograph._newton
    calls = []

    def recording(*args):
        calls.append(real_newton(*args))
        return calls[-1]

    monkeypatch.setattr(hodograph, "_newton", recording)
    witness = degenerate.non_periodicity_witness(problem, T, pts, threshold=0.025, basis=basis)
    assert len(calls) == 1
    V = calls[0][1]
    deltas = np.abs(matops.matvec(basis.P, V[:, 1] - V[:, 0])).max(axis=1)
    failed = [d is None for d in ref]
    assert 0 < sum(failed) < len(pts) - 1
    assert np.isnan(deltas).tolist() == failed
    assert max(abs(deltas[i] - d) for i, d in enumerate(ref) if d is not None) <= 1e-15
    first = next(i for i, d in enumerate(ref) if d is not None and d > 0.025)
    assert first > failed.index(False), "the witness is not just the first solved sample"
    assert witness.t == pts[first][0] and np.array_equal(witness.x, pts[first][1])
    assert abs(witness.delta - ref[first]) <= 1e-15


def test_witness_of_no_samples_is_none():
    problem = model.HodographProblem(model.coriolis3d_spec(1.1), rotated_c3d_data())
    assert degenerate.non_periodicity_witness(problem, 2.0 * np.pi / 1.1, []) is None
