"""CLI contract: config grammar, CSV output, determinism, exit codes."""
from __future__ import annotations

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hodoflow import blowup, cli, model, oracle


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    body = [r.split(",") for r in rows[1:]]
    return comments, header, body


SOLVE_CFG = {
    "problem": {"matrix": [[0.0]], "g": [1.0]},
    "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
    "task": {
        "name": "solve",
        "times": [0.0, 0.4],
        "points": {"min": [-1.5], "max": [0.5], "num": 9},
    },
}


def test_solve_csv_shape_and_initial_row(tmp_path):
    cfg_path = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    out = tmp_path / "out.csv"
    rc = cli.main(["solve", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    comments, header, body = read_csv(out)
    assert header == ["t", "x1", "u1", "newton_iters", "status"]
    assert any(c.startswith("# config-sha256:") for c in comments)
    assert len(body) == 18
    data = model.make_data("tanh1d", mu=1.0, kappa=1.0)
    for row in body:
        if float(row[0]) == 0.0:
            x = np.array([float(row[1])])
            assert float(row[2]) == pytest.approx(data.u0(x)[0], abs=1e-12)
            assert row[4] == "OK"


def test_solve_rows_satisfy_pde(tmp_path):
    """Spot-check solved rows against the forced Burgers equation itself."""
    cfg = dict(SOLVE_CFG)
    cfg["problem"] = {"matrix": [[1.0]], "g": [1.0]}
    cfg_path = write_cfg(tmp_path, "solve_pde.yaml", cfg)
    out = tmp_path / "out.csv"
    assert cli.main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    _, _, body = read_csv(out)
    spec = model.ForceSpec(np.array([[1.0]]), np.array([1.0]))
    problem = model.HodographProblem(spec, model.make_data("tanh1d", mu=1.0, kappa=1.0))
    from hodoflow import hodograph

    def u_field(t, x):
        return hodograph.solve_u(problem, t, x).u

    checked = 0
    for row in body:
        t, x, status = float(row[0]), float(row[1]), row[4]
        if status != "OK" or t == 0.0:
            continue
        res = oracle.pde_residual(u_field, spec, t, np.array([x]))
        assert np.max(np.abs(res)) < 1e-5, f"PDE residual {res} at t={t}, x={x}"
        checked += 1
        if checked >= 20:
            break
    assert checked >= 5


def test_solve_deterministic_across_threads(tmp_path):
    cfg_path = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["solve", "--config", cfg_path, "--threads", "1", "--out", str(a)]) == 0
    assert cli.main(["solve", "--config", cfg_path, "--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes(), "output must not depend on --threads"


def test_blowup_tanh2d_summary(tmp_path):
    cfg = {
        "problem": {"matrix": [[0.0, 0.0], [0.0, 0.0]]},
        "data": {"family": "tanh2d", "params": {"eps": 0.5}},
        "task": {"name": "blowup", "grid_num": 61},
    }
    out = tmp_path / "b.csv"
    rc = cli.main(["blowup", "--config", write_cfg(tmp_path, "b.yaml", cfg), "--out", str(out)])
    assert rc == 0
    comments, header, body = read_csv(out)
    assert header == ["branch", "M1", "M2", "t"]
    t_line = next(c for c in comments if c.startswith("# t_star:"))
    assert float(t_line.split(":")[1]) == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_blowup_certificate_line(tmp_path):
    cfg = {
        "problem": {"matrix": [[-2.0]]},
        "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
        "task": {"name": "blowup"},
    }
    out = tmp_path / "c.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "c.yaml", cfg), "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert any("certificate: Certified" in c for c in comments), comments
    assert any("no blow-up" in c for c in comments)
    # every sheet sample is nan: certified absence means no real time anywhere
    assert all(row[2] == "nan" for row in body)


def test_period_report_lines(tmp_path):
    cfg = {"problem": {"preset": "coriolis2d", "omega": 2.0}, "task": {"name": "period"}}
    out = tmp_path / "p.txt"
    assert cli.main(["period", "--config", write_cfg(tmp_path, "p.yaml", cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "periodic: true" in text
    assert f"T: {np.pi}"[:8] in text
    assert "multipliers:" in text


def test_period_negative_report(tmp_path):
    cfg = {"problem": {"preset": "diag", "rates": [1.0, -1.0]}, "task": {"name": "period"}}
    out = tmp_path / "p.txt"
    assert cli.main(["period", "--config", write_cfg(tmp_path, "pn.yaml", cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "periodic: false" in text and "real eigenvalue" in text


def test_period_with_verification(tmp_path):
    cfg = {
        "problem": {"preset": "coriolis2d", "omega": 1.0},
        "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 0.05}},
        "task": {"name": "period", "verify": {"num_points": 10, "t_range": [0.0, 2.0],
                                              "tol": 1.0e-8, "seed": 20}},
    }
    out = tmp_path / "pv.txt"
    assert cli.main(["period", "--config", write_cfg(tmp_path, "pv.yaml", cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "verify: pass" in text, text


def test_compare_gate_pass_and_fail(tmp_path):
    cfg = {
        "problem": {"matrix": [[0.0]], "g": [1.0]},
        "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
        "task": {"name": "compare", "num_samples": 50, "t_range": [0.05, 0.5],
                 "bound": 1.0e-9, "seed": 7},
    }
    out = tmp_path / "cmp.csv"
    rc = cli.main(["compare", "--config", write_cfg(tmp_path, "cmp.yaml", cfg), "--out", str(out)])
    assert rc == 0
    comments, _, _ = read_csv(out)
    assert any("gate: pass" in c for c in comments)
    cfg["task"]["bound"] = 1.0e-16
    rc = cli.main(["compare", "--config", write_cfg(tmp_path, "cmp2.yaml", cfg), "--out", str(out)])
    assert rc == 3, "an unreachable bound must trip the comparison gate"


def test_compare_seed_flag_changes_then_restores_bytes(tmp_path):
    cfg_path = write_cfg(tmp_path, "cmp.yaml", {
        "problem": {"matrix": [[0.0]], "g": [1.0]},
        "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
        "task": {"name": "compare", "num_samples": 20, "t_range": [0.05, 0.4],
                 "bound": 1.0e-9, "seed": 7},
    })
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["compare", "--config", cfg_path, "--out", str(a)]) == 0
    assert cli.main(["compare", "--config", cfg_path, "--seed", "8", "--out", str(b)]) == 0
    assert cli.main(["compare", "--config", cfg_path, "--seed", "7", "--out", str(c)]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes(), "same config + seed must be byte-identical"


def test_coriolis3d_solve_and_compare(tmp_path):
    base = {
        "problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
        "data": {"family": "separable", "components": [
            {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
            {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
            {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}},
        ]},
    }
    solve_cfg = dict(base)
    solve_cfg["task"] = {"name": "coriolis3d", "mode": "solve",
                         "times": [0.0, 0.3],
                         "points": [[0.5, 0.8, -0.2], [0.7, 1.0, 0.1]]}
    out = tmp_path / "c3.csv"
    rc = cli.main(["coriolis3d", "--config", write_cfg(tmp_path, "c3.yaml", solve_cfg),
                   "--out", str(out)])
    assert rc == 0
    _, header, body = read_csv(out)
    assert header[:4] == ["t", "x1", "x2", "x3"]
    assert all(row[-1] == "OK" for row in body), [r[-1] for r in body]

    cmp_cfg = dict(base)
    cmp_cfg["task"] = {"name": "compare", "num_samples": 25, "t_range": [0.05, 0.5],
                       "bound": 1.0e-8, "seed": 3}
    rc = cli.main(["compare", "--config", write_cfg(tmp_path, "c3c.yaml", cmp_cfg),
                   "--out", str(tmp_path / "c3c.csv")])
    assert rc == 0


def test_config_errors_exit_1(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path / "missing.yaml")]) == 1
    bad = write_cfg(tmp_path, "bad.yaml", {"problem": {"preset": "nosuch"}})
    assert cli.main(["solve", "--config", bad]) == 1
    mismatch = write_cfg(tmp_path, "mm.yaml", {
        "problem": {"matrix": [[0.0]]},
        "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
        "task": {"name": "blowup"},
    })
    assert cli.main(["solve", "--config", mismatch]) == 1
    capsys.readouterr()


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuchcommand"])
    assert exc.value.code == 1


def test_config_round_trip_identity(tmp_path):
    cfg_path = write_cfg(tmp_path, "rt.yaml", SOLVE_CFG)
    cfg = cli.load_config(cfg_path)
    assert yaml.safe_load(cli.dump_config(cfg)) == cfg
    assert cli.config_hash(cfg) == cli.config_hash(yaml.safe_load(cli.dump_config(cfg)))


def test_solve_all_points_outside_domain_exit_2(tmp_path):
    cfg = {
        "problem": {"matrix": [[0.0]]},
        "data": {"family": "gauss1d", "params": {"eta": 1.0, "kappa": 1.0}},
        "task": {"name": "solve", "times": [0.1], "points": [[-5.0], [-6.0]]},
    }
    out = tmp_path / "dead.csv"
    rc = cli.main(["solve", "--config", write_cfg(tmp_path, "dead.yaml", cfg), "--out", str(out)])
    assert rc == 2


def _blowup_cfg(matrix, family, params, **task):
    return {
        "problem": {"matrix": matrix},
        "data": {"family": family, "params": params},
        "task": {"name": "blowup", "grid_num": 5, **task},
    }


@pytest.mark.parametrize("matrix, family, params", [
    ([[1.0e-13, 1.0], [-1.0, 0.0]], "gauss2d_coriolis", {"amplitude": 1.0}),
    ([[1.0, 1.0e-13], [0.0, -1.4142135623730951]], "tanh2d", {"eps": 0.5}),
])
def test_blowup_near_pattern_matrix_exits_1(tmp_path, capsys, matrix, family, params):
    """A matrix merely close to an elliptic (trace 0) or diagonal one is a
    config error with a message, not a misclassified scan or a traceback."""
    cfg = write_cfg(tmp_path, "near.yaml", _blowup_cfg(matrix, family, params))
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path / "near.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err, err


def test_blowup_periodic2d_preset(tmp_path):
    """The periodic2d preset is elliptic (trace 0, det lam^2): blowup writes a
    coriolis_first sheet and its t* is a blow-up root of that A."""
    cfg = {
        "problem": {"preset": "periodic2d", "lam": 1.3, "a11": 0.7, "a12": 2.0},
        "data": {"family": "tanh2d", "params": {"eps": 0.5}},
        "task": {"name": "blowup", "grid_num": 21},
    }
    out = tmp_path / "p2d.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "p2d.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert len(body) == 21 * 21 and {row[0] for row in body} == {"coriolis_first"}
    t_star = float(next(c for c in comments if c.startswith("# t_star:")).split()[-1])
    M_star = np.array([float(v) for v in
                       next(c for c in comments if c.startswith("# M_star:")).split()[2:]])
    problem = cli.build_problem(cfg)
    blowup._verify_blowup_time(problem, t_star, M_star)
    grid_times = [float(row[3]) for row in body if float(row[3]) > 0.0]
    assert grid_times and 0.0 < t_star <= min(grid_times)


def test_blowup_near_scalar_diagonal_scans_actual_matrix(tmp_path):
    """diag(0.5, 0.5000045) goes to the diag2 scan; every reported time is a
    blow-up root of that matrix, not of 0.5*I."""
    matrix = [[0.5, 0.0], [0.0, 0.5000045]]
    cfg = _blowup_cfg(matrix, "tanh2d", {"eps": 0.5}, t_max=2.0)
    out = tmp_path / "d.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "d.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert any("no sign change of the residual" in c for c in comments), comments
    problem = cli.build_problem(cfg)
    finite = 0
    for row in body:
        t = float(row[3])
        if np.isfinite(t):
            M = np.array([float(row[1]), float(row[2])])
            assert abs(blowup.blowup_residual(problem, t, M)) <= 1e-8
            finite += 1
    assert finite > 10
    summary = dict(c[2:].split(": ", 1) for c in comments if ": " in c)
    M_star = np.array([float(v) for v in summary["M_star"].split()])
    assert abs(blowup.blowup_residual(problem, float(summary["t_star"]), M_star)) <= 1e-8


def test_blowup_scalar_tolerance_scales_with_the_entry(tmp_path):
    """diag(1000, 1000 + 5e-10) is 1000*I to 1e-12 * 1000: the dispatch and
    sheets_diag agree on that and the scan runs (no traceback)."""
    cfg = _blowup_cfg([[1000.0, 0.0], [0.0, 1000.0 + 5e-10]], "tanh2d", {"eps": 0.5})
    out = tmp_path / "s.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "s.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, _ = read_csv(out)
    assert any(c.startswith("# certificate[tau0]") for c in comments), comments


def test_blowup_time_failing_the_recheck_exits_2(tmp_path, capsys, monkeypatch):
    """A refined time that is not a root of the residual for the actual A is
    refused: the 1D branch shifted 1e-3 earlier makes the run exit 2, with a
    message and no traceback."""
    cfg = write_cfg(tmp_path, "b1.yaml", {
        "problem": {"matrix": [[0.45]]},
        "data": {"family": "tanh1d", "params": {"mu": 1.3, "kappa": 0.9}},
        "task": {"name": "blowup", "grid_num": 41},
    })
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path / "ok.csv")]) == 0
    sheet_1d = blowup.sheet_1d

    def shifted(problem, M_grid=None):
        sheet = sheet_1d(problem, M_grid)
        branch_fn = sheet.branch_fn
        sheet.branch_fn = lambda M: branch_fn(M) - 1e-3
        return sheet

    monkeypatch.setattr(blowup, "sheet_1d", shifted)
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "re-check" in err and "Traceback" not in err, err


C3D_BLOWUP_DATA = {"family": "separable", "components": [
    {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
    {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
    {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}},
]}


def test_coriolis3d_blowup_any_axis(tmp_path):
    """Every axis with |omega| = 1.2 has the same rotated force, so a vector
    omega gives the scalar preset's catastrophe."""
    summaries = []
    for i, omega in enumerate((1.2, [1.2, 0.0, 0.0])):
        cfg = {
            "problem": {"preset": "coriolis3d", "omega": omega, "g_mag": 0.5},
            "data": C3D_BLOWUP_DATA,
            "task": {"name": "coriolis3d", "mode": "blowup", "grid_num": 5, "t_max": 5.0},
        }
        out = tmp_path / f"c3b{i}.csv"
        assert cli.main(["coriolis3d", "--config", write_cfg(tmp_path, f"c3b{i}.yaml", cfg),
                         "--out", str(out)]) == 0
        comments, header, _ = read_csv(out)
        assert header == ["branch", "M1", "M2", "M3", "t"]
        summaries.append(dict(c[2:].split(": ", 1) for c in comments if ": " in c))
    for summary in summaries:
        assert abs(float(summary["t_star"]) - 1.3888888888886868) <= 1e-12
    assert summaries[0]["M_star"] == summaries[1]["M_star"]


_GAUSS_PERIOD = {
    "problem": {"preset": "coriolis2d", "omega": 1.0},
    "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 0.05}},
}
_TANH_1D = {
    "problem": {"matrix": [[0.0]], "g": [1.0]},
    "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
}


@pytest.mark.parametrize("command, cfg", [
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "verify": {
        "num_points": 2, "t_range": [0.0, "abc"]}}}),
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": "abc"}}),
    ("blowup", {"problem": {"matrix": [[1.0, 0.0], [0.0, -1.4142135623730951]]},
                "data": {"family": "tanh2d", "params": {"eps": 0.5}},
                "task": {"name": "blowup", "grid_num": 3, "t_max": "abc"}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": {"start": 0.0, "stop": 0.4,
                                                               "num": "x"},
                                    "points": [[0.1]]}}),
    ("solve", {**_TANH_1D, "solver": {"newton_tol": "abc"},
               "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [0.1], "points": []}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [0.1],
                                    "points": {"min": [-1.0], "max": [0.5], "num": 0}}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": {"start": 0.0, "stop": 0.4,
                                                               "num": 0},
                                    "points": [[0.1]]}}),
], ids=["period-t_range", "compare-num_samples", "blowup-t_max", "solve-times-num",
        "solver-newton_tol", "solve-points-empty", "solve-points-num-0", "solve-times-num-0"])
def test_malformed_number_is_a_config_error(tmp_path, capsys, command, cfg):
    cfg_path = write_cfg(tmp_path, "bad.yaml", cfg)
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o.txt")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err, err


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


#: values no number-, array- or name-valued config key accepts
_JUNK = st.one_of(
    st.text(max_size=6).filter(_not_a_number),
    st.lists(st.text(min_size=1, max_size=3).filter(_not_a_number), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
#: (block, key) pairs to spoil; key None replaces the whole block with a non-mapping
_SPOIL = [
    ("problem", None), ("problem", "matrix"), ("problem", "g"), ("problem", "dimension"),
    ("problem", "omega"), ("problem", "preset"),
    ("task", None), ("task", "name"), ("task", "times"), ("task", "points"),
    ("solver", None), ("solver", "newton_tol"), ("solver", "max_iter"),
]


@settings(max_examples=80, deadline=None)
@given(where=st.sampled_from(_SPOIL), junk=_JUNK,
       block=st.one_of(st.text(max_size=4), st.integers(), st.lists(st.integers(), max_size=2)))
def test_malformed_blocks_fail_loud(tmp_path_factory, where, junk, block):
    """Fuzzed problem, task and solver blocks: exit 1 with a config error on
    stderr and no traceback, whatever the malformed value."""
    cfg = {**_TANH_1D, "solver": {"newton_tol": 1e-12, "max_iter": 50},
           "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}
    name, key = where
    if key == "omega":
        cfg["problem"] = {"preset": "coriolis2d"}
        cfg["data"] = {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}}
    if key is None:
        cfg[name] = block
    else:
        cfg[name] = {**cfg[name], key: junk}
    path = tmp_path_factory.mktemp("fuzz") / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["solve", "--config", str(path)])
    assert rc == 1 and "config error" in err.getvalue(), (cfg, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy and PyYAML only: importing the package and its
    CLI in a fresh interpreter must not bring in any scipy module."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    code = ("import sys, hodoflow, hodoflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]", out


def test_blowup_coriolis_degenerate_trig_is_absent(tmp_path, capsys):
    """J = R with trace 0 and R21 - R12 = 2/w makes a = b = 0 at every M: the
    trig condition has no root, so the sheet is certified absent, no traceback."""
    cfg = {
        "problem": {"matrix": [[0.0, 2.0], [-2.0, 0.0]]},
        "data": {"family": "linear", "params": {"R": [[1.0, -0.5], [0.5, -1.0]]}},
        "task": {"name": "blowup", "grid_num": 5},
    }
    out = tmp_path / "ab0.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "ab0.yaml", cfg),
                     "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    comments, _, body = read_csv(out)
    assert len(body) == 25 and all(row[3] == "nan" for row in body)
    assert any(c.startswith("# certificate[coriolis_first]: Absent everywhere")
               for c in comments), comments

