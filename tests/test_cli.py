"""CLI contract: config grammar, CSV output, determinism, exit codes."""
from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hodoflow import (blowup, cli, degenerate, errors, hodograph, matops, model, oracle,
                      periodicity)


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


def test_period_verification_of_constant_data(tmp_path):
    """u = e^{tA} c is exactly T-periodic when g = 0: constant data passes."""
    cfg = {
        "problem": {"preset": "coriolis2d", "omega": 1.0},
        "data": {"family": "constant", "params": {"c": [0.3, -0.1]}},
        "task": {"name": "period", "verify": {"num_points": 3}},
    }
    out = tmp_path / "pc.txt"
    assert cli.main(["period", "--config", write_cfg(tmp_path, "pc.yaml", cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "verify: pass" in text and "verify_failure" not in text, text


def test_period_verification_writes_each_failing_sample(tmp_path):
    """Linear data under unit rotation reaches its blow-up set at t ~ 0.51 at
    every M: of the four samples drawn on [0.2, 1.6] with seed 2, the two
    later ones each get a verify_failure line naming (t, x, reason)."""
    cfg = {
        "problem": {"preset": "coriolis2d", "omega": 1.0},
        "data": {"family": "linear", "params": {"R": [[1.0, 0.0], [0.0, -0.5]]}},
        "task": {"name": "period", "verify": {"num_points": 4, "t_range": [0.2, 1.6],
                                              "seed": 2}},
    }
    out = tmp_path / "pf.txt"
    assert cli.main(["period", "--config", write_cfg(tmp_path, "pf.yaml", cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "verify: fail" in lines
    failures = [line for line in lines if line.startswith("verify_failure: ")]
    assert failures == [
        "verify_failure: t = 0.566256987949043, x = (-0.4030177131717534, 0.6284514811885606): "
        "sample point is on or past the blow-up set",
        "verify_failure: t = 1.1204062208258296, x = (0.124531325560856, -0.6998754733893278): "
        "sample point is on or past the blow-up set",
    ]


@pytest.mark.parametrize("problem, data, grid, expected", [
    ({"matrix": (-0.3 * np.eye(3)).tolist()},
     {"family": "separable", "components": [
         {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
         {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
         {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}}]}, 5, [
        "certificate[tau0]: NotAbsent (A*tau(M) = -0.416666666667 >= -1 "
        "at M = (0.8, 0.003, 0.0034999999999999996))",
        "certificate[tau1]: NotAbsent (A*tau(M) = -0.545964731267 >= -1 "
        "at M = (0.8, 0.3, 0.0034999999999999996))",
        "certificate[tau2]: NotAbsent (A*tau(M) = -0.643458433278 >= -1 "
        "at M = (0.404, 0.3, 0.35000000000000003))",
     ]),
    ({"preset": "coriolis2d", "omega": 1.0},
     {"family": "gauss2d_coriolis", "params": {"amplitude": 0.5}}, 21, [
        "certificate[coriolis_first]: NotCertified (a^2 + b^2 - c^2 = 2.83382758518e+15 >= 0 "
        "at M = (0.2995000000000001, 0.29950000000000004))",
     ]),
], ids=["scalar3d", "coriolis2d"])
def test_certificate_lines_write_M_at_full_precision(tmp_path, problem, data, grid, expected):
    """A refused absence certificate names its worst M with every coordinate's
    float repr, as M_star is written, whatever numpy's print options: the
    coriolis point is off the edge M1 = M2 by 2 ulps, which numpy's 4-digit
    repr (0.2995, 0.2995) hid."""
    cfg = {"problem": problem, "data": data, "task": {"name": "blowup", "grid_num": grid}}
    out = tmp_path / "cert.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "cert.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, _ = read_csv(out)
    assert [c[2:] for c in comments if c.startswith("# certificate")] == expected


def test_readme_period_example_matches_a_run(tmp_path):
    """The README's period example, run from its own YAML block, prints the
    output shown there, every line but the config hash."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Example: period report with flow verification", 1)[1]
    blocks = section.split("```")
    cfg_text, shown = blocks[1].removeprefix("yaml\n"), blocks[3].strip().splitlines()
    assert shown[0] == "$ hodoflow period --config period.yaml", shown[0]
    cfg_path = tmp_path / "period.yaml"
    cfg_path.write_text(cfg_text)
    out = tmp_path / "period.txt"
    assert cli.main(["period", "--config", str(cfg_path), "--out", str(out)]) == 0
    got = out.read_text().splitlines()
    assert got[0].startswith("# config-sha256: ") and shown[1] == "# config-sha256: ..."
    assert got[1:] == shown[2:]


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


@pytest.mark.parametrize("matrix, g, c", [
    ([[0.3]], [1.0], [0.5]),
    ([[-0.4, 0.7], [-0.7, -0.4]], [0.2, -1.0], [0.5, -0.25]),
])
def test_compare_constant_data_is_solved_in_closed_form(tmp_path, matrix, g, c):
    """Constant data is rigid transport: no characteristics cross, so no sample
    is POST_BLOWUP, and each one's velocity is the closed form, equal to the
    exact flow's to rounding."""
    cfg = {
        "problem": {"matrix": matrix, "g": g},
        "data": {"family": "constant", "params": {"c": c}},
        "task": {"name": "compare", "num_samples": 5, "t_range": [0.05, 2.0], "seed": 3},
    }
    out = tmp_path / "const.csv"
    assert cli.main(["compare", "--config", write_cfg(tmp_path, "const.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert "# samples: 5 (ok: 5, post_blowup: 0, solve_fail: 0)" in comments, comments
    assert all(row[-1] == "OK" and float(row[-2]) <= 1e-14 for row in body), body


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


def test_help_lists_every_command_and_options_go_either_side(tmp_path, capsys):
    """--help names every command with its description, and --config, --out,
    --threads and --seed parse before the command as after it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in cli._COMMANDS:
        assert f"  {name} " in text and cli._COMMAND_HELP[name] in text, name
    cfg_path = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    opts = ["--config", cfg_path, "--out", str(tmp_path / "o.csv"), "--threads", "2", "--seed", "5"]
    parser = cli._build_parser()
    assert parser.parse_args(["solve", *opts]) == parser.parse_args([*opts, "solve"])
    assert vars(parser.parse_args([*opts[:4], "compare", *opts[4:]])) == {
        "command": "compare", "config": cfg_path, "out": str(tmp_path / "o.csv"),
        "threads": 2, "seed": 5}
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert cli.main(["--config", cfg_path, "--out", str(first), "solve"]) == 0
    assert cli.main(["solve", "--config", cfg_path, "--out", str(last)]) == 0
    assert first.read_bytes() == last.read_bytes()


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """cli.main builds its argparse parser on the first call and keeps it: two
    runs construct one _Parser.  --help still exits 0 with the text of a
    freshly built parser, and a usage error still exits 1."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    cfg_path = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    for name in ("first.csv", "second.csv"):
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path / name)]) == 0
    assert len(built) == 1
    for argv, code in ((["--help"], 0), (["nosuchcommand", "--config", cfg_path], 1)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code, argv
    assert capsys.readouterr().out == cli._build_parser.__wrapped__().format_help()
    assert len(built) == 2  # the one cached parser, and the fresh one built above


# ---------------------------------------------------------------------------
# the --out writer: the file is rewritten in place, then cut to the new bytes


_PERIOD_CFG = {"problem": {"preset": "coriolis2d", "omega": 2.0}, "task": {"name": "period"}}


def _stdout_text(tmp_path, capsys, command, cfg):
    """The config path of a run and the text it prints with no --out."""
    cfg_path = write_cfg(tmp_path, f"{command}.yaml", cfg)
    assert cli.main([command, "--config", cfg_path]) == 0
    return cfg_path, capsys.readouterr().out


@pytest.mark.parametrize("command, cfg", [("solve", SOLVE_CFG), ("period", _PERIOD_CFG)])
def test_out_holds_exactly_the_printed_bytes(tmp_path, capsys, command, cfg):
    """A longer file already at --out ends with exactly the run's bytes, a
    new file is created with the same bytes, and they are the text the run
    prints with no --out."""
    cfg_path, text = _stdout_text(tmp_path, capsys, command, cfg)
    old, new = tmp_path / "old.out", tmp_path / "new.out"
    old.write_bytes(b"stale,row\n" * 10_000)
    assert 0 < len(text) < old.stat().st_size
    for out in (old, new):
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode("utf-8"), out.name
    capsys.readouterr()


def test_out_to_dev_null_exits_0(tmp_path, capsys):
    """A device is written and not cut: ftruncate would fail on /dev/null."""
    cfg_path = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    assert cli.main(["solve", "--config", cfg_path, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_an_output_error(tmp_path, capsys, where):
    """An --out that cannot be opened exits 1 with an output error naming it;
    a config that cannot be read is still a config error."""
    cfg_path = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    out = tmp_path if where == "directory" else tmp_path / "no" / "such" / "out.csv"
    assert cli.main(["solve", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hodoflow: output error: cannot write {str(out)!r}: "), err
    assert cli.main(["solve", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("hodoflow: config error: ")


def test_failed_write_leaves_exactly_the_written_prefix(tmp_path, capsys, monkeypatch):
    """A write that fails part-way (the disk full after 100 bytes) leaves
    exactly those bytes in place of a longer file, as a truncating open
    would, and exits 1 with an output error."""
    cfg_path, text = _stdout_text(tmp_path, capsys, "solve", SOLVE_CFG)
    written = 100

    class FullDisk(io.BufferedWriter):
        def write(self, data):
            super().write(data[:written])
            self.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_disk_open(file, mode="r", **kwargs):
        return FullDisk(io.FileIO(file, "w")) if mode == "wb" else open(file, mode, **kwargs)

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    out = tmp_path / "out.csv"
    out.write_bytes(b"stale,row\n" * 10_000)
    assert cli.main(["solve", "--config", cfg_path, "--out", str(out)]) == 1
    assert out.read_bytes() == text.encode("utf-8")[:written]
    assert capsys.readouterr().err == (f"hodoflow: output error: cannot write {str(out)!r}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")


def test_config_round_trip_identity(tmp_path):
    cfg_path = write_cfg(tmp_path, "rt.yaml", SOLVE_CFG)
    cfg = cli.load_config(cfg_path)
    assert yaml.safe_load(cli.dump_config(cfg)) == cfg
    assert cli.config_hash(cfg) == cli.config_hash(yaml.safe_load(cli.dump_config(cfg)))


def _sweep_shape():
    """solve-sweep's shape: 100 seeded coriolis2d points at 7 times."""
    points = np.random.default_rng(1).uniform(0.05, 1.2, size=(100, 2))
    return {"problem": {"preset": "coriolis2d", "omega": 1.0},
            "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
            "task": {"name": "solve", "times": {"start": 0.0, "stop": 0.9, "num": 7},
                     "points": points.tolist()}}


def _scan_shape():
    """blowup-scan's shape: diag(1, -sqrt 2), tanh2d eps 9, grid 3."""
    return {"problem": {"preset": "diag", "rates": [1.0, -np.sqrt(2.0).item()]},
            "data": {"family": "tanh2d", "params": {"eps": 9.0}},
            "task": {"name": "blowup", "grid_num": 3, "t_max": 0.11}}


def _compare_shape():
    """compare-3d's shape: coriolis3d with a separable components list."""
    return {"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
            "data": {"family": "separable", "components": [
                {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
                {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
                {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}}]},
            "task": {"name": "compare", "num_samples": 24, "t_range": [0.9, 1.3],
                     "bound": 1.0e-8, "seed": 1}}


def _quoted_shape():
    """A string with a space, which SafeDumper quotes: PyYAML writes this one."""
    return {"problem": {"preset": "diag", "rates": [1.0, 2.0], "note": "two rates"},
            "data": {"family": "tanh2d", "params": {"eps": 0.5}}}


def test_config_hash_is_pinned():
    """The canonical dump, and so every output stamp, is the one that the
    pure-Python yaml.safe_dump gave before the CLI used libyaml, and before
    it wrote plain data itself: the benchmark-shaped configs and a quoted
    string included."""
    pinned = {
        "62e5fa62ab0c71958f686f5e750ed70dbce20757017655e8151499366befd702": SOLVE_CFG,
        "3a12fe47c7ebdde600978685a74a0c2d6135526b62d38a7618236892091b07e3": _sweep_shape(),
        "4d055bd4faedb6db78d4b53e4a0f35491894be9f19bfd614ab20d7bb3e9f2294": _scan_shape(),
        "28cdb17e68cada4a11cbd2e1fbd3f5798a031d464ab40dde4bed19193de8e241": _compare_shape(),
        "f7a2e1e4d42ae7b4e89c2acaa6aa2ffabf536b0135178d0b24439cf9f8895eed": _quoted_shape(),
    }
    assert {cli.config_hash(cfg): cfg for cfg in pinned.values()} == pinned


@pytest.mark.parametrize("make, dumps", [
    (_sweep_shape, 0), (_scan_shape, 0), (_compare_shape, 0), (_quoted_shape, 1),
], ids=["sweep", "blowup", "compare", "quoted"])
def test_plain_configs_skip_pyyaml_construction_and_dump(tmp_path, monkeypatch, make, dumps):
    """The benchmark-shaped configs are hashed, written and read back without
    yaml.dump or SafeConstructor.construct_document; a quoted string costs one
    yaml.dump per dump and reads back through the walk.  A merge key is built
    by the constructor."""
    calls = {"dump": 0, "construct": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(yaml, "dump", counted("dump", yaml.dump))
    monkeypatch.setattr(yaml.constructor.SafeConstructor, "construct_document",
                        counted("construct", yaml.constructor.SafeConstructor.construct_document))
    cfg = make()
    digest = cli.config_hash(cfg)
    assert calls == {"dump": dumps, "construct": 0}
    path = tmp_path / "cfg.yaml"
    path.write_text(cli.dump_config(cfg), encoding="utf-8")
    loaded = cli.load_config(str(path))
    assert loaded == cfg and cli.config_hash(loaded) == digest
    assert calls == {"dump": 3 * dumps, "construct": 0}
    path.write_text("problem: {<<: {preset: diag}, rates: [1.0, 2.0]}\n", encoding="utf-8")
    assert cli.load_config(str(path)) == {"problem": {"preset": "diag", "rates": [1.0, 2.0]}}
    assert calls == {"dump": 3 * dumps, "construct": 1}


@pytest.mark.parametrize("length", [122, 123, 128, 129])
def test_long_keys_keep_the_dump_of_pyyaml(length):
    """A key of up to 122 characters is a simple key for both emitters and is
    written directly; from 123 to 128 only libyaml keeps it simple, so such a
    key, and a longer one, is dumped by PyYAML as before."""
    word = "k" * length
    cfg = {word: 1.0, "v": [{word: [word]}]}
    text = cli.dump_config(cfg)
    assert text == yaml.dump(cfg, Dumper=cli._Dumper, sort_keys=True)
    if length <= 122:
        assert text == yaml.dump(cfg, Dumper=yaml.SafeDumper, sort_keys=True)
        assert text.startswith(word + ": 1.0\n")


def _same(a, b):
    """Equal values of equal types, with NaN equal to NaN (and -0.0 != 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


_ALPHA = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_WORD = st.builds(str.__add__, st.sampled_from(_ALPHA), st.text(_ALPHA + "0123456789", max_size=11))
_NUMBER = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
                     2.2250738585072014e-308, 1e300, -1e300, 1e16, 1e-5]),
    st.integers(),
)
#: YAML 1.1 words and digit-led strings: the resolver reads most as bool, null,
#: int, float, timestamp, merge or value, so SafeDumper quotes them; y and 1e5
#: it reads as strings (YAML 1.1 has y as a bool and PyYAML floats need a '.')
_RESERVED = st.sampled_from(["yes", "On", "NO", "true", "null", "~", "0x1f", "010", "1e5",
                             ".inf", "1_000", "2001-12-14", "<<", "=", "y"])
_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=100)


def _values(scalar, key):
    """Scalars, lists and mappings of values: a list of mappings is the shape
    of a separable 'components' list."""
    return st.recursive(scalar, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(key, inner, max_size=3)), max_leaves=12)


#: (key, scalar) strategies of plain data, which the CLI writes and reads
#: itself; of quoted strings (reserved words and digit-led keys among them),
#: which PyYAML writes; and with int keys, which PyYAML also reads
_PLAIN = (_WORD, st.one_of(_WORD, _NUMBER, st.booleans(), st.none()))
_QUOTED = (st.one_of(_WORD, _RESERVED, st.text("abcdefghijklmnopqrstuvwxyz_0123456789",
                                                  min_size=1, max_size=12)),
           st.one_of(_WORD, _RESERVED, _TEXT, _NUMBER, st.booleans(), st.none()))
_INT_KEYS = (st.one_of(_QUOTED[0], st.integers(0, 9)), _QUOTED[1])
#: kind -> (key, scalar, value) strategies
_KINDS = {kind: (key, scalar, _values(scalar, key)) for kind, (key, scalar) in
          {"plain": _PLAIN, "quoted": _QUOTED, "int-keys": _INT_KEYS, "alias": _PLAIN}.items()}


@st.composite
def _schema_configs(draw):
    """Configs that pass validate_config, with free values under free keys:
    plain, quoted or int-keyed data, or plain data with one list under two
    keys, which SafeDumper writes as an anchor and an alias."""
    kind = draw(st.sampled_from(list(_KINDS)))
    key, scalar, value = _KINDS[kind]

    def block(**fixed):
        return {**draw(st.dictionaries(key, value, max_size=4)), **fixed}

    cfg = {"problem": block(matrix=draw(value))}
    cfg["problem"].pop("preset", None)  # a free preset value fails validate_config
    if draw(st.booleans()):
        cfg["data"] = block(family=draw(st.sampled_from(sorted(model.FAMILIES))),
                            params=block())
    if draw(st.booleans()):
        cfg["task"] = block(name=draw(st.sampled_from(["solve", "blowup", "compare"])))
    if draw(st.booleans()):
        cfg["solver"] = block()
    if kind == "alias":
        cfg["problem"]["first"] = cfg["problem"]["second"] = draw(st.lists(scalar, max_size=3))
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=_schema_configs())
def test_canonical_dump_and_load_match_pure_python_yaml(tmp_path_factory, cfg):
    """The CLI writes the pure-Python SafeDumper's text and reads back the
    pure-Python SafeLoader's values, on its own paths for plain data and
    through libyaml (when PyYAML has it) for the rest: quoted strings, int
    keys, anchors and aliases."""
    text = cli.dump_config(cfg)
    assert text == yaml.dump(cfg, Dumper=yaml.SafeDumper, sort_keys=True)
    path = tmp_path_factory.mktemp("dump") / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    assert _same(cli.load_config(str(path)), yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("raw, needle", [
    (b"problem:\n  preset: diag  # caf\xe9\n  rates: [1.0, 2.0]\n", "not valid UTF-8"),
    (b"problem:\n\tpreset: diag\n", "while scanning"),
    (b"problem: {preset: diag, rates: [1.0, 2.0\n", "while parsing"),
    (b"- problem\n- data\n", "must be a mapping"),
    (b"", "must be a mapping"),
], ids=["latin1-byte", "tab-indent", "unclosed-bracket", "top-level-list", "empty"])
def test_malformed_config_text_is_a_config_error(tmp_path, capsys, raw, needle):
    path = tmp_path / "raw.yaml"
    path.write_bytes(raw)
    assert cli.main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hodoflow: config error") and needle in err, err
    assert "Traceback" not in err
    if needle == "not valid UTF-8":
        assert str(path) in err, err


_INT_FLOAT_BOOL_NULL = (
    "problem: {matrix: [[0x1f, 010, +5, -0, 1_000, 0b101, 1:30]],\n"
    "          g: [.inf, -.inf, .nan, +1.5, -0.0, 1_0.5, 6.8523015e+5, 190:20:30.15, .5, 1.]}\n"
    "solver: {flags: [Yes, off, ~, null, NULL, 'yes', \"1e5\"]}\n")


@pytest.mark.parametrize("text", [
    "problem: {matrix: &m [[1.0, 0.0], [0.0, 1.0]], g: &g [0.0, 0.0]}\n"
    "solver: {a: *m, b: *m, c: *g, d: &s tol, e: *s}\n",
    "data: {family: tanh2d, params: &p {eps: 0.5}}\n"
    "problem: {<<: [{preset: diag}, {rates: [1.0, 2.0]}], extra: {<<: *p, mu: 1.0}}\n",
    "problem: {matrix: [[!!float 1]], g: [!!str 1.0], h: !!int 010}\n",
    "problem: {matrix: [[1.0]], when: 2001-12-14, at: 2001-12-14t21:59:43.10-05:00}\n",
    "problem: &p {matrix: [[1.0]], self: *p}\n",
    _INT_FLOAT_BOOL_NULL,
    "problem: {matrix: [[1.0]]}\nsolver: {1: one, 2.5: x, true: t, null: n}\n",
    "problem: {matrix: [[1.0]], g: !foo [0.0]}\n",
    "problem: {preset: diag}\n---\nproblem: {preset: diag}\n",
    "",
], ids=["aliases", "merge", "explicit-tags", "timestamp", "recursive", "int-float-bool-null",
        "non-string-keys", "unknown-tag", "two-documents", "empty"])
@pytest.mark.parametrize("loader", [cli._Loader, yaml.SafeLoader], ids=["default", "pure-python"])
def test_load_config_matches_pure_python_safe_loader(tmp_path, monkeypatch, loader, text):
    """load_config, with libyaml's composer where PyYAML has it and with the
    pure-Python one, gives yaml.load(SafeLoader)'s values, types and shared
    objects (SafeDumper's text of a value shows all three, anchors included),
    or raises its error with the same text; an empty file is no mapping."""
    monkeypatch.setattr(cli, "_Loader", loader)
    path = tmp_path / "raw.yaml"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:  # the same stream name in the marks
        try:
            ref = yaml.load(fh, Loader=yaml.SafeLoader)
        except yaml.YAMLError as exc:
            with pytest.raises(type(exc)) as got:
                cli.load_config(str(path))
            assert str(got.value) == str(exc)
            return
    if ref is None:
        with pytest.raises(errors.ConfigError, match="top-level config must be a mapping"):
            cli.load_config(str(path))
        return
    assert yaml.dump(cli.load_config(str(path)), Dumper=yaml.SafeDumper) == yaml.dump(
        ref, Dumper=yaml.SafeDumper)


def _scalar_texts(node):
    """The text of every scalar node under a composed node."""
    if isinstance(node, yaml.ScalarNode):
        return [node.value]
    items = (node.value if isinstance(node, yaml.SequenceNode)
             else [item for pair in node.value for item in pair])
    return [text for item in items for text in _scalar_texts(item)]


def test_loader_tags_scalars_as_the_pyyaml_resolver():
    """cli._Loader.resolve, which tags int and float text of _DECIMAL's
    patterns without PyYAML's regex list, gives the tag of PyYAML's resolver
    for every scalar of the int-float-bool-null corpus and for number-like
    text on either side of those patterns, plain or quoted."""
    texts = _scalar_texts(yaml.compose(_INT_FLOAT_BOOL_NULL, Loader=yaml.SafeLoader)) + [
        "1e5", "1.", ".5", "+.5", "-0", "00", "0o17", "1_000", "190:20:30.15", "2001-12-14"]
    loader, ref = cli._Loader(""), yaml.resolver.Resolver()
    try:
        for text in texts:
            for implicit in ((True, False), (False, True)):
                assert (loader.resolve(yaml.ScalarNode, text, implicit)
                        == ref.resolve(yaml.ScalarNode, text, implicit)), (text, implicit)
    finally:
        loader.dispose()
    assert {ref.resolve(yaml.ScalarNode, text, (True, False)) for text in texts} == {
        f"tag:yaml.org,2002:{tag}" for tag in ("int", "float", "bool", "null", "str", "timestamp")}


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
def test_blowup_near_pattern_matrix_scans_the_matrix_given(tmp_path, matrix, family, params):
    """A matrix merely close to an elliptic (trace 0) or diagonal one never
    reaches a closed-form builder: it goes to the residual scan of that
    matrix (every sheet cell first_root), and its t* is a root for it."""
    cfg = _blowup_cfg(matrix, family, params)
    out = tmp_path / "near.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "near.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert body and {row[0] for row in body} == {"first_root"}
    summary = _summary(comments)
    if "t_star" in summary:
        M_star = np.array([float(v) for v in summary["M_star"].split()])
        t_star = float(summary["t_star"])
        problem = cli.build_problem(cfg)
        blowup._verify_blowup_time(problem, t_star, M_star, matops.phi1(problem.spec.A, t_star))


def _summary(comments):
    return dict(c[2:].split(": ", 1) for c in comments if ": " in c)


@pytest.mark.parametrize("matrix, branches, t_star", [
    ([[0.2, 1.1], [-0.9, -0.3]], {"first_root"}, 0.7777557860304074),
    ([[0.6, 0.0], [0.0, 0.0]], {"t0", "t1"}, 0.6022344009370001),
], ids=["off-pattern", "diag-zero-entry"])
def test_blowup_without_a_closed_form_runs_the_scan(tmp_path, matrix, branches, t_star):
    """An off-pattern 2x2 gets the first-root scan and diag(0.6, 0) the
    all-roots scan of an irrational ratio; both report a re-checked t*."""
    cfg = _blowup_cfg(matrix, "tanh2d", {"eps": 0.5}, grid_num=11)
    out = tmp_path / "scan.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "scan.yaml", cfg),
                     "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert {row[0] for row in body} <= branches and len(body) >= 11 * 11
    summary = _summary(comments)
    assert float(summary["t_star"]) == t_star
    M_star = np.array([float(v) for v in summary["M_star"].split()])
    problem = cli.build_problem(cfg)
    blowup._verify_blowup_time(problem, t_star, M_star, matops.phi1(problem.spec.A, t_star))


def test_blowup_four_dimensional_rotation_runs(tmp_path):
    """The 4x4 block rotation (periods 2 pi and pi) has no closed-form builder:
    the first-root scan of its residual runs over a 4D M-grid."""
    rotation = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
    comp = {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}}
    cfg = {"problem": {"matrix": rotation},
           "data": {"family": "separable", "components": [comp] * 4},
           "task": {"name": "blowup", "grid_num": 3}}
    out = tmp_path / "rot4.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "rot4.yaml", cfg),
                     "--out", str(out)]) == 0
    _, header, body = read_csv(out)
    assert header == ["branch", "M1", "M2", "M3", "M4", "t"] and len(body) == 3**4
    assert {row[0] for row in body} == {"first_root"}


def test_blowup_of_the_coriolis3d_preset_matches_its_rotated_frame(tmp_path):
    """blowup reads coriolis3d-preset data in the original frame and the
    coriolis3d command in y = L x, with L swapping x1 and x3 for a scalar
    omega: with the separable components reversed, both find the same t* and
    x* bit for bit, and M* reversed."""
    summaries = []
    for command, data in (("coriolis3d", C3D_BLOWUP_DATA),
                          ("blowup", {"family": "separable",
                                      "components": C3D_BLOWUP_DATA["components"][::-1]})):
        task = {"name": command, "mode": "blowup"} if command == "coriolis3d" else {}
        cfg = {"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
               "data": data, "task": task}
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", write_cfg(tmp_path, f"{command}.yaml", cfg),
                         "--out", str(out)]) == 0
        comments, _, body = read_csv(out)
        assert len(body) == 11**3 and {row[0] for row in body} == {"first_root"}
        summaries.append(_summary(comments))
    rotated, original = summaries
    assert rotated["t_star"] == original["t_star"] == "1.3888888888888888"
    assert rotated["x_star"] == original["x_star"]
    assert rotated["M_star"].split() == original["M_star"].split()[::-1]
    u_rot, u_orig = (np.array(s["u_star"].split(), dtype=float) for s in summaries)
    assert np.max(np.abs(u_rot - u_orig)) <= 1e-15


@pytest.mark.parametrize("grid_num", [7, 10])
def test_blowup_flat_minimum_keeps_its_tie_break_in_both_frames(tmp_path, grid_num):
    """The coriolis3d preset run (blowup, components reversed) and its
    rotated-frame run (coriolis3d) share a flat minimum: t depends on the
    tanh component's M alone.  Both pick the same grid point along the flat
    axes and keep its coordinates there, also at grid 10, where no node has
    M = 0.8 and Newton moves t and that one coordinate: the same t_star and
    x_star text, and M_star's text mirrored."""
    summaries = []
    for command, data in (("coriolis3d", C3D_BLOWUP_DATA),
                          ("blowup", {"family": "separable",
                                      "components": C3D_BLOWUP_DATA["components"][::-1]})):
        task = {"name": command, "grid_num": grid_num}
        if command == "coriolis3d":
            task["mode"] = "blowup"
        cfg = {"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
               "data": data, "task": task}
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", write_cfg(tmp_path, f"{command}.yaml", cfg),
                         "--out", str(out)]) == 0
        summaries.append(_summary(read_csv(out)[0]))
    rotated, original = summaries
    assert rotated["t_star"] == original["t_star"] == "1.3888888888888888"
    assert rotated["x_star"] == original["x_star"]
    assert rotated["M_star"].split() == original["M_star"].split()[::-1]
    assert rotated["M_star"].split()[0] == "0.8"


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
    blowup._verify_blowup_time(problem, t_star, M_star, matops.phi1(problem.spec.A, t_star))
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


@pytest.mark.parametrize("matrix, horizon, node, t_max", [
    ([[50.0, 0.0], [0.0, 100.0]], "[-10.0, 7.089999999999634]", "7.0999999999996355", 7.0),
    ([[1000.0, 0.0], [0.0, 1000.0 + 5e-10]], "[-10.0, 0.6999999999997719]",
     "0.7099999999997717", 0.7),
    ([[-100.0, 0.0], [0.0, 50.0]], "[-7.090000000000062, 10.0]", "-7.100000000000062", 7.0),
], ids=["rational-diag", "near-scalar", "below-zero"])
def test_blowup_scan_overflow_names_its_node_and_t_max(tmp_path, capsys, matrix, horizon, node,
                                                       t_max):
    """A diagonal 2x2 whose phi1 overflows inside [-t_max, t_max] is scanned up
    to the last finite node on that side of t = 0.  The sheets' nan-entries
    comment names the lowered horizon, the overflowing node in plain floats
    and t_max, and the run reports the t_star of a run whose t_max stops
    short of the overflow, bit for bit.  diag(50, 100) has a rational ratio,
    diag(1000, 1000 + 5e-10) is no scalar multiple of the identity (both get
    the all-roots scan), and diag(-100, 50) overflows below t = 0."""
    cfg = _blowup_cfg(matrix, "tanh2d", {"eps": 0.5}, grid_num=5)
    path = write_cfg(tmp_path, "over.yaml", cfg)
    assert cli.main(["blowup", "--config", path, "--out", str(tmp_path / "over.csv")]) == 0
    assert "np.float64" not in capsys.readouterr().err
    comments, _, _ = read_csv(tmp_path / "over.csv")
    reason = (f"no sign change of the residual on {horizon}: phi1 overflows at t = {node}, so "
              f"the horizon is lowered from t_max 10.0 to the last finite node")
    assert f"# sheet t0 nan entries: {reason}" in comments, comments
    cfg["task"]["t_max"] = t_max
    path = write_cfg(tmp_path, "lower.yaml", cfg)
    assert cli.main(["blowup", "--config", path, "--out", str(tmp_path / "lower.csv")]) == 0
    lower, _, _ = read_csv(tmp_path / "lower.csv")
    assert not any("overflows" in c for c in lower), lower
    t_star = [c for c in comments if c.startswith("# t_star: ")]
    assert len(t_star) == 1 and t_star == [c for c in lower if c.startswith("# t_star: ")]


@pytest.mark.parametrize("matrix, span, node", [
    ([[1.0e5, 0.0], [0.0, 2.0e5]], "[-10.0, 9.999999999999574]", "0.009999999999786624"),
    ([[1.0e4, 1.0], [0.0, 2.0e4]], "[0.0, 10.000000000000002]", "0.05"),
], ids=["all-roots", "first-root"])
def test_blowup_scan_refuses_when_no_finite_node_is_left(tmp_path, capsys, matrix, span, node):
    """A phi1 that overflows at the first scan node past t = 0 leaves nothing
    to scan on that side: the run exits 2 naming that node and the grid, in
    plain floats and with no traceback."""
    path = write_cfg(tmp_path, "over.yaml", _blowup_cfg(matrix, "tanh2d", {"eps": 0.5}))
    assert cli.main(["blowup", "--config", path, "--out", str(tmp_path / "over.csv")]) == 2
    err = capsys.readouterr().err
    assert (f"solver failure: phi1 overflowed at t = {node}, the first node of the scan grid "
            f"{span} past t = 0 on its side: no finite node is left to scan there") in err, err
    assert "np.float64" not in err and "Traceback" not in err, err


def test_blowup_time_failing_the_recheck_exits_2(tmp_path, capsys, monkeypatch):
    """A refined time that is not a root of the residual for the actual A is
    refused: the 1D sheet's grid times shifted 1e-3 earlier make the run
    exit 2, with a message and no traceback, that writes M* as plain floats.
    Newton on the extremum conditions finds the true minimum later than the
    shifted grid's, so the sheet keeps its shifted grid minimum."""
    cfg = write_cfg(tmp_path, "b1.yaml", {
        "problem": {"matrix": [[0.45]]},
        "data": {"family": "tanh1d", "params": {"mu": 1.3, "kappa": 0.9}},
        "task": {"name": "blowup", "grid_num": 41},
    })
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path / "ok.csv")]) == 0
    sheet_1d = blowup.sheet_1d

    def shifted(problem, M_grid=None):
        sheet = sheet_1d(problem, M_grid)
        sheet.t = sheet.t - 1e-3
        return sheet

    monkeypatch.setattr(blowup, "sheet_1d", shifted)
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "re-check" in err and "Traceback" not in err, err
    assert "M*=(" in err and "array(" not in err and "np.float64(" not in err, err


def test_blowup_scan_refinement_keeps_its_summary_in_few_probes(tmp_path, monkeypatch):
    """The blowup-scan benchmark config (diag(1, -sqrt 2), tanh2d eps 9, grid 3,
    t_max 0.11): the minimum sits on the grid point M = 0, where the extremum
    conditions F = (f, f_M) are exactly 0, so the refinement keeps the grid
    summary bit for bit after one stacked evaluation of the conditions (that
    point and its 6 shifted points) and no branch_fn call."""
    cfg = write_cfg(tmp_path, "scan.yaml", {
        "problem": {"preset": "diag", "rates": [1.0, -float(np.sqrt(2.0))]},
        "data": {"family": "tanh2d", "params": {"eps": 9.0}},
        "task": {"name": "blowup", "grid_num": 3, "t_max": 0.11},
    })
    probes, rows = [], []
    sheets_scan, conditions = blowup.sheets_scan, blowup._extremum_conditions

    def counted(*args, **kwargs):
        sheets = sheets_scan(*args, **kwargs)
        for sheet in sheets:
            branch_fn = sheet.branch_fn
            sheet.branch_fn = lambda M, fn=branch_fn: probes.append(len(M)) or fn(M)
        return sheets

    monkeypatch.setattr(blowup, "sheets_scan", counted)
    monkeypatch.setattr(blowup, "_extremum_conditions",
                        lambda data, table, z: rows.append(len(z)) or conditions(data, table, z))
    out = tmp_path / "scan.csv"
    assert cli.main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    comments, _, _ = read_csv(out)
    assert "# t_star: 0.10096597532376488" in comments
    assert "# M_star: 0.0 0.0" in comments
    assert probes == [] and rows == [7], (probes, rows)


@pytest.mark.parametrize("cfg, summary, k2_calls", [
    ({"problem": {"preset": "diag", "rates": [1.0, -float(np.sqrt(2.0))]},
      "data": {"family": "tanh2d", "params": {"eps": 9.0}},
      "task": {"name": "blowup", "grid_num": 3, "t_max": 0.11}},
     ["t_star: 0.10096597532376488", "M_star: 0.0 0.0", "x_star: 0.0 0.0", "u_star: 0.0 0.0",
      "branch: t0"], 0),
    ({"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
      "data": {"family": "separable", "components": [
          {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}},
          {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
          {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}}]},
      "task": {"name": "blowup", "grid_num": 5, "t_max": 5.0}},
     ["t_star: 1.3888888888888888", "M_star: 0.0034999999999999996 0.003 0.8",
      "x_star: 2.8829018483318514 2.0918448531836082 0.6288580246913581",
      "u_star: 0.0026511914552049816 -0.003771098496174304 0.10555555555555562",
      "branch: first_root"], 1),
], ids=["g-zero", "g-non-zero"])
def test_blowup_summary_takes_phi2_only_for_a_non_zero_g(tmp_path, monkeypatch, cfg, summary,
                                                         k2_calls):
    """x* = phi(M*) + phi1 M* + phi2 g needs phi2 only where g != 0: the
    blowup-scan config (g = 0) makes no k = 2 matops.time_row call and keeps
    its summary, and a coriolis3d-preset run (g_mag 0.5) makes one and keeps
    its summary."""
    ks, time_row = [], matops.time_row
    monkeypatch.setattr(matops, "time_row", lambda A, t, k: ks.append(k) or time_row(A, t, k))
    out = tmp_path / "blowup.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "blowup.yaml", cfg),
                     "--out", str(out)]) == 0
    assert ks.count(2) == k2_calls, ks
    comments, _, _ = read_csv(out)
    assert comments[-len(summary):] == [f"# {line}" for line in summary], comments


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


NAN, INF = float("nan"), float("inf")
_GAUSS_PERIOD = {
    "problem": {"preset": "coriolis2d", "omega": 1.0},
    "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 0.05}},
}
_TANH_1D = {
    "problem": {"matrix": [[0.0]], "g": [1.0]},
    "data": {"family": "tanh1d", "params": {"mu": 1.0, "kappa": 1.0}},
}
_DIAG2_IRRATIONAL = {
    "problem": {"matrix": [[1.0, 0.0], [0.0, -1.4142135623730951]]},
    "data": {"family": "tanh2d", "params": {"eps": 0.5}},
}
_CORIOLIS_ONE_POINT = {
    "problem": {"preset": "coriolis2d", "omega": 1.0},
    "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
    "task": {"name": "solve", "times": [0.3], "points": [[0.5, 0.5]]},
}
_C3D_BLOWUP = {
    "problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
    "data": C3D_BLOWUP_DATA,
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
    ("compare", {**_TANH_1D, "task": {"name": "compare", "t_range": [0.5, 0.1]}}),
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "verify": {
        "num_points": 2, "t_range": [2.0, 1.0]}}}),
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 0}}),
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "verify": {"num_points": 0}}}),
    ("compare", {**_TANH_1D, "task": {"name": "compare", "t_range": [-3.0, -0.5]}}),
    ("blowup", {**_DIAG2_IRRATIONAL, "task": {"name": "blowup", "grid_num": -1}}),
    ("blowup", {**_DIAG2_IRRATIONAL, "task": {"name": "blowup", "grid_num": 0}}),
    ("blowup", {**_DIAG2_IRRATIONAL, "task": {"name": "blowup", "grid_num": 3, "t_max": -1.0}}),
    ("blowup", {**_DIAG2_IRRATIONAL, "task": {"name": "blowup", "grid_num": 3, "t_max": 0.0}}),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "grid_num": 0}}),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "t_max": -5.0}}),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "scan_step": 0}}),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "scan_step": -0.05}}),
    ("blowup", {"problem": {"matrix": [[0.3]]}, "data": {"family": "constant", "params": {
        "c": [0.5]}}, "task": {"name": "blowup"}}),
    ("coriolis3d", {"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
                    "data": {"family": "constant", "params": {"c": [0.1, 0.2, 0.3]}},
                    "task": {"name": "coriolis3d", "mode": "blowup", "grid_num": 3}}),
    *[("solve", {**_CORIOLIS_ONE_POINT, "solver": solver})
      for solver in ({"max_iter": -3}, {"max_iter": 0}, {"newton_tol": -1.0},
                     {"newton_tol": float("nan")})],
    *[("period", {**_GAUSS_PERIOD, "task": {"name": "period", **task}})
      for task in ({"max_denominator": 0}, {"max_denominator": -4},
                   {"rational_tol": float("nan")}, {"rational_tol": -1e-9},
                   {"verify": {"num_points": 2, "tol": float("nan")}},
                   {"verify": {"num_points": 2, "seed": -1}})],
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 2, "seed": -1}}),
    *[("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 2, "bound": bound}})
      for bound in (float("nan"), -1.0)],
    # non-finite force and data numbers
    ("blowup", {**_DIAG2_IRRATIONAL, "problem": {"matrix": [[NAN, 0.0], [0.0, -1.0]]},
                "task": {"name": "blowup", "grid_num": 3}}),
    ("blowup", {**_DIAG2_IRRATIONAL, "problem": {"preset": "diag", "rates": [NAN, -1.0]},
                "task": {"name": "blowup", "grid_num": 3}}),
    *[("period", {"problem": {"matrix": matrix}, "task": {"name": "period"}})
      for matrix in ([[0.0, 1.0], [-1.0, NAN]], [[0.0, INF], [-1.0, 0.0]])],
    ("solve", {"problem": {"matrix": [[0.0]]}, "data": {"family": "linear", "params": {
        "R": [[NAN]]}}, "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}),
    ("solve", {**_CORIOLIS_ONE_POINT, "problem": {"matrix": [[0.0, NAN], [-1.0, 0.0]]}}),
    ("solve", {**_CORIOLIS_ONE_POINT, "problem": {"preset": "coriolis2d", "omega": NAN}}),
    ("solve", {**_CORIOLIS_ONE_POINT, "data": {"family": "gauss2d_coriolis",
                                               "params": {"amplitude": NAN}}}),
    ("solve", {"problem": {"preset": "diag", "rates": [0.6, -0.6]},
               "data": {"family": "tanh2d", "params": {"eps": NAN}},
               "task": {"name": "solve", "times": [0.1], "points": [[0.1, 0.2]]}}),
    ("solve", {**_TANH_1D, "data": {"family": "tanh1d", "params": {"mu": INF, "kappa": 1.0}},
               "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}),
    ("solve", {**_TANH_1D, "data": {"family": "gauss1d", "params": {"eta": 1.0, "kappa": NAN}},
               "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}),
    ("solve", {**_TANH_1D, "problem": {"matrix": [[0.0]], "g": [NAN]},
               "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}),
    ("solve", {"problem": {"matrix": [[0.0]]}, "data": {"family": "constant", "params": {
        "c": [NAN]}}, "task": {"name": "solve", "times": [0.1], "points": [[0.1]]}}),
    # non-finite task numbers
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 2,
                                      "t_range": [0.1, INF]}}),
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "verify": {
        "num_points": 2, "t_range": [0.0, INF]}}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [NAN], "points": [[0.1]]}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": {"start": 0.0, "stop": INF,
                                                               "num": 3},
                                    "points": [[0.1]]}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [0.1], "points": [[NAN]]}}),
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [0.1],
                                    "points": {"min": [-INF], "max": [0.5], "num": 3}}}),
    # a verify block is checked whole, also where it would not run
    ("period", {"problem": _GAUSS_PERIOD["problem"], "task": {"name": "period", "verify": {
        "num_points": 2}}}),
    ("period", {"problem": {"preset": "diag", "rates": [1.0, -1.0]},
                "data": {"family": "tanh2d", "params": {"eps": 0.5}},
                "task": {"name": "period", "verify": {"num_points": 0, "tol": -1}}}),
    # integer keys refuse a fraction or a bool instead of truncating it
    *[("solve", {**_TANH_1D, "task": {"name": "solve", "times": {"start": 0.0, "stop": 0.4,
                                                                 "num": num},
                                      "points": [[0.1]]}}) for num in (2.7, True)],
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [0.1],
                                    "points": {"min": [-1.0], "max": [0.5], "num": 2.5}}}),
    ("blowup", {**_DIAG2_IRRATIONAL, "task": {"name": "blowup", "grid_num": 3.9}}),
    *[("solve", {**_CORIOLIS_ONE_POINT, "solver": {"max_iter": max_iter}})
      for max_iter in (10.5, 0.5)],
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 2.5}}),
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "verify": {"num_points": 2.5}}}),
    ("solve", {**_CORIOLIS_ONE_POINT, "problem": {"preset": "coriolis2d", "omega": 1.0,
                                                  "dimension": 2.5}}),
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 2, "seed": 1.5}}),
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "max_denominator": 64.5}}),
    # a data block that a family's constructor refuses, also inside separable
    *[("solve", {**_TANH_1D, "data": data, "task": {"name": "solve", "times": [0.1],
                                                     "points": [[0.1]]}}) for data in (
        {"family": "separable", "components": [{"family": "separable"}]},
        {"family": "separable", "components": [{"family": "tanh1d", "params": [1]}]},
        {"family": "separable", "components": [{"family": "tanh1d", "params": {"bogus": 1}}]},
        {"family": "separable", "components": [{"family": "tanh1d", "params": {"mu": "a"}}]},
        {"family": "separable", "components": [{"family": ["tanh1d"]}]},
        {"family": ["tanh1d"]},
        {"family": "linear", "params": {"R": "x"}},
        {"family": "linear", "params": {"R": [[1.0, 0.0], [0.0]]}},
        {"family": "constant", "params": {"c": "x"}},
        {"family": "tanh2d", "params": {"eps": "a"}},
    )],
    ("solve", {**_TANH_1D, "task": {"name": "solve", "times": [[0.1, 0.2]], "points": [[0.1]]}}),
], ids=["period-t_range", "compare-num_samples", "blowup-t_max", "solve-times-num",
        "solver-newton_tol", "solve-points-empty", "solve-points-num-0", "solve-times-num-0",
        "compare-t_range-reversed", "period-t_range-reversed", "compare-num_samples-0",
        "period-num_points-0", "compare-t_range-negative", "blowup-grid_num-negative",
        "blowup-grid_num-0", "blowup-t_max-negative", "blowup-t_max-0", "coriolis3d-grid_num-0",
        "coriolis3d-t_max-negative", "coriolis3d-scan_step-0", "coriolis3d-scan_step-negative",
        "blowup-constant-data", "coriolis3d-constant-data", "solver-max_iter-negative",
        "solver-max_iter-0", "solver-newton_tol-negative", "solver-newton_tol-nan",
        "period-max_denominator-0", "period-max_denominator-negative", "period-rational_tol-nan",
        "period-rational_tol-negative", "period-verify-tol-nan", "period-verify-seed-negative",
        "compare-seed-negative", "compare-bound-nan", "compare-bound-negative",
        "blowup-matrix-nan", "blowup-diag-rate-nan", "period-matrix-nan", "period-matrix-inf",
        "solve-linear-R-nan", "solve-matrix-nan", "solve-omega-nan", "solve-amplitude-nan",
        "solve-eps-nan", "solve-mu-inf", "solve-kappa-nan", "solve-g-nan",
        "solve-constant-c-nan", "compare-t_range-inf", "period-verify-t_range-inf",
        "solve-times-nan", "solve-times-stop-inf", "solve-points-nan", "solve-points-min-inf",
        "period-verify-no-data", "period-verify-non-periodic", "solve-times-num-fraction",
        "solve-times-num-bool", "solve-points-num-fraction", "blowup-grid_num-fraction",
        "solver-max_iter-fraction", "solver-max_iter-half", "compare-num_samples-fraction",
        "period-verify-num_points-fraction", "solve-dimension-fraction", "compare-seed-fraction",
        "period-max_denominator-fraction", "separable-in-separable", "component-params-list",
        "component-params-unknown", "component-mu-string", "component-family-list",
        "family-list", "linear-R-string", "linear-R-ragged", "constant-c-string",
        "tanh2d-eps-string", "solve-times-nested"])
def test_malformed_number_is_a_config_error(tmp_path, capsys, command, cfg):
    cfg_path = write_cfg(tmp_path, "bad.yaml", cfg)
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o.txt")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err, err


@pytest.mark.parametrize("key, value, task", [
    ("grid_num", 3.9, {"name": "blowup", "grid_num": 3.9}),
    ("grid_num", True, {"name": "blowup", "grid_num": True}),
])
def test_bad_integer_key_names_the_key_and_the_value(tmp_path, capsys, key, value, task):
    """The message quotes the key and the value as the config wrote it."""
    cfg_path = write_cfg(tmp_path, "bad.yaml", {**_DIAG2_IRRATIONAL, "task": task})
    assert cli.main(["blowup", "--config", cfg_path, "--out", str(tmp_path / "o.txt")]) == 1
    assert f"bad value {value!r} for config key {key!r}" in capsys.readouterr().err


def test_integral_float_integer_key_runs_as_the_integer(tmp_path):
    """grid_num 3.0 scans the same 3-grid as grid_num 3: only the hash line differs."""
    texts = []
    for i, grid_num in enumerate((3, 3.0)):
        cfg = {**_DIAG2_IRRATIONAL, "task": {"name": "blowup", "grid_num": grid_num}}
        out = tmp_path / f"o{i}.csv"
        assert cli.main(["blowup", "--config", write_cfg(tmp_path, f"c{i}.yaml", cfg),
                         "--out", str(out)]) == 0
        texts.append(out.read_text(encoding="utf-8").splitlines())
    assert texts[0][0] != texts[1][0] and texts[0][1:] == texts[1][1:]


@pytest.mark.parametrize("command, cfg", [
    ("compare", {**_TANH_1D, "task": {"name": "compare", "num_samples": 2, "seed": 3}}),
    ("period", {**_GAUSS_PERIOD, "task": {"name": "period", "verify": {"num_points": 2}}}),
], ids=["compare", "period"])
def test_negative_seed_flag_is_a_config_error(tmp_path, capsys, command, cfg):
    """--seed -1 overrides a valid config seed and exits 1 with a message, not
    numpy's traceback; --seed 0 runs."""
    cfg_path = write_cfg(tmp_path, "seed.yaml", cfg)
    out = str(tmp_path / "o.txt")
    assert cli.main([command, "--config", cfg_path, "--seed", "-1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err and "Traceback" not in err, err
    assert cli.main([command, "--config", cfg_path, "--seed", "0", "--out", out]) == 0


_SCAN_CFG = {
    "problem": {"preset": "diag", "rates": [1.0, -float(np.sqrt(2.0))]},
    "data": {"family": "tanh2d", "params": {"eps": 9.0}},
}


def _counted_scan_run(tmp_path, monkeypatch, name, task):
    """A blowup run of _SCAN_CFG: (matops.is_exact_diagonal calls, points at
    which the refinement evaluates the extremum conditions)."""
    calls, rows = [], []
    is_exact_diagonal, conditions = matops.is_exact_diagonal, blowup._extremum_conditions
    monkeypatch.setattr(matops, "is_exact_diagonal", lambda A: calls.append(1) or is_exact_diagonal(A))
    monkeypatch.setattr(blowup, "_extremum_conditions",
                        lambda data, table, z: rows.extend(z) or conditions(data, table, z))
    cfg = write_cfg(tmp_path, f"{name}.yaml", {**_SCAN_CFG, "task": {"name": "blowup", **task}})
    assert cli.main(["blowup", "--config", cfg, "--out", str(tmp_path / f"{name}.csv")]) == 0
    monkeypatch.undo()
    return len(calls), len(rows)


def test_blowup_scan_classifies_A_a_fixed_number_of_times(tmp_path, monkeypatch):
    """The structure of A is tested a fixed number of times per run, however
    many points the refinement evaluates: the scan shares one
    matops.time_table(A, 1) evaluator, and the refinement builds one, instead of
    calling phi1 per Newton step."""
    few = _counted_scan_run(tmp_path, monkeypatch, "few", {"grid_num": 3, "t_max": 0.11})
    many = _counted_scan_run(tmp_path, monkeypatch, "many", {"grid_num": 6, "t_max": 0.11})
    assert few[1] < many[1] and many[1] >= 30, (few, many)
    assert few[0] == many[0] <= 9, (few, many)


def test_blowup_scan_reports_no_root_past_t_max(tmp_path):
    """The all-roots grid reaches one step past t_max; a root refined there
    (t ~ 0.10097 for t_max 0.0951) is dropped, not reported as t*."""
    cfg = write_cfg(tmp_path, "cut.yaml", {**_SCAN_CFG, "task": {
        "name": "blowup", "grid_num": 3, "t_max": 0.0951}})
    out = tmp_path / "cut.csv"
    assert cli.main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    comments, _, body = read_csv(out)
    assert "# no blow-up: no positive root on the M-grid" in comments, comments
    assert not any(c.startswith("# t_star") for c in comments)
    assert all(abs(float(row[-1])) <= 0.0951 for row in body if row[-1] != "nan")


def _no_table(monkeypatch):
    """Patch matops.time_table so that every evaluator it builds refuses to
    evaluate, while still giving its entries per node."""
    build = matops.time_table

    def refusing(A, k):
        def table(ts):
            raise AssertionError("time table evaluated")

        table.entries = build(A, k).entries
        return table

    monkeypatch.setattr(matops, "time_table", refusing)


@pytest.mark.parametrize("command, cfg, needle", [
    ("blowup", {**_SCAN_CFG, "task": {"name": "blowup", "grid_num": 3, "t_max": 1e6}},
     "t_max 1000000.0 with step 0.01 needs 200,000,001 t-nodes of 2x2 matrices"),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "grid_num": 3, "t_max": 1e6}},
     "t_max 1000000.0 with step 0.05 needs 20,000,001 t-nodes of 6x6 matrices"),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "grid_num": 3, "scan_step": 1.1e-5}},
     "t_max 10.0 with step 1.1e-05 needs 909,092 t-nodes of 6x6 matrices"),
], ids=["blowup", "coriolis3d", "coriolis3d-small-step"])
def test_blowup_scan_past_the_table_budget_is_refused(tmp_path, capsys, monkeypatch,
                                                      command, cfg, needle):
    """A scan whose phi1 table exceeds blowup._SCAN_MAX_ENTRIES exits 1 with a
    config error naming t_max, the step and the node count; the table is never
    built.  A non-diagonal A counts its augmented (2n)^2 entries per node, so a
    small scan_step is refused at the default t_max.  scan_step is named as a
    coriolis3d key only: blowup does not read it."""
    _no_table(monkeypatch)
    path = write_cfg(tmp_path, "big.yaml", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "big.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and needle in err and "Traceback" not in err, err
    assert "lower t_max (coriolis3d also takes a larger scan_step)" in err, err


@pytest.mark.parametrize("command, cfg, entries", [
    ("blowup", {**_SCAN_CFG, "task": {"name": "blowup", "grid_num": 3, "t_max": 0.11}},
     23 * 2 * 2),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "grid_num": 3}},
     201 * 6 * 6),
], ids=["blowup", "coriolis3d"])
def test_blowup_scan_table_budget_is_inclusive(tmp_path, capsys, monkeypatch,
                                               command, cfg, entries):
    """The budget counts nodes * n^2 for a diagonal A (blowup-scan's 2x2, 23
    nodes on [-0.11, 0.12]) and nodes * (2n)^2 for the augmented table of the
    coriolis3d 3x3 (201 nodes on [0, 10]): a budget of exactly that many
    entries runs, one entry fewer is refused before the table is built."""
    path = write_cfg(tmp_path, "edge.yaml", cfg)
    monkeypatch.setattr(blowup, "_SCAN_MAX_ENTRIES", entries)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "edge.csv")]) == 0
    monkeypatch.setattr(blowup, "_SCAN_MAX_ENTRIES", entries - 1)
    _no_table(monkeypatch)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "edge.csv")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, entries", [
    ("blowup", {"problem": {"preset": "coriolis2d", "omega": 1.0},
                "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
                "task": {"name": "blowup", "grid_num": 5}}, 5**2 * 2),
    ("coriolis3d", {**_C3D_BLOWUP, "task": {"name": "coriolis3d", "mode": "blowup",
                                            "grid_num": 5, "t_max": 1.0, "scan_step": 0.5}},
     5**3 * 3),
], ids=["blowup", "coriolis3d"])
def test_blowup_m_grid_budget_is_inclusive(tmp_path, capsys, monkeypatch, command, cfg, entries):
    """An M-grid of points * n entries within blowup._SCAN_MAX_ENTRIES runs;
    one entry fewer is refused with a config error naming grid_num before
    the grid is meshed (the coriolis3d phi1 table, 3 nodes of 6x6, fits)."""
    path = write_cfg(tmp_path, "grid.yaml", cfg)
    monkeypatch.setattr(blowup, "_SCAN_MAX_ENTRIES", entries)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "grid.csv")]) == 0
    monkeypatch.setattr(blowup, "_SCAN_MAX_ENTRIES", entries - 1)
    monkeypatch.setattr(np, "meshgrid", lambda *a, **k: pytest.fail("M-grid meshed"))
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "grid.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "lower grid_num" in err and "Traceback" not in err, err


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


def _loaded_modules(code, *args):
    """The names in sys.modules after running code in a fresh interpreter on the
    package source; code sees its extra command-line arguments as sys.argv[1:]."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    code = f"import json, sys; {code}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return set(json.loads(out.strip().splitlines()[-1]))


#: modules only some commands run, which the CLI imports where it uses them
DEFERRED = {"hodoflow.blowup", "hodoflow.degenerate", "hodoflow.oracle", "hodoflow.periodicity",
            "fractions"}


def test_cli_import_loads_no_scipy(tmp_path):
    """The runtime needs numpy and PyYAML only: importing the package and its
    CLI in a fresh interpreter must not bring in any scipy module.  A command
    loads only the modules it runs: importing the CLI and building a solve
    problem loads none of blowup, degenerate, oracle, periodicity or
    fractions, a blowup run loads blowup, and a period run periodicity."""
    solve = write_cfg(tmp_path, "solve.yaml", SOLVE_CFG)
    mods = _loaded_modules("import hodoflow, hodoflow.cli as cli; "
                           "cli.build_problem(cli.load_config(sys.argv[1]))", solve)
    assert not [m for m in mods if m.split(".")[0] == "scipy"], sorted(mods)
    assert {"hodoflow.hodograph", "hodoflow.matops", "hodoflow.model"} <= mods
    assert not mods & DEFERRED, sorted(mods & DEFERRED)
    run = ("import hodoflow.cli as cli; "
           "assert cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]) == 0")
    blowup_cfg = write_cfg(tmp_path, "blowup.yaml", {**SOLVE_CFG, "task": {"grid_num": 5}})
    mods = _loaded_modules(run, "blowup", blowup_cfg, tmp_path / "blowup.csv")
    assert mods & DEFERRED == {"hodoflow.blowup"}, sorted(mods & DEFERRED)
    period_cfg = write_cfg(tmp_path, "period.yaml", {"problem": {"matrix": [[0.0, 1.0], [-1.0, 0.0]]}})
    mods = _loaded_modules(run, "period", period_cfg, tmp_path / "period.txt")
    assert mods & DEFERRED == {"hodoflow.periodicity", "fractions"}, sorted(mods & DEFERRED)


def test_package_exports_resolve_on_first_use():
    """hodoflow exports the same 29 names, each bound to the object its
    submodule defines; dir and a star import see them all, a submodule is an
    attribute, and an unknown name raises AttributeError."""
    import hodoflow

    homes = {
        blowup: ["certify_branch_absent", "certify_no_blowup_1d", "min_blowup_time", "sheet_1d",
                 "sheets_coriolis2d", "sheets_diag", "sheets_diag2"],
        degenerate: ["build_basis", "coriolis3d_basis", "degenerate_integrals",
                     "degenerate_solve", "non_periodicity_witness"],
        errors: ["ConfigError", "HodoflowError"],
        hodograph: ["integrals", "residual_M", "solve_field", "solve_u"],
        model: ["ForceSpec", "HodographProblem", "coriolis2d_spec", "coriolis3d_spec",
                "make_data"],
        oracle: ["exact_flow", "first_caustic_time", "rk4_flow"],
        periodicity: ["check_periodic", "make_periodic_2d", "verify_solution_period"],
    }
    assert sorted(hodoflow.__all__) == sorted(name for names in homes.values() for name in names)
    for module, names in homes.items():
        assert getattr(hodoflow, module.__name__.rsplit(".", 1)[1]) is module
        for name in names:
            assert getattr(hodoflow, name) is getattr(module, name), name
    assert set(hodoflow.__all__) <= set(dir(hodoflow))
    star = {}
    exec("from hodoflow import *", star)
    assert set(hodoflow.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        hodoflow.no_such_name


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


def test_blowup_scalar_matrix_on_curved_domain_is_warning_free(tmp_path, capsys):
    """A = -0.2 I on the curved gauss2d_coriolis domain: sheets_diag evaluates
    the Jacobian only inside the domain, so no numpy RuntimeWarning (an error
    under this suite's filterwarnings) and the same t*."""
    cfg = {
        "problem": {"matrix": [[-0.2, 0.0], [0.0, -0.2]]},
        "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
        "task": {"name": "blowup", "grid_num": 41},
    }
    out = tmp_path / "neg.csv"
    assert cli.main(["blowup", "--config", write_cfg(tmp_path, "neg.yaml", cfg),
                     "--out", str(out)]) == 0
    assert "Warning" not in capsys.readouterr().err
    comments, _, body = read_csv(out)
    assert "# t_star: 0.7869381154977371" in comments
    assert len(body) == 2 * 41 * 41 and any(row[3] == "nan" for row in body)


# ---------------------------------------------------------------------------
# the column-wise CSV writer against the row-wise formatter it replaced


def _row_fmt(v):
    if v is None:
        return "nan"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _row_body(rows):
    return "".join(",".join(_row_fmt(v) for v in row) + "\n" for row in rows)


def _sample_rows(times, points, U, iters, status, u_of=lambda u: u):
    """One row per (point, time) of a solve_field sweep, None for an unsolved u."""
    return [[float(t), *x, *(list(u_of(U[i, j])) if status[i, j] == "OK" else [None] * len(x)),
             int(iters[i, j]), status[i, j]]
            for i, x in enumerate(points) for j, t in enumerate(times)]


def _sheet_rows(sheets):
    return [[sheet.branch, *np.atleast_1d(M), t]
            for sheet in sheets
            for M, t in zip(np.atleast_2d(sheet.points), np.atleast_1d(sheet.t))]


def _solve_rows(cfg):
    problem = cli.build_problem(cfg)
    task = cfg["task"]
    times, points = cli._parse_times(task), cli._parse_points(task, problem.spec.n)
    return _sample_rows(times, points, *hodograph.solve_field(problem, times, points))


def _blowup_rows(cfg):
    sheets, _ = blowup.build_sheets(cli.build_problem(cfg), grid_num=cfg["task"]["grid_num"])
    return _sheet_rows(sheets)


def _compare_columns(cfg):
    return cli._compare_columns(cfg, cli.build_problem(cfg), cfg["task"], cfg["task"]["seed"])


def _compare_table(cfg):
    """One line of cells per compare sample, None for a missing error."""
    T, X, err, status = _compare_columns(cfg)
    return [[i, T[i], *X[i], None if np.isnan(err[i]) else err[i], status[i]]
            for i in range(len(T))]


def _coriolis3d_rows(cfg):
    problem = cli.build_problem(cfg)
    basis = degenerate.coriolis3d_basis(cfg["problem"]["omega"])
    times = cli._parse_times(cfg["task"])
    points = cli._parse_points(cfg["task"], 3)
    sweep = hodograph.solve_field(degenerate.rotated_problem(problem, basis), times,
                                  points @ basis.L.T)
    return _sample_rows(times, points, *sweep, u_of=lambda u: basis.P @ u)


_WRITER_CASES = {
    "solve-post-blowup-domain-exit": ("solve", _solve_rows, {
        "problem": {"preset": "coriolis2d", "omega": 1.0},
        "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
        "task": {"name": "solve", "times": {"start": 0.0, "stop": 0.9, "num": 7},
                 "points": {"min": [0.05, 0.05], "max": [1.2, 1.2], "num": 5}},
    }),
    "blowup-two-diag-sheets": ("blowup", _blowup_rows, {
        "problem": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
        "data": {"family": "tanh2d", "params": {"eps": 0.5}},
        "task": {"name": "blowup", "grid_num": 11},
    }),
    "blowup-1d-sheet": ("blowup", _blowup_rows, {
        "problem": {"matrix": [[0.45]]},
        "data": {"family": "tanh1d", "params": {"mu": 1.3, "kappa": 0.9}},
        "task": {"name": "blowup", "grid_num": 41},
    }),
    "compare-none-errors": ("compare", _compare_table, {
        **_TANH_1D,
        "task": {"name": "compare", "num_samples": 40, "t_range": [0.05, 3.0],
                 "bound": 1.0, "seed": 7},
    }),
    "coriolis3d-solve": ("coriolis3d", _coriolis3d_rows, {
        "problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
        "data": C3D_BLOWUP_DATA,
        "task": {"name": "coriolis3d", "mode": "solve", "times": [0.0, 0.3, 1.5],
                 "points": {"min": [-1.0, -1.0, -1.0], "max": [1.0, 1.0, 1.0], "num": 3}},
    }),
}


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_column_writer_matches_row_formatter(tmp_path, capsys, case):
    """Every CSV body is byte for byte what formatting each row with _fmt gave,
    including 'nan' cells for unsolved u and missing compare errors."""
    command, rows_of, cfg = _WRITER_CASES[case]
    out = tmp_path / "out.csv"
    cli.main([command, "--config", write_cfg(tmp_path, "cfg.yaml", cfg), "--out", str(out)])
    capsys.readouterr()
    rows = rows_of(cfg)
    assert command == "blowup" or any(v is None for row in rows for v in row)
    body = out.read_text().split("\n")
    header_at = next(i for i, line in enumerate(body) if not line.startswith("#"))
    assert "\n".join(body[header_at + 1:]) == _row_body(rows)


# ---------------------------------------------------------------------------
# the stacked compare pass against the one-sample-at-a-time route it replaced


def _compare_3d_cfg(seed, num=24, t_range=(0.9, 1.3)):
    return {"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
            "data": C3D_BLOWUP_DATA,
            "task": {"name": "compare", "num_samples": num, "t_range": list(t_range),
                     "bound": 1.0e-8, "seed": seed}}


def _per_sample_compare(cfg):
    """(status, newton iterations, x, err) of each sample, solved one at a time:
    a one-row caustic scan, a scalar exact flow and a one-row Newton solve."""
    problem = cli.build_problem(cfg)
    spec, data, task = problem.spec, problem.data, cfg["task"]
    rot = cfg["problem"].get("preset") == "coriolis3d"
    basis = degenerate.coriolis3d_basis(cfg["problem"]["omega"]) if rot else None
    frame = degenerate.rotated_problem(problem, basis) if rot else problem
    rng = np.random.default_rng(task["seed"])
    box = data.sample_box()
    out = []
    for _ in range(task["num_samples"]):
        y0 = rng.uniform(box[:, 0], box[:, 1])
        t = rng.uniform(*task["t_range"])
        x0 = basis.P @ y0 if rot else y0
        u0 = degenerate.u0_original(basis, data, x0) if rot else data.u0(y0)
        flow = oracle.exact_flow(spec, x0, u0, t)
        if oracle.first_caustic_time(frame.spec, data, y0, t_max=t) is not None:
            out.append(("POST_BLOWUP", None, flow.x, None))
            continue
        xf = basis.L @ flow.x if rot else flow.x
        M, _, it, _, st = hodograph._newton(frame, np.full((1, 1), t), xf[None],
                                            hodograph._default_guess(frame, xf)[None])
        if st[0, 0] != "OK":
            name = hodograph.STATUS_ERRORS[st[0, 0]].__name__
            out.append((f"SOLVE_FAIL({name})", int(it[0, 0]), flow.x, None))
            continue
        u = hodograph.u_from_M(frame.spec, t, M[0, 0])
        u = basis.P @ u if rot else u
        out.append(("OK", int(it[0, 0]), flow.x, float(np.max(np.abs(u - flow.u)))))
    return out


_STACKED_COMPARE_CASES = {
    **{f"coriolis3d-seed{s}": _compare_3d_cfg(s) for s in range(1, 11)},
    "coriolis3d-past-t-star": _compare_3d_cfg(3, num=60, t_range=(0.05, 2.0)),
    "tanh1d-post-blowup": {**_TANH_1D, "task": {"name": "compare", "num_samples": 40,
                                                "t_range": [0.05, 3.0], "bound": 1.0,
                                                "seed": 7}},
}


@pytest.mark.parametrize("case", sorted(_STACKED_COMPARE_CASES))
def test_stacked_compare_matches_per_sample_route(monkeypatch, case):
    """Every sample keeps its status and Newton iteration count; x and err
    agree to 1e-12."""
    cfg = _STACKED_COMPARE_CASES[case]
    real_newton = hodograph._newton
    iters = []

    def recording(*args):
        out = real_newton(*args)
        iters.extend(int(i) for i in out[2].ravel())
        return out

    monkeypatch.setattr(hodograph, "_newton", recording)
    _, X, err, status = _compare_columns(cfg)
    monkeypatch.undo()
    ref = _per_sample_compare(cfg)
    assert status.tolist() == [st for st, _, _, _ in ref]
    assert iters == [it for st, it, _, _ in ref if st != "POST_BLOWUP"]
    for x_i, err_i, (_, _, x, e) in zip(X, err, ref):
        assert np.max(np.abs(x_i - x)) <= 1e-12
        assert np.isnan(err_i) == (e is None)
        if e is not None:
            assert abs(err_i - e) <= 1e-12
    if case.startswith("tanh1d") or case.endswith("t-star"):
        assert {"OK", "POST_BLOWUP"} <= set(status)


def test_compare_phi_table_call_budget(tmp_path, monkeypatch):
    """A coriolis3d compare past t* (OK, POST_BLOWUP and SOLVE_FAIL samples)
    evaluates two k = 2 time tables: the original-frame exact flow, and the
    rotated solve whose table also gives the velocities.  Its CSV is pinned
    byte for byte."""
    real_table = matops.time_table
    calls = []

    def counting(A, k):
        table = real_table(A, k)
        return (lambda ts: calls.append(np.size(ts)) or table(ts)) if k == 2 else table

    monkeypatch.setattr(matops, "time_table", counting)
    cfg = _STACKED_COMPARE_CASES["coriolis3d-past-t-star"]
    out = tmp_path / "compare.csv"
    assert cli.main(["compare", "--config", write_cfg(tmp_path, "compare.yaml", cfg),
                     "--out", str(out)]) == 2
    assert len(calls) == 2 and calls[0] == 60 and calls[1] < 60, calls
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1ab4a6b3c026a0aacbb4dd5c18eca47b3c54a50d7c0fb3f471f7aa2474b4587b")


def test_compare_3d_newton_matrices_need_no_exact_cond(tmp_path, monkeypatch):
    """Every 3x3 Newton matrix of the seed-1 coriolis3d compare is cleared by
    matops._cond_bound: the exact condition number is never computed."""
    real_cond, calls = matops._cond, []

    def counting(A):
        calls.append(len(A))
        return real_cond(A)

    monkeypatch.setattr(matops, "_cond", counting)
    cfg = _STACKED_COMPARE_CASES["coriolis3d-seed1"]
    assert cli.main(["compare", "--config", write_cfg(tmp_path, "compare.yaml", cfg),
                     "--out", str(tmp_path / "compare.csv")]) == 0
    assert calls == []


def test_compare_expm_calls_do_not_grow_with_samples(monkeypatch):
    """compare evaluates its matrix functions once per stacked table, never
    per sample: the same number of _expm calls at 24 and at 96 samples."""
    real_expm = matops._expm
    calls = []

    def counting(W):
        calls.append(W.shape)
        return real_expm(W)

    monkeypatch.setattr(matops, "_expm", counting)
    counts = []
    for num in (24, 96):
        cfg = _compare_3d_cfg(1, num=num)
        calls.clear()
        status = cli._compare_columns(cfg, cli.build_problem(cfg), cfg["task"], 1)[3]
        assert status.tolist() == ["OK"] * num
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
