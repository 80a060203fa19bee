"""Extreme but valid configs reach their documented exit with no warning.

Each config runs through cli.main with every warning raised as an error.  A
config error must exit 1 and a solver failure 2, each with a single
`hodoflow:` line on stderr and no traceback or warning text; a run that
succeeds exits 0 with nothing on stderr.  Each case once leaked a numpy
RuntimeWarning on its way to that exit: a caustic screen to t = 1e20 (its
step count overflowed the int cast, and the row left the screen silently),
a phi table at t = 1e200 (t A overflowed outside the evaluator's
np.errstate), and a spectrum at 1e300 (eig's rounded sort key overflowed).
"""
from __future__ import annotations

import warnings

import pytest
import yaml

from hodoflow import cli

_C3D = {"problem": {"preset": "coriolis3d", "omega": 1.2, "g_mag": 0.5},
        "data": {"family": "separable", "components": [
            {"family": "tanh1d", "params": {"mu": 0.8, "kappa": 0.9}},
            {"family": "gauss1d", "params": {"eta": 0.6, "kappa": 1.1}},
            {"family": "gauss1d", "params": {"eta": 0.7, "kappa": 0.8}}]}}
_CORIOLIS_TANH = {"problem": {"preset": "coriolis2d", "omega": 1.0},
                  "data": {"family": "tanh2d", "params": {"eps": 0.5}}}

#: command, config, exit code, the text its stderr line starts with (None: empty)
CASES = {
    "compare-t_range-1e20": (
        "compare", {**_CORIOLIS_TANH, "task": {"name": "compare", "num_samples": 5,
                                               "t_range": [1.0e20, 1.0e20]}},
        1, "hodoflow: config error: "),
    "solve-times-1e200": (
        "solve", {**_CORIOLIS_TANH, "task": {"name": "solve", "times": [1.0e200],
                                             "points": [[0.1, 0.2]]}},
        2, "hodoflow: solver failure: "),
    "coriolis3d-solve-times-1e200": (
        "coriolis3d", {**_C3D, "task": {"name": "coriolis3d", "mode": "solve",
                                        "times": [1.0e200], "points": [[0.5, 0.8, -0.2]]}},
        2, "hodoflow: solver failure: "),
    "period-omega-1e300": (
        "period", {"problem": {"preset": "coriolis2d", "omega": 1.0e300},
                   "task": {"name": "period"}},
        0, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_extreme_config_exits_without_warning(tmp_path, capsys, case):
    command, cfg, code, line = CASES[case]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == code, err
    if line is None:
        assert err == ""
        return
    assert err.startswith(line) and err.count("\n") == 1, err
    assert "Traceback" not in err and "Warning" not in err, err
    if command == "compare":
        assert "t_range" in err, err
