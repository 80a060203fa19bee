"""A blow-up run makes no branch_fn call: the sheets are built and their
minimum and certificates found without probing branch_fn.

A branch_fn probe re-runs a sheet's whole root evaluation (on a scanned
sheet, a root scan and a bracket refinement per probed point), so the blow-up
minimum comes from Newton on the extremum conditions f = 0, f_M = 0 of the
residual instead, and a sheet that cannot meet them keeps its grid minimum.
The certificates refine their best sample by Newton on a complex-step
gradient, with no sheet of their own.  Every sheet constructed during the
run, inside build_sheets included, gets a counting branch_fn, and a probe on
any of the configs below (an interior minimum, a 1D sheet with its
certificate, an elliptic sheet certified absent) is a regression.
"""
from __future__ import annotations

import numpy as np
import pytest
import yaml

from hodoflow import blowup, cli

BLOWUP_SCAN = {
    "problem": {"preset": "diag", "rates": [1.0, -float(np.sqrt(2.0))]},
    "data": {"family": "tanh2d", "params": {"eps": 9.0}},
    "task": {"name": "blowup", "grid_num": 3, "t_max": 0.11},
}
CRITERION_5 = {
    "problem": {"preset": "coriolis2d", "omega": 1.0},
    "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 1.0}},
    "task": {"name": "blowup", "grid_num": 101},
}
GAUSS_1D = {
    "problem": {"matrix": [[-0.8]]},
    "data": {"family": "gauss1d", "params": {"eta": 1.0, "kappa": 1.0}},
    "task": {"name": "blowup"},
}
CORIOLIS_ABSENT = {
    "problem": {"preset": "coriolis2d", "omega": 1.0},
    "data": {"family": "gauss2d_coriolis", "params": {"amplitude": 0.05}},
    "task": {"name": "blowup", "grid_num": 61},
}


@pytest.mark.parametrize("cfg, certificate", [
    (BLOWUP_SCAN, None), (CRITERION_5, None),
    (GAUSS_1D, "certificate: NotCertified"),
    (CORIOLIS_ABSENT, "certificate[coriolis_first]: Absent everywhere"),
], ids=["blowup-scan", "criterion-5", "gauss1d", "coriolis-absent"])
def test_min_blowup_time_makes_no_branch_fn_call(tmp_path, monkeypatch, cfg, certificate):
    probes, sheets = [], []

    class CountedSheet(blowup.BlowupSheet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fn = self.branch_fn
            if fn is not None:
                self.branch_fn = lambda M: probes.append(len(M)) or fn(M)
            sheets.append(self)

    monkeypatch.setattr(blowup, "BlowupSheet", CountedSheet)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["blowup", "--config", str(path), "--out", str(out)]) == 0
    assert sheets and probes == [], probes
    if certificate is not None:
        assert f"# {certificate} (" in out.read_text(encoding="utf-8")
