"""min_blowup_time refines a stationary minimum without probing branch_fn.

A branch_fn probe re-runs a sheet's whole root evaluation (on a scanned
sheet, a root scan and a bracket refinement per probed point), so the blow-up
minimum comes from Newton on the extremum conditions f = 0, f_M = 0 of the
residual instead.  branch_fn stays the fallback for sheets that cannot meet
those conditions (crossing branches, an edge minimum); on the two configs
below the minimum is interior and stationary, and a probe there is a
regression.  Every sheet build_sheets returns gets a counting branch_fn.
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


@pytest.mark.parametrize("cfg", [BLOWUP_SCAN, CRITERION_5], ids=["blowup-scan", "criterion-5"])
def test_min_blowup_time_makes_no_branch_fn_call(tmp_path, monkeypatch, cfg):
    probes = []
    build_sheets = blowup.build_sheets

    def counted(*args, **kwargs):
        sheets, lines = build_sheets(*args, **kwargs)
        for sheet in sheets:
            sheet.branch_fn = lambda M, fn=sheet.branch_fn: probes.append(len(M)) or fn(M)
        return sheets, lines

    monkeypatch.setattr(blowup, "build_sheets", counted)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert cli.main(["blowup", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert probes == [], probes
