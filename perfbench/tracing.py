"""Span tracing around the calls into each hodoflow layer, from outside the package.

``installed(tracer, family)`` swaps timing wrappers onto the layer functions
(module attributes, which every caller looks up at call time, plus the
methods of the workload's data-family class) and restores the originals on
exit.  A span is ``[name, start, end, parent]``; spans stay in memory and are
written out once, after the run.  A span's self time is its duration minus
the durations of its direct children (calls nest strictly in one thread, so
children never overlap).

Which end-to-end number each layer metric should move, and where:

* ``matops`` -- ``phi1`` moves ``wall_s`` on blowup-scan (~90% of a traced
  run's time), then compare-3d (~58%), then solve-sweep (~24%); ``solve``
  (where ``cond`` costs more than the solve; ~21% on solve-sweep) moves
  ``items_per_s`` on solve-sweep.
* ``model`` -- ``items_per_s`` on solve-sweep and compare-3d
  (``Separable.u0`` runs once per oracle step there).
* ``hodograph`` -- ``items_per_s`` on solve-sweep; barely compare-3d; never
  blowup-scan.
* ``blowup`` -- ``wall_s`` on blowup-scan only.
* ``oracle`` and ``degenerate`` -- compare-3d only.
* ``cli`` -- ``load_config`` and ``build_problem`` move ``setup_s``;
  ``emit`` moves ``wall_s`` on solve-sweep (a 700-row CSV).

``periodicity`` is not traced: no workload spends measurable time in
``check_periodic``, and its solution check goes through ``hodograph``, which
solve-sweep covers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import Counter, defaultdict

from hodoflow import blowup, cli, degenerate, hodograph, matops, oracle

#: (module, attribute, span name) of every traced layer function
LAYER_FUNCTIONS = [
    (matops, "phi1", "matops.phi1"),
    (matops, "phi2", "matops.phi2"),
    (matops, "mat_exp", "matops.mat_exp"),
    (matops, "solve", "matops.solve"),
    (hodograph, "solve_M", "hodograph.solve_M"),
    (hodograph, "_scan_guess", "hodograph.scan_guess"),
    (blowup, "sheet_1d", "blowup.sheets"),
    (blowup, "sheets_diag", "blowup.sheets"),
    (blowup, "sheets_coriolis2d", "blowup.sheets"),
    (blowup, "sheets_diag2", "blowup.sheets"),
    (blowup, "min_blowup_time", "blowup.min_blowup_time"),
    (blowup, "blowup_residual", "blowup.blowup_residual"),
    (oracle, "first_caustic_time", "oracle.first_caustic_time"),
    (oracle, "flow_jacobian_det", "oracle.flow_jacobian_det"),
    (oracle, "exact_flow", "oracle.exact_flow"),
    (degenerate, "degenerate_solve_info", "degenerate.degenerate_solve_info"),
    (degenerate, "rotated_problem", "degenerate.rotated_problem"),
    (cli, "load_config", "cli.load_config"),
    (cli, "build_problem", "cli.build_problem"),
    (cli, "_emit", "cli.emit"),
]
#: data-family methods, wrapped on the workload's top-level family class
FAMILY_METHODS = ("phi", "phi_jacobian", "in_domain", "u0")

#: per-layer metric -> unit.  ``<span>.calls`` counts a span, ``<span>.s`` sums
#: its durations and ``<span>.self_s`` its self times; the rest are derived.
PER_LAYER = {
    "matops.phi1.calls": "count",
    "matops.phi1.self_s": "s",
    "matops.phi2.calls": "count",
    "matops.phi2.self_s": "s",
    "matops.mat_exp.calls": "count",
    "matops.mat_exp.self_s": "s",
    "matops.solve.calls": "count",
    "matops.solve.self_s": "s",
    "model.phi.calls": "count",
    "model.phi.self_s": "s",
    "model.phi_jacobian.calls": "count",
    "model.phi_jacobian.self_s": "s",
    "model.in_domain.calls": "count",
    "model.u0.calls": "count",
    "model.u0.self_s": "s",
    "hodograph.solve_M.calls": "count",
    "hodograph.solve_M.self_s": "s",
    "hodograph.newton_iters": "count",
    "hodograph.ok_share": "ratio",
    "hodograph.scan_rescues": "count",
    "blowup.sheets.s": "s",
    "blowup.sheets.self_s": "s",
    "blowup.min_blowup_time.s": "s",
    "blowup.min_blowup_time.self_s": "s",
    "blowup.blowup_residual.calls": "count",
    "blowup.blowup_residual.self_s": "s",
    "blowup.residuals_per_point": "count/point",
    "blowup.branch_refine.calls": "count",
    "oracle.first_caustic_time.calls": "count",
    "oracle.first_caustic_time.self_s": "s",
    "oracle.flow_jacobian_det.calls": "count",
    "oracle.flow_jacobian_det.self_s": "s",
    "oracle.exact_flow.calls": "count",
    "degenerate.degenerate_solve_info.calls": "count",
    "degenerate.degenerate_solve_info.self_s": "s",
    "degenerate.rotated_problem.calls": "count",
    "cli.load_config.s": "s",
    "cli.build_problem.s": "s",
    "cli.emit.s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """In-memory span recorder plus the counters the spans cannot carry."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def solve_M_done(self, out):
        self.counts["hodograph.solve_M.ok"] += 1
        self.counts["hodograph.newton_iters"] += out[1].iters

    def wrap_branch_fns(self, sheets):
        for sheet in [sheets] if isinstance(sheets, blowup.BlowupSheet) else sheets:
            fn = sheet.branch_fn
            if fn is not None and not hasattr(fn, "__wrapped__"):
                sheet.branch_fn = self.wrap("blowup.branch_refine", fn)

    def totals(self):
        """span name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
        return out

    def layer_metrics(self, grid_points):
        """Per-layer metric values (every PER_LAYER name but the overhead)."""
        tot = self.totals()

        def calls(span):
            return tot.get(span, (0,))[0]

        values = {}
        for metric in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind in ("calls", "s", "self_s"):
                n, inclusive, self_s = tot.get(span, (0, 0.0, 0.0))
                values[metric] = {"calls": n, "s": inclusive, "self_s": self_s}[kind]
        n_solve = calls("hodograph.solve_M")
        values["hodograph.newton_iters"] = self.counts["hodograph.newton_iters"]
        values["hodograph.ok_share"] = (
            self.counts["hodograph.solve_M.ok"] / n_solve if n_solve else 0.0
        )
        values["hodograph.scan_rescues"] = calls("hodograph.scan_guess")
        values["blowup.residuals_per_point"] = calls("blowup.blowup_residual") / grid_points
        return values

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent])


@contextlib.contextmanager
def installed(tracer, family):
    """Wrap the layer functions and ``family``'s methods; restore them on exit."""
    hooks = {"hodograph.solve_M": tracer.solve_M_done,
             "blowup.sheets": tracer.wrap_branch_fns}
    saved = []
    try:
        for owner, attr, span in LAYER_FUNCTIONS:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), hooks.get(span)))
        for meth in FAMILY_METHODS:
            saved.append((family, meth, family.__dict__.get(meth)))
            setattr(family, meth, tracer.wrap(f"model.{meth}", getattr(family, meth)))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
