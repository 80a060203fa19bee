"""hodoflow benchmark: one workload through ``hodoflow.cli.main``, in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: one warm-up run of the
command with ``--threads 1``, then repeated runs for ``--seconds`` seconds,
reporting the median wall time (``wall_s``); ``setup_s`` (``import
hodoflow.cli`` + ``load_config`` + ``build_problem`` in a fresh interpreter)
is timed several times, spread evenly over the same window, and its median
is reported.  ``--trace 1`` instead times untraced runs for ``--seconds``
seconds, then makes two traced runs and reports the per-layer metrics of
``tracing.py`` (their counts must repeat exactly) and the tracing overhead.

Host-speed correction of ``wall_s``: on a shared virtual machine the core
runs the same code up to 2x slower for stretches of seconds to minutes
(process CPU time slows with it, so it is the core's speed that changes, not
the scheduling).  Every command run is therefore followed by
``reference_loop``, a fixed loop of the same kinds of work that calls only
numpy and scipy, and its time is taken as ``measured * REF_NOMINAL_S /
reference``: the time it would take on a core that runs the reference loop
in ``REF_NOMINAL_S``.  No change to hodoflow can move the reference.  The raw
times are printed beside the corrected ones and kept in the result record.
``setup_s`` is reported raw: it is dominated by imports, which the reference
loop does not track.

Every output is checked: the warm-up output by the workload's gate (and the
gate must reject a corrupted copy of it), every later output by byte
identity with the warm-up output.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``
(command runs), ``failed`` (runs with a wrong or differing output) and
``metrics``.  Configs, outputs, a result record with the run context and the
spans of a traced run go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: fresh interpreters timed per run for setup_s (its median is reported)
SETUP_SAMPLES = 7
#: iterations of the reference loop, and its wall time on an uncontended core
#: of the 2-vCPU Xeon virtual machine the baseline was measured on
REF_STEPS = 5000
REF_NOMINAL_S = 0.15
#: traced runs per --trace 1 run; their counts must agree exactly
TRACED_RUNS = 2

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "solved_share": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import hodoflow.cli as cli
cli.build_problem(cli.load_config(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(cfg_path):
    """Seconds for a fresh interpreter to import the CLI and build the problem."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(cfg_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def reference_loop():
    """Wall seconds of a fixed loop of small matrix functions and arithmetic.

    Like the workloads' inner loops it runs a small ``expm``, a solve, a
    determinant and interpreted arithmetic, but it calls only numpy and scipy,
    so its time gauges the speed of the host, not of hodoflow.
    """
    import numpy as np
    from scipy.linalg import expm

    B = np.array([[0.3, 1.0, 0.0], [-1.0, 0.2, 0.1], [0.0, 0.4, -0.5]])
    v = np.array([1.0, 2.0, 3.0])
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_STEPS):
        t = 0.1 + 1e-3 * i
        E = expm(B * t)
        acc += np.linalg.solve(E, v)[0] + np.linalg.det(E)
        acc += sum(j * t for j in range(20))
    return time.perf_counter() - t0


def corrected(pairs):
    """Host-corrected seconds of (measured, reference) pairs."""
    return [measured * REF_NOMINAL_S / ref for measured, ref in pairs]


def run_cli(command, cfg_path, out_path):
    """(exit code, output text, wall seconds) of one in-process CLI run."""
    from hodoflow import cli

    argv = [command, "--config", str(cfg_path), "--out", str(out_path), "--threads", "1"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, Path(out_path).read_text(encoding="utf-8"), wall


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest():
    """SHA-256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hodoflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context():
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_runs(command, cfg_path, out_path, seconds, expected, setup_samples=0):
    """Repeat the command for at least ``seconds``, each run followed by the
    reference loop, with ``setup_samples`` fresh-interpreter set-ups spread
    evenly over the window.

    Returns (runs, set-up seconds, runs whose output differs from
    ``expected``); runs are (measured seconds, reference seconds) pairs.
    """
    walls, setups, differ = [], [], 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(setups) < setup_samples and elapsed >= len(setups) * seconds / setup_samples:
            setups.append(measure_setup(cfg_path))
        elif walls and elapsed >= seconds:
            return walls, setups, differ
        else:
            rc, text, wall = run_cli(command, cfg_path, out_path)
            walls.append((wall, reference_loop()))
            differ += (rc, text) != expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hodoflow" / "cli.py").is_file():
        print(f"perfbench: no hodoflow sources under {SRC}", file=sys.stderr)
        return 2
    # the matrices are n <= 3: BLAS threads only spin, so pin one run to one core
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    from hodoflow import cli, model

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    context = run_context()
    work = OUT / wl.name
    work.mkdir(parents=True, exist_ok=True)
    cfg = wl.make_config(args.seed)
    cfg_path, out_path = work / "config.yaml", work / "output.csv"
    cfg_path.write_text(cli.dump_config(cfg), encoding="utf-8")

    metrics, lines = {}, []
    units = {**END_TO_END, **tracing.PER_LAYER}

    def report(name, value, note=""):
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{wl.name:12s} {name:42s} {value!r} {unit}  {note}".rstrip())

    # warm-up run: the expected output, checked by the gate
    rc0, text0, _ = run_cli(wl.command, cfg_path, out_path)
    reference_loop()
    outcome = wl.check(cfg, rc0, text0)
    try:
        corrupted = wl.corrupt(text0)
    except ValueError:  # no row to corrupt: the output is already wrong
        selftest_ok = False
    else:
        selftest_ok = len(wl.check(cfg, rc0, corrupted).problems) > len(outcome.problems)
    walls, setups, differ = timed_runs(wl.command, cfg_path, out_path, args.seconds,
                                       (rc0, text0), 0 if args.trace else SETUP_SAMPLES)
    runs = 1 + len(walls)
    wall_s = statistics.median(corrected(walls))

    counts_repeat = True
    if args.trace:
        family = model.FAMILIES[cfg["data"]["family"]]
        tracers, traced_walls = [], []
        for _ in range(TRACED_RUNS):
            tracers.append(tracing.Tracer())
            with tracing.installed(tracers[-1], family):
                rc, text, wall = run_cli(wl.command, cfg_path, out_path)
            traced_walls.append((wall, reference_loop()))
            runs += 1
            differ += (rc, text) != (rc0, text0)
        layer_runs = [tracer.layer_metrics(outcome.items) for tracer in tracers]
        count_names = [m for m, unit in tracing.PER_LAYER.items() if unit == "count"]
        counts_repeat = all(
            run[m] == layer_runs[0][m] for run in layer_runs for m in count_names)
        for name, unit in tracing.PER_LAYER.items():
            if name == "trace.overhead_share":
                value = statistics.median(corrected(traced_walls)) / wall_s - 1.0
            elif unit == "count":
                value = layer_runs[0][name]
            else:
                value = statistics.median(run[name] for run in layer_runs)
            report(name, value)
    else:
        raw_walls = [wall for wall, _ in walls]
        report("setup_s", statistics.median(setups),
               f"(median of {len(setups)} fresh interpreters)")
        report("wall_s", wall_s, f"(median of {len(walls)} runs after 1 warm-up; raw median "
               f"{statistics.median(raw_walls):.4f} s, fastest {min(raw_walls):.4f} s)")
        report("items_per_s", outcome.items / wall_s,
               f"({outcome.items} {wl.item_label} per run)")
        report("solved_share", 1.0 - outcome.failed / outcome.attempted,
               f"(fail_share {outcome.failed / outcome.attempted!r} = "
               f"{outcome.failed} failed of {outcome.attempted} attempted)")
        report("peak_rss_mb", peak_rss_mb())

    failed = runs if outcome.problems else differ
    correct = failed == 0 and selftest_ok and counts_repeat
    context.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "items": outcome.items, "item_label": wl.item_label,
        "attempted_items": outcome.attempted, "failed_items": outcome.failed,
        "statuses": outcome.statuses, "command_runs": runs, "failed_runs": failed,
        "ref_nominal_s": REF_NOMINAL_S, "walls_and_refs_s": walls,
        "setups_s": setups, "output_sha256": hashlib.sha256(text0.encode()).hexdigest(),
        "problems": outcome.problems,
        "selftest_rejects_corruption": selftest_ok, "counts_repeat": counts_repeat,
        "loadavg_end": list(os.getloadavg()),
    })
    result = {"correct": correct, "attempted": runs, "failed": failed, "metrics": metrics}
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"context": context, **result}, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracers[0].write_spans(work / "spans.csv")

    print("context: " + json.dumps(context, sort_keys=True))
    for problem in outcome.problems:
        print(f"{wl.name}: check failed: {problem}")
    if not selftest_ok:
        print(f"{wl.name}: self-test failed: the gate accepted a corrupted output")
    if not counts_repeat:
        print(f"{wl.name}: traced counts differ between the {TRACED_RUNS} traced runs")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
