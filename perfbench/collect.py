"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/collect.py --workload blowup-scan --seeds 5 --seconds 30
    python3 perfbench/collect.py --seeds 10 --seconds 30 --baseline perfbench/baseline.json

For each workload it makes one ``run.py --trace 0`` run per seed (seeds
``--first-seed``, ``--first-seed + 1``, ...) and prints, per metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile range / median).  With ``--baseline`` it then makes one
``--trace 1`` run per workload and writes everything, with the run context,
to the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def bench(workload, seed, seconds, trace):
    """(printed result, result record) of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / workload / f"result-trace{trace}.json").read_text())
    return result, record


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--baseline", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    summary, context = {}, {}
    for name in args.workload or list(WORKLOADS):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = [bench(name, seed, args.seconds, 0) for seed in seeds]
        context = runs[-1][1]["context"]
        metrics = {
            m: dict(unit=v["unit"], **summarise([r["metrics"][m]["value"] for r, _ in runs]))
            for m, v in runs[0][0]["metrics"].items()
        }
        summary[name] = {
            "seeds": seeds,
            "items": context["items"],
            "item_label": context["item_label"],
            "all_correct": all(r["correct"] for r, _ in runs),
            "command_runs": sum(r["attempted"] for r, _ in runs),
            "failed_runs": sum(r["failed"] for r, _ in runs),
            "loadavg_start": [rec["context"]["loadavg_start"][0] for _, rec in runs],
            "end_to_end": metrics,
        }
        for m, s in metrics.items():
            print(f"{name:12s} {m:14s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']!r}", flush=True)
        print(f"{name:12s} correct {summary[name]['all_correct']} "
              f"runs {summary[name]['command_runs']} failed {summary[name]['failed_runs']}",
              flush=True)

    if args.baseline:
        for name, entry in summary.items():
            result, _ = bench(name, entry["seeds"][0], args.seconds, 1)
            entry["traced"] = {
                "seed": entry["seeds"][0], "correct": result["correct"],
                "metrics": {m: v["value"] for m, v in result["metrics"].items()},
            }
        baseline = {
            "note": f"{args.seeds} --trace 0 runs per workload, one seed each, "
                    f"--seconds {args.seconds:g}; medians and quartiles across the runs "
                    "(statistics.quantiles, n=4); then one --trace 1 run per workload "
                    "(written by collect.py)",
            **{k: context[k] for k in
               ("commit", "source_sha256", "python", "numpy", "scipy", "nproc")},
            "workloads": summary,
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
