#!/usr/bin/env python3
"""Exact-count gate for the repository benchmark.

Runs every perfbench workload once with per-layer tracing on a fixed
seed and compares each metric whose unit is `count` (decisions, simplex
iterations, branch-and-bound nodes, batches, model loads, spans, ...)
exactly against a committed record. Those counts cover the run's first
trace only, so it also runs each workload untraced and compares the
simulated end-to-end metrics, which pool every trace of the run
(SIM_METRICS). Neither depends on machine speed or load, so any
difference means the program did different work. Wall-clock metrics
are not compared.

    python3 tools/perfbench_counts.py            # compare, exit 1 on a diff
    python3 tools/perfbench_counts.py --update   # rewrite the record

Run from anywhere; it uses the checkout the script lives in. Exit code:
0 all counts equal, 1 a count differs or a correctness check failed,
2 the benchmark could not be run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "bench", "baselines",
                      "perfbench_counts_seed1.json")
WORKLOADS = ("diurnal", "pipeline", "steady")
SEED = 1
# End-to-end metrics computed from simulated time alone: deterministic.
SIM_METRICS = ("slo_violation_ratio", "effective_accuracy",
               "max_accuracy_drop", "throughput_qps")


def run_perfbench(workload, trace):
    """Run perfbench for one second; return its metrics and whether its
    correctness checks passed."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench {workload}: could not run")
    result = json.loads(lines[-1])
    ok = result["correct"] and result["failed"] == 0
    return result["metrics"], ok


def run_counts(workload):
    """Return the traced run's count metrics and the untraced run's
    simulated end-to-end metrics, and whether both runs passed."""
    traced, traced_ok = run_perfbench(workload, 1)
    untraced, untraced_ok = run_perfbench(workload, 0)
    counts = {name: m["value"] for name, m in traced.items()
              if m["unit"] == "count"}
    counts.update({name: untraced[name]["value"] for name in SIM_METRICS})
    return counts, traced_ok and untraced_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="write the measured counts to the record")
    args = parser.parse_args()

    measured = {}
    all_ok = True
    for workload in WORKLOADS:
        counts, ok = run_counts(workload)
        measured[workload] = counts
        if not ok:
            print(f"{workload}: perfbench correctness check failed")
            all_ok = False

    if args.update:
        record = {
            "command": "python3 perfbench/run.py --workload W --seed "
                       f"{SEED} --seconds 1 --trace T (T = 1: counts, "
                       "0: " + ", ".join(SIM_METRICS) + ")",
            "workloads": measured,
        }
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.relpath(RECORD, ROOT)}")
        return 0 if all_ok else 1

    with open(RECORD) as f:
        expected = json.load(f)["workloads"]
    diffs = 0
    for workload in WORKLOADS:
        want = expected.get(workload, {})
        got = measured[workload]
        for name in sorted(set(want) | set(got)):
            w, g = want.get(name), got.get(name)
            mark = "ok" if w == g else "DIFF"
            diffs += w != g
            print(f"{workload:9s} {name:28s} {str(w):>10s} {str(g):>10s}"
                  f"  {mark}")
    print(f"{diffs} count(s) differ from {os.path.relpath(RECORD, ROOT)}")
    return 0 if diffs == 0 and all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
