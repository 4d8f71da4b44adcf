#!/usr/bin/env python3
"""Repository benchmark: build the measurement program, run one workload,
check the program's outputs and print the result.

    python3 perfbench/run.py --workload diurnal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The measurement program (measure.cc) is built into
.bench_build with CMake, then measures the workload for --seconds host
seconds. This script turns its raw record into the metrics named in
BENCHMARK.json, runs the correctness checks, prints a human-readable
table and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from an extra traced repetition). An operation is one simulated
repetition of a trace; it fails when a correctness check on it fails.
The exit code is 0 when every check passed, 1 when one failed and 2
when the measurement program could not be built or run (no result line then).

See README.md in this directory for the workloads and the layer split.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
MEASURE = os.path.join(BUILD_DIR, "perfbench_measure")

# Workload -> distinct traces simulated per run, and set-up samples
# taken on each. Trace i of a run is generated from seed * 1000 + i.
# Metrics are medians or pooled sums over the traces (README.md,
# "Steadiness"): the cost of one MILP decision is heavy-tailed in its
# input, so a single trace per seed would make the run-to-run spread
# follow the seed rather than the code. A run visits every trace at
# least once, so it lasts at least traces + 1 repetitions: about 30 s
# for diurnal's 96, which its pooled violation ratio needs to stay
# steady across seeds.
WORKLOADS = {
    "diurnal": {"traces": 96, "setups": 1},
    "pipeline": {"traces": 64, "setups": 2},
    "steady": {"traces": 32, "setups": 2},
}

# Host times are scaled to one reference speed. measure.cc times a
# fixed reference kernel (a binary-heap loop) between repetitions, and
# every host time is multiplied by REFERENCE_S / the kernel's time
# around it. REFERENCE_S is the kernel's median time on the 4-vCPU
# 2.1 GHz VM the benchmark was defined on, so scaled times read as
# host time on that VM at its median speed. It is a unit, not a
# setting: changing it rescales every host-time metric
# (README.md, "Steadiness").
REFERENCE_S = 0.007

SEGMENTS = ("route", "stage_handoff", "queue_behind_batch", "epoch_stall",
            "batch_formation", "execution", "stall")

E2E_UNITS = {
    "setup_s": "s",
    "sim_queries_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p75": "ms",
    "peak_rss_mb": "MiB",
    "slo_violation_ratio": "ratio",
    "effective_accuracy": "%",
    "max_accuracy_drop": "%",
    "throughput_qps": "1/s",
}

LAYER_UNITS = {
    "setup.construct_s": "s",
    "setup.initial_plan_s": "s",
    "solver.decisions": "count",
    "solver.busy_s": "s",
    "solver.simplex_iters": "count",
    "solver.simplex_iters_max": "count",
    "solver.bb_nodes": "count",
    "solver.backoff_steps": "steps",
    "solver.ns_per_iter": "ns",
    "solver.wall_limit_hits": "decisions",
    "controller.reallocations": "count",
    "serving.busy_s": "s",
    "serving.ns_per_query": "ns",
    "batching.mean_batch_size": "queries",
    "worker.batches": "count",
    "worker.model_loads": "count",
    "router.shed": "count",
    "queries.dropped": "count",
    "queries.served_late": "count",
    "pipeline.forwarded": "count",
    "pipeline.e2e_late": "count",
    "pipeline.e2e_dropped": "count",
    **{f"lineage.{s}_ms": "ms" for s in SEGMENTS},
    "obs.trace_overhead_frac": "ratio",
    "obs.spans_recorded": "count",
    "obs.spans_dropped": "count",
}


class BenchError(Exception):
    """The measurement program could not be built or run: no result is printed."""


def build():
    """Configure and build the measurement program; output goes to stderr.

    Configuring an existing tree is cheap and repairs one left broken
    by an interrupted first configure.
    """
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target",
              "perfbench_measure", "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def measure(workload, seed, seconds, trace):
    """Run the measurement program and return its raw record (a dict)."""
    cmd = [MEASURE,
           "--config", os.path.join(BENCH_DIR, "workloads",
                                    workload + ".json"),
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--traces", str(WORKLOADS[workload]["traces"]),
           "--setups", str(WORKLOADS[workload]["setups"])]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_DIR, f"spans_{workload}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"measurement exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(sample):
    """Factor that scales a sample's host times to the reference speed."""
    return REFERENCE_S / sample["ref_s"]


def by_trace(raw):
    """Group the untraced repetitions by trace index."""
    groups = {}
    for rep in raw["reps"]:
        groups.setdefault(rep["trace_index"], []).append(rep)
    return [groups[i] for i in sorted(groups)]


def decision_ms(reps):
    """Scaled host ms of each run-phase decision of one trace.

    Decision 0 is the initial plan, timed as set-up, so it is left
    out. Decisions repeat exactly across same-seed repetitions, so
    each one's median over them filters machine noise.
    """
    counts = {len(r["decisions"]) for r in reps}
    if len(counts) != 1:  # caught a different set; pool them all
        return [d["ms"] * speed(r) for r in reps
                for d in r["decisions"][1:]]
    return [statistics.median(r["decisions"][i]["ms"] * speed(r)
                              for r in reps)
            for i in range(1, counts.pop())]


def setup_samples(raw):
    """Scaled (construct_s, initial_plan_s) of every set-up the run timed."""
    return [(s["construct_s"] * speed(s), s["initial_plan_s"] * speed(s))
            for s in raw["setups"] + raw["reps"]]


def host_s(reps, key):
    """Median over repetitions of a scaled host time."""
    return statistics.median(r[key] * speed(r) for r in reps)


def end_to_end(raw):
    """The end-to-end metrics, from the untraced repetitions.

    Simulated metrics pool the run's traces (each is deterministic).
    Host times are scaled to the reference speed. Those of a trace
    are medians over its repetitions; the
    queries-per-second figure is then the median over traces, and the
    decision percentiles pool every decision of every trace.
    """
    groups = by_trace(raw)
    sims = [g[0]["sim"] for g in groups]
    decisions = [ms for g in groups for ms in decision_ms(g)]
    p75 = statistics.quantiles(decisions, n=4, method="inclusive")[2]
    arrivals = sum(s["arrivals"] for s in sims)
    violations = sum(s["served_late"] + s["dropped"] for s in sims)
    completed = [s["served"] + s["served_late"] for s in sims]
    return {
        "setup_s": statistics.median(c + p for c, p in setup_samples(raw)),
        "sim_queries_per_s": statistics.median(
            sim["arrivals"] / host_s(g, "run_s")
            for sim, g in zip(sims, groups)),
        "decision_ms_p50": statistics.median(decisions),
        "decision_ms_p75": p75,
        "peak_rss_mb": raw["peak_rss_mb"],
        "slo_violation_ratio": violations / arrivals,
        "effective_accuracy": sum(s["effective_accuracy"] * n
                                  for s, n in zip(sims, completed)) /
        sum(completed),
        "max_accuracy_drop": statistics.fmean(
            s["max_accuracy_drop"] for s in sims),
        "throughput_qps": statistics.fmean(s["throughput_qps"] for s in sims),
    }, {
        "decisions": len(decisions),
        "decisions_beyond_p75": sum(1 for ms in decisions if ms > p75),
        "queries_attempted": arrivals,
        "queries_failed": violations,
        "traces": len(groups),
        "repetitions": len(raw["reps"]),
        "setup_samples": len(setup_samples(raw)),
        # Unscaled, for comparison: host speed and raw throughput.
        "host_speed_median": statistics.median(
            speed(r) for r in raw["reps"]),
        "raw_sim_queries_per_s": statistics.median(
            sim["arrivals"] / statistics.median(r["run_s"] for r in g)
            for sim, g in zip(sims, groups)),
    }


def wall_limit_hits(raw):
    """Decisions that ran into the MILP wall-clock backstop (unscaled)."""
    limit_ms = raw["milp_time_limit_s"] * 1e3
    reps = raw["reps"] + ([raw["traced"]] if "traced" in raw else [])
    return sum(1 for r in reps for d in r["decisions"] if d["ms"] >= limit_ms)


def per_layer(raw):
    """The per-layer metrics of the run's first trace.

    Host times are scaled medians over its untraced repetitions;
    counts come from the traced repetition, whose spans hold every
    decision.
    """
    first = by_trace(raw)[0]
    traced = raw["traced"]
    sim = traced["sim"]
    tr = traced["trace"]
    caught = decision_ms(first)
    iters = [d["iters"] for d in first[0]["decisions"][1:]]
    serving_s = host_s(first, "serving_s")
    setups = setup_samples(raw)
    out = {
        "setup.construct_s": statistics.median(c for c, _ in setups),
        "setup.initial_plan_s": statistics.median(p for _, p in setups),
        "solver.decisions": tr["solve_spans"],
        "solver.busy_s": host_s(first, "solver_s"),
        "solver.simplex_iters": tr["simplex_iters"],
        "solver.simplex_iters_max": tr["simplex_iters_max"],
        "solver.bb_nodes": tr["bb_nodes"],
        "solver.backoff_steps": sum(
            d["backoff"] for d in first[0]["decisions"]),
        "solver.ns_per_iter": (sum(caught) * 1e6 / sum(iters)
                               if sum(iters) else 0.0),
        "solver.wall_limit_hits": wall_limit_hits(raw),
        "controller.reallocations": sim["reallocations"],
        "serving.busy_s": serving_s,
        "serving.ns_per_query": serving_s * 1e9 / sim["arrivals"],
        "batching.mean_batch_size": sim["mean_batch_size"],
        "worker.batches": tr["batch_spans"],
        "worker.model_loads": tr["load_spans"],
        "router.shed": sim["shed"],
        "queries.dropped": sim["dropped"],
        "queries.served_late": sim["served_late"],
        "pipeline.forwarded": sim["forwarded"],
        "pipeline.e2e_late": sim["pipeline_e2e_late"],
        "pipeline.e2e_dropped": sim["pipeline_e2e_dropped"],
        # Tracing costs on the serving path: compare slices without a
        # decision, whose time the solver's noise does not enter.
        "obs.trace_overhead_frac":
            traced["serving_s"] * speed(traced) / serving_s - 1.0,
        "obs.spans_recorded": tr["spans_recorded"],
        "obs.spans_dropped": tr["spans_dropped"],
    }
    for seg in SEGMENTS:
        out[f"lineage.{seg}_ms"] = tr["segment_ms"][seg]
    return out


def check(raw):
    """Run every correctness check; return the list of failures.

    Each failure names the check and the repetition it fired on.
    """
    failures = []
    reps = raw["reps"] + ([raw["traced"]] if "traced" in raw else [])
    for i, rep in enumerate(reps):
        s = rep["sim"]
        if s["arrivals"] != s["served"] + s["served_late"] + s["dropped"]:
            failures.append(f"conservation: repetition {i}: arrivals "
                            f"{s['arrivals']} != served + late + dropped")
    for group in by_trace(raw):
        first = group[0]
        for rep in group[1:]:
            if rep["sim"] != first["sim"]:
                failures.append("same-seed repeat: trace "
                                f"{first['trace_index']} simulated "
                                "metrics differ between repetitions")
                break
    if all(len(g) < 2 for g in by_trace(raw)):
        failures.append("same-seed repeat: no trace was repeated")
    if "traced" in raw:
        traced = raw["traced"]
        untraced = by_trace(raw)[0][0]
        if traced["sim"] != untraced["sim"]:
            failures.append("traced run: simulated metrics differ from "
                            "the untraced run")
        tr = traced["trace"]
        if tr["spans_dropped"] or tr["links_dropped"]:
            failures.append("traced run: spans or links dropped "
                            f"({tr['spans_dropped']}, {tr['links_dropped']})")
        if tr["lineage_inexact"] or tr["lineage_queries"] != \
                traced["sim"]["arrivals"]:
            failures.append("traced run: lineage does not partition every "
                            "query's latency")
    hits = wall_limit_hits(raw)
    if hits:
        failures.append(f"solver.wall_limit_hits == {hits}: a decision "
                        "reached the MILP wall-clock backstop")
    return failures


def result_line(raw, trace):
    """Return (result line, human-readable extras, check failures)."""
    failures = check(raw)
    e2e, extras = end_to_end(raw)
    if trace:
        values, units = per_layer(raw), LAYER_UNITS
    else:
        values, units = e2e, E2E_UNITS
    attempted = len(raw["reps"]) + (1 if trace else 0)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    return result, extras, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    try:
        build()
        raw = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    result, extras, failures = result_line(raw, args.trace)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in extras.items():
        print(f"  {name:28s} {value:>16}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
