"""Tests of the repository benchmark (perfbench/run.py).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The unit tests feed run.py synthetic measurement records; the end-to-end
test builds the measurement program and runs the pipeline workload on a non-default
seed, so it needs the C++ toolchain and takes about a minute on a
cold build tree.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(BENCH_DIR, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def make_rep(trace_index, run_s=1.0):
    """One untraced repetition whose outputs pass every check."""
    return {
        "trace_index": trace_index,
        "construct_s": 1e-4, "initial_plan_s": 1e-3,
        "run_s": run_s,
        "solver_s": 0.6 * run_s, "serving_s": 0.4 * run_s,
        "ref_s": run.REFERENCE_S,
        "decisions": [
            {"ms": 2.0, "nodes": 1, "iters": 40, "backoff": 0},
            {"ms": 1.0, "nodes": 3, "iters": 25, "backoff": 0},
            {"ms": 1.5, "nodes": 1, "iters": 30, "backoff": 1},
        ],
        "sim": {
            "arrivals": 1000 + trace_index, "served": 900 + trace_index,
            "served_late": 60, "dropped": 40,
            "effective_accuracy": 90.0, "max_accuracy_drop": 5.0,
            "slo_violation_ratio": 0.1, "throughput_qps": 15.0,
            "reallocations": 3, "mean_batch_size": 2.5, "shed": 0,
            "forwarded": 0, "pipeline_e2e_late": 0,
            "pipeline_e2e_dropped": 0,
        },
    }


def make_raw(traced=False):
    """A measurement record with two traces, trace 0 repeated."""
    raw = {
        "milp_time_limit_s": 10.0,
        "peak_rss_mb": 15.5,
        "setups": [{"construct_s": 1e-4, "initial_plan_s": 1e-3,
                    "ref_s": run.REFERENCE_S} for _ in range(4)],
        "reps": [make_rep(0), make_rep(1, 1.2), make_rep(0, 1.1)],
    }
    if traced:
        rep = make_rep(0, 1.3)
        rep["trace"] = {
            "spans_recorded": 5000, "spans_dropped": 0,
            "links_dropped": 0,
            "solve_spans": 3, "bb_nodes": 5, "simplex_iters": 95,
            "simplex_iters_max": 40, "batch_spans": 400, "load_spans": 2,
            "lineage_queries": 1000, "lineage_inexact": 0,
            "segment_ms": {s: 1.0 for s in run.SEGMENTS},
        }
        raw["traced"] = rep
    return raw


class MetricNamesTest(unittest.TestCase):
    def test_end_to_end_names_and_units_match(self):
        declared = {m["name"]: m["unit"]
                    for m in benchmark_json()["end_to_end"]}
        result, _, failures = run.result_line(make_raw(), trace=0)
        self.assertEqual(failures, [])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_per_layer_names_and_units_match(self):
        declared = {m["name"]: m["unit"]
                    for m in benchmark_json()["per_layer"]}
        result, _, failures = run.result_line(make_raw(traced=True),
                                              trace=1)
        self.assertEqual(failures, [])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_workloads_match(self):
        declared = {w["name"] for w in benchmark_json()["workloads"]}
        self.assertEqual(declared, set(run.WORKLOADS))


class ChecksTest(unittest.TestCase):
    def assert_fires(self, raw, check_name):
        failures = run.check(raw)
        self.assertTrue(any(f.startswith(check_name) for f in failures),
                        f"{check_name!r} did not fire: {failures}")
        result, _, _ = run.result_line(raw, trace=1 if "traced" in raw
                                       else 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_clean_record_passes(self):
        self.assertEqual(run.check(make_raw(traced=True)), [])

    def test_conservation_fires(self):
        raw = make_raw()
        raw["reps"][1]["sim"]["dropped"] += 1
        self.assert_fires(raw, "conservation")

    def test_same_seed_repeat_fires(self):
        raw = make_raw()
        raw["reps"][2]["sim"]["max_accuracy_drop"] = 5.5
        self.assert_fires(raw, "same-seed repeat")

    def test_missing_repeat_fires(self):
        raw = make_raw()
        del raw["reps"][2]
        self.assert_fires(raw, "same-seed repeat")

    def test_traced_run_mismatch_fires(self):
        raw = make_raw(traced=True)
        raw["traced"]["sim"]["served"] -= 1
        raw["traced"]["sim"]["served_late"] += 1
        self.assert_fires(raw, "traced run")

    def test_dropped_spans_fire(self):
        raw = make_raw(traced=True)
        raw["traced"]["trace"]["spans_dropped"] = 1
        self.assert_fires(raw, "traced run")

    def test_inexact_lineage_fires(self):
        raw = make_raw(traced=True)
        raw["traced"]["trace"]["lineage_inexact"] = 1
        self.assert_fires(raw, "traced run")

    def test_wall_limit_hit_fires(self):
        raw = make_raw()
        raw["reps"][1]["decisions"][1]["ms"] = 10000.0
        self.assert_fires(raw, "solver.wall_limit_hits")

    def test_failed_check_exits_nonzero(self):
        raw = make_raw()
        raw["reps"][0]["sim"]["served"] += 1
        out = io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "measure", return_value=raw), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "pipeline", "--seed", "7",
                             "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 1)
        last = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(last["correct"])


class AggregationTest(unittest.TestCase):
    def test_decision_ms_is_median_per_decision(self):
        reps = [make_rep(0), make_rep(0), make_rep(0)]
        reps[1]["decisions"][1]["ms"] = 100.0  # one noisy sample
        self.assertEqual(run.decision_ms(reps), [1.0, 1.5])

    def test_host_times_scale_to_reference_speed(self):
        fast = make_raw()
        for sample in fast["reps"] + fast["setups"]:
            sample["ref_s"] = run.REFERENCE_S / 2  # host twice as fast
            for key in ("run_s", "construct_s", "initial_plan_s"):
                if key in sample:
                    sample[key] /= 2
            for d in sample.get("decisions", []):
                d["ms"] /= 2
        for name, value in run.end_to_end(make_raw())[0].items():
            self.assertAlmostEqual(run.end_to_end(fast)[0][name], value,
                                   msg=name)

    def test_violation_ratio_pools_traces(self):
        metrics, extras = run.end_to_end(make_raw())
        self.assertAlmostEqual(metrics["slo_violation_ratio"], 200 / 2001)
        self.assertEqual(extras["queries_failed"], 200)
        self.assertEqual(extras["decisions"], 4)  # initial plans left out


class EndToEndTest(unittest.TestCase):
    """Builds the measurement program and runs it on a seed other than the default."""

    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "pipeline", "--seed", "7", "--seconds", "2",
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=900, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_non_default_seed_reports_every_metric(self):
        spec = benchmark_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_bench(trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in spec[key]})
            for metric in result["metrics"].values():
                self.assertIsInstance(metric["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
