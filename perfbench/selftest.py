"""Quick self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced self times sum to no more than wall time, that the tracer puts
back every function it wrapped, that the runner refuses to run without
the program's sources, and that compare.py marks regressions in either
direction as worse.  Its files go to .bench_out/selftest.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import unittest

import compare
import run
import workloads
from tracer import MARK, Tracer, package_modules

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
OUT_DIR = run.ROOT / ".bench_out" / "selftest"


def run_tiny(workload: str, trace: int, cwd=run.ROOT, script=run.BENCH_DIR / "run.py"):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny",
           "--results", str(OUT_DIR / "results.jsonl"), "--spans", str(OUT_DIR / "spans.csv.gz")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_has_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_tiny(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)


class TracerInvariants(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ccflab = run.import_program()

    def traced(self, workload: str):
        # One thread each (not scan_threads): self times of one thread must fit
        # in wall time.
        wl = workloads.make_workload(workload, self.ccflab, seed=3, tiny=True)
        tracer = Tracer(self.ccflab, run.OBSERVERS)
        t0 = time.perf_counter()
        tracer.install()
        try:
            patched = tracer.patched
            run.measure(wl, units=wl.min_units)
        finally:
            tracer.uninstall()
        return tracer, patched, time.perf_counter() - t0

    def test_self_times_within_wall(self):
        for workload in ("scan", "witness"):
            with self.subTest(workload=workload):
                tracer, _, wall = self.traced(workload)
                summary = tracer.summary()
                self.assertGreater(len(tracer), 0)
                total_self = sum(v["self_s"] for v in summary.values())
                self.assertLessEqual(total_self, wall)
                for name, v in summary.items():
                    self.assertGreaterEqual(v["self_s"], -1e-9, name)

    def test_tracer_restores_every_function(self):
        _, patched, _ = self.traced("witness")
        holders = {(m.__name__.rsplit(".", 1)[-1], attr) for m, attr, _ in patched}
        # Names imported with `from .x import y` are wrapped too.
        for holder in (("ccf", "chebyshev_center"), ("reproductions", "verify_ccf_witness"),
                       ("cli", "farthest_set"), ("ccflab", "eval_norm")):
            self.assertIn(holder, holders)
        for module, attr, original in patched:
            self.assertIs(getattr(module, attr), original, f"{module.__name__}.{attr}")
        for module in package_modules(self.ccflab):
            for attr, value in vars(module).items():
                self.assertFalse(getattr(value, MARK, False), f"{module.__name__}.{attr}")


class CompareVerdicts(unittest.TestCase):
    def spec(self, better: str) -> dict:
        return {"name": "m", "unit": "x", "better": better, "bound": 0.1}

    def test_regression_is_worse_in_both_directions(self):
        self.assertEqual(compare.verdict(self.spec("higher"), [3.3, 3.37, 3.45], [2.5, 2.6, 3.35]), "worse")
        self.assertEqual(compare.verdict(self.spec("lower"), [2.5, 2.6, 3.35], [3.3, 3.37, 3.45]), "worse")

    def test_every_run_beating_every_base_run_is_better(self):
        self.assertEqual(compare.verdict(self.spec("higher"), [2.5, 2.6, 3.35], [3.4, 3.5, 3.6]), "better")
        self.assertEqual(compare.verdict(self.spec("lower"), [3.4, 3.5, 3.6], [2.5, 2.6, 3.35]), "better")

    def test_equal_runs_are_same(self):
        for better in ("higher", "lower"):
            self.assertEqual(compare.verdict(self.spec(better), [1.0, 1.01, 0.99], [1.0, 0.99, 1.01]), "same")


class WitnessGaps(unittest.TestCase):
    def test_solves_without_a_gap_in_their_output_count(self):
        # finite-dim reports no gap in its JSON; its solve must still count
        # towards max_rel_gap.
        ccflab = run.import_program()
        wl = workloads.make_workload("witness", ccflab, seed=3)
        wl.requests = [r for r in wl.requests if r["label"] == "reproduce:finite-dim--n3"]
        calls = []

        def counting(solve):
            def counted(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)

            return counted

        original = ccflab.solver.chebyshev_center
        with workloads.wrapped(ccflab, "solver", "chebyshev_center", counting):
            units, _ = run.measure(wl, units=1)
        self.assertIs(ccflab.solver.chebyshev_center, original)
        self.assertNotIn('"gap"', units[0].outputs[0][1])
        self.assertGreater(len(calls), 0)
        self.assertEqual(len(units[0].gaps), len(calls))
        self.assertEqual(workloads.max_rel_gap(units), max(units[0].gaps))


class LatencySamples(unittest.TestCase):
    def test_repeated_requests_give_one_sample_each(self):
        passes = [workloads.Unit(latencies=[1.0, 2.0], requests=[0, 1]),
                  workloads.Unit(latencies=[9.0, 8.0], requests=[0, 1]),  # a slow stretch
                  workloads.Unit(latencies=[3.0], requests=[1])]  # request 0 raised
        self.assertEqual(workloads.latency_samples(passes), [5.0, 3.0])
        self.assertEqual(run.loop_stats(passes, 10.0)["ops"], 5)

    def test_operations_that_do_not_repeat_are_samples_of_their_own(self):
        rounds = [workloads.Unit(latencies=[0.3, 0.1]), workloads.Unit(latencies=[0.2])]
        self.assertEqual(workloads.latency_samples(rounds), [0.3, 0.1, 0.2])


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = run_tiny("scan", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
