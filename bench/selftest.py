"""Self-test of the benchmark (kept out of the package's test suite).

Run from the root of a qmor checkout::

    python3 bench/selftest.py

It runs every workload at smoke size with tracing off and on, checks that
every metric named in ``BENCHMARK.json`` is emitted with its unit, that the
traced self times add up, that corrupted outputs fail their checks and
raise ``fail_ratio``, that inputs depend only on the seed, and that the
benchmark refuses to run without the package sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qmor import systems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 170


def bench_run(workload, trace, cwd=ROOT, seconds=0.1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


class SmokeRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                done = bench_run(workload, trace)
                if done.returncode != 0:
                    raise AssertionError(f"{workload} trace={trace} failed:\n{done.stdout}\n{done.stderr}")
                cls.results[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for (workload, trace), result in self.results.items():
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
                for metric in wanted:
                    emitted = result["metrics"][metric["name"]]
                    self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
                    self.assertTrue(math.isfinite(emitted["value"]), metric["name"])

    def test_end_to_end_metrics_are_positive(self):
        for workload in workloads.WORKLOADS:
            for name, metric in self.results[workload, 0]["metrics"].items():
                self.assertGreater(metric["value"], 0.0, f"{workload} {name}")

    def test_self_times_add_up_to_op_wall_time_plus_overhead(self):
        for workload in workloads.WORKLOADS:
            m = {k: v["value"] for k, v in self.results[workload, 1]["metrics"].items()}
            self_total = sum(v for k, v in m.items() if k.startswith("self."))
            self.assertAlmostEqual(
                self_total - m["trace.op_wall_s"], m["trace.overhead_s"], delta=1e-6, msg=workload
            )


WORKDIR = run.OUT_DIR / "selftest-work"


def first_output(workload):
    case = workload.cases[0]
    return case, workload.op(case, tracing.NullTracer(), str(WORKDIR))


class CorruptedOutputs(unittest.TestCase):
    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_perturbed_reduced_state_matrix_fails(self):
        workload = workloads.build("certify_small", 0, smoke=True)
        case, out = first_output(workload)
        self.assertTrue(workload.check(case, out).passed)
        reduced = out.result.reduced
        bad = dataclasses.replace(reduced, A=reduced.A + 1e-3 * np.abs(reduced.A).max())
        out.result = dataclasses.replace(out.result, reduced=bad)
        verdict = workload.check(case, out)
        self.assertIn("reduced-model realizability", verdict.failures)
        self.assertIn("interpolation residuals", verdict.failures)

    def test_bound_below_estimate_fails(self):
        workload = workloads.build("certify_small", 0, smoke=True)
        case, out = first_output(workload)
        report = out.report
        out.report = dataclasses.replace(report, hinf_bound_right=report.hinf_error_estimate * 0.5)
        self.assertIn("right bound >= estimate", workload.check(case, out).failures)

    def test_round_trip_mismatch_fails(self):
        workload = workloads.build("reduce_batch", 0, smoke=True)
        case, out = first_output(workload)
        self.assertTrue(workload.check(case, out).passed)
        decoded = out.decoded
        a = np.array(decoded.reduced.A)
        a[0, 0] = np.nextafter(a[0, 0], np.inf)
        out.decoded = dataclasses.replace(decoded, reduced=dataclasses.replace(decoded.reduced, A=a))
        self.assertIn("A round-trips bit for bit", workload.check(case, out).failures)

    def test_wrong_selection_cost_fails(self):
        workload = workloads.build("select", 0, smoke=True)
        case, out = first_output(workload)
        self.assertTrue(workload.check(case, out).passed)
        out = dataclasses.replace(out, cost=out.cost * 0.9)
        self.assertIn("returned cost matches a fresh evaluation", workload.check(case, out).failures)

    def test_corrupting_op_raises_fail_ratio(self):
        workload = workloads.build("reduce_batch", 0, smoke=True)
        honest = workload.op

        def corrupting(case, tr, workdir):
            out = honest(case, tr, workdir)
            reduced = out.result.reduced
            names = ("F", "A")[isinstance(reduced, systems.QuadratureSystem)]
            state = getattr(reduced, names)
            bad = dataclasses.replace(reduced, **{names: state * 1.01})
            out.result = dataclasses.replace(out.result, reduced=bad)
            return out

        workload.op = corrupting
        records, _, wall = run.run_phase(
            workload, tracing.NullTracer(), str(WORKDIR), count=len(workload.cases)
        )
        self.assertEqual(run.summarize(records, records, wall)["fail_ratio"], 1.0)


class HostSpeed(unittest.TestCase):
    def test_factor_is_one_at_the_reference_speed(self):
        reference = hostspeed.Reference()
        reference.samples = [hostspeed.REFERENCE_S] * 3
        self.assertAlmostEqual(reference.factor(), 1.0)
        reference.samples = [2 * hostspeed.REFERENCE_S]
        self.assertAlmostEqual(reference.factor(), 0.5 ** hostspeed.EXPONENT)

    def test_kernel_is_timed_through_the_op_phase(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        reference = hostspeed.Reference()
        try:
            workload = workloads.build("reduce_batch", 0, smoke=True)
            run.run_phase(
                workload, tracing.NullTracer(), str(WORKDIR), count=len(workload.cases),
                reference=reference,
            )
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
        self.assertGreaterEqual(len(reference.samples), 2 * hostspeed.REPEATS)
        self.assertTrue(all(t > 0.0 for t in reference.samples))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        def matrices(seed):
            workload = workloads.build("certify_small", seed, smoke=True)
            return [np.asarray(workloads.state_matrix(c.system)) for c in workload.cases]

        for a, b in zip(matrices(3), matrices(3)):
            np.testing.assert_array_equal(a, b)
        self.assertFalse(all(np.array_equal(a, b) for a, b in zip(matrices(3), matrices(4))))


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = run.OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "bench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH.glob("*.py"):
                shutil.copy(path, bare / "bench")
            done = bench_run("certify_small", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
