"""Fast self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit; checks the self-time
arithmetic on hand-built span trees; and checks that a hook whose target is
gone drops its metrics instead of failing the run.
"""

import json
import tempfile
import unittest

import run  # pins BLAS threads before numpy loads

if run.import_lrskel() is None:
    raise SystemExit("error: no lrskel sources under src/")

import lrskel  # noqa: E402
from spans import HOOKS, PASS_METRICS, SpanLog, Tracer, self_times, unit_metrics  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402


def declared(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SelfTimeTest(unittest.TestCase):
    def test_children_overlapping_and_overrunning(self):
        log = SpanLog()
        root = log.add("root", 0.0, 10.0)
        a = log.add("a", 1.0, 4.0, parent=root)
        log.add("a.child", 2.0, 3.0, parent=a)
        log.add("b", 3.0, 6.0, parent=root)    # overlaps a: [1, 6] counts once
        log.add("c", 8.0, 12.0, parent=root)   # clipped to root's end: [8, 10]
        own = self_times(log.start, log.end, log.parent)
        self.assertEqual(own.tolist(), [3.0, 2.0, 1.0, 3.0, 4.0])

    def test_unit_metrics_time_self_and_calls(self):
        # A backward span nested in another counts once in time, twice in
        # calls; the svd child's time is not the outer span's self time.
        log = SpanLog()
        log.units = ["pass0", "pass1"]
        outer = log.add("layers.backward", 0.0, 4.0, unit=0)
        log.add("layers.backward", 1.0, 2.0, parent=outer, unit=0)
        log.add("linalg.svd", 2.5, 3.0, parent=outer, unit=0, tag="32x8")
        log.add("linalg.svd", 0.0, 9.0, unit=1, tag="32x8")  # other unit
        specs = [s for s in PASS_METRICS if s["name"] in (
            "layers.backward_s", "layers.backward_calls", "linalg.svd_s",
            "linalg.svd_s.32x8", "linalg.svd_s.32x32", "linalg.svd_calls")]
        got = unit_metrics(log, 0, specs, {"layers.backward", "linalg.svd"})
        self.assertEqual(got, {
            "layers.backward_s": 4.0, "layers.backward_calls": 2,
            "linalg.svd_s": 0.5, "linalg.svd_s.32x8": 0.5,
            "linalg.svd_s.32x32": 0.0, "linalg.svd_calls": 1,
        })
        backward = next(s for s in specs if s["name"] == "layers.backward_s")
        self_spec = dict(backward, name="backward_self", how="self")
        got = unit_metrics(log, 0, [self_spec], {"layers.backward"})
        self.assertAlmostEqual(got["backward_self"], 3.0 - 0.5 + 1.0)


class TracerTest(unittest.TestCase):
    def test_missing_target_drops_its_metrics(self):
        hooks = tuple(h for h in HOOKS if h[2] != "linalg.svd")
        hooks += (("lrskel.linalg", "renamed_svd", "linalg.svd", "svd"),)
        tracer = Tracer(hooks)
        original = lrskel.compress_model
        model = lrskel.build_model(lrskel.ModelConfig(
            joints=2, frames=4, d_model=8, heads=2, blocks=1, classes=3, seed=0))
        with tracer.unit("pass0"):
            lrskel.compress_model(model, lrskel.parse_plan("q=1"))
        self.assertIs(lrskel.compress_model, original)
        self.assertEqual(tracer.missing, ["lrskel.linalg.renamed_svd"])
        got = unit_metrics(tracer.log, 0, PASS_METRICS, tracer.available)
        self.assertFalse([k for k in got if k.startswith("linalg.")])
        self.assertGreater(got["compress.compress_model_self_s"], 0.0)


class WorkloadTest(unittest.TestCase):
    def run_toy(self, name, trace):
        with tempfile.TemporaryDirectory() as workdir:
            return run.run_workload(name, 7, 0.01, trace, workdir, TOY)

    def check_metrics(self, result, expected):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, report = self.run_toy(name, 0)
                self.check_metrics(result, end_to_end)
                self.assertGreater(result["metrics"]["wall_s"]["value"], 0.0)
                result, report = self.run_toy(name, 1)
                self.check_metrics(result, per_layer)
                self.assertEqual(report["missing_hooks"], [])
                self.assertGreater(report["spans"]["count"], 0)


if __name__ == "__main__":
    unittest.main()
