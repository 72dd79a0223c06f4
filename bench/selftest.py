"""Self-test of the benchmark itself, not of the package.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed, with its unit,
by a short run of each workload with and without tracing; that an
expected output corrupted in memory makes an op fail; and that a
directory holding only BENCHMARK.json and bench/ makes run.py exit
non-zero without printing a result.  Takes about three minutes.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

run.pin_environment()
run.import_package()

import workloads  # noqa: E402  (needs the package path set up above)

SEED = 7
SHORT_SECONDS = "0.5"


def benchmark_config():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench_output(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SHORT_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class MetricNames(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        config = benchmark_config()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in config[key]}
            for workload in (w["name"] for w in config["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench_output(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name in expected:
                        self.assertIn(f"\n{name} ", proc.stdout)


class CorruptedExpectations(unittest.TestCase):
    """Each case runs one op, checks it passes, then corrupts what the
    check compares against and expects the same output to fail."""

    def assert_caught(self, workload, corrupt):
        item = workload.pool(SEED)[0]
        records = []
        run.run_op(workload.run, [item], 0, records, 0.0)
        run.check(workload, [item], records)
        self.assertIsNone(records[0].problem)
        run.check(workload, [corrupt(item)], records)
        self.assertIsNotNone(records[0].problem)

    def test_golden_csv(self):
        w = workloads.make("ladders_xyz", run.ROOT)

        def corrupt(item):
            name = "_".join(item.published) + ".csv"
            w.golden[name] = w.golden[name].replace("0.577393", "0.577394")
            return item

        self.assert_caught(w, corrupt)

    def test_frozen_ladder(self):
        w = workloads.make("ladders_optimized", run.ROOT)

        def corrupt(item):
            frozen = w.reference.FROZEN_LADDERS[item.published]
            w.reference.FROZEN_LADDERS[item.published] = (frozen[0] + 1e-3,) + frozen[1:]
            return item

        self.assert_caught(w, corrupt)

    def test_frozen_chain(self):
        w = workloads.make("oracle_audit", run.ROOT)
        self.assert_caught(
            w, lambda item: dataclasses.replace(item, frozen=(item.frozen[0] - 1e-3,) + item.frozen[1:])
        )

    def test_cli_reference(self):
        w = workloads.make("cli", run.ROOT)
        self.assert_caught(
            w, lambda item: dataclasses.replace(item, expected=item.expected.replace("1", "2", 1))
        )

    def test_repeat_that_differs_fails(self):
        w = workloads.make("cli", run.ROOT)
        item = w.pool(SEED)[0]
        records = []
        run.run_op(w.run_traced, [item], 0, records, 0.0)
        run.run_op(w.run_traced, [item], 0, records, 0.0)
        records[1].output = dataclasses.replace(records[1].output, stdout="changed\n")
        run.check(w, [item], records)
        self.assertEqual([r.problem is None for r in records], [True, False])


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = bench_output("ladders_xyz", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
