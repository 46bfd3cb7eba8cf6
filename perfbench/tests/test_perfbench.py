"""Tests of the benchmark itself (standard library unittest).

    PYTHONPATH=src python3 -m unittest discover -s perfbench/tests

The schema test runs every workload once for about a second; the whole
file takes a minute or two.
"""

from __future__ import annotations

import ast
import copy
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import worker      # noqa: E402
import workloads   # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    DECLARED = json.load(_f)
with open(worker.EXPECTED) as _f:
    EXPECTED = json.load(_f)

# cheap operations of each workload, including cross-operation inputs
SUBSETS = {
    "certify": ["invert_4_3", "colored_ring_8_2", "harmonic_decouple_6_3"],
    "synthesize": ["oa_4_4", "oa_signs_4_4", "bound_12_4"],
    "cli": ["decouple_4_3", "verify_zero", "verify_tampered", "signs_2", "signs_from_oa"],
}


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def measure(workload, trace, ops, expected=EXPECTED, seed=0):
    with tempfile.TemporaryDirectory() as work:
        return worker.measure(workload, seed, 0.0, trace, work, expected, ops=ops)


class ResultSchema(unittest.TestCase):
    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in DECLARED[section]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name])
            self.assertIsInstance(m["value"], (int, float))
        for name in want:
            self.assertIn(name, proc.stdout.split("\n{")[0], "metric missing from the report")
        return result

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in DECLARED["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(
                    run_bench("--workload", w["name"], "--seconds", "1", "--trace", "0"),
                    "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        result = self.check_result(
            run_bench("--workload", "cli", "--seconds", "1", "--trace", "1"), "per_layer")
        values = {k: m["value"] for k, m in result["metrics"].items()}
        # every layer is called by the cli workload
        for layer in ("gf", "designs", "netham", "error_basis", "scheme", "bounds",
                      "graphcolor", "harmonic", "signs", "cli"):
            self.assertGreater(values[f"{layer}.calls"], 0, layer)
            self.assertEqual(values[f"{layer}.failed"], 0, layer)

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", ".work"))
            proc = run_bench("--workload", "cli", "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class OutputChecks(unittest.TestCase):
    def test_all_subsets_pass_on_default_and_other_seed(self):
        for workload, ops in SUBSETS.items():
            for seed in (0, 11):
                with self.subTest(workload=workload, seed=seed):
                    res = measure(workload, False, ops, seed=seed)
                    self.assertEqual(res["failures"], [])

    def test_wrong_recorded_digest_fails_that_operation(self):
        expected = copy.deepcopy(EXPECTED)
        expected["seed_free"]["synthesize/oa_signs_4_4.signs"] = "0" * 64
        res = measure("synthesize", False, ["oa_4_4", "oa_signs_4_4"], expected)
        self.assertEqual(res["outcomes"], {"oa_4_4": True, "oa_signs_4_4": False})
        self.assertEqual(res["failed"], 1)

    def test_wrong_recorded_value_fails_only_on_default_seed(self):
        expected = copy.deepcopy(EXPECTED)
        expected["seed_0"]["synthesize/bound_12_4.tau_min"] *= 1.01
        self.assertFalse(measure("synthesize", False, ["bound_12_4"], expected)
                         ["outcomes"]["bound_12_4"])
        self.assertTrue(measure("synthesize", False, ["bound_12_4"], expected, seed=5)
                        ["outcomes"]["bound_12_4"])


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_outcomes_agree(self):
        for workload, ops in SUBSETS.items():
            with self.subTest(workload=workload):
                plain = measure(workload, False, ops)
                traced = measure(workload, True, ops)
                self.assertEqual(plain["outcomes"], traced["outcomes"])
                self.assertTrue(all(plain["outcomes"].values()), plain["failures"])

    def test_self_times_add_up_to_the_traced_pass(self):
        m = measure("cli", True, SUBSETS["cli"])["metrics"]
        total = sum(v for k, v in m.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(total, m["trace.wall_s"], delta=1e-9 * m["trace.wall_s"])
        self.assertGreater(m["cli.self_s"], 0)
        self.assertGreater(m["cli.json_bytes_in"], 0)


class Helpers(unittest.TestCase):
    def test_timings_are_scaled_by_the_calibration_kernel(self):
        import calibrate
        ref = calibrate.REFERENCE_S
        self.assertEqual(calibrate.scale(ref, ref), 1.0)
        # a kernel twice as slow scales the work down by 2 ** ELASTICITY
        self.assertAlmostEqual(calibrate.scale(ref, 3 * ref), 0.5 ** calibrate.ELASTICITY)
        passes = [{"scaled_wall_s": 2.0, "wall_s": 4.0, "ops": [
            {"op": "a", "tags": ("decouple",), "latency_s": 3.0, "scale": 0.5, "problems": []},
            {"op": "b", "tags": ("invert",), "latency_s": 1.0, "scale": 0.5, "problems": []}]}]
        metrics, info = worker.end_to_end(passes, 1.0)
        self.assertEqual((metrics["wall_s"], metrics["decouple_s"], metrics["invert_s"]),
                         (2.0, 1.5, 0.5))
        self.assertEqual(info["raw_wall_s"], 4.0)

    def test_tail_keeps_ten_samples_beyond(self):
        xs = list(range(1, 31))
        value, p = worker.tail(xs)
        self.assertEqual(p, 66)
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertEqual(worker.tail([3, 1, 2]), (3, 100))

    def test_reference_hamiltonian_norm_matches_coefficients(self):
        # ||H||_F^2 = d^(n-2) (16 sum_{k<l} ||J_kl||^2 + 2 d ||r||^2) for the Gell-Mann basis
        import numpy as np
        from pulseforge import netham
        model = netham.random_model(3, 3, seed=4)
        H = workloads.qudit_hamiltonian(model)
        m = 8
        blocks = sum(np.sum(model.J[k * m:(k + 1) * m, l * m:(l + 1) * m] ** 2)
                     for k in range(3) for l in range(k + 1, 3))
        want = 3 * (16 * blocks + 6 * np.sum(model.r ** 2))
        self.assertAlmostEqual(np.linalg.norm(H) ** 2 / want, 1.0, places=12)
        self.assertLess(np.abs(H - netham.assemble(model)).max(), 1e-12)


class Imports(unittest.TestCase):
    def test_benchmark_imports_only_stdlib_numpy_and_the_package(self):
        files = glob.glob(os.path.join(BENCH, "*.py")) + glob.glob(os.path.join(HERE, "*.py"))
        local = {os.path.splitext(os.path.basename(f))[0] for f in files}
        allowed = set(sys.stdlib_module_names) | {"numpy", "pulseforge"} | local
        for path in files:
            with open(path) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    self.assertIn(name.split(".")[0], allowed, f"{path} imports {name}")

    def test_run_py_needs_only_the_standard_library(self):
        for script in ("run.py", "calibrate.py"):
            with open(os.path.join(BENCH, script)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.name for a in node.names] if isinstance(node, ast.Import) \
                        else [node.module]
                    for name in names:
                        self.assertIn(name.split(".")[0],
                                      sys.stdlib_module_names | {"__future__", "calibrate"},
                                      f"{script} imports {name}")


if __name__ == "__main__":
    unittest.main()
