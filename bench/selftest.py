"""Self-test of the benchmark: the checkers reject wrong answers, and a
reduced-size run of every workload passes every check.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

It is not collected by the repository's own test suite; it runs the
benchmark's processes and takes about half a minute.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from workloads import block_nnf  # noqa: E402

BURGLARY_NNF = "nnf 7 8 3\nL 1\nL -1\nL 2\nL 3\nA 2 1 2\nO 1 2 0 4\nA 2 5 3\n"
BURGLARY_LABELS = {1: (2.0, 18.0), 2: (2.0, 8.0), 3: (3.5, 1.5)}
#: First-order posterior variance of P(burglary | calls), worked by hand.
BURGLARY_VAR = 0.04705831444690252


def burglary_reference() -> ref.Reference:
    return ref.first_order(ref.Nnf.parse(BURGLARY_NNF), BURGLARY_LABELS, 1, [])


class CheckersRejectWrongAnswers(unittest.TestCase):
    def test_reference_burglary(self):
        r = burglary_reference()
        self.assertAlmostEqual(r.mean, 5.0 / 14.0, delta=1e-15)
        self.assertAlmostEqual(r.variance, BURGLARY_VAR, delta=1e-15)

    def test_cpb_variance_without_a_source_is_rejected(self):
        r = burglary_reference()
        self.assertIsNone(ref.check_cpb(r, 5.0 / 14.0, BURGLARY_VAR))
        for wrong in (0.0528, 0.0505):
            self.assertIsNotNone(ref.check_cpb(r, 5.0 / 14.0, wrong))

    def test_cpb_mean_off_by_1e_6_is_rejected(self):
        r = burglary_reference()
        self.assertIsNotNone(ref.check_cpb(r, 5.0 / 14.0 + 1e-6, BURGLARY_VAR))

    def test_library_answer_is_accepted(self):
        from betacircuits.cpb import eval_cov, shadow_circuit
        from betacircuits.circuit import parse_nnf, set_condition
        from betacircuits.examples import burglary_labels
        staged = set_condition(parse_nnf(BURGLARY_NNF), query=1)
        res = eval_cov(shadow_circuit(staged), burglary_labels())
        self.assertIsNone(ref.check_cpb(burglary_reference(), res.mean,
                                        res.variance))

    def test_point_and_label_checks(self):
        r = burglary_reference()
        self.assertIsNone(ref.check_prob(r, 5.0 / 14.0))
        self.assertIsNotNone(ref.check_prob(r, 5.0 / 14.0 + 1e-10))
        self.assertIsNone(ref.check_mm(r, 5.0 / 14.0, 0.05))
        self.assertIsNotNone(ref.check_mm(r, 5.0 / 14.0, 0.3))
        self.assertIsNotNone(ref.check_mm(r, 0.36, 0.05))
        self.assertIsNone(ref.check_sl(0.4, 0.05, 2.0, 3.0))
        self.assertIsNotNone(ref.check_sl(1.5, 0.05, 2.0, 3.0))
        self.assertIsNotNone(ref.check_sl(0.4, float("nan"), 2.0, 3.0))

    def test_mc_check(self):
        sample = ref.Sample(0.38, 0.0445, 20000)
        se = (0.0445 / 10000 + 0.0445 / 20000) ** 0.5
        self.assertIsNone(ref.check_mc(0.38 + 2 * se, 0.0445, 10000, sample))
        self.assertIsNotNone(ref.check_mc(0.38 + 6 * se, 0.0445, 10000, sample))

    def test_block_closed_form_matches_the_circuit(self):
        labels = {}
        for v in range(1, 13):
            labels[v] = (1.0 + v, 3.0 + 0.5 * v)
        for q in range(4):
            closed = ref.block_first_order(*(labels[3 * q + i] for i in (1, 2, 3)))
            swept = ref.first_order(ref.Nnf.parse(block_nnf(4)), labels,
                                    3 * q + 1, [(3 * ((q + 1) % 4) + 3, True)])
            self.assertAlmostEqual(closed.mean, swept.mean, delta=1e-14)
            self.assertAlmostEqual(closed.variance, swept.variance, delta=1e-14)

    def test_cell_checker(self):
        from betacircuits.harness import ExperimentConfig, run_experiment
        cfg = ExperimentConfig(model="burglary", n_ins=20, truth_draws=10,
                               repetitions=3, seed=3, golden_samples=200,
                               backends=("cpb", "mm", "sl", "mc:100"))
        report = run_experiment(cfg)
        self.assertEqual(ref.check_cell(report.backends, 30, cfg.gammas), [])
        self.assertNotEqual(ref.check_cell(report.backends, 31, cfg.gammas), [])

        rmse = copy.deepcopy(report.backends)
        rmse["mm"].actual_rmse += 1e-9
        self.assertNotEqual(ref.check_cell(rmse, 30, cfg.gammas), [])

        cover = copy.deepcopy(report.backends)
        g = sorted(cfg.gammas)
        cover["cpb"].coverage[g[-1]] = cover["cpb"].coverage[g[0]] - 0.01
        self.assertNotEqual(ref.check_cell(cover, 30, cfg.gammas), [])


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


class ReducedRuns(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_reduced(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", "11", "--seconds",
                         "1", "--trace", str(trace), "--reduced")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        names = [m["name"] for m in
                 self.spec["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return result

    def test_infer(self):
        for trace in (0, 1):
            result = self.run_reduced("infer", trace)
            self.assertEqual(result["failed"], 0)
        self.assertGreater(result["metrics"]["cli.import_s"]["value"], 0.0)

    def test_scale(self):
        # One round: two ladder sizes plus the underflow size, four
        # backends each; only cpb at the underflow size fails.
        for trace in (0, 1):
            result = self.run_reduced("scale", trace)
            rounds = 1 + trace
            self.assertEqual(result["attempted"], 12 * rounds)
            self.assertEqual(result["failed"], rounds)
        self.assertGreater(result["metrics"]["cpb.eval_cov.scaling_exp"]["value"],
                           1.0)

    def test_calibrate(self):
        # The traced run makes each cell once untraced and once traced, and
        # checks that their metric CSVs are byte-identical.
        for trace in (0, 1):
            result = self.run_reduced("calibrate", trace)
            self.assertEqual(result["failed"], 0)
        self.assertGreater(result["metrics"]["harness.beta_ppf.calls"]["value"],
                           0.0)

    def test_refuses_to_run_without_the_library(self):
        bare = BENCH / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for f in BENCH.glob("*.py"):
                shutil.copy(f, bare / "bench")
            proc = run_bench("--workload", "scale", "--seed", "1", "--seconds",
                             "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
