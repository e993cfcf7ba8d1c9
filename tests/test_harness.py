"""Tests for the calibration experiment harness."""

import json
from pathlib import Path

import numpy as np
import pytest

from betacircuits.harness import (DEFAULT_GAMMAS, ExperimentConfig,
                                  run_experiment)


def small_config(**overrides):
    base = dict(model="burglary", n_ins=20, truth_draws=8, repetitions=4,
                backends=("cpb", "mm", "sl"), seed=5, golden_samples=500)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(model="burglary", circuit_file="x.nnf",
                             query_vars=(1,))
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            ExperimentConfig(model="nope")

    def test_circuit_file_needs_query_vars(self):
        with pytest.raises(ValueError, match="query_vars"):
            ExperimentConfig(circuit_file="x.nnf")

    def test_backend_names(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig(model="burglary", backends=("cpb", "exact"))
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig(model="burglary", backends=("mc:0",))
        cfg = ExperimentConfig(model="burglary", backends=("mc:100", "cpb"))
        assert cfg.backends == ("mc:100", "cpb")

    def test_minimum_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(model="burglary", truth_draws=5, repetitions=5)

    def test_n_ins_positive(self):
        with pytest.raises(ValueError, match="n_ins"):
            ExperimentConfig(model="burglary", n_ins=0)

    def test_fast_mode_caps_shape(self):
        cfg = ExperimentConfig(model="burglary", truth_draws=100,
                               repetitions=10, fast=True)
        assert cfg.trial_shape == (30, 5)
        assert small_config().trial_shape == (8, 4)

    def test_from_json(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "model": "burglary", "n_ins": 10, "truth_draws": 10,
            "repetitions": 3, "backends": ["cpb"], "seed": 7}))
        assert cfg.n_ins == 10
        assert cfg.backends == ("cpb",)
        assert cfg.gammas == DEFAULT_GAMMAS


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_config())


class TestRun:

    def test_metric_shapes(self, report):
        assert set(report.backends) == {"cpb", "mm", "sl"}
        for b in report.backends.values():
            assert b.trials + b.failures == 8 * 4  # one query var
            assert b.actual_rmse >= 0.0
            assert b.predicted_rmse >= 0.0
            assert set(b.coverage) == set(DEFAULT_GAMMAS)
            assert all(0.0 <= c <= 1.0 for c in b.coverage.values())
            assert len(b.timing_quantiles) == 6

    def test_qualitative_orderings(self, report):
        by = report.backends
        # CPB's predicted spread tracks the realized error; the
        # moment-matched semiring over-propagates variance (conservative).
        cpb, mm = by["cpb"], by["mm"]
        assert abs(cpb.predicted_rmse - cpb.actual_rmse) < \
            abs(mm.predicted_rmse - mm.actual_rmse)
        assert mm.predicted_rmse > mm.actual_rmse
        assert cpb.pearson_r is not None and cpb.pearson_r > 0.9

    def test_csv_outputs(self, report, tmp_path):
        report.write_csvs(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"rmse.csv", "calibration.csv", "correlation.csv",
                         "timing.csv"}
        rmse = (tmp_path / "rmse.csv").read_text().splitlines()
        assert rmse[0] == ("backend,n_ins,trials,failures,"
                           "actual_rmse,predicted_rmse")
        assert len(rmse) == 4

    def test_byte_determinism(self, tmp_path):
        cfg = small_config(truth_draws=6, repetitions=5, backends=("cpb",),
                           golden_samples=200)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            out.mkdir()
            run_experiment(cfg).write_csvs(out)
        for name in ("rmse.csv", "calibration.csv", "correlation.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_circuit_file_source(self, tmp_path):
        from betacircuits.circuit import format_nnf
        from betacircuits.examples import burglary_circuit
        path = tmp_path / "b.nnf"
        path.write_text(format_nnf(burglary_circuit()))
        cfg = ExperimentConfig(circuit_file=str(path), query_vars=(1,),
                               n_ins=15, truth_draws=10, repetitions=3,
                               backends=("cpb",), seed=2, golden_samples=0)
        report = run_experiment(cfg)
        m = report.backends["cpb"]
        assert m.trials + m.failures == 30

    def test_underflow_counts_as_failed_trial(self, tmp_path, make_block_nnf):
        # E[root] is a product of 300 block means near 0.5, so cpb's
        # E[root]^4 underflows and its division raises ZeroDivisionError.
        path = tmp_path / "blocks.nnf"
        path.write_text(make_block_nnf(300))
        cfg = ExperimentConfig(circuit_file=str(path), query_vars=(1,),
                               n_ins=10, truth_draws=6, repetitions=5,
                               backends=("cpb",), seed=3, golden_samples=0)
        m = run_experiment(cfg).backends["cpb"]
        assert m.failures > 0
        assert m.trials + m.failures == 30


class TestCoverage:
    def test_vectorized_matches_scalar_loop(self, monkeypatch):
        from scipy.stats import beta

        from betacircuits import harness

        captured = []
        aggregate = harness._aggregate

        def capture(name, recs, fails, gammas):
            captured.extend(recs)
            return aggregate(name, recs, fails, gammas)

        monkeypatch.setattr(harness, "_aggregate", capture)
        run_experiment(small_config(golden_samples=0))
        inf = float("inf")
        recs = captured + [
            harness.TrialRecord(0.3, 0.3, 0.0, inf, inf, inf, 0.0),
            harness.TrialRecord(0.3, 0.5, 0.0, inf, inf, inf, 0.0)]

        def scalar(gamma):
            hits = 0
            for r in recs:
                if not np.isfinite(r.alpha_pos) or not np.isfinite(r.alpha_neg):
                    hits += abs(r.truth - r.mean) < 1e-9
                    continue
                lo = beta.ppf((1.0 - gamma) / 2.0, r.alpha_pos, r.alpha_neg)
                hi = beta.ppf((1.0 + gamma) / 2.0, r.alpha_pos, r.alpha_neg)
                hits += lo <= r.truth <= hi
            return hits / len(recs)

        assert len(recs) > 90
        for gamma in DEFAULT_GAMMAS:
            assert harness._coverage(recs, gamma) == scalar(gamma)
