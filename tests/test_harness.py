"""Tests for the calibration experiment harness."""

import hashlib
import json
import multiprocessing

import numpy as np
import pytest

from betacircuits import harness
from betacircuits.harness import (DEFAULT_GAMMAS, ExperimentConfig,
                                  run_experiment)
from betacircuits.semirings import InconsistentEvidenceError

METRIC_CSVS = ("rmse.csv", "calibration.csv", "correlation.csv")


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

    def test_qualitative_orderings(self):
        # A population ordering needs more than the 32 trials of the shared
        # report: at 8x4 it fails on 2 or 3 of seeds 0-39, at criterion 5's
        # 30x5 on none of them (smallest margin 0.035).
        by = run_experiment(small_config(truth_draws=30,
                                         repetitions=5)).backends
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

    def test_label_stream_ignores_monte_carlo_settings(self, tmp_path):
        # The golden run and mc:<k> draw from their own streams, so the
        # cpb, mm and sl rows match the run without any Monte Carlo.
        runs = {"none": dict(golden_samples=0),
                "golden": dict(golden_samples=500),
                "golden+mc": dict(golden_samples=500,
                                  backends=("cpb", "mm", "sl", "mc:200"))}
        rows = {}
        for tag, overrides in runs.items():
            cfg = small_config(model="net1", truth_draws=10, repetitions=3,
                               **overrides)
            run_experiment(cfg).write_csvs(tmp_path / tag)
            rows[tag] = [
                line for name in ("rmse.csv", "calibration.csv")
                for line in (tmp_path / tag / name).read_bytes().splitlines()
                if line.split(b",")[0] in (b"cpb", b"mm", b"sl")]
        assert len(rows["none"]) == 3 + 3 * len(DEFAULT_GAMMAS)
        assert rows["golden"] == rows["none"]
        assert rows["golden+mc"] == rows["none"]

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

    def test_arithmetic_error_counts_as_failed_trial(self, monkeypatch):
        fail_some_label_sets(monkeypatch)
        cfg = failing_config()
        m = run_experiment(cfg).backends["cpb"]
        # Three queries per label set.
        assert m.failures == 11 * 3
        assert m.trials + m.failures == 30 * 3


def metric_csvs(cfg, outdir):
    run_experiment(cfg).write_csvs(outdir)
    return {name: (outdir / name).read_bytes() for name in METRIC_CSVS}


def fail_some_label_sets(monkeypatch):
    """Make cpb raise ZeroDivisionError on a fixed subset of label sets.

    A label set fails when its lowest variable was seen true 0, 3, 6 or
    9 times in 10 observations.  Forked workers inherit the patch.
    """
    eval_cov = harness.eval_cov

    def failing(sc, labels, leaf_cov=None):
        if labels.label_of(labels.variables[0]).alpha_pos % 3 == 1:
            raise ZeroDivisionError("float division by zero")
        return eval_cov(sc, labels, leaf_cov)

    monkeypatch.setattr(harness, "eval_cov", failing)


def failing_config():
    # With fail_some_label_sets, cpb fails on 11 of the 30 label sets, so
    # its records skip label sets and must find their golden strengths by
    # (label-set index, query) tag.
    return ExperimentConfig(model="net2", n_ins=10, truth_draws=6,
                            repetitions=5, backends=("cpb",), seed=3,
                            golden_samples=100)


class TestWorkers:
    @pytest.mark.skipif(not harness._FORK, reason="needs the fork start method")
    def test_workers_match_in_process(self, tmp_path, monkeypatch):
        mixed = ("cpb", "mm", "sl", "mc:200", "mc:300")
        cells = {
            "net1": small_config(model="net1", truth_draws=10, repetitions=3,
                                 backends=mixed),
            "smokers": small_config(model="smokers", truth_draws=6,
                                    repetitions=5, backends=mixed,
                                    golden_samples=300),
            "failing": failing_config(),
        }
        pools = []

        class CountedPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
        for tag, cfg in cells.items():
            with monkeypatch.context() as m:
                if tag == "failing":
                    fail_some_label_sets(m)
                forked = metric_csvs(cfg, tmp_path / tag / "forked")
                m.setattr(harness, "_FORK", False)
                in_process = metric_csvs(cfg, tmp_path / tag / "in-process")
            assert forked == in_process, tag
        assert len(pools) == len(cells)

    def test_mixed_cell_output_is_pinned(self, tmp_path):
        # Two mc backends between the analytic ones: the mc stream is
        # shared in the order of the backends, per label set.
        cfg = small_config(truth_draws=10, repetitions=3, seed=13,
                           backends=("mc:200", "cpb", "mm", "mc:300", "sl"))
        out = metric_csvs(cfg, tmp_path)
        assert out["rmse.csv"] == (
            b"backend,n_ins,trials,failures,actual_rmse,predicted_rmse\r\n"
            b"cpb,20,30,0,0.09557069832,0.0957216272\r\n"
            b"mc:200,20,30,0,0.09281393449,0.09480569066\r\n"
            b"mc:300,20,30,0,0.09494215912,0.09361948909\r\n"
            b"mm,20,30,0,0.09557069832,0.1517343462\r\n"
            b"sl,20,30,0,0.2666689674,0.1988785086\r\n")
        assert out["correlation.csv"] == (
            b"backend,pearson_r\r\ncpb,0.9771166818\r\n"
            b"mc:200,0.9573833056\r\nmc:300,0.9417351425\r\n"
            b"mm,0.6798739388\r\nsl,-0.1364038318\r\n")
        assert hashlib.sha256(out["calibration.csv"]).hexdigest() == (
            "e4be9bf957a74d84945a33b71258da5288e797501c5c0ae3e94892f6dfd780df")

    def test_failed_trials_keep_their_golden_strengths(self, tmp_path,
                                                        monkeypatch):
        fail_some_label_sets(monkeypatch)
        out = metric_csvs(failing_config(), tmp_path)
        assert out["rmse.csv"] == (
            b"backend,n_ins,trials,failures,actual_rmse,predicted_rmse\r\n"
            b"cpb,10,57,33,0.1620682246,0.1746316311\r\n")
        assert out["correlation.csv"] == (
            b"backend,pearson_r\r\ncpb,0.9701369469\r\n")

    def test_task_error_reraises_and_leaves_no_child(self, monkeypatch):
        # A forked worker inherits the patch; its error reaches the caller
        # with its type, as a golden-run error did before the workers.
        def fail(*args, **kwargs):
            raise InconsistentEvidenceError("golden evidence")

        monkeypatch.setattr(harness, "mc_eval_queries", fail)
        with pytest.raises(InconsistentEvidenceError, match="golden evidence"):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []


class TestCoverage:
    def test_vectorized_matches_scalar_loop(self, monkeypatch):
        from scipy.stats import beta

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
        coverage = harness._coverage(recs, DEFAULT_GAMMAS)
        for gamma in DEFAULT_GAMMAS:
            assert coverage[gamma] == scalar(gamma)
