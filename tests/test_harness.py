"""Tests for the calibration experiment harness."""

import hashlib
import json
import multiprocessing
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from betacircuits import betadist, examples, harness
from betacircuits import circuit as circuit_module
from betacircuits.betacalc import QueryResult
from betacircuits.circuit import CircuitError, set_condition
from betacircuits.examples import BUILTIN_MODELS, burglary_labels
from betacircuits.harness import (DEFAULT_GAMMAS, ExperimentConfig,
                                  run_experiment)
from betacircuits.semirings import InconsistentEvidenceError

METRIC_CSVS = ("rmse.csv", "calibration.csv", "correlation.csv")
README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_fast_is_an_unknown_key(self):
        with pytest.raises(ValueError,
                           match=re.escape("unknown experiment config keys "
                                           "['fast']")):
            ExperimentConfig.from_json(json.dumps({"model": "burglary",
                                                   "fast": True}))

    def test_from_json(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "model": "burglary", "n_ins": 10, "truth_draws": 10,
            "repetitions": 3, "backends": ["cpb"], "seed": 7}))
        assert cfg.n_ins == 10
        assert cfg.backends == ("cpb",)
        assert cfg.gammas == DEFAULT_GAMMAS

    def test_negative_seed_is_named(self):
        # Before, it passed here and numpy rejected it mid-run.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(model="burglary", seed=-1)

    @pytest.mark.parametrize("key", ["query_vars", "backends", "gammas"])
    def test_list_keys_need_a_json_array(self, key):
        # Before, "backends": "cpb" was split into the backends c, p, b.
        with pytest.raises(ValueError, match=f"{key} must be a JSON array"):
            ExperimentConfig.from_json(json.dumps({"model": "burglary",
                                                   key: "cpb"}))

    def test_readme_documents_the_config(self):
        # README's example config parses, and README's prose names every
        # config field as `name`: a field added or renamed without its docs
        # fails here.
        text = README.read_text()
        examples = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
        assert len(examples) == 1
        assert ExperimentConfig.from_json(examples[0]).model == "net1"
        missing = [f.name for f in fields(ExperimentConfig)
                   if f"`{f.name}`" not in text]
        assert missing == []


@pytest.mark.parametrize("name", ["cpb", "mm", "sl", "mc:200"])
def test_every_backend_answers_a_query_result(name):
    model = BUILTIN_MODELS["burglary"]()
    c = set_condition(model.circuit({}), query=None,
                      evidence=model.prob_evidence)
    answers = harness._run_backend(name, c, model.query_vars,
                                   burglary_labels(),
                                   np.random.default_rng(0))
    assert list(answers) == list(model.query_vars)
    for res in answers.values():
        assert isinstance(res, QueryResult)
        assert 0.0 < res.mean < 1.0 and res.variance > 0.0
        assert res.matched.mean == pytest.approx(res.mean)


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

    def test_query_off_the_root_is_rejected(self, tmp_path):
        # Before, every backend answered 1.0 and scored RMSE rows of 0.
        path = tmp_path / "off.nnf"
        path.write_text("nnf 5 2 2\nL 2\nL 1\nL -1\nO 1 2 1 2\nA 1 3\n")
        cfg = ExperimentConfig(circuit_file=str(path), query_vars=(2,),
                               n_ins=10, truth_draws=10, repetitions=3,
                               seed=1, golden_samples=0)
        with pytest.raises(CircuitError, match="query variable 2 does not"):
            run_experiment(cfg)

    def test_mm_records_the_mean_infer_prints(self, monkeypatch):
        # mm's mean is the propagated E[X], as ``infer`` prints it, not its
        # moment-matched label's a / (a + b), which can round one ulp off.
        # The propagation follows prob's sweep, so it equals cpb's mean.
        captured = {}
        aggregate = harness._aggregate

        def capture(name, recs, fails, gammas):
            captured[name] = recs
            return aggregate(name, recs, fails, gammas)

        monkeypatch.setattr(harness, "_aggregate", capture)
        run_experiment(ExperimentConfig(model="smokers", truth_draws=30,
                                        repetitions=5, seed=1,
                                        backends=("cpb", "mm"),
                                        golden_samples=0))
        cpb, mm = captured["cpb"], captured["mm"]
        assert len(cpb) == len(mm) == 30 * 5 * 7
        assert [r.mean for r in mm] == [r.mean for r in cpb]

    def test_tied_groups_draw_one_truth_and_fit_one_label(self):
        # Each tied group's members share one drawn truth, and in every
        # label set one label fitted from the members' pooled counts.
        cfg = ExperimentConfig(model="smokers", n_ins=20, truth_draws=6,
                               repetitions=5,
                               model_options={"shared_annotations": True})
        model = harness._resolve_model(cfg)
        assert [len(g) for g in model.tied_groups] == [9, 4]
        draws = harness._truth_draws(cfg, model)
        assert [len(d.label_sets) for d in draws] == [5] * 6
        for draw in draws:
            for group in model.tied_groups:
                assert len({draw.truth[v] for v in group}) == 1
                for labels, _, _ in draw.label_sets:
                    pooled = {(labels.label_of(v).alpha_pos,
                               labels.label_of(v).alpha_neg) for v in group}
                    assert len(pooled) == 1
                    a, b = pooled.pop()
                    assert a + b == len(group) * cfg.n_ins + 2

    def test_arithmetic_error_counts_as_failed_trial(self, monkeypatch):
        fail_some_label_sets(monkeypatch)
        cfg = failing_config()
        m = run_experiment(cfg).backends["cpb"]
        # Three queries per label set.
        assert m.failures == 11 * 3
        assert m.trials + m.failures == 30 * 3


#: sha256 of the rmse, calibration and correlation CSVs, mc rows included,
#: of one small cell per builtin beyond burglary.
PINNED_CELLS = {
    "net1": (
        "0b5ad20e5f3917b05ebc588640633c2de8b1e41834832a19d98fccb1337f56d8",
        "d5ed639bfe291d214be20e0cb8667a502ff6aaec094cd753a2bcb4c99f554394",
        "932660a34743eedd63bc323d0cf53a2475b6458e63ad233312c8c1342195edc5"),
    "net2": (
        "f04c570454f423e8b4ec855a1f911a766a5daafa29f0a98cae6661fd7579660f",
        "6ea4abf8c4b9c61cb627d7122c6eea1c134f557c1fe133f2829647196454c258",
        "b927ac9395f5ccfe777d4679280a1bef1331df7cfd7e740dc7bbb6ef6bf7e647"),
    "net3": (
        "196f9bf566a44a8344d2522cafa84d7d1d641fbd1ac3fe16b89c12f331309388",
        "0d87ed1d06bd170edf43d76c26034b54e9d77f0e7c15ddc45bdea3c9fb9422cd",
        "c82f571085a74263b4267fb953f95d2bfa9e116f2879348a62dbec7ad4565be2"),
    "smokers": (
        "ce21843240c44d612f69abaad63492445fbe7916397bbfc3025357e2809824b6",
        "c34ed27c87c9723862f80b74894290bc9df7c0fef29be16982b98c15747b6226",
        "1d0d58937d0b359197cc08b756e19e7aac125fd2a3b13c10f81ae93e8c48fba8"),
}


def metric_csvs(cfg, outdir):
    run_experiment(cfg).write_csvs(outdir)
    return {name: (outdir / name).read_bytes() for name in METRIC_CSVS}


def fail_some_label_sets(monkeypatch, error=ZeroDivisionError):
    """Make cpb raise ``error`` on a fixed subset of label sets.

    A label set fails when its lowest variable was seen true 0, 3, 6 or
    9 times in 10 observations.  Forked workers inherit the patch.
    """
    eval_cov_queries = harness.eval_cov_queries

    def failing(c, queries, labels, leaf_cov=None):
        if labels.label_of(labels.variables[0]).alpha_pos % 3 == 1:
            raise error("float division by zero")
        return eval_cov_queries(c, queries, labels, leaf_cov)

    monkeypatch.setattr(harness, "eval_cov_queries", failing)


def failing_config():
    # With fail_some_label_sets, cpb fails on 11 of the 30 label sets and
    # skips them, so each record has to take its golden strength from its
    # own set's golden run, by query and not by position.
    return ExperimentConfig(model="net2", n_ins=10, truth_draws=6,
                            repetitions=5, backends=("cpb",), seed=3,
                            golden_samples=100)


class TestWorkers:
    @pytest.mark.skipif(not harness._FORK, reason="needs the fork start method")
    def test_workers_match_in_process(self, tmp_path, monkeypatch):
        # The output does not depend on how many workers take the truth
        # draws, nor on whether there are fewer draws than CPUs.
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
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
        for tag, cfg in cells.items():
            with monkeypatch.context() as m:
                if tag == "failing":
                    fail_some_label_sets(m)
                m.setattr(harness, "_FORK", False)
                expected = metric_csvs(cfg, tmp_path / tag / "in-process")
                m.setattr(harness, "_FORK", True)
                for cpus in (1, 2, 3, 7):
                    m.setattr(harness, "_usable_cpus", lambda: cpus)
                    out = metric_csvs(cfg, tmp_path / tag / str(cpus))
                    assert out == expected, (tag, cpus)
        # One worker per CPU, at most one per truth draw.
        assert pools == [min(cfg.truth_draws, cpus)
                         for cfg in cells.values() for cpus in (2, 3, 7)]

    @pytest.mark.skipif(not harness._FORK, reason="needs the fork start method")
    def test_calling_process_compiles_nothing(self, monkeypatch):
        # Forked workers compile the evidence circuits; their calls to the
        # counting wrapper land in their own copies of ``calls``.
        calls = []
        shannon_compile = examples.shannon_compile

        def counted(*args, **kwargs):
            calls.append(args)
            return shannon_compile(*args, **kwargs)

        monkeypatch.setattr(examples, "shannon_compile", counted)
        cfg = small_config(model="net1", truth_draws=10, repetitions=3)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        run_experiment(cfg)
        assert calls == []
        # In-process, the same wrapper sees the compilations.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        run_experiment(cfg)
        assert len(calls) > 0

    def test_truth_draws_share_one_pass(self, monkeypatch):
        # Every truth draw conditions the model's cached circuit on the same
        # evidence, so the first draw's pass serves the other nine.
        builds = []
        build = circuit_module._Schedule.build

        def counted(c, *args):
            builds.append(args)
            return build(c, *args)

        monkeypatch.setattr(circuit_module._Schedule, "build", counted)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        run_experiment(small_config(truth_draws=10, repetitions=3,
                                    backends=("cpb", "mm", "sl", "mc:100")))
        assert builds == [((1,),)]

    def test_mixed_cell_output_is_pinned(self, tmp_path):
        # Two mc backends between the analytic ones: each label set's mc
        # stream is shared in the order of the backends.  The cpb, mm and
        # sl rows draw nothing, so they keep the values they had before the
        # golden run and mc:<k> drew from per-set streams.
        cfg = small_config(truth_draws=10, repetitions=3, seed=13,
                           backends=("mc:200", "cpb", "mm", "mc:300", "sl"))
        out = metric_csvs(cfg, tmp_path)
        assert out["rmse.csv"] == (
            b"backend,n_ins,trials,failures,actual_rmse,predicted_rmse\r\n"
            b"cpb,20,30,0,0.09557069832,0.0957216272\r\n"
            b"mc:200,20,30,0,0.09577234201,0.09436896182\r\n"
            b"mc:300,20,30,0,0.09865928217,0.09438063844\r\n"
            b"mm,20,30,0,0.09557069832,0.1517343462\r\n"
            b"sl,20,30,0,0.2666689674,0.1988785086\r\n")
        assert out["correlation.csv"] == (
            b"backend,pearson_r\r\ncpb,0.981155283\r\n"
            b"mc:200,0.9548370182\r\nmc:300,0.9568244422\r\n"
            b"mm,0.7105118583\r\nsl,-0.08685121497\r\n")
        rows = out["calibration.csv"].splitlines(keepends=True)
        analytic = b"".join(r for r in rows if not r.startswith(b"mc:"))
        mc = b"".join(r for r in rows if r.startswith(b"mc:"))
        assert hashlib.sha256(analytic).hexdigest() == (
            "9adaa26905e3aa15599fa07d3abbe9771e795c7ed7aeb2f8c5ce7256242f06fa")
        assert hashlib.sha256(mc).hexdigest() == (
            "16b376adc73fed106c9550b3364a11968caa19d3b22a42648c3136cecf9249df")

    @pytest.mark.parametrize("model", sorted(PINNED_CELLS))
    def test_builtin_cell_output_is_pinned(self, model, tmp_path):
        # smokers re-sweeps the most nodes per query.
        cfg = small_config(model=model, truth_draws=10, repetitions=3,
                           backends=("cpb", "mm", "sl", "mc:200"),
                           golden_samples=200)
        out = metric_csvs(cfg, tmp_path)
        assert tuple(hashlib.sha256(out[name]).hexdigest()
                     for name in METRIC_CSVS) == PINNED_CELLS[model]

    def test_failed_trials_keep_their_golden_strengths(self, tmp_path,
                                                        monkeypatch):
        fail_some_label_sets(monkeypatch)
        out = metric_csvs(failing_config(), tmp_path)
        assert out["rmse.csv"] == (
            b"backend,n_ins,trials,failures,actual_rmse,predicted_rmse\r\n"
            b"cpb,10,57,33,0.1620682246,0.1746316311\r\n")
        assert out["correlation.csv"] == (
            b"backend,pearson_r\r\ncpb,0.9785907347\r\n")

    def test_error_fails_only_its_query(self, monkeypatch):
        # One call answers a label set's three queries; an error that is
        # not the evidence's fails only the query it belongs to.
        eval_cov_queries = harness.eval_cov_queries
        bad = BUILTIN_MODELS["net2"]().query_vars[1]

        def failing(c, queries, labels, leaf_cov=None):
            if bad in queries:
                raise ZeroDivisionError("float division by zero")
            return eval_cov_queries(c, queries, labels, leaf_cov)

        monkeypatch.setattr(harness, "eval_cov_queries", failing)
        m = run_experiment(failing_config()).backends["cpb"]
        assert (m.trials, m.failures) == (60, 30)

    def test_evidence_error_fails_every_query(self, monkeypatch):
        fail_some_label_sets(monkeypatch, InconsistentEvidenceError)
        m = run_experiment(failing_config()).backends["cpb"]
        assert (m.trials, m.failures) == (57, 33)

    def test_task_error_reraises_and_leaves_no_child(self, monkeypatch):
        # A forked worker inherits the patch; its error reaches the caller
        # with its type, as a golden-run error did before the workers.
        def fail(*args, **kwargs):
            raise InconsistentEvidenceError("golden evidence")

        monkeypatch.setattr(harness, "mc_eval_queries", fail)
        with pytest.raises(InconsistentEvidenceError, match="golden evidence"):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not harness._FORK, reason="needs the fork start method")
    def test_failing_task_cancels_the_queued_ones(self, tmp_path,
                                                  monkeypatch):
        # Every task fails after a short wait; the first failure cancels
        # the draws still queued instead of running all thirty.
        ran = tmp_path / "ran"

        def failing(job, t):
            with open(ran, "a") as f:
                f.write(f"{t}\n")
            time.sleep(0.05)
            raise ZeroDivisionError(f"task {t}")

        monkeypatch.setattr(harness, "_task", failing)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(ZeroDivisionError, match="task"):
            run_experiment(small_config(truth_draws=30, repetitions=1))
        assert multiprocessing.active_children() == []
        assert len(ran.read_text().split()) < 30


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

    @staticmethod
    def _hits(alpha, beta_, truth):
        """Per gamma and record, whether the ppf interval covers the truth
        and whether ``_coverage`` (the CDF form) counts it."""
        from scipy.stats import beta

        g = np.array(DEFAULT_GAMMAS)[:, None]
        lo = beta.ppf((1.0 - g) / 2.0, alpha, beta_)
        hi = beta.ppf((1.0 + g) / 2.0, alpha, beta_)
        ppf = (lo <= truth) & (truth <= hi)
        per_record = [harness._coverage(
            [harness.TrialRecord(t, a / (a + b), 0.0, a, b, a + b, 0.0)],
            DEFAULT_GAMMAS) for a, b, t in zip(alpha, beta_, truth)]
        cdf = np.array([[c[gamma] == 1.0 for c in per_record]
                        for gamma in DEFAULT_GAMMAS])
        return ppf, cdf

    def test_cdf_form_matches_ppf_interval_for_alphas_from_one(self):
        from betacircuits.betacalc import MAX_STRENGTH
        from scipy.stats import beta

        rng = np.random.default_rng(14)
        n = 200
        alpha = 10.0 ** rng.uniform(0.0, 12.0, n)
        beta_ = 10.0 ** rng.uniform(0.0, 12.0, n)
        # Labels saturated at MAX_STRENGTH, as moment matching leaves them.
        m = rng.uniform(0.01, 0.99, n // 4)
        alpha = np.concatenate([alpha, m * MAX_STRENGTH, [1.0, 1.0]])
        beta_ = np.concatenate([beta_, (1.0 - m) * MAX_STRENGTH, [1.0, 1.0]])
        # Truths near each label's mass, where coverage is decided, and
        # spread over [0, 1]; the uniform label meets both end points.
        near = beta.rvs(alpha[:-2], beta_[:-2], random_state=rng)
        truth = np.concatenate([near, [0.0, 1.0]])
        spread = rng.uniform(0.0, 1.0, n)
        ppf, cdf = self._hits(alpha, beta_, truth)
        assert 0.3 < ppf.mean() < 0.7
        np.testing.assert_array_equal(cdf, ppf)
        ppf, cdf = self._hits(alpha[:n], beta_[:n], spread)
        np.testing.assert_array_equal(cdf, ppf)

    def test_cdf_form_below_one_differs_only_at_the_ends(self):
        rng = np.random.default_rng(15)
        n = 400
        alpha = 10.0 ** rng.uniform(-3.0, 1.0, n)
        beta_ = 10.0 ** rng.uniform(-3.0, 1.0, n)
        below = np.minimum(alpha, beta_) < 1.0
        alpha, beta_ = alpha[below], beta_[below]
        truth = rng.uniform(0.0, 1.0, len(alpha))
        assert len(alpha) > n // 2
        ppf, cdf = self._hits(alpha, beta_, truth)
        np.testing.assert_array_equal(cdf, ppf)
        # The forms part only where a truth lies at 0 or 1, or within
        # rounding of them, and a ppf end point rounds onto it.  Here the
        # upper end point of the 0.7 interval rounds to 1.0, so the ppf
        # interval covers t = 1.0, whose CDF 1.0 lies outside the band.
        # The CDF form is the definition.
        ppf, cdf = self._hits(np.array([0.905]), np.array([0.0504]),
                              np.array([1.0]))
        k = DEFAULT_GAMMAS.index(0.7)
        assert ppf[k, 0] and not cdf[k, 0]

    def test_beta_cdf_matches_scipy(self):
        from betacircuits.betacalc import MAX_STRENGTH
        from scipy.special import betainc, betaln
        from scipy.stats import beta

        rng = np.random.default_rng(20)
        n = 1000
        # Parameters log-uniform over the harness's range, labels saturated
        # at MAX_STRENGTH, and skewed pairs (one side <= 10, or up to 1e4
        # or 1e6, the other >= 1e9), in both orders.
        m = rng.uniform(0.01, 0.99, n // 4)
        small = 10.0 ** np.concatenate([rng.uniform(-3.0, 1.0, n // 2),
                                        rng.uniform(1.0, 4.0, n // 2),
                                        rng.uniform(4.0, 6.0, n // 2)])
        large = 10.0 ** rng.uniform(9.0, 12.0, len(small))
        flip = rng.random(len(small)) < 0.5
        alpha = np.concatenate([10.0 ** rng.uniform(-3.0, 12.0, n),
                                m * MAX_STRENGTH,
                                np.where(flip, small, large)])
        beta_ = np.concatenate([10.0 ** rng.uniform(-3.0, 12.0, n),
                                (1.0 - m) * MAX_STRENGTH,
                                np.where(flip, large, small)])
        k = len(alpha)
        alpha, beta_ = np.tile(alpha, 3), np.tile(beta_, 3)
        # Truths near each label's mass, spread over [0, 1], and exactly
        # 0 and 1.
        truth = np.concatenate([beta.rvs(alpha[:k], beta_[:k],
                                         random_state=rng),
                                rng.uniform(0.0, 1.0, k),
                                rng.integers(0, 2, k).astype(float)])
        cdf = betadist.beta_cdf(alpha, beta_, truth)
        expected = betainc(alpha, beta_, truth)
        # scipy's betainc loses digits at subnormal x: 5e-10 at x = 1.3e-318,
        # alpha = 0.0015, beta = 0.0072 against 50-digit mpmath.  There
        # I_x(a, b) is the series' first term x^a / (a B(a, b)) to O(x).
        tiny = (truth > 0.0) & (truth < 1e-300)
        assert np.count_nonzero(tiny)
        expected[tiny] = np.exp(alpha[tiny] * np.log(truth[tiny])
                                - np.log(alpha[tiny])
                                - betaln(alpha[tiny], beta_[tiny]))
        np.testing.assert_allclose(cdf, expected, rtol=0.0, atol=1e-10)
        assert np.all(cdf[truth == 0.0] == 0.0)
        assert np.all(cdf[truth == 1.0] == 1.0)
        # Each record's value does not depend on the rest of its batch:
        # slices of 1, 2, 3, ... records in turn agree with the whole.
        cuts = np.cumsum(np.arange(1, 3 * k))
        cuts = np.concatenate([[0], cuts[cuts < 3 * k], [3 * k]])
        sliced = np.concatenate([
            betadist.beta_cdf(alpha[i:j], beta_[i:j], truth[i:j])
            for i, j in zip(cuts[:-1], cuts[1:])])
        np.testing.assert_allclose(sliced, cdf, rtol=0.0, atol=1e-13)
        # Both parameters large, near the mean: quadrature, not thousands
        # of continued-fraction terms.
        alpha = 10.0 ** rng.uniform(11.0, 12.0, 2000)
        beta_ = 10.0 ** rng.uniform(11.0, 12.0, 2000)
        s = alpha + beta_
        truth = (alpha / s + rng.normal(size=2000)
                 * np.sqrt(alpha * beta_ / (s * s * (s + 1.0))))
        t0 = time.perf_counter()
        cdf = betadist.beta_cdf(alpha, beta_, truth)
        assert time.perf_counter() - t0 < 0.5
        np.testing.assert_allclose(cdf, betainc(alpha, beta_, truth),
                                   rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 100])
    def test_beta_cdf_raises_unconverged(self, monkeypatch, n):
        # A cap on the terms, not an unconverged value.
        monkeypatch.setattr(betadist, "_CDF_MAX_TERMS", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            betadist.beta_cdf(np.full(n, 50.0), np.full(n, 80.0),
                              np.full(n, 0.4))
