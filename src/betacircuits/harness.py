"""Experiment pipeline: ground truths, learning, backends, calibration.

One experiment fixes a model and an observation count ``n_ins`` and then
repeats: draw ground-truth leaf probabilities (and a random assignment of
the model's observable evidence), compute the exact conditional of every
query under those truths, sample ``n_ins`` complete observations, fit beta
labels, and run every configured backend on every query.  The collected
(mean, variance, strength) triples are scored against the true
conditionals:

* actual RMSE of the reported means vs the truths;
* predicted RMSE = sqrt of the mean reported variance (a calibrated
  backend predicts its own error);
* coverage curves: for each significance level gamma, the fraction of
  trials whose central beta interval of mass gamma contains the truth,
  i.e. whose beta CDF at the truth lies within gamma/2 of 1/2;
* Pearson correlation of the reported Dirichlet strengths against a
  golden-standard Monte Carlo run on the same fitted labels;
* per-query wall-clock distributions.

A run has three stages.

1. *Label stream*, in the calling process.  ``default_rng(seed)`` draws
   every label set up front: the truths, the evidence, the evidence
   circuits, the true conditionals and the fitted labels.
2. *Shards*.  ``SeedSequence(seed).spawn(2)`` gives a golden and an
   ``mc`` seed, and each spawns one child per label set.  Set i's golden
   draw (one ``mc_eval_queries`` call scores every query of the set on one
   shared draw of the leaves) uses the golden seed's child i.  Its
   ``mc:<k>`` backends share a generator from the ``mc`` seed's child i,
   taking turns in the order of ``backends``.  cpb, mm and sl draw
   nothing, so their records do not depend on any Monte Carlo setting.
   Each backend
   answers all of a set's queries in one call on the evidence circuit;
   inconsistent evidence fails every query of the set, and any other error
   only the query it belongs to.  A shard runs the golden run and every
   backend over a contiguous range of label sets.  Where the platform can
   fork and more than one CPU is usable, there is one shard per usable CPU,
   each in a forked worker, and none runs in the calling process; else one
   shard runs in-process.  The pool lives only for the call.  A shard's
   exception reaches the caller with its type.
3. *Merge*, in the calling process.  The shards' records are joined in
   label-set order, and ``_aggregate`` scores them.

Everything except the wall-clock numbers is deterministic for a fixed
seed.  As every label set's draws come from its own streams, the metric
CSVs (rmse / calibration / correlation) are byte-identical across runs and
whatever the number of shards, forked or in-process.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import betainc

from . import betacalc
from .betacalc import BetaLabel, Moments
from .circuit import Circuit, LabelTable, parse_nnf, set_condition
from .cpb import eval_cov_queries
from .examples import BUILTIN_MODELS, ExampleModel, point_labels
from .learn import fit_complete, sample_observations
from .mc import mc_eval_queries, mc_strength
from .semirings import (InconsistentEvidenceError, conditioned_eval,
                        conditioned_eval_queries, mm_semiring, prob_semiring,
                        sl_semiring)

DEFAULT_GAMMAS = tuple(round(0.05 * k, 2) for k in range(1, 20))

# Names that nothing here calls, served only because
# bench/workloads.py::Calibrate.round_targets wraps them by these names in
# the traced ``calibrate``.  They resolve on lookup, so that importing the
# harness does not load scipy.stats.  Delete this shim with ROADMAP item 1,
# which drops those targets.
_BENCH_NAMES = {"beta_dist": ("scipy.stats", "beta"),
                "eval_cov": (".cpb", "eval_cov"),
                "shadow_circuit": (".cpb", "shadow_circuit"),
                "mc_eval": (".mc", "mc_eval")}


def __getattr__(name: str):
    if name not in _BENCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _BENCH_NAMES[name]
    return getattr(importlib.import_module(module, __package__), attr)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: model, observation count, and protocol knobs.

    ``model`` names a builtin ({burglary, smokers, net1, net2, net3});
    alternatively ``circuit_file`` + ``query_vars`` run a fixed circuit
    whose labelled variables are all treated as learnable.  ``backends``
    are drawn from {cpb, mm, sl, mc:<k>}.  ``fast`` shrinks the trial
    counts (30 truth draws x 5 repetitions instead of 100 x 10) for CI.
    """

    model: Optional[str] = None
    circuit_file: Optional[str] = None
    query_vars: tuple[int, ...] = ()
    model_options: dict = field(default_factory=dict)
    n_ins: int = 50
    truth_draws: int = 100
    repetitions: int = 10
    backends: tuple[str, ...] = ("cpb", "mm", "sl")
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    seed: int = 0
    fast: bool = False
    golden_samples: int = 10000

    def __post_init__(self) -> None:
        if (self.model is None) == (self.circuit_file is None):
            raise ValueError("exactly one of model / circuit_file is required")
        if self.model is not None and self.model not in BUILTIN_MODELS:
            raise ValueError(f"unknown builtin model {self.model!r}; "
                             f"choose from {sorted(BUILTIN_MODELS)}")
        if self.circuit_file is not None and not self.query_vars:
            raise ValueError("query_vars is required with circuit_file")
        if self.model is not None:
            _check_model_options(self.model, self.model_options)
        for name in ("n_ins", "truth_draws", "repetitions", "seed",
                     "golden_samples"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer")
        g, r = self.trial_shape
        if g * r < 30:
            raise ValueError("need at least 30 trials (truth_draws x "
                             "repetitions) for calibration statistics")
        for b in self.backends:
            _check_backend(b)
        if self.n_ins < 1:
            raise ValueError("n_ins must be >= 1")

    @property
    def trial_shape(self) -> tuple[int, int]:
        """(truth draws, repetitions per truth), honoring fast mode."""
        if self.fast:
            return min(self.truth_draws, 30), min(self.repetitions, 5)
        return self.truth_draws, self.repetitions

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """A config from a JSON object; malformed input raises ValueError."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("experiment config must be a JSON object")
        unknown = raw.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment config keys {sorted(unknown)}")
        try:
            for key in ("query_vars", "backends", "gammas"):
                if key in raw:
                    raw[key] = tuple(raw[key])
            return cls(**raw)
        except TypeError as exc:
            raise ValueError(f"malformed experiment config: {exc}") from exc


def _check_model_options(model: str, options: dict) -> None:
    if not isinstance(options, dict):
        raise ValueError("model_options must be an object")
    accepted = inspect.signature(BUILTIN_MODELS[model]).parameters
    for key in options:
        if key not in accepted:
            raise ValueError(f"model {model!r} has no option {key!r}; "
                             f"choose from {sorted(accepted)}")


def _check_backend(name: str) -> None:
    if name in ("cpb", "mm", "sl"):
        return
    if name.startswith("mc:"):
        try:
            k = int(name[3:])
        except ValueError:
            k = 0
        if k >= 1:
            return
    raise ValueError(f"unknown backend {name!r}; "
                     "expected cpb, mm, sl, or mc:<samples>")


@dataclass
class TrialRecord:
    """One backend's answer to one query in one trial."""

    truth: float
    mean: float
    variance: float
    alpha_pos: float
    alpha_neg: float
    strength: float
    seconds: float
    golden_strength: Optional[float] = None


@dataclass
class BackendMetrics:
    name: str
    trials: int
    failures: int
    actual_rmse: float
    predicted_rmse: float
    coverage: dict[float, float]
    pearson_r: Optional[float]
    timing_quantiles: dict[str, float]


@dataclass
class MetricsReport:
    config: ExperimentConfig
    backends: dict[str, BackendMetrics]

    def write_csvs(self, outdir: str | Path) -> None:
        """Emit rmse / calibration / correlation / timing CSVs.

        The first three are byte-deterministic under a fixed seed; timing
        is wall-clock and varies by hardware.
        """
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        names = sorted(self.backends)

        with open(outdir / "rmse.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["backend", "n_ins", "trials", "failures",
                        "actual_rmse", "predicted_rmse"])
            for n in names:
                m = self.backends[n]
                w.writerow([n, self.config.n_ins, m.trials, m.failures,
                            _fmt(m.actual_rmse), _fmt(m.predicted_rmse)])

        with open(outdir / "calibration.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["backend", "gamma", "coverage"])
            for n in names:
                for g in self.config.gammas:
                    w.writerow([n, _fmt(g), _fmt(self.backends[n].coverage[g])])

        with open(outdir / "correlation.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["backend", "pearson_r"])
            for n in names:
                r = self.backends[n].pearson_r
                w.writerow([n, "undefined" if r is None else _fmt(r)])

        with open(outdir / "timing.csv", "w", newline="") as f:
            w = csv.writer(f)
            quants = ["min", "p25", "p50", "p75", "p95", "max"]
            w.writerow(["backend"] + quants)
            for n in names:
                tq = self.backends[n].timing_quantiles
                w.writerow([n] + [_fmt(tq[q]) for q in quants])


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------
# Backend runners
# ---------------------------------------------------------------------

def _label_record(truth: float, lab: BetaLabel, mean: float, variance: float,
                  seconds: float, golden_strength: Optional[float]
                  ) -> TrialRecord:
    if lab.certain is not None:
        ap = an = float("inf")
        strength = float("inf")
    else:
        ap, an, strength = lab.alpha_pos, lab.alpha_neg, lab.strength
    return TrialRecord(truth, mean, variance, ap, an, strength, seconds,
                       golden_strength)


def _run_backend(name: str, c: Circuit, queries: tuple[int, ...],
                 labels: LabelTable, rng: np.random.Generator
                 ) -> dict[int, tuple[BetaLabel, float, float]]:
    """Each query's (label, mean, variance), from one call on the evidence
    circuit ``c``."""
    if name == "cpb":
        return {q: (r.matched, r.mean, r.variance) for q, r in
                eval_cov_queries(c, queries, labels).items()}
    if name.startswith("mc:"):
        return {q: (betacalc.moment_match(Moments(r.mean, r.variance)),
                    r.mean, r.variance) for q, r in
                mc_eval_queries(c, queries, labels, int(name[3:]),
                                seed=rng).items()}
    spec = mm_semiring() if name == "mm" else sl_semiring()
    out = {}
    for q, v in conditioned_eval_queries(c, spec, labels, queries).items():
        lab = spec.to_label(v)
        out[q] = (lab, lab.mean if name == "mm" else v.projected,
                  lab.variance)
    return out


# ---------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------

def _resolve_model(cfg: ExperimentConfig) -> ExampleModel:
    if cfg.model is not None:
        return BUILTIN_MODELS[cfg.model](**cfg.model_options)
    path = Path(cfg.circuit_file)
    return ExampleModel.from_circuit(path.stem, parse_nnf(path.read_text()),
                                     cfg.query_vars)


def _draw_truth(model: ExampleModel, rng: np.random.Generator
                ) -> dict[int, float]:
    """Ground-truth probabilities, one shared draw per tied group."""
    truth = {v: float(rng.uniform(0.01, 0.99)) for v in model.prob_vars}
    for group in model.tied_groups:
        p = float(rng.uniform(0.01, 0.99))
        for v in group:
            truth[v] = p
    return truth


@dataclass
class _LabelSet:
    """One repetition's inputs: evidence circuit, true conditionals, labels,
    and the seeds of its golden draw and its ``mc:<k>`` stream."""

    evidence_circuit: Circuit
    true_cond: dict[int, float]
    labels: LabelTable
    golden_seed: np.random.SeedSequence
    mc_seed: np.random.SeedSequence


@dataclass
class _Job:
    """What every shard reads; forked workers inherit it without pickling."""

    queries: tuple[int, ...]
    backends: tuple[str, ...]
    golden_samples: int
    sets: list[_LabelSet]


def _label_sets(cfg: ExperimentConfig, model: ExampleModel) -> list[_LabelSet]:
    """Every label set of the run, drawn from the label stream in order."""
    rng = np.random.default_rng(cfg.seed)
    n_truths, n_reps = cfg.trial_shape
    golden_seeds, mc_seeds = (
        child.spawn(n_truths * n_reps)
        for child in np.random.SeedSequence(cfg.seed).spawn(2))
    sets = []
    for _ in range(n_truths):
        truth = _draw_truth(model, rng)
        ev = {v: bool(rng.integers(2)) for v in model.random_evidence_vars}
        circuit = model.circuit(ev)
        point = point_labels(truth)
        evidence_circuit = set_condition(circuit, query=None,
                                         evidence=model.prob_evidence)
        true_cond = {q: conditioned_eval(
            set_condition(circuit, query=q, evidence=model.prob_evidence),
            prob_semiring(), point) for q in model.query_vars}
        for _ in range(n_reps):
            data, variables = sample_observations(truth, cfg.n_ins, rng)
            labels, _ = fit_complete(data, variables,
                                     tied_groups=model.tied_groups)
            i = len(sets)
            sets.append(_LabelSet(evidence_circuit, true_cond, labels,
                                  golden_seeds[i], mc_seeds[i]))
    return sets


def _shard(job: _Job, lo: int, hi: int
           ) -> tuple[dict[str, list[TrialRecord]], dict[str, int]]:
    """Every backend's records and failure counts on label sets lo..hi-1.

    Per label set: the golden run, then one call per backend in the order
    of ``backends``, the ``mc:<k>`` ones taking turns on the set's stream.
    """
    records: dict[str, list[TrialRecord]] = {b: [] for b in job.backends}
    failures = dict.fromkeys(job.backends, 0)
    for s in job.sets[lo:hi]:
        golden = {}
        if job.golden_samples > 0:
            runs = mc_eval_queries(s.evidence_circuit, job.queries, s.labels,
                                   job.golden_samples,
                                   seed=np.random.default_rng(s.golden_seed))
            golden = {q: mc_strength(r.samples) for q, r in runs.items()}
        mc_rng = np.random.default_rng(s.mc_seed)
        for b in job.backends:
            failures[b] += _answer(b, s, job.queries, mc_rng, golden,
                                   records[b])
    return records, failures


def _answer(name: str, s: _LabelSet, queries: tuple[int, ...],
            rng: np.random.Generator, golden: dict[int, float],
            out: list[TrialRecord]) -> int:
    """Append one call's records to ``out``; return its failed queries.

    Each record's seconds are an even share of the call.  Inconsistent
    evidence fails every query.  Any other error re-runs the queries one
    per call, so that it fails only the queries it belongs to.
    """
    t0 = time.perf_counter()
    try:
        answers = _run_backend(name, s.evidence_circuit, queries, s.labels,
                               rng)
    except InconsistentEvidenceError:
        return len(queries)
    except (ValueError, ArithmeticError):
        if len(queries) == 1:
            return 1
        return sum(_answer(name, s, (q,), rng, golden, out)
                   for q in queries)
    dt = (time.perf_counter() - t0) / len(queries)
    for q in queries:
        lab, mean, variance = answers[q]
        out.append(_label_record(s.true_cond[q], lab, mean, variance, dt,
                                 golden.get(q)))
    return 0


#: Shards run in forked workers where the platform can fork, else in-process.
_FORK = "fork" in multiprocessing.get_all_start_methods()
_worker_job: Optional[_Job] = None   # set in forked workers only, by _adopt


def _adopt(job: _Job) -> None:
    global _worker_job
    _worker_job = job


def _worker_shard(lo: int, hi: int):
    return _shard(_worker_job, lo, hi)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shards(job: _Job) -> list:
    """Each shard's result, in label-set order.

    One contiguous shard per usable CPU, each in its own forked worker, so
    that no shard runs in (and grows) the calling process.  With one CPU,
    or where the platform cannot fork, one shard runs in-process.  A
    shard's exception re-raises here with its type; the pool is joined
    before this returns.
    """
    n_sets = len(job.sets)
    n = min(n_sets, _usable_cpus())
    if not _FORK or n <= 1:
        return [_shard(job, 0, n_sets)]
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(job,)) as pool:
        futures = [pool.submit(_worker_shard, n_sets * k // n,
                               n_sets * (k + 1) // n) for k in range(n)]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run the full protocol and aggregate per-backend metrics."""
    model = _resolve_model(cfg)
    job = _Job(model.query_vars, cfg.backends, cfg.golden_samples,
               _label_sets(cfg, model))
    records: dict[str, list[TrialRecord]] = {b: [] for b in cfg.backends}
    failures = dict.fromkeys(cfg.backends, 0)
    for shard_records, shard_failures in _run_shards(job):
        for b, recs in shard_records.items():
            records[b] += recs
            failures[b] += shard_failures[b]
    metrics = {b: _aggregate(b, records[b], failures[b], cfg.gammas)
               for b in cfg.backends}
    return MetricsReport(cfg, metrics)


def _aggregate(name: str, recs: list[TrialRecord], fails: int,
               gammas: tuple[float, ...]) -> BackendMetrics:
    if not recs:
        return BackendMetrics(name, 0, fails, float("nan"), float("nan"),
                              {g: float("nan") for g in gammas}, None,
                              {q: float("nan") for q in
                               ("min", "p25", "p50", "p75", "p95", "max")})
    truths = np.array([r.truth for r in recs])
    means = np.array([r.mean for r in recs])
    variances = np.array([r.variance for r in recs])
    actual = float(np.sqrt(np.mean((means - truths) ** 2)))
    predicted = float(np.sqrt(np.mean(variances)))
    coverage = _coverage(recs, gammas)
    pearson = _pearson(recs)
    secs = np.array([r.seconds for r in recs])
    quants = {"min": float(secs.min()),
              "p25": float(np.quantile(secs, 0.25)),
              "p50": float(np.quantile(secs, 0.50)),
              "p75": float(np.quantile(secs, 0.75)),
              "p95": float(np.quantile(secs, 0.95)),
              "max": float(secs.max())}
    return BackendMetrics(name, len(recs), fails, actual, predicted,
                          coverage, pearson, quants)


def _coverage(recs: list[TrialRecord], gammas: tuple[float, ...]
              ) -> dict[float, float]:
    """Per gamma, the fraction of trials whose central beta interval
    covers the truth.

    The interval of mass gamma covers t when the label's CDF at t lies in
    [(1 - gamma)/2, (1 + gamma)/2], so one ``betainc`` per record serves
    every gamma.  Certain labels (infinite alphas) cover only a truth equal
    to their mean.
    """
    truth = np.array([r.truth for r in recs])
    mean = np.array([r.mean for r in recs])
    a = np.array([r.alpha_pos for r in recs])
    b = np.array([r.alpha_neg for r in recs])
    finite = np.isfinite(a) & np.isfinite(b)
    hits = np.full(len(gammas), np.count_nonzero(
        np.abs(truth - mean)[~finite] < 1e-9))
    if finite.any():
        cdf = betainc(a[finite], b[finite], truth[finite])
        g = np.array(gammas)[:, None]
        hits += np.count_nonzero(((1.0 - g) / 2.0 <= cdf)
                                 & (cdf <= (1.0 + g) / 2.0), axis=1)
    return {g: int(h) / len(recs) for g, h in zip(gammas, hits)}


def _pearson(recs: list[TrialRecord]) -> Optional[float]:
    pairs = [(r.strength, r.golden_strength) for r in recs
             if r.golden_strength is not None
             and np.isfinite(r.strength) and np.isfinite(r.golden_strength)]
    if len(pairs) < 2:
        return None
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    if x.std() == 0.0 or y.std() == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])
