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
  i.e. whose beta CDF at the truth lies within gamma/2 of 1/2 (the CDF
  is ``betadist.beta_cdf``, which uses numpy only; nothing here loads
  scipy);
* Pearson correlation of the reported Dirichlet strengths against a
  golden-standard Monte Carlo run on the same fitted labels;
* per-query wall-clock distributions.

A run has three stages.

1. *Draws*, in the calling process, which only draws.  Per truth draw,
   ``default_rng(seed)`` draws the truths, the evidence bits and one fitted
   label table per repetition (a *label set*), in this order.
   ``SeedSequence(seed).spawn(2)`` gives a golden and an ``mc`` seed, and
   each spawns one child per label set.
2. *Tasks*, one per truth draw.  A task compiles and conditions the draw's
   evidence circuit (the model caches compilations per process and
   evidence key) and takes the true conditionals from one ``prob`` call.
   Per label set, the golden draw (one ``mc_eval_queries`` call scores
   every query on one shared draw of the leaves) uses the set's golden
   child, and the ``mc:<k>`` backends take turns, in the order of
   ``backends``, on a generator from its ``mc`` child.  cpb, mm and sl draw
   nothing, so their records do not depend on any Monte Carlo setting.
   Each backend answers all of a set's queries in one call; inconsistent
   evidence fails every query of the set, and any other error only the
   query it belongs to.  Where the platform can fork and more than one CPU
   is usable, the tasks are queued to one forked worker per usable CPU (at
   most one per draw), which take the next task as they free up; else they
   run in a loop in-process.  The pool lives only for the call.  The first
   failing task's exception reaches the caller with its type, and the
   queued tasks are cancelled.
3. *Merge*, in the calling process.  The tasks' records are joined in
   truth-draw order, and ``_aggregate`` scores them.

Everything except the wall-clock numbers is deterministic for a fixed
seed.  As every label set's draws come from its own streams, the metric
CSVs (rmse / calibration / correlation) are byte-identical across runs and
whatever the number of workers, forked or in-process.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .betacalc import QueryResult
from .betadist import beta_cdf
from .circuit import (Circuit, CircuitError, LabelTable, parse_nnf,
                      set_condition, validate)
from .cpb import eval_cov_queries
from .examples import BUILTIN_MODELS, ExampleModel, point_labels
from .learn import fit_complete, sample_observations
from .mc import mc_eval_queries, mc_strength
from .semirings import (InconsistentEvidenceError, conditioned_eval_queries,
                        mm_semiring, prob_semiring, sl_semiring)

DEFAULT_GAMMAS = tuple(round(0.05 * k, 2) for k in range(1, 20))
#: The timing CSV's columns and the quantile of per-query seconds in each.
_QUANTILES = {"min": 0.0, "p25": 0.25, "p50": 0.5, "p75": 0.75, "p95": 0.95,
              "max": 1.0}

# Names that nothing here calls, served only because
# bench/workloads.py::Calibrate.round_targets wraps them by these names in
# the traced ``calibrate``.  They resolve on lookup, so that importing the
# harness loads no scipy: ``beta_dist`` needs scipy.stats, which is a
# dev/test dependency (the ``test`` extra), not a runtime one.  Delete this
# shim with ROADMAP item 1, which drops those targets.
_BENCH_NAMES = {"beta_dist": ("scipy.stats", "beta"),
                "conditioned_eval": (".semirings", "conditioned_eval"),
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
    are distinct names from {cpb, mm, sl, mc:<k>}, and ``gammas`` distinct
    levels in (0, 1).  A run is ``truth_draws`` x ``repetitions`` trials
    per query, at least 30 of them.
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
    golden_samples: int = 10000

    def __post_init__(self) -> None:
        if (self.model is None) == (self.circuit_file is None):
            raise ValueError("exactly one of model / circuit_file is required")
        if not isinstance(self.circuit_file, (str, type(None))):
            raise ValueError("circuit_file must be a string")
        if self.model is not None and self.model not in BUILTIN_MODELS:
            raise ValueError(f"unknown builtin model {self.model!r}; "
                             f"choose from {sorted(BUILTIN_MODELS)}")
        if (self.circuit_file is not None) != bool(self.query_vars):
            raise ValueError("query_vars is required with circuit_file and "
                             "not accepted with a builtin model")
        if self.model is not None:
            _check_model_options(self.model, self.model_options)
        elif self.model_options != {}:
            raise ValueError("model_options is not accepted with circuit_file")
        for name in ("n_ins", "truth_draws", "repetitions", "seed",
                     "golden_samples"):
            # Not isinstance: JSON's true and false load as bools, an int type.
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        if any(type(q) is not int for q in self.query_vars):
            raise ValueError("query_vars must be integers")
        for name, low in (("n_ins", 1), ("truth_draws", 1),
                          ("repetitions", 1), ("seed", 0),
                          ("golden_samples", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.truth_draws * self.repetitions < 30:
            raise ValueError("need at least 30 trials (truth_draws x "
                             "repetitions) for calibration statistics")
        if not self.backends:
            raise ValueError("backends must name one or more backends")
        for b in self.backends:
            _check_backend(b)
        for name in ("query_vars", "backends", "gammas"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} must not repeat a value")
        if not self.gammas or not all(0.0 < x < 1.0 for x in self.gammas):
            raise ValueError("gammas must be one or more values in (0, 1)")

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
                    if not isinstance(raw[key], list):
                        raise ValueError("malformed experiment config: "
                                         f"{key} must be a JSON array")
                    raw[key] = tuple(raw[key])
            return cls(**raw)
        except TypeError as exc:
            raise ValueError(f"malformed experiment config: {exc}") from exc


def _check_model_options(model: str, options: dict) -> None:
    if not isinstance(options, dict):
        raise ValueError("model_options must be an object")
    accepted = inspect.signature(BUILTIN_MODELS[model]).parameters
    for key, value in options.items():
        if key not in accepted:
            raise ValueError(f"model {model!r} has no option {key!r}; "
                             f"choose from {sorted(accepted)}")
        kind = type(accepted[key].default)
        if type(value) is not kind:
            raise ValueError(f"model option {key!r} must be a {kind.__name__}")


def _check_backend(name: str) -> None:
    if name in ("cpb", "mm", "sl"):
        return
    # One spelling per sample count, so that two names never mean one backend.
    k = name[3:] if isinstance(name, str) and name.startswith("mc:") else ""
    if k.isascii() and k.isdigit() and k[0] != "0":
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
        rows = sorted(self.backends.items())
        cfg = self.config
        tables = {
            "rmse.csv": (["backend", "n_ins", "trials", "failures",
                          "actual_rmse", "predicted_rmse"],
                         [[n, cfg.n_ins, m.trials, m.failures,
                           _fmt(m.actual_rmse), _fmt(m.predicted_rmse)]
                          for n, m in rows]),
            "calibration.csv": (["backend", "gamma", "coverage"],
                                [[n, _fmt(g), _fmt(m.coverage[g])]
                                 for n, m in rows for g in cfg.gammas]),
            "correlation.csv": (["backend", "pearson_r"],
                                [[n, "undefined" if m.pearson_r is None
                                  else _fmt(m.pearson_r)] for n, m in rows]),
            "timing.csv": (["backend", *_QUANTILES],
                           [[n, *(_fmt(m.timing_quantiles[q])
                                  for q in _QUANTILES)] for n, m in rows]),
        }
        for name, (header, body) in tables.items():
            with open(outdir / name, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(header)
                w.writerows(body)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------
# Backend runners
# ---------------------------------------------------------------------

def _label_record(truth: float, res: QueryResult, seconds: float,
                  golden_strength: Optional[float]) -> TrialRecord:
    lab = res.matched
    if lab.certain is not None:
        ap = an = strength = float("inf")
    else:
        ap, an, strength = lab.alpha_pos, lab.alpha_neg, lab.strength
    return TrialRecord(truth, res.mean, res.variance, ap, an, strength,
                       seconds, golden_strength)


def _run_backend(name: str, c: Circuit, queries: tuple[int, ...],
                 labels: LabelTable, rng: np.random.Generator
                 ) -> dict[int, QueryResult]:
    """Each query's answer, from one call on the evidence circuit ``c``."""
    if name == "cpb":
        return eval_cov_queries(c, queries, labels)
    if name.startswith("mc:"):
        return mc_eval_queries(c, queries, labels, int(name[3:]), seed=rng)
    spec = mm_semiring() if name == "mm" else sl_semiring()
    return {q: spec.result(v) for q, v in
            conditioned_eval_queries(c, spec, labels, queries).items()}


# ---------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------

def _resolve_model(cfg: ExperimentConfig) -> ExampleModel:
    if cfg.model is not None:
        return BUILTIN_MODELS[cfg.model](**cfg.model_options)
    path = Path(cfg.circuit_file)
    circuit = parse_nnf(path.read_text())
    violations = validate(circuit).violations
    if violations:
        raise CircuitError(f"{path}: " + "; ".join(violations))
    return ExampleModel.from_circuit(path.stem, circuit, cfg.query_vars)


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
class _TruthDraw:
    """Truths, evidence, and each label set with its golden and mc seeds."""

    truth: dict[int, float]
    evidence: dict[int, bool]
    label_sets: list[tuple[LabelTable, np.random.SeedSequence,
                           np.random.SeedSequence]]


@dataclass
class _Job:
    """What every task reads; forked workers inherit it without pickling."""

    model: ExampleModel
    backends: tuple[str, ...]
    golden_samples: int
    draws: list[_TruthDraw]


def _truth_draws(cfg: ExperimentConfig, model: ExampleModel
                 ) -> list[_TruthDraw]:
    """Every truth draw of the run, drawn from the label stream in order."""
    rng = np.random.default_rng(cfg.seed)
    n_truths, n_reps = cfg.truth_draws, cfg.repetitions
    golden_seeds, mc_seeds = (
        child.spawn(n_truths * n_reps)
        for child in np.random.SeedSequence(cfg.seed).spawn(2))
    draws = []
    for t in range(n_truths):
        truth = _draw_truth(model, rng)
        ev = {v: bool(rng.integers(2)) for v in model.random_evidence_vars}
        label_sets = []
        for i in range(t * n_reps, (t + 1) * n_reps):
            data, variables = sample_observations(truth, cfg.n_ins, rng)
            labels, _ = fit_complete(data, variables,
                                     tied_groups=model.tied_groups)
            label_sets.append((labels, golden_seeds[i], mc_seeds[i]))
        draws.append(_TruthDraw(truth, ev, label_sets))
    return draws


def _task(job: _Job, t: int
          ) -> tuple[dict[str, list[TrialRecord]], dict[str, int]]:
    """Every backend's records and failure counts on truth draw t.

    The draw's evidence circuit and true conditionals first; then per label
    set the golden run and one call per backend in the order of
    ``backends``, the ``mc:<k>`` ones taking turns on the set's stream.
    """
    model, draw = job.model, job.draws[t]
    queries = model.query_vars
    c = set_condition(model.circuit(draw.evidence), query=None,
                      evidence=model.prob_evidence)
    true_cond = conditioned_eval_queries(c, prob_semiring(),
                                         point_labels(draw.truth), queries)
    records: dict[str, list[TrialRecord]] = {b: [] for b in job.backends}
    failures = dict.fromkeys(job.backends, 0)
    for labels, golden_seed, mc_seed in draw.label_sets:
        golden = {}
        if job.golden_samples > 0:
            runs = mc_eval_queries(c, queries, labels, job.golden_samples,
                                   seed=np.random.default_rng(golden_seed))
            golden = {q: mc_strength(r) for q, r in runs.items()}
        mc_rng = np.random.default_rng(mc_seed)
        for b in job.backends:
            failures[b] += _answer(b, c, queries, labels, mc_rng, true_cond,
                                   golden, records[b])
    return records, failures


def _answer(name: str, c: Circuit, queries: tuple[int, ...],
            labels: LabelTable, rng: np.random.Generator,
            true_cond: dict[int, float], golden: dict[int, float],
            out: list[TrialRecord]) -> int:
    """Append one call's records to ``out``; return its failed queries.

    Each record's seconds are an even share of the call.  Inconsistent
    evidence fails every query.  Any other error re-runs the queries one
    per call, so that it fails only the queries it belongs to.
    """
    t0 = time.perf_counter()
    try:
        answers = _run_backend(name, c, queries, labels, rng)
    except InconsistentEvidenceError:
        return len(queries)
    except (ValueError, ArithmeticError):
        if len(queries) == 1:
            return 1
        return sum(_answer(name, c, (q,), labels, rng, true_cond, golden, out)
                   for q in queries)
    dt = (time.perf_counter() - t0) / len(queries)
    for q in queries:
        out.append(_label_record(true_cond[q], answers[q], dt, golden.get(q)))
    return 0


#: Tasks run in forked workers where the platform can fork, else in-process.
_FORK = "fork" in multiprocessing.get_all_start_methods()
_worker_job: Optional[_Job] = None   # set in forked workers only, by _adopt


def _adopt(job: _Job) -> None:
    global _worker_job
    _worker_job = job


def _worker_task(t: int):
    return _task(_worker_job, t)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(job: _Job) -> list:
    """Each truth draw's task result, in truth-draw order.

    One forked worker per usable CPU (at most one per draw) takes the next
    queued task as it frees up, so that no task runs in (and grows) the
    calling process.  With one CPU, or where the platform cannot fork, the
    tasks run in-process.  The first task to fail re-raises here with its
    type and cancels the queued ones; the pool is joined before this
    returns.
    """
    n_draws = len(job.draws)
    n = min(n_draws, _usable_cpus())
    if not _FORK or n <= 1:
        return [_task(job, t) for t in range(n_draws)]
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(job,)) as pool:
        futures = [pool.submit(_worker_task, t) for t in range(n_draws)]
        try:
            for f in as_completed(futures):
                f.result()  # the first task to fail raises here
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run the full protocol and aggregate per-backend metrics."""
    model = _resolve_model(cfg)
    job = _Job(model, cfg.backends, cfg.golden_samples,
               _truth_draws(cfg, model))
    records: dict[str, list[TrialRecord]] = {b: [] for b in cfg.backends}
    failures = dict.fromkeys(cfg.backends, 0)
    for task_records, task_failures in _run_tasks(job):
        for b, recs in task_records.items():
            records[b] += recs
            failures[b] += task_failures[b]
    metrics = {b: _aggregate(b, records[b], failures[b], cfg.gammas)
               for b in cfg.backends}
    return MetricsReport(cfg, metrics)


def _aggregate(name: str, recs: list[TrialRecord], fails: int,
               gammas: tuple[float, ...]) -> BackendMetrics:
    if not recs:
        return BackendMetrics(name, 0, fails, float("nan"), float("nan"),
                              {g: float("nan") for g in gammas}, None,
                              dict.fromkeys(_QUANTILES, float("nan")))
    truths = np.array([r.truth for r in recs])
    means = np.array([r.mean for r in recs])
    variances = np.array([r.variance for r in recs])
    actual = float(np.sqrt(np.mean((means - truths) ** 2)))
    predicted = float(np.sqrt(np.mean(variances)))
    coverage = _coverage(recs, gammas)
    pearson = _pearson(recs)
    secs = np.array([r.seconds for r in recs])
    quants = {q: float(np.quantile(secs, p)) for q, p in _QUANTILES.items()}
    return BackendMetrics(name, len(recs), fails, actual, predicted,
                          coverage, pearson, quants)


def _coverage(recs: list[TrialRecord], gammas: tuple[float, ...]
              ) -> dict[float, float]:
    """Per gamma, the fraction of trials whose central beta interval
    covers the truth.

    The interval of mass gamma covers t when the label's CDF at t lies in
    [(1 - gamma)/2, (1 + gamma)/2], so one ``beta_cdf`` call on every
    record serves every gamma.  Certain labels (infinite alphas) cover only
    a truth equal to their mean.
    """
    truth = np.array([r.truth for r in recs])
    mean = np.array([r.mean for r in recs])
    a = np.array([r.alpha_pos for r in recs])
    b = np.array([r.alpha_neg for r in recs])
    finite = np.isfinite(a) & np.isfinite(b)
    hits = np.full(len(gammas), np.count_nonzero(
        np.abs(truth - mean)[~finite] < 1e-9))
    if finite.any():
        cdf = beta_cdf(a[finite], b[finite], truth[finite])
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

