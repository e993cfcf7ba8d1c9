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
  trials whose central beta interval of mass gamma contains the truth;
* Pearson correlation of the reported Dirichlet strengths against a
  golden-standard Monte Carlo run on the same fitted labels;
* per-query wall-clock distributions.

A run has three stages.

1. *Label stream*, in the calling process.  ``default_rng(seed)`` draws
   every label set up front: the truths, the evidence, the staged
   circuits, the true conditionals and the fitted labels.
2. *Tasks*.  The golden run (one ``mc_eval_queries`` call per label set:
   every query of the set is scored on one shared draw of the leaves) owns
   one child of ``SeedSequence(seed)``.  All ``mc:<k>`` backends form one
   task, which owns the other child and takes turns per label set in the
   order of ``backends``.  Each of cpb, mm and sl is a task of its own and
   draws nothing, so its records do not depend on any Monte Carlo
   setting.  Where the platform can fork, the tasks run in forked workers,
   one per task up to the CPUs this process may use, golden run first;
   elsewhere they run in-process, in the same order.  The pool lives only
   for the call.  A task's exception reaches the caller with its type.
3. *Merge*, in the calling process.  Each record is tagged with its
   (label-set index, query), which finds its golden strength; each
   backend's records keep the label-set order, and ``_aggregate`` scores
   them.

Everything except the wall-clock numbers is deterministic for a fixed
seed, and the metric CSVs (rmse / calibration / correlation) are emitted
byte-identically across runs, whether the tasks ran in workers or
in-process.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.stats import beta as beta_dist

from . import betacalc
from .betacalc import BetaLabel, Moments
from .circuit import Circuit, LabelTable, parse_nnf, set_condition
from .cpb import eval_cov, shadow_circuit
from .examples import BUILTIN_MODELS, ExampleModel, point_labels
from .learn import fit_complete, sample_observations
from .mc import mc_eval, mc_eval_queries, mc_strength
from .semirings import (InconsistentEvidenceError, conditioned_eval,
                        mm_semiring, prob_semiring, sl_semiring)

DEFAULT_GAMMAS = tuple(round(0.05 * k, 2) for k in range(1, 20))


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
                  seconds: float) -> TrialRecord:
    if lab.certain is not None:
        ap = an = float("inf")
        strength = float("inf")
    else:
        ap, an, strength = lab.alpha_pos, lab.alpha_neg, lab.strength
    return TrialRecord(truth, mean, variance, ap, an, strength, seconds)


def _run_backend(name: str, staged: Circuit, labels: LabelTable,
                 truth: float, rng: np.random.Generator) -> TrialRecord:
    t0 = time.perf_counter()
    if name == "cpb":
        res = eval_cov(shadow_circuit(staged), labels)
        dt = time.perf_counter() - t0
        return _label_record(truth, res.matched, res.mean, res.variance, dt)
    if name == "mm":
        spec = mm_semiring()
        v = conditioned_eval(staged, spec, labels)
        lab = spec.to_label(v)
        dt = time.perf_counter() - t0
        return _label_record(truth, lab, lab.mean, lab.variance, dt)
    if name == "sl":
        spec = sl_semiring()
        op = conditioned_eval(staged, spec, labels)
        lab = spec.to_label(op)
        dt = time.perf_counter() - t0
        return _label_record(truth, lab, op.projected, lab.variance, dt)
    k = int(name[3:])
    res = mc_eval(staged, labels, k, seed=rng)
    lab = betacalc.moment_match(Moments(res.mean, res.variance))
    dt = time.perf_counter() - t0
    return _label_record(truth, lab, res.mean, res.variance, dt)


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
    """One repetition's inputs: staged circuits, true conditionals, labels."""

    evidence_circuit: Circuit
    staged: dict[int, Circuit]
    true_cond: dict[int, float]
    labels: LabelTable


@dataclass
class _Job:
    """What every task reads; forked workers inherit it without pickling."""

    queries: tuple[int, ...]
    sets: list[_LabelSet]
    golden_samples: int
    golden_rng: np.random.Generator
    mc_rng: np.random.Generator


def _label_sets(cfg: ExperimentConfig, model: ExampleModel) -> list[_LabelSet]:
    """Every label set of the run, drawn from the label stream in order."""
    rng = np.random.default_rng(cfg.seed)
    n_truths, n_reps = cfg.trial_shape
    sets = []
    for _ in range(n_truths):
        truth = _draw_truth(model, rng)
        ev = {v: bool(rng.integers(2)) for v in model.random_evidence_vars}
        circuit = model.circuit(ev)
        point = point_labels(truth)
        evidence_circuit = set_condition(circuit, query=None,
                                         evidence=model.prob_evidence)
        staged: dict[int, Circuit] = {}
        true_cond: dict[int, float] = {}
        for q in model.query_vars:
            cq = set_condition(circuit, query=q, evidence=model.prob_evidence)
            staged[q] = cq
            true_cond[q] = conditioned_eval(cq, prob_semiring(), point)
        for _ in range(n_reps):
            data, variables = sample_observations(truth, cfg.n_ins, rng)
            labels, _ = fit_complete(data, variables,
                                     tied_groups=model.tied_groups)
            sets.append(_LabelSet(evidence_circuit, staged, true_cond, labels))
    return sets


def _golden_task(job: _Job) -> dict[tuple[int, int], float]:
    """Golden strength per (label-set index, query)."""
    golden = {}
    for i, s in enumerate(job.sets):
        runs = mc_eval_queries(s.evidence_circuit, job.queries, s.labels,
                               job.golden_samples, seed=job.golden_rng)
        for q, r in runs.items():
            golden[i, q] = mc_strength(r.samples)
    return golden


def _backend_task(job: _Job, names: tuple[str, ...]
                  ) -> tuple[dict[str, list], dict[str, int]]:
    """Records tagged (label-set index, query, record), and failure counts.

    Backends of one task take turns per label set, as ``mc:<k>`` backends
    must to share the ``mc`` stream in a fixed order.
    """
    records: dict[str, list] = {b: [] for b in names}
    failures = {b: 0 for b in names}
    for i, s in enumerate(job.sets):
        for b in names:
            for q in job.queries:
                try:
                    rec = _run_backend(b, s.staged[q], s.labels,
                                       s.true_cond[q], job.mc_rng)
                except (InconsistentEvidenceError, ValueError,
                        ArithmeticError):
                    failures[b] += 1
                    continue
                records[b].append((i, q, rec))
    return records, failures


#: Tasks run in forked workers where the platform can fork, else in-process.
_FORK = "fork" in multiprocessing.get_all_start_methods()
_worker_job: Optional[_Job] = None   # set in forked workers only, by _adopt


def _adopt(job: _Job) -> None:
    global _worker_job
    _worker_job = job


def _call(fn, *args):
    return fn(_worker_job, *args)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(job: _Job, tasks: list[tuple]) -> list:
    """Each ``fn(job, *args)`` result, in task order.

    One forked worker per task up to the usable CPUs.  A task's exception
    re-raises here with its type; the pool is joined before this returns.
    """
    if not _FORK or not tasks:
        return [fn(job, *args) for fn, *args in tasks]
    with ProcessPoolExecutor(min(len(tasks), _usable_cpus()),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(job,)) as pool:
        futures = [pool.submit(_call, *task) for task in tasks]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run the full protocol and aggregate per-backend metrics."""
    model = _resolve_model(cfg)
    golden_rng, mc_rng = (np.random.default_rng(s) for s in
                          np.random.SeedSequence(cfg.seed).spawn(2))
    job = _Job(model.query_vars, _label_sets(cfg, model),
               cfg.golden_samples, golden_rng, mc_rng)

    mc_names = tuple(b for b in cfg.backends if b.startswith("mc:"))
    tasks: list[tuple] = [(_golden_task,)] if cfg.golden_samples > 0 else []
    if mc_names:
        tasks.append((_backend_task, mc_names))
    # A backend listed twice still answers twice per label set.
    tasks += [(_backend_task, (b,) * cfg.backends.count(b))
              for b in dict.fromkeys(cfg.backends) if b not in mc_names]
    results = _run_tasks(job, tasks)

    golden = results.pop(0) if cfg.golden_samples > 0 else {}
    records: dict[str, list[TrialRecord]] = {}
    failures: dict[str, int] = {}
    for tagged, fails in results:
        failures.update(fails)
        for b, recs in tagged.items():
            for i, q, rec in recs:
                rec.golden_strength = golden.get((i, q))
            records[b] = [rec for _, _, rec in recs]

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

    Certain labels (infinite alphas) cover only a truth equal to their mean.
    """
    truth = np.array([r.truth for r in recs])
    mean = np.array([r.mean for r in recs])
    a = np.array([r.alpha_pos for r in recs])
    b = np.array([r.alpha_neg for r in recs])
    finite = np.isfinite(a) & np.isfinite(b)
    hits = np.full(len(gammas), np.count_nonzero(
        np.abs(truth - mean)[~finite] < 1e-9))
    if finite.any():
        t, a, b = truth[finite], a[finite], b[finite]
        g = np.array(gammas)[:, None]
        lo = beta_dist.ppf((1.0 - g) / 2.0, a, b)
        hi = beta_dist.ppf((1.0 + g) / 2.0, a, b)
        hits += np.count_nonzero((lo <= t) & (t <= hi), axis=1)
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
