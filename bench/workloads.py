"""The three workloads: inputs made from the seed, operations, checks.

Each workload is a closed loop with one client in one process.  A round is
one pass of the loop that the runner repeats until the run's time is used:

* ``infer``  -- one ``betacircuits infer`` process per staged query per
  round, the backend rotating from round to round;
* ``scale``  -- one pass over a ladder of block circuits per round, each
  circuit answered in-process by every backend but ``sl``;
* ``calibrate`` -- one ``run_experiment`` cell per builtin model per round.

In ``scale`` and ``calibrate`` the operation that ``p50_ms`` takes the
median of is the whole round.

Every answer is checked by ``reference``; a workload never compares with
a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import reference as ref
import tracing

from betacircuits import betacalc, cpb, examples, learn, mc, semirings
from betacircuits import circuit as bc_circuit
from betacircuits import compile as bc_compile

BACKENDS = ("cpb", "mm", "sl", "prob", "mc")
#: ``sl`` raises ValueError on some seeded CNF and block-circuit queries
#: (CHANGES.md, FOUND), so those operations leave it out.  The order puts
#: prob and mc first, so that the reduced infer cycle covers all five.
NO_SL = ("prob", "mc", "cpb", "mm")


@dataclass
class Tally:
    """Operation times and answer counts of the timed phase."""

    op_seconds: list[float] = field(default_factory=list)
    op_tags: list[str] = field(default_factory=list)
    attempted: int = 0
    answers: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def timed(self, tag: str, seconds: float) -> None:
        self.op_tags.append(tag)
        self.op_seconds.append(seconds)

    def answer(self, where: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is None:
            self.answers += 1
        else:
            self.problems.append(f"{where}: {problem}")

    def fail(self, where: str, error: str, expected: bool) -> None:
        self.attempted += 1
        self.failed += 1
        if not expected:
            self.problems.append(f"{where}: unexpected failure {error}")


@dataclass
class Answer:
    mean: float
    variance: float
    alpha_pos: float = 1.0
    alpha_neg: float = 1.0


def check_answer(backend: str, ans: Answer, first_order: ref.Reference,
                 mc_reference, samples: int) -> Optional[str]:
    """Check one backend's answer; ``mc_reference()`` draws lazily."""
    if backend == "cpb":
        return ref.check_cpb(first_order, ans.mean, ans.variance)
    if backend == "prob":
        return ref.check_prob(first_order, ans.mean)
    if backend == "mm":
        return ref.check_mm(first_order, ans.mean, ans.variance)
    if backend == "sl":
        return ref.check_sl(ans.mean, ans.variance, ans.alpha_pos,
                            ans.alpha_neg)
    return ref.check_mc(ans.mean, ans.variance, samples, mc_reference())


def _alphas(label: betacalc.BetaLabel) -> tuple[float, float]:
    if label.certain is not None:
        return (math.inf, 1.0) if label.certain else (1.0, math.inf)
    return label.alpha_pos, label.alpha_neg


def fit_labels(variables, rng: np.random.Generator) -> bc_circuit.LabelTable:
    """Labels learned from seeded complete data, as a user would fit them."""
    truth = {v: float(rng.uniform(0.05, 0.95)) for v in variables}
    data, columns = learn.sample_observations(truth, int(rng.integers(10, 101)),
                                              rng)
    labels, _ = learn.fit_complete(data, columns)
    return labels


class Workload:
    name = ""
    #: Rounds of one ``--reduced`` run (the self-test's size).
    reduced_rounds = 1

    def __init__(self, root: Path, work: Path, seed: int, reduced: bool):
        self.root, self.work, self.seed, self.reduced = root, work, seed, reduced
        self.ops = 0

    def imports(self, traced: bool) -> None:
        """Imports that only this workload needs; timed as set-up."""

    def build(self) -> None:
        """Make the inputs from the seed (timed as set-up, repeatable)."""

    def setup_targets(self) -> list:
        return []

    def round_targets(self) -> list:
        return []

    def run_round(self, r: int, tally: Tally,
                  tracer: Optional[tracing.Tracer] = None) -> None:
        raise NotImplementedError

    def traced_round(self, r: int, tally: Tally,
                     tracer: Optional[tracing.Tracer]) -> None:
        """One round of the traced run; run once untraced, once traced."""
        self.run_round(r, tally, tracer)

    def import_seconds(self) -> float:
        """Cost of importing ``betacircuits.cli``; only infer starts it."""
        return 0.0

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _next_op(self, tracer: Optional[tracing.Tracer]) -> None:
        self.ops += 1
        if tracer is not None:
            tracer.op = self.ops


# ---------------------------------------------------------------------
# infer: one CLI process per answer
# ---------------------------------------------------------------------

@dataclass
class StagedQuery:
    tag: str
    backends: tuple[str, ...]           # rotated through, one per answer
    position: int                       # index among queries of its kind
    paths: tuple[Path, Path, Path]      # circuit, labels, evidence files
    nnf: ref.Nnf
    labels: dict
    query: int
    evidence: list
    mc_rng: np.random.Generator
    _first_order: Optional[ref.Reference] = None
    _mc: Optional[ref.Sample] = None

    def first_order(self) -> ref.Reference:
        if self._first_order is None:
            self._first_order = ref.first_order(self.nnf, self.labels,
                                                self.query, self.evidence)
        return self._first_order

    def mc_reference(self) -> ref.Sample:
        if self._mc is None:
            self._mc = ref.monte_carlo(self.nnf, self.labels, self.query,
                                       self.evidence, Infer.REF_SAMPLES,
                                       self.mc_rng)
        return self._mc


def planted_cnf(n: int, ratio: float, rng: np.random.Generator):
    """Random 3-CNF over n variables that a hidden assignment satisfies."""
    model = {v: bool(rng.integers(2)) for v in range(1, n + 1)}
    clauses = []
    while len(clauses) < round(ratio * n):
        vs = rng.choice(np.arange(1, n + 1), size=3, replace=False)
        lits = [int(v) if rng.integers(2) else -int(v) for v in vs]
        if any((l > 0) == model[abs(l)] for l in lits):
            clauses.append(lits)
    theory = bc_compile.Theory(n, tuple(
        bc_compile.f_or(*(bc_compile.f_var(l) if l > 0
                          else bc_compile.f_not(bc_compile.f_var(-l))
                          for l in cl))
        for cl in clauses))
    return theory, model


class Infer(Workload):
    """Sequential ``betacircuits infer`` processes, one answer each."""

    name = "infer"
    BUILTINS = ("burglary", "smokers", "net1", "net2", "net3")
    CNF_VARS = (10, 11, 12)
    CNF_RATIO = 3.0          # clauses per variable
    EVIDENCE_VARS = 2        # CNF evidence atoms, read off the planted model
    SAMPLES = 10000          # the CLI's default Monte Carlo sample count
    REF_SAMPLES = 20000

    def __init__(self, *args):
        super().__init__(*args)
        builtins, cnfs = self.BUILTINS, self.CNF_VARS
        if self.reduced:
            builtins, cnfs = ("burglary", "net1", "smokers"), (10, 11)
        self.builtins, self.cnf_vars = builtins, cnfs
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.queries: list[StagedQuery] = []
        self.cli = None

    def imports(self, traced: bool) -> None:
        if traced:
            from betacircuits import cli
            self.cli = cli

    def setup_targets(self):
        return [(examples, "shannon_compile", "compile.shannon_compile"),
                (bc_compile, "shannon_compile", "compile.shannon_compile"),
                (learn, "sample_observations", "learn.sample_observations"),
                (learn, "fit_complete", "learn.fit_complete")]

    def build(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        staged = []
        for i, name in enumerate(self.builtins):
            model = examples.BUILTIN_MODELS[name]()
            ev = {v: bool(rng.integers(2)) for v in model.random_evidence_vars}
            c = model.circuit(ev)
            labels = fit_labels(model.prob_vars, rng)
            query = int(rng.choice(model.query_vars))
            staged.append((name, BACKENDS, i, c, labels, query,
                           list(model.prob_evidence)))
        cnfs = []
        for i, n in enumerate(self.cnf_vars):
            theory, model = planted_cnf(n, self.CNF_RATIO, rng)
            c = bc_compile.shannon_compile(theory)
            query = int(rng.choice(sorted(c.variables())))
            others = [v for v in range(1, n + 1) if v != query]
            ev_vars = rng.choice(others, size=self.EVIDENCE_VARS, replace=False)
            evidence = [(int(v), model[int(v)]) for v in sorted(ev_vars)]
            cnfs.append((f"cnf{n}", NO_SL, i, c,
                         fit_labels(range(1, n + 1), rng), query, evidence))
        # Interleave so that every stretch of the cycle mixes both kinds.
        order = [x for pair in zip(staged, cnfs) for x in pair]
        order += staged[len(cnfs):] + cnfs[len(staged):]
        self.queries = [self._write(i, *q) for i, q in enumerate(order)]

    def _write(self, i, tag, backends, position, c, labels, query,
               evidence) -> StagedQuery:
        nnf_text = bc_circuit.format_nnf(c)
        label_text = bc_circuit.format_label_table(labels)
        cond_text = f"query {query}\n" + "".join(
            f"evidence {v} {int(val)}\n" for v, val in evidence)
        paths = tuple(self.work / f"q{i}-{tag}.{ext}"
                      for ext in ("nnf", "labels", "cond"))
        for path, text in zip(paths, (nnf_text, label_text, cond_text)):
            path.write_text(text)
        return StagedQuery(tag, backends, position, paths,
                           ref.Nnf.parse(nnf_text),
                           ref.parse_labels(label_text), query, evidence,
                           np.random.default_rng([self.seed, 2, i]))

    def _cycle(self, r: int):
        """Round r: every staged query once, backends rotated r steps."""
        for i, q in enumerate(self.queries):
            backend = q.backends[(q.position + r) % len(q.backends)]
            argv = ["infer", "--circuit", str(q.paths[0]), "--labels",
                    str(q.paths[1]), "--evidence", str(q.paths[2]),
                    "--backend", backend]
            if backend == "mc":
                seed = (self.seed * 1009 + r) * len(self.queries) + i
                argv += ["--samples", str(self.SAMPLES), "--seed", str(seed)]
            yield q, backend, argv

    def _check(self, tally, where, q, backend, rc, out, err) -> None:
        if rc != 0:
            last = err.strip().splitlines()[-1:] or ["(no output)"]
            tally.fail(where, f"exit {rc}: {last[0]}", expected=False)
            return
        try:
            mean, var, ap, an = (float(x) for x in out.split())
        except ValueError:
            tally.answer(where, f"unparsable output {out!r}")
            return
        tally.answer(where, check_answer(backend, Answer(mean, var, ap, an),
                                         q.first_order(), q.mc_reference,
                                         self.SAMPLES))

    def run_round(self, r, tally, tracer=None) -> None:
        for q, backend, argv in self._cycle(r):
            self._next_op(tracer)
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "betacircuits.cli"] + argv,
                capture_output=True, text=True, env=self.env, cwd=self.work,
                timeout=150)
            tally.timed(q.tag, time.perf_counter() - t0)
            self._check(tally, f"infer {q.tag} {backend}", q, backend,
                        proc.returncode, proc.stdout, proc.stderr)

    def traced_round(self, r, tally, tracer) -> None:
        """In-process replay of one cycle of operations through ``cli.main``."""
        main = self.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        for q, backend, argv in self._cycle(r):
            self._next_op(tracer)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = main(argv)
            except Exception as exc:  # an escaped error is a failed answer
                rc, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            tally.timed(q.tag, time.perf_counter() - t0)
            self._check(tally, f"infer replay {q.tag} {backend}", q, backend,
                        rc, out.getvalue(), err.getvalue())

    def round_targets(self) -> list:
        cli = self.cli
        return [(cli, "parse_nnf", "circuit.parse_nnf"),
                (cli, "validate", "circuit.validate"),
                (cli, "parse_label_table", "circuit.parse_label_table"),
                (cli, "parse_condition_file", "circuit.parse_condition_file"),
                (cli, "set_condition", "circuit.set_condition"),
                (cli, "shadow_circuit", "cpb.shadow_circuit"),
                (cli, "eval_cov", "cpb.eval_cov"),
                (cli, "conditioned_eval", tracing.semiring_span),
                (cli, "mc_eval", "mc.mc_eval"),
                (betacalc, "moment_match", "betacalc.moment_match")]

    def import_seconds(self, repeats: int = 3) -> float:
        """Fresh interpreter importing ``betacircuits.cli``, minus a bare one."""
        def timed(code: str) -> float:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env,
                           cwd=self.work, check=True, timeout=120)
            return time.perf_counter() - t0
        bare, full = [], []
        for _ in range(repeats):
            bare.append(timed("pass"))
            full.append(timed("import betacircuits.cli"))
        return float(np.median(full) - np.median(bare))

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------
# scale: block circuits of growing size, five backends each
# ---------------------------------------------------------------------

def block_nnf(k: int) -> str:
    """AND of k blocks (x and y) or (not x and z): 7k + 1 nodes."""
    lines = [f"nnf {7 * k + 1} {8 * k} {3 * k}"]
    for j in range(k):
        b, x = 7 * j, 3 * j + 1
        lines += [f"L {x}", f"L {x + 1}", f"L {-x}", f"L {x + 2}",
                  f"A 2 {b} {b + 1}", f"A 2 {b + 2} {b + 3}",
                  f"O {x} 2 {b + 4} {b + 5}"]
    lines.append(f"A {k} " + " ".join(str(7 * j + 6) for j in range(k)))
    return "\n".join(lines) + "\n"


class Scale(Workload):
    """In-process block circuits; the O(n^2) covariance sweep dominates."""

    name = "scale"
    LADDER = (25, 50, 100, 200)
    REDUCED_LADDER = (10, 20)
    #: Past ~270 blocks E[D] < 1e-81 and cpb's E[D]^4 underflows to 0.0.
    UNDERFLOW_BLOCKS = 300
    #: Seed of the underflow operation's inputs: they do not depend on
    #: --seed, so it fails on every run and every seed alike.
    UNDERFLOW_SEED = 7
    SAMPLES = 2000
    REF_SAMPLES = 20000

    def __init__(self, *args):
        super().__init__(*args)
        self.ladder = self.REDUCED_LADDER if self.reduced else self.LADDER
        self.texts: dict[int, str] = {}

    def build(self) -> None:
        self.texts = {k: block_nnf(k)
                      for k in self.ladder + (self.UNDERFLOW_BLOCKS,)}

    def round_targets(self) -> list:
        return [(bc_circuit, "parse_nnf", "circuit.parse_nnf"),
                (bc_circuit, "set_condition", "circuit.set_condition"),
                (cpb, "shadow_circuit", "cpb.shadow_circuit"),
                (cpb, "eval_cov", "cpb.eval_cov"),
                (semirings, "conditioned_eval", tracing.semiring_span),
                (mc, "mc_eval", "mc.mc_eval"),
                (betacalc, "moment_match", "betacalc.moment_match")]

    def run_round(self, r, tally, tracer=None) -> None:
        """One operation: a pass over the ladder, then the underflow size.

        The host switches between a fast and a slow speed every few seconds
        (one 100-block circuit took 0.21 s or 0.42 s within one run), so the
        median over single circuits flipped between the two from run to
        run; a pass of about 4 s averages the switching out.
        """
        self._next_op(tracer)
        rng = np.random.default_rng([self.seed, 3, r])
        seconds = sum(self._circuit(k, rng, False, tally)
                      for k in self.ladder)
        rng = np.random.default_rng([self.UNDERFLOW_SEED, r])
        seconds += self._circuit(self.UNDERFLOW_BLOCKS, rng, True, tally)
        tally.timed("ladder", seconds)

    def _circuit(self, k, rng, underflow, tally) -> float:
        """Answer one query on a fresh k-block circuit; the answer time."""
        # y and z means of at least 0.5 keep E[D] >= 0.15 * 0.5^(k-1) clear
        # of underflow on the ladder; at most 0.5 push it below 1e-81 past
        # 270 blocks.
        yz = (0.2, 0.5) if underflow else (0.5, 0.8)
        params = {}
        for j in range(k):
            for v, (lo, hi) in ((3 * j + 1, (0.3, 0.7)), (3 * j + 2, yz),
                                (3 * j + 3, yz)):
                m, s = rng.uniform(lo, hi), rng.uniform(4.0, 40.0)
                params[v] = (m * s, (1.0 - m) * s)
        q, e = (int(b) for b in rng.choice(k, size=2, replace=False))
        evidence = [(3 * e + 3, bool(rng.integers(2)))]
        mc_seed = int(rng.integers(2 ** 31))
        labels = bc_circuit.LabelTable(
            {v: betacalc.BetaLabel(a, b) for v, (a, b) in params.items()})

        t0 = time.perf_counter()
        c = bc_circuit.parse_nnf(self.texts[k])
        staged = bc_circuit.set_condition(c, query=3 * q + 1, evidence=evidence)
        answers = {}
        for backend in NO_SL:
            try:
                answers[backend] = self._answer(backend, staged, labels, mc_seed)
            except Exception as exc:  # counted and reported below
                answers[backend] = exc
        seconds = time.perf_counter() - t0

        block = [params[3 * q + i] for i in (1, 2, 3)]
        first_order = ref.block_first_order(*block)
        mc_rng = np.random.default_rng([self.seed, 5, self.ops, k])

        def mc_reference():
            return ref.block_monte_carlo(*block, self.REF_SAMPLES, mc_rng)

        for backend, ans in answers.items():
            where = f"scale k={k} {backend}"
            if isinstance(ans, Exception):
                expected = (underflow and backend == "cpb"
                            and isinstance(ans, ZeroDivisionError))
                tally.fail(where, f"{type(ans).__name__}: {ans}", expected)
            else:
                tally.answer(where, check_answer(backend, ans, first_order,
                                                 mc_reference, self.SAMPLES))
        return seconds

    def _answer(self, backend, staged, labels, mc_seed) -> Answer:
        if backend == "cpb":
            res = cpb.eval_cov(cpb.shadow_circuit(staged), labels)
            return Answer(res.mean, res.variance, *_alphas(res.matched))
        if backend == "mc":
            res = mc.mc_eval(staged, labels, self.SAMPLES, seed=mc_seed)
            return Answer(res.mean, res.variance)
        spec = {"prob": semirings.prob_semiring,
                "mm": semirings.mm_semiring}[backend]()
        value = semirings.conditioned_eval(staged, spec, labels)
        label = spec.to_label(value)
        return Answer(spec.mean_of(value), label.variance, *_alphas(label))


# ---------------------------------------------------------------------
# calibrate: the paper's experiment protocol, one cell per builtin model
# ---------------------------------------------------------------------

class Calibrate(Workload):
    """``run_experiment`` cells at the 30-trial minimum."""

    name = "calibrate"
    MODELS = ("burglary", "net1", "net2", "net3", "smokers")
    REDUCED_MODELS = ("burglary",)
    TRUTH_DRAWS, REPETITIONS = 10, 3
    #: Observation counts are drawn from [40, 60]: a cell's cost falls by
    #: about a fifth from n_ins = 10 to 100, which would otherwise spread
    #: the figures from seed to seed.
    BACKENDS = ("cpb", "mm", "sl", "mc:1000")
    CSVS = ("rmse.csv", "calibration.csv", "correlation.csv")

    def __init__(self, *args):
        super().__init__(*args)
        self.harness = None
        self.cells = []
        self.csv_bytes: dict[str, tuple[bytes, ...]] = {}

    def imports(self, traced: bool) -> None:
        from betacircuits import harness
        self.harness = harness

    def build(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        models = self.REDUCED_MODELS if self.reduced else self.MODELS
        self.cells = []
        for name in models:
            cfg = self.harness.ExperimentConfig(
                model=name, n_ins=int(rng.integers(40, 61)),
                truth_draws=self.TRUTH_DRAWS, repetitions=self.REPETITIONS,
                backends=self.BACKENDS, seed=int(rng.integers(2 ** 31)))
            queries = len(examples.BUILTIN_MODELS[name]().query_vars)
            self.cells.append((cfg, self.TRUTH_DRAWS * self.REPETITIONS
                               * queries))

    def round_targets(self) -> list:
        h = self.harness
        return [(h, "set_condition", "circuit.set_condition"),
                (h, "conditioned_eval", tracing.semiring_span),
                (h, "shadow_circuit", "cpb.shadow_circuit"),
                (h, "eval_cov", "cpb.eval_cov"),
                (h, "mc_eval", "mc.mc_eval"),
                (h, "mc_strength", "mc.mc_strength"),
                (h, "sample_observations", "learn.sample_observations"),
                (h, "fit_complete", "learn.fit_complete"),
                (h, "beta_dist", "harness.beta_ppf"),
                (examples, "shannon_compile", "compile.shannon_compile"),
                (betacalc, "moment_match", "betacalc.moment_match")]

    def run_round(self, r, tally, tracer=None) -> None:
        """One operation: every cell once.

        A single cell (about 3.5 s) is exposed to the host's speed swings
        as scale's single circuits are; the median cell's spread over ten
        seeds reached 21 %, against 16 % for the five cells together.
        """
        run = self.harness.run_experiment
        seconds = 0.0
        for cfg, trials in self.cells:
            self._next_op(tracer)
            outdir = self.work / cfg.model
            t0 = time.perf_counter()
            if tracer is None:
                report = run(cfg)
                report.write_csvs(outdir)
            else:
                report = tracer.call("harness.run_experiment", run, cfg)
                tracer.call("harness.write_csvs", report.write_csvs, outdir)
            seconds += time.perf_counter() - t0
            self._check(cfg, trials, report, outdir, tally)
        tally.timed("cells", seconds)

    def _check(self, cfg, trials, report, outdir, tally) -> None:
        where = f"calibrate {cfg.model}"
        problems = ref.check_cell(report.backends, trials, cfg.gammas)
        csvs = tuple((outdir / name).read_bytes() for name in self.CSVS)
        first = self.csv_bytes.setdefault(cfg.model, csvs)
        if csvs != first:
            problems.append("metric CSVs differ from the first run of the "
                            "same cell")
        answers = sum(m.trials + m.failures for m in report.backends.values())
        tally.attempted += answers
        tally.failed += sum(m.failures for m in report.backends.values())
        if problems:
            tally.problems += [f"{where}: {p}" for p in problems]
        else:
            tally.answers += answers


WORKLOADS = {w.name: w for w in (Infer, Scale, Calibrate)}
