"""Spans and counts around calls into the library's layers.

The traced run replaces each entry point, under the name its caller looks
up, with a wrapper from this file (``cli.validate``, ``harness.eval_cov``,
``betacalc.moment_match`` and so on).  A wrapper records one span: name,
start, end, parent span and operation id.  Spans stay in memory and are
written when the run ends.  A layer's self time is its span minus its
child spans.  Nothing under ``src/`` is changed; every patch is undone
when the traced round ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

SETUP = -1  # operation id of spans recorded while inputs are built


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.eval_cov_sizes: list[tuple[int, int, float]] = []
        self.op = SETUP
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's own calls."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn: Callable, after: Optional[Callable] = None):
        """``name`` is a span name or a function of the call's arguments."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                spans[idx] = [label, t0, t1, parent, self.op]
            if after is not None:
                after(self, result, args, t1 - t0)
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span name)`` targets."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if attr == "beta_dist":
                    replacement = _PpfProxy(self, original)
                else:
                    replacement = self.wrap(name, original, AFTER.get(name))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path, meta: dict) -> None:
        path.write_text(json.dumps(dict(meta, fields=[
            "name", "start", "end", "parent", "op"], spans=self.spans)))


class _PpfProxy:
    """Stands in for ``scipy.stats.beta`` where ``harness`` looks it up."""

    def __init__(self, tracer: Tracer, dist) -> None:
        self.ppf = tracer.wrap("harness.beta_ppf", dist.ppf)


def semiring_span(c, spec, *args, **kwargs) -> str:
    return f"semirings.{spec.name}"


# -- counts taken at the layer boundary, from each call's result ------

def _parsed(t, res, args, dt):
    t.counts["circuit.parse_nnf.nodes"] += len(res)


def _validated(t, res, args, dt):
    t.counts["circuit.validate.exact_checks"] += bool(res.determinism_exact)


def _cov_evaluated(t, res, args, dt):
    sc = args[0]
    t.counts["cpb.eval_cov.clamped"] += bool(res.variance_clamped)
    t.eval_cov_sizes.append((len(sc.circuit), sc.n_total, dt))


def _semiring_evaluated(t, res, args, dt):
    from betacircuits.semirings import VACUOUS_OPINION
    if args[1].name == "sl" and res == VACUOUS_OPINION:
        t.counts["semirings.sl.vacuous"] += 1


def _sampled(t, res, args, dt):
    t.counts["mc.samples"] += len(res.samples)
    t.counts["mc.rejections"] += res.rejections


def _matched(t, res, args, dt):
    from betacircuits.betacalc import MAX_STRENGTH
    if res.certain is None and res.strength >= MAX_STRENGTH * (1.0 - 1e-9):
        t.counts["betacalc.moment_match.saturated"] += 1


AFTER = {
    "circuit.parse_nnf": _parsed,
    "circuit.validate": _validated,
    "cpb.eval_cov": _cov_evaluated,
    semiring_span: _semiring_evaluated,
    "mc.mc_eval": _sampled,
    "betacalc.moment_match": _matched,
}


# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------

def layer_metrics(t: Tracer, rounds: int, *, import_s: float,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer figures: spans of the set-up plus spans per traced round."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for name, t0, t1, parent, op in t.spans:
        dt = t1 - t0
        weight = 1.0 if op == SETUP else 1.0 / rounds
        busy[name] += dt * weight
        calls[name] += weight
        durations[name].append(dt)
        if parent >= 0:
            child_time[parent] += dt
    self_s: dict[str, float] = defaultdict(float)
    for idx, (name, t0, t1, parent, op) in enumerate(t.spans):
        if name in ("cli.main", "harness.run_experiment"):
            self_s[name] += (t1 - t0 - child_time[idx]) / rounds
    per_round = {k: v / rounds for k, v in t.counts.items()}

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    cov_ms = [1e3 * d for d in durations["cpb.eval_cov"]]
    answered = t.eval_cov_sizes
    out = {
        "cli.import_s": import_s,
        "cli.main.self_s": self_s["cli.main"],
        "circuit.parse_nnf.busy_s": busy["circuit.parse_nnf"],
        "circuit.parse_nnf.nodes_per_s": ratio(
            per_round.get("circuit.parse_nnf.nodes", 0.0),
            busy["circuit.parse_nnf"]),
        "circuit.validate.calls": calls["circuit.validate"],
        "circuit.validate.busy_s": busy["circuit.validate"],
        "circuit.validate.exact_checks": per_round.get(
            "circuit.validate.exact_checks", 0.0),
        "circuit.set_condition.busy_s": busy["circuit.set_condition"],
        "compile.shannon_compile.calls": calls["compile.shannon_compile"],
        "compile.shannon_compile.busy_s": busy["compile.shannon_compile"],
        "cpb.shadow_circuit.busy_s": busy["cpb.shadow_circuit"],
        "cpb.eval_cov.calls": calls["cpb.eval_cov"],
        "cpb.eval_cov.busy_s": busy["cpb.eval_cov"],
        "cpb.eval_cov.p50_ms": _quantile(cov_ms, 0.5),
        "cpb.eval_cov.p90_ms": _quantile(cov_ms, 0.9),
        "cpb.eval_cov.scaling_exp": _slope(answered),
        "cpb.over_prob": ratio(
            ratio(busy["cpb.eval_cov"], calls["cpb.eval_cov"]),
            ratio(busy["semirings.prob"], calls["semirings.prob"])),
        "cpb.matrix_mb": (max(n for _, n, _ in answered) ** 2 * 8 / 1e6
                          if answered else 0.0),
        "cpb.eval_cov.clamped": per_round.get("cpb.eval_cov.clamped", 0.0),
        "semirings.prob.calls": calls["semirings.prob"],
        "semirings.prob.busy_s": busy["semirings.prob"],
        "semirings.mm.busy_s": busy["semirings.mm"],
        "semirings.sl.calls": calls["semirings.sl"],
        "semirings.sl.busy_s": busy["semirings.sl"],
        "semirings.sl.vacuous": per_round.get("semirings.sl.vacuous", 0.0),
        "mc.mc_eval.calls": calls["mc.mc_eval"],
        "mc.mc_eval.busy_s": busy["mc.mc_eval"],
        "mc.samples_per_s": ratio(per_round.get("mc.samples", 0.0),
                                  busy["mc.mc_eval"]),
        "mc.draws": (per_round.get("mc.samples", 0.0)
                     + per_round.get("mc.rejections", 0.0)),
        "mc.rejections": per_round.get("mc.rejections", 0.0),
        "learn.sample_observations.busy_s": busy["learn.sample_observations"],
        "learn.fit_complete.busy_s": busy["learn.fit_complete"],
        "harness.run_experiment.self_s": self_s["harness.run_experiment"],
        "harness.beta_ppf.calls": calls["harness.beta_ppf"],
        "harness.beta_ppf.busy_s": busy["harness.beta_ppf"],
        "harness.write_csvs.busy_s": busy["harness.write_csvs"],
        "betacalc.moment_match.calls": calls["betacalc.moment_match"],
        "betacalc.moment_match.saturated": per_round.get(
            "betacalc.moment_match.saturated", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    return out


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def _slope(sizes: list[tuple[int, int, float]]) -> float:
    """Least-squares slope of log(median time) against log(nodes)."""
    by_nodes: dict[int, list[float]] = defaultdict(list)
    for nodes, _, dt in sizes:
        by_nodes[nodes].append(dt)
    if len(by_nodes) < 2:
        return 0.0
    xs = [math.log(n) for n in sorted(by_nodes)]
    ys = [math.log(statistics.median(by_nodes[n])) for n in sorted(by_nodes)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
