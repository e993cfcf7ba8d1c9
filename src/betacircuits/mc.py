"""Monte Carlo baseline: sample leaf probabilities, condition per sample.

Each sample draws one concrete probability for every labelled leaf
variable from its beta distribution (the complement leaf is forced to one
minus that draw, honoring cov[v, not v] = -var[v]) and evaluates the
conditioned query in the point-probability semiring.  The sample mean and
variance then estimate the query's posterior mean and epistemic variance.

``mc_eval_queries`` answers several queries on one evidence circuit from
one shared draw (common random numbers): per batch it makes one
``circuit.eval_queries`` call on arrays, one lockstep pass that runs the
evidence sweep and recomputes only each query's negated-leaf ancestors.
``mc_eval`` is the one-query case.

The draw stream is fixed: per batch, one ``rng.beta(alpha, beta,
size=batch)`` (a constant array for a certain label) for every labelled
variable with a leaf anywhere in the circuit, in ascending id.  The draws
are made as the pass reads the leaves, once each in id order.  Its first
read of a variable's leaves draws that variable and every earlier one
not drawn yet; a draw is dropped after the pass's last read of it, at
once if the pass never reads it; the variables past the last read are
drawn after the pass, so the next batch starts where it would have.

A batch thus holds, besides a few per-variable counters:

* the draws of the variables read ahead of the pass: few on a circuit
  that lists its leaves in ascending variable order, nearly all on one
  that lists them descending, as ``shannon_compile``'s output does;
* per sweep, the values that some later fold still reads, and one
  partial fold per gate that has started but not finished.  A gate folds
  each child as soon as it is ready and the child's value is then
  dropped, so a wide AND holds one running product per sweep, not all its
  children.

numpy is imported on the first call, not with the module, so that
importing the package (and the CLI's other backends) does not load it.

Samples whose evidence probability is zero leave the conditional undefined
and are rejected and redrawn (counted); when rejections exceed 99% of the
draws the evidence is reported as almost surely inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from . import betacalc
from .betacalc import Moments
from .circuit import (Circuit, LabelTable, NodeKind, eval_queries,
                      query_literals)
from .semirings import InconsistentEvidenceError

if TYPE_CHECKING:
    import numpy as np

#: Past this share of rejected draws the evidence is reported as almost
#: surely inconsistent.
MAX_REJECTION_RATE = 0.99


@dataclass
class MCResult:
    mean: float
    variance: float
    samples: np.ndarray
    rejections: int


def mc_eval_queries(c: Circuit, queries: Iterable[int], labels: LabelTable,
                    n_samples: int,
                    seed: int | np.random.Generator | None = 0
                    ) -> dict[int, MCResult]:
    """Monte Carlo estimates of several queries on one draw of the leaves.

    ``c`` carries the evidence (as set by ``set_condition``); its staged
    query, if any, is ignored.  ``queries`` are query literals; the result
    maps each to its estimate.  All queries share the leaf draws and the
    rejections, and each query's samples are those ``mc_eval`` returns for
    the same seed.  Raises InconsistentEvidenceError when more than
    ``MAX_REJECTION_RATE`` of the draws produce zero-probability evidence.
    """
    import numpy as np

    queries = query_literals(c, queries)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    # Per variable id: whether it is drawn (labelled, with a leaf anywhere
    # in the circuit) and how many of its leaves the evidence sweep reads.
    # Lists indexed by id, not dicts or sets, keep this bookkeeping small
    # beside a batch's arrays.
    drawn = [False] * (1 + max(n.var for n in c.nodes))
    reads = [0] * len(drawn)
    for n in c.nodes:
        if n.kind is NodeKind.LITERAL:
            drawn[n.var] = n.var in labels
    for i in c.schedule(queries).leaves:
        if drawn[c.nodes[i].var]:
            reads[c.nodes[i].var] += 1

    accepted: dict[int, list[np.ndarray]] = {q: [] for q in queries}
    n_acc = 0
    rejections = 0
    total = 0
    while n_acc < n_samples:
        batch = n_samples - n_acc
        undrawn = (v for v, d in enumerate(drawn) if d)
        unread = reads.copy()
        held: dict[int, np.ndarray] = {}
        zeros = np.zeros(batch)
        ones = np.ones(batch)

        def draw(v: int) -> np.ndarray:
            label = labels.label_of(v)
            if label.certain is None:
                return rng.beta(label.alpha_pos, label.alpha_neg, size=batch)
            return np.full(batch, 1.0 if label.certain else 0.0)

        def leaf(lit: int) -> np.ndarray:
            v = abs(lit)
            if not reads[v]:
                # Derived (unlabelled) atom: weight 1 for both polarities.
                return ones
            if v not in held:
                # Draw every variable up to v not drawn yet, in variable
                # order; hold those the pass has still to read.
                for u in undrawn:
                    p = draw(u)
                    if unread[u]:
                        held[u] = p
                    if u == v:
                        break
            unread[v] -= 1
            p = held[v] if unread[v] else held.pop(v)
            return p if lit > 0 else 1.0 - p

        # Every value is finite and >= +0, so these shortcuts are exact.
        def plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return b if a is zeros else a if b is zeros else a + b

        def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            if a is zeros or b is zeros:
                return zeros
            return b if a is ones else a if b is ones else a * b

        ev, joints = eval_queries(c, queries, zeros, ones, plus, times, leaf)
        for u in undrawn:
            draw(u)  # never read, but drawn so the stream stays in step
        ok = ev > 0.0
        n_ok = int(ok.sum())
        rejections += batch - n_ok
        total += batch
        if n_ok:
            ev = ev[ok]
            for q, joint in joints.items():
                accepted[q].append(joint[ok] / ev)
            n_acc += n_ok
        if (total >= max(100, 2 * n_samples)
                and rejections / total > MAX_REJECTION_RATE):
            raise InconsistentEvidenceError(
                f"evidence almost surely inconsistent: "
                f"{rejections}/{total} samples rejected")

    out = {}
    for q in queries:
        samples = np.concatenate(accepted[q])[:n_samples]
        mean = float(np.mean(samples))
        var = float(np.var(samples, ddof=1)) if n_samples > 1 else 0.0
        out[q] = MCResult(mean, var, samples, rejections)
    return out


def mc_eval(c: Circuit, labels: LabelTable, n_samples: int,
            seed: int | np.random.Generator | None = 0) -> MCResult:
    """Monte Carlo estimate of the conditioned query on a staged circuit.

    Requires a query staged by ``set_condition``.  Deterministic for a
    fixed seed.  Raises InconsistentEvidenceError when more than
    ``MAX_REJECTION_RATE`` of the draws produce zero-probability evidence.
    """
    if c.query_literal is None:
        raise ValueError("circuit has no staged query; call set_condition first")
    return mc_eval_queries(c, (c.query_literal,), labels, n_samples,
                           seed)[c.query_literal]


def mc_strength(samples: np.ndarray) -> float:
    """Dirichlet strength of the beta fitted to a sample set.

    s = mean (1 - mean) / var - 1 with the usual prior floors; degenerate
    samples (zero variance) map to the certain sentinel's infinite
    strength.
    """
    import numpy as np

    samples = np.asarray(samples, dtype=float)
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1)) if samples.size > 1 else 0.0
    if var <= 0.0:
        return float("inf")
    label = betacalc.moment_match(Moments(mean, var))
    return label.strength
