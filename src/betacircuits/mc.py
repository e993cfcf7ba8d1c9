"""Monte Carlo baseline: sample leaf probabilities, condition per sample.

Each sample draws one concrete probability for every labelled leaf
variable from its beta distribution (the complement leaf is forced to one
minus that draw, honoring cov[v, not v] = -var[v]) and evaluates the
conditioned query in the point-probability semiring.  The sample mean and
variance then estimate the query's posterior mean and epistemic variance.

``mc_eval_queries`` answers several queries on one evidence circuit from
one shared draw (common random numbers): per batch it samples every leaf
once and runs one evidence sweep.  A query's joint sweep differs from the
evidence sweep only at the ancestors of its negated-query leaves, so only
those nodes are recomputed; every other node reuses its evidence value,
which makes the result bitwise the full sweep's.  Each node's array is
dropped after its last reader; of the evidence sweep only the root and the
clean children of recomputed gates are kept.  ``mc_eval`` is the
one-query case.

numpy is imported on the first call, not with the module, so that
importing the package (and the CLI's other backends) does not load it.

Samples whose evidence probability is zero leave the conditional undefined
and are rejected and redrawn (counted); when rejections exceed 99% of the
draws the evidence is reported as almost surely inconsistent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from . import betacalc
from .betacalc import Moments
from .circuit import Circuit, CircuitError, CircuitNode, LabelTable, NodeKind
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


@dataclass(frozen=True)
class _SweepPlan:
    """Node schedule of one evidence sweep and the per-query joint sweeps.

    ``order`` lists the nodes that reach the root, children first.  A
    query's ``joint`` entry holds the nodes it recomputes (the ancestors of
    its negated-query leaves, in order) and their release schedule.  A
    release schedule maps a node to the children whose arrays die once it
    has read them.
    """

    order: list[int]
    release: dict[int, list[int]]
    joint: dict[int, tuple[list[int], dict[int, list[int]]]]

    @classmethod
    def build(cls, c: Circuit, queries: Iterable[int]) -> "_SweepPlan":
        nodes = c.nodes
        # Parents that reach the root, last reader first.
        parents: list[list[int]] = [[] for _ in nodes]
        reach = [False] * len(nodes)
        reach[c.root] = True
        for n in reversed(nodes):
            if reach[n.id]:
                for ch in n.children:
                    reach[ch] = True
                    parents[ch].append(n.id)
        order = [i for i in range(len(nodes)) if reach[i]]
        keep = {c.root}
        joint = {}
        for q in queries:
            dirty = {i for i in order
                     if nodes[i].literal == -q and nodes[i].lam != 0}
            stack = list(dirty)
            while stack:
                for p in parents[stack.pop()]:
                    if p not in dirty:
                        dirty.add(p)
                        stack.append(p)
            release: dict[int, list[int]] = {}
            for i in dirty:
                keep.update(ch for ch in nodes[i].children if ch not in dirty)
                last = next((p for p in parents[i] if p in dirty), None)
                if last is not None:
                    release.setdefault(last, []).append(i)
            joint[q] = (sorted(dirty), release)
        release = {}
        for i in order:
            if i not in keep:
                release.setdefault(parents[i][0], []).append(i)
        return cls(order, release, joint)


def _fold(n: CircuitNode, value) -> np.ndarray:
    """AND/OR over the children's arrays, in child order."""
    ch = n.children
    acc = value(ch[0])
    if len(ch) == 1:
        return acc
    op, iop = ((operator.mul, operator.imul) if n.kind is NodeKind.AND
               else (operator.add, operator.iadd))
    acc = op(acc, value(ch[1]))
    for k in ch[2:]:
        acc = iop(acc, value(k))
    return acc


def _eval_queries(c: Circuit, plan: _SweepPlan,
                  leaf_probs: dict[int, np.ndarray],
                  ones: np.ndarray, zeros: np.ndarray
                  ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Evidence root and each query's joint root over a batch of samples.

    ``ones`` and ``zeros`` are constant arrays of the batch size.
    """
    nodes = c.nodes
    ev: list = [None] * len(nodes)
    for i in plan.order:
        n = nodes[i]
        if n.kind is NodeKind.LITERAL:
            if n.lam == 0:
                ev[i] = zeros
            elif n.var not in leaf_probs:
                # Derived (unlabelled) atom: weight 1 for both polarities.
                ev[i] = ones
            else:
                p = leaf_probs[n.var]
                ev[i] = p if n.literal > 0 else 1.0 - p
        elif n.kind is NodeKind.TRUE:
            ev[i] = ones
        elif n.kind is NodeKind.FALSE:
            ev[i] = zeros
        else:
            ev[i] = _fold(n, ev.__getitem__)
        for ch in plan.release.get(i, ()):
            ev[ch] = None

    joints = {}
    for q, (ids, release) in plan.joint.items():
        jv: dict[int, np.ndarray] = {}

        def value(k: int) -> np.ndarray:
            return jv[k] if k in jv else ev[k]

        for i in ids:
            n = nodes[i]
            jv[i] = zeros if n.kind is NodeKind.LITERAL else _fold(n, value)
            for ch in release.get(i, ()):
                del jv[ch]
        joints[q] = value(c.root)
    return ev[c.root], joints


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

    queries = tuple(dict.fromkeys(queries))
    if not queries:
        raise ValueError("no queries given")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    leaf_vars = {n.var for n in c.nodes if n.kind is NodeKind.LITERAL}
    for q in queries:
        if abs(q) not in leaf_vars:
            raise CircuitError(
                f"query variable {abs(q)} does not occur in circuit")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    circuit_vars = sorted(v for v in leaf_vars if v in labels)
    plan = _SweepPlan.build(c, queries)

    accepted: dict[int, list[np.ndarray]] = {q: [] for q in queries}
    n_acc = 0
    rejections = 0
    total = 0
    while n_acc < n_samples:
        batch = n_samples - n_acc
        leaf_probs = {}
        for v in circuit_vars:
            label = labels.label_of(v)
            if label.certain is None:
                leaf_probs[v] = rng.beta(label.alpha_pos, label.alpha_neg,
                                         size=batch)
            else:
                leaf_probs[v] = np.full(batch, 1.0 if label.certain else 0.0)
        ev, joints = _eval_queries(c, plan, leaf_probs, np.ones(batch),
                                   np.zeros(batch))
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
