"""Covariance-aware conditioned evaluation of beta-labelled circuits.

This is the library's main inference engine.  Instead of propagating each
node's uncertainty in isolation (as the moment-matching baseline does), it
propagates the leaf covariance through the circuit's gradients, so a
shared leaf counts once, the deterministic-OR sum adds no approximation,
and the conditioning division sees the correlation between its numerator
and denominator.

The conditional is X/Y, where Y is the circuit root (evidence) and X is
the root with the negated-query leaves pinned to 0 (query and evidence).
Each root is a multilinear polynomial in the leaf parameters theta.  Its
first-order (delta-method) moments are

    E[X]      = X(E[theta])
    cov[X, Y] = g_X' S g_Y,

where g_X is the gradient of X with respect to theta at the means and S
is the leaf covariance: the label variances on the diagonal and the
explicit cross-variable entries off it.  Each gradient takes a forward
pass (node means) and a reverse pass (adjoints), so it costs O(n) time
and memory (Darwiche, "A differential approach to inference in Bayesian
networks", JACM 2003).  The forward pass is one run of
``Circuit.schedule``'s lockstep pass, the one bottom-up fold behind every
backend, with sums and products of floats and every node mean kept: Y's
means come from its evidence sweep, and each query's X recomputes only
the ancestors of its negated leaves.  Every reverse pass
walks all nodes that reach the root and forms each gate's child weights
dn/dc from the means on its way down.  The gate rules are:

* OR gates (children mutually exclusive, so the sum is literal):
  E[n] = sum_c E[c], folded in file order, with weight dn/dc = 1.
* AND gates (first-order expansion of the product around the means):
  E[n] = prod_c E[c], with weight w_c = prod_{c' != c} E[c'], i.e.
  E[n]/E[c] away from zero means.

As the means are the pass's, E[X]/E[Y] is the ``prob`` backend's
conditional bit for bit.

The second-order term var[c] var[c'] + cov[c,c']^2 of each product
(Bohrnstedt & Goldberger 1969) is omitted.  Adding it to the AND
diagonals alone breaks the law of total probability that the OR rule
makes exact (by 2 var[X] var[Y] on (Y and X) or (Y and not X)), and
adding the matching cross terms everywhere moves the burglary posterior
variance further from Monte Carlo (0.0505 against 0.0446, where first
order gives 0.0471).

The conditional mean is mu = E[X]/E[Y], and its first-order variance is
rho' S rho with rho_v = d(X/Y)/d theta_v = (g_X[v] - mu g_Y[v]) / E[Y],
the per-parameter delta method of Van Allen, Singh, Greiner & Hooper
(AIJ 2008).  With independent leaves each term var_v rho_v^2 is
non-negative, so the sum cannot cancel, as the equal three-term expansion
over var[X], var[Y] and cov[X,Y] does near a conditional of 1.  And rho
divides by E[Y] once, where that expansion needs E[Y]^4, which underflows
to 0.0 below E[Y] ~ 1e-81.  A subnormal E[Y] (below ~2.2e-308) is
reported as an ArithmeticError, as its gradients have lost bits.  The
variance is clamped to [0, mu (1 - mu)] before beta moment matching.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from . import betacalc
from .betacalc import BetaLabel, Moments
from .circuit import (Circuit, CircuitError, CircuitNode, LabelTable,
                      NodeKind, query_literals)
from .semirings import InconsistentEvidenceError


# ---------------------------------------------------------------------
# Leaf covariance
# ---------------------------------------------------------------------

class LeafCovariance:
    """Covariance structure over leaf literals.

    The diagonal blocks are always implied by the labels: a literal with
    itself has its label variance, and a literal with its complement has
    the negated variance (they are the same random variable, flipped).
    Cross-variable entries default to 0 (independent leaves) and can be
    supplied explicitly as (literal, literal, covariance) triplets; the
    complement-flip rule extends each supplied entry to the other three
    sign combinations.
    """

    def __init__(self, entries: Optional[dict[tuple[int, int], float]] = None):
        self._entries: dict[tuple[int, int], float] = {}
        for (li, lj), v in (entries or {}).items():
            self.set(li, lj, v)

    def set(self, lit_i: int, lit_j: int, value: float) -> None:
        if not (lit_i and lit_j):
            raise ValueError("0 is not a literal")
        if abs(lit_i) == abs(lit_j):
            raise ValueError(
                "diagonal blocks are implied by the labels; "
                f"cannot set cov[{lit_i},{lit_j}]")
        key, sign = self._normalize(lit_i, lit_j)
        self._entries[key] = sign * value

    @staticmethod
    def _normalize(lit_i: int, lit_j: int) -> tuple[tuple[int, int], float]:
        sign = (1.0 if lit_i > 0 else -1.0) * (1.0 if lit_j > 0 else -1.0)
        vi, vj = abs(lit_i), abs(lit_j)
        if vi > vj:
            vi, vj = vj, vi
        return (vi, vj), sign

    def lookup(self, labels: LabelTable, lit_i: int, lit_j: int) -> float:
        if lit_i == lit_j:
            return labels.variance_of(lit_i)
        if lit_i == -lit_j:
            return -labels.variance_of(lit_i)
        key, sign = self._normalize(lit_i, lit_j)
        return sign * self._entries.get(key, 0.0)

    @property
    def cross_entries(self) -> dict[tuple[int, int], float]:
        return dict(self._entries)


def parse_leaf_cov(text: str) -> LeafCovariance:
    """Parse triplet lines ``lit_i lit_j cov`` into a LeafCovariance."""
    cov = LeafCovariance()
    for i, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if len(toks) != 3:
            raise CircuitError(f"leaf covariance line {i}: expected 3 fields")
        try:
            value = float(toks[2])
            if not math.isfinite(value):
                raise ValueError(f"non-finite covariance {toks[2]}")
            cov.set(int(toks[0]), int(toks[1]), value)
        except ValueError as exc:
            raise CircuitError(f"leaf covariance line {i}: {exc}") from exc
    return cov


# ---------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------

@dataclass
class ShadowedCircuit:
    """A circuit with a staged query, and the slot count of its pass.

    ``n_total`` is ``len(circuit)`` plus the number of nodes that the
    query's numerator recomputes (its ``joint`` schedule).
    """

    circuit: Circuit
    n_total: int


def shadow_circuit(c: Circuit) -> ShadowedCircuit:
    """Wrap a circuit whose query is staged by ``set_condition``."""
    q = c.query_literal
    if q is None:
        raise CircuitError("circuit has no staged query; call set_condition first")
    return ShadowedCircuit(c, c.schedule((q,)).size)


# ---------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------

@dataclass
class QueryResult:
    mean: float
    variance: float
    matched: BetaLabel
    variance_clamped: bool = False


def _leave_one_out(xs: list[float]) -> list[float]:
    """Each entry's product of the other entries: an AND's weights dn/dc.

    The leave-one-out product equals prod(xs)/x_c whenever x_c != 0 and is
    its algebraic limit otherwise (the zero-mean rule), so no division by
    zero can occur.  Two children, the common case, need no prefix and
    suffix products; the two forms agree bit for bit.
    """
    k = len(xs)
    if k == 2:
        return [xs[1], xs[0]]
    prefix = [1.0] * (k + 1)
    for i in range(k):
        prefix[i + 1] = prefix[i] * xs[i]
    suffix = [1.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * xs[i]
    return [prefix[i] * suffix[i + 1] for i in range(k)]


def _gradient(c: Circuit, order: list[int], means: list[float],
              leaves: list[CircuitNode]) -> dict[int, float]:
    """The root's derivative with respect to each variable of ``leaves``.

    One reverse pass over ``order`` accumulates the adjoints d root / d
    node from the node ``means``: an OR passes its adjoint to each child
    unchanged, and an AND multiplies it by the leave-one-out product of its
    other children's means.  A variable's derivative is the adjoint sum
    over its positive ``leaves`` minus that over its negative ones, since
    a negative leaf carries 1 - theta.
    """
    nodes = c.nodes
    adjoint = [0.0] * len(c)
    adjoint[c.root] = 1.0
    for nid in reversed(order):
        a = adjoint[nid]
        if a == 0.0:
            continue
        node = nodes[nid]
        if node.kind is NodeKind.OR:
            for ch in node.children:
                adjoint[ch] += a
        elif node.kind is NodeKind.AND:
            weights = _leave_one_out([means[ch] for ch in node.children])
            for ch, w in zip(node.children, weights):
                adjoint[ch] += a * w
    grad: dict[int, float] = {}
    for leaf in leaves:
        d = adjoint[leaf.id] if leaf.literal > 0 else -adjoint[leaf.id]
        grad[leaf.var] = grad.get(leaf.var, 0.0) + d
    return grad


def eval_cov_queries(c: Circuit, queries: Iterable[int], labels: LabelTable,
                     leaf_cov: Optional[LeafCovariance] = None
                     ) -> dict[int, QueryResult]:
    """Conditioned mean and first-order variance of several queries.

    ``c`` carries the evidence (as set by ``set_condition``); its staged
    query, if any, is ignored.  ``queries`` are query literals; the result
    maps each to its answer.  The denominator Y is the root as is, and a
    query's numerator X is the root with that query's negated leaves
    pinned to 0.  One run of ``c.schedule(queries)`` gives Y's node means
    and every query's ``joint`` node means; (E[Y], g_Y) are computed once,
    and each query copies Y's means, overwrites its ``joint`` nodes and
    adds one reverse pass.  With
    mu = E[X]/E[Y], the ratio gradient is rho = (g_X - mu g_Y)/E[Y] and
    the variance is rho' S rho, where S holds the label variances on its
    diagonal and ``leaf_cov``'s cross entries off it (default: independent
    leaves).  O(n) time and memory per query.  An error of the evidence
    (E[Y] zero or subnormal) raises before any query is answered.
    """
    queries = query_literals(c, queries)
    plan = c.schedule(queries)
    nodes = c.nodes
    values = plan.run(0.0, 1.0, operator.add, operator.mul, labels.mean_of,
                      drop=False)
    means = values[:len(c)]
    mean_den = means[c.root]
    if mean_den == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    if mean_den < sys.float_info.min:
        # A subnormal E[Y] and its gradients keep too few bits for rho.
        raise ArithmeticError(f"E[evidence] = {mean_den!r} is subnormal")
    # The leaves the pass reads: the only nodes with leaf-level cov.
    leaves = [nodes[i] for i in plan.leaves]
    g_den = _gradient(c, plan.order, means, leaves)
    out = {}
    for q in queries:
        # X's means are Y's but on the query's joint nodes.
        means_num = means.copy()
        for i, slot in plan.joint[q].items():
            means_num[i] = values[slot]
        mean = means_num[c.root] / mean_den
        # The pinned leaves are constants and contribute no derivative.
        g_num = _gradient(c, plan.order, means_num,
                          [leaf for leaf in leaves if leaf.literal != -q])
        # The numerator's leaves are a subset of the denominator's.
        rho = {v: (g_num.get(v, 0.0) - mean * d) / mean_den
               for v, d in g_den.items()}
        terms = [labels.variance_of(v) * r * r for v, r in rho.items()]
        if leaf_cov is not None:
            terms += [2.0 * cij * rho.get(i, 0.0) * rho.get(j, 0.0)
                      for (i, j), cij in leaf_cov.cross_entries.items()]
        var = math.fsum(terms)
        bound = max(mean, 0.0) * max(1.0 - mean, 0.0)
        clamped = not 0.0 <= var <= bound
        var = min(max(var, 0.0), bound)
        out[q] = QueryResult(mean, var,
                             betacalc.moment_match(Moments(mean, var)),
                             clamped)
    return out


def eval_cov(sc: ShadowedCircuit, labels: LabelTable,
             leaf_cov: Optional[LeafCovariance] = None) -> QueryResult:
    """Conditioned mean and first-order variance of the staged query.

    Only ``sc.circuit`` is read: this is ``eval_cov_queries`` on its staged
    query.
    """
    q = sc.circuit.query_literal
    return eval_cov_queries(sc.circuit, (q,), labels, leaf_cov)[q]
