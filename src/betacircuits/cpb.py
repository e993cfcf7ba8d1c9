"""Covariance-aware conditioned evaluation of beta-labelled circuits.

This is the library's main inference engine.  Instead of propagating each
node's uncertainty in isolation (as the moment-matching baseline does), it
accounts for the full covariance structure between circuit nodes, which
makes the deterministic-OR sum exact in both mean and variance and keeps
the final conditioning division aware of the correlation between its
numerator and denominator.

The conditional is X/Y, where Y is the circuit root (evidence) and X is
the root with the negated-query leaves pinned to 0 (query and evidence).
Each root is a multilinear polynomial in the leaf parameters theta.  Its
first-order (delta-method) moments are

    E[X]      = X(E[theta])
    cov[X, Y] = g_X' S g_Y,

where g_X is the gradient of X with respect to theta at the means and S
is the leaf covariance: the label variances on the diagonal and the
explicit cross-variable entries off it.  ``eval_cov`` takes each gradient
in one forward pass (node means and per-gate child weights) and one
reverse pass (adjoints), so it costs O(n) time and memory
(Darwiche, "A differential approach to inference in Bayesian networks",
JACM 2003).  The gate rules behind the weights are:

* OR gates (children mutually exclusive, so the sum is literal):
  E[n] = sum_c E[c], with weight dn/dc = 1.
* AND gates (first-order expansion of the product around the means):
  E[n] = prod_c E[c], with weight w_c = prod_{c' != c} E[c'], i.e.
  E[n]/E[c] away from zero means.

The second-order term var[c] var[c'] + cov[c,c']^2 of each product
(Bohrnstedt & Goldberger 1969) is omitted.  Adding it to the AND
diagonals alone breaks the law of total probability that the OR rule
makes exact (by 2 var[X] var[Y] on (Y and X) or (Y and not X)), and
adding the matching cross terms everywhere moves the burglary posterior
variance further from Monte Carlo (0.0505 against 0.0446, where first
order gives 0.0471).

The conditional mean is E[X]/E[Y] and the variance is the first-order
expansion of X/Y around the means:

    var = var[X]/E[Y]^2 + E[X]^2 var[Y]/E[Y]^4
          - 2 E[X] cov[X,Y]/E[Y]^3

clamped to the [0,1]-support bound before beta moment matching.

``shadow_circuit`` and ``moment_sweep`` are the dense reference and the
introspection API.  Shadowing duplicates the negated-query leaves and
their ancestors, so one circuit carries both roots; the sweep then
propagates every node's mean and its covariance row against every other
node (cov[n,z] = sum_c w_c cov[c,z]), which yields the same moments as
the gradient form at O(n^2) cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import betacalc
from .betacalc import BetaLabel, Moments
from .circuit import (Circuit, CircuitError, CircuitNode, LabelTable,
                      NodeKind)
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
            cov.set(int(toks[0]), int(toks[1]), float(toks[2]))
        except ValueError as exc:
            raise CircuitError(f"leaf covariance line {i}: {exc}") from exc
    return cov


def format_leaf_cov(cov: LeafCovariance) -> str:
    out = [f"{i} {j} {v!r}" for (i, j), v in sorted(cov.cross_entries.items())]
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------

@dataclass
class ShadowedCircuit:
    """A circuit plus the shadow copies of the negated-query ancestor chain.

    Shadow nodes get fresh ids starting at ``len(circuit)``.  ``shadow_of``
    maps each shadowed base id to its shadow id; ``shadow_children`` gives
    each shadow gate's child list, where a child is the shadow copy when
    the base child is itself shadowed and the shared base node otherwise.
    ``stub_ids`` are the shadow copies of the negated-query leaves, pinned
    to 0 during evaluation.
    """

    circuit: Circuit
    shadow_of: dict[int, int]
    shadow_children: dict[int, tuple[int, ...]]
    stub_ids: frozenset[int]
    n_total: int

    @property
    def base_root(self) -> int:
        return self.circuit.root

    @property
    def shadow_root(self) -> int:
        return self.shadow_of.get(self.circuit.root, self.circuit.root)


def shadow_circuit(c: Circuit) -> ShadowedCircuit:
    """Duplicate the negated-query leaves and their ancestor closure.

    Requires a query staged by ``set_condition``.  When the negated query
    has no leaf occurrence the shadow set is empty and the shadow root
    coincides with the base root (the conditional is then trivially 1,
    i.e. the query is implied by the circuit and evidence).
    """
    if c.query_literal is None:
        raise CircuitError("circuit has no staged query; call set_condition first")
    qneg_leaves = c.literal_leaves(-c.query_literal)

    parents: dict[int, set[int]] = {i: set() for i in range(len(c))}
    for n in c.nodes:
        for ch in n.children:
            parents[ch].add(n.id)

    shadowed: set[int] = set()
    stack = list(qneg_leaves)
    while stack:
        nid = stack.pop()
        if nid in shadowed:
            continue
        shadowed.add(nid)
        stack.extend(parents[nid])

    shadow_of: dict[int, int] = {}
    next_id = len(c)
    for nid in sorted(shadowed):
        shadow_of[nid] = next_id
        next_id += 1

    stub_ids = frozenset(shadow_of[l] for l in qneg_leaves)
    shadow_children: dict[int, tuple[int, ...]] = {}
    for nid in sorted(shadowed):
        node = c.node(nid)
        if node.children:
            shadow_children[shadow_of[nid]] = tuple(
                shadow_of.get(ch, ch) for ch in node.children)
    return ShadowedCircuit(c, shadow_of, shadow_children, stub_ids, next_id)


# ---------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------

@dataclass
class QueryResult:
    mean: float
    variance: float
    matched: BetaLabel
    variance_clamped: bool = False


def _leaf_mean(c: Circuit, labels: LabelTable, nid: int) -> float:
    node = c.node(nid)
    if node.kind is NodeKind.TRUE:
        return 1.0
    if node.kind is NodeKind.FALSE:
        return 0.0
    if node.lam == 0:
        return 0.0
    return labels.mean_of(node.literal)


def _stochastic_leaves(c: Circuit) -> list[CircuitNode]:
    """The lambda=1 literal leaves (the only nodes with leaf-level cov)."""
    return [n for n in c.nodes if n.kind is NodeKind.LITERAL and n.lam == 1]


def _gate(kind: NodeKind, child_means: list[float]) -> tuple[float, list[float]]:
    """A gate's mean and its per-child weights dn/dc.

    OR: the fsum of the child means, and weight 1 per child.  AND: the
    product of the child means, and the leave-one-out products as weights.
    The leave-one-out product equals E[n]/E[c] whenever E[c] != 0 and is its
    algebraic limit otherwise (the zero-mean rule), so no division by zero
    can occur.
    """
    if kind is NodeKind.OR:
        return math.fsum(child_means), [1.0] * len(child_means)
    k = len(child_means)
    prefix = [1.0] * (k + 1)
    for i in range(k):
        prefix[i + 1] = prefix[i] * child_means[i]
    suffix = [1.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * child_means[i]
    return prefix[k], [prefix[i] * suffix[i + 1] for i in range(k)]


def _conditioned_result(mean_num: float, mean_den: float,
                        var_num: float, var_den: float, cov_nd: float,
                        base_rate: float, prior_weight: float) -> QueryResult:
    if mean_den == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    mean = mean_num / mean_den
    var = (var_num / mean_den ** 2
           + mean_num ** 2 * var_den / mean_den ** 4
           - 2.0 * mean_num * cov_nd / mean_den ** 3)
    bound = max(mean, 0.0) * max(1.0 - mean, 0.0)
    clamped = False
    if var < 0.0:
        # First-order expansion can slip below 0 by approximation error.
        clamped = var < -1e-15
        var = 0.0
    elif var > bound:
        clamped = True
        var = bound
    matched = betacalc.moment_match(Moments(mean, var), base_rate, prior_weight)
    return QueryResult(mean, var, matched, clamped)


def moment_sweep(sc: ShadowedCircuit, labels: LabelTable,
                 leaf_cov: Optional[LeafCovariance] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Means and full covariance matrix over all base and shadow nodes.

    The dense reference for ``eval_cov``, and the way to inspect the
    covariance of any two nodes.  Row/column i of the covariance matrix
    belongs to node id i (shadow ids start at ``len(sc.circuit)``).
    ``leaf_cov`` defaults to independent leaves (block-diagonal pattern
    with cov[v, not v] = -var[v] inside each variable's block).  All leaf
    covariances are filled in first; then the base gates and the shadow
    gates are swept in id order, which is topological for both.  Costs
    O(n^2) memory and time.
    """
    if leaf_cov is None:
        leaf_cov = LeafCovariance()
    c = sc.circuit
    n = sc.n_total
    means = np.zeros(n)
    cov = np.zeros((n, n))

    for node in c.nodes:
        if not node.children:
            means[node.id] = _leaf_mean(c, labels, node.id)
    by_var: dict[int, list[CircuitNode]] = {}
    for leaf in _stochastic_leaves(c):
        by_var.setdefault(leaf.var, []).append(leaf)
    for vi, vj in [(v, v) for v in by_var] + list(leaf_cov.cross_entries):
        for a in by_var.get(vi, ()):
            for b in by_var.get(vj, ()):
                cov[a.id, b.id] = cov[b.id, a.id] = leaf_cov.lookup(
                    labels, a.literal, b.literal)

    # Shadow stubs keep mean 0 and a zero covariance row.
    gates = [(node.id, node.kind, node.children)
             for node in c.nodes if node.children]
    gates += [(sh, c.node(b).kind, sc.shadow_children[sh])
              for b, sh in sorted(sc.shadow_of.items())
              if sh not in sc.stub_ids]
    for nid, kind, children in gates:
        child_means = [float(means[ch]) for ch in children]
        means[nid], weights = _gate(kind, child_means)
        row = np.zeros(n)
        for ch, w in zip(children, weights):
            row += w * cov[ch, :]
        diag = math.fsum(w * row[ch] for ch, w in zip(children, weights))
        cov[nid, :] = row
        cov[:, nid] = row
        cov[nid, nid] = diag

    return means, cov


def _root_gradient(c: Circuit, labels: LabelTable,
                   zeroed: frozenset[int]) -> tuple[float, dict[int, float]]:
    """Root mean and its derivative with respect to each leaf variable.

    One forward pass computes the node means (with the ``zeroed`` leaves
    pinned to 0) and each gate's per-child weights; one reverse pass
    accumulates the adjoints d root / d node.  A variable's derivative is
    the adjoint sum over its positive lambda=1 leaves minus that over its
    negative ones, since a negative leaf carries 1 - theta.  The zeroed
    leaves are constants and contribute nothing.
    """
    means = [0.0] * len(c)
    weights: list[list[float]] = [[] for _ in range(len(c))]
    for node in c.nodes:
        if not node.children:
            if node.id not in zeroed:
                means[node.id] = _leaf_mean(c, labels, node.id)
            continue
        child_means = [means[ch] for ch in node.children]
        means[node.id], weights[node.id] = _gate(node.kind, child_means)

    adjoint = [0.0] * len(c)
    adjoint[c.root] = 1.0
    for nid in range(c.root, -1, -1):
        a = adjoint[nid]
        if a != 0.0:
            for ch, w in zip(c.node(nid).children, weights[nid]):
                adjoint[ch] += a * w

    grad: dict[int, float] = {}
    for leaf in _stochastic_leaves(c):
        if leaf.id not in zeroed:
            d = adjoint[leaf.id] if leaf.literal > 0 else -adjoint[leaf.id]
            grad[leaf.var] = grad.get(leaf.var, 0.0) + d
    return means[c.root], grad


def eval_cov(sc: ShadowedCircuit, labels: LabelTable,
             leaf_cov: Optional[LeafCovariance] = None,
             base_rate: float = betacalc.DEFAULT_BASE_RATE,
             prior_weight: float = betacalc.DEFAULT_PRIOR_WEIGHT) -> QueryResult:
    """Conditioned mean and first-order variance via root gradients.

    Only ``sc.circuit`` is read.  The numerator X is its root with the
    negated-query leaves (the ones ``shadow_circuit`` stubs) pinned to 0,
    the denominator Y its root as is.  With g_X and g_Y their gradients
    over the leaf variables, var[X] = g_X' S g_X, var[Y] = g_Y' S g_Y and
    cov[X,Y] = g_X' S g_Y, where S holds the label variances on its
    diagonal and ``leaf_cov``'s cross entries off it (default: independent
    leaves).  O(n) time and memory.
    """
    if leaf_cov is None:
        leaf_cov = LeafCovariance()
    c = sc.circuit
    qneg = frozenset(c.literal_leaves(-c.query_literal))
    mean_den, g_den = _root_gradient(c, labels, frozenset())
    mean_num, g_num = _root_gradient(c, labels, qneg)
    variances = {v: labels.variance_of(v) for v in g_den}

    def form(ga: dict[int, float], gb: dict[int, float]) -> float:
        total = math.fsum(s * ga.get(v, 0.0) * gb.get(v, 0.0)
                          for v, s in variances.items())
        for (i, j), cij in leaf_cov.cross_entries.items():
            total += cij * (ga.get(i, 0.0) * gb.get(j, 0.0)
                            + ga.get(j, 0.0) * gb.get(i, 0.0))
        return total

    return _conditioned_result(
        mean_num, mean_den, form(g_num, g_num), form(g_den, g_den),
        form(g_num, g_den), base_rate, prior_weight)
