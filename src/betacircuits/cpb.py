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

``shadow_circuit`` duplicates the negated-query leaves and their
ancestors, so one circuit carries both roots.  The dense O(n^2) reference,
which propagates every node's covariance row against every other node
(cov[n,z] = sum_c w_c cov[c,z]) over a shadowed circuit, lives with the
tests in ``tests/dense_reference.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

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


def _leaf_means(c: Circuit, labels: LabelTable) -> list[float]:
    """Node-indexed leaf means, 0.0 at the gates.

    TRUE is 1, a lambda=1 literal has its label mean, and FALSE and the
    lambda=0 leaves are 0.  ``eval_cov`` builds this once for both passes.
    """
    means = [0.0] * len(c)
    for node in c.nodes:
        if node.kind is NodeKind.TRUE:
            means[node.id] = 1.0
        elif node.kind is NodeKind.LITERAL and node.lam == 1:
            means[node.id] = labels.mean_of(node.literal)
    return means


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


def _root_gradient(c: Circuit, leaf_means: list[float],
                   zeroed: frozenset[int]) -> tuple[float, dict[int, float]]:
    """Root mean and its derivative with respect to each leaf variable.

    One forward pass computes the node means (``leaf_means`` at the leaves,
    with the ``zeroed`` leaves pinned to 0) and each gate's per-child
    weights; one reverse pass accumulates the adjoints d root / d node.  A
    variable's derivative is the adjoint sum over its positive lambda=1
    leaves minus that over its negative ones, since a negative leaf carries
    1 - theta.  The zeroed leaves are constants and contribute nothing.
    """
    means = list(leaf_means)
    for nid in zeroed:
        means[nid] = 0.0
    weights: list[list[float]] = [[] for _ in range(len(c))]
    for node in c.nodes:
        if node.children:
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
             leaf_cov: Optional[LeafCovariance] = None) -> QueryResult:
    """Conditioned mean and first-order variance via root gradients.

    Only ``sc.circuit`` is read.  The numerator X is its root with the
    negated-query leaves (the ones ``shadow_circuit`` stubs) pinned to 0,
    the denominator Y its root as is.  With g_X and g_Y their gradients
    over the leaf variables and mu = E[X]/E[Y], the ratio gradient is
    rho = (g_X - mu g_Y)/E[Y] and the variance is rho' S rho, where S
    holds the label variances on its diagonal and ``leaf_cov``'s cross
    entries off it (default: independent leaves).  O(n) time and memory.
    """
    c = sc.circuit
    qneg = frozenset(c.literal_leaves(-c.query_literal))
    leaf_means = _leaf_means(c, labels)
    mean_den, g_den = _root_gradient(c, leaf_means, frozenset())
    mean_num, g_num = _root_gradient(c, leaf_means, qneg)
    if mean_den == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    if mean_den < sys.float_info.min:
        # A subnormal E[Y] and its gradients keep too few bits for rho.
        raise ArithmeticError(f"E[evidence] = {mean_den!r} is subnormal")
    mean = mean_num / mean_den
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
    return QueryResult(mean, var, betacalc.moment_match(Moments(mean, var)),
                       clamped)
