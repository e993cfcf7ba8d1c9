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
is the covariance of theta: the label variances on the diagonal and one
entry per pair of variables off it (a negative literal carries 1 - theta,
which flips a sign).  Each gradient takes a forward pass (node means)
and a reverse pass (adjoints), so it costs O(n) time and memory
(Darwiche, "A differential approach to inference in Bayesian networks",
JACM 2003).  The forward pass is one run of ``Circuit.schedule``'s
lockstep pass, the one bottom-up fold behind every backend, with sums
and products of floats and every node mean kept: Y's means come from its
evidence sweep, and each query's X recomputes only the ancestors of its
negated leaves.  The reverse pass is the schedule's ``adjoints``, one
sweep from each root, which forms each gate's child weights dn/dc once
per call from the means.  The rules are:

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
from typing import Iterable, Mapping, Optional

from . import betacalc
from .betacalc import Moments, QueryResult
from .circuit import (Circuit, CircuitError, LabelTable, _read_lines,
                      query_literals)
from .semirings import InconsistentEvidenceError


# ---------------------------------------------------------------------
# Leaf covariance
# ---------------------------------------------------------------------

def parse_leaf_cov(text: str) -> dict[tuple[int, int], float]:
    """Parse triplet lines ``lit_i lit_j cov``, one per pair of variables.

    Returns cov[theta_i, theta_j] keyed by the variable pair (i, j) with
    i < j.  A negative literal carries 1 - theta, so each one on a line
    flips the sign of that line's value.
    """
    cov: dict[tuple[int, int], float] = {}

    def line(toks: list[str]) -> None:
        if len(toks) != 3:
            raise ValueError("expected 3 fields")
        value = float(toks[2])
        if not math.isfinite(value):
            raise ValueError(f"non-finite covariance {toks[2]}")
        lit_i, lit_j = int(toks[0]), int(toks[1])
        i, j = sorted((abs(lit_i), abs(lit_j)))
        if (i, j) in cov:
            raise ValueError(f"second line for variables {[i, j]}")
        if not i:
            raise ValueError("0 is not a literal")
        if i == j:
            raise ValueError(
                "diagonal blocks are implied by the labels; "
                f"cannot set cov[{lit_i},{lit_j}]")
        cov[i, j] = value if (lit_i > 0) == (lit_j > 0) else -value

    _read_lines(text, "leaf covariance", line)
    return cov


# ---------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------

@dataclass
class ShadowedCircuit:
    """A circuit with a staged query, and the slot count of its pass.

    ``n_total`` is ``len(circuit)`` plus the number of nodes that the
    query's numerator recomputes: the slot count of its pass.
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

def eval_cov_queries(c: Circuit, queries: Iterable[int], labels: LabelTable,
                     leaf_cov: Optional[Mapping[tuple[int, int], float]] = None
                     ) -> dict[int, QueryResult]:
    """Conditioned mean and first-order variance of several queries.

    ``c`` carries the evidence (as set by ``set_condition``); its staged
    query, if any, is ignored.  ``queries`` are query literals; the result
    maps each to its answer.  The denominator Y is the root as is, and a
    query's numerator X is the root with that query's negated leaves
    pinned to 0.  One run of ``c.schedule(queries)`` gives every node mean
    of Y and of each X, and its ``adjoints`` g_Y and each g_X.  With
    mu = E[X]/E[Y], the ratio gradient is rho = (g_X - mu g_Y)/E[Y] and
    the variance is rho' S rho, where S holds the label variances on its
    diagonal and ``leaf_cov``'s entries off it: cov[theta_i, theta_j]
    keyed by (i, j) with 0 < i < j, as ``parse_leaf_cov`` returns them
    (default: independent leaves).  Any other key, a non-finite value or
    an entry past sqrt(var_i var_j), a correlation outside [-1, 1],
    raises ValueError.  O(n) time and memory per query.  An error of the
    evidence (E[Y] zero or subnormal) raises before any query is answered.
    """
    queries = query_literals(c, queries)
    cross = leaf_cov or {}
    for pair, cij in cross.items():
        if not (isinstance(pair, tuple) and len(pair) == 2
                and 0 < pair[0] < pair[1]):
            raise ValueError(f"covariance key {pair!r} is not a pair (i, j) "
                             "of variables with 0 < i < j")
        i, j = pair
        if not math.isfinite(cij):
            raise ValueError(f"non-finite covariance {cij!r} of variables "
                             f"{i} and {j}")
        limit = math.sqrt(labels.variance_of(i) * labels.variance_of(j))
        if abs(cij) > limit:
            raise ValueError(f"covariance {cij!r} of variables {i} and {j} "
                             f"exceeds sqrt(var[{i}] var[{j}]) = {limit!r}")
    plan = c.schedule(queries)
    values = plan.run(0.0, 1.0, operator.add, operator.mul, labels.mean_of,
                      drop=False)
    mean_den = values[c.root]
    if mean_den == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    if mean_den < sys.float_info.min:
        # A subnormal E[Y] and its gradients keep too few bits for rho.
        raise ArithmeticError(f"E[evidence] = {mean_den!r} is subnormal")
    # The leaves the pass reads; a negative one carries 1 - theta.
    leaves = [(i, c.nodes[i].var, 1.0 if c.nodes[i].literal > 0 else -1.0)
              for i in plan.leaves]

    def by_variable(adjoint: list[float]) -> dict[int, float]:
        grad: dict[int, float] = {}
        for i, v, sign in leaves:
            grad[v] = grad.get(v, 0.0) + sign * adjoint[i]
        return grad

    g_den, *g_nums = map(by_variable, plan.adjoints(values))
    out = {}
    for q, top, g_num in zip(queries, plan.roots[1:], g_nums):
        mean = values[top] / mean_den
        rho = {v: (g_num[v] - mean * d) / mean_den for v, d in g_den.items()}
        terms = [labels.variance_of(v) * r * r for v, r in rho.items()]
        terms += [2.0 * cij * rho.get(i, 0.0) * rho.get(j, 0.0)
                  for (i, j), cij in cross.items()]
        var = math.fsum(terms)
        bound = max(mean, 0.0) * max(1.0 - mean, 0.0)
        clamped = not 0.0 <= var <= bound
        var = min(max(var, 0.0), bound)
        out[q] = QueryResult(mean, var,
                             betacalc.moment_match(Moments(mean, var)),
                             clamped)
    return out


def eval_cov(sc: ShadowedCircuit, labels: LabelTable,
             leaf_cov: Optional[Mapping[tuple[int, int], float]] = None
             ) -> QueryResult:
    """Conditioned mean and first-order variance of the staged query.

    Only ``sc.circuit`` is read: this is ``eval_cov_queries`` on its staged
    query.
    """
    q = sc.circuit.query_literal
    return eval_cov_queries(sc.circuit, (q,), labels, leaf_cov)[q]
