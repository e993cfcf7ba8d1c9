"""Dense O(n^2) covariance reference for the CPB evaluator.

``moment_sweep`` propagates every node's mean and its covariance row
against every other node of a shadowed circuit (cov[n,z] = sum_c w_c
cov[c,z]): the base nodes plus a shadow copy of each node that the staged
query's numerator recomputes, so that one matrix carries both roots.  The
shadow copies are the query's ``joint`` slots in ``Circuit.schedule``.
It forms its own gate means and weights: an OR's mean is the
fsum of its children's and each weight is 1; an AND's mean is their
product and each child's weight the product of the other children's
means.  It yields the same first-order moments as ``cpb.eval_cov``'s
gradient form, and lets the tests inspect the covariance of any two
nodes.

``conditioned_moments`` conditions on the dense matrix with the
three-term delta formula over var[X], var[Y] and cov[X, Y], a different
algebra from the ratio gradient that ``cpb.eval_cov`` uses.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from betacircuits.circuit import CircuitNode, LabelTable, NodeKind
from betacircuits.cpb import LeafCovariance, ShadowedCircuit
from betacircuits.semirings import InconsistentEvidenceError


def shadow_ids(sc: ShadowedCircuit) -> dict[int, int]:
    """Each node the staged query's numerator recomputes -> its shadow id.

    These are the ``joint`` slots of the query's schedule: shadow ids
    start at ``len(sc.circuit)``, in base id order.  With no negated-query
    leaf the map is empty and the shadow root is the base root.
    """
    q = sc.circuit.query_literal
    return sc.circuit.schedule((q,)).joint[q]


def moment_sweep(sc: ShadowedCircuit, labels: LabelTable,
                 leaf_cov: Optional[LeafCovariance] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Means and full covariance matrix over all base and shadow nodes.

    Row/column i of the covariance matrix belongs to node id i (shadow ids
    start at ``len(sc.circuit)``).  ``leaf_cov`` defaults to independent
    leaves (block-diagonal pattern with cov[v, not v] = -var[v] inside each
    variable's block).  All leaf covariances are filled in first; then the
    base gates and the shadow gates are swept in id order, which is
    topological for both.  Costs O(n^2) memory and time.
    """
    if leaf_cov is None:
        leaf_cov = LeafCovariance()
    c = sc.circuit
    n = sc.n_total
    means = np.zeros(n)
    cov = np.zeros((n, n))

    by_var: dict[int, list[CircuitNode]] = {}
    for node in c.nodes:
        if node.kind is NodeKind.TRUE:
            means[node.id] = 1.0
        elif node.kind is NodeKind.LITERAL and node.lam == 1:
            means[node.id] = labels.mean_of(node.literal)
            by_var.setdefault(node.var, []).append(node)
    for vi, vj in [(v, v) for v in by_var] + list(leaf_cov.cross_entries):
        for a in by_var.get(vi, ()):
            for b in by_var.get(vj, ()):
                cov[a.id, b.id] = cov[b.id, a.id] = leaf_cov.lookup(
                    labels, a.literal, b.literal)

    # The shadow copy of node b is the query's joint slot shadow[b], and
    # a shadow gate reads the shadow copy of each child that has one.  The
    # shadow leaves (the negated-query leaves) keep mean 0 and a zero row.
    shadow = shadow_ids(sc)
    gates = [(node.id, node.kind, node.children)
             for node in c.nodes if node.children]
    gates += [(sh, c.node(b).kind,
               tuple(shadow.get(ch, ch) for ch in c.node(b).children))
              for b, sh in shadow.items() if c.node(b).children]
    for nid, kind, children in gates:
        child_means = [float(means[ch]) for ch in children]
        if kind is NodeKind.OR:
            means[nid] = math.fsum(child_means)
            weights = [1.0] * len(children)
        else:
            means[nid] = math.prod(child_means)
            weights = [math.prod(child_means[:i] + child_means[i + 1:])
                       for i in range(len(children))]
        row = np.zeros(n)
        for ch, w in zip(children, weights):
            row += w * cov[ch, :]
        diag = math.fsum(w * row[ch] for ch, w in zip(children, weights))
        cov[nid, :] = row
        cov[:, nid] = row
        cov[nid, nid] = diag

    return means, cov


def conditioned_moments(sc: ShadowedCircuit, labels: LabelTable,
                        leaf_cov: Optional[LeafCovariance] = None
                        ) -> tuple[float, float]:
    """Mean and first-order variance of X/Y from the dense matrix.

    X is the shadow root and Y the base root.  The variance is the
    delta-method expansion

        var[X]/E[Y]^2 + E[X]^2 var[Y]/E[Y]^4 - 2 E[X] cov[X,Y]/E[Y]^3,

    clamped to [0, mean (1 - mean)] as ``eval_cov`` clamps its own.
    """
    means, cov = moment_sweep(sc, labels, leaf_cov)
    den = sc.circuit.root
    num = shadow_ids(sc).get(den, den)
    mx, my = float(means[num]), float(means[den])
    if my == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    mean = mx / my
    var = (float(cov[num, num]) / my ** 2
           + mx ** 2 * float(cov[den, den]) / my ** 4
           - 2.0 * mx * float(cov[num, den]) / my ** 3)
    bound = max(mean, 0.0) * max(1.0 - mean, 0.0)
    return mean, min(max(var, 0.0), bound)
