"""Dense O(n^2) covariance reference for the CPB evaluator.

``moment_sweep`` propagates every node's mean and its covariance row
against every other node of a shadowed circuit (cov[n,z] = sum_c w_c
cov[c,z]): the base nodes plus a shadow copy of each node that the staged
query's numerator recomputes, so that one matrix carries both roots.
It forms its own gate means and weights: an OR's mean is the fsum of its
children's and each weight is 1; an AND's mean is their product and each
child's weight the product of the other children's means.  It yields the
same first-order moments as ``cpb.eval_cov``'s gradient form, and lets
the tests inspect the covariance of any two nodes.

``shadow_ids`` finds the shadowed nodes by its own walk, not from the
library's pass, and numbers them as the query's joint sweep numbers its
slots (from ``len(c)``, in id order).

``conditioned_moments`` conditions on the dense matrix with the
three-term delta formula over var[X], var[Y] and cov[X, Y], a different
algebra from the ratio gradient that ``cpb.eval_cov`` uses.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from betacircuits.circuit import CircuitNode, LabelTable, NodeKind
from betacircuits.cpb import ShadowedCircuit
from betacircuits.semirings import InconsistentEvidenceError


def shadow_ids(sc: ShadowedCircuit) -> dict[int, int]:
    """Each node the staged query's numerator recomputes -> its shadow id.

    These are the leaves of the negated query that reach the root and are
    not zeroed, and their ancestors.  Shadow ids start at
    ``len(sc.circuit)``, in base id order.  With no such leaf the map is
    empty and the shadow root is the base root.
    """
    c, q = sc.circuit, sc.circuit.query_literal
    reach = {c.root}
    for n in reversed(c.nodes):
        if n.id in reach:
            reach.update(n.children)
    dirty: set[int] = set()
    for n in c.nodes:
        if n.id not in reach:
            continue
        if (n.kind is NodeKind.LITERAL and n.literal == -q
                and n.literal not in c.zeroed):
            dirty.add(n.id)
        elif not dirty.isdisjoint(n.children):
            dirty.add(n.id)
    return {b: len(c) + k for k, b in enumerate(sorted(dirty))}


def moment_sweep(sc: ShadowedCircuit, labels: LabelTable,
                 leaf_cov: Optional[Mapping[tuple[int, int], float]] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Means and full covariance matrix over all base and shadow nodes.

    Row/column i of the covariance matrix belongs to node id i (shadow ids
    start at ``len(sc.circuit)``).  ``leaf_cov`` maps a variable pair
    (i, j), i < j, to cov[theta_i, theta_j]; it defaults to independent
    leaves.  Two leaves of one variable take its label variance, and two
    of a pair in ``leaf_cov`` that pair's entry, each negated once per
    negative literal (its leaf carries 1 - theta): so inside a variable's
    block cov[v, not v] = -var[v].  All leaf covariances are filled in
    first; then the base gates and the shadow gates are swept in id order,
    which is topological for both.  Costs O(n^2) memory and time.
    """
    c = sc.circuit
    n = sc.n_total
    means = np.zeros(n)
    cov = np.zeros((n, n))

    by_var: dict[int, list[CircuitNode]] = {}
    for node in c.nodes:
        if node.kind is NodeKind.TRUE:
            means[node.id] = 1.0
        elif node.kind is NodeKind.LITERAL and node.literal not in c.zeroed:
            means[node.id] = labels.mean_of(node.literal)
            by_var.setdefault(node.var, []).append(node)
    blocks = [(v, v, labels.variance_of(v)) for v in by_var]
    blocks += [(vi, vj, cij) for (vi, vj), cij in (leaf_cov or {}).items()]
    for vi, vj, value in blocks:
        for a in by_var.get(vi, ()):
            for b in by_var.get(vj, ()):
                sign = 1.0 if (a.literal > 0) == (b.literal > 0) else -1.0
                cov[a.id, b.id] = cov[b.id, a.id] = sign * value

    # The shadow copy of node b is node shadow[b], and
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
                        leaf_cov: Optional[Mapping[tuple[int, int],
                                                   float]] = None
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
