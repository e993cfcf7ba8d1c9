"""Dense O(n^2) covariance reference for the CPB evaluator.

``moment_sweep`` propagates every node's mean and its covariance row
against every other node of a shadowed circuit (cov[n,z] = sum_c w_c
cov[c,z], with the gate weights of ``cpb._gate``).  It yields the same
first-order moments as ``cpb.eval_cov``'s gradient form, and lets the
tests inspect the covariance of any two nodes.

``conditioned_moments`` conditions on the dense matrix with the
three-term delta formula over var[X], var[Y] and cov[X, Y], a different
algebra from the ratio gradient that ``cpb.eval_cov`` uses.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from betacircuits.circuit import CircuitNode, LabelTable
from betacircuits.cpb import (LeafCovariance, ShadowedCircuit, _gate,
                              _leaf_means, _stochastic_leaves)
from betacircuits.semirings import InconsistentEvidenceError


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

    means[:len(c)] = _leaf_means(c, labels)
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
    num, den = sc.shadow_root, sc.base_root
    mx, my = float(means[num]), float(means[den])
    if my == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    mean = mx / my
    var = (float(cov[num, num]) / my ** 2
           + mx ** 2 * float(cov[den, den]) / my ** 4
           - 2.0 * mx * float(cov[num, den]) / my ** 3)
    bound = max(mean, 0.0) * max(1.0 - mean, 0.0)
    return mean, min(max(var, 0.0), bound)
