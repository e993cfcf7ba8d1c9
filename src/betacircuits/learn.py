"""Bayesian learning of leaf labels from complete observations.

Observations are a rows x variables boolean matrix.  Each probabilistic
variable is learned independently: with r positive and s negative
observations and a Beta(W a, W (1 - a)) prior, the posterior is
Beta(r + W a, s + W (1 - a)).  Because every row of a complete matrix
assigns every variable, the per-variable likelihoods factorize and the
posteriors stay independent of each other -- which is why the emitted leaf
covariance, a mapping of variable pairs as ``cpb.parse_leaf_cov`` returns
one, is empty (each variable's own variance is in its label).
Both functions import numpy when called, not with the module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .betacalc import DEFAULT_BASE_RATE, DEFAULT_PRIOR_WEIGHT, BetaLabel
from .circuit import LabelTable

if TYPE_CHECKING:
    import numpy as np


def fit_complete(data: np.ndarray,
                 variables: Optional[Sequence[int]] = None,
                 tied_groups: Sequence[Sequence[int]] = (),
                 ) -> tuple[LabelTable, dict[tuple[int, int], float]]:
    """Posterior labels for each column of a complete boolean matrix.

    ``data`` is a rows x columns boolean array (or anything
    ``numpy.asarray`` makes one of); each column's positive count is its
    variable's r.  ``variables`` gives the circuit variable id of each
    column (default: columns are variables 1..columns).  ``tied_groups``
    lists variable groups that share one parameter: their counts are
    pooled and every member receives the pooled posterior.

    Returns the labels and the leaf covariance ``{}``: complete
    observations keep the posteriors independent, so no pair of variables
    has an entry.
    """
    import numpy as np

    data = np.asarray(data)
    if data.ndim != 2 or data.dtype != bool:
        raise ValueError("observations must be a 2-D boolean array "
                         f"(rows x variables), got {data.ndim}-D {data.dtype}")
    n_rows, n_cols = data.shape
    if variables is None:
        variables = range(1, n_cols + 1)
    if len(variables) != n_cols:
        raise ValueError("one variable id per dataset column required")
    positives = dict(zip(variables, data.sum(axis=0).tolist()))

    table = LabelTable()
    for v, r in positives.items():
        table.set(v, _posterior(r, n_rows - r))
    for group in tied_groups:
        r = sum(positives[v] for v in group)
        pooled = _posterior(r, len(group) * n_rows - r)
        for v in group:
            table.set(v, pooled)
    return table, {}


def _posterior(r: int, s: int) -> BetaLabel:
    return BetaLabel(r + DEFAULT_PRIOR_WEIGHT * DEFAULT_BASE_RATE,
                     s + DEFAULT_PRIOR_WEIGHT * (1.0 - DEFAULT_BASE_RATE))


def sample_observations(probs: Mapping[int, float],
                        n_ins: int,
                        rng: np.random.Generator | int | None = None,
                        ) -> tuple[np.ndarray, list[int]]:
    """Draw ``n_ins`` i.i.d. complete rows from ground-truth probabilities.

    ``probs`` maps variable id -> probability.  Returns the ``n_ins`` x
    variables boolean matrix and the column-to-variable mapping (the
    sorted variable ids).  Deterministic for a fixed seed.
    """
    import numpy as np

    variables = sorted(probs)
    p = np.array([probs[v] for v in variables], dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("ground-truth probabilities must lie in (0,1)")
    return np.random.default_rng(rng).random((n_ins, len(p))) < p, variables
