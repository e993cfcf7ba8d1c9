"""Bayesian learning of leaf labels from complete observations.

Each probabilistic variable is learned independently: with r positive and
s negative observations and a Beta(W a, W (1 - a)) prior, the posterior is
Beta(r + W a, s + W (1 - a)).  Because every row of a complete dataset
assigns every variable, the per-variable likelihoods factorize and the
posteriors stay independent of each other -- which is why the emitted leaf
covariance carries no cross-variable entries (the within-variable block
cov[v, not v] = -var[v] is implied by the labels themselves).
``sample_observations`` imports numpy when called, not with the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .betacalc import DEFAULT_BASE_RATE, DEFAULT_PRIOR_WEIGHT, BetaLabel
from .circuit import LabelTable
from .cpb import LeafCovariance

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Complete boolean observations: rows x variables."""

    var_count: int
    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != self.var_count:
                raise ValueError(
                    f"row {i} has {len(row)} values, expected {self.var_count}")

    def __len__(self) -> int:
        return len(self.rows)

    def counts(self, column: int) -> tuple[int, int]:
        """(positive, negative) observation counts of one 0-based column."""
        r = sum(1 for row in self.rows if row[column])
        return r, len(self.rows) - r


def fit_complete(data: Dataset,
                 variables: Optional[Sequence[int]] = None,
                 tied_groups: Sequence[Sequence[int]] = (),
                 ) -> tuple[LabelTable, LeafCovariance]:
    """Posterior labels for each variable of a complete dataset.

    ``variables`` gives the circuit variable id of each dataset column
    (default: columns are variables 1..var_count).  ``tied_groups`` lists
    variable groups that share one parameter: their counts are pooled and
    every member receives the pooled posterior.

    The returned leaf covariance has no cross-variable entries: complete
    observations keep the posteriors independent.
    """
    if variables is None:
        variables = list(range(1, data.var_count + 1))
    if len(variables) != data.var_count:
        raise ValueError("one variable id per dataset column required")
    counts = {v: data.counts(i) for i, v in enumerate(variables)}

    table = LabelTable()
    for v, (r, s) in counts.items():
        table.set(v, _posterior(r, s))
    for group in tied_groups:
        r = sum(counts[v][0] for v in group)
        s = sum(counts[v][1] for v in group)
        pooled = _posterior(r, s)
        for v in group:
            table.set(v, pooled)
    return table, LeafCovariance()


def _posterior(r: int, s: int) -> BetaLabel:
    return BetaLabel(r + DEFAULT_PRIOR_WEIGHT * DEFAULT_BASE_RATE,
                     s + DEFAULT_PRIOR_WEIGHT * (1.0 - DEFAULT_BASE_RATE))


def sample_observations(probs: Mapping[int, float],
                        n_ins: int,
                        rng: np.random.Generator | int | None = None,
                        ) -> tuple[Dataset, list[int]]:
    """Draw ``n_ins`` i.i.d. complete rows from ground-truth probabilities.

    ``probs`` maps variable id -> probability.  Returns the dataset and the
    column-to-variable mapping (the sorted variable ids).  Deterministic
    for a fixed seed.
    """
    import numpy as np

    variables = sorted(probs)
    p = np.array([probs[v] for v in variables], dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("ground-truth probabilities must lie in (0,1)")
    draws = np.random.default_rng(rng).random((n_ins, len(p))) < p
    rows = tuple(tuple(bool(x) for x in row) for row in draws)
    return Dataset(len(p), rows), variables

