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

from .betacalc import (DEFAULT_BASE_RATE, DEFAULT_PRIOR_WEIGHT, BetaLabel)
from .circuit import CircuitError, LabelTable
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
                 base_rate: float = DEFAULT_BASE_RATE,
                 prior_weight: float = DEFAULT_PRIOR_WEIGHT,
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
    col_of = {v: i for i, v in enumerate(variables)}

    table = LabelTable()
    for v in variables:
        r, s = data.counts(col_of[v])
        table.set(v, _posterior(r, s, base_rate, prior_weight))
    for group in tied_groups:
        r = sum(data.counts(col_of[v])[0] for v in group)
        s = sum(data.counts(col_of[v])[1] for v in group)
        pooled = _posterior(r, s, base_rate, prior_weight)
        for v in group:
            table.set(v, pooled)
    return table, LeafCovariance()


def _posterior(r: int, s: int, base_rate: float, prior_weight: float) -> BetaLabel:
    return BetaLabel(r + prior_weight * base_rate,
                     s + prior_weight * (1.0 - base_rate),
                     base_rate, prior_weight)


def sample_observations(probs: Mapping[int, float] | Sequence[float],
                        n_ins: int,
                        rng: np.random.Generator | int | None = None,
                        ) -> tuple[Dataset, list[int]]:
    """Draw ``n_ins`` i.i.d. complete rows from ground-truth probabilities.

    ``probs`` is either a mapping variable id -> probability or a plain
    sequence (then variables are 1..len).  Returns the dataset and the
    column-to-variable mapping.  Deterministic for a fixed seed.
    """
    import numpy as np

    if isinstance(probs, Mapping):
        variables = sorted(probs)
        p = np.array([probs[v] for v in variables], dtype=float)
    else:
        p = np.asarray(probs, dtype=float)
        variables = list(range(1, len(p) + 1))
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("ground-truth probabilities must lie in (0,1)")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    draws = rng.random((n_ins, len(p))) < p
    rows = tuple(tuple(bool(x) for x in row) for row in draws)
    return Dataset(len(p), rows), variables


# ---------------------------------------------------------------------
# Dataset file format
# ---------------------------------------------------------------------

def parse_dataset(text: str) -> Dataset:
    """Parse ``vars <n>`` header followed by space-separated 0/1 rows."""
    lines = [ln.strip() for ln in text.splitlines()]
    content = [(i + 1, ln) for i, ln in enumerate(lines)
               if ln and not ln.startswith("#")]
    if not content:
        raise CircuitError("empty dataset")
    lineno, header = content[0]
    toks = header.split()
    if len(toks) != 2 or toks[0] != "vars":
        raise CircuitError(f"dataset line {lineno}: malformed header {header!r}")
    n = int(toks[1])
    rows = []
    for lineno, ln in content[1:]:
        vals = ln.split()
        if len(vals) != n or any(v not in ("0", "1") for v in vals):
            raise CircuitError(f"dataset line {lineno}: expected {n} 0/1 values")
        rows.append(tuple(v == "1" for v in vals))
    return Dataset(n, tuple(rows))


def format_dataset(data: Dataset) -> str:
    out = [f"vars {data.var_count}"]
    for row in data.rows:
        out.append(" ".join("1" if v else "0" for v in row))
    return "\n".join(out) + "\n"
