"""Baseline semiring parametrisations for conditioned circuit evaluation.

Three pluggable value domains instantiate the generic circuit pass
``circuit.eval_queries``:

* ``prob_semiring`` -- point probabilities with (+, *, /); the reference
  first-order-only backend;
* ``sl_semiring`` -- subjective-logic opinions with the sum / product /
  division operators and piecewise identity short-circuits.  Division is
  partial; when its applicability constraints fail, the vacuous opinion
  <0, 0, 1, 0.5> is substituted;
* ``mm_semiring`` -- (mean, variance) moment pairs propagated under an
  independence assumption, with a single beta moment-matching step applied
  to the final conditioned value (not per node).

Conditioning divides a query's joint with the evidence by the evidence.
One pass gives the evidence and every query's joint, which recomputes
only the ancestors of its negated-query leaves, forced to the additive
identity.

Neither the opinion calculus nor moment propagation forms a true semiring:
their uncertainty components are order-dependent, so the fold order over
children is fixed to file order for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import betacalc
from .betacalc import BetaLabel, Moments, Opinion, QueryResult
from .circuit import Circuit, LabelTable, eval_queries, query_literals


class InconsistentEvidenceError(ValueError):
    """The evidence has probability zero under the labels."""


VACUOUS_OPINION = Opinion(0.0, 0.0, 1.0, 0.5)
SL_ZERO = Opinion(0.0, 1.0, 0.0, 0.0)   # certain-false: additive identity
SL_ONE = Opinion(1.0, 0.0, 0.0, 1.0)    # certain-true: multiplicative identity


@dataclass(frozen=True)
class SemiringSpec:
    """Operator bundle for one AMC-conditioning parametrisation."""

    name: str
    zero: object
    one: object
    plus: Callable
    times: Callable
    divide: Callable
    from_label: Callable[[BetaLabel], object]
    to_label: Callable[[object], BetaLabel]
    mean_of: Callable[[object], float]

    def result(self, value: object) -> QueryResult:
        """A conditional value's answer: its mean and its label's variance."""
        label = self.to_label(value)
        return QueryResult(self.mean_of(value), label.variance, label)


# ---------------------------------------------------------------------
# Point probabilities
# ---------------------------------------------------------------------

def _prob_divide(a: float, b: float) -> float:
    if b == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    return a / b


def prob_semiring() -> SemiringSpec:
    """Standard (+, *, /) on non-negative reals; labels enter as means."""
    return SemiringSpec(
        name="prob",
        zero=0.0,
        one=1.0,
        plus=lambda a, b: a + b,
        times=lambda a, b: a * b,
        divide=_prob_divide,
        from_label=lambda lab: lab.mean,
        to_label=lambda v: betacalc.moment_match(Moments(v, 0.0)),
        mean_of=lambda v: v,
    )


# ---------------------------------------------------------------------
# Subjective-logic opinions
# ---------------------------------------------------------------------

def _is_sl_zero(x: Opinion) -> bool:
    # Both identities have u = 0; most opinions fail that first, cheap test.
    return x.uncertainty == 0.0 and x == SL_ZERO


def _is_sl_one(x: Opinion) -> bool:
    return x.uncertainty == 0.0 and x == SL_ONE


def _sl_plus(a: Opinion, b: Opinion) -> Opinion:
    if _is_sl_zero(a):
        return b
    if _is_sl_zero(b):
        return a
    return betacalc.sl_sum(a, b)


def _sl_times(a: Opinion, b: Opinion) -> Opinion:
    if _is_sl_one(a):
        return b
    if _is_sl_one(b):
        return a
    if _is_sl_zero(a) or _is_sl_zero(b):
        return SL_ZERO
    return betacalc.sl_product(a, b)


def _sl_divide(a: Opinion, b: Opinion) -> Opinion:
    if _is_sl_zero(b):
        raise InconsistentEvidenceError("inconsistent evidence")
    if _is_sl_one(b):
        return a
    if a == b:
        # Query implied by the evidence: conditional is certainly true.
        return SL_ONE
    result = betacalc.sl_division(a, b)
    return result if result is not None else VACUOUS_OPINION


def sl_semiring() -> SemiringSpec:
    """Opinion-valued parametrisation with identity short-circuits."""
    return SemiringSpec(
        name="sl",
        zero=SL_ZERO,
        one=SL_ONE,
        plus=_sl_plus,
        times=_sl_times,
        divide=_sl_divide,
        from_label=betacalc.to_opinion,
        to_label=betacalc.from_opinion,
        mean_of=lambda v: v.projected,
    )


# ---------------------------------------------------------------------
# Moment propagation
# ---------------------------------------------------------------------

MM_ZERO = Moments(0.0, 0.0)
MM_ONE = Moments(1.0, 0.0)


def _mm_divide(a: Moments, b: Moments) -> Moments:
    if b.mean == 0.0:
        raise InconsistentEvidenceError("inconsistent evidence")
    if b == MM_ONE:
        return a
    if a.mean == b.mean and a.variance == b.variance:
        # Query coincides with the evidence: conditional is certainly true.
        return MM_ONE
    return betacalc.mm_division(a, b)


def mm_semiring() -> SemiringSpec:
    """Moment-pair parametrisation.

    Intermediate values stay raw (mean, variance) pairs; ``to_label``
    performs the single moment-matching step (which falls back to the prior
    floors when the variance reaches the [0,1]-support bound).
    """
    return SemiringSpec(
        name="mm",
        zero=MM_ZERO,
        one=MM_ONE,
        plus=betacalc.mm_sum,
        times=betacalc.mm_product,
        divide=_mm_divide,
        from_label=lambda lab: lab.moments(),
        to_label=betacalc.moment_match,
        mean_of=lambda v: v.mean,
    )


# ---------------------------------------------------------------------
# Conditioned evaluation
# ---------------------------------------------------------------------

def conditioned_eval_queries(c: Circuit, spec: SemiringSpec,
                             labels: LabelTable, queries: Iterable[int]
                             ) -> dict[int, object]:
    """Conditional value of each query given the evidence carried by ``c``.

    ``c``'s staged query, if any, is ignored; ``queries`` are query
    literals.  One ``eval_queries`` call gives the evidence and every
    query's joint, converting each leaf's label once, and each query
    adds one division, which raises InconsistentEvidenceError when the
    evidence evaluates to the additive identity.
    """
    ev, joints = eval_queries(
        c, query_literals(c, queries), spec.zero, spec.one, spec.plus,
        spec.times, lambda lit: spec.from_label(labels.label_of(lit)))
    return {q: spec.divide(joint, ev) for q, joint in joints.items()}


def conditioned_eval(c: Circuit, spec: SemiringSpec, labels: LabelTable):
    """Conditional label of the staged query given the staged evidence.

    ``conditioned_eval_queries`` on the query set by ``set_condition``.
    """
    if c.query_literal is None:
        raise ValueError("circuit has no staged query; call set_condition first")
    q = c.query_literal
    return conditioned_eval_queries(c, spec, labels, (q,))[q]
