"""Baseline semiring parametrisations for conditioned circuit evaluation.

Three pluggable value domains instantiate the generic circuit sweep:

* ``prob_semiring`` -- point probabilities with (+, *, /); the reference
  first-order-only backend;
* ``sl_semiring`` -- subjective-logic opinions with the sum / product /
  division operators and piecewise identity short-circuits.  Division is
  partial; when its applicability constraints fail, the vacuous opinion
  <0, 0, 1, 0.5> is substituted;
* ``mm_semiring`` -- (mean, variance) moment pairs propagated under an
  independence assumption, with a single beta moment-matching step applied
  to the final conditioned value (not per node).

Conditioning evaluates the circuit twice: once with the negated-query
leaves forced to the additive identity (yielding the joint of query and
evidence) and once as-is (yielding the evidence), then divides.

Neither the opinion calculus nor moment propagation forms a true semiring:
their uncertainty components are order-dependent, so the fold order over
children is fixed to file order for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import betacalc
from .betacalc import BetaLabel, Moments, Opinion
from .circuit import Circuit, LabelTable, eval_circuit


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
    is_zero: Callable[[object], bool]
    to_label: Callable[[object], BetaLabel]
    mean_of: Callable[[object], float]


# ---------------------------------------------------------------------
# Point probabilities
# ---------------------------------------------------------------------

def _prob_divide(a: float, b: float) -> float:
    if b == 0.0:
        raise InconsistentEvidenceError("zero-probability evidence")
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
        is_zero=lambda v: v == 0.0,
        to_label=lambda v: betacalc.moment_match(Moments(v, 0.0)),
        mean_of=lambda v: v,
    )


# ---------------------------------------------------------------------
# Subjective-logic opinions
# ---------------------------------------------------------------------

def _sl_is_zero(x: Opinion) -> bool:
    # Both identities have u = 0; most opinions fail that first, cheap test.
    return x.uncertainty == 0.0 and x == SL_ZERO


def _sl_is_one(x: Opinion) -> bool:
    return x.uncertainty == 0.0 and x == SL_ONE


def _sl_plus(a: Opinion, b: Opinion) -> Opinion:
    if _sl_is_zero(a):
        return b
    if _sl_is_zero(b):
        return a
    return betacalc.sl_sum(a, b)


def _sl_times(a: Opinion, b: Opinion) -> Opinion:
    if _sl_is_one(a):
        return b
    if _sl_is_one(b):
        return a
    if _sl_is_zero(a) or _sl_is_zero(b):
        return SL_ZERO
    return betacalc.sl_product(a, b)


def _sl_divide(a: Opinion, b: Opinion) -> Opinion:
    if _sl_is_zero(b):
        raise InconsistentEvidenceError("zero-probability evidence")
    if _sl_is_one(b):
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
        is_zero=_sl_is_zero,
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
        raise InconsistentEvidenceError("zero-probability evidence")
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
        is_zero=lambda v: v.mean == 0.0,
        to_label=betacalc.moment_match,
        mean_of=lambda v: v.mean,
    )


# ---------------------------------------------------------------------
# Conditioned evaluation
# ---------------------------------------------------------------------

def evaluate(c: Circuit, spec: SemiringSpec, labels: LabelTable,
             zero_literals: frozenset[int] = frozenset()):
    """One lambda-aware sweep in the given semiring."""
    return eval_circuit(
        c, spec.zero, spec.one, spec.plus, spec.times,
        leaf_value=lambda lit: spec.from_label(labels.label_of(lit)),
        zero_literals=zero_literals)


def conditioned_eval(c: Circuit, spec: SemiringSpec, labels: LabelTable):
    """Conditional label of the staged query given the staged evidence.

    Computes the joint pass (negated-query leaves forced to the additive
    identity) and the evidence pass, and divides.  Requires a query set by
    ``set_condition``; raises InconsistentEvidenceError when the evidence
    evaluates to the additive identity.
    """
    if c.query_literal is None:
        raise ValueError("circuit has no staged query; call set_condition first")
    joint = evaluate(c, spec, labels,
                     zero_literals=frozenset((-c.query_literal,)))
    ev = evaluate(c, spec, labels)
    if spec.is_zero(ev):
        raise InconsistentEvidenceError("inconsistent evidence")
    return spec.divide(joint, ev)
