"""Beta-distributed labels, subjective-logic opinions, and moment arithmetic.

A label on a circuit leaf is a beta distribution over the (unknown)
probability of that leaf.  Three interchangeable views of the same object
are used throughout the library:

* ``BetaLabel`` -- the beta parameters ``(alpha_pos, alpha_neg)`` together
  with a base rate ``a`` and a prior weight ``W``;
* ``Opinion`` -- the subjective-logic triangle coordinates
  ``(belief, disbelief, uncertainty, base_rate)`` (Josang, 2016);
* ``Moments`` -- the first two central moments ``(mean, variance)``.

The conversions are the standard bijections

    b = (alpha_pos - W a) / s,   d = (alpha_neg - W (1 - a)) / s,
    u = W / s,                   s = alpha_pos + alpha_neg,

with inverse ``alpha = ((W/u) b + W a, (W/u) d + W (1 - a))``.

This module also provides the pairwise operators used by the two baseline
uncertainty calculi:

* ``sl_sum`` / ``sl_product`` / ``sl_division`` -- the subjective-logic
  operators for the union of mutually exclusive events, the conjunction of
  independent events, and the "un-conjunction" (conditioning division)
  (Josang, 2016, chs. 6 and 7);
* ``mm_sum`` / ``mm_product`` / ``mm_division`` -- exact (sum, product) and
  first-order (division) moment propagation under the assumption that the
  operands are independent.

Certain truth is representable: a label with infinite strength collapses to
a point mass at 0 or 1.  Rather than storing infinite parameters, such
labels carry a ``certain`` tag so all arithmetic stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

DEFAULT_BASE_RATE = 0.5
DEFAULT_PRIOR_WEIGHT = 2.0

#: Absolute tolerance for the opinion simplex constraint b + d + u = 1.
#: Loose enough to survive decimal file round-trips.
SIMPLEX_TOL = 1e-9

#: Strength cap used when moment matching a (near) zero-variance result at
#: an interior mean: no finite beta has variance 0, so the fit saturates.
MAX_STRENGTH = 1e12


@dataclass(frozen=True)
class Moments:
    """First two moments of a [0,1]-supported random variable.

    ``variance <= mean (1 - mean)`` holds for any true [0,1] variable, but
    intermediate values produced by the moment-propagation operators may
    violate the bound (they are approximations); it is therefore not
    enforced here.  Final, user-facing results are clamped before beta
    fitting.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"non-finite mean {self.mean}")
        if not math.isfinite(self.variance) or self.variance < 0.0:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class Opinion:
    """A binomial subjective-logic opinion <belief, disbelief, uncertainty, base_rate>.

    The simplex constraint ``b + d + u = 1`` is enforced (within
    ``SIMPLEX_TOL``).  Individual coordinates are *not* range-checked:
    the sum/division operators can push intermediate opinions slightly
    outside the triangle, and the calculus remains well defined as long
    as the simplex constraint holds.
    """

    belief: float
    disbelief: float
    uncertainty: float
    base_rate: float

    def __post_init__(self) -> None:
        total = self.belief + self.disbelief + self.uncertainty
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"opinion coordinates sum to {total}, expected 1")

    @property
    def projected(self) -> float:
        """Projected probability p = b + u * a."""
        return self.belief + self.uncertainty * self.base_rate


@dataclass(frozen=True)
class BetaLabel:
    """A beta-distributed random variable Beta(alpha_pos, alpha_neg).

    ``base_rate`` and ``prior_weight`` record the prior used when the label
    was constructed; they drive the opinion mapping and the floors used in
    moment matching.  ``certain`` tags the two infinite-strength point
    masses (True for a point mass at 1, False for a point mass at 0); for
    those the alpha fields are ignored.
    """

    alpha_pos: float
    alpha_neg: float
    base_rate: float = DEFAULT_BASE_RATE
    prior_weight: float = DEFAULT_PRIOR_WEIGHT
    certain: Optional[bool] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.base_rate < 1.0:
            raise ValueError(f"base_rate must be in (0,1), got {self.base_rate}")
        if not 0.0 < self.prior_weight < math.inf:
            raise ValueError(f"prior_weight must be finite and > 0, got "
                             f"{self.prior_weight}")
        if self.certain is None:
            # A finite sum keeps the mean alpha_pos / (alpha_pos + alpha_neg)
            # from reading 0 for the label and for its complement.
            if not (0.0 < self.alpha_pos and 0.0 < self.alpha_neg
                    and self.alpha_pos + self.alpha_neg < math.inf):
                raise ValueError(
                    f"alpha parameters must be > 0 with a finite sum, got "
                    f"({self.alpha_pos}, {self.alpha_neg})"
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def certain_true(cls, base_rate: float = DEFAULT_BASE_RATE,
                     prior_weight: float = DEFAULT_PRIOR_WEIGHT) -> "BetaLabel":
        """Point mass at 1 (infinite strength)."""
        return cls(1.0, 1.0, base_rate, prior_weight, certain=True)

    @classmethod
    def certain_false(cls, base_rate: float = DEFAULT_BASE_RATE,
                      prior_weight: float = DEFAULT_PRIOR_WEIGHT) -> "BetaLabel":
        """Point mass at 0 (infinite strength)."""
        return cls(1.0, 1.0, base_rate, prior_weight, certain=False)

    # -- accessors ----------------------------------------------------

    @property
    def strength(self) -> float:
        """Dirichlet strength s = alpha_pos + alpha_neg (inf for point masses)."""
        if self.certain is not None:
            return math.inf
        return self.alpha_pos + self.alpha_neg

    @property
    def mean(self) -> float:
        if self.certain is not None:
            return 1.0 if self.certain else 0.0
        return self.alpha_pos / (self.alpha_pos + self.alpha_neg)

    @property
    def variance(self) -> float:
        if self.certain is not None:
            return 0.0
        m = self.mean
        return m * (1.0 - m) / (self.strength + 1.0)

    def complement(self) -> "BetaLabel":
        """The label of the complementary event: Beta(alpha_neg, alpha_pos).

        Complement means sum to 1, and cov[X, 1-X] = -var[X] by
        construction (the complement is the same random variable flipped).
        """
        if self.certain is not None:
            return BetaLabel(1.0, 1.0, 1.0 - self.base_rate, self.prior_weight,
                             certain=not self.certain)
        return BetaLabel(self.alpha_neg, self.alpha_pos,
                         1.0 - self.base_rate, self.prior_weight)

    def moments(self) -> Moments:
        """Mean and variance of the label.

        mean = alpha_pos / s, variance = mean (1 - mean) / (s + 1).
        The certain-true sentinel returns (1, 0), certain-false (0, 0).
        """
        return Moments(self.mean, self.variance)


@dataclass
class QueryResult:
    """One query's answer: mean, variance and the backend's matched beta."""

    mean: float
    variance: float
    matched: BetaLabel
    variance_clamped: bool = False


# ---------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------


def to_opinion(label: BetaLabel) -> Opinion:
    """Map a beta label to its subjective-logic opinion."""
    if label.certain is not None:
        if label.certain:
            return Opinion(1.0, 0.0, 0.0, label.base_rate)
        return Opinion(0.0, 1.0, 0.0, label.base_rate)
    s = label.strength
    w = label.prior_weight
    a = label.base_rate
    b = (label.alpha_pos - w * a) / s
    d = (label.alpha_neg - w * (1.0 - a)) / s
    return Opinion(b, d, 1.0 - b - d, a)


def from_opinion(op: Opinion) -> BetaLabel:
    """Map an opinion back to a beta label of the default prior weight.

    A dogmatic opinion (u = 0) has no finite-strength beta; the two
    absorbing cases b = 1 and d = 1 map to the certain sentinels, anything
    else is rejected.  An absorbing opinion's base rate of 0 or 1 (the
    opinion calculus' identities) is outside a label's (0, 1) and is
    replaced by the default.
    """
    if op.uncertainty <= 0.0:
        base = (op.base_rate if 0.0 < op.base_rate < 1.0
                else DEFAULT_BASE_RATE)
        if op.belief >= 1.0 - SIMPLEX_TOL:
            return BetaLabel.certain_true(base)
        if op.disbelief >= 1.0 - SIMPLEX_TOL:
            return BetaLabel.certain_false(base)
        raise ValueError(
            f"dogmatic opinion with interior belief {op.belief} has no "
            f"finite beta representation"
        )
    w = DEFAULT_PRIOR_WEIGHT
    ratio = w / op.uncertainty
    a = op.base_rate
    return BetaLabel(ratio * op.belief + w * a,
                     ratio * op.disbelief + w * (1.0 - a),
                     a, w)


def moment_match(m: Moments) -> BetaLabel:
    """Fit a beta label of the default prior to a (mean, variance) pair.

    The fitted Dirichlet strength is

        s = max{ mean (1 - mean) / variance - 1,
                 W a / mean,
                 W (1 - a) / (1 - mean) }

    so the result never undercuts the prior floors alpha_pos >= W a and
    alpha_neg >= W (1 - a).  When the variance reaches or exceeds the
    [0,1]-support bound mean (1 - mean), the first term would be
    nonpositive, so the strength falls back to the floor terms alone.
    A mean of exactly 0 or 1 yields the corresponding certain sentinel.
    """
    mean = m.mean
    if mean <= 0.0:
        return BetaLabel.certain_false()
    if mean >= 1.0:
        return BetaLabel.certain_true()
    w = DEFAULT_PRIOR_WEIGHT
    a = DEFAULT_BASE_RATE
    floors = max(w * a / mean, w * (1.0 - a) / (1.0 - mean))
    bound = mean * (1.0 - mean)
    if m.variance <= 0.0:
        s = MAX_STRENGTH
    elif m.variance >= bound:
        s = floors
    else:
        s = max(bound / m.variance - 1.0, floors)
        s = min(s, MAX_STRENGTH)
    return BetaLabel(mean * s, (1.0 - mean) * s)


# ---------------------------------------------------------------------
# Subjective-logic operators (Josang, 2016)
# ---------------------------------------------------------------------

def sl_sum(x: Opinion, y: Opinion) -> Opinion:
    """Opinion about the union of two mutually exclusive events.

    Projected probabilities add: p(x or y) = p(x) + p(y).
    """
    ax, ay = x.base_rate, y.base_rate
    asum = ax + ay
    b = x.belief + y.belief
    d = (ax * (x.disbelief - y.belief) + ay * (y.disbelief - x.belief)) / asum
    return Opinion(b, d, 1.0 - b - d, asum)


def sl_product(x: Opinion, y: Opinion) -> Opinion:
    """Opinion about the conjunction of two independent events.

    Projected probabilities multiply: p(x and y) = p(x) p(y).
    """
    ax, ay = x.base_rate, y.base_rate
    denom = 1.0 - ax * ay
    b = (x.belief * y.belief
         + ((1.0 - ax) * ay * x.belief * y.uncertainty
            + ax * (1.0 - ay) * x.uncertainty * y.belief) / denom)
    d = x.disbelief + y.disbelief - x.disbelief * y.disbelief
    return Opinion(b, d, 1.0 - b - d, ax * ay)


def sl_division(x: Opinion, y: Opinion) -> Optional[Opinion]:
    """Opinion about the un-conjunction of x by y (conditioning division).

    Inverse of ``sl_product``: if z = sl_division(x, y) exists then
    p(z) = p(x) / p(y).  The operator is partial; it is only defined when

    * a_X < a_Y and d_X >= d_Y,
    * b_X >= a_X (1 - a_Y)(1 - d_X) b_Y / ((1 - a_X) a_Y (1 - d_Y)),
    * u_X >= (1 - a_Y)(1 - d_X) u_Y / ((1 - a_X)(1 - d_Y)).

    Returns None when any constraint fails (including degenerate
    denominators); callers substitute the vacuous opinion.
    """
    ax, ay = x.base_rate, y.base_rate
    if not ax < ay:
        return None
    if x.disbelief < y.disbelief:
        return None
    if y.disbelief >= 1.0 or ax >= 1.0:
        return None
    if x.belief < (ax * (1.0 - ay) * (1.0 - x.disbelief) * y.belief
                   / ((1.0 - ax) * ay * (1.0 - y.disbelief))):
        return None
    if x.uncertainty < ((1.0 - ay) * (1.0 - x.disbelief) * y.uncertainty
                        / ((1.0 - ax) * (1.0 - y.disbelief))):
        return None
    py_mass = y.belief + ay * y.uncertainty
    if py_mass <= 0.0:
        return None
    gap = ay - ax
    b = (ay * (x.belief + ax * x.uncertainty) / (gap * py_mass)
         - ax * (1.0 - x.disbelief) / (gap * (1.0 - y.disbelief)))
    d = (x.disbelief - y.disbelief) / (1.0 - y.disbelief)
    try:
        return Opinion(b, d, 1.0 - b - d, ax / ay)
    except ValueError:
        return None


# ---------------------------------------------------------------------
# Moment-propagation operators (independence assumed)
# ---------------------------------------------------------------------

def mm_sum(x: Moments, y: Moments) -> Moments:
    """Moments of X + Y for independent X, Y: means and variances add."""
    return Moments(x.mean + y.mean, x.variance + y.variance)


def mm_product(x: Moments, y: Moments) -> Moments:
    """Moments of X * Y for independent X, Y (exact).

    var[XY] = var[X] E[Y]^2 + var[Y] E[X]^2 + var[X] var[Y].
    """
    v = (x.variance * y.mean * y.mean
         + y.variance * x.mean * x.mean
         + x.variance * y.variance)
    return Moments(x.mean * y.mean, v)


def _square(m: float, name: str) -> float:
    sq = m * m
    if sq == 0.0:
        raise ArithmeticError(f"division: {name}={m!r} squared underflows to 0")
    return sq


def mm_division(x: Moments, y: Moments) -> Moments:
    """Moments of the conditioning division of X by Y.

    Here Y plays the role of an evidence total Y = X + M with M the
    mutually exclusive remainder, so E[Y] > E[X] is required.  The mean is
    exact, E[Z] = E[X]/E[Y]; the variance is the first-order expansion of
    Z = X / (X + M) with var[M] = var[Y] + var[X] (independence):

        var[Z] = E[Z]^2 (1 - E[Z])^2 ( var[X]/E[X]^2
                 + (var[Y] + var[X])/(E[Y] - E[X])^2
                 + 2 var[X]/(E[X] (E[Y] - E[X])) ).

    Raises ValueError when E[Y] <= E[X] (non-conditionable pair), and
    ArithmeticError when a squared mean or gap underflows to 0.
    """
    if y.mean <= x.mean:
        raise ValueError(
            f"division requires E[Y] > E[X], got E[X]={x.mean}, E[Y]={y.mean}"
        )
    if x.mean < 0.0:
        raise ValueError(f"numerator mean must be >= 0, got {x.mean}")
    mz = x.mean / y.mean
    gap = y.mean - x.mean
    if x.mean == 0.0:
        # Limit of the expression below as E[X] -> 0.
        return Moments(0.0, x.variance / _square(y.mean, "E[Y]"))
    bracket = (x.variance / _square(x.mean, "E[X]")
               + (y.variance + x.variance) / _square(gap, "E[Y] - E[X]")
               + 2.0 * x.variance / (x.mean * gap))
    v = mz * mz * (1.0 - mz) * (1.0 - mz) * bracket
    return Moments(mz, v)
