"""Tests for the beta/opinion/moment calculus."""

import math
import random

import pytest

from betacircuits.betacalc import (
    DEFAULT_BASE_RATE, BetaLabel, Moments, Opinion, MAX_STRENGTH,
    from_opinion, mm_division, mm_product, mm_sum, moment_match,
    sl_division, sl_product, sl_sum, to_opinion)


def approx_opinion(op, b, d, u, a, tol=1e-12):
    assert op.belief == pytest.approx(b, abs=tol)
    assert op.disbelief == pytest.approx(d, abs=tol)
    assert op.uncertainty == pytest.approx(u, abs=tol)
    assert op.base_rate == pytest.approx(a, abs=tol)


class TestConversions:
    def test_beta_to_opinion_worked_values(self):
        # Classic associative-table conversions with W=2, a=0.5.
        approx_opinion(to_opinion(BetaLabel(2, 18)), 0.05, 0.85, 0.10, 0.50)
        approx_opinion(to_opinion(BetaLabel(18, 2)), 0.85, 0.05, 0.10, 0.50)
        approx_opinion(to_opinion(BetaLabel(2, 8)), 0.10, 0.70, 0.20, 0.50)
        approx_opinion(to_opinion(BetaLabel(8, 2)), 0.70, 0.10, 0.20, 0.50)
        approx_opinion(to_opinion(BetaLabel(3.5, 1.5)), 0.50, 0.10, 0.40, 0.50)
        approx_opinion(to_opinion(BetaLabel(1.5, 3.5)), 0.10, 0.50, 0.40, 0.50)

    def test_certain_sentinels_to_opinion(self):
        approx_opinion(to_opinion(BetaLabel.certain_true()), 1, 0, 0, 0.5)
        approx_opinion(to_opinion(BetaLabel.certain_false()), 0, 1, 0, 0.5)

    def test_round_trip_beta_opinion(self):
        rng = random.Random(0)
        for _ in range(500):
            ap = rng.uniform(1.01, 50.0)
            an = rng.uniform(1.01, 50.0)
            lab = BetaLabel(ap, an)
            back = from_opinion(to_opinion(lab))
            assert back.alpha_pos == pytest.approx(ap, rel=1e-12)
            assert back.alpha_neg == pytest.approx(an, rel=1e-12)

    def test_projected_probability_equals_mean(self):
        rng = random.Random(1)
        for _ in range(200):
            lab = BetaLabel(rng.uniform(1.1, 30), rng.uniform(1.1, 30))
            assert to_opinion(lab).projected == pytest.approx(lab.mean,
                                                              abs=1e-12)

    def test_moments_of(self):
        m = BetaLabel(2, 18).moments()
        assert m.mean == pytest.approx(0.1)
        assert m.variance == pytest.approx(0.1 * 0.9 / 21)
        assert BetaLabel.certain_true().moments() == Moments(1.0, 0.0)
        assert BetaLabel.certain_false().moments() == Moments(0.0, 0.0)

    def test_dogmatic_opinion_rejected_unless_absorbing(self):
        assert from_opinion(Opinion(1, 0, 0, 0.5)).certain is True
        assert from_opinion(Opinion(0, 1, 0, 0.5)).certain is False
        with pytest.raises(ValueError):
            from_opinion(Opinion(0.5, 0.5, 0.0, 0.5))

    def test_identity_opinions_map_to_certain_labels(self):
        # The opinion calculus' one and zero carry base rates of 1 and 0,
        # which no label accepts; they map with the default base rate.
        one = from_opinion(Opinion(1.0, 0.0, 0.0, 1.0))
        zero = from_opinion(Opinion(0.0, 1.0, 0.0, 0.0))
        assert (one.certain, one.base_rate) == (True, DEFAULT_BASE_RATE)
        assert (zero.certain, zero.base_rate) == (False, DEFAULT_BASE_RATE)


class TestLabelBasics:
    def test_complement_means_sum_to_one(self):
        rng = random.Random(2)
        for _ in range(300):
            lab = BetaLabel(rng.uniform(0.5, 40), rng.uniform(0.5, 40))
            comp = lab.complement()
            assert lab.mean + comp.mean == pytest.approx(1.0, abs=1e-12)
            assert comp.variance == pytest.approx(lab.variance, abs=1e-15)

    def test_strength_and_certain(self):
        assert BetaLabel(3, 5).strength == 8
        assert BetaLabel.certain_true().strength == math.inf
        assert BetaLabel.certain_true().variance == 0.0
        assert BetaLabel.certain_false().complement().certain is True

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaLabel(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaLabel(1.0, 1.0, base_rate=0.0)
        with pytest.raises(ValueError):
            BetaLabel(1.0, 1.0, prior_weight=0.0)

    def test_opinion_simplex_enforced(self):
        with pytest.raises(ValueError):
            Opinion(0.5, 0.5, 0.5, 0.5)


class TestMomentMatch:
    def test_inverts_beta_moments(self):
        rng = random.Random(3)
        for _ in range(300):
            lab = BetaLabel(rng.uniform(1.1, 30), rng.uniform(1.1, 30))
            fit = moment_match(lab.moments())
            assert fit.alpha_pos == pytest.approx(lab.alpha_pos, rel=1e-9)
            assert fit.alpha_neg == pytest.approx(lab.alpha_neg, rel=1e-9)

    def test_prior_floors(self):
        # Huge variance: strength falls back to the floor terms, so the
        # alphas never undercut the prior pseudo-counts W*a, W*(1-a).
        fit = moment_match(Moments(0.2, 0.9))
        assert fit.alpha_pos >= 2 * 0.5 - 1e-12
        assert fit.alpha_neg >= 2 * 0.5 - 1e-12
        assert fit.mean == pytest.approx(0.2)

    def test_floor_strength_values(self):
        # At or above the support bound, s = max(W a / m, W (1-a)/(1-m)).
        fit = moment_match(Moments(0.2, 0.2 * 0.8))
        assert fit.strength == pytest.approx(max(1.0 / 0.2, 1.0 / 0.8))

    def test_variance_above_bound_equals_clamped(self):
        # Callers pass unclamped variances: the floor fallback makes any
        # variance past m(1-m) give the label of the bound itself.
        rng = random.Random(5)
        for _ in range(200):
            m = rng.uniform(1e-6, 1.0 - 1e-6)
            var = m * (1.0 - m) * rng.uniform(1.0, 50.0)
            assert (moment_match(Moments(m, var))
                    == moment_match(Moments(m, m * (1.0 - m))))

    def test_zero_variance_caps_strength(self):
        fit = moment_match(Moments(0.3, 0.0))
        assert fit.strength == pytest.approx(MAX_STRENGTH)
        assert fit.mean == pytest.approx(0.3)

    def test_boundary_means_become_certain(self):
        assert moment_match(Moments(0.0, 0.0)).certain is False
        assert moment_match(Moments(1.0, 0.0)).certain is True


class TestSLOperators:
    def test_sum_projected_adds(self):
        rng = random.Random(4)
        for _ in range(300):
            x = to_opinion(BetaLabel(rng.uniform(1.1, 20), rng.uniform(1.1, 20),
                                     base_rate=rng.uniform(0.05, 0.45)))
            y = to_opinion(BetaLabel(rng.uniform(1.1, 20), rng.uniform(1.1, 20),
                                     base_rate=rng.uniform(0.05, 0.45)))
            z = sl_sum(x, y)
            assert z.projected == pytest.approx(x.projected + y.projected,
                                                abs=1e-9)
            assert z.base_rate == pytest.approx(x.base_rate + y.base_rate)

    def test_product_projected_multiplies_approximately(self):
        # The SL product matches the projected product only approximately;
        # its belief mass is a documented closed form.
        x = to_opinion(BetaLabel(2, 18))            # <0.05,0.85,0.10,0.5>
        y = to_opinion(BetaLabel(3.5, 1.5))         # <0.50,0.10,0.40,0.5>
        z = sl_product(x, y)
        ax, ay = 0.5, 0.5
        expected_b = (0.05 * 0.5
                      + ((1 - ax) * ay * 0.05 * 0.4
                         + ax * (1 - ay) * 0.1 * 0.5) / (1 - ax * ay))
        assert z.belief == pytest.approx(expected_b, abs=1e-12)
        assert z.belief == pytest.approx(0.048333333333, abs=1e-9)
        assert z.disbelief == pytest.approx(0.85 + 0.1 - 0.085, abs=1e-12)
        assert z.base_rate == pytest.approx(0.25)

    def test_division_inverts_product_projection(self):
        # For opinions with a_X < a_Y the division, when defined, restores
        # the projected-probability ratio.
        x = Opinion(0.1, 0.5, 0.4, 0.25)
        y = Opinion(0.4, 0.2, 0.4, 0.5)
        z = sl_division(x, y)
        assert z is not None
        assert z.projected == pytest.approx(x.projected / y.projected,
                                            abs=1e-9)

    def test_division_constraints(self):
        # a_X >= a_Y -> undefined.
        assert sl_division(Opinion(0.2, 0.4, 0.4, 0.5),
                           Opinion(0.2, 0.4, 0.4, 0.5)) is None
        # d_X < d_Y -> undefined.
        assert sl_division(Opinion(0.5, 0.1, 0.4, 0.25),
                           Opinion(0.2, 0.4, 0.4, 0.5)) is None

    def test_product_does_not_distribute_over_sum(self):
        # x*(y+z) and x*y + x*z agree in projected probability but not in
        # uncertainty -- the reason the opinion calculus is not a true
        # semiring and circuit structure matters for the SL backend.
        x = Opinion(0.1, 0.7, 0.2, 0.2)
        y = Opinion(0.3, 0.4, 0.3, 0.3)
        z = Opinion(0.2, 0.5, 0.3, 0.1)
        left = sl_product(x, sl_sum(y, z))
        right = sl_sum(sl_product(x, y), sl_product(x, z))
        assert left.projected == pytest.approx(right.projected, abs=1e-9)
        assert abs(left.uncertainty - right.uncertainty) > 1e-3


class TestMMOperators:
    def test_sum(self):
        z = mm_sum(Moments(0.2, 0.01), Moments(0.3, 0.02))
        assert z == Moments(0.5, 0.03)

    def test_product_exact_for_independent(self):
        x, y = Moments(0.3, 0.01), Moments(0.6, 0.02)
        z = mm_product(x, y)
        assert z.mean == pytest.approx(0.18)
        assert z.variance == pytest.approx(
            0.01 * 0.36 + 0.02 * 0.09 + 0.01 * 0.02)

    def test_division_mean_and_error(self):
        z = mm_division(Moments(0.2, 0.01), Moments(0.5, 0.02))
        assert z.mean == pytest.approx(0.4)
        with pytest.raises(ValueError):
            mm_division(Moments(0.5, 0.01), Moments(0.5, 0.02))
        with pytest.raises(ValueError):
            mm_division(Moments(0.6, 0.01), Moments(0.5, 0.02))

    def test_division_zero_numerator_limit(self):
        z = mm_division(Moments(0.0, 0.01), Moments(0.5, 0.02))
        assert z.mean == 0.0
        assert z.variance == pytest.approx(0.01 / 0.25)

    @pytest.mark.parametrize("x, y", [
        (Moments(1e-170, 1e-345), Moments(0.5, 0.01)),
        (Moments(0.0, 0.0), Moments(1e-170, 0.0)),
        (Moments(1e-160, 0.0), Moments(1.001e-160, 0.0)),
    ], ids=["numerator", "zero-numerator", "gap"])
    def test_division_underflow_is_named(self, x, y):
        with pytest.raises(ArithmeticError, match="squared underflows") as exc:
            mm_division(x, y)
        assert not isinstance(exc.value, ZeroDivisionError)

    def test_product_breaks_total_probability(self):
        # With X + (1-X) partitioning Y, the independent product variance
        # gets var[YX] + var[Y(1-X)] != var[Y]: it ignores that the two
        # terms share Y and that X and 1-X are perfectly anticorrelated.
        # This is the structural flaw the covariance-aware evaluator fixes.
        y = Moments(0.375, 0.026041666666666668)     # Beta(3,5)
        x = Moments(2 / 9, (2 / 9) * (7 / 9) / 10)   # Beta(2,7)
        xbar = Moments(1 - x.mean, x.variance)
        total = mm_sum(mm_product(y, x), mm_product(y, xbar))
        assert total.mean == pytest.approx(y.mean, abs=1e-12)
        assert abs(total.variance - y.variance) > 1e-3


class TestMoments:
    def test_invalid(self):
        with pytest.raises(ValueError):
            Moments(0.5, -1e-9)
        with pytest.raises(ValueError):
            Moments(math.nan, 0.0)
        with pytest.raises(ValueError):
            Moments(0.5, math.inf)
