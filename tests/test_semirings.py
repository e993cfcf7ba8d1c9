"""Tests for the pluggable semiring backends and conditioned evaluation."""

import random

import pytest

from betacircuits.betacalc import BetaLabel, Moments, Opinion
from betacircuits.circuit import (LabelTable, eval_queries, parse_nnf,
                                  set_condition)
from betacircuits.semirings import (
    InconsistentEvidenceError, MM_ONE, MM_ZERO, SL_ONE, SL_ZERO,
    VACUOUS_OPINION, conditioned_eval, mm_semiring, prob_semiring,
    sl_semiring)
from betacircuits.examples import burglary_circuit, burglary_labels


STAGED = set_condition(burglary_circuit(), query=1)


def sweep(c, spec, labels, queries=()):
    """``eval_queries`` in ``spec``: (evidence, {query: joint})."""
    return eval_queries(c, queries, spec.zero, spec.one, spec.plus,
                        spec.times,
                        lambda lit: spec.from_label(labels.label_of(lit)))


class TestIdentities:
    def test_prob(self):
        s = prob_semiring()
        assert s.plus(s.zero, 0.3) == 0.3
        assert s.times(s.one, 0.3) == 0.3
        assert s.times(s.zero, 0.3) == 0.0

    def test_sl_identity_short_circuits_are_exact(self):
        s = sl_semiring()
        x = Opinion(0.05, 0.85, 0.10, 0.5)
        assert s.plus(SL_ZERO, x) == x
        assert s.plus(x, SL_ZERO) == x
        assert s.times(SL_ONE, x) == x
        assert s.times(x, SL_ONE) == x
        assert s.times(SL_ZERO, x) == SL_ZERO
        assert s.divide(x, SL_ONE) == x
        assert s.divide(x, x) == SL_ONE

    def test_sl_zero_denominator(self):
        with pytest.raises(InconsistentEvidenceError):
            sl_semiring().divide(SL_ONE, SL_ZERO)

    def test_sl_division_fallback_is_vacuous(self):
        # Constraint failure (equal base rates) must not crash the sweep.
        s = sl_semiring()
        x = Opinion(0.2, 0.3, 0.5, 0.5)
        y = Opinion(0.4, 0.1, 0.5, 0.5)
        assert s.divide(x, y) == VACUOUS_OPINION

    def test_mm_identities(self):
        s = mm_semiring()
        m = Moments(0.3, 0.01)
        assert s.plus(MM_ZERO, m) == m
        assert s.times(MM_ONE, m) == m
        assert s.divide(m, MM_ONE) == m
        assert s.divide(m, m) == MM_ONE
        with pytest.raises(InconsistentEvidenceError):
            s.divide(m, MM_ZERO)


class TestConditionedEval:
    def test_prob_burglary(self):
        got = conditioned_eval(STAGED, prob_semiring(), burglary_labels())
        assert got == pytest.approx(5.0 / 14.0, abs=1e-12)

    def test_all_backends_agree_on_projected_mean(self):
        # All three parametrisations share first-order mean propagation.
        labels = burglary_labels()
        p = conditioned_eval(STAGED, prob_semiring(), labels)
        sl = conditioned_eval(STAGED, sl_semiring(), labels)
        mm = conditioned_eval(STAGED, mm_semiring(), labels)
        assert sl.projected == pytest.approx(p, abs=1e-9)
        assert mm.mean == pytest.approx(p, abs=1e-9)

    def test_mean_agreement_random_labels(self):
        rng = random.Random(21)
        for _ in range(50):
            labels = LabelTable({v: BetaLabel(rng.uniform(1.1, 20),
                                              rng.uniform(1.1, 20))
                                 for v in (1, 2, 3)})
            p = conditioned_eval(STAGED, prob_semiring(), labels)
            mm = conditioned_eval(STAGED, mm_semiring(), labels)
            assert mm.mean == pytest.approx(p, abs=1e-9)

    def test_requires_staged_query(self):
        with pytest.raises(ValueError, match="no staged query"):
            conditioned_eval(burglary_circuit(), prob_semiring(),
                             burglary_labels())

    def test_inconsistent_evidence(self):
        # Evidence b=False and e=False contradicts the alarm: P(E) = 0
        # once hears_alarm is also certain.
        c = parse_nnf("nnf 1 0 1\nL 1\n")
        staged = set_condition(c, query=1, evidence=[(1, True)])
        labels = LabelTable()  # leaf weighs 1, evidence leaves lambda alone
        dead = set_condition(c, query=1, evidence=[(1, False)])
        with pytest.raises(InconsistentEvidenceError):
            conditioned_eval(dead, prob_semiring(), labels)
        assert conditioned_eval(staged, prob_semiring(), labels) == 1.0

    def test_sl_structure_dependence(self):
        # The same boolean function computed by two different (both valid)
        # circuit structures yields different SL uncertainty: the opinion
        # calculus is not distributive, so structure leaks into the result.
        # f = (y and x) or (y and not x)  vs  the collapsed single leaf y.
        expanded = parse_nnf(
            "nnf 6 6 2\nL 1\nL 2\nL -2\nA 2 0 1\nA 2 0 2\nO 2 2 3 4\n")
        collapsed = parse_nnf("nnf 1 0 2\nL 1\n")
        labels = LabelTable({1: BetaLabel(3, 5), 2: BetaLabel(2, 7)})
        s = sl_semiring()
        a, _ = sweep(expanded, s, labels)
        b, _ = sweep(collapsed, s, labels)
        assert a.projected == pytest.approx(b.projected, abs=1e-9)
        assert abs(a.uncertainty - b.uncertainty) > 1e-3


class TestToLabel:
    def test_mm_to_label_clamps_support_bound(self):
        s = mm_semiring()
        lab = s.to_label(Moments(0.5, 10.0))
        assert lab.variance <= 0.25 + 1e-12

    def test_sl_round_trip(self):
        s = sl_semiring()
        lab = BetaLabel(2, 18)
        assert s.to_label(s.from_label(lab)).alpha_pos == pytest.approx(2.0)
