"""Acceptance gate: end-to-end criteria with explicit tolerances.

Each criterion is one test class.  All assertions are exact statements of
the acceptance bar; none are loosened to make the suite pass.

Criterion 1 pins the burglary posterior variance twice.  It must equal the
first-order delta method worked in closed form from the Beta labels, at
1e-12, because first order is the rule the evaluator documents and the
one that keeps total probability exact (criterion 4).  It must also lie
within 10 % of a seeded Monte Carlo variance, so that an expected value
cannot drift away from the truth unnoticed.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from betacircuits.betacalc import BetaLabel
from betacircuits.circuit import LabelTable, parse_nnf, set_condition
from betacircuits.compile import (Theory, eval_formula, f_and, f_iff, f_not,
                                  f_or, f_var, shannon_compile)
from betacircuits.cpb import eval_cov, shadow_circuit
from betacircuits.examples import burglary_circuit, burglary_labels
from betacircuits.harness import ExperimentConfig, run_experiment
from betacircuits.mc import mc_eval
from betacircuits.semirings import (InconsistentEvidenceError,
                                    conditioned_eval, mm_semiring,
                                    prob_semiring)

from dense_reference import moment_sweep
from test_semirings import sweep


def staged_burglary():
    return set_condition(burglary_circuit(), query=1)


def random_labels(rng, variables, lo=1.1, hi=20.0):
    return LabelTable({v: BetaLabel(rng.uniform(lo, hi), rng.uniform(lo, hi))
                       for v in variables})


def random_theory(rng, nvars):
    constraints = []
    free = list(range(1, nvars + 1))
    for _ in range(rng.randint(1, 3)):
        if len(free) < 3:
            break
        head = free.pop(rng.randrange(len(free)))
        body_vars = rng.sample([v for v in range(1, nvars + 1) if v != head],
                               rng.randint(1, 3))
        lits = [f_var(v) if rng.random() < 0.5 else f_not(f_var(v))
                for v in body_vars]
        body = f_and(*lits) if rng.random() < 0.5 else f_or(*lits)
        constraints.append(f_iff(f_var(head), body))
    return Theory(nvars, tuple(constraints))


class TestCriterion1BurglaryQuery:
    """The worked burglary query: exact conditional, CPB posterior, speed."""

    def test_exact_conditional_probability(self):
        got = conditioned_eval(staged_burglary(), prob_semiring(),
                               burglary_labels())
        assert got == pytest.approx(5.0 / 14.0, abs=1e-9)

    def test_posterior_mean(self):
        res = eval_cov(shadow_circuit(staged_burglary()), burglary_labels())
        assert res.mean == pytest.approx(0.3571, abs=5e-4)

    def test_posterior_variance(self):
        # The expected value is the documented first-order delta method,
        # worked by hand from the three Beta labels.  With b, e, h the
        # burglary, earthquake and hears-alarm leaves, the query-and-
        # evidence root is X = b*h and the evidence root is Y = A*h with
        # the alarm disjunction A = b + (1-b)*e.
        #
        # A variance of 0.0528 for this query has no source.  It is what
        # one gets (0.052759) by adding the second-order term
        # var[c]*var[c'] + cov[c,c']**2 to the AND-gate diagonals only,
        # while keeping first-order cross-covariances.  That mixed rule
        # puts 2*var[X]*var[Y] of error into the total-probability
        # identity of Criterion 4; adding the matching cross terms to
        # every AND entry restores it but gives 0.050528.  Monte Carlo
        # puts the true variance near 0.0446, so first order (+5.6 %) is
        # the closest of the three and stays the default.
        labels = burglary_labels()
        moments = {}
        for v in (1, 2, 3):
            lab = labels.label_of(v)
            ap, an = lab.alpha_pos, lab.alpha_neg
            moments[v] = (ap / (ap + an),
                          ap * an / ((ap + an) ** 2 * (ap + an + 1)))
        (mb, vb), (me, ve), (mh, vh) = moments[1], moments[2], moments[3]
        mx = mb * mh
        var_x = mh ** 2 * vb + mb ** 2 * vh
        ma = mb + (1 - mb) * me
        var_a = vb * (1 - me) ** 2 + ve * (1 - mb) ** 2
        my = ma * mh
        var_y = mh ** 2 * var_a + ma ** 2 * vh
        cov_xy = mh ** 2 * vb * (1 - me) + mb * ma * vh
        expect = (var_x / my ** 2 + mx ** 2 * var_y / my ** 4
                  - 2 * mx * cov_xy / my ** 3)

        staged = staged_burglary()
        res = eval_cov(shadow_circuit(staged), labels)
        assert res.variance == pytest.approx(expect, abs=1e-12)

        # Anchor to the truth: within 10 % of a 200k-sample Monte Carlo
        # variance.  Neither second-order variant (+13 %, +18 %) passes.
        mc = mc_eval(staged, labels, 200_000, seed=0)
        assert abs(res.variance / mc.variance - 1.0) < 0.10

    def test_runtime_under_10ms(self):
        labels = burglary_labels()
        staged = staged_burglary()
        eval_cov(shadow_circuit(staged), labels)  # warm-up
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            eval_cov(shadow_circuit(staged), labels)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.010


class TestCriterion2IntermediateMoments:
    """Node-level means and variances of the burglary sweep."""

    def test_intermediate_means(self):
        c = staged_burglary()
        means, _ = moment_sweep(shadow_circuit(c), burglary_labels())
        # burglary leaf, earthquake-and-not-burglary, alarm disjunction,
        # evidence root, query-conjoined root.
        assert means[0] == pytest.approx(0.1, abs=1e-3)
        assert means[2] == pytest.approx(0.2, abs=1e-3)
        assert means[4] == pytest.approx(0.18, abs=1e-3)
        assert means[5] == pytest.approx(0.28, abs=1e-3)
        assert means[6] == pytest.approx(0.196, abs=1e-3)
        assert means[c.schedule((1,)).joint[1][c.root]] == pytest.approx(
            0.07, abs=1e-3)

    def test_node_variances(self):
        sc = shadow_circuit(staged_burglary())
        _, cov = moment_sweep(sc, burglary_labels())
        tol = 0.05e-2
        assert cov[3, 3] == pytest.approx(3.5e-2, abs=tol)   # hears-alarm
        assert cov[2, 2] == pytest.approx(1.5e-2, abs=tol)   # earthquake
        assert cov[0, 0] == pytest.approx(0.4e-2, abs=tol)   # burglary
        assert cov[6, 6] == pytest.approx(1.0e-2, abs=tol)   # evidence root


class TestCriterion3AgreementWithOracles:
    """Random circuits agree with enumeration, the exact conditional, and
    Monte Carlo, within two minutes of wall clock for the whole class."""

    def test_wmc_matches_enumeration(self):
        rng = random.Random(40)
        for _ in range(100):
            nv = rng.randint(4, 12)
            theory = random_theory(rng, nv)
            c = shannon_compile(theory)
            labels = random_labels(rng, range(1, nv + 1))
            f = f_and(*theory.constraints) if theory.constraints else True
            expect = 0.0
            for bits in itertools.product([False, True], repeat=nv):
                assignment = dict(zip(range(1, nv + 1), bits))
                if eval_formula(f, assignment):
                    w = 1.0
                    for v, val in assignment.items():
                        w *= labels.mean_of(v if val else -v)
                    expect += w
            got, _ = sweep(c, prob_semiring(), labels)
            assert got == pytest.approx(expect, abs=1e-10)

    def test_cpb_mean_matches_exact_conditional(self):
        rng = random.Random(41)
        for _ in range(100):
            theory = random_theory(rng, rng.randint(4, 10))
            c = shannon_compile(theory)
            variables = sorted(c.variables())
            if not variables:
                continue
            labels = random_labels(rng, variables)
            staged = set_condition(c, query=rng.choice(variables))
            try:
                expect = conditioned_eval(staged, prob_semiring(), labels)
            except InconsistentEvidenceError:
                continue
            res = eval_cov(shadow_circuit(staged), labels)
            assert res.mean == pytest.approx(expect, abs=1e-10)

    def test_cpb_moments_match_monte_carlo(self):
        # 20 strong labelings: CPB mean within 3 standard errors of a
        # 10k-sample MC run, CPB variance within +/-25% of the MC variance.
        staged = staged_burglary()
        rng = random.Random(55)
        for i in range(20):
            labels = LabelTable({
                v: BetaLabel(m * s, (1.0 - m) * s)
                for v, m, s in ((v, rng.uniform(0.1, 0.9),
                                 rng.uniform(500, 3000)) for v in (1, 2, 3))})
            res = eval_cov(shadow_circuit(staged), labels)
            mc = mc_eval(staged, labels, 10000, seed=55000 + i)
            se = math.sqrt(mc.variance / 10000)
            assert abs(res.mean - mc.mean) < 3 * se
            assert 0.75 * mc.variance < res.variance < 1.25 * mc.variance


class TestCriterion4TotalProbability:
    """Deterministic sums must carry exactly the variance of their value."""

    NNF = "nnf 6 6 2\nL 1\nL 2\nL -2\nA 2 0 1\nA 2 0 2\nO 2 2 3 4\n"

    def test_cpb_respects_total_probability(self):
        # (Y and X) or (Y and not X) == Y: the root variance must be
        # exactly var[Y] because X and not-X are perfectly anticorrelated.
        c = set_condition(parse_nnf(self.NNF), query=1)
        rng = random.Random(42)
        for _ in range(50):
            labels = random_labels(rng, (1, 2))
            means, cov = moment_sweep(shadow_circuit(c), labels)
            assert means[5] == pytest.approx(labels.mean_of(1), abs=1e-10)
            assert cov[5, 5] == pytest.approx(labels.variance_of(1), abs=1e-10)

    def test_mm_semiring_violates_it(self):
        # The moment-matched semiring treats the two branches as
        # independent and visibly misstates the root variance.
        c = parse_nnf(self.NNF)
        labels = LabelTable({1: BetaLabel(3, 5), 2: BetaLabel(2, 7)})
        total, _ = sweep(c, mm_semiring(), labels)
        assert abs(total.variance - labels.variance_of(1)) > 1e-3


CALIBRATION_N_INS = (10, 50, 100)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for n in CALIBRATION_N_INS:
        cfg = ExperimentConfig(model="net1", n_ins=n, fast=True,
                               backends=("cpb", "sl"), seed=42,
                               golden_samples=0)
        out[n] = run_experiment(cfg)
    return out


class TestCriterion5Calibration:
    """Fast-mode learning experiment on the nine-node chain network."""

    N_INS = CALIBRATION_N_INS
    # Reference RMSE levels for the full-size protocol; the fast run uses
    # 150 trials instead of 1000, so tolerances widen by sqrt(1000/150).
    TARGET_RMSE = {10: 0.1511, 50: 0.0816, 100: 0.0544}
    WIDEN = math.sqrt(1000.0 / 150.0)

    def test_rmse_levels(self, reports):
        for n in self.N_INS:
            cpb = reports[n].backends["cpb"]
            assert cpb.actual_rmse == pytest.approx(
                self.TARGET_RMSE[n], abs=0.02 * self.WIDEN)

    def test_cpb_is_calibrated(self, reports):
        for n in self.N_INS:
            cpb = reports[n].backends["cpb"]
            assert abs(cpb.predicted_rmse - cpb.actual_rmse) < \
                0.015 * self.WIDEN
            dev = max(abs(cov - g) for g, cov in cpb.coverage.items())
            assert dev < 0.10

    def test_sl_is_overconfident(self, reports):
        for n in self.N_INS:
            sl = reports[n].backends["sl"]
            for g in (0.5, 0.7, 0.9):
                assert sl.coverage[g] < g


class TestCriterion6Properties:
    """Randomized invariants, 1000 cases each."""

    def test_conversion_round_trips(self):
        from betacircuits.betacalc import from_opinion, to_opinion
        rng = random.Random(60)
        for _ in range(1000):
            lab = BetaLabel(rng.uniform(0.5, 50), rng.uniform(0.5, 50),
                            base_rate=rng.uniform(0.05, 0.95))
            back = from_opinion(to_opinion(lab))
            assert back.alpha_pos == pytest.approx(lab.alpha_pos, rel=1e-9)
            assert back.alpha_neg == pytest.approx(lab.alpha_neg, rel=1e-9)

    def test_complement_means_sum_to_one(self):
        rng = random.Random(61)
        for _ in range(1000):
            lab = BetaLabel(rng.uniform(0.1, 100), rng.uniform(0.1, 100))
            comp = lab.complement()
            assert lab.mean + comp.mean == pytest.approx(1.0, abs=1e-12)
            assert comp.variance == pytest.approx(lab.variance, rel=1e-12)

    def test_moment_match_floors_and_inversion(self):
        from betacircuits.betacalc import Moments, moment_match
        rng = random.Random(62)
        for _ in range(1000):
            m = rng.uniform(0.01, 0.99)
            v = rng.uniform(1e-6, 0.9) * m * (1.0 - m)
            lab = moment_match(Moments(m, v))
            assert lab.mean == pytest.approx(m, rel=1e-9)
            assert lab.variance <= v + 1e-15
            assert lab.alpha_pos >= lab.base_rate * lab.prior_weight - 1e-12
            assert lab.alpha_neg >= \
                (1.0 - lab.base_rate) * lab.prior_weight - 1e-12

    def test_covariance_matrices_symmetric_and_psd_diagonal(self):
        rng = random.Random(63)
        done = 0
        while done < 1000:
            theory = random_theory(rng, rng.randint(4, 6))
            c = shannon_compile(theory)
            variables = sorted(c.variables())
            if not variables:
                continue
            staged = set_condition(c, query=rng.choice(variables))
            _, cov = moment_sweep(shadow_circuit(staged),
                                  random_labels(rng, variables))
            assert np.allclose(cov, cov.T, atol=1e-14)
            assert (np.diag(cov) >= -1e-15).all()
            done += 1

    def test_seeded_determinism(self):
        from betacircuits.learn import sample_observations
        staged = staged_burglary()
        labels = burglary_labels()
        for seed in range(1000):
            a, _ = sample_observations({1: 0.3, 2: 0.6}, 5, rng=seed)
            b, _ = sample_observations({1: 0.3, 2: 0.6}, 5, rng=seed)
            assert a == b
        for seed in range(50):
            x = mc_eval(staged, labels, 200, seed=seed)
            y = mc_eval(staged, labels, 200, seed=seed)
            assert np.array_equal(x.samples, y.samples)


class TestLambdaEvidenceOnUnsmoothedVariables:
    """Known defect: lambda evidence needs the circuit smooth in its variable.

    ``set_condition`` conditions by setting lambda = 0 on the leaves of the
    contradicting literal.  A model whose branch never mentions the
    evidence variable has no such leaf, so it keeps both values of the
    variable and the conditional is wrong.  These tests assert the exact
    conditionals and are expected to fail until the evidence variables are
    smoothed (or substituted).
    """

    @pytest.mark.xfail(strict=True, reason="lambda evidence on a variable "
                       "missing from the burglary branch")
    @pytest.mark.parametrize("backend", ["prob", "cpb"])
    def test_burglary_earthquake_evidence(self, backend):
        # (b or (not b and e)) and h: the b branch has no e leaf.  With
        # means b 0.1, e 0.2, h 0.7, P(b | calls, e) = 0.014 / 0.14 = 0.1;
        # the answer today is the unconditioned 5/14.
        staged = set_condition(burglary_circuit(), query=1,
                               evidence=[(2, True)])
        if backend == "prob":
            mean = conditioned_eval(staged, prob_semiring(), burglary_labels())
        else:
            mean = eval_cov(shadow_circuit(staged), burglary_labels()).mean
        assert mean == pytest.approx(0.1, abs=1e-12)

    #: P(smokes(4) | smokes(2), not influences(4,2)) under
    #: ``smokers_truths()``, by enumerating every assignment of the
    #: theory's 19 unobserved atoms.
    SMOKERS_Q17 = 0.6405945490766924

    @staticmethod
    def smokers_truths():
        from betacircuits.examples import point_labels, smokers_model
        model = smokers_model()
        rng = random.Random(0)
        return model, point_labels({v: rng.uniform(0.1, 0.9)
                                    for v in model.prob_vars})

    def test_smokers_substituted_evidence_is_exact(self):
        model, labels = self.smokers_truths()
        theory = model.theory.substitute_evidence(
            {**model.fixed_evidence, **dict(model.prob_evidence)})
        staged = set_condition(shannon_compile(theory, order=model.order),
                               query=17)
        mean = conditioned_eval(staged, prob_semiring(), labels)
        assert mean == pytest.approx(self.SMOKERS_Q17, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="lambda evidence on "
                       "influences(4,2), which some branches do not mention")
    def test_smokers_lambda_evidence(self):
        # Off by 0.0099 today (0.6306782693637512).
        model, labels = self.smokers_truths()
        staged = set_condition(model.circuit(), query=17,
                               evidence=model.prob_evidence)
        mean = conditioned_eval(staged, prob_semiring(), labels)
        assert mean == pytest.approx(self.SMOKERS_Q17, abs=1e-12)
