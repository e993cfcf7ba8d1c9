"""Tests for the covariance-propagating conditioned evaluator."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from betacircuits.betacalc import BetaLabel
from betacircuits.circuit import (CircuitError, LabelTable, NodeKind,
                                  parse_nnf, set_condition)
from betacircuits import circuit
from betacircuits.compile import shannon_compile
from betacircuits.cpb import (eval_cov, eval_cov_queries, parse_leaf_cov,
                              shadow_circuit)
from betacircuits.examples import (BUILTIN_MODELS, burglary_circuit,
                                   burglary_labels)
from betacircuits.semirings import (InconsistentEvidenceError,
                                    conditioned_eval,
                                    conditioned_eval_queries, mm_semiring,
                                    prob_semiring, sl_semiring)

from conftest import random_labels, random_theory, staged_burglary
from dense_reference import conditioned_moments, moment_sweep, shadow_ids

# Frozen oracle values for the burglary query (derived from independent
# hand arithmetic, enumeration, and the point-probability backend).
BURGLARY_MEAN = 0.3571428571428571          # = 5/14
BURGLARY_VAR = 0.04705831444690252          # first-order delta method


class TestLeafCovariance:
    def test_file_round_trip(self):
        # A negative literal carries 1 - theta: each one flips the sign.
        back = parse_leaf_cov("# cross entries\n1 2 0.01\n\n-3 4 0.002\n")
        assert back == {(1, 2): 0.01, (3, 4): -0.002}

    def test_parse_errors(self):
        with pytest.raises(CircuitError, match="line 1"):
            parse_leaf_cov("1 2\n")
        with pytest.raises(CircuitError, match="line 1"):
            parse_leaf_cov("1 -1 0.5\n")

    def test_entry_beyond_the_labels_rejected(self):
        # |cov[i, j]| <= sqrt(var[i] var[j]): the correlation lies in
        # [-1, 1].  An unlabelled variable is certain, with variance 0.
        labels = burglary_labels()
        limit = math.sqrt(labels.variance_of(1) * labels.variance_of(2))
        c = burglary_circuit()
        for value in (limit, -limit):
            eval_cov_queries(c, (1,), labels, {(1, 2): value})
        for entry, value, pair in (((1, 2), 1.001 * limit, "1 and 2"),
                                   ((1, 2), -1.001 * limit, "1 and 2"),
                                   ((3, 9), 1e-12, "3 and 9")):
            with pytest.raises(ValueError, match=f"^covariance .* of "
                               f"variables {pair} exceeds sqrt"):
                eval_cov_queries(c, (1,), labels, {entry: value})

    @pytest.mark.parametrize("entry, value, message", [
        ((2, 1), 1e-6, r"covariance key \(2, 1\) is not a pair"),
        ((1, 1), 1e-6, r"covariance key \(1, 1\) is not a pair"),
        ((-1, 2), 1e-6, r"covariance key \(-1, 2\) is not a pair"),
        ((0, 2), 1e-6, r"covariance key \(0, 2\) is not a pair"),
        ((1, 2), math.nan, "non-finite covariance nan of variables 1 and 2"),
    ], ids=["reversed", "same-variable", "negative", "zero", "nan"])
    def test_entry_not_a_variable_pair_rejected(self, entry, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            eval_cov_queries(burglary_circuit(), (1,), burglary_labels(),
                             {entry: value})

    def test_second_line_for_a_pair_rejected(self):
        # Before, the last line for a pair of variables won.
        with pytest.raises(CircuitError, match="^leaf covariance line 2: "
                           "second line for variables \\[1, 2\\]"):
            parse_leaf_cov("1 2 0.1\n2 1 0.2\n")
        with pytest.raises(CircuitError, match="^leaf covariance line 3: "):
            parse_leaf_cov("1 2 0.1\n1 3 0.1\n-2 -1 0.1\n")


class TestShadowing:
    def test_burglary_shadow_set(self):
        c = staged_burglary()
        joint = shadow_ids(shadow_circuit(c))
        # The not-burglary leaf (id 1) and its ancestor chain 4, 5, 6.
        assert joint == {1: 7, 4: 8, 5: 9, 6: 10}
        assert [joint[i] for i in joint if not c.node(i).children] == [7]
        assert c.root == 6
        assert joint[c.root] == 10
        assert c.schedule((1,)).roots == [6, 10]
        assert shadow_circuit(c).n_total == 11

    def test_requires_staged_query(self):
        with pytest.raises(CircuitError, match="no staged query"):
            shadow_circuit(burglary_circuit())

    def test_implied_query_degenerates(self):
        # No not-query leaf: the conditional is trivially 1.
        c = set_condition(parse_nnf("nnf 1 0 1\nL 1\n"), query=1)
        sc = shadow_circuit(c)
        assert shadow_ids(sc) == {}
        assert c.schedule((1,)).roots == [c.root, c.root]
        assert sc.n_total == len(c)
        res = eval_cov(sc, LabelTable({1: BetaLabel(2, 2)}))
        assert res.mean == 1.0
        assert res.variance == 0.0


class TestPasses:
    """The gates that ``eval_cov_queries`` evaluates, counted."""

    @staticmethod
    def gates_evaluated(monkeypatch, nnf, queries):
        # Each gate evaluation of each sweep starts with one _COPY step.
        gates = []
        run_of = circuit._Schedule.run

        def run(plan, *args, **kwargs):
            gates.extend(slot for op, slot, _ in plan.steps
                         if op == circuit._COPY)
            return run_of(plan, *args, **kwargs)

        monkeypatch.setattr(circuit._Schedule, "run", run)
        c = parse_nnf(nnf)
        labels = LabelTable({v: BetaLabel(3, 2)
                             for v in range(1, c.var_count + 1)})
        eval_cov_queries(c, queries, labels)
        return len(gates)

    @pytest.mark.parametrize("queries, gates", [
        # Y's 10 gates once, then per query the ancestors of its negated
        # leaf (its block's AND and OR, and the root).  Query 2 has no
        # negated leaf.  A full pass per query would make 10 each.
        ((1,), 10 + 3),
        ((1, -1, 4, 2), 10 + 3 + 3 + 3 + 0),
    ])
    def test_numerator_recomputes_only_ancestors(self, monkeypatch,
                                                 make_block_nnf, queries,
                                                 gates):
        assert self.gates_evaluated(monkeypatch, make_block_nnf(3),
                                    queries) == gates

    @pytest.mark.parametrize("queries, and_folds", [
        # Y's 7 ANDs, then per query the ANDs among its joint gates: its
        # block's AND and the root.  Forming every AND's weights in every
        # reverse pass made 14 and 35.
        ((1,), 7 + 2),
        ((1, -1, 4, 2), 7 + 2 + 2 + 2 + 0),
    ])
    def test_and_weights_formed_once_per_call(self, monkeypatch,
                                              make_block_nnf, queries,
                                              and_folds):
        formed = []
        leave_one_out = circuit._leave_one_out
        monkeypatch.setattr(circuit, "_leave_one_out",
                            lambda xs: formed.append(xs) or leave_one_out(xs))
        c = parse_nnf(make_block_nnf(3))
        labels = LabelTable({v: BetaLabel(3, 2)
                             for v in range(1, c.var_count + 1)})
        eval_cov_queries(c, queries, labels)
        folds = c.schedule(queries).folds
        assert len(formed) == and_folds == sum(
            op == circuit._TIMES
            for sweep in folds for _, op, _ in sweep.values())

    def test_gate_that_misses_the_root_is_not_evaluated(self, monkeypatch):
        # Gate 3 reads the negated query leaf but no path leads from it to
        # the root 4: only the root is evaluated, for Y and for X.
        nnf = "nnf 5 4 2\nL 1\nL -1\nL 2\nA 2 1 2\nO 1 2 0 1\n"
        assert self.gates_evaluated(monkeypatch, nnf, (1,)) == 1 + 1


class TestBurglaryGoldens:
    def test_conditioned_mean_and_variance(self):
        res = eval_cov(shadow_circuit(staged_burglary()), burglary_labels())
        assert res.mean == pytest.approx(BURGLARY_MEAN, abs=1e-12)
        assert res.variance == pytest.approx(BURGLARY_VAR, abs=1e-12)
        assert not res.variance_clamped

    def test_intermediate_means(self):
        c = staged_burglary()
        means, _ = moment_sweep(shadow_circuit(c), burglary_labels())
        # base: b, not-b, e, h, not-b&e, b|(not-b&e), root; shadows last.
        assert means[0] == pytest.approx(0.1)
        assert means[4] == pytest.approx(0.18)
        assert means[5] == pytest.approx(0.28)
        assert means[6] == pytest.approx(0.196)
        assert means[c.schedule((1,)).roots[1]] == pytest.approx(0.07)

    def test_diagonal_covariances(self):
        sc = shadow_circuit(staged_burglary())
        _, cov = moment_sweep(sc, burglary_labels())
        assert cov[3, 3] == pytest.approx(0.035)         # hears_alarm
        assert cov[2, 2] == pytest.approx(0.2 * 0.8 / 11)  # earthquake
        assert cov[0, 0] == pytest.approx(0.1 * 0.9 / 21)  # burglary
        assert cov[6, 6] == pytest.approx(0.00986, abs=5e-5)  # evidence root

    def test_matched_label(self):
        res = eval_cov(shadow_circuit(staged_burglary()), burglary_labels())
        assert res.matched.mean == pytest.approx(res.mean)
        assert res.matched.variance == pytest.approx(res.variance, rel=1e-6)


class TestProperties:
    def test_covariance_matrix_symmetric(self):
        rng = random.Random(5)
        for seed in range(10):
            theory = random_theory(rng, rng.randint(4, 7))
            c = shannon_compile(theory)
            variables = sorted(c.variables())
            if not variables:
                continue
            staged = set_condition(c, query=rng.choice(variables))
            sc = shadow_circuit(staged)
            _, cov = moment_sweep(sc, random_labels(rng, variables))
            assert np.allclose(cov, cov.T, atol=1e-14)

    def test_mean_equals_prob_semiring(self):
        rng = random.Random(6)
        for _ in range(30):
            theory = random_theory(rng, rng.randint(4, 8))
            c = shannon_compile(theory)
            variables = sorted(c.variables())
            if not variables:
                continue
            labels = random_labels(rng, variables)
            staged = set_condition(c, query=rng.choice(variables))
            try:
                expect = conditioned_eval(staged, prob_semiring(), labels)
            except InconsistentEvidenceError:
                with pytest.raises(InconsistentEvidenceError):
                    eval_cov(shadow_circuit(staged), labels)
                continue
            res = eval_cov(shadow_circuit(staged), labels)
            assert res.mean == pytest.approx(expect, abs=1e-10)

    def test_complement_query_means_sum_to_one(self):
        rng = random.Random(7)
        c = burglary_circuit()
        for _ in range(20):
            labels = random_labels(rng, (1, 2, 3))
            pos = eval_cov(shadow_circuit(set_condition(c, query=1)), labels)
            neg = eval_cov(shadow_circuit(set_condition(c, query=-1)), labels)
            assert pos.mean + neg.mean == pytest.approx(1.0, abs=1e-10)

    def test_total_probability_deterministic_or(self):
        # (Y and X) or (Y and not X) must carry exactly var[Y]: the sum is
        # deterministic and X, not-X are perfectly anticorrelated.
        rng = random.Random(8)
        nnf = "nnf 6 6 2\nL 1\nL 2\nL -2\nA 2 0 1\nA 2 0 2\nO 2 2 3 4\n"
        c = set_condition(parse_nnf(nnf), query=1)
        for _ in range(50):
            labels = random_labels(rng, (1, 2))
            sc = shadow_circuit(c)
            means, cov = moment_sweep(sc, labels)
            assert means[5] == pytest.approx(labels.mean_of(1), abs=1e-12)
            assert cov[5, 5] == pytest.approx(labels.variance_of(1),
                                              abs=1e-10)

    def test_variance_is_structure_invariant(self):
        # Two circuits computing the same function must agree in variance:
        # the first-order sweep is the gradient form grad(f)^T C grad(f)
        # on the shared network polynomial.
        expanded = set_condition(parse_nnf(
            "nnf 6 6 2\nL 1\nL 2\nL -2\nA 2 0 1\nA 2 0 2\nO 2 2 3 4\n"),
            query=2)
        rng = random.Random(9)
        for _ in range(20):
            labels = random_labels(rng, (1, 2))
            res = eval_cov(shadow_circuit(expanded), labels)
            # Conditional of X given Y as evidence root: P(XY)/P(Y) = E[X],
            # with variance var[X]/E[Y]^2 reduced by the correlation terms.
            assert res.mean == pytest.approx(labels.mean_of(2), abs=1e-10)

    def test_explicit_cross_covariance_is_used(self):
        # AND of two positively correlated leaves gains variance relative
        # to the independent case.
        nnf = "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"
        c = set_condition(parse_nnf(nnf), query=1)
        labels = LabelTable({1: BetaLabel(3, 3), 2: BetaLabel(4, 4)})
        sc = shadow_circuit(c)
        _, cov0 = moment_sweep(sc, labels)
        _, cov1 = moment_sweep(sc, labels, {(1, 2): 0.02})
        assert cov1[2, 2] > cov0[2, 2]
        expect_gain = 2 * 0.5 * 0.5 * 0.02   # 2 w1 w2 cov
        assert cov1[2, 2] - cov0[2, 2] == pytest.approx(expect_gain,
                                                        abs=1e-12)

    def test_variance_clamped_flag(self):
        # An extremely uncertain denominator drives the first-order
        # variance above the support bound; the result is clamped.
        res = eval_cov(shadow_circuit(staged_burglary()),
                       LabelTable({1: BetaLabel(1.01, 1.01),
                                   2: BetaLabel(1.01, 1.01),
                                   3: BetaLabel(1.01, 1.01)}))
        assert 0.0 <= res.variance <= res.mean * (1 - res.mean) + 1e-12

    def test_inconsistent_evidence(self):
        c = parse_nnf("nnf 2 1 1\nL 1\nA 1 0\n")
        dead = set_condition(c, query=1, evidence=[(1, False)])
        with pytest.raises(InconsistentEvidenceError):
            eval_cov(shadow_circuit(dead), LabelTable({1: BetaLabel(2, 2)}))


class TestManyQueries:
    """One evidence circuit, every query: the answers of one-query calls."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_builtin_queries_match_one_query_calls(self, name):
        rng = random.Random(name)
        model = BUILTIN_MODELS[name]()
        circuit = model.circuit({v: rng.random() < 0.5
                                 for v in model.random_evidence_vars})
        labels = random_labels(rng, model.prob_vars)
        v1, v2 = model.prob_vars[:2]
        cov = {(min(v1, v2), max(v1, v2)): -1e-4}
        ev = set_condition(circuit, None, model.prob_evidence)
        queries = model.query_vars + tuple(-q for q in model.query_vars)
        batch = eval_cov_queries(ev, queries, labels, cov)
        specs = (prob_semiring(), mm_semiring(), sl_semiring())
        values = [conditioned_eval_queries(ev, spec, labels, queries)
                  for spec in specs]
        assert list(batch) == list(queries)
        for q in queries:
            staged = set_condition(circuit, q, model.prob_evidence)
            assert batch[q] == eval_cov(shadow_circuit(staged), labels, cov)
            for spec, got in zip(specs, values):
                assert got[q] == conditioned_eval(staged, spec, labels)

    def test_checks_queries(self, make_block_nnf):
        c = burglary_circuit()
        with pytest.raises(CircuitError, match="does not occur"):
            eval_cov_queries(c, (1, 4), burglary_labels())
        # Evidence zeroes the only leaf of variable 3, which still occurs.
        zeroed = set_condition(parse_nnf(make_block_nnf(2)), None,
                               [(3, False)])
        eval_cov_queries(zeroed, (3,), random_labels(random.Random(5),
                                                     range(1, 7)))
        with pytest.raises(ValueError, match="no queries"):
            eval_cov_queries(c, (), burglary_labels())

    def test_inconsistent_evidence_fails_every_query(self):
        dead = set_condition(burglary_circuit(), None, [(3, False)])
        with pytest.raises(InconsistentEvidenceError):
            eval_cov_queries(dead, (1, 2), burglary_labels())
        with pytest.raises(InconsistentEvidenceError):
            conditioned_eval_queries(dead, mm_semiring(), burglary_labels(),
                                     (1, 2))


def assert_matches_dense(sc, labels, leaf_cov=None):
    mean, variance = conditioned_moments(sc, labels, leaf_cov)
    res = eval_cov(sc, labels, leaf_cov)
    assert res.mean == mean
    assert abs(res.variance - variance) <= max(1e-12 * variance, 1e-15)
    return res


class TestGradientMatchesDense:
    """``eval_cov`` (root gradients) against the dense ``moment_sweep``."""

    def test_burglary(self):
        res = assert_matches_dense(shadow_circuit(staged_burglary()),
                                   burglary_labels())
        assert res.variance == pytest.approx(BURGLARY_VAR, abs=1e-12)

    def test_random_circuits(self):
        rng = random.Random(10)
        for _ in range(20):
            theory = random_theory(rng, rng.randint(4, 8))
            c = shannon_compile(theory)
            variables = sorted(c.variables())
            if not variables:
                continue
            labels = random_labels(rng, variables)
            staged = set_condition(c, query=rng.choice(variables))
            sc = shadow_circuit(staged)
            try:
                conditioned_moments(sc, labels)
            except InconsistentEvidenceError:
                with pytest.raises(InconsistentEvidenceError):
                    eval_cov(sc, labels)
                continue
            assert_matches_dense(sc, labels)

    def test_cross_covariance(self):
        rng = random.Random(11)
        nnf = ("nnf 8 7 3\nL 1\nL 2\nL 3\nL -3\n"
               "A 2 0 1\nA 2 4 2\nA 2 4 3\nO 3 2 5 6\n")
        labels = random_labels(rng, (1, 2, 3))
        cov = {(1, 2): 0.005, (2, 3): -0.003}
        # Query 1 has no negated leaf (the conditional is 1).
        assert_matches_dense(shadow_circuit(
            set_condition(parse_nnf(nnf), query=1)), labels, cov)
        # Query 3's conditional is theta_3 itself: rho_1 = rho_2 = 0, so no
        # cross entry can move its variance off var[theta_3].
        sc = shadow_circuit(set_condition(parse_nnf(nnf), query=3))
        for leaf_cov in (None, cov):
            res = assert_matches_dense(sc, labels, leaf_cov)
            assert abs(res.variance - labels.variance_of(3)) <= 1e-15

    def test_cross_entry_adds_its_rho_term(self, make_block_nnf):
        # One block (x and y) or (not x and z) with query x: the conditional
        # is xy / (xy + (1 - x) z), whose gradient rho has a closed form.
        rng = random.Random(13)
        labels = random_labels(rng, (1, 2, 3))
        x, y, z = (labels.mean_of(v) for v in (1, 2, 3))
        den = x * y + (1 - x) * z
        rho = {1: y * z / den ** 2, 2: x * (1 - x) * z / den ** 2,
               3: -x * y * (1 - x) / den ** 2}
        sc = shadow_circuit(set_condition(parse_nnf(make_block_nnf(1)),
                                          query=1))
        base = assert_matches_dense(sc, labels)
        assert base.variance == pytest.approx(
            sum(labels.variance_of(v) * r * r for v, r in rho.items()),
            rel=1e-12)
        for (i, j), cij in (((1, 2), 0.004), ((2, 3), -0.003),
                            ((1, 3), 0.002)):
            res = assert_matches_dense(sc, labels, {(i, j): cij})
            assert not res.variance_clamped
            assert res.variance - base.variance == pytest.approx(
                2 * cij * rho[i] * rho[j], rel=1e-12)

    def test_deep_and_chain(self):
        # AND(...AND(AND(l1, l2), l3)..., l24): 23 nested gates.
        k = 24
        lines = [f"L {i + 1}" for i in range(k)]
        lines.append(f"A 2 0 1")
        for i in range(2, k):
            lines.append(f"A 2 {k + i - 2} {i}")
        nnf = f"nnf {2 * k - 1} {2 * (k - 1)} {k}\n" + "\n".join(lines) + "\n"
        c = set_condition(parse_nnf(nnf), query=1)
        labels = LabelTable({v: BetaLabel(5, 5) for v in range(1, k + 1)})
        assert_matches_dense(shadow_circuit(c), labels)

    def test_net3_query(self):
        from betacircuits.examples import net3_model
        model = net3_model()
        c = model.circuit({v: True for v in model.random_evidence_vars})
        staged = set_condition(c, query=model.query_vars[0])
        labels = LabelTable({v: BetaLabel(3, 3) for v in model.prob_vars})
        assert_matches_dense(shadow_circuit(staged), labels)

    def test_block_circuit_1401_nodes(self, make_block_nnf):
        # Label means >= 0.5 keep every block >= 0.5, so E[root]^4 stays
        # far above the float underflow threshold.
        k = 200
        c = parse_nnf(make_block_nnf(k))
        assert len(c) == 1401
        rng = random.Random(12)
        labels = LabelTable({})
        for v in range(1, 3 * k + 1):
            a = rng.uniform(2.0, 20.0)
            labels.set(v, BetaLabel(a, a * rng.uniform(0.3, 1.0)))
        staged = set_condition(c, query=1, evidence=[(3 * k, True)])
        assert_matches_dense(shadow_circuit(staged), labels)


def exact_first_order(staged, labels):
    """The conditional and its first-order variance, in exact rationals.

    Both roots are multilinear in the leaf parameters (every AND is
    decomposable), so d root / d theta_v = root(theta_v = 1) -
    root(theta_v = 0).  Each float input enters at its exact value.
    Returns None when the evidence has probability 0.
    """
    qneg = {n.id for n in staged.nodes
            if n.kind is NodeKind.LITERAL and n.literal == -staged.query_literal}
    theta = {v: Fraction(labels.mean_of(v)) for v in staged.variables()}

    def root(values, pinned):
        val = []
        for n in staged.nodes:
            if n.kind is NodeKind.LITERAL:
                t = values[n.var]
                x = (Fraction(0) if n.literal in staged.zeroed or n.id in pinned
                     else t if n.literal > 0 else 1 - t)
            elif n.kind is NodeKind.AND:
                x = math.prod((val[ch] for ch in n.children), start=Fraction(1))
            elif n.kind is NodeKind.OR:
                x = sum((val[ch] for ch in n.children), Fraction(0))
            else:
                x = Fraction(n.kind is NodeKind.TRUE)
            val.append(x)
        return val[staged.root]

    num, den = root(theta, qneg), root(theta, set())
    if den == 0:
        return None
    mean = num / den
    var = Fraction(0)
    for v in theta:
        d = [root({**theta, v: Fraction(1)}, pinned)
             - root({**theta, v: Fraction(0)}, pinned)
             for pinned in (qneg, set())]
        rho = (d[0] * den - num * d[1]) / den ** 2
        var += Fraction(labels.variance_of(v)) * rho * rho
    return mean, min(var, max(mean, 0) * max(1 - mean, 0))


class TestExactArithmetic:
    def test_random_circuits_match_rationals(self):
        # Conditionals near 1 are where a sum of signed terms would cancel.
        rng = random.Random(1)
        near_one = 0
        for _ in range(150):
            theory = random_theory(rng, rng.randint(4, 8))
            c = shannon_compile(theory)
            variables = sorted(c.variables())
            if not variables:
                continue
            labels = random_labels(rng, variables)
            staged = set_condition(c, query=rng.choice(variables))
            exact = exact_first_order(staged, labels)
            if exact is None:
                continue
            mean, var = exact
            near_one += 0.99 < mean < 1
            res = eval_cov(shadow_circuit(staged), labels)
            assert abs(Fraction(res.variance) - var) <= var * Fraction(1e-13)
        assert near_one >= 1


class TestDeepCircuits:
    """Block circuits whose E[root] is 0.5^k, Beta(5,5) labels."""

    @staticmethod
    def answer(k, make_block_nnf, x=BetaLabel(5, 5), y=BetaLabel(5, 5),
               z=BetaLabel(5, 5)):
        c = parse_nnf(make_block_nnf(k))
        staged = set_condition(c, query=1, evidence=[(3 * k, True)])
        labels = LabelTable({v: (x, y, z)[(v - 1) % 3]
                             for v in range(1, 3 * k + 1)})
        return eval_cov(shadow_circuit(staged), labels)

    @pytest.mark.parametrize("k", [300, 400, 1000])
    def test_one_block_closed_form(self, k, make_block_nnf):
        # The other blocks cancel from the ratio: mean 0.25/0.5, and
        # var = (1 + 1/4 + 1/4) var[theta] with var[theta] = 1/44.
        res = self.answer(k, make_block_nnf)
        assert res.mean == pytest.approx(0.5, rel=1e-12)
        assert res.variance == pytest.approx(3 / 88, rel=1e-12)

    # Non-dyadic labels: each block has mean 0.3*0.7 + 0.7*0.4 = 0.49, so
    # E[root] is normal at 980 blocks (~2^-1009) and subnormal at 1,030.
    NON_DYADIC = dict(x=BetaLabel(3, 7), y=BetaLabel(7, 3), z=BetaLabel(4, 6))

    def test_non_dyadic_closed_form_while_normal(self, make_block_nnf):
        # mu = xy/D with D = xy + (1-x)z, whose gradient over block 0 is
        # (yz, x(1-x)z, -xy(1-x))/D^2.
        res = self.answer(980, make_block_nnf, **self.NON_DYADIC)
        (mx, vx), (my, vy), (mz, vz) = (
            (b.mean, b.variance) for b in self.NON_DYADIC.values())
        d = mx * my + (1 - mx) * mz
        var = (vx * (my * mz) ** 2 + vy * (mx * (1 - mx) * mz) ** 2
               + vz * (mx * my * (1 - mx)) ** 2) / d ** 4
        assert res.mean == pytest.approx(mx * my / d, rel=1e-12)
        assert res.variance == pytest.approx(var, rel=1e-12)

    def test_subnormal_evidence_is_a_numerical_failure(self, make_block_nnf):
        with pytest.raises(ArithmeticError, match="subnormal"):
            self.answer(1030, make_block_nnf, **self.NON_DYADIC)

    def test_evidence_underflow_is_still_inconsistent(self, make_block_nnf):
        # Open defect (ROADMAP item 3): 0.5^1200 underflows to 0.0 in the
        # forward pass, and the zero is reported as inconsistent evidence.
        with pytest.raises(InconsistentEvidenceError):
            self.answer(1200, make_block_nnf)
