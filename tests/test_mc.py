"""Tests for the Monte Carlo sampling baseline."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import random_theory

from betacircuits.betacalc import BetaLabel, Moments, QueryResult, moment_match
from betacircuits.circuit import (CircuitError, LabelTable, NodeKind,
                                  parse_nnf, set_condition)
from betacircuits.compile import shannon_compile
from betacircuits.examples import (burglary_circuit, burglary_labels,
                                   net1_model, point_labels, smokers_model)
from betacircuits.learn import fit_complete, sample_observations
from betacircuits.mc import (MAX_REJECTION_RATE, MCResult, mc_eval,
                             mc_eval_queries, mc_strength)
from betacircuits.semirings import InconsistentEvidenceError


STAGED = set_condition(burglary_circuit(), query=1)


class TestMCEval:
    def test_point_labels_give_exact_conditional(self):
        labels = point_labels({1: 0.1, 2: 0.2, 3: 0.5})
        got = mc_eval(STAGED, labels, 200, seed=0)
        assert got.mean == pytest.approx(5.0 / 14.0, abs=1e-4)
        assert got.variance < 1e-7

    def test_burglary_within_three_se(self):
        got = mc_eval(STAGED, burglary_labels(), 10000, seed=1)
        se = math.sqrt(got.variance / 10000)
        # The sample mean of the exact per-draw conditional is biased only
        # at O(1/strength); with these weak labels the ratio bias dominates
        # a pure CLT band, so allow a small absolute slack on top of 3 SE.
        assert abs(got.mean - 5.0 / 14.0) < 3 * se + 0.02

    def test_seeded_determinism(self):
        a = mc_eval(STAGED, burglary_labels(), 500, seed=9)
        b = mc_eval(STAGED, burglary_labels(), 500, seed=9)
        c = mc_eval(STAGED, burglary_labels(), 500, seed=10)
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.samples, b.samples)
        assert a.mean != c.mean

    def test_error_scales_with_sample_count(self):
        # Standard error of the mean shrinks roughly like n^(-1/2).
        # Compare against a large reference run rather than 5/14 so the
        # (n-independent) second-order bias of the conditional cancels.
        ref = mc_eval(STAGED, burglary_labels(), 200000, seed=999).mean
        errs = {}
        for n in (100, 10000):
            errs[n] = np.mean([
                abs(mc_eval(STAGED, burglary_labels(), n, seed=s).mean - ref)
                for s in range(20)])
        assert errs[10000] < errs[100] / 3

    def test_rejection_counting_and_inconsistency(self):
        # A single-leaf circuit with the leaf contradicted by evidence:
        # every sample's evidence probability is zero.
        c = parse_nnf("nnf 1 0 1\nL 1\n")
        dead = set_condition(c, query=1, evidence=[(1, False)])
        labels = LabelTable({1: BetaLabel(2.0, 3.0)})
        with pytest.raises(InconsistentEvidenceError, match="rejected"):
            mc_eval(dead, labels, 50, seed=0)

    def test_requires_staged_query(self):
        with pytest.raises(ValueError, match="staged query"):
            mc_eval(burglary_circuit(), burglary_labels(), 10)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            mc_eval(STAGED, burglary_labels(), 0)

    def test_unlabelled_atoms_weigh_one(self):
        # Variable 2 carries no label: both polarities weigh 1.  With the
        # theory q <-> d (d derived), the conditional P(q | theory) equals
        # the labelled leaf's probability, so the MC mean tracks its mean.
        c = parse_nnf(
            "nnf 7 6 2\nL 1\nL 2\nL -1\nL -2\nA 2 0 1\nA 2 2 3\nO 1 2 4 5\n")
        staged = set_condition(c, query=1)
        labels = LabelTable({1: BetaLabel(400, 600)})
        got = mc_eval(staged, labels, 5000, seed=3)
        assert got.mean == pytest.approx(0.4, abs=0.01)


def fitted_labels(model, rng, n_ins=30):
    truth = {v: float(rng.uniform(0.01, 0.99)) for v in model.prob_vars}
    data, variables = sample_observations(truth, n_ins, rng)
    return fit_complete(data, variables)[0]


def full_sweep(c, leaf_probs, size, zero_literal=0):
    """Every node, evaluated as a plain probability-semiring sweep."""
    values = [None] * len(c.nodes)
    for n in c.nodes:
        if n.kind is NodeKind.LITERAL:
            if n.literal in c.zeroed or n.literal == zero_literal:
                values[n.id] = np.zeros(size)
            elif n.var not in leaf_probs:
                values[n.id] = np.ones(size)
            else:
                p = leaf_probs[n.var]
                values[n.id] = p if n.literal > 0 else 1.0 - p
        elif n.kind is NodeKind.TRUE:
            values[n.id] = np.ones(size)
        elif n.kind is NodeKind.FALSE:
            values[n.id] = np.zeros(size)
        else:
            acc = values[n.children[0]]
            for ch in n.children[1:]:
                if n.kind is NodeKind.AND:
                    acc = acc * values[ch]
                else:
                    acc = acc + values[ch]
            values[n.id] = acc
    return values[c.root]


def reference_mc(c, queries, labels, n_samples, seed):
    """``mc_eval_queries``' samples and rejections, drawn up front.

    Each batch draws one array per labelled variable with a leaf in ``c``,
    in ascending variable order (a constant one for a certain label),
    before it evaluates anything, and then runs ``full_sweep``.
    """
    rng = np.random.default_rng(seed)
    variables = sorted({n.var for n in c.nodes
                        if n.kind is NodeKind.LITERAL and n.var in labels})
    accepted = {q: [] for q in queries}
    n_acc = rejections = total = 0
    while n_acc < n_samples:
        batch = n_samples - n_acc
        probs = {}
        for v in variables:
            label = labels.label_of(v)
            probs[v] = (rng.beta(label.alpha_pos, label.alpha_neg, size=batch)
                        if label.certain is None
                        else np.full(batch, float(label.certain)))
        ev = full_sweep(c, probs, batch)
        ok = ev > 0.0
        for q in queries:
            accepted[q].append(full_sweep(c, probs, batch, -q)[ok] / ev[ok])
        n_acc += int(ok.sum())
        rejections += batch - int(ok.sum())
        total += batch
        if (total >= max(100, 2 * n_samples)
                and rejections / total > MAX_REJECTION_RATE):
            raise InconsistentEvidenceError("rejected")
    return ({q: np.concatenate(accepted[q])[:n_samples] for q in queries},
            rejections)


class TestSharedDraw:
    """``mc_eval_queries``: one draw and one evidence sweep for all queries."""

    @pytest.mark.parametrize("make_model", [net1_model, smokers_model])
    def test_each_query_matches_mc_eval(self, make_model):
        model = make_model()
        rng = np.random.default_rng(4)
        for seed in range(3):
            ev = {v: bool(rng.integers(2)) for v in model.random_evidence_vars}
            c = model.circuit(ev)
            labels = fitted_labels(model, rng)
            evidence = set_condition(c, None, model.prob_evidence)
            got = mc_eval_queries(evidence, model.query_vars, labels, 2000,
                                  seed=seed)
            assert list(got) == list(model.query_vars)
            for q in model.query_vars:
                staged = set_condition(c, q, model.prob_evidence)
                want = mc_eval(staged, labels, 2000, seed=seed)
                assert got[q].samples.tobytes() == want.samples.tobytes()
                assert got[q].rejections == want.rejections

    def test_ancestor_sweep_matches_full_sweep(self):
        # Each query's samples are its full-sweep joint over the full-sweep
        # evidence probability, bit for bit, on the reference's draws.
        rng = random.Random(10)
        checked = 0
        for seed in range(20):
            theory = random_theory(rng, rng.randint(4, 8))
            c = shannon_compile(theory)
            variables = sorted({n.var for n in c.nodes
                                if n.kind is NodeKind.LITERAL})
            if not variables:
                continue
            evidence = [(v, rng.random() < 0.5)
                        for v in rng.sample(variables, rng.randint(0, 2))]
            c = set_condition(c, None, evidence)
            # Leave one variable unlabelled: a derived atom of weight 1.
            labels = LabelTable({v: BetaLabel(2.0, 3.0)
                                 for v in variables[1:]})
            queries = [v * rng.choice((1, -1)) for v in variables]
            try:
                want, rejections = reference_mc(c, queries, labels, 64, seed)
            except InconsistentEvidenceError:
                continue
            got = mc_eval_queries(c, queries, labels, 64, seed=seed)
            for q in queries:
                assert got[q].samples.tobytes() == want[q].tobytes()
                assert got[q].rejections == rejections
            checked += 1
        assert checked >= 15

    def test_draw_stream_holds_across_rejection_batches(self):
        # Variable 2's only leaf is conditioned out, the leaves of 3 and 6
        # do not reach the root, and literal 1 sits on two leaf nodes.
        # A quarter of Beta(0.02, 0.02) draws are exactly 1.0, which zeroes
        # the negated leaf, so some samples' evidence probability is 0.0.
        c = parse_nnf("nnf 13 10 6\n"
                      "L 1\nL -4\nL -1\nL -5\nL 1\nL 4\nL -2\nL 3\nL 6\n"
                      "A 2 0 1\nA 2 2 3\nA 3 4 5 6\nO 0 3 9 10 11\n")
        c = set_condition(c, None, [(2, True)])
        labels = LabelTable({v: BetaLabel(0.02, 0.02) for v in range(1, 7)})
        queries = (1, -4, 5)
        want, rejections = reference_mc(c, queries, labels, 200, seed=3)
        assert rejections > 0
        got = mc_eval_queries(c, queries, labels, 200, seed=3)
        for q in queries:
            assert got[q].samples.tobytes() == want[q].tobytes()
            assert got[q].rejections == rejections

    def test_smokers_golden_call_memory(self):
        # Every array is dropped after its last reader.  Two full sweeps
        # per query, one query at a time, peaked above 12 MB.
        model = smokers_model()
        labels = fitted_labels(model, np.random.default_rng(0), n_ins=50)
        evidence = set_condition(model.circuit({}), None, model.prob_evidence)
        tracemalloc.start()
        try:
            mc_eval_queries(evidence, model.query_vars, labels, 10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_block_circuit_memory(self, make_block_nnf):
        # Block circuits list their leaves in ascending variable order, so
        # each variable's draw is held only across its own block.  Drawn
        # up front, the 900 draws alone take 14.4 MB.
        c = set_condition(parse_nnf(make_block_nnf(300)), query=1,
                          evidence=[(900, True)])
        labels = LabelTable({v: BetaLabel(2.0, 3.0) for v in range(1, 901)})
        tracemalloc.start()
        try:
            mc_eval(c, labels, 2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_memory_does_not_grow_with_fan_in(self, make_block_nnf):
        # The root folds in each block as soon as that block is done, and
        # the block's value is dropped then, so no call holds all blocks.
        peaks = {}
        for k in (30, 300):
            c = set_condition(parse_nnf(make_block_nnf(k)), query=1,
                              evidence=[(3 * k, True)])
            labels = LabelTable({v: BetaLabel(2.0, 3.0)
                                 for v in range(1, 3 * k + 1)})
            # Untraced first: it builds the schedule and warms numpy up.
            mc_eval(c, labels, 2000, seed=0)
            tracemalloc.start()
            try:
                mc_eval(c, labels, 2000, seed=0)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[300] <= 1.5 * peaks[30]
        assert peaks[300] <= 0.5e6

    def test_argument_errors(self, make_block_nnf):
        with pytest.raises(ValueError, match="no queries"):
            mc_eval_queries(STAGED, (), burglary_labels(), 10)
        with pytest.raises(ValueError, match="n_samples"):
            mc_eval_queries(STAGED, (1,), burglary_labels(), 0)
        with pytest.raises(CircuitError, match="does not occur"):
            mc_eval_queries(STAGED, (1, 4), burglary_labels(), 10)
        # Evidence zeroes the only leaf of variable 3, which still occurs.
        zeroed = set_condition(parse_nnf(make_block_nnf(2)), None,
                               [(3, False)])
        labels = LabelTable({v: BetaLabel(2.0, 3.0) for v in range(1, 7)})
        mc_eval_queries(zeroed, (3,), labels, 10)


#: The smoothed one-variable circuit: its query's conditional is theta_1.
ONE_LEAF = set_condition(parse_nnf("nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1\n"),
                         query=1)


class TestMCStrength:
    def test_inverts_beta_moments(self):
        labels = LabelTable({1: BetaLabel(6.0, 4.0)})
        res = mc_eval(ONE_LEAF, labels, 200_000, seed=5)
        assert mc_strength(res) == pytest.approx(10.0, rel=0.05)

    def test_zero_variance_is_infinite(self):
        # The matched label saturates at MAX_STRENGTH; the strength is inf.
        constant = MCResult(0.3, 0.0, moment_match(Moments(0.3, 0.0)),
                            samples=np.full(100, 0.3), rejections=0)
        assert mc_strength(constant) == float("inf")
        single = mc_eval(ONE_LEAF, LabelTable({1: BetaLabel(6.0, 4.0)}), 1)
        assert single.variance == 0.0
        assert mc_strength(single) == float("inf")

    def test_matched_is_the_moment_match(self):
        res = mc_eval_queries(set_condition(burglary_circuit(), query=None),
                              (1, 2), burglary_labels(), 500, seed=3)
        for r in res.values():
            assert isinstance(r, QueryResult)
            assert r.matched == moment_match(Moments(r.mean, r.variance))
