"""Tests for circuit parsing, validation, conditioning, and evaluation."""

import gc
import itertools
import operator
import random
import re
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import (random_labels, random_theory, scopes, sweep,
                      truth_value)

from betacircuits import circuit as circuit_module
from betacircuits.betacalc import BetaLabel
from betacircuits.circuit import (
    CircuitError, LabelTable, NodeKind, eval_queries, format_label_table,
    format_nnf, parse_condition_file, parse_label_table, parse_nnf,
    _Schedule, set_condition, validate)
from betacircuits.compile import Theory, f_iff, f_not, f_var, shannon_compile
from betacircuits.cpb import (eval_cov, eval_cov_queries, parse_leaf_cov,
                              shadow_circuit)
from betacircuits.examples import (BUILTIN_MODELS, burglary_circuit,
                                   burglary_labels)
from betacircuits.mc import mc_eval
from betacircuits.semirings import (InconsistentEvidenceError,
                                    conditioned_eval,
                                    conditioned_eval_queries, mm_semiring,
                                    prob_semiring, sl_semiring)


def full_sweep(c, zero, one, plus, times, leaf_value, zero_literal=0):
    """The root of ``full_values``: the reference for ``eval_queries``."""
    return full_values(c, zero, one, plus, times, leaf_value,
                       zero_literal)[c.root]


def full_values(c, zero, one, plus, times, leaf_value, zero_literal=0):
    """Every node in file order, each gate folded whole, the leaves of
    ``zero_literal`` forced to ``zero``."""
    values = []
    for n in c.nodes:
        if n.kind is NodeKind.LITERAL:
            dead = n.literal in c.zeroed or n.literal == zero_literal
            values.append(zero if dead else leaf_value(n.literal))
        elif n.kind is NodeKind.TRUE:
            values.append(one)
        elif n.kind is NodeKind.FALSE:
            values.append(zero)
        else:
            op = times if n.kind is NodeKind.AND else plus
            acc = values[n.children[0]]
            for ch in n.children[1:]:
                acc = op(acc, values[ch])
            values.append(acc)
    return values


def exact(value):
    """A repr that tells every float bit apart, arrays included."""
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def random_nnf(rng):
    """A small random AND/OR DAG; most are neither decomposable nor
    deterministic."""
    nv = rng.randint(1, 8)
    lines = [f"L {rng.choice((1, -1)) * rng.randint(1, nv)}"
             for _ in range(rng.randint(2, 10))]
    for _ in range(rng.randint(1, 14)):
        r = rng.random()
        if r < 0.05:
            lines.append("A 0")
        elif r < 0.1:
            lines.append("O 0 0")
        else:
            ids = [rng.randrange(len(lines)) for _ in range(rng.randint(1, 4))]
            head = "A" if r < 0.5 else "O 0"
            lines.append(f"{head} {len(ids)} " + " ".join(map(str, ids)))
    return f"nnf {len(lines)} 0 {nv}\n" + "\n".join(lines) + "\n"


def local_enumeration_violations(c):
    """Determinism oracle: each OR node's children, evaluated recursively
    on every assignment of the node's own scope in turn."""
    out = []
    scope = scopes(c)
    for n in c.nodes:
        if n.kind is not NodeKind.OR:
            continue
        local_vars = sorted(scope[n.id])
        for bits in range(1 << len(local_vars)):
            assignment = {v: bool((bits >> i) & 1)
                          for i, v in enumerate(local_vars)}
            sat = [ch for ch in n.children
                   if truth_value(c, assignment, ch)]
            if len(sat) > 1:
                out.append(f"node {n.id}: OR children {sat} overlap on "
                           f"assignment {assignment}")
                break
    return out


def parity_circuit(n):
    """x1 xor ... xor xn, compiled: a shared DAG of about 8n nodes."""
    f = f_var(1)
    for v in range(2, n + 1):
        f = f_not(f_iff(f, f_var(v)))
    return shannon_compile(Theory(n, (f,)))


def enumeration_wmc(c, labels, zero_literals=frozenset()):
    """Brute-force weighted model count over all assignments (oracle)."""
    variables = sorted({n.var for n in c.nodes if n.kind is NodeKind.LITERAL})
    lam0 = {n.literal for n in c.nodes
            if n.kind is NodeKind.LITERAL and n.literal in c.zeroed}
    dead = lam0 | set(zero_literals)
    total = 0.0
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if not truth_value(c, assignment):
            continue
        if any(assignment[abs(l)] == (l > 0) for l in dead):
            continue
        w = 1.0
        for v, val in assignment.items():
            w *= labels.mean_of(v if val else -v)
        total += w
    return total


class TestParsing:
    def test_burglary_parses(self):
        c = burglary_circuit()
        assert len(c) == 7
        assert c.root == 6
        assert c.var_count == 3
        assert c.node(0).literal == 1
        assert c.node(5).kind is NodeKind.OR
        assert c.node(5).decision_var == 1

    def test_round_trip(self):
        c = burglary_circuit()
        assert parse_nnf(format_nnf(c)).nodes == c.nodes

    def test_true_false_sentinels(self):
        c = parse_nnf("nnf 2 0 1\nA 0\nO 0 0\n")
        assert c.node(0).kind is NodeKind.TRUE
        assert c.node(1).kind is NodeKind.FALSE

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(CircuitError, match="line 1"):
            parse_nnf("bogus header\nL 1\n")
        with pytest.raises(CircuitError, match="line 2"):
            parse_nnf("nnf 1 0 1\nL 5\n")           # literal out of range
        with pytest.raises(CircuitError, match="line 3"):
            parse_nnf("nnf 2 1 1\nL 1\nA 2 0\n")    # arity mismatch
        with pytest.raises(CircuitError, match="line 3"):
            parse_nnf("nnf 2 1 1\nL 1\nA 1 5\n")    # dangling child
        with pytest.raises(CircuitError, match="declares 3 nodes"):
            parse_nnf("nnf 3 0 1\nL 1\n")
        with pytest.raises(CircuitError):
            parse_nnf("")

    def test_comment_lines_ignored(self):
        c = parse_nnf("c a comment\nnnf 1 0 1\nL 1\n")
        assert len(c) == 1

    def test_hash_and_c2d_comments_in_burglary(self):
        # README promises "#" comments in every format; c2d writes "c".
        header, *body = format_nnf(burglary_circuit()).splitlines()
        text = "\n".join(["c compiled by c2d", "# burglary", header,
                          "  # leaves", *body[:3], "c gates", *body[3:]])
        assert parse_nnf(text).nodes == burglary_circuit().nodes


class TestValidation:
    def test_burglary_is_valid(self):
        rep = validate(burglary_circuit())
        assert rep.ok
        assert rep.determinism_exact

    def test_decomposability_violation(self):
        # AND over two leaves of the same variable.
        c = parse_nnf("nnf 3 2 1\nL 1\nL 1\nA 2 0 1\n")
        rep = validate(c)
        assert not rep.ok
        assert "share variables" in rep.violations[0]

    def test_determinism_violation(self):
        # OR over two copies of the same literal: children overlap.
        c = parse_nnf("nnf 3 2 1\nL 1\nL 1\nO 1 2 0 1\n")
        rep = validate(c)
        assert not rep.ok
        assert "overlap" in rep.violations[0]

    def test_determinism_message_names_children_and_row(self):
        c = parse_nnf("nnf 3 2 1\nL 1\nL 1\nO 1 2 0 1\n")
        assert validate(c).violations == [
            "node 2: OR children [0, 1] overlap on assignment {1: True}"]

    def test_determinism_matches_local_enumeration(self):
        rng = random.Random(7)
        flagged = 0
        for _ in range(400):
            c = parse_nnf(random_nnf(rng))
            expect = local_enumeration_violations(c)
            got = [v for v in validate(c).violations if "OR children" in v]
            assert got == expect
            flagged += bool(expect)
        assert flagged > 100

    def test_parity_16_validates_fast(self):
        c = parity_circuit(16)
        t0 = time.perf_counter()
        rep = validate(c)
        elapsed = time.perf_counter() - t0
        assert rep.ok and rep.determinism_exact
        assert elapsed < 1.0

    def test_determinism_skipped_above_threshold(self, monkeypatch):
        monkeypatch.setattr(circuit_module, "MAX_CHECK_VARS", 2)
        rep = validate(burglary_circuit())
        assert rep.ok
        assert not rep.determinism_exact
        assert rep.warnings


class TestEvaluation:
    def test_burglary_evidence_probability(self):
        # P(calls) = (0.1 + 0.9*0.2) * 0.7 = 0.196
        got, _ = sweep(burglary_circuit(), prob_semiring(), burglary_labels())
        assert got == pytest.approx(0.196, abs=1e-12)

    def test_burglary_joint_probability(self):
        # Forcing the not-burglary leaves to zero leaves P(b, calls) = 0.07.
        _, joints = sweep(burglary_circuit(), prob_semiring(),
                          burglary_labels(), (1,))
        assert joints[1] == pytest.approx(0.07, abs=1e-12)

    def test_absent_variables_count_one(self):
        # A variable without a label is a derived atom: both polarities
        # weigh 1, so (v OR not v) counts 2 with empty labels.
        c = parse_nnf("nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1\n")
        assert sweep(c, prob_semiring(), LabelTable())[0] == pytest.approx(2.0)

    def test_each_node_evaluated_once(self):
        # Seven nodes: four leaves read once each, and two binary ANDs and
        # one binary OR folded once each.  The joint of query -3 zeroes
        # leaf 3 and re-folds only its one ancestor, the root AND.
        calls = []
        labels = burglary_labels()
        eval_queries(burglary_circuit(), (-3,), 0.0, 1.0,
                     lambda a, b: calls.append("+") or a + b,
                     lambda a, b: calls.append("*") or a * b,
                     leaf_value=lambda lit: calls.append(lit) or
                     labels.mean_of(lit))
        assert sorted(calls, key=str) == ["*", "*", "*", "+", -1, 1, 2, 3]

    def test_nodes_off_the_root_are_not_evaluated(self):
        # Leaf 2 and the AND above it feed nothing that reaches the root.
        c = parse_nnf("nnf 4 3 2\nL 1\nL 2\nA 1 1\nA 1 0\n")
        calls = []
        ev, joints = eval_queries(c, (2,), 0.0, 1.0, operator.add,
                                  operator.mul,
                                  lambda lit: calls.append(lit) or 0.5)
        assert calls == [1] and ev == joints[2] == 0.5

    @pytest.mark.parametrize("domain", ["mc", "prob", "sl", "mm"])
    def test_ancestor_sweep_matches_full_sweep(self, domain):
        # Each root is the full sweep's, bit for bit: float arrays as the
        # Monte Carlo batches use them, and the three semirings.  Compiled
        # theories are d-DNNF with binary gates; the random DAGs add gates
        # of up to four children, whose fold order shows in sl and mm,
        # repeated children and nodes that do not reach the root.
        rng = random.Random(10)
        nrng = np.random.default_rng(10)
        checked = 0
        for k in range(40):
            c = (parse_nnf(random_nnf(rng)) if k % 2 else
                 shannon_compile(random_theory(rng, rng.randint(4, 8))))
            variables = sorted({n.var for n in c.nodes
                                if n.kind is NodeKind.LITERAL})
            if not variables:
                continue
            n_evidence = rng.randint(0, min(2, len(variables)))
            evidence = [(v, rng.random() < 0.5)
                        for v in rng.sample(variables, n_evidence)]
            c = set_condition(c, None, evidence)
            # Leave one variable unlabelled: a derived atom of weight 1.
            if domain == "mc":
                probs = {v: nrng.beta(2.0, 3.0, size=64)
                         for v in variables[1:]}
                ones = np.ones(64)
                ops = (np.zeros(64), ones, operator.add, operator.mul,
                       lambda lit: ones if abs(lit) not in probs
                       else probs[lit] if lit > 0 else 1.0 - probs[-lit])
            else:
                spec = {"prob": prob_semiring, "sl": sl_semiring,
                        "mm": mm_semiring}[domain]()
                labels = LabelTable({v: BetaLabel(rng.uniform(0.5, 10),
                                                  rng.uniform(0.5, 10))
                                     for v in variables[1:]})
                ops = (spec.zero, spec.one, spec.plus, spec.times,
                       lambda lit: spec.from_label(labels.label_of(lit)))
            queries = [v * rng.choice((1, -1)) for v in variables]
            try:
                # No literal is 0: want[0] is the evidence sweep.
                want = [full_sweep(c, *ops, -q) for q in [0] + queries]
            except ZeroDivisionError:
                # sl's product divides by 1 - a_x a_y, which the base rates
                # of a random DAG's non-exclusive ORs can drive to 0.
                continue
            ev, joints = eval_queries(c, queries, *ops)
            assert exact(ev) == exact(want[0])
            for q, joint in zip(queries, want[1:]):
                assert exact(joints[q]) == exact(joint)
            checked += 1
        assert checked >= 30

    def test_cpb_mean_is_prob_bit_for_bit(self):
        # cpb's forward pass is the sweep behind prob: the same sums and
        # products in file order, so E[X]/E[Y] is prob's conditional to the
        # bit.  The random DAGs add gates of up to four children, where a
        # different summation order rounds differently.
        rng = random.Random(11)
        cases = []
        for name in sorted(BUILTIN_MODELS):
            model = BUILTIN_MODELS[name]()
            circuit = model.circuit({v: rng.random() < 0.5
                                     for v in model.random_evidence_vars})
            queries = model.query_vars + tuple(-q for q in model.query_vars)
            cases.append((set_condition(circuit, None, model.prob_evidence),
                          random_labels(rng, model.prob_vars), queries))
        for _ in range(100):
            c = parse_nnf(random_nnf(rng))
            variables = sorted(c.variables())
            if not variables:
                continue
            cases.append((c, random_labels(rng, variables),
                          [v * rng.choice((1, -1)) for v in variables]))
        checked = 0
        for c, labels, queries in cases:
            try:
                want = conditioned_eval_queries(c, prob_semiring(), labels,
                                                queries)
            except InconsistentEvidenceError:
                with pytest.raises(InconsistentEvidenceError):
                    eval_cov_queries(c, queries, labels)
                continue
            got = eval_cov_queries(c, queries, labels)
            assert {q: r.mean for q, r in got.items()} == want
            checked += 1
        assert checked > 90

    def test_matches_enumeration(self):
        rng = random.Random(11)
        c = burglary_circuit()
        for _ in range(50):
            labels = LabelTable({v: BetaLabel(rng.uniform(0.5, 10),
                                              rng.uniform(0.5, 10))
                                 for v in (1, 2, 3)})
            assert sweep(c, prob_semiring(), labels)[0] == pytest.approx(
                enumeration_wmc(c, labels), abs=1e-12)

    def test_truth_value(self):
        c = burglary_circuit()
        assert truth_value(c, {1: True, 2: False, 3: True})
        assert not truth_value(c, {1: False, 2: False, 3: True})
        assert not truth_value(c, {1: True, 2: False, 3: False})
        with pytest.raises(KeyError):
            truth_value(c, {1: True, 2: False})


# Gates 8, 9 and 10 list their children out of id order, gate 7 lists
# one child twice and gate 10 lists gate 9 twice.  Each query's joint
# sweep recomputes a three-child gate whose other children are not zero,
# where another fold order would round differently.
FOLD_ORDER_NNF = ("nnf 11 13 3\n"
                  "L 1\nL -1\nL 2\nL -2\nL 3\nL -3\n"
                  "O 0 2 1 4\nA 2 3 3\nA 3 5 6 2\nO 0 3 8 7 0\n"
                  "O 0 3 9 4 9\n")


def full_fold_pass(c, queries):
    """``_Schedule.run`` by ``full_values`` for the pass of ``queries``:
    every sweep folds every node whole, and nothing is dropped."""
    def run(plan, zero, one, plus, times, leaf, drop=True):
        ops = (zero, one, plus, times, leaf)
        values = full_values(c, *ops) + [None] * (plan.size - len(c))
        for q, root, sweep in zip(queries, plan.roots[1:], plan.folds[1:]):
            # Each joint slot is the root's or a recomputed gate's child's.
            joint = full_values(c, *ops, -q)
            values[root] = joint[c.root]
            for i, (_, _, kids) in sweep.items():
                for ch, slot in zip(c.nodes[i].children, kids):
                    if slot >= len(c):
                        values[slot] = joint[ch]
        return values
    return run


class TestFoldOrder:
    """The lockstep pass folds each gate child by child as its children
    become ready; every value must still be that of a whole fold."""

    @pytest.fixture(params=["hand", "blocks"])
    def case(self, request, make_block_nnf):
        if request.param == "hand":
            c = parse_nnf(FOLD_ORDER_NNF)
            return c, [1, -1, 2, -2, 3, -3]
        c = set_condition(parse_nnf(make_block_nnf(300)), None, [(900, True)])
        return c, [1, -1, -4, 449, -898, 900]

    @pytest.mark.parametrize("domain", ["mc", "prob", "sl", "mm"])
    def test_eval_queries_matches_full_fold(self, case, domain):
        c, queries = case
        rng = np.random.default_rng(12)
        variables = sorted({n.var for n in c.nodes
                            if n.kind is NodeKind.LITERAL})
        if domain == "mc":
            probs = {v: rng.beta(2.0, 3.0, size=16) for v in variables}
            ops = (np.zeros(16), np.ones(16), operator.add, operator.mul,
                   lambda lit: probs[lit] if lit > 0 else 1.0 - probs[-lit])
        else:
            spec = {"prob": prob_semiring, "sl": sl_semiring,
                    "mm": mm_semiring}[domain]()
            labels = random_labels(random.Random(12), variables)
            ops = (spec.zero, spec.one, spec.plus, spec.times,
                   lambda lit: spec.from_label(labels.label_of(lit)))
        ev, joints = eval_queries(c, queries, *ops)
        assert exact(ev) == exact(full_sweep(c, *ops))
        for q in queries:
            assert exact(joints[q]) == exact(full_sweep(c, *ops, -q))

    def test_cpb_matches_full_fold(self, case, monkeypatch):
        c, queries = case
        variables = sorted({n.var for n in c.nodes
                            if n.kind is NodeKind.LITERAL})
        labels = random_labels(random.Random(13), variables)
        got = eval_cov_queries(c, queries, labels)
        monkeypatch.setattr(_Schedule, "run", full_fold_pass(c, queries))
        want = eval_cov_queries(c, queries, labels)
        assert ({q: (r.mean, r.variance) for q, r in got.items()}
                == {q: (r.mean, r.variance) for q, r in want.items()})

    def test_circuit_and_schedule_need_no_cycle_collector(self):
        # A cached schedule must not point back at its circuit, or both
        # would live until the cyclic collector ran.
        gc.disable()
        try:
            c = set_condition(burglary_circuit(), query=1)
            labels = burglary_labels()
            eval_cov_queries(c, (1,), labels)
            conditioned_eval_queries(c, prob_semiring(), labels, (1,))
            mc_eval(c, labels, 10)
            refs = [weakref.ref(c), weakref.ref(c.schedule((1,)))]
            del c
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestConditioning:
    def test_set_condition_zeroes_contradicting_leaves(self):
        c = burglary_circuit()
        conditioned = set_condition(c, query=1, evidence=[(2, True)])
        # Evidence earthquake=True kills no leaf here (no -2 leaf exists),
        # but evidence earthquake=False would kill the positive leaf.
        conditioned = set_condition(c, query=1, evidence=[(2, False)])
        assert 2 in conditioned.zeroed
        assert 1 not in conditioned.zeroed
        assert conditioned.query_literal == 1
        # The original circuit is untouched.
        assert c.zeroed == frozenset()

    def test_missing_query_variable_rejected(self, make_block_nnf):
        with pytest.raises(CircuitError, match="does not occur"):
            set_condition(burglary_circuit(), query=9)
        # Evidence zeroes the only leaf of variable 3; the variable still
        # occurs, though the pass reads no leaf of it.
        staged = set_condition(parse_nnf(make_block_nnf(2)), query=3,
                               evidence=[(3, False)])
        assert 3 in staged.variables()
        assert all(staged.nodes[i].var != 3
                   for i in staged.schedule((3,)).leaves)

    def test_rejected_query_leaves_no_pass(self):
        c = burglary_circuit()
        with pytest.raises(CircuitError, match="does not occur"):
            set_condition(c, query=9)
        with pytest.raises(CircuitError, match="does not occur"):
            eval_cov_queries(c, (1, 9), burglary_labels())
        assert list(c._schedules) == []
        # A query that passes keeps its pass for the evaluator.
        set_condition(c, query=1)
        assert list(c._schedules) == [(frozenset(), (1,))]

    def test_conditioning_copies_no_node(self):
        c = burglary_circuit()
        conditioned = set_condition(c, query=1, evidence=[(2, False)])
        assert conditioned.nodes is c.nodes
        assert conditioned.zeroed == {2}
        assert c.zeroed == frozenset()

    def test_conditioning_twice_takes_the_union(self):
        c = set_condition(burglary_circuit(), None, [(2, False)])
        twice = set_condition(c, query=1, evidence=[(3, True), (1, True)])
        assert twice.zeroed == {2, -3, -1}
        assert twice.query_literal == 1
        assert c.zeroed == {2}

    def test_conditionings_share_their_passes(self, monkeypatch):
        builds = []
        build = _Schedule.build

        def counted(c, *args):
            builds.append(c.zeroed)
            return build(c, *args)

        monkeypatch.setattr(_Schedule, "build", counted)
        c, labels = burglary_circuit(), burglary_labels()

        def answer(evidence):
            staged = set_condition(c, query=1, evidence=evidence)
            return conditioned_eval_queries(staged, prob_semiring(), labels,
                                            (1,))
        first = answer([(2, False)])
        assert builds == [{2}]
        # The same evidence again builds no pass; other evidence does.
        assert answer([(2, False)]) == first
        assert builds == [{2}]
        answer([(2, True)])
        assert builds == [{2}, {-2}]
        # A copy made by dataclasses.replace starts with no pass.
        copy = replace(set_condition(c, 1, [(2, False)]))
        conditioned_eval_queries(copy, prob_semiring(), labels, (1,))
        assert builds == [{2}, {-2}, {2}]
        # set_condition checks its query on the pass that each one-query
        # backend then takes from the cache.
        del builds[:]
        for evidence in ([(3, True)], [(2, False), (3, True)]):
            staged = set_condition(c, query=1, evidence=evidence)
            eval_cov(shadow_circuit(staged), labels)
            mc_eval(staged, labels, 10)
            conditioned_eval(staged, prob_semiring(), labels)
        assert builds == [{-3}, {2, -3}]


class TestLabelTable:
    def test_complement_closure(self):
        t = LabelTable({1: BetaLabel(2, 18)})
        assert t.mean_of(1) == pytest.approx(0.1)
        assert t.mean_of(-1) == pytest.approx(0.9)
        assert t.variance_of(-1) == pytest.approx(t.variance_of(1))

    def test_absent_is_certain_true_both_polarities(self):
        t = LabelTable()
        assert t.label_of(4).certain is True
        assert t.label_of(-4).certain is True

    def test_positive_ids_required(self):
        with pytest.raises(ValueError):
            LabelTable({0: BetaLabel(1, 1)})
        with pytest.raises(ValueError):
            LabelTable().set(-1, BetaLabel(1, 1))

    def test_file_round_trip(self):
        t = LabelTable({1: BetaLabel(2, 18), 5: BetaLabel.certain_true(),
                        7: BetaLabel.certain_false(),
                        9: BetaLabel(3.5, 1.5, 0.25, 4.0)})
        back = parse_label_table(format_label_table(t))
        for v in t.variables:
            a, b = t.label_of(v), back.label_of(v)
            assert a.certain == b.certain
            assert a.mean == pytest.approx(b.mean)
            assert a.base_rate == pytest.approx(b.base_rate)

    def test_parse_errors(self):
        with pytest.raises(CircuitError, match="line 1"):
            parse_label_table("1 2\n")
        with pytest.raises(CircuitError, match="line 2"):
            parse_label_table("1 2 18\n2 x 8\n")
        with pytest.raises(CircuitError, match="line 2: variable ids"):
            parse_label_table("1 2 18\n-1 2 3\n")

    @pytest.mark.parametrize("text, line", [
        ("1 inf x\n", 1), ("1 x inf\n", 1), ("1 inf -3\n", 1),
        ("1 inf inf\n", 1), ("1 2 3 0.5 2 junk\n", 1),
        ("1 2 18\n2 2 8\n# again\n1 3 4\n", 4)])
    def test_misread_lines_rejected(self, text, line):
        # Each of these loaded before: the extra field or the field beside
        # "inf" was dropped, "inf inf" read as certain true, and the last
        # line for a variable won.
        with pytest.raises(CircuitError, match=f"^label table line {line}: "):
            parse_label_table(text)

    def test_alpha_sum_must_be_finite(self):
        # Both alphas are finite, but their sum overflows: the mean read
        # 1e308 / inf = 0.0 for the label and for its complement.
        with pytest.raises(CircuitError,
                           match="^label table line 1: .*finite sum"):
            parse_label_table("1 1e308 1e308\n2 1e-300 1e-300\n3 1 1\n")


class TestConditionFile:
    def test_parse(self):
        q, ev = parse_condition_file(
            "# comment\nevidence 3 1\nevidence 4 0\nquery 2\n")
        assert q == 2
        assert ev == [(3, True), (4, False)]

    def test_two_queries_rejected(self):
        with pytest.raises(CircuitError, match="second query"):
            parse_condition_file("query 1\nquery 2\n")

    def test_malformed(self):
        with pytest.raises(CircuitError, match="line 1"):
            parse_condition_file("observe 3 1\n")
        # Only 0 and 1 are evidence values; "true" is not read as false.
        with pytest.raises(CircuitError, match="line 2"):
            parse_condition_file("query 1\nevidence 1 true\n")

    @pytest.mark.parametrize("text", ["# x\nevidence x 1\n",
                                      "evidence 1 1\nquery y\n"])
    def test_non_integer_variable_names_its_line(self, text):
        # Before, int() raised a bare ValueError with no line number.
        with pytest.raises(CircuitError, match="^condition file line 2: "):
            parse_condition_file(text)


# Burglary's four input files, as ``infer`` reads them.
BURGLARY_INPUTS = {
    parse_nnf: format_nnf(burglary_circuit()),
    parse_label_table: format_label_table(burglary_labels()),
    parse_condition_file: "# a call was heard\nevidence 2 0\nquery 1\n",
    parse_leaf_cov: "# cross entries\n1 2 0.001\n-1 3 0.002\n",
}
# The NNF parser's whole-file checks, the only errors with no line.
UNNUMBERED = ("empty NNF input", "header declares", "circuit has no nodes")


def test_single_token_edits_fail_with_a_line_number():
    # Seeded edits: delete, duplicate or replace one token.  Each parse
    # returns or raises CircuitError, never a bare ValueError.
    rng = random.Random(25)
    for _ in range(400):
        parse, text = rng.choice(list(BURGLARY_INPUTS.items()))
        lines = [ln.split() for ln in text.splitlines()]
        toks = rng.choice(lines)
        j = rng.randrange(len(toks))
        edit = rng.choice(["delete", "duplicate", "x", "inf", "0", "-1", "#"])
        if edit == "delete":
            del toks[j]
        elif edit == "duplicate":
            toks.insert(j, toks[j])
        else:
            toks[j] = edit
        mutated = "\n".join(" ".join(t) for t in lines) + "\n"
        try:
            parse(mutated)
        except CircuitError as exc:
            assert (re.search(r"line \d+: ", str(exc))
                    or str(exc).startswith(UNNUMBERED)), (mutated, exc)
