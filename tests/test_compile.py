"""Tests for the Shannon-expansion compiler and BN encoders."""

import hashlib
import itertools
import random

import pytest

from betacircuits.betacalc import BetaLabel
from betacircuits.circuit import (CircuitError, LabelTable, NodeKind,
                                  format_nnf, validate)
from betacircuits.compile import (
    BayesNetSpec, BNNode, Theory, bn_compile_order, encode_bn, eval_formula,
    f_and, f_iff, f_not, f_or, f_var, shannon_compile, substitute, vars_of)
from betacircuits.semirings import prob_semiring

from conftest import truth_value
from test_semirings import sweep


def prob_of(c, labels):
    return sweep(c, prob_semiring(), labels)[0]


def random_formula(rng, variables, depth=3):
    if depth == 0 or rng.random() < 0.3:
        v = f_var(rng.choice(variables))
        return f_not(v) if rng.random() < 0.5 else v
    op = rng.choice((f_and, f_or, f_iff))
    a = random_formula(rng, variables, depth - 1)
    b = random_formula(rng, variables, depth - 1)
    return op(a, b) if op is f_iff else op(a, b)


class TestFormulas:
    def test_canonical_constructors(self):
        x, y = f_var(1), f_var(2)
        assert f_not(f_not(x)) == x
        assert f_not(True) is False
        assert f_and(x, True, y) == f_and(y, x)
        assert f_and(x, False) is False
        assert f_or(x, True) is True
        assert f_or(x) == x
        assert f_and(x, f_not(x)) is False
        assert f_or(x, f_not(x)) is True
        assert f_iff(x, x) is True
        assert f_iff(x, f_not(x)) is False
        assert f_iff(x, True) == x

    def test_nested_flattening(self):
        x, y, z = f_var(1), f_var(2), f_var(3)
        assert f_and(f_and(x, y), z) == f_and(x, y, z)
        assert f_or(x, f_or(y, z)) == f_or(x, y, z)

    def test_vars_and_substitute(self):
        f = f_iff(f_var(3), f_and(f_var(1), f_not(f_var(2))))
        assert vars_of(f) == frozenset({1, 2, 3})
        g = substitute(f, 2, False)
        assert vars_of(g) == frozenset({1, 3})
        assert g == f_iff(f_var(3), f_var(1))

    def test_eval_matches_semantics(self):
        rng = random.Random(30)
        variables = [1, 2, 3, 4]
        for _ in range(200):
            f = random_formula(rng, variables)
            assignment = {v: rng.random() < 0.5 for v in variables}
            tag_free = eval_formula(f, assignment)
            # Substituting all variables must fold to the same constant.
            g = f
            for v, val in assignment.items():
                g = substitute(g, v, val)
            assert g is tag_free


class TestShannonCompile:
    def test_trivial_theories(self):
        c = shannon_compile(Theory(1, (f_var(1),)))
        assert c.node(c.root).kind in (NodeKind.AND, NodeKind.LITERAL)
        unsat = shannon_compile(Theory(1, (f_var(1), f_not(f_var(1)))))
        assert any(n.kind is NodeKind.FALSE for n in unsat.nodes)
        assert prob_of(unsat, LabelTable()) == 0.0

    def test_compiled_circuits_are_valid(self):
        rng = random.Random(31)
        for _ in range(30):
            nv = rng.randint(3, 6)
            f = random_formula(rng, list(range(1, nv + 1)))
            c = shannon_compile(Theory(nv, (f,)))
            rep = validate(c)
            assert rep.ok, rep.violations

    def test_wmc_matches_enumeration(self):
        rng = random.Random(32)
        for _ in range(100):
            nv = 4
            f = random_formula(rng, [1, 2, 3, 4])
            theory = Theory(nv, (f,))
            c = shannon_compile(theory)
            labels = LabelTable({v: BetaLabel(rng.uniform(1, 9),
                                              rng.uniform(1, 9))
                                 for v in range(1, nv + 1)})
            expect = 0.0
            for bits in itertools.product([False, True], repeat=nv):
                assignment = dict(zip(range(1, nv + 1), bits))
                if eval_formula(f, assignment):
                    w = 1.0
                    for v, val in assignment.items():
                        w *= labels.mean_of(v if val else -v)
                    expect += w
            assert prob_of(c, labels) == pytest.approx(expect, abs=1e-12)

    def test_circuit_models_match_formula(self):
        rng = random.Random(33)
        for _ in range(30):
            f = random_formula(rng, [1, 2, 3])
            c = shannon_compile(Theory(3, (f,)))
            for bits in itertools.product([False, True], repeat=3):
                assignment = dict(zip((1, 2, 3), bits))
                assert truth_value(c, assignment) == eval_formula(f, assignment)

    def test_shared_residuals_share_gates(self):
        # Hash-consing: a formula with shared residuals compiles to a DAG in
        # which no two gates have the same kind and children.
        f = f_iff(f_var(4), f_or(f_and(f_var(1), f_var(3)),
                                 f_and(f_var(2), f_var(3))))
        c = shannon_compile(Theory(4, (f,)))
        gates = [(n.kind, n.children) for n in c.nodes
                 if n.kind in (NodeKind.AND, NodeKind.OR)]
        assert len(set(gates)) == len(gates)

    def test_order_respected(self):
        c = shannon_compile(Theory(2, (f_or(f_var(1), f_var(2)),)),
                            order=[2, 1])
        # First decision is on variable 2.
        ors = [n for n in c.nodes if n.kind is NodeKind.OR]
        assert ors[-1].decision_var == 2

    def test_order_missing_variable(self):
        with pytest.raises(CircuitError, match="missing"):
            shannon_compile(Theory(2, (f_or(f_var(1), f_var(2)),)), order=[1])

    def test_variable_limit(self):
        big = Theory(30, tuple(f_var(v) for v in range(1, 31)))
        with pytest.raises(CircuitError, match="compile limit"):
            shannon_compile(big)

    def test_burglary_theory_reproduces_goldens(self):
        from betacircuits.examples import burglary_model, burglary_labels
        model = burglary_model()
        c = model.circuit()
        labels = burglary_labels()
        assert prob_of(c, labels) == pytest.approx(0.196, abs=1e-12)

    def test_substituted_evidence_shrinks_circuit(self):
        from betacircuits.examples import burglary_model
        model = burglary_model()
        with_ev = model.circuit()
        no_ev = shannon_compile(model.theory, order=model.order)
        assert 5 not in {n.var for n in with_ev.nodes
                         if n.kind is NodeKind.LITERAL}
        assert len(with_ev) < len(no_ev)


class TestBNEncoding:
    def test_chain_hand_arithmetic(self):
        # A -> B: P(B) = P(A) t_1 + (1-P(A)) t_0.
        spec = BayesNetSpec((BNNode("a"), BNNode("b", ("a",))))
        theory, legend = encode_bn(spec)
        assert theory.var_count == 5       # a, b, cpt[a], cpt[b|0], cpt[b|1]
        c = shannon_compile(theory, order=bn_compile_order(spec, legend))
        pa, t0, t1 = 0.3, 0.2, 0.9
        labels = LabelTable()
        from betacircuits.examples import point_labels
        labels = point_labels({legend.cpt_var[("a", ())]: pa,
                               legend.cpt_var[("b", (False,))]: t0,
                               legend.cpt_var[("b", (True,))]: t1})
        # Marginal of b: force not-b to zero and read the count.
        b = legend.node_var["b"]
        pb = sweep(c, prob_semiring(), labels, (b,))[1][b]
        assert pb == pytest.approx(pa * t1 + (1 - pa) * t0, abs=1e-6)

    def test_completion_semantics(self):
        # Every assignment of node vars extends to exactly one model over
        # the CPT vars pattern consistent with it: total WMC is 1.
        spec = BayesNetSpec((BNNode("a"), BNNode("b", ("a",)),
                             BNNode("c", ("a",))))
        theory, legend = encode_bn(spec)
        c = shannon_compile(theory, order=bn_compile_order(spec, legend))
        rng = random.Random(34)
        from betacircuits.examples import point_labels
        labels = point_labels({v: rng.uniform(0.1, 0.9)
                               for v in legend.cpt_vars})
        assert prob_of(c, labels) == pytest.approx(1.0, abs=1e-6)

    def test_cyclic_spec_rejected(self):
        with pytest.raises(ValueError, match="not declared earlier"):
            BayesNetSpec((BNNode("a", ("b",)), BNNode("b", ("a",))))

    def test_net1_legend_shape(self):
        from betacircuits.examples import net1_model
        model = net1_model()
        # 9 node variables + 1 root CPT + 8 child CPT pairs = 17 annotated.
        assert len(model.prob_vars) == 17
        assert len(model.query_vars) == 4
        assert len(model.random_evidence_vars) == 5

    def test_compiled_networks_stay_small(self):
        from betacircuits.examples import net1_model, net2_model, net3_model
        for make in (net1_model, net2_model, net3_model):
            model = make()
            ev = {v: False for v in model.random_evidence_vars}
            c = model.circuit(ev)
            assert len(c) < 200
            assert validate(c).violations == []


def _planted_cnf(rng, n):
    """A random 3-CNF of 3n clauses over 1..n that a hidden model satisfies."""
    model = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    clauses = []
    while len(clauses) < 3 * n:
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), 3)]
        if any((lit > 0) == model[abs(lit)] for lit in lits):
            clauses.append(f_or(*(f_var(lit) if lit > 0 else f_not(f_var(-lit))
                                  for lit in lits)))
    return Theory(n, tuple(clauses))


@pytest.fixture(scope="module")
def pinned_circuits():
    """Every evidence key of every builtin, plus 60 seeded planted CNFs."""
    from betacircuits.examples import BUILTIN_MODELS, smokers_model
    models = [make() for make in BUILTIN_MODELS.values()]
    models.append(smokers_model(shared_annotations=True))
    out = []
    for model in models:
        evs = model.random_evidence_vars
        for bits in itertools.product((False, True), repeat=len(evs)):
            out.append(model.circuit(dict(zip(evs, bits))))
    rng = random.Random(30)
    out += [shannon_compile(_planted_cnf(rng, 6 + i % 9)) for i in range(60)]
    return out


class TestCompiledOutput:
    def test_compiled_circuits_are_pinned(self, pinned_circuits):
        # The compiler's exact output: a change of node order, ids or
        # decision variables shows here before it moves any answer.
        digest = hashlib.sha256()
        for c in pinned_circuits:
            digest.update(format_nnf(c).encode())
        assert digest.hexdigest() == (
            "f8d6ca7294466a49b188e1565c7360ace2b32077330568ba9769369e54c42dc6")

    def test_every_or_is_a_decision(self, pinned_circuits):
        # Each OR has the decision literal as its first branch and its
        # negation as its second, each as the branch itself or as a child
        # of the branch's AND.
        ors = 0
        for c in pinned_circuits:
            for n in c.nodes:
                if n.kind is not NodeKind.OR:
                    continue
                ors += 1
                assert len(n.children) == 2
                for child, lit in zip(n.children,
                                      (n.decision_var, -n.decision_var)):
                    branch = c.nodes[child]
                    held = ({branch.literal}
                            if branch.kind is NodeKind.LITERAL else
                            {c.nodes[g].literal for g in branch.children})
                    assert lit in held
        assert ors > 1000
