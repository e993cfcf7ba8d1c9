"""Properties of the conditional pass on small generated circuits.

hypothesis draws decision trees over at most five variables, given as
NNF, and random theories compiled by ``shannon_compile``, with beta
labels, one evidence literal and a query.  Each answer is checked against
brute-force enumeration in exact rationals, against the dense covariance
reference, or against the answer to the negated query.  The profile is
derandomized and keeps no example database, so every run draws the same
examples.

A smooth tree mentions every variable on every branch that holds (a TRUE
leaf is widened by (w or not w) for each undecided w), which is where
evidence by zeroed leaves is exact.  A compiled theory has its evidence
conjoined as a unit constraint, as the builtins compile theirs in, and is
split on the query first, so every branch mentions both.  Unsmoothed trees
break that rule, and their property is a strict xfail until evidence on
a variable a branch does not mention is answered exactly (ROADMAP item 20).
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest
from conftest import truth_value
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betacircuits.betacalc import BetaLabel
from betacircuits.circuit import (LabelTable, format_nnf, parse_nnf,
                                  set_condition)
from betacircuits.compile import (Theory, eval_formula, f_and, f_iff, f_not,
                                  f_or, f_var, shannon_compile, vars_of)
from betacircuits.cpb import eval_cov_queries, shadow_circuit
from betacircuits.semirings import conditioned_eval_queries, prob_semiring

from dense_reference import conditioned_moments

MAX_VARS = 5

PROFILE = settings(derandomize=True, database=None, max_examples=40,
                   deadline=None)


class Case(NamedTuple):
    """A circuit with labels, one evidence literal and a query variable.

    ``formula`` is the theory the circuit was compiled from, or None when
    the circuit is given: it is then its own truth function.
    """

    nnf: str
    formula: Optional[object]
    alphas: tuple[tuple[float, float], ...]   # (alpha_pos, alpha_neg) of v
    evidence: tuple[int, bool]
    query: int

    def labels(self) -> LabelTable:
        return LabelTable({v: BetaLabel(*ab)
                           for v, ab in enumerate(self.alphas, start=1)})


def tree_nnf(tree, n: int, smooth: bool) -> str:
    """NNF of a decision tree: True, False or (v, high, low).

    A decision is (v and high) or (not v and low), leaving out a FALSE
    branch.  ``smooth`` widens each TRUE leaf with (w or not w) for every
    variable w that its path leaves undecided.
    """
    lines: list[str] = []

    def add(line: str) -> int:
        lines.append(line)
        return len(lines) - 1

    def build(t, free: frozenset) -> int:
        if t is False:
            return add("O 0 0")
        if t is True:
            if not (smooth and free):
                return add("A 0")
            ors = [add(f"O {w} 2 {add(f'L {w}')} {add(f'L {-w}')}")
                   for w in sorted(free)]
            return add(f"A {len(ors)} " + " ".join(map(str, ors)))
        v, high, low = t
        kids = []
        for lit, sub in ((v, high), (-v, low)):
            if sub is not False:
                leaf = add(f"L {lit}")
                kids.append(add(f"A 2 {leaf} {build(sub, free - {v})}"))
        if not kids:
            return add("O 0 0")
        return add(f"O {v} {len(kids)} " + " ".join(map(str, kids)))

    build(tree, frozenset(range(1, n + 1)))
    edges = sum(int(line.split()[1 if line[0] == "A" else 2])
                for line in lines if line[0] in "AO")
    return f"nnf {len(lines)} {edges} {n}\n" + "\n".join(lines) + "\n"


alpha = st.floats(0.5, 20.0)


@st.composite
def tree_cases(draw, smooth: bool) -> Case:
    n = draw(st.integers(1, MAX_VARS))

    def tree(free: frozenset):
        if not free or draw(st.integers(0, 3)) == 0:
            return draw(st.booleans())
        v = draw(st.sampled_from(sorted(free)))
        return (v, tree(free - {v}), tree(free - {v}))

    nnf = tree_nnf(tree(frozenset(range(1, n + 1))), n, smooth)
    variables = sorted(parse_nnf(nnf).variables())
    assume(variables)
    return Case(nnf, None, tuple(draw(st.tuples(alpha, alpha))
                                 for _ in range(n)),
                (draw(st.integers(1, n)), draw(st.booleans())),
                draw(st.sampled_from(variables)))


@functools.cache
def formulas(n: int) -> st.SearchStrategy:
    """Formulas over variables 1..n, made once per n (building a recursive
    strategy costs more than drawing from it)."""
    literal = st.builds(lambda v, pos: f_var(v) if pos else f_not(f_var(v)),
                        st.integers(1, n), st.booleans())
    return st.recursive(
        literal, lambda sub: st.one_of(
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: f_and(*fs)),
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: f_or(*fs)),
            st.tuples(sub, sub).map(lambda ab: f_iff(*ab))),
        max_leaves=6)


@st.composite
def theory_cases(draw) -> Case:
    n = draw(st.integers(2, MAX_VARS))
    constraints = draw(st.lists(formulas(n), min_size=1, max_size=3))
    ev_var, ev_val = draw(st.integers(1, n)), draw(st.booleans())
    unit = f_var(ev_var) if ev_val else f_not(f_var(ev_var))
    theory = Theory(n, tuple(constraints) + (unit,))
    free = sorted(vars_of(theory.formula()))
    assume(free)
    query = draw(st.sampled_from(free))
    c = shannon_compile(theory, order=[query] + [v for v in free
                                                 if v != query])
    return Case(format_nnf(c), theory.formula(),
                tuple(draw(st.tuples(alpha, alpha)) for _ in range(n)),
                (ev_var, ev_val), query)


def staged(case: Case):
    return set_condition(parse_nnf(case.nnf), case.query, [case.evidence])


def enumerated(case: Case, literal: int) -> Optional[Fraction]:
    """P(literal | evidence) over the case's models, or None if P(e) = 0."""
    c, labels = parse_nnf(case.nnf), case.labels()
    n = len(case.alphas)
    num = den = Fraction(0)
    for bits in itertools.product((False, True), repeat=n):
        a = dict(zip(range(1, n + 1), bits))
        holds = (truth_value(c, a) if case.formula is None
                 else eval_formula(case.formula, a))
        if not holds or a[case.evidence[0]] != case.evidence[1]:
            continue
        w = math.prod((Fraction(labels.mean_of(v if val else -v))
                       for v, val in a.items()), start=Fraction(1))
        den += w
        if a[abs(literal)] == (literal > 0):
            num += w
    return num / den if den else None


def prob_answers(case: Case, queries) -> dict[int, float]:
    return conditioned_eval_queries(staged(case), prob_semiring(),
                                    case.labels(), queries)


def assert_prob_is_enumerated(case: Case) -> None:
    want = enumerated(case, case.query)
    assume(want is not None)
    got = prob_answers(case, (case.query,))[case.query]
    assert abs(got - float(want)) <= 1e-12


any_case = st.one_of(tree_cases(smooth=True), theory_cases())


@PROFILE
@given(tree_cases(smooth=True))
def test_prob_is_enumerated_on_smooth_trees(case):
    assert_prob_is_enumerated(case)


@PROFILE
@given(theory_cases())
def test_prob_is_enumerated_on_compiled_theories(case):
    assert_prob_is_enumerated(case)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 20: evidence on a variable that a branch does not "
    "mention; shrunk to the 7-node (x2 and TRUE) or (not x2 and x1) with "
    "evidence x1 = false, where prob answers P(x1 | not x1) = 1.0"))
@PROFILE
@given(tree_cases(smooth=False))
@example(Case("nnf 7 6 2\nL 2\nA 0\nA 2 0 1\nL -2\nL 1\nA 2 3 4\n"
              "O 2 2 2 5\n", None, ((2.0, 2.0), (2.0, 2.0)), (1, False), 1))
def test_prob_is_enumerated_on_unsmoothed_trees(case):
    assert_prob_is_enumerated(case)


@PROFILE
@given(any_case)
def test_cpb_mean_is_prob_and_variance_is_dense(case):
    assume(enumerated(case, case.query) is not None)
    c, labels = staged(case), case.labels()
    got = eval_cov_queries(c, (case.query,), labels)[case.query]
    assert got.mean == prob_answers(case, (case.query,))[case.query]
    _, variance = conditioned_moments(shadow_circuit(c), labels)
    assert abs(got.variance - variance) <= 1e-12 * variance


@PROFILE
@given(any_case)
def test_a_query_and_its_negation_sum_to_one(case):
    q = case.query
    assume(enumerated(case, q) is not None)
    prob = prob_answers(case, (q, -q))
    assert abs(prob[q] + prob[-q] - 1.0) <= 1e-12
    cpb = eval_cov_queries(staged(case), (q, -q), case.labels())
    assert abs(cpb[q].mean + cpb[-q].mean - 1.0) <= 1e-12
    assert abs(cpb[q].variance - cpb[-q].variance) <= (
        1e-12 * cpb[q].variance)
