"""Bundled example models: burglary, friends-and-smokers, and three BNs.

Each model packages a propositional theory, the variables carrying
learnable beta labels, the query variables, and the evidence protocol, so
the experiment harness can treat all of them uniformly.

Evidence handling distinguishes two kinds of observed atoms:

* *derived* atoms (heads of deterministic rules, weight 1): their observed
  value is substituted into the theory before compilation, which shrinks
  the circuit and is exact;
* *probabilistic* atoms (annotated facts): their leaf carries probability
  mass, so they must stay in the circuit and are conditioned through the
  lambda indicators instead.

The burglary model additionally ships a hand-written circuit whose node
layout mirrors the classic compiled form (alarm disjunction feeding the
hears-alarm conjunction, evidence on the call baked in), which is the
layout used by the golden-value regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .betacalc import BetaLabel
from .circuit import Circuit, LabelTable, parse_nnf
from .compile import (BayesNetSpec, BNNode, Theory, bn_compile_order,
                      encode_bn, f_and, f_or, f_var, f_iff, shannon_compile)


@dataclass
class ExampleModel:
    """A theory plus the experiment protocol metadata around it."""

    name: str
    theory: Optional[Theory]
    order: list[int]
    prob_vars: tuple[int, ...]
    query_vars: tuple[int, ...]
    fixed_evidence: dict[int, bool] = field(default_factory=dict)
    prob_evidence: tuple[tuple[int, bool], ...] = ()
    random_evidence_vars: tuple[int, ...] = ()
    tied_groups: tuple[tuple[int, ...], ...] = ()
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_circuit(cls, name: str, circuit: Circuit,
                     query_vars: tuple[int, ...]) -> "ExampleModel":
        """A fixed circuit, no theory, every variable learnable."""
        model = cls(name=name, theory=None, order=[],
                    prob_vars=tuple(sorted(circuit.variables())),
                    query_vars=query_vars)
        model._cache[()] = circuit
        return model

    def circuit(self, random_evidence: Optional[Mapping[int, bool]] = None
                ) -> Circuit:
        """Compile (and cache) the circuit for one evidence instantiation.

        ``random_evidence`` assigns the model's random evidence variables;
        fixed derived evidence is always substituted, probabilistic
        evidence is left to lambda conditioning by the caller.
        """
        random_evidence = dict(random_evidence or {})
        if set(random_evidence) != set(self.random_evidence_vars):
            raise ValueError(
                f"expected evidence for variables {self.random_evidence_vars}")
        key = tuple(sorted(random_evidence.items()))
        if key not in self._cache:
            assignment = dict(self.fixed_evidence)
            assignment.update(random_evidence)
            theory = self.theory.substitute_evidence(assignment)
            self._cache[key] = shannon_compile(theory, order=self.order)
        return self._cache[key]


# ---------------------------------------------------------------------
# Burglary
# ---------------------------------------------------------------------

BURGLARY_VARS = {"burglary": 1, "earthquake": 2, "hears_alarm": 3,
                 "alarm": 4, "calls": 5}

#: Hand-written circuit over (burglary=1, earthquake=2, hears_alarm=3) with
#: the calls evidence baked in: calls = (b or (not-b and e)) and h.
BURGLARY_NNF = """\
nnf 7 8 3
L 1
L -1
L 2
L 3
A 2 1 2
O 1 2 0 4
A 2 5 3
"""


def burglary_circuit() -> Circuit:
    """The classic three-variable burglary circuit (evidence baked in)."""
    return parse_nnf(BURGLARY_NNF)


def burglary_labels() -> LabelTable:
    """The imprecise leaf labels of the worked burglary example."""
    return LabelTable({
        1: BetaLabel(2.0, 18.0),      # burglary, mean 0.1
        2: BetaLabel(2.0, 8.0),       # earthquake, mean 0.2
        3: BetaLabel(3.5, 1.5),       # hears_alarm(john), mean 0.7
    })


def burglary_model() -> ExampleModel:
    """Theory form: alarm <-> b or e; calls <-> alarm and h; calls observed."""
    b, e, h, a, c = (BURGLARY_VARS[k] for k in
                     ("burglary", "earthquake", "hears_alarm", "alarm", "calls"))
    theory = Theory(5, (
        f_iff(f_var(a), f_or(f_var(b), f_var(e))),
        f_iff(f_var(c), f_and(f_var(a), f_var(h))),
    ))
    return ExampleModel(
        name="burglary",
        theory=theory,
        order=[b, e, h, a, c],
        prob_vars=(b, e, h),
        query_vars=(b,),
        fixed_evidence={c: True},
    )


def point_labels(probs: Mapping[int, float]) -> LabelTable:
    """Strength-1e9 labels with the given means (for ground truths)."""
    table = LabelTable()
    for v, p in probs.items():
        table.set(v, BetaLabel(p * 1e9, (1.0 - p) * 1e9))
    return table


# ---------------------------------------------------------------------
# Friends & Smokers (fixed four-person instance)
# ---------------------------------------------------------------------

def smokers_model(shared_annotations: bool = False) -> ExampleModel:
    """The four-person friends-and-smokers model.

    Persons 1..4; friendship pairs (1,2), (2,1), (2,4), (3,2), (4,2);
    annotated facts: stress(X), the influences atoms that can actually
    fire a rule, and one trigger per ground asthma rule.  Smoking is the
    least fixpoint of

        smokes(X) <- stress(X)
        smokes(X) <- friend(X,Y), influences(Y,X), smokes(Y)

    which is propositionalized by unrolling the simple influence paths
    (self-supporting cycles contribute nothing under fixpoint semantics).
    Evidence: smokes(2) observed true (derived, substituted) and
    influences(4,2) observed false (probabilistic, lambda-conditioned).

    With ``shared_annotations`` the facts that share an annotation in the
    source program are tied: all stress and influences atoms form one
    parameter-tied group, the four asthma triggers another.
    """
    s = {p: p for p in (1, 2, 3, 4)}                    # stress(p)
    i21, i12, i42, i23, i24 = 5, 6, 7, 8, 9             # influences(Y,X)
    t = {p: 9 + p for p in (1, 2, 3, 4)}                # asthma triggers
    smk = {p: 13 + p for p in (1, 2, 3, 4)}             # smokes(p)
    ast = {p: 17 + p for p in (1, 2, 3, 4)}             # asthma(p)

    sv = {p: f_var(s[p]) for p in s}
    # Simple-path unfoldings of the smokes fixpoint (cycle 1<->2, 2<->4).
    smokes2_no4 = f_or(sv[2], f_and(f_var(i12), sv[1]))
    smokes2_no1 = f_or(sv[2], f_and(f_var(i42), sv[4]))
    constraints = (
        f_iff(f_var(smk[1]), f_or(sv[1], f_and(f_var(i21), smokes2_no1))),
        f_iff(f_var(smk[2]), f_or(sv[2], f_and(f_var(i12), sv[1]),
                                  f_and(f_var(i42), sv[4]))),
        f_iff(f_var(smk[3]), f_or(sv[3], f_and(f_var(i23), f_var(smk[2])))),
        f_iff(f_var(smk[4]), f_or(sv[4], f_and(f_var(i24), smokes2_no4))),
    ) + tuple(
        f_iff(f_var(ast[p]), f_and(f_var(smk[p]), f_var(t[p])))
        for p in (1, 2, 3, 4)
    )
    theory = Theory(21, constraints)

    tied: tuple[tuple[int, ...], ...] = ()
    if shared_annotations:
        tied = ((s[1], s[2], s[3], s[4], i21, i12, i42, i23, i24),
                (t[1], t[2], t[3], t[4]))

    order = [s[2], s[4], i42, s[1], i12, i21, i24,
             smk[1], smk[4], s[3], i23, smk[2], smk[3],
             t[1], ast[1], t[2], ast[2], t[3], ast[3], t[4], ast[4]]
    return ExampleModel(
        name="smokers",
        theory=theory,
        order=order,
        prob_vars=(s[1], s[2], s[3], s[4], i21, i12, i42, i23, i24,
                   t[1], t[2], t[3], t[4]),
        query_vars=(smk[1], smk[3], smk[4], ast[1], ast[2], ast[3], ast[4]),
        fixed_evidence={smk[2]: True},
        prob_evidence=((i42, False),),
        tied_groups=tied,
    )


# ---------------------------------------------------------------------
# Bayesian networks (Net1 from the source listing; Net2/Net3 reconstructed
# from their textual descriptions: singly connected, one node with two or
# three parents respectively, exterior nodes observed)
# ---------------------------------------------------------------------

def _bn_model(name: str, spec: BayesNetSpec,
              observed: tuple[str, ...], queried: tuple[str, ...]
              ) -> ExampleModel:
    theory, legend = encode_bn(spec)
    return ExampleModel(
        name=name,
        theory=theory,
        order=bn_compile_order(spec, legend),
        prob_vars=tuple(legend.cpt_vars),
        query_vars=tuple(legend.node_var[q] for q in queried),
        random_evidence_vars=tuple(legend.node_var[o] for o in observed),
    )


def net1_model() -> ExampleModel:
    """Nine-node tree; root and leaves observed, interior queried."""
    spec = BayesNetSpec((
        BNNode("n1"),
        BNNode("n2", ("n1",)),
        BNNode("n3", ("n2",)),
        BNNode("n4", ("n2",)),
        BNNode("n5", ("n3",)),
        BNNode("n6", ("n3",)),
        BNNode("n7", ("n6",)),
        BNNode("n8", ("n5",)),
        BNNode("n9", ("n5",)),
    ))
    return _bn_model("net1", spec,
                     observed=("n1", "n4", "n7", "n8", "n9"),
                     queried=("n2", "n3", "n5", "n6"))


def net2_model() -> ExampleModel:
    """Singly connected network with one two-parent node (n3)."""
    spec = BayesNetSpec((
        BNNode("n1"),
        BNNode("n2"),
        BNNode("n3", ("n1", "n2")),
        BNNode("n4", ("n3",)),
        BNNode("n5", ("n3",)),
        BNNode("n6", ("n4",)),
        BNNode("n7", ("n4",)),
        BNNode("n8", ("n5",)),
        BNNode("n9", ("n5",)),
    ))
    return _bn_model("net2", spec,
                     observed=("n1", "n2", "n6", "n7", "n8", "n9"),
                     queried=("n3", "n4", "n5"))


def net3_model() -> ExampleModel:
    """Singly connected network with one three-parent node (n4)."""
    spec = BayesNetSpec((
        BNNode("n1"),
        BNNode("n2"),
        BNNode("n3"),
        BNNode("n4", ("n1", "n2", "n3")),
        BNNode("n5", ("n4",)),
        BNNode("n6", ("n4",)),
        BNNode("n7", ("n5",)),
        BNNode("n8", ("n5",)),
        BNNode("n9", ("n6",)),
    ))
    return _bn_model("net3", spec,
                     observed=("n1", "n2", "n3", "n7", "n8", "n9"),
                     queried=("n4", "n5", "n6"))


BUILTIN_MODELS = {
    "burglary": burglary_model,
    "smokers": smokers_model,
    "net1": net1_model,
    "net2": net2_model,
    "net3": net3_model,
}
