"""Desk-scale propositional theory to d-DNNF compiler, plus BN encoders.

The compiler performs recursive Shannon expansion: pick the next variable
v in the given order that still occurs in the formula, and build

    node = (v AND compile(f|v=1))  OR  (not v AND compile(f|v=0))

with constant folding.  Sub-formulas are canonicalized and memoized, and
the builder's one unique table shares each node among equal residuals (a
hash-consed DAG, BDD-style).  The output is decomposable by construction
(the split variable never occurs in the branch bodies) and deterministic
by construction (the two branches disagree on the split variable), and
always passes exact circuit validation.

This is an exponential-worst-case desk tool, guarded by a free-variable
limit; it is meant to compile the bundled example models, not to compete
with real knowledge compilers.

Formulas are canonical nested tuples:

    True / False        constants
    ("var", v)          positive atom
    ("not", f)          negation
    ("and", (f, ...))   conjunction, flattened/sorted/deduplicated
    ("or", (f, ...))    disjunction, likewise
    ("iff", a, b)       biconditional, operands ordered

``encode_bn`` propositionalizes a binary Bayesian network in the standard
way: one fresh "CPT variable" per conditional-probability-table row, and
per network node a completion biconditional

    node <-> OR over parent configurations (parent literals AND cpt-var).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .circuit import Circuit, CircuitError, CircuitNode, NodeKind

Formula = Union[bool, tuple]

MAX_COMPILE_VARS = 24


# ---------------------------------------------------------------------
# Canonical formula constructors
# ---------------------------------------------------------------------

def f_var(v: int) -> Formula:
    if v <= 0:
        raise ValueError(f"variable ids must be positive, got {v}")
    return ("var", v)


def f_not(f: Formula) -> Formula:
    if f is True:
        return False
    if f is False:
        return True
    if f[0] == "not":
        return f[1]
    return ("not", f)


def _flatten(tag: str, parts: Iterable[Formula],
             absorbing: bool, neutral: bool) -> Formula:
    """Shared and/or constructor core: flatten, fold constants, dedupe.

    A literal together with its negation collapses to the absorbing
    element (x and not-x for "and", x or not-x for "or").
    """
    items: list[Formula] = []
    seen: set = set()

    def push(p: Formula) -> bool:
        """Add one operand; True means the result is absorbed."""
        if isinstance(p, bool):
            return p is absorbing
        if p[0] == tag:
            return any(push(q) for q in p[1])
        if p not in seen:
            seen.add(p)
            items.append(p)
        return False

    for p in parts:
        if push(p):
            return absorbing
    for q in items:
        if f_not(q) in seen:
            return absorbing
    if not items:
        return neutral
    if len(items) == 1:
        return items[0]
    items.sort(key=repr)
    return (tag, tuple(items))


def f_and(*parts: Formula) -> Formula:
    return _flatten("and", parts, absorbing=False, neutral=True)


def f_or(*parts: Formula) -> Formula:
    return _flatten("or", parts, absorbing=True, neutral=False)


def f_iff(a: Formula, b: Formula) -> Formula:
    if a is True:
        return b
    if a is False:
        return f_not(b)
    if b is True:
        return a
    if b is False:
        return f_not(a)
    if a == b:
        return True
    if a == f_not(b):
        return False
    lo, hi = sorted((a, b), key=repr)
    return ("iff", lo, hi)


def vars_of(f: Formula) -> frozenset[int]:
    if isinstance(f, bool):
        return frozenset()
    tag = f[0]
    if tag == "var":
        return frozenset((f[1],))
    if tag == "not":
        return vars_of(f[1])
    if tag == "iff":
        return vars_of(f[1]) | vars_of(f[2])
    out: set[int] = set()
    for p in f[1]:
        out |= vars_of(p)
    return frozenset(out)


def substitute(f: Formula, var: int, value: bool,
               memo: Optional[dict] = None) -> Formula:
    """Assign one variable and re-canonicalize.

    Only the parts of ``f`` in which ``var`` occurs are rebuilt; when it
    does not occur, ``f`` itself is returned.  ``memo``, if given, keeps
    each compound part's result by (part, var, value) across calls.
    """
    if isinstance(f, bool):
        return f
    if f[0] == "var":
        return value if f[1] == var else f
    key = (f, var, value)
    if memo is not None and key in memo:
        return memo[key]
    operands = f[1] if f[0] in ("and", "or") else f[1:]
    parts = [substitute(p, var, value, memo) for p in operands]
    if all(new is old for new, old in zip(parts, operands)):
        out = f
    else:
        out = _CONSTRUCTORS[f[0]](*parts)
    if memo is not None:
        memo[key] = out
    return out


_CONSTRUCTORS = {"not": f_not, "iff": f_iff, "and": f_and, "or": f_or}


def eval_formula(f: Formula, assignment: Mapping[int, bool]) -> bool:
    if isinstance(f, bool):
        return f
    tag = f[0]
    if tag == "var":
        return assignment[f[1]]
    if tag == "not":
        return not eval_formula(f[1], assignment)
    if tag == "iff":
        return eval_formula(f[1], assignment) == eval_formula(f[2], assignment)
    if tag == "and":
        return all(eval_formula(p, assignment) for p in f[1])
    return any(eval_formula(p, assignment) for p in f[1])


# ---------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Theory:
    """A conjunction of propositional constraints over vars 1..var_count."""

    var_count: int
    constraints: tuple[Formula, ...]

    def formula(self) -> Formula:
        return f_and(*self.constraints)

    def substitute_evidence(self, assignment: Mapping[int, bool]) -> "Theory":
        """Assign variables into every constraint (used for observed atoms).

        Only sound for deterministic (weight-1) atoms or when the caller
        accounts for the dropped leaf factors separately: the substituted
        variable disappears from the compiled circuit entirely.
        """
        constraints = []
        for c in self.constraints:
            for v, val in assignment.items():
                c = substitute(c, v, val)
            constraints.append(c)
        return Theory(self.var_count, tuple(constraints))


# ---------------------------------------------------------------------
# Shannon compilation
# ---------------------------------------------------------------------

class _Builder:
    """Hash-consing circuit builder with one unique table, as in an ROBDD.

    ``node`` returns the first node made for its (kind, children, literal)
    key; ``decision_var`` is not part of the key, so an OR keeps the
    decision variable it was made with.
    """

    def __init__(self, var_count: int):
        self.var_count = var_count
        self.nodes: list[CircuitNode] = []
        self._unique: dict[tuple, int] = {}

    def node(self, kind: NodeKind, children: tuple[int, ...] = (),
             literal: int = 0, decision_var: int = 0) -> int:
        key = (kind, children, literal)
        nid = self._unique.get(key)
        if nid is None:
            nid = self._unique[key] = len(self.nodes)
            self.nodes.append(CircuitNode(nid, kind, children, literal,
                                          decision_var=decision_var))
        return nid

    def finish(self, root: int) -> Circuit:
        if root != len(self.nodes) - 1:
            # NNF text convention: last node is the root.
            root = self.node(NodeKind.AND, (root,))
        return Circuit(self.nodes, root, self.var_count)


def shannon_compile(theory: Theory,
                    order: Optional[Sequence[int]] = None) -> Circuit:
    """Compile a theory into a deterministic decomposable circuit.

    ``order`` lists variable ids; splitting always picks the earliest
    variable of the order still free in the residual formula (default:
    ascending id).  An unsatisfiable theory compiles to a FALSE-rooted
    circuit.  Raises CircuitError when the formula has more than
    MAX_COMPILE_VARS free variables.
    """
    formula = theory.formula()
    free = vars_of(formula)
    if len(free) > MAX_COMPILE_VARS:
        raise CircuitError(
            f"{len(free)} free variables exceed the compile limit "
            f"of {MAX_COMPILE_VARS}")
    if order is None:
        order = sorted(free)
    position = {v: i for i, v in enumerate(order)}
    missing = free - position.keys()
    if missing:
        raise CircuitError(f"order is missing variables {sorted(missing)}")

    builder = _Builder(theory.var_count)
    memo: dict[Formula, int] = {}
    substituted: dict = {}

    def compile_rec(f: Formula) -> int:
        if isinstance(f, bool):
            return builder.node(NodeKind.TRUE if f else NodeKind.FALSE)
        if f in memo:
            return memo[f]
        v = min(vars_of(f), key=position.__getitem__)
        branches = []
        for value, lit in ((True, v), (False, -v)):
            sub = compile_rec(substitute(f, v, value, substituted))
            kind = builder.nodes[sub].kind
            if kind is NodeKind.FALSE:
                continue
            leaf = builder.node(NodeKind.LITERAL, literal=lit)
            branches.append(leaf if kind is NodeKind.TRUE
                            else builder.node(NodeKind.AND, (leaf, sub)))
        if not branches:
            result = builder.node(NodeKind.FALSE)
        elif len(branches) == 1:
            result = branches[0]
        else:
            result = builder.node(NodeKind.OR, tuple(branches), decision_var=v)
        memo[f] = result
        return result

    return builder.finish(compile_rec(formula))


# ---------------------------------------------------------------------
# Bayesian network encoding
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class BNNode:
    name: str
    parents: tuple[str, ...] = ()


@dataclass(frozen=True)
class BayesNetSpec:
    """A binary Bayesian network given as named nodes with parent lists."""

    nodes: tuple[BNNode, ...]

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names")
        known: set[str] = set()
        for n in self.nodes:
            for p in n.parents:
                if p not in known:
                    raise ValueError(
                        f"node {n.name}: parent {p} not declared earlier "
                        f"(cyclic or out-of-order specification)")
            known.add(n.name)


@dataclass
class BNLegend:
    """Variable bookkeeping for an encoded network.

    ``node_var`` maps node names to circuit variables; ``cpt_var`` maps
    (node name, parent truth configuration) to the fresh annotated
    variable of that CPT row.  Parent configurations are tuples of booleans
    in the node's declared parent order.
    """

    node_var: dict[str, int] = field(default_factory=dict)
    cpt_var: dict[tuple[str, tuple[bool, ...]], int] = field(default_factory=dict)

    @property
    def cpt_vars(self) -> list[int]:
        return sorted(self.cpt_var.values())


def encode_bn(spec: BayesNetSpec) -> tuple[Theory, BNLegend]:
    """Propositionalize a binary BN with one variable per CPT row.

    Variable layout: node variables first (declaration order), then CPT
    variables grouped by node in declaration order, rows in binary order
    of the parent configuration.
    """
    legend = BNLegend({n.name: i for i, n in enumerate(spec.nodes, 1)})
    next_var = len(spec.nodes) + 1
    constraints = []
    for n in spec.nodes:
        k = len(n.parents)
        terms = []
        for bits in range(1 << k):
            config = tuple(bool((bits >> i) & 1) for i in range(k))
            legend.cpt_var[(n.name, config)] = next_var
            lits = [f_var(legend.node_var[p]) if val
                    else f_not(f_var(legend.node_var[p]))
                    for p, val in zip(n.parents, config)]
            terms.append(f_and(*lits, f_var(next_var)))
            next_var += 1
        constraints.append(f_iff(f_var(legend.node_var[n.name]), f_or(*terms)))
    return Theory(next_var - 1, tuple(constraints)), legend


def bn_compile_order(spec: BayesNetSpec, legend: BNLegend) -> list[int]:
    """Split order: each node's ``legend.cpt_var`` rows, then the node.

    Families follow the declaration (topological) order, which keeps the
    residual formulas small during Shannon expansion -- a node's
    biconditional resolves as soon as its parents and CPT rows are split.
    """
    order: list[int] = []
    for n in spec.nodes:
        order += [v for (name, _), v in legend.cpt_var.items()
                  if name == n.name]
        order.append(legend.node_var[n.name])
    return order
