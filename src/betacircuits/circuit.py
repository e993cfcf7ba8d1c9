"""d-DNNF circuit representation, NNF file I/O, validation, and evaluation.

A circuit is a rooted DAG whose internal nodes are AND/OR gates and whose
leaves are literals or the constants TRUE/FALSE.  The circuits handled here
are *deterministic* and *decomposable*:

* decomposable AND: the children of an AND gate share no variables;
* deterministic OR: the children of an OR gate are pairwise logically
  contradictory.

Under these restrictions a single bottom-up sweep computes weighted model
counts in any commutative semiring: OR folds with the semiring sum, AND
with the semiring product, and a literal leaf contributes its label.

Each leaf additionally carries a lambda indicator bit.  Setting lambda = 0
on a leaf makes it contribute the additive identity, which removes every
model containing that literal from the count -- this is how evidence and
query conditioning are pushed into the circuit without rebuilding it.

``_Schedule.run`` is that fold, the library's only bottom-up evaluator.
It runs one lockstep pass: the evidence sweep and, per query, a joint
sweep that recomputes only the ancestors of the negated-query leaves
advance together, node by node.  Each gate folds its children one at a
time, as soon as each is ready, and each value is dropped after its last
fold, so a wide gate never holds all its children.  ``eval_queries`` runs
the pass for every value domain (point probabilities, opinions, moment
pairs, Monte Carlo sample arrays); cpb's forward pass runs it on float
means and ``validate`` on truth-table bitsets, both keeping every value.

File format (c2d-style NNF text):

    nnf <node-count> <edge-count> <var-count>
    L <lit>                    literal leaf
    A <k> <id...>              AND gate with k children ("A 0" is TRUE)
    O <decision-var> <k> <id...>   OR gate ("O 0 0" is FALSE)

Children are listed by node id and must precede the gates that list them;
the last node is the root.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .betacalc import BetaLabel


class NodeKind(enum.Enum):
    AND = "A"
    OR = "O"
    LITERAL = "L"
    TRUE = "T"
    FALSE = "F"


@dataclass(frozen=True)
class CircuitNode:
    id: int
    kind: NodeKind
    children: tuple[int, ...] = ()
    literal: int = 0          # signed variable id, LITERAL nodes only
    lam: int = 1              # lambda indicator (leaves; 0 = conditioned out)
    decision_var: int = 0     # OR decision variable from the file (informational)

    @property
    def var(self) -> int:
        return abs(self.literal)


class CircuitError(ValueError):
    """Structural or parse error in a circuit."""


@dataclass
class Circuit:
    """An immutable-by-convention d-DNNF circuit.

    ``query_literal`` is staged by ``set_condition`` (whose evidence lives
    in the leaves' lambda bits): each evaluator pins the leaves of its
    negation to 0 for the numerator of the conditional.
    """

    nodes: list[CircuitNode]
    root: int
    var_count: int
    query_literal: Optional[int] = None
    _scopes: Optional[list[frozenset[int]]] = field(
        default=None, repr=False, compare=False)
    _schedules: dict[tuple[int, ...], _Schedule] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> CircuitNode:
        return self.nodes[nid]

    def scopes(self) -> list[frozenset[int]]:
        """Per-node variable scopes (cached)."""
        if self._scopes is None:
            out: list[frozenset[int]] = []
            for n in self.nodes:
                if n.kind is NodeKind.LITERAL:
                    out.append(frozenset((n.var,)))
                elif n.kind in (NodeKind.TRUE, NodeKind.FALSE):
                    out.append(frozenset())
                else:
                    acc: set[int] = set()
                    for c in n.children:
                        acc |= out[c]
                    out.append(frozenset(acc))
            self._scopes = out
        return self._scopes

    def schedule(self, queries: tuple[int, ...]) -> _Schedule:
        """The lockstep pass of ``queries`` (literals), cached per tuple."""
        plan = self._schedules.get(queries)
        if plan is None:
            plan = self._schedules[queries] = _Schedule.build(self, queries)
        return plan

    def variables(self) -> frozenset[int]:
        return self.scopes()[self.root]


# ---------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------

def parse_nnf(text: str) -> Circuit:
    """Parse c2d-style NNF text into a Circuit.

    Raises CircuitError with a line number for malformed headers, dangling
    child references, and out-of-range literals.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    content = [(i + 1, ln) for i, ln in enumerate(lines)
               if ln and not ln.startswith("c")]
    if not content:
        raise CircuitError("empty NNF input")
    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "nnf":
        raise CircuitError(f"line {lineno}: malformed header {header!r}")
    try:
        n_nodes, _n_edges, n_vars = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise CircuitError(f"line {lineno}: non-integer header field") from exc

    nodes: list[CircuitNode] = []
    for lineno, ln in content[1:]:
        toks = ln.split()
        nid = len(nodes)
        tag = toks[0]
        try:
            if tag == "L":
                if len(toks) != 2:
                    raise CircuitError(f"line {lineno}: malformed literal line")
                lit = int(toks[1])
                if lit == 0 or abs(lit) > n_vars:
                    raise CircuitError(
                        f"line {lineno}: literal {lit} out of range 1..{n_vars}")
                nodes.append(CircuitNode(nid, NodeKind.LITERAL, literal=lit))
            elif tag == "A":
                k = int(toks[1])
                ids = tuple(int(t) for t in toks[2:])
                if len(ids) != k:
                    raise CircuitError(
                        f"line {lineno}: AND arity {k} but {len(ids)} children")
                if k == 0:
                    nodes.append(CircuitNode(nid, NodeKind.TRUE))
                else:
                    _check_children(ids, nid, lineno)
                    nodes.append(CircuitNode(nid, NodeKind.AND, ids))
            elif tag == "O":
                dvar = int(toks[1])
                k = int(toks[2])
                ids = tuple(int(t) for t in toks[3:])
                if len(ids) != k:
                    raise CircuitError(
                        f"line {lineno}: OR arity {k} but {len(ids)} children")
                if k == 0:
                    nodes.append(CircuitNode(nid, NodeKind.FALSE))
                else:
                    _check_children(ids, nid, lineno)
                    nodes.append(CircuitNode(nid, NodeKind.OR, ids,
                                             decision_var=dvar))
            else:
                raise CircuitError(f"line {lineno}: unknown node tag {tag!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, CircuitError):
                raise
            raise CircuitError(f"line {lineno}: malformed node line {ln!r}") from exc
    if len(nodes) != n_nodes:
        raise CircuitError(
            f"header declares {n_nodes} nodes but file contains {len(nodes)}")
    if not nodes:
        raise CircuitError("circuit has no nodes")
    return Circuit(nodes, root=len(nodes) - 1, var_count=n_vars)


def _check_children(ids: Sequence[int], nid: int, lineno: int) -> None:
    for c in ids:
        if c < 0 or c >= nid:
            raise CircuitError(
                f"line {lineno}: child id {c} does not precede node {nid}")


def format_nnf(c: Circuit) -> str:
    """Serialize a circuit back to NNF text (round-trips with parse_nnf)."""
    edges = sum(len(n.children) for n in c.nodes)
    out = [f"nnf {len(c.nodes)} {edges} {c.var_count}"]
    for n in c.nodes:
        if n.kind is NodeKind.LITERAL:
            out.append(f"L {n.literal}")
        elif n.kind is NodeKind.TRUE:
            out.append("A 0")
        elif n.kind is NodeKind.FALSE:
            out.append("O 0 0")
        elif n.kind is NodeKind.AND:
            out.append("A " + " ".join(str(i) for i in (len(n.children),) + n.children))
        else:
            out.append("O " + " ".join(
                str(i) for i in (n.decision_var, len(n.children)) + n.children))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list[str]
    warnings: list[str]
    determinism_exact: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def _truth_tables(c: Circuit, columns: Mapping[int, int], full: int) -> list[int]:
    """Every node's truth table as a bitset, by one pass that keeps them all.

    Bit r of a table is the node's value on row r.  ``columns[v]`` is the
    table of variable v and ``full`` has every row's bit set; a variable
    missing from ``columns`` makes its literal leaves raise KeyError.  The
    pass reads a leaf with lambda = 0 as FALSE, so ``c`` is unconditioned.
    """
    plan = _Schedule.build(c, (), range(len(c)))
    return plan.run(0, full, operator.or_, operator.and_,
                    lambda lit: columns[lit] if lit > 0
                    else full ^ columns[-lit])


def truth_value(c: Circuit, assignment: Mapping[int, bool]) -> bool:
    """Boolean value of the circuit under a (partial) variable assignment.

    Variables missing from the assignment make literal leaves raise KeyError;
    callers must cover the scope of the evaluated circuit.
    """
    columns = {v: int(bool(val)) for v, val in assignment.items()}
    return bool(_truth_tables(c, columns, 1)[c.root])


def validate(c: Circuit, max_check_vars: int = 16) -> ValidationReport:
    """Check decomposability (always exact) and determinism.

    Determinism is checked exactly iff ``c.var_count <= max_check_vars``,
    otherwise the circuit is trusted and a warning is recorded.  The check
    is one pass that builds every node's truth table over all 2^V rows
    of its V leaf variables (n * 2^V bits of memory); an OR node is
    reported at the lowest row, restricted to its scope, where two children
    hold.  Only unconditioned circuits come here (every lambda is 1):
    ``infer`` and the harness validate a circuit as parsed.
    """
    violations: list[str] = []
    warnings: list[str] = []
    scopes = c.scopes()

    for n in c.nodes:
        if n.kind is NodeKind.AND:
            seen: set[int] = set()
            for ch in n.children:
                overlap = seen & scopes[ch]
                if overlap:
                    violations.append(
                        f"node {n.id}: AND children share variables {sorted(overlap)}")
                seen |= scopes[ch]

    determinism_exact = c.var_count <= max_check_vars
    if not determinism_exact:
        warnings.append(
            f"determinism not checked: {c.var_count} variables exceeds "
            f"max_check_vars={max_check_vars}; circuit trusted")
        return ValidationReport(violations, warnings, determinism_exact)

    variables = sorted({n.var for n in c.nodes if n.kind is NodeKind.LITERAL})
    full = (1 << (1 << len(variables))) - 1
    # Variable j is bit j of the row index: runs of 2^j zeros then 2^j ones.
    columns = {v: (((1 << (1 << j)) - 1) << (1 << j))
               * (full // ((1 << (2 << j)) - 1))
               for j, v in enumerate(variables)}
    tables = _truth_tables(c, columns, full)
    for n in c.nodes:
        if n.kind is not NodeKind.OR:
            continue
        union = overlap = 0
        for ch in n.children:
            overlap |= union & tables[ch]
            union |= tables[ch]
        if overlap:
            row = (overlap & -overlap).bit_length() - 1
            sat = [ch for ch in n.children if (tables[ch] >> row) & 1]
            assignment = {v: bool((row >> j) & 1)
                          for j, v in enumerate(variables) if v in scopes[n.id]}
            violations.append(
                f"node {n.id}: OR children {sat} overlap on "
                f"assignment {assignment}")
    return ValidationReport(violations, warnings, determinism_exact)


# ---------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------

def set_condition(c: Circuit, query: Optional[int],
                  evidence: Iterable[tuple[int, bool]] = ()) -> Circuit:
    """Return a copy conditioned on evidence with a staged query literal.

    Evidence (var, value) pairs set lambda = 0 on every leaf asserting the
    *contradicting* polarity of that variable; a negative var reads as a
    literal, so (-v, True) is (v, False).  The query literal is only
    recorded: the evaluators pin its negation's leaves to 0 when they
    compute the numerator of the conditional.

    Raises CircuitError when an evidence variable is 0 or above
    ``c.var_count``, or the query variable does not occur in the circuit.
    Evidence on a variable with no leaf is accepted and changes nothing.
    """
    contradicted = {(-v if val else v) for v, val in evidence}
    for lit in contradicted:
        if not 0 < abs(lit) <= c.var_count:
            raise CircuitError(f"evidence variable {abs(lit)} out of range "
                               f"1..{c.var_count}")
    if query is not None:
        query_literals(c, (query,))
    new_nodes = []
    for n in c.nodes:
        if n.kind is NodeKind.LITERAL and n.literal in contradicted:
            new_nodes.append(replace(n, lam=0))
        else:
            new_nodes.append(n)
    return Circuit(new_nodes, c.root, c.var_count, query_literal=query)


def query_literals(c: Circuit, queries: Iterable[int]) -> tuple[int, ...]:
    """The distinct ``queries`` in order, each checked to occur in ``c``.

    Raises ValueError when none is given and CircuitError when a query
    variable has no leaf in the circuit.
    """
    queries = tuple(dict.fromkeys(queries))
    if not queries:
        raise ValueError("no queries given")
    leaf_vars = {n.var for n in c.nodes if n.kind is NodeKind.LITERAL}
    for q in queries:
        if abs(q) not in leaf_vars:
            raise CircuitError(
                f"query variable {abs(q)} does not occur in circuit")
    return queries


# ---------------------------------------------------------------------
# Label tables
# ---------------------------------------------------------------------

class LabelTable:
    """The labelling function: variable id -> BetaLabel, complement-closed.

    A negative literal is labelled with the complement of its variable's
    label, so complement means always sum to 1.  Variables *absent* from
    the table are deterministic (derived) atoms: both their polarities are
    labelled certain-true, i.e. weight 1, which is the standard weighted
    model counting treatment for non-probabilistic variables.
    """

    def __init__(self, labels: Optional[Mapping[int, BetaLabel]] = None):
        self._labels: dict[int, BetaLabel] = {}
        for v, label in (labels or {}).items():
            self.set(v, label)

    def __contains__(self, var: int) -> bool:
        return var in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def variables(self) -> list[int]:
        return sorted(self._labels)

    def set(self, var: int, label: BetaLabel) -> None:
        if var <= 0:
            raise ValueError(f"variable ids must be positive, got {var}")
        self._labels[var] = label

    def label_of(self, literal: int) -> BetaLabel:
        var = abs(literal)
        lab = self._labels.get(var)
        if lab is None:
            return BetaLabel.certain_true()
        return lab if literal > 0 else lab.complement()

    def mean_of(self, literal: int) -> float:
        return self.label_of(literal).mean

    def variance_of(self, literal: int) -> float:
        return self.label_of(literal).variance


def parse_label_table(text: str) -> LabelTable:
    """Parse a label table file.

    One line per variable: ``var alpha_pos alpha_neg base_rate prior_weight``
    (the last two fields optional, defaulting to 0.5 and 2).  The token
    ``inf`` for alpha_pos (alpha_neg) denotes the certain-true
    (certain-false) sentinel.
    """
    table = LabelTable()
    for i, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if len(toks) < 3:
            raise CircuitError(f"label table line {i}: expected at least 3 fields")
        try:
            var = int(toks[0])
            base = float(toks[3]) if len(toks) > 3 else 0.5
            weight = float(toks[4]) if len(toks) > 4 else 2.0
            ap, an = toks[1], toks[2]
            if ap == "inf":
                label = BetaLabel.certain_true(base, weight)
            elif an == "inf":
                label = BetaLabel.certain_false(base, weight)
            else:
                label = BetaLabel(float(ap), float(an), base, weight)
            table.set(var, label)
        except ValueError as exc:
            raise CircuitError(f"label table line {i}: {exc}") from exc
    return table


def format_label_table(table: LabelTable) -> str:
    out = []
    for v in table.variables:
        lab = table.label_of(v)
        if lab.certain is True:
            ap, an = "inf", "1"
        elif lab.certain is False:
            ap, an = "1", "inf"
        else:
            ap, an = repr(lab.alpha_pos), repr(lab.alpha_neg)
        out.append(f"{v} {ap} {an} {lab.base_rate!r} {lab.prior_weight!r}")
    return "\n".join(out) + "\n"


def parse_condition_file(text: str) -> tuple[Optional[int], list[tuple[int, bool]]]:
    """Parse an evidence/query file.

    Lines are ``evidence <var> <0|1>`` or ``query <var>``; at most one
    query line is allowed.
    """
    query: Optional[int] = None
    evidence: list[tuple[int, bool]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if toks[0] == "evidence" and len(toks) == 3 and toks[2] in ("0", "1"):
            evidence.append((int(toks[1]), toks[2] == "1"))
        elif toks[0] == "query" and len(toks) == 2:
            if query is not None:
                raise CircuitError(f"condition file line {i}: second query line")
            query = int(toks[1])
        else:
            raise CircuitError(f"condition file line {i}: malformed line {ln!r}")
    return query, evidence


# ---------------------------------------------------------------------
# Generic semiring evaluation
# ---------------------------------------------------------------------

# Step codes of a pass.  (_LEAF, slot, literal) stores ``leaf(literal)``,
# _ZERO and _ONE store a constant, (_COPY, slot, child) starts a gate's
# fold with its first child, _TIMES and _PLUS fold in the next child and
# (_DROP, slot, 0) forgets a value that no later step reads.
_TIMES, _PLUS, _COPY, _DROP, _LEAF, _ZERO, _ONE = range(7)


@dataclass(frozen=True)
class _Schedule:
    """One lockstep pass: the evidence sweep and every query's joint sweep.

    ``order`` lists the nodes that reach the root, in id order (children
    first), and ``leaves`` its literal leaves with lambda = 1: the only
    nodes whose values the pass reads from ``leaf``.  ``joint[q]`` maps
    each node that query q recomputes (the ``leaves`` of literal -q and
    their ancestors, in id order) to the slot of its joint value; slot i
    holds node i's evidence value, which every other node of the joint
    sweep reads.  ``steps`` reads ``leaves`` once each, in id order
    (Monte Carlo draws each variable at its first read), and folds each
    gate of each sweep into its slot in file order, one child per step:
    the step that folds child k runs as soon as that child's value and the
    fold of child k - 1 are both done.  A value is dropped after its last
    fold in any sweep; the roots are kept.  ``size`` counts the slots.
    The schedule holds slot numbers only, no reference to its circuit, so
    a circuit and the schedules cached on it are freed without the cycle
    collector.
    """

    order: list[int]
    leaves: list[int]
    joint: dict[int, dict[int, int]]
    steps: list[tuple[int, int, int]]
    size: int

    @classmethod
    def build(cls, c: Circuit, queries: tuple[int, ...],
              tops: Optional[Iterable[int]] = None) -> "_Schedule":
        """The pass of ``queries``; ``tops`` replaces the root.

        ``tops`` (default: the root alone) are the nodes whose values the
        pass keeps; it evaluates every node that reaches one of them.
        """
        nodes = c.nodes
        tops = [c.root] if tops is None else list(tops)
        reach = [False] * len(nodes)
        for t in tops:
            reach[t] = True
        for n in reversed(nodes):
            if reach[n.id]:
                for ch in n.children:
                    reach[ch] = True
        order = [i for i in range(len(nodes)) if reach[i]]
        leaves = [i for i in order if nodes[i].kind is NodeKind.LITERAL
                  and nodes[i].lam != 0]
        # Every gate of the evidence sweep: its id, fold step and children.
        gates = [(i, _TIMES if nodes[i].kind is NodeKind.AND else _PLUS,
                  nodes[i].children) for i in order if nodes[i].children]
        joint: dict[int, dict[int, int]] = {}
        size = len(nodes)
        for q in queries:
            # Children come first, so one scan in id order finds every
            # ancestor of the query's negated leaves.
            dirty = {i for i in leaves if nodes[i].literal == -q}
            for i, _, kids in gates:
                if not dirty.isdisjoint(kids):
                    dirty.add(i)
            joint[q] = {i: size + k for k, i in enumerate(sorted(dirty))}
            size += len(dirty)

        # Each query's joint sweep folds its gates into their joint slots.
        folds = gates.copy()
        for slots in joint.values():
            folds += [(slots[i], op, tuple(slots.get(ch, ch) for ch in kids))
                      for i, op, kids in gates if i in slots]
        reads = [0] * size
        waiting: dict[int, list[int]] = {}
        for f, (_, _, kids) in enumerate(folds):
            for ch in kids:
                reads[ch] += 1
            waiting.setdefault(kids[0], []).append(f)
        keep = set(tops)
        keep.update(slots[c.root] for slots in joint.values()
                    if c.root in slots)

        steps: list[tuple[int, int, int]] = []
        read = set(leaves)
        ready = [False] * size
        done = [0] * len(folds)  # children folded so far, per fold
        for i in order:
            n = nodes[i]
            if n.children:
                continue
            if i in read:
                steps.append((_LEAF, i, n.literal))
            else:
                steps.append((_ONE if n.kind is NodeKind.TRUE else _ZERO,
                              i, 0))
            stack = [i]
            for slots in joint.values():
                if i in slots:
                    steps.append((_ZERO, slots[i], 0))
                    stack.append(slots[i])
            while stack:
                s = stack.pop()
                ready[s] = True
                for f in waiting.pop(s, ()):
                    slot, op, kids = folds[f]
                    k = done[f]
                    while k < len(kids) and ready[kids[k]]:
                        ch = kids[k]
                        steps.append((op if k else _COPY, slot, ch))
                        reads[ch] -= 1
                        if not reads[ch] and ch not in keep:
                            steps.append((_DROP, ch, 0))
                        k += 1
                    done[f] = k
                    if k == len(kids):
                        stack.append(slot)
                    else:
                        waiting.setdefault(kids[k], []).append(f)
        return cls(order, leaves, joint, steps, size)

    def run(self, zero, one, plus: Callable, times: Callable,
            leaf: Callable[[int], object], drop: bool = True) -> list:
        """Every slot's value after the pass (None once dropped).

        A literal leaf with lambda = 1 gets ``leaf(lit)``, any other leaf
        and TRUE or FALSE their constant, ``zero`` or ``one``.  An AND folds
        its children with ``times`` and an OR with ``plus``, in file order
        (the opinion and moment calculi depend on it).  ``drop=False``
        keeps every value.
        """
        values: list = [None] * self.size
        for op, slot, arg in self.steps:
            if op == _TIMES:
                values[slot] = times(values[slot], values[arg])
            elif op == _PLUS:
                values[slot] = plus(values[slot], values[arg])
            elif op == _COPY:
                values[slot] = values[arg]
            elif op == _DROP:
                if drop:
                    values[slot] = None
            elif op == _LEAF:
                values[slot] = leaf(arg)
            else:
                values[slot] = zero if op == _ZERO else one
        return values


def eval_queries(c: Circuit, queries: Iterable[int], zero, one,
                 plus: Callable, times: Callable,
                 leaf_value: Callable[[int], object]):
    """``(evidence_root, {query: joint_root})`` by one lockstep pass.

    The evidence sweep gives a leaf with lambda = 0 ``zero`` and any other
    literal leaf ``leaf_value(lit)``.  A query's joint sweep also gives the
    leaves of its negation ``zero``; it recomputes only their ancestors and
    reads every other node's evidence value, so each root equals that of
    a full sweep.  Only nodes that reach the root are evaluated, and each
    value is dropped after its last fold.  ``queries`` are literals, not
    checked against ``c``; their schedule is cached on ``c``.
    """
    plan = c.schedule(tuple(queries))
    values = plan.run(zero, one, plus, times, leaf_value)
    return values[c.root], {q: values[slots.get(c.root, c.root)]
                            for q, slots in plan.joint.items()}
