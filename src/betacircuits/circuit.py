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

A circuit also carries a set of zeroed literals (the lambda = 0 indicators
of the differential approach), whose leaves contribute the additive
identity.  That removes every model containing the literal from the count
-- this is how evidence is pushed into the circuit without rebuilding it.

``_Schedule.run`` is that fold, the library's only bottom-up evaluator.
It runs one lockstep pass: the evidence sweep and, per query, a joint
sweep that recomputes only the ancestors of the negated-query leaves
advance together, node by node.  Each gate folds its children one at a
time, as soon as each is ready, and each value is dropped after its last
fold, so a wide gate never holds all its children.  ``eval_queries`` runs
the pass for every value domain (point probabilities, opinions, moment
pairs, Monte Carlo sample arrays) and reads each sweep's root from
``_Schedule.roots``; cpb's forward pass runs it on float means, keeping
every value, and ``_Schedule.adjoints`` reads the same folds in reverse
from each root.  ``validate`` runs a pass of every node on scope bitmasks
and, up to 16 variables, on truth tables.  Building a pass is also the
one walk that finds which nodes reach the root, and so which variables a
circuit has (``Circuit.variables``).

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
import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Optional

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
    decision_var: int = 0     # OR decision variable from the file (informational)

    @property
    def var(self) -> int:
        return abs(self.literal)


class CircuitError(ValueError):
    """Structural or parse error in a circuit."""


@dataclass
class Circuit:
    """An immutable-by-convention d-DNNF circuit.

    ``set_condition`` sets ``zeroed``, the literals whose leaves evidence
    sets to 0, and stages ``query_literal``: each evaluator pins the leaves
    of its negation to 0 for the numerator of the conditional.  The only
    state derived from the nodes is the pass cache behind ``schedule``,
    which every conditioning of one circuit shares.
    """

    nodes: list[CircuitNode]
    root: int
    var_count: int
    query_literal: Optional[int] = None
    zeroed: frozenset[int] = frozenset()
    _schedules: dict[tuple, _Schedule] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> CircuitNode:
        return self.nodes[nid]

    def schedule(self, queries: tuple[int, ...]) -> _Schedule:
        """The lockstep pass of literals ``queries``, cached per zeroed set."""
        plan = self._schedules.get((self.zeroed, queries))
        if plan is None:
            plan = self._schedules[self.zeroed, queries] = _Schedule.build(
                self, queries)
        return plan

    def variables(self) -> frozenset[int]:
        """The variables with a leaf that reaches the root, zeroed or not."""
        return self.schedule(()).variables


# ---------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------

def _read_lines(text: str, what: str,
                line: Callable[[list[str]], None]) -> None:
    """Pass the tokens of each line of ``text`` to ``line``, in order.

    Blank lines and comment lines (the first token starts with ``#``) are
    skipped.  A ValueError or IndexError from ``line`` becomes a
    CircuitError that names ``what`` and the line number.
    """
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if toks and not toks[0].startswith("#"):
            try:
                line(toks)
            except (ValueError, IndexError) as exc:
                why = exc if isinstance(exc, ValueError) else "too few fields"
                raise CircuitError(f"{what} line {i}: {why}") from exc


def parse_nnf(text: str) -> Circuit:
    """Parse c2d-style NNF text into a Circuit.

    c2d's comment lines (first token ``c``) are skipped like ``#`` ones.
    Raises CircuitError with a line number for a malformed line, a
    dangling child reference or an out-of-range literal.
    """
    header: list[int] = []
    nodes: list[CircuitNode] = []

    def line(toks: list[str]) -> None:
        if toks[0] == "c":
            return
        if not header:
            if len(toks) != 4 or toks[0] != "nnf":
                raise ValueError(f"malformed header {' '.join(toks)!r}")
            header.extend(int(t) for t in toks[1:])
            return
        nid, tag, n_vars = len(nodes), toks[0], header[2]
        if tag == "L":
            if len(toks) != 2:
                raise ValueError("malformed literal line")
            lit = int(toks[1])
            if lit == 0 or abs(lit) > n_vars:
                raise ValueError(f"literal {lit} out of range 1..{n_vars}")
            nodes.append(CircuitNode(nid, NodeKind.LITERAL, literal=lit))
            return
        if tag == "A":
            kind, dvar, k, ids = NodeKind.AND, 0, int(toks[1]), toks[2:]
        elif tag == "O":
            kind, dvar, k, ids = NodeKind.OR, int(toks[1]), int(toks[2]), toks[3:]
        else:
            raise ValueError(f"unknown node tag {tag!r}")
        children = tuple(int(t) for t in ids)
        if len(children) != k:
            raise ValueError(
                f"{kind.name} arity {k} but {len(children)} children")
        for ch in children:
            if not 0 <= ch < nid:
                raise ValueError(f"child id {ch} does not precede node {nid}")
        if not children:
            kind, dvar = (NodeKind.TRUE if tag == "A" else NodeKind.FALSE), 0
        nodes.append(CircuitNode(nid, kind, children, decision_var=dvar))

    _read_lines(text, "NNF", line)
    if not header:
        raise CircuitError("empty NNF input")
    if len(nodes) != header[0]:
        raise CircuitError(
            f"header declares {header[0]} nodes but file contains {len(nodes)}")
    if not nodes:
        raise CircuitError("circuit has no nodes")
    return Circuit(nodes, root=len(nodes) - 1, var_count=header[2])


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


#: Past this many variables ``validate`` trusts determinism unchecked.
MAX_CHECK_VARS = 16


def validate(c: Circuit) -> ValidationReport:
    """Check decomposability (always exact) and determinism.

    Both checks run one pass of every node, which keeps every value.
    Decomposability folds each node's scope through it as a bitmask, bit j
    standing for the j-th smallest leaf variable, and reports an AND whose
    children's masks overlap.  Determinism is checked exactly iff
    ``c.var_count <= MAX_CHECK_VARS``, otherwise the circuit is trusted and
    a warning is recorded.  The check runs the same pass on truth tables:
    bitsets whose bit r is the node's value on row r of all 2^V rows of
    its V leaf variables (n * 2^V bits of memory); an OR node is reported
    at the lowest row, restricted to its scope, where two children hold.
    Only unconditioned circuits come here (no literal is zeroed): ``infer``
    and the harness validate a circuit as parsed.
    """
    violations: list[str] = []
    warnings: list[str] = []
    plan = _Schedule.build(c, (), range(len(c)))
    variables = sorted(plan.variables)
    bits = {v: 1 << j for j, v in enumerate(variables)}
    masks = plan.run(0, 0, operator.or_, operator.or_,
                     lambda lit: bits[abs(lit)])
    for n in c.nodes:
        if n.kind is NodeKind.AND:
            seen = 0
            for ch in n.children:
                overlap = seen & masks[ch]
                if overlap:
                    violations.append(
                        f"node {n.id}: AND children share variables "
                        f"{[v for v in variables if overlap & bits[v]]}")
                seen |= masks[ch]

    determinism_exact = c.var_count <= MAX_CHECK_VARS
    if not determinism_exact:
        warnings.append(
            f"determinism not checked: {c.var_count} variables exceeds "
            f"MAX_CHECK_VARS={MAX_CHECK_VARS}; circuit trusted")
        return ValidationReport(violations, warnings, determinism_exact)

    full = (1 << (1 << len(variables))) - 1
    # Variable j is bit j of the row index: runs of 2^j zeros then 2^j ones.
    columns = {v: (((1 << (1 << j)) - 1) << (1 << j))
               * (full // ((1 << (2 << j)) - 1))
               for j, v in enumerate(variables)}
    tables = plan.run(0, full, operator.or_, operator.and_,
                      lambda lit: columns[lit] if lit > 0
                      else full ^ columns[-lit])
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
                          for j, v in enumerate(variables)
                          if masks[n.id] & bits[v]}
            violations.append(
                f"node {n.id}: OR children {sat} overlap on "
                f"assignment {assignment}")
    return ValidationReport(violations, warnings, determinism_exact)


# ---------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------

def set_condition(c: Circuit, query: Optional[int],
                  evidence: Iterable[tuple[int, bool]] = ()) -> Circuit:
    """``c`` conditioned on evidence, with a staged query literal.

    Evidence (var, value) pairs add the *contradicting* literal of that
    variable to ``c.zeroed``; a negative var reads as a literal, so
    (-v, True) is (v, False).  The query literal is only recorded: the
    evaluators pin its negation's leaves to 0 when they compute the
    numerator of the conditional.  The result shares ``c``'s nodes and its
    cached passes.

    Raises CircuitError when an evidence variable is 0 or above
    ``c.var_count``, or the query variable has no leaf that reaches the
    root.  The query is checked on the result, by the pass that the
    one-query evaluators then take from the cache.  Evidence on a variable
    with no leaf is accepted and changes no answer.
    """
    contradicted = {(-v if val else v) for v, val in evidence}
    for lit in contradicted:
        if not 0 < abs(lit) <= c.var_count:
            raise CircuitError(f"evidence variable {abs(lit)} out of range "
                               f"1..{c.var_count}")
    out = Circuit(c.nodes, c.root, c.var_count, query,
                  c.zeroed | contradicted)
    out._schedules = c._schedules
    if query is not None:
        query_literals(out, (query,))
    return out


def query_literals(c: Circuit, queries: Iterable[int]) -> tuple[int, ...]:
    """The distinct ``queries`` in order, each checked to occur in ``c``.

    Raises ValueError when none is given and CircuitError when a query
    variable has no leaf that reaches the root (a leaf zeroed by evidence
    counts).  Reads the variables of ``c.schedule(queries)``, the pass that
    the caller runs next, and drops that pass from the cache when it
    raises.
    """
    queries = tuple(dict.fromkeys(queries))
    if not queries:
        raise ValueError("no queries given")
    variables = c.schedule(queries).variables
    for q in queries:
        if abs(q) not in variables:
            del c._schedules[c.zeroed, queries]
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
    (certain-false) sentinel; the other alpha must still be finite and > 0.
    """
    table = LabelTable()

    def line(toks: list[str]) -> None:
        if not 3 <= len(toks) <= 5:
            raise ValueError(f"expected 3 to 5 fields, got {len(toks)}")
        var, ap, an = int(toks[0]), toks[1], toks[2]
        if var in table:
            raise ValueError(f"second line for variable {var}")
        base = float(toks[3]) if len(toks) > 3 else 0.5
        weight = float(toks[4]) if len(toks) > 4 else 2.0
        if "inf" in (ap, an):
            other = float(an if ap == "inf" else ap)
            if not 0.0 < other < math.inf:
                raise ValueError(f"the alpha beside inf must be finite and "
                                 f"> 0, got {other}")
            label = (BetaLabel.certain_true if ap == "inf"
                     else BetaLabel.certain_false)(base, weight)
        else:
            label = BetaLabel(float(ap), float(an), base, weight)
        table.set(var, label)

    _read_lines(text, "label table", line)
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

    def line(toks: list[str]) -> None:
        nonlocal query
        if toks[0] == "evidence" and len(toks) == 3 and toks[2] in ("0", "1"):
            evidence.append((int(toks[1]), toks[2] == "1"))
        elif toks[0] == "query" and len(toks) == 2:
            if query is not None:
                raise ValueError("second query line")
            query = int(toks[1])
        else:
            raise ValueError(f"malformed line {' '.join(toks)!r}")

    _read_lines(text, "condition file", line)
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

    ``folds`` maps each sweep's gates, in id order, to their folds (slot,
    op, child slots): the evidence sweep's (the gates that reach the root),
    then each query's joint sweep's.  ``leaves`` are the leaves of literals
    not zeroed that reach the root: the only ones read from ``leaf``.
    ``variables`` are the variables of every literal leaf that reaches the
    root, zeroed or not.  Slot i holds node i's evidence value.  A query's
    joint sweep recomputes the ``leaves`` of its negation and their
    ancestors, each into a slot of its own past the nodes', and reads every
    other node's evidence value.  ``roots`` holds the slot of each sweep's
    root, aligned with ``folds``: ``roots[0]`` is the root, and so is the
    root of a query whose sweep is empty (no leaf of its negation).
    ``steps`` reads ``leaves`` once each, in id order
    (Monte Carlo draws each variable at its first read), and folds each
    gate of each sweep into its slot in file order, one child per step:
    the step that folds child k runs as soon as that child's value and the
    fold of child k - 1 are both done.  A value is dropped after its last
    fold in any sweep; the roots are kept.  ``size`` counts the slots.
    The schedule holds slot numbers only, no reference to its circuit, so
    a circuit and the schedules cached on it are freed without the cycle
    collector.
    """

    folds: list[dict[int, tuple[int, int, tuple[int, ...]]]]
    leaves: list[int]
    variables: frozenset[int]
    roots: list[int]
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
        literals = [i for i in order if nodes[i].kind is NodeKind.LITERAL]
        leaves = [i for i in literals if nodes[i].literal not in c.zeroed]
        # Every gate of the evidence sweep: its id, fold step and children.
        gates = {i: (i, _TIMES if nodes[i].kind is NodeKind.AND else _PLUS,
                     nodes[i].children) for i in order if nodes[i].children}
        # Per query, each node it recomputes -> the slot of its joint value.
        joint: list[dict[int, int]] = []
        size = len(nodes)
        for q in queries:
            # Children come first, so one scan in id order finds every
            # ancestor of the query's negated leaves.
            dirty = {i for i in leaves if nodes[i].literal == -q}
            for i, _, kids in gates.values():
                if not dirty.isdisjoint(kids):
                    dirty.add(i)
            joint.append({i: size + k for k, i in enumerate(sorted(dirty))})
            size += len(dirty)

        # Each query's joint sweep folds its gates into their joint slots.
        folds = [gates] + [
            {i: (slots[i], op, tuple(slots.get(ch, ch) for ch in kids))
             for i, op, kids in gates.values() if i in slots}
            for slots in joint]
        roots = [c.root] + [slots.get(c.root, c.root) for slots in joint]
        reads = [0] * size
        waiting: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for fold in chain.from_iterable(sweep.values() for sweep in folds):
            for ch in fold[2]:
                reads[ch] += 1
            waiting.setdefault(fold[2][0], []).append(fold)
        keep = set(tops + roots)

        steps: list[tuple[int, int, int]] = []
        read = set(leaves)
        ready = [False] * size
        done = [0] * size  # children folded so far, per fold's slot
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
            for slots in joint:
                if i in slots:
                    steps.append((_ZERO, slots[i], 0))
                    stack.append(slots[i])
            while stack:
                s = stack.pop()
                ready[s] = True
                for slot, op, kids in waiting.pop(s, ()):
                    k = done[slot]
                    while k < len(kids) and ready[kids[k]]:
                        ch = kids[k]
                        steps.append((op if k else _COPY, slot, ch))
                        reads[ch] -= 1
                        if not reads[ch] and ch not in keep:
                            steps.append((_DROP, ch, 0))
                        k += 1
                    done[slot] = k
                    if k == len(kids):
                        stack.append(slot)
                    else:
                        waiting.setdefault(kids[k], []).append(
                            (slot, op, kids))
        return cls(folds, leaves, frozenset(nodes[i].var for i in literals),
                   roots, steps, size)

    def run(self, zero, one, plus: Callable, times: Callable,
            leaf: Callable[[int], object], drop: bool = True) -> list:
        """Every slot's value after the pass (None once dropped).

        A leaf of a literal not zeroed gets ``leaf(lit)``, any other leaf
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

    def adjoints(self, values: list) -> Iterator[list[float]]:
        """Per sweep, every slot's adjoint d root / d slot of its root.

        ``values`` are ``run``'s on floats with ``drop=False``.  Each AND's
        weights dn/dc, the leave-one-out products of its children's values,
        are formed once.  Sweep k's walk starts from ``roots[k]`` and visits
        the evidence gates last to first, each as its fold in sweep k if
        that recomputes it: an OR passes its adjoint to each child, and an
        AND multiplies it by the child's weight.
        """
        weights = {slot: _leave_one_out([values[ch] for ch in kids])
                   for sweep in self.folds for slot, op, kids in sweep.values()
                   if op == _TIMES}
        for top, sweep in zip(self.roots, self.folds):
            adjoint = [0.0] * self.size
            adjoint[top] = 1.0
            for i, fold in reversed(self.folds[0].items()):
                slot, op, kids = sweep.get(i, fold)
                a = adjoint[slot]
                if a == 0.0:
                    continue
                if op == _PLUS:
                    for ch in kids:
                        adjoint[ch] += a
                else:
                    for ch, w in zip(kids, weights[slot]):
                        adjoint[ch] += a * w
            yield adjoint


def _leave_one_out(xs: list[float]) -> list[float]:
    """Each entry's product of the other entries: an AND's weights dn/dc.

    The leave-one-out product equals prod(xs)/x_c whenever x_c != 0 and is
    its algebraic limit otherwise (the zero-mean rule), so no division by
    zero can occur.  Two children, the common case, need no prefix and
    suffix products; the two forms agree bit for bit.
    """
    k = len(xs)
    if k == 2:
        return [xs[1], xs[0]]
    prefix = [1.0] * (k + 1)
    for i in range(k):
        prefix[i + 1] = prefix[i] * xs[i]
    suffix = [1.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * xs[i]
    return [prefix[i] * suffix[i + 1] for i in range(k)]


def eval_queries(c: Circuit, queries: Iterable[int], zero, one,
                 plus: Callable, times: Callable,
                 leaf_value: Callable[[int], object]):
    """``(evidence_root, {query: joint_root})`` by one lockstep pass.

    The evidence sweep gives a zeroed literal's leaf ``zero`` and any other
    literal leaf ``leaf_value(lit)``.  A query's joint sweep also gives the
    leaves of its negation ``zero``; it recomputes only their ancestors and
    reads every other node's evidence value, so each root, read from the
    pass's ``roots``, equals that of a full sweep.  Only nodes that reach
    the root are evaluated, and each value is dropped after its last fold.
    ``queries`` are literals, not checked against ``c``; their schedule is
    cached on ``c``.
    """
    queries = tuple(queries)
    plan = c.schedule(queries)
    values = plan.run(zero, one, plus, times, leaf_value)
    ev, *joints = (values[r] for r in plan.roots)
    return ev, dict(zip(queries, joints))
