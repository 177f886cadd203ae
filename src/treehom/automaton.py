"""Weighted tree automata with hom-constraints (WTAh), their runs, and
bounded enumeration.

A rule is (lhs, E, target, weight): lhs is a tree over the alphabet with
state leaves (not itself a bare state), E an equivalence over the state
positions of lhs stored as a canonical partition, and the weight nonzero.
Constraints are literal subtree equality: a run applies a rule only if all
subtrees at the positions of one class coincide.  Every state position gets
its own child run factor, even when a constraint forces equal subtrees.

WTG = all constraints trivial; WTA = additionally flat left-hand sides.
An automaton is eq-restricted when it has a non-final sink with exactly the
weight-one rules sigma(sink,...,sink) -> sink, and every constraint class of
every other rule contains exactly one non-sink position.

Every automaton, read from a file or derived by a construction, is built by
the one `Automaton` constructor from rule specs, and every rule goes
through every check (`make_rule`): one walk of its lhs checks each node and
collects the state positions, and only a rule with constraint pairs has
them closed into classes.  An automaton never changes once built, so the
verdicts on the whole of it (the sink's shape, eq-restriction, the first
height at which its relaxation is ambiguous) are worked out once, on first
use, however many constructions and checks ask.

Weights and runs are read only from a chart object, `Evaluator` or
`RunsTable`: per tree, each state's summed run weight, filled bottom-up from
the cells of the captured subtrees.  Cells hold values only; the rule
applications behind a cell are re-derived only when its runs are expanded
into Run objects.  One rule loop builds a cell and one expansion lists
runs, over trees and over the parse nodes of a text alike: `Evaluator`
fills the cells of given trees, each distinct subtree once, children
first, and evaluates a text, or lists its runs, from its parse alone
(`term.parse_nodes`), with no tree or chart entry.  `RunsTable` holds every
tree up to a height bound for the bounded operations, and fills its height
layers on demand, so a reader that stops at the first layer that settles it
fills no higher one.  Trees without a run to a real state evaluate to zero
and carry no accepting runs, and a rule whose states no tree reaches adds
nothing, so neither fill needs a reachability pre-pass.
The fixpoints over annotated states rather than trees (the pair automaton of
`first_diverging_height`, zero-divisor elimination) run on `saturate`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import attrgetter, itemgetter

from .semiring import Semiring, Weight
from .term import (
    NAME_RE,
    Position,
    RankedAlphabet,
    Tree,
    _tall_text,
    enumerate_trees,
    format_position,
    parse_nodes,
    replace_at,
    tree_key,
)
from .verdict import Verdict, verified, violated


class AutomatonError(ValueError):
    pass


class Rule:
    """A validated rule; `make_rule` builds it.  Beside its parts it holds
    what the run chart, the constructions and the printer read: the state
    positions of the lhs in preorder and their states, each constraint class
    as indices into them and as their states, the constraint as (class head,
    other member) pairs and as text, and whether the rule is flat (every lhs
    child is a state leaf) or constrained (some class has two members)."""

    __slots__ = (
        "lhs",
        "target",
        "weight",
        "classes",
        "state_positions",
        "state_labels",
        "class_labels",
        "class_indices",
        "pairs",
        "constraint_text",
        "flat",
        "constrained",
        "index",
        "_states",
        "_text",
    )

    def __init__(self, lhs, target, weight, classes, state_positions, state_labels, states):
        self.lhs = lhs
        self.target = target
        self.weight = weight
        self.classes = classes
        self.state_positions = state_positions
        self.state_labels = state_labels
        self._states = states
        n = len(lhs.children)
        # Flat: the lhs has n + 1 nodes, so its children are leaves, and n
        # state positions, so they are all states.  A flat rule captures the
        # children of a tree.
        self.flat = lhs.size == n + 1 and len(state_positions) == n
        self.constrained = len(classes) < len(state_positions)
        if self.constrained:
            pos_index = {p: i for i, p in enumerate(state_positions)}
            self.class_indices = tuple(tuple(pos_index[p] for p in cls) for cls in classes)
            self.class_labels = tuple(
                tuple(state_labels[i] for i in idxs) for idxs in self.class_indices
            )
            self.pairs = tuple((cls[0], p) for cls in classes for p in cls[1:])
            self.constraint_text = ", ".join(
                f"{format_position(a)} = {format_position(b)}" for a, b in self.pairs
            )
        else:  # one class per state position
            self.class_indices = tuple(zip(range(len(state_positions))))
            self.class_labels = tuple(zip(state_labels))
            self.pairs = ()
            self.constraint_text = ""
        self.index = -1
        self._text = None

    def spread(self, class_trees) -> list:
        """One capture per state position: the tree of its class."""
        subs = [None] * len(self.state_positions)
        for idxs, t in zip(self.class_indices, class_trees):
            for i in idxs:
                subs[i] = t
        return subs

    def plug(self, subs) -> Tree:
        """The lhs with subs[i] at its i-th state position.  It path-copies,
        so the ground parts of the lhs stay shared; a ground lhs is returned
        itself."""
        if self.flat and subs:
            return Tree(self.lhs.label, subs)
        t = self.lhs
        for p, sub in zip(self.state_positions, subs):
            t = replace_at(t, p, sub)
        return t

    @property
    def text(self) -> str:
        if self._text is None:
            s = f"{self.lhs.text} -> {self.target} @ {self.weight}"
            if self.constraint_text:
                s += f" | {self.constraint_text}"
            self._text = s
        return self._text

    def __repr__(self):
        return f"Rule({self.text!r})"


def _close_partition(state_positions, pairs):
    """Union-find closure of constraint pairs into a canonical full partition."""
    parent = {p: p for p in state_positions}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in pairs:
        for p in (a, b):
            if p not in parent:
                raise AutomatonError(
                    f"constraint position {format_position(p)} is not a state position"
                )
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for p in state_positions:
        groups.setdefault(find(p), []).append(p)
    classes = [tuple(sorted(g)) for g in groups.values()]
    classes.sort(key=lambda cls: cls[0])
    return tuple(classes)


def make_rule(alphabet, states, semiring, lhs, target, weight, pairs=()) -> Rule:
    """The rule (lhs, pairs, target, weight), checked in this order: the
    target is a state, the weight a nonzero `Weight` of the semiring, the lhs
    not a bare state; then one preorder walk checks each lhs node (a state
    leaf, or an alphabet symbol at its rank) and collects the state
    positions; last, the constraint pairs are closed into classes over those
    positions.  Without pairs each position is its own class."""
    states = frozenset(states)
    if target not in states:
        raise AutomatonError(f"undeclared target state: {target}")
    if not isinstance(weight, Weight):
        raise AutomatonError(f"rule weight must be a Weight, got {weight!r}")
    if weight.semiring is not semiring and weight.semiring != semiring:
        raise AutomatonError(
            f"rule weight lives in {weight.semiring.id}, automaton in {semiring.id}"
        )
    if weight.is_zero:
        raise AutomatonError(f"zero-weight rule: {lhs.text} -> {target}")
    if lhs.label in states and not lhs.children:
        raise AutomatonError(f"left-hand side must not be a bare state: {lhs.text}")
    ranks = alphabet.ranks
    state_positions = []
    state_labels = []
    stack = [((), lhs)]
    while stack:
        p, node = stack.pop()
        label, children = node.label, node.children
        if label in states:
            if children:
                raise AutomatonError(f"state {label} used with arguments in {lhs.text}")
            state_positions.append(p)
            state_labels.append(label)
        elif label not in ranks:
            raise AutomatonError(f"undeclared symbol {label} in {lhs.text}")
        elif ranks[label] != len(children):
            raise AutomatonError(
                f"symbol {label} has rank {ranks[label]}, "
                f"used with {len(children)} arguments in {lhs.text}"
            )
        else:
            for i in range(len(children), 0, -1):
                stack.append(((*p, i), children[i - 1]))
    state_positions = tuple(state_positions)
    classes = _close_partition(state_positions, pairs) if pairs else tuple(zip(state_positions))
    return Rule(lhs, target, weight, classes, state_positions, tuple(state_labels), states)


class Automaton:
    """A WTAh built from rule specs (lhs, target, weight[, constraint
    pairs]), each checked by `make_rule`, with no two rules alike in lhs,
    constraint classes and target.  The checks of the finished automaton
    (the sink's shape, eq-restriction) are worked out once, on first use."""

    def __init__(self, semiring: Semiring, alphabet: RankedAlphabet, states, finals, rules,
                 sink: str | None = None):
        self.semiring = semiring
        self.alphabet = alphabet
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise AutomatonError("duplicate state declarations")
        for q in self.states:
            if not NAME_RE.fullmatch(q):
                raise AutomatonError(f"illegal state name: {q!r}")
            if q in alphabet:
                raise AutomatonError(f"name {q} is both a state and an alphabet symbol")
        state_set = frozenset(self.states)
        finals = list(dict.fromkeys(finals))
        for q in finals:
            if q not in state_set:
                raise AutomatonError(f"undeclared final state: {q}")
        self.finals = tuple(sorted(finals))
        if sink is not None:
            if sink not in state_set:
                raise AutomatonError(f"undeclared sink state: {sink}")
            if sink in self.finals:
                raise AutomatonError(f"sink state {sink} must not be final")
        self.sink = sink

        prepared = []
        for lhs, target, weight, *rest in rules:
            pairs = rest[0] if rest else ()
            prepared.append(make_rule(alphabet, state_set, semiring, lhs, target, weight, pairs))
        seen_keys = set()
        for rule in prepared:
            key = (rule.lhs, rule.classes, rule.target)
            if key in seen_keys:
                raise AutomatonError(f"duplicate rule: {rule.text}")
            seen_keys.add(key)
        self.rules = tuple(prepared)
        for i, rule in enumerate(self.rules):
            rule.index = i

    @property
    def is_wtg(self) -> bool:
        return not any(rule.constrained for rule in self.rules)

    @property
    def is_wta(self) -> bool:
        if not self.is_wtg:
            return False
        return all(rule.flat for rule in self.rules)

    @cached_property
    def pure_sink(self) -> str | None:
        """The sink name if it has exactly the weight-one sink rules, else None."""
        if self.sink is not None and self._sink_shape_violation is None:
            return self.sink
        return None

    @cached_property
    def _sink_shape_violation(self) -> str | None:
        """None if the rules to the sink are exactly one weight-one rule
        sigma(sink,...,sink) -> sink per symbol, else the first fault."""
        sink = self.sink
        covered = set()
        for rule in self.rules:
            if rule.target != sink:
                continue
            labels = rule.state_labels
            if (not rule.flat or labels.count(sink) != len(labels) or not rule.weight.is_one
                    or rule.constrained):
                return f"rule targeting the sink is not a weight-one sink rule: {rule.text}"
            if rule.lhs.label in covered:
                return f"duplicate sink rule for symbol {rule.lhs.label}"
            covered.add(rule.lhs.label)
        missing = [name for name in self.alphabet.names() if name not in covered]
        if missing:
            return f"missing sink rule for symbol {missing[0]}"
        return None

    @cached_property
    def _eq_restriction_violation(self) -> str | None:
        """`eq_restriction_violation`, worked out once per automaton."""
        sink = self.sink
        if sink is None:
            return "no sink state declared"
        reason = self._sink_shape_violation
        if reason is not None:
            return reason
        for rule in self.rules:
            if rule.target == sink:
                continue
            for cls, labels in zip(rule.classes, rule.class_labels):
                real = len(labels) - labels.count(sink)
                if real != 1:
                    kind = "no" if not real else f"{real}"
                    members = ", ".join(format_position(p) for p in cls)
                    return (
                        f"constraint class {{{members}}} of rule '{rule.text}' has "
                        f"{kind} non-sink positions (expected exactly one)"
                    )
        return None

    @cached_property
    def _relaxed_divergence(self) -> int | None:
        """`first_diverging_height` of the relaxation (`_relaxed_rules`),
        or 0 when it cannot be built, since then it proves nothing."""
        relaxed = _relaxed_rules(self)
        return 0 if relaxed is None else first_diverging_height(relaxed, self.finals)

    @cached_property
    def chart_rules(self):
        """(real_rules, index, sink_rules), the one reading of the sink
        discipline.  real_rules lists, in rule-index order, (rule, real,
        class_states) for each rule not to the pure sink: real lists the
        (capture index, state) of each state position not at the pure sink,
        and class_states the first such state of each constraint class (the
        sink if none; its one real state when eq-restricted).  index maps
        each root symbol to its triples, and sink_rules to its pure-sink
        rule, which the run chart keeps implicit.  A rule whose states no
        tree reaches stays in: it adds nothing to a cell."""
        sink = self.pure_sink
        real_rules = []
        index: dict[str, list[tuple[Rule, tuple, tuple]]] = {}
        sink_rules = {}
        for rule in self.rules:
            if rule.target == sink:
                sink_rules[rule.lhs.label] = rule
                continue
            labels = rule.state_labels
            real = tuple((i, q) for i, q in enumerate(labels) if q != sink)
            class_states = labels if not rule.constrained else tuple(
                next((labels[i] for i in idxs if labels[i] != sink), sink)
                for idxs in rule.class_indices)
            real_rules.append((rule, real, class_states))
            index.setdefault(rule.lhs.label, []).append(real_rules[-1])
        return real_rules, index, sink_rules

    @property
    def kind(self) -> str:
        return "WTA" if self.is_wta else "WTG" if self.is_wtg else "WTAh"

    @property
    def real_states(self):
        sink = self.pure_sink
        return tuple(q for q in self.states if q != sink)

    def __repr__(self):
        return (f"<{self.kind} over {self.semiring.id}: {len(self.states)} states, "
                f"{len(self.rules)} rules>")


def eq_restriction_violation(A: Automaton) -> str | None:
    """None if A is eq-restricted, else a human-readable reason: the first
    fault of the sink and its rules, or else the first constraint class,
    in rule order, without exactly one non-sink position."""
    return A._eq_restriction_violation


def match_lhs(rule: Rule, t: Tree):
    """Subtrees captured at the rule's state positions, or None if no match."""
    out = []

    def walk(node, tn):
        if node.label in rule._states:
            out.append(tn)
            return True
        if node.label != tn.label or len(node.children) != len(tn.children):
            return False
        for c, tc in zip(node.children, tn.children):
            if not walk(c, tc):
                return False
        return True

    if not walk(rule.lhs, t):
        return None
    return out


def constraints_ok(rule: Rule, subs) -> bool:
    for idxs in rule.class_indices:
        if len(idxs) < 2:
            continue
        first = subs[idxs[0]]
        for i in idxs[1:]:
            if subs[i] != first:
                return False
    return True


def captures(rule: Rule, t: Tree):
    """The subtrees rule captures at t, one per state position, or None if
    the rule does not apply at t; t has the root symbol of the rule.  A flat
    rule (`Rule.flat`) needs no lhs matching: it captures the children of t,
    and is checked against its constraint only when it has one."""
    subs = t.children if rule.flat else match_lhs(rule, t)
    if subs is None or (rule.constrained and not constraints_ok(rule, subs)):
        return None
    return subs


class Run:
    """A run per the constrained semantics: a rule plus one child run per
    state position (in prefix order), on its subject, the node it was
    expanded at: the tree that is rule.plug of the child runs' subjects, or
    for a run listed by `Evaluator.runs_text` that subterm's parse node.
    Identity is (rule, child runs), compared on an explicit stack.  The
    weight's value is computed at once, and the `Weight` and the hash on
    first use."""

    __slots__ = ("rule", "subruns", "subject", "_value", "_weight", "_hash")

    def __init__(self, rule: Rule, subruns, subject):
        self.rule = rule
        self.subruns = subruns = tuple(subruns)
        sr = rule.weight.semiring
        val = rule.weight.value
        for sub in subruns:
            val = sr.mul(val, sub._value)
        self._value = val
        self.subject = subject
        self._weight = self._hash = None

    @property
    def weight(self) -> Weight:
        if self._weight is None:
            self._weight = Weight(self.rule.weight.semiring, self._value)
        return self._weight

    @property
    def target(self) -> str:
        return self.rule.target

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Run):
            return NotImplemented
        # Equal but distinct runs may be arbitrarily deep.  One rule has one
        # child run per state position, so equal rules pair the child runs up.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a.rule is not b.rule:
                    return False
                stack += zip(a.subruns, b.subruns)
        return True

    def __hash__(self):
        if self._hash is None:
            # Subruns first, on an explicit stack, so a deep run does not recurse.
            stack = [self]
            while stack:
                run = stack[-1]
                pending = [sub for sub in run.subruns if sub._hash is None]
                if pending:
                    stack += pending
                else:
                    stack.pop()
                    run._hash = hash((run.rule.index, run.subruns))
        return self._hash

    def __repr__(self):
        return f"<run on {self.subject.text} to {self.target}, weight {self.weight}>"


def format_run(run: Run, indent: str = "") -> str:
    """One line per rule application in preorder, each child run indented
    two spaces past its parent."""
    lines = []
    stack = [(run, 0)]
    while stack:
        run, depth = stack.pop()
        lines.append(f"{indent}{'  ' * depth}{run.rule.text}")
        depth += 1
        stack.extend((sub, depth) for sub in reversed(run.subruns))
    return "\n".join(lines)


def run_state_map(run: Run) -> dict[Position, str]:
    """Position -> target state map of a WTA-shaped run."""
    out = {}
    stack = [((), run)]
    while stack:
        p, run = stack.pop()
        out[p] = run.rule.target
        stack.extend(reversed([(p + sp, sub)
                               for sp, sub in zip(run.rule.state_positions, run.subruns)]))
    return out


class _ParseNode(dict):
    """A distinct subterm and its cell in one object: as a dict it maps
    each state that the subterm has a run to, the pure sink aside, to the
    semiring sum of those runs' weights; label and children give the
    subterm, whose children are such nodes too.  Equal subterms are one
    node (`term.parse_nodes` shares them within a text, and the chart of
    `Evaluator` across its trees), so a node hashes and compares by
    identity, not as a dict."""

    __slots__ = ("label", "children")
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def text(self) -> str:
        return _tall_text(self)


_NO_RUNS: dict = {}
_height = attrgetter("height")
_first, _second = itemgetter(0), itemgetter(1)


def _itself(node: _ParseNode) -> dict:
    """The cell of a parse node: the node."""
    return node


def _apply(sr: Semiring, cell: dict, rule: Rule, real, cells) -> None:
    """Add one application of rule to cell: the rule weight times, at each
    real state position (i, q) (`Automaton.chart_rules`), the value of q in
    cells[i], the cell of capture i.  Nothing is added when a captured
    subtree has no run to its state."""
    val = rule.weight.value
    for i, q in real:
        v = cells[i].get(q)
        if v is None:
            return
        val = sr.mul(val, v)
    q = rule.target
    cell[q] = sr.add(cell[q], val) if q in cell else val


class Evaluator:
    """The run chart of an automaton, filled for given trees; it persists
    across calls.

    Per tree, the chart maps each state with at least one run to the
    semiring sum of the runs' weights: cells hold values only.  The pure
    sink stays implicit: every tree has one weight-one run to it.  A rule
    may apply at a tree (`captures`) and still add nothing, when a captured
    subtree has no run to the state at its position.

    One rule loop builds a cell (`_node`), and one expansion lists runs
    (`_expand`).  The rule loop builds a `_ParseNode`, a subterm that is its
    own cell, from its label and its children's nodes: `term.parse_nodes`
    calls it for each distinct subterm of a text, children first, so
    `evaluate_text` and `runs_text` make no tree and no chart entry, and
    `_cell` calls it for each distinct subtree of a tree that has no cell
    yet, keyed by the tree in the chart (a `RunsTable` fills its layers up
    to the tree's height instead).  Equal subterms are one node, so a
    constraint compares the nodes it captures by identity.

    Runs are not stored in the cells: the expansion re-derives the rule
    applications of a (node, state) pair, over parse nodes or over trees,
    when it expands that pair, and only when the node's cell holds the
    state, so a tree outside a `RunsTable` has none.  The runs of trees are
    memoized per chart, so trees that share subtrees share their runs.
    """

    def __init__(self, A: Automaton):
        self.automaton = A
        self._sink = A.pure_sink
        _, self._rules, self._sink_rules = A.chart_rules
        self._chart: dict[Tree, dict] = {}
        self._runs: dict[tuple, tuple[Run, ...]] = {}

    @cached_property
    def _node(self):
        """node(label, children): the parse node of a subterm with root
        label over its children's nodes, with its cell: each rule of the
        label applied in rule-index order.  A flat rule without a constraint
        reads the children; any other rule the nodes it captures
        (`captures`), where it applies."""
        sr, by_label = self.automaton.semiring, self._rules

        def node(label, children):
            t = _ParseNode()
            t.label = label
            t.children = children
            for rule, real, _ in by_label.get(label, ()):
                if rule.flat and not rule.constrained:
                    subs = children
                else:
                    subs = captures(rule, t)
                    if subs is None:
                        continue
                _apply(sr, t, rule, real, subs)
            return t

        return node

    def evaluate_text(self, text: str) -> Weight:
        """The series value of the tree of text, from its parse alone."""
        root = parse_nodes(text, self.automaton.alphabet, node=self._node)[-1]
        return Weight(self.automaton.semiring, self._final_sum(root))

    def runs_text(self, text: str, state: str | None = None) -> tuple[str, tuple[Run, ...]]:
        """The text of the tree of text, and its runs to state, or else its
        accepting runs, as `runs` and `accepting_runs` give them, expanded
        from its parse alone."""
        root = parse_nodes(text, self.automaton.alphabet, node=self._node)[-1]
        self._check_state(state)
        return _tall_text(root), self._expand(root, state, _itself, {})

    def _cell(self, t: Tree) -> dict:
        """The cell of t.  A preorder walk collects the distinct subtrees of
        t without a cell, raising on the first node the alphabet does not
        allow; their cells are then built by increasing height, children
        first.  Subtrees are told apart by equality: equal copies that are
        different objects get one cell, so no copy of a tall key is stored
        and compared with it node by node at every level."""
        chart = self._chart
        cell = chart.get(t)
        if cell is not None:
            return cell
        ranks = dict(self.automaton.alphabet.items())
        seen, nodes = set(), []
        stack = [t]
        while stack:
            node = stack.pop()
            if node in seen or node in chart:
                continue
            seen.add(node)
            rank = ranks.get(node.label)
            if rank is None:
                raise AutomatonError(f"undeclared symbol {node.label} in input tree")
            if rank != len(node.children):
                raise AutomatonError(f"symbol {node.label} used at wrong rank in input tree")
            nodes.append(node)
            stack += node.children[::-1]
        nodes.sort(key=_height)
        for node in nodes:
            chart[node] = self._node(node.label, [chart[c] for c in node.children])
        return chart[t]

    def _tree_cell(self, t: Tree) -> dict:
        """The cell of t in the chart, empty when the chart has none."""
        return self._chart.get(t, _NO_RUNS)

    def state_value(self, t: Tree, q: str):
        if q == self._sink:
            return self.automaton.semiring.one
        return self._cell(t).get(q, self.automaton.semiring.zero)

    def evaluate_value(self, t: Tree):
        return self._final_sum(self._cell(t))

    def _final_sum(self, cell: dict):
        """The semiring sum of cell's values at the final states."""
        sr = self.automaton.semiring
        total = sr.zero
        for q in self.automaton.finals:
            total = sr.add(total, cell.get(q, sr.zero))
        return total

    def evaluate(self, t: Tree) -> Weight:
        return Weight(self.automaton.semiring, self.evaluate_value(t))

    def runs(self, t: Tree, q: str) -> tuple[Run, ...]:
        """All runs for t to q, ordered by (rule index, child-run order)."""
        self._cell(t)  # a node outside the alphabet is reported before the state
        self._check_state(q)
        return self._expand(t, q, self._tree_cell, self._runs)

    def accepting_runs(self, t: Tree) -> tuple[Run, ...]:
        """Valid (nonzero-weight) runs for t to a final state."""
        self._cell(t)  # raises on a node outside the alphabet
        return self._expand(t, None, self._tree_cell, self._runs)

    def _check_state(self, q: str | None) -> None:
        if q is not None and q not in self.automaton.states:
            raise AutomatonError(f"undeclared state: {q}")

    def _expand(self, root, state, cell, memo) -> tuple[Run, ...]:
        """The runs of node root to state, or else its accepting runs, on an
        explicit stack.  Each (node, state) pair is expanded once into memo:
        a pair gets its rule applications (`_applications`), and its runs,
        in (rule index, child-run order), once the pairs they capture have
        theirs."""
        finals = self.automaton.finals
        applications = self._applications
        stack = [(root, q, None) for q in (finals if state is None else (state,))]
        while stack:
            t, q, found = stack.pop()
            if found is None:  # first visit
                if (t, q) in memo:
                    continue
                found = applications(t, q, cell)
                pending = [(s, p, None) for rule, subs in found
                           for s, p in zip(subs, rule.state_labels) if (s, p) not in memo]
                if pending:
                    stack.append((t, q, found))
                    stack += pending
                    continue
            memo[t, q] = tuple(
                Run(rule, combo, t) for rule, subs in found
                for combo in product(*[memo[k] for k in zip(subs, rule.state_labels)])
            )
        if state is not None:
            return memo[root, state]
        return tuple(run for q in finals for run in memo[root, q] if not run.weight.is_zero)

    def _applications(self, t, q: str, cell):
        """The (rule, captured subterms) pairs behind the runs of node t to
        q, in rule-index order: the pure sink's one rule; else none unless
        t's cell, cell(t), holds q, else the rules to q that apply at t and
        whose captured subterms all reach their real states."""
        if q == self._sink:
            return ((self._sink_rules[t.label], t.children),)
        if q not in cell(t):
            return ()
        out = []
        for rule, real, _ in self._rules.get(t.label, ()):
            if rule.target != q:
                continue
            subs = captures(rule, t)
            if subs is None:
                continue
            for i, p in real:
                if p not in cell(subs[i]):
                    break
            else:
                out.append((rule, subs))
        return out


class RunsTable(Evaluator):
    """The chart of every tree of height <= bound that has a run to a real
    state, filled by height layers on demand: `layer(h)` fills the layers up
    to h, each once.  Layer h instantiates each rule with trees from the
    layers below h such that the result has height exactly h, and fills each
    new tree once, summing the values of the instances that built it.  A
    rule application strictly increases height, so the layers below h hold
    every tree that a tree of layer h captures.  Reading a tree's cell fills
    the layers up to its height; trees outside the chart have no runs except
    the pure sink's.  The inherited `evaluate_text` and `runs_text` read
    the parse of a text alone, not the table.
    """

    def __init__(self, A: Automaton, height_bound: int):
        if height_bound < 0:
            raise AutomatonError("height bound must be nonnegative")
        super().__init__(A)
        self.height_bound = height_bound
        self._layers: list[list[Tree]] = []  # the trees of each filled height, in fill order
        self._langs = {q: [] for q in A.real_states}  # state -> trees reaching it, by height

    def layer(self, h: int) -> list[Tree]:
        """The trees of height h in the table, in fill order, once the
        layers up to h are filled; none past the bound."""
        if h > self.height_bound:
            return []
        layers, langs = self._layers, self._langs
        sr = self.automaton.semiring
        chart = self._chart
        while len(layers) <= h:
            k = len(layers)
            cells: dict[Tree, dict] = {}
            for rules in self._rules.values():
                for rule, real, _ in rules:
                    instances = self._instances(rule, k, langs)
                    try:
                        for subs in instances:
                            # Sink positions may capture trees outside the chart.
                            _apply(sr, cells.setdefault(rule.plug(subs), {}), rule, real,
                                   [chart.get(sub, _NO_RUNS) for sub in subs])
                    finally:
                        # Closed here even when the fill fails (say, out of
                        # memory), not later by the garbage collector, which
                        # could only report a failing close as unraisable.
                        instances.close()
            for lang in langs.values():
                lang.append([])
            for t, cell in cells.items():
                chart[t] = cell
                for q in cell:
                    langs[q][k].append(t)
            layers.append(list(cells))
        return layers[h]

    @cached_property
    def trees(self) -> list[Tree]:
        """The trees of the table in (height, size, text) order."""
        return [t for h in range(self.height_bound + 1)
                for t in sorted(self.layer(h), key=tree_key)]

    def _instances(self, rule: Rule, h: int, langs):
        """Instantiations of rule of height exactly h, as captured subtrees:
        one tree per constraint class, spread over its state positions, drawn
        from the trees below h that reach all its real states.  Semi-naive:
        the first class that reaches height h picks the split."""
        if rule.lhs.height > h:
            return
        below, at = [], []
        for cls, labels in zip(rule.classes, rule.class_labels):
            k = h - max(len(p) for p in cls)
            pool = self._class_trees(labels, k, langs)
            if not pool:
                return  # e.g. a class state that no tree reaches
            below.append([t for t in pool if t.height < k])
            at.append([t for t in pool if t.height == k])
        upto = [b + a for b, a in zip(below, at)]
        if rule.lhs.height == h:
            splits = [upto]
        else:
            splits = [below[:i] + [at[i]] + upto[i + 1:] for i in range(len(at))]
        for domains in splits:
            for combo in product(*domains):
                yield rule.spread(combo)

    def _class_trees(self, labels, k: int, langs):
        """Trees of height <= k that reach every real state in labels."""
        real = [lbl for lbl in dict.fromkeys(labels) if lbl != self._sink]
        if not real:
            # Class constrains only pure-sink positions: any tree works.
            return enumerate_trees(self.automaton.alphabet, k)
        return [
            t for j in range(k + 1) for t in langs[real[0]][j]
            if all(q in self._chart[t] for q in real[1:])
        ]

    def _cell(self, t: Tree) -> dict:
        cell = self._chart.get(t)
        if cell is None:  # filled layers keep their cells; fill up to t's height
            self.layer(t.height)
            cell = self._chart.get(t, _NO_RUNS)
        return cell

    def support(self):
        """(tree, series value) for each tree of the table with a nonzero
        value, in (height, size, text) order."""
        sr = self.automaton.semiring
        values = map(self.evaluate_value, self.trees)
        return [(t, Weight(sr, v)) for t, v in zip(self.trees, values) if v != sr.zero]


def saturate(rules, fire):
    """The least set of (state, annotation) items closed under rules, by
    bottom-up layers.  rules are (child states, payload) pairs, and
    fire(payload, annotations) lists the items that a rule derives from one
    annotation per child state.  Yields the new items of each layer and ends
    after the first layer that adds none, which saturates the set: no later
    layer could add one.  Semi-naive: each choice of child items fires once,
    at the layer after its newest item's.  (`_tall_cells` and
    `RunsTable.layer` keep their own layers, read the same way, layer by
    layer until the reader stops: they keep the least tree, or all trees, of
    each exact height, not a set of items.)"""
    uses: dict = {}  # state -> (child states, payload, child index) of each rule with it there
    for kids, payload in rules:
        for k, s in enumerate(kids):
            uses.setdefault(s, []).append((kids, payload, k))
    seen = set()
    known: dict = {}  # state -> its annotations, in derivation order
    derived = [item for kids, payload in rules if not kids for item in fire(payload, ())]
    while layer := [item for item in dict.fromkeys(derived) if item not in seen]:
        yield layer
        seen.update(layer)
        derived = []
        for s, a in layer:
            annotations = known.setdefault(s, [])
            annotations.append(a)
            # Items come in one at a time, and a choice fires when its last
            # one does, at the first child index that takes it.
            for kids, payload, k in uses.get(s, ()):
                choices = [(a,) if m == k else annotations[:-1] if m < k and c == s
                           else known.get(c, ()) for m, c in enumerate(kids)]
                for combo in product(*choices):
                    derived.extend(fire(payload, combo))


def first_diverging_height(rules, finals):
    """The least height of two trees with accepting runs of a flat automaton
    that differ in the state at some position, or None when no height has
    two such trees.

    rules are (symbol class, child states, target) triples; the two trees
    have one shape and, position by position, symbols of one class.  (With
    one class per symbol and no repeated triple, two distinct runs on one
    tree always differ in some state.)

    This is the pair ("square") automaton, `saturate`d over items
    (p, (q, diverged)): two such trees reach p and q with two runs that
    differ in some state exactly when one rule derives (p, (q, True)).  Two
    rules of one class pair up over child items; the result diverges when
    its states differ or a child item has diverged.  Weights play no part,
    so over a semiring with zero divisors the runs found may weigh zero.
    """
    rules = dict.fromkeys(rules)  # a repeated triple adds no run that differs
    by_kids: dict = {}  # (class, child states) -> the targets of its rules
    for cls, kids, q in rules:
        by_kids.setdefault((cls, kids), []).append(q)

    def fire(payload, annotations):
        cls, p = payload
        targets = by_kids.get((cls, tuple(map(_first, annotations))))
        if targets is None:
            return ()
        if any(map(_second, annotations)):
            return [(p, (q, True)) for q in targets]
        return [(p, (q, p != q)) for q in targets]

    finals = set(finals)
    layers = saturate([(kids, (cls, p)) for cls, kids, p in rules], fire)
    for height, layer in enumerate(layers):
        for p, (q, diverged) in layer:
            if diverged and p in finals and q in finals:
                return height
    return None


def _relaxed_rules(A: Automaton):
    """The rules of A with every equality constraint dropped, flattened for
    `first_diverging_height`, or None when two rules of A share a left-hand
    side and target (differing only in constraints or weight), since those
    would merge.  Flattening gives each distinct proper subterm of a
    left-hand side one fresh state with one rule, so it keeps run counts:
    each run of A is one run of the result, which may have more."""
    if len({(r.lhs, r.target) for r in A.rules}) < len(A.rules):
        return None
    states = set(A.states)
    out = []
    fresh: dict[Tree, int] = {}  # subterm -> its fresh state (an int)

    def state_of(node: Tree):
        if not node.children and node.label in states:
            return node.label
        hit = fresh.get(node)
        if hit is None:
            kids = tuple(state_of(c) for c in node.children)
            hit = fresh[node] = len(fresh)
            out.append((node.label, kids, hit))
        return hit

    for rule in A.rules:
        out.append((rule.lhs.label, tuple(map(state_of, rule.lhs.children)), rule.target))
    return out


def relaxation_unambiguous(A: Automaton, height_bound: int) -> bool:
    """Whether A with its equality constraints dropped (`_relaxed_rules`)
    has no tree of height <= bound with two accepting runs; then neither has
    A, since dropping constraints only adds runs.  False when the relaxation
    cannot be built.  The fixpoint runs once per automaton
    (`Automaton._relaxed_divergence`), and each bound is compared with it."""
    if height_bound < 0:
        raise AutomatonError("height bound must be nonnegative")
    first = A._relaxed_divergence
    return first is None or first > height_bound


def check_unambiguous(A: Automaton, height_bound: int) -> Verdict:
    """First tree of height <= bound carrying two accepting runs, if any.

    The witness is the first such tree in (height, size, text) order, with
    its accepting (nonzero-weight) runs.  When the relaxation proves A
    unambiguous up to the bound (`relaxation_unambiguous`), the verdict is ok
    without enumerating any tree.  Otherwise the run chart's layers are read
    one height at a time (`RunsTable.layer`), up to the first that holds a
    witness.
    """
    if relaxation_unambiguous(A, height_bound):
        return verified(height_bound)
    table = RunsTable(A, height_bound)
    for h in range(height_bound + 1):
        # A layer holds the trees of one height, so the first witness of the
        # first layer that has one is the first in (height, size, text) order.
        for t in sorted(table.layer(h), key=tree_key):
            acc = table.accepting_runs(t)
            if len(acc) > 1:
                return violated(height_bound, (t, acc), f"{len(acc)} accepting runs for {t.text}")
    return verified(height_bound)
