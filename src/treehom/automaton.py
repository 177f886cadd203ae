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

Weights and runs come from one chart: per tree, each state's summed run
weight and the rule applications that derive its runs, filled bottom-up
from the cells of the captured subtrees and expanded into Run objects only
on request.  `Evaluator` fills it on demand for given trees, matching the
rules at each node.  Bounded operations (support, state languages, and
unambiguity when the pair-automaton fixpoint `first_diverging_height` cannot
prove it) use `RunsTable`, which fills it by height layers instead: layer h
instantiates the rules over the trees of the layers below, since each rule
application adds height, and records the applications it builds, so it never
matches.  Trees without a run to a real state evaluate to zero and carry no
accepting runs, so nothing is missed.
"""

from __future__ import annotations

from itertools import product

from .semiring import Semiring, Weight
from .term import (
    NAME_RE,
    Position,
    RankedAlphabet,
    Tree,
    enumerate_trees,
    format_position,
    replace_at,
    tree_key,
)
from .verdict import Verdict, verified, violated


class AutomatonError(ValueError):
    pass


class Rule:
    __slots__ = (
        "lhs",
        "target",
        "weight",
        "classes",
        "state_positions",
        "state_labels",
        "class_labels",
        "class_indices",
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
        pos_index = {p: i for i, p in enumerate(state_positions)}
        self.class_indices = tuple(tuple(pos_index[p] for p in cls) for cls in classes)
        self.class_labels = tuple(
            tuple(state_labels[i] for i in idxs) for idxs in self.class_indices
        )
        self.index = -1
        self._text = None

    @property
    def key(self):
        return (self.lhs, self.classes, self.target)

    def plug(self, subs) -> Tree:
        """The lhs with subs[i] at its i-th state position.  It path-copies,
        so the ground parts of the lhs stay shared."""
        t = self.lhs
        for p, sub in zip(self.state_positions, subs):
            t = replace_at(t, p, sub)
        return t

    @property
    def pairs(self):
        """The constraint as (class head, other member) position pairs."""
        return tuple((cls[0], p) for cls in self.classes for p in cls[1:])

    def constraint_text(self) -> str:
        return ", ".join(f"{format_position(a)} = {format_position(b)}" for a, b in self.pairs)

    @property
    def text(self) -> str:
        if self._text is None:
            s = f"{self.lhs.text} -> {self.target} @ {self.weight}"
            constraint = self.constraint_text()
            if constraint:
                s += f" | {constraint}"
            self._text = s
        return self._text

    def __repr__(self):
        return f"Rule({self.text!r})"


def _scan_lhs(lhs: Tree, alphabet: RankedAlphabet, states: frozenset):
    """Validate an lhs and collect state positions in prefix order."""
    state_positions = []
    state_labels = []

    def walk(node, prefix):
        if node.label in states:
            if node.children:
                raise AutomatonError(f"state {node.label} used with arguments in {lhs.text}")
            state_positions.append(prefix)
            state_labels.append(node.label)
            return
        if node.label not in alphabet:
            raise AutomatonError(f"undeclared symbol {node.label} in {lhs.text}")
        if alphabet.rank(node.label) != len(node.children):
            raise AutomatonError(
                f"symbol {node.label} has rank {alphabet.rank(node.label)}, "
                f"used with {len(node.children)} arguments in {lhs.text}"
            )
        for i, c in enumerate(node.children, start=1):
            walk(c, prefix + (i,))

    if lhs.label in states and not lhs.children:
        raise AutomatonError(f"left-hand side must not be a bare state: {lhs.text}")
    walk(lhs, ())
    return tuple(state_positions), tuple(state_labels)


def _close_partition(state_positions, pairs):
    """Union-find closure of constraint pairs into a canonical full partition."""
    parent = {p: p for p in state_positions}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    pos_set = set(state_positions)
    for a, b in pairs:
        for p in (a, b):
            if p not in pos_set:
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
    states = frozenset(states)
    if target not in states:
        raise AutomatonError(f"undeclared target state: {target}")
    if not isinstance(weight, Weight):
        raise AutomatonError(f"rule weight must be a Weight, got {weight!r}")
    if weight.semiring != semiring:
        raise AutomatonError(
            f"rule weight lives in {weight.semiring.id}, automaton in {semiring.id}"
        )
    if weight.is_zero:
        raise AutomatonError(f"zero-weight rule: {lhs.text} -> {target}")
    state_positions, state_labels = _scan_lhs(lhs, alphabet, states)
    classes = _close_partition(state_positions, pairs)
    return Rule(lhs, target, weight, classes, state_positions, state_labels, states)


class Automaton:
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
        for r in rules:
            if isinstance(r, Rule):
                # Rebuild rather than share: the automaton owns its rules
                # (it assigns their indices).
                lhs, target, weight, pairs = r.lhs, r.target, r.weight, r.pairs
            else:
                lhs, target, weight, *rest = r
                pairs = rest[0] if rest else ()
            prepared.append(make_rule(alphabet, state_set, semiring, lhs, target, weight, pairs))
        seen_keys = set()
        for rule in prepared:
            if rule.key in seen_keys:
                raise AutomatonError(f"duplicate rule: {rule.text}")
            seen_keys.add(rule.key)
        self.rules = tuple(prepared)
        for i, rule in enumerate(self.rules):
            rule.index = i
        self._pure_sink_cache = -1  # not computed yet
        self._chart_rules = None

    @property
    def is_wtg(self) -> bool:
        return all(len(cls) == 1 for rule in self.rules for cls in rule.classes)

    @property
    def is_wta(self) -> bool:
        if not self.is_wtg:
            return False
        for rule in self.rules:
            if rule.state_positions != tuple((i,) for i in range(1, len(rule.lhs.children) + 1)):
                return False
        return True

    @property
    def pure_sink(self) -> str | None:
        """The sink name if it has exactly the weight-one sink rules, else None."""
        if self._pure_sink_cache == -1:
            self._pure_sink_cache = None
            if self.sink is not None and _sink_shape_violation(self) is None:
                self._pure_sink_cache = self.sink
        return self._pure_sink_cache

    @property
    def chart_rules(self):
        """(index, reached, sink_rules), computed once for the run chart.
        index maps each root symbol to the rules that can apply, in rule-index
        order: those whose state labels all have runs on some tree, leaving out
        the rules to a pure sink, which the chart keeps implicit.  reached is
        the set of states with a run on some tree; sink_rules maps each symbol
        to its pure-sink rule."""
        if self._chart_rules is None:
            self._chart_rules = _productive_rules(self)
        return self._chart_rules

    @property
    def real_states(self):
        sink = self.pure_sink
        return tuple(q for q in self.states if q != sink)

    def __repr__(self):
        kind = "WTA" if self.is_wta else "WTG" if self.is_wtg else "WTAh"
        return (f"<{kind} over {self.semiring.id}: {len(self.states)} states, "
                f"{len(self.rules)} rules>")


def _productive_rules(A: Automaton):
    sink = A.pure_sink
    rules = [rule for rule in A.rules if rule.target != sink]
    need = [{lbl for lbl in rule.state_labels if lbl != sink} for rule in rules]
    waiting: dict[str, list[int]] = {}
    for i, labels in enumerate(need):
        for lbl in labels:
            waiting.setdefault(lbl, []).append(i)
    # Worklist over states some tree reaches; a rule fires once it needs none.
    agenda = [rule.target for rule, labels in zip(rules, need) if not labels]
    reached = set()
    while agenda:
        q = agenda.pop()
        if q not in reached:
            reached.add(q)
            for i in waiting.get(q, ()):
                need[i].discard(q)
                if not need[i]:
                    agenda.append(rules[i].target)
    index: dict[str, list[Rule]] = {}
    for rule, labels in zip(rules, need):
        if not labels:
            index.setdefault(rule.lhs.label, []).append(rule)
    return index, reached, {r.lhs.label: r for r in A.rules if r.target == sink}


def _sink_shape_violation(A: Automaton) -> str | None:
    sink = A.sink
    covered = set()
    for rule in A.rules:
        if rule.target != sink:
            continue
        lhs = rule.lhs
        flat = all(not c.children and c.label == sink for c in lhs.children)
        if not flat or not rule.weight.is_one or any(len(c) > 1 for c in rule.classes):
            return f"rule targeting the sink is not a weight-one sink rule: {rule.text}"
        if lhs.label in covered:
            return f"duplicate sink rule for symbol {lhs.label}"
        covered.add(lhs.label)
    missing = [name for name in A.alphabet.names() if name not in covered]
    if missing:
        return f"missing sink rule for symbol {missing[0]}"
    return None


def eq_restriction_violation(A: Automaton) -> str | None:
    """None if A is eq-restricted, else a human-readable reason."""
    if A.sink is None:
        return "no sink state declared"
    reason = _sink_shape_violation(A)
    if reason is not None:
        return reason
    sink = A.sink
    for rule in A.rules:
        if rule.target == sink:
            continue
        for cls, labels in zip(rule.classes, rule.class_labels):
            real = [lbl for lbl in labels if lbl != sink]
            if len(real) != 1:
                kind = "no" if not real else f"{len(real)}"
                members = ", ".join(format_position(p) for p in cls)
                return (
                    f"constraint class {{{members}}} of rule '{rule.text}' has "
                    f"{kind} non-sink positions (expected exactly one)"
                )
    return None


def is_eq_restricted(A: Automaton) -> bool:
    return eq_restriction_violation(A) is None


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


class Run:
    """A run per the constrained semantics: a rule plus one child run per
    state position (in prefix order), on the tree subject, which is
    rule.plug of the child runs' subjects.  Identity is (rule, child runs)."""

    __slots__ = ("rule", "subruns", "weight", "subject", "_hash")

    def __init__(self, rule: Rule, subruns, subject: Tree):
        self.rule = rule
        self.subruns = tuple(subruns)
        sr = rule.weight.semiring
        val = rule.weight.value
        for sub in self.subruns:
            val = sr.mul(val, sub.weight.value)
        self.weight = Weight(sr, val)
        self.subject = subject
        self._hash = hash((rule.index, self.subruns))

    @property
    def target(self) -> str:
        return self.rule.target

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Run):
            return NotImplemented
        return self.rule is other.rule and self.subruns == other.subruns

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<run on {self.subject.text} to {self.target}, weight {self.weight}>"


def format_run(run: Run, indent: str = "") -> str:
    lines = [f"{indent}{run.rule.text}"]
    for sub in run.subruns:
        lines.append(format_run(sub, indent + "  "))
    return "\n".join(lines)


def run_state_map(run: Run) -> dict[Position, str]:
    """Position -> target state map of a WTA-shaped run."""
    out = {(): run.rule.target}
    for p, sub in zip(run.rule.state_positions, run.subruns):
        for sp, q in run_state_map(sub).items():
            out[p + sp] = q
    return out


def check_run(A: Automaton, run: Run, expect_tree: Tree | None = None,
              expect_state: str | None = None):
    """Self-consistency of a run; raises AutomatonError on any violation."""
    if run.rule.index < 0 or run.rule.index >= len(A.rules) or \
            A.rules[run.rule.index] is not run.rule:
        raise AutomatonError("run uses a rule not belonging to this automaton")
    rule = run.rule
    if len(run.subruns) != len(rule.state_positions):
        raise AutomatonError("run arity does not match the rule's state positions")
    for lbl, sub in zip(rule.state_labels, run.subruns):
        if sub.target != lbl:
            raise AutomatonError(
                f"child run targets {sub.target}, rule expects {lbl}"
            )
        check_run(A, sub)
    subs = [sub.subject for sub in run.subruns]
    if not constraints_ok(rule, subs):
        raise AutomatonError(f"constraint violated by run on {run.subject.text}")
    sr = A.semiring
    val = rule.weight.value
    for sub in run.subruns:
        val = sr.mul(val, sub.weight.value)
    if val != run.weight.value:
        raise AutomatonError("run weight does not equal rule weight times child weights")
    if expect_tree is not None and run.subject != expect_tree:
        raise AutomatonError(f"run subject {run.subject.text} != {expect_tree.text}")
    if expect_state is not None and run.target != expect_state:
        raise AutomatonError(f"run target {run.target} != {expect_state}")


def _check_ground(A: Automaton, t: Tree):
    ranks = dict(A.alphabet.items())
    stack = [t]
    while stack:
        node = stack.pop()
        rank = ranks.get(node.label)
        if rank is None:
            raise AutomatonError(f"undeclared symbol {node.label} in input tree")
        if rank != len(node.children):
            raise AutomatonError(f"symbol {node.label} used at wrong rank in input tree")
        stack += node.children[::-1]


_NO_RUNS: dict = {}


class Evaluator:
    """The run chart of an automaton, filled on demand; it persists across calls.

    Per tree, the chart maps each state with at least one run to
    [value, applications]: the semiring sum of the runs' weights and the
    (rule, captured subtrees) pairs that derive them, in rule-index order.
    Runs exist only as these applications until `runs` expands them.  The
    pure sink stays implicit: every tree has one weight-one run to it.
    """

    def __init__(self, A: Automaton):
        self.automaton = A
        self._sink = A.pure_sink
        self._rules, self._reached, self._sink_rules = A.chart_rules
        self._chart: dict[Tree, dict] = {}
        self._runs: dict[tuple, tuple[Run, ...]] = {}

    def _matches(self, t: Tree):
        """The (rule, captured subtrees) pairs of the rules that apply at t."""
        out = []
        for rule in self._rules.get(t.label, ()):
            subs = match_lhs(rule, t)
            if subs is not None and constraints_ok(rule, subs):
                out.append((rule, subs))
        return out

    def _fill(self, t: Tree, apps) -> dict:
        """Fill the cell of t from its applications and their subtrees' cells."""
        sr = self.automaton.semiring
        chart, sink = self._chart, self._sink
        cell: dict = {}
        for rule, subs in apps:
            val = rule.weight.value
            for sub, lbl in zip(subs, rule.state_labels):
                if lbl == sink:
                    continue
                entry = chart.get(sub, _NO_RUNS).get(lbl)
                if entry is None:
                    break
                val = sr.mul(val, entry[0])
            else:
                entry = cell.get(rule.target)
                if entry is None:
                    cell[rule.target] = [val, [(rule, subs)]]
                else:
                    entry[0] = sr.add(entry[0], val)
                    entry[1].append((rule, subs))
        chart[t] = cell
        return cell

    def _cell(self, t: Tree) -> dict:
        """The cell of t, filling first, in postorder, the cells of the
        subtrees that the rules applying at t capture."""
        chart, sink = self._chart, self._sink
        stack = [] if t in chart else [(t, None)]
        while stack:
            node, matches = stack[-1]
            if node in chart:
                stack.pop()
                continue
            if matches is None:
                matches = self._matches(node)
                stack[-1] = (node, matches)
                pending = [
                    (sub, None) for rule, subs in matches
                    for sub, lbl in zip(subs, rule.state_labels)
                    if lbl != sink and sub not in chart
                ]
                if pending:
                    stack.extend(pending)
                    continue
            stack.pop()
            self._fill(node, matches)
        return chart[t]

    def _entry(self, t: Tree, q: str):
        """[value, applications] of the runs for t to q, or None if none exist."""
        if q == self._sink:
            return (self.automaton.semiring.one, ((self._sink_rules[t.label], t.children),))
        return self._cell(t).get(q) if q in self._reached else None

    def state_value(self, t: Tree, q: str):
        entry = self._entry(t, q)
        return self.automaton.semiring.zero if entry is None else entry[0]

    def evaluate_value(self, t: Tree):
        sr = self.automaton.semiring
        total = sr.zero
        for q in self.automaton.finals:
            total = sr.add(total, self.state_value(t, q))
        return total

    def evaluate(self, t: Tree) -> Weight:
        _check_ground(self.automaton, t)
        return Weight(self.automaton.semiring, self.evaluate_value(t))

    def runs(self, t: Tree, q: str) -> tuple[Run, ...]:
        """All runs for t to q, ordered by (rule index, child-run order)."""
        memo = self._runs
        stack = [(t, q)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            entry = self._entry(*key)
            apps = () if entry is None else entry[1]
            pending = [
                k for rule, subs in apps
                for k in zip(subs, rule.state_labels) if k not in memo
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            memo[key] = tuple(
                Run(rule, combo, key[0])
                for rule, subs in apps
                for combo in product(*(memo[k] for k in zip(subs, rule.state_labels)))
            )
        return memo[(t, q)]

    def accepting_runs(self, t: Tree) -> tuple[Run, ...]:
        """Valid (nonzero-weight) runs for t to a final state."""
        return tuple(
            run for q in self.automaton.finals for run in self.runs(t, q)
            if not run.weight.is_zero
        )


def evaluate(A: Automaton, t: Tree) -> Weight:
    """The recognized series at t: sum over all runs to final states."""
    return Evaluator(A).evaluate(t)


def state_weight(A: Automaton, t: Tree, q: str) -> Weight:
    """wt_q(t): sum of the weights of all runs for t to state q."""
    _check_ground(A, t)
    if q not in A.states:
        raise AutomatonError(f"undeclared state: {q}")
    return Weight(A.semiring, Evaluator(A).state_value(t, q))


def runs_to_state(A: Automaton, t: Tree, q: str) -> tuple[Run, ...]:
    """All runs for t to q, ordered by (rule index, child-run order)."""
    _check_ground(A, t)
    if q not in A.states:
        raise AutomatonError(f"undeclared state: {q}")
    return Evaluator(A).runs(t, q)


def accepting_runs(A: Automaton, t: Tree) -> tuple[Run, ...]:
    """Valid (nonzero-weight) runs for t to a final state."""
    _check_ground(A, t)
    return Evaluator(A).accepting_runs(t)


class RunsTable(Evaluator):
    """The chart of every tree of height <= bound that has a run to a real
    state, filled by height layers: layer h instantiates each rule with trees
    from the layers below h such that the result has height exactly h, and
    fills each new tree once from the applications that built it.  A rule
    application strictly increases height, so the layers below h hold every
    tree that a tree of layer h captures.  Trees outside the chart have no
    runs except the pure sink's.
    """

    def __init__(self, A: Automaton, height_bound: int):
        if height_bound < 0:
            raise AutomatonError("height bound must be nonnegative")
        super().__init__(A)
        # state -> trees reaching it, by height
        langs = {q: [] for q in A.real_states}
        for h in range(height_bound + 1):
            for lang in langs.values():
                lang.append([])
            for rules in self._rules.values():
                # Rules in index order: a cell lists applications as matching would.
                by_tree: dict[Tree, list] = {}
                for rule in rules:
                    for subs in self._instances(rule, h, langs):
                        by_tree.setdefault(rule.plug(subs), []).append((rule, subs))
                for t, apps in by_tree.items():
                    for q in self._fill(t, apps):
                        langs[q][h].append(t)
        self.trees = sorted(self._chart, key=tree_key)

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
            below.append([t for t in pool if t.height < k])
            at.append([t for t in pool if t.height == k])
        upto = [b + a for b, a in zip(below, at)]
        if rule.lhs.height == h:
            splits = [upto]
        else:
            splits = [below[:i] + [at[i]] + upto[i + 1:] for i in range(len(at))]
        for domains in splits:
            for combo in product(*domains):
                subs = [None] * len(rule.state_positions)
                for idxs, tc in zip(rule.class_indices, combo):
                    for i in idxs:
                        subs[i] = tc
                yield subs

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
        return self._chart.get(t, _NO_RUNS)

    def support(self):
        """(tree, series value) for each tree of the table with a nonzero value."""
        sr = self.automaton.semiring
        values = map(self.evaluate_value, self.trees)
        return [(t, Weight(sr, v)) for t, v in zip(self.trees, values) if v != sr.zero]

    def state_trees(self, q: str):
        """(tree, wt_q(tree)) for each tree of the table where it is nonzero."""
        sr = self.automaton.semiring
        values = (self.state_value(t, q) for t in self.trees)
        return [(t, Weight(sr, v)) for t, v in zip(self.trees, values) if v != sr.zero]


def support_up_to(A: Automaton, height_bound: int):
    """All (tree, weight) with nonzero series value and height <= bound, in
    (height, size, text) order."""
    return RunsTable(A, height_bound).support()


def state_language_up_to(A: Automaton, q: str, height_bound: int):
    """All (tree, wt_q(tree)) with nonzero value and height <= bound."""
    if q not in A.states:
        raise AutomatonError(f"undeclared state: {q}")
    if q == A.pure_sink:
        one = A.semiring.one_weight
        return [(t, one) for t in enumerate_trees(A.alphabet, height_bound)]
    return RunsTable(A, height_bound).state_trees(q)


def first_diverging_height(rules, finals, height_bound: int):
    """The least height <= height_bound of two trees with accepting runs of a
    flat automaton that differ in the state at some position, or None.

    rules are (symbol class, child states, target) triples; the two trees
    have one shape and, position by position, symbols of one class.  (With
    one class per symbol and no repeated triple, two distinct runs on one
    tree always differ in some state.)

    This is the pair ("square") automaton fixpoint over triples
    (p, q, diverged).  Layer h maps each pair of states (p, q) that two such
    trees of height <= h reach to whether two of their runs to p and q
    differ in the state at some position.  It pairs two rules of one class
    over the child pairs of layer h - 1: the result diverges when its states
    differ or a child pair diverges.  Weights play no part, so over a
    semiring with zero divisors the runs found may weigh zero.
    """
    if height_bound < 0:
        raise AutomatonError("height bound must be nonnegative")
    by_kids: dict = {}  # (class, child states) -> indices of its rules
    uses: dict = {}  # state -> (class, child index) -> indices of rules with it there
    for i, (cls, kids, _) in enumerate(rules):
        by_kids.setdefault((cls, kids), []).append(i)
        for k, p in enumerate(kids):
            uses.setdefault(p, {}).setdefault((cls, k), []).append(i)
    finals = set(finals)
    reached: dict[tuple[str, str], bool] = {}  # (p, q) -> diverged
    partners: dict = {}  # p -> the q with (p, q) reached
    pairs = [(i, j) for (_, kids), ids in by_kids.items() if not kids
             for i in ids for j in ids]
    for height in range(height_bound + 1):
        new: dict[tuple[str, str], bool] = {}
        for i, j in pairs:
            (_, kids_i, p), (_, kids_j, q) = rules[i], rules[j]
            diverged = p != q or any(reached[pq] for pq in zip(kids_i, kids_j))
            new[p, q] = new.get((p, q), False) or diverged
        grown = []
        for (p, q), diverged in new.items():
            if (p, q) not in reached:
                partners.setdefault(p, []).append(q)
            elif reached[p, q] or not diverged:
                continue
            reached[p, q] = diverged
            grown.append((p, q))
            if diverged and p in finals and q in finals:
                return height
        # Semi-naive: the next layer pairs only rules that have a grown pair
        # at some child index and reached pairs at the others.
        pairs = set()
        for p, q in grown:
            for (cls, k), ids in uses.get(p, {}).items():
                for i in ids:
                    choices = [(q,) if m == k else partners.get(kid, ())
                               for m, kid in enumerate(rules[i][1])]
                    for kids in product(*choices):
                        pairs.update((i, j) for j in by_kids.get((cls, kids), ()))
        if not pairs:
            return None
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


def check_unambiguous(A: Automaton, height_bound: int) -> Verdict:
    """First tree of height <= bound carrying two accepting runs, if any.

    The witness is the first such tree in (height, size, text) order, with
    its accepting (nonzero-weight) runs.  Dropping the equality constraints of
    A only adds runs, so when the flattened relaxation (`_relaxed_rules`) has
    no two accepting runs on one tree of height <= bound
    (`first_diverging_height`), the verdict is ok without enumerating any
    tree.  Otherwise every tree of height <= bound with a run is examined.
    """
    relaxed = _relaxed_rules(A)
    if relaxed is not None and first_diverging_height(relaxed, A.finals, height_bound) is None:
        return verified(height_bound)
    table = RunsTable(A, height_bound)
    for t in table.trees:
        acc = table.accepting_runs(t)
        if len(acc) > 1:
            return violated(height_bound, (t, acc), f"{len(acc)} accepting runs for {t.text}")
    return verified(height_bound)
