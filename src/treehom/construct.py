"""Automaton constructions: homomorphic images, zero-divisor elimination,
boolean projection and linearization.

All constructions are deterministic: fresh-state naming, rule merging, and
emission orders depend only on the input automaton's canonical data.
Wherever two produced rules collide on (lhs, constraint, target), their
weights are summed; a merged weight equal to the semiring zero drops the
rule (a zero-weight rule only ever contributes zero-weight runs).
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import add

from .automaton import (
    Automaton,
    AutomatonError,
    RunsTable,
    eq_restriction_violation,
    saturate,
)
from .hom import TreeHomomorphism
from .semiring import Weight, get_semiring, power_index_period
from .term import (
    RankedAlphabet,
    Tree,
    is_variable,
    preorder,
    replace_at,
)


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _merge_rules(semiring, rule_specs):
    """Sum weights of rules colliding on (lhs, pairs, target); drop zero sums.

    rule_specs: iterable of (lhs, target, weight_value, pairs).  Returns specs
    with Weight objects, in first-appearance order.
    """
    acc: dict = {}
    for lhs, target, value, pairs in rule_specs:
        key = (lhs, tuple(pairs), target)
        if key in acc:
            acc[key] = semiring.add(acc[key], value)
        else:
            acc[key] = value
    out = []
    for (lhs, pairs, target), value in acc.items():
        if value == semiring.zero:
            continue
        out.append((lhs, target, Weight(semiring, value), pairs))
    return out


def _variable_occurrences(image: Tree, rank: int):
    """Occurrence positions of x1..xk in an image tree, in prefix order."""
    occ = {i: [] for i in range(1, rank + 1)}
    for p, node in preorder(image):
        if is_variable(node.label):
            occ[int(node.label[1:])].append(p)
    return {i: tuple(ps) for i, ps in occ.items()}


def _image_rule_specs(A: Automaton, h: TreeHomomorphism, sink: str):
    """Image rule data for the non-sink rules: (lhs, target, weight value, pairs)."""
    specs = []
    for rule in A.rules:
        lhs = h.image_of(rule.lhs.label)
        occ = _variable_occurrences(lhs, len(rule.state_labels))
        pairs = []
        for i, q in enumerate(rule.state_labels, start=1):
            ps = occ[i]
            lhs = replace_at(lhs, ps[0], Tree(q))
            for p in ps[1:]:
                lhs = replace_at(lhs, p, Tree(sink))
                pairs.append((ps[0], p))
        specs.append((lhs, rule.target, rule.weight.value, tuple(pairs)))
    return specs


def _sink_rule_specs(alphabet: RankedAlphabet, semiring, sink: str):
    one = semiring.one_weight
    return [
        (Tree(name, [Tree(sink)] * rank), sink, one, ())
        for name, rank in sorted(alphabet.items())
    ]


def hom_image(A: Automaton, h: TreeHomomorphism) -> Automaton:
    """Eq-restricted WTAh recognizing the image of A's series under h.

    Each WTA rule sigma(q1..qk) -> q maps to h(sigma) with the lex-least
    occurrence of each xi relabeled qi, every other occurrence relabeled the
    sink, and all occurrences of one variable tied into one constraint class.
    Colliding image rules merge by summing weights.
    """
    if not A.is_wta:
        raise AutomatonError("homomorphic image is defined on WTA input only")
    if A.alphabet != h.source:
        raise AutomatonError("automaton alphabet differs from the homomorphism source")
    sink = _fresh_name("bot", set(A.states) | set(h.target.names()))
    rules = _merge_rules(A.semiring, _image_rule_specs(A, h, sink))
    rules.extend(_sink_rule_specs(h.target, A.semiring, sink))
    states = list(A.states) + [sink]
    return Automaton(A.semiring, h.target, states, A.finals, rules, sink=sink)


def _non_one_weights(A: Automaton):
    sink = A.sink
    out = []
    for rule in A.rules:
        if rule.target == sink:
            continue
        v = rule.weight.value
        if v != A.semiring.one and v not in out:
            out.append(v)
    out.sort(key=A.semiring.format_value)
    return out


def dickson_cap(A: Automaton) -> int:
    """The exponent cap u = max(index + period) over the distinct non-one
    rule weights of a finite-semiring automaton (0 when there are none)."""
    weights = _non_one_weights(A)
    if not weights:
        return 0
    return max(sum(power_index_period(Weight(A.semiring, s))) for s in weights)


def eliminate_zero_divisors(A: Automaton) -> Automaton:
    """Annotate states with capped multiplicity vectors of the non-one rule
    weights so that every surviving run has nonzero weight.

    Over a zero-divisor-free semiring the input is returned unchanged.  Over
    a finite semiring the cap is u = max(index + period) of the weights'
    power sequences: beyond u, one more period never changes the product, so
    any vector witnessing a zero product reduces into {0..u}^n.

    Only annotated states that some tree reaches are built: `saturate`
    derives the item (q, v) when a rule to q sums the capped vector v from
    derived child vectors and v has a nonzero product.  The result is the
    product construction over all of {0..u}^n (`full_zero_divisor_elimination`
    in tests/oracles.py) restricted to its bottom-up-reachable states, with
    states, finals and rules in the same order.
    """
    reason = eq_restriction_violation(A)
    if reason is not None:
        raise AutomatonError(f"input is not eq-restricted: {reason}")
    sr = A.semiring
    if sr.zero_divisor_free:
        return A
    if not sr.finite:
        raise AutomatonError(
            f"zero-divisor elimination needs a zero-divisor-free or finite "
            f"semiring, got {sr.id}"
        )
    sink = A.sink
    weights = _non_one_weights(A)
    n = len(weights)
    if n == 0:
        return A

    u = dickson_cap(A)
    unit = {s: tuple(1 if j == i else 0 for j in range(n)) for i, s in enumerate(weights)}
    zero_vec = (0,) * n
    viable_memo: dict = {}

    def viable(vec):
        hit = viable_memo.get(vec)
        if hit is None:
            val = sr.one
            for s, e in zip(weights, vec):
                for _ in range(e):
                    val = sr.mul(val, s)
            hit = viable_memo[vec] = val != sr.zero
        return hit

    def name(q, vec):
        return f"{q}_v{'_'.join(str(x) for x in vec)}"

    caps = (u,) * n
    real_rules = A.chart_rules[0]
    # rule index -> (its real positions, child vectors -> target vector)
    applied = {rule.index: (real, {}) for rule, real, _ in real_rules}

    def fire(rule, assignment):
        vec = unit.get(rule.weight.value, zero_vec)
        for v in assignment:
            vec = tuple(map(min, map(add, vec, v), caps))
        if not viable(vec):
            return ()
        applied[rule.index][1][assignment] = vec
        return ((rule.target, vec),)

    derived: dict[str, list] = {}
    kids = [(tuple(q for _, q in real), rule) for rule, real, _ in real_rules]
    for layer in saturate(kids, fire):
        for q, vec in layer:
            derived.setdefault(q, []).append(vec)

    # {0..u}^n is enumerated in lexicographic order, so sorting vectors and
    # assignments restores the emission order of the full construction.
    out_rules = []
    for rule in A.rules:
        if rule.target == sink:
            out_rules.append((rule.lhs, rule.target, rule.weight, rule.pairs))
            continue
        real, apps = applied[rule.index]
        for assignment, vec in sorted(apps.items()):
            subs = [Tree(lbl) for lbl in rule.state_labels]
            for (i, lbl), v in zip(real, assignment):
                subs[i] = Tree(name(lbl, v))
            lhs = rule.plug(subs)
            out_rules.append((lhs, name(rule.target, vec), rule.weight, rule.pairs))

    states = [name(q, vec) for q in A.states if q != sink
              for vec in sorted(derived.get(q, ()))]
    states.append(sink)
    finals = [name(q, vec) for q in A.finals for vec in sorted(derived.get(q, ()))]
    return Automaton(sr, A.alphabet, states, finals, out_rules, sink=sink)


def project_boolean(A: Automaton) -> Automaton:
    """Boolean support projection.

    Eq-restricted input: drop the sink and its rules, relabel each sink
    position with the unique real state of its constraint class, keep the
    constraints, set all weights to the boolean one.  Constraint-free input
    (WTG/WTA): keep the rules, drop the weights.
    """
    boolean = get_semiring("boolean")
    one = boolean.one_weight
    if eq_restriction_violation(A) is None:
        sink = A.sink
        specs = []
        for rule, _, class_states in A.chart_rules[0]:
            reals = [Tree(q) for q in class_states]
            specs.append((rule.plug(rule.spread(reals)), rule.target, 1, rule.pairs))
        merged = _merge_rules(boolean, specs)
        states = [q for q in A.states if q != sink]
        return Automaton(boolean, A.alphabet, states, A.finals, merged, sink=None)
    if A.is_wtg:
        specs = [(r.lhs, r.target, 1, r.pairs) for r in A.rules]
        merged = _merge_rules(boolean, specs)
        return Automaton(boolean, A.alphabet, A.states, A.finals, merged, sink=A.sink)
    raise AutomatonError(
        "boolean projection needs an eq-restricted or constraint-free automaton"
    )


def linearize(A: Automaton, lin_height: int) -> Automaton:
    """Constraint-free WTG agreeing with A on all trees whose constrained
    subtrees have height <= lin_height.

    Every non-singleton constraint class is instantiated by one concrete
    tree of a `RunsTable` up to lin_height, in the table's (height, size,
    text) order, that has a nonzero value at each real state of the class;
    the produced rule's weight multiplies in that value once per real
    position (sink positions contribute the one).  Unconstrained state
    positions stay symbolic.  The sink and its rules are dropped.  The
    table's layers are filled only when a constrained class reads them.
    """
    if lin_height < 0:
        raise AutomatonError("linearization height must be nonnegative")
    reason = eq_restriction_violation(A)
    if reason is not None and A.sink is not None:
        raise AutomatonError(f"input is not eq-restricted: {reason}")
    sink = A.sink
    sr = A.semiring
    rules = [rule for rule in A.rules if rule.target != sink]
    table = RunsTable(A, lin_height)
    specs = []
    for rule in rules:
        if not rule.constrained:
            specs.append((rule.lhs, rule.target, rule.weight.value, ()))
            continue
        domains = []  # per class, (tree, value) pairs
        for labels in rule.class_labels:
            if len(labels) == 1:
                domains.append([(Tree(labels[0]), sr.one)])
                continue
            # Filtered per state, not on the product, which may be a zero divisor.
            values = ([table.state_value(t, q) for q in labels if q != sink] for t in table.trees)
            domains.append([(t, reduce(sr.mul, vs))
                            for t, vs in zip(table.trees, values) if sr.zero not in vs])
        # Constrained classes are fully instantiated, so produced rules
        # carry no constraint pairs at all.
        for combo in product(*domains):
            value = rule.weight.value
            for _, v in combo:
                value = sr.mul(value, v)
            specs.append((rule.plug(rule.spread([t for t, _ in combo])), rule.target, value, ()))

    merged = _merge_rules(sr, specs)
    states = [q for q in A.states if q != sink]
    return Automaton(sr, A.alphabet, states, A.finals, merged, sink=None)
