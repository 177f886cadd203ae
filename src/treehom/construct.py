"""Automaton constructions: WTG-to-WTA normalization, homomorphic images,
zero-divisor elimination, boolean projection, and linearization.

All constructions are deterministic: fresh-state naming, rule merging, and
emission orders depend only on the input automaton's canonical data.
Wherever two produced rules collide on (lhs, constraint, target), their
weights are summed; a merged weight equal to the semiring zero drops the
rule (a zero-weight rule only ever contributes zero-weight runs).
"""

from __future__ import annotations

from itertools import product

from .automaton import (
    Automaton,
    AutomatonError,
    Evaluator,
    Rule,
    Run,
    RunsTable,
    eq_restriction_violation,
)
from .hom import TreeHomomorphism
from .semiring import Weight, get_semiring, power_index_period
from .term import (
    RankedAlphabet,
    Tree,
    format_position,
    positions,
    replace_at,
    subtree_at,
    is_variable,
)


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def wtg_to_wta(G: Automaton) -> Automaton:
    """Flatten deep left-hand sides of a WTG by introducing fresh weight-one
    intermediate states, one per proper symbol position of each deep rule.

    Returns the input unchanged when it is already a WTA.
    """
    if not G.is_wtg:
        raise AutomatonError("input has nontrivial constraints, not a WTG")
    if G.is_wta:
        return G
    taken = set(G.states) | set(G.alphabet.names())
    states = list(G.states)
    one = G.semiring.one_weight
    out_rules = []

    def fresh(rule_index, p):
        name = _fresh_name(
            f"n{rule_index}p{format_position(p).replace('.', '_')}", taken
        )
        taken.add(name)
        states.append(name)
        return name

    for rule in G.rules:
        state_set = rule._states

        def flatten(node: Tree, p, rule_index) -> str:
            """Emit rules grounding node; return the state recognizing it."""
            if node.label in state_set:
                return node.label
            child_states = [
                flatten(c, p + (i,), rule_index)
                for i, c in enumerate(node.children, start=1)
            ]
            q = fresh(rule_index, p)
            out_rules.append((Tree(node.label, [Tree(s) for s in child_states]), q, one))
            return q

        lhs = rule.lhs
        child_states = [
            flatten(c, (i,), rule.index) for i, c in enumerate(lhs.children, start=1)
        ]
        out_rules.append(
            (Tree(lhs.label, [Tree(s) for s in child_states]), rule.target, rule.weight)
        )

    return Automaton(G.semiring, G.alphabet, states, G.finals, out_rules, sink=G.sink)


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
    """Sorted occurrence positions of x1..xk in an image tree."""
    occ = {i: [] for i in range(1, rank + 1)}
    for p in positions(image):
        label = subtree_at(image, p).label
        if is_variable(label):
            occ[int(label[1:])].append(p)
    return {i: tuple(sorted(ps)) for i, ps in occ.items()}


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


def run_image(A: Automaton, h: TreeHomomorphism, run: Run, image: Automaton) -> Run:
    """Map a run of the WTA A to the corresponding run of image = hom_image(A, h):
    child runs land on the lex-least variable occurrences, sink runs fill the
    remaining copies of the (constraint-equal) subtrees."""
    sink = image.sink
    # An image rule's pairs tie each variable's first occurrence to its other
    # occurrences, so as a set they equal the pairs of its constraint classes.
    by_key = {(r.lhs, frozenset(r.pairs), r.target): r for r in image.rules}
    image_rule_of = {}
    for rule, (lhs, target, _, pairs) in zip(A.rules, _image_rule_specs(A, h, sink)):
        img_rule = by_key.get((lhs, frozenset(pairs), target))
        if img_rule is None:
            raise AutomatonError(
                f"no image rule for source rule '{rule.text}' "
                f"(merged away by weight cancellation)"
            )
        image_rule_of[rule.index] = img_rule
    sink_runs = Evaluator(image)

    def convert(run: Run) -> Run:
        img_rule = image_rule_of[run.rule.index]
        occ = _variable_occurrences(
            h.image_of(run.rule.lhs.label), len(run.rule.state_labels)
        )
        sub_at: dict = {}
        for i, sub in enumerate(run.subruns, start=1):
            ps = occ[i]
            sub_at[ps[0]] = convert(sub)
            for p in ps[1:]:
                (sub_at[p],) = sink_runs.runs(h.apply(sub.subject), sink)
        subruns = [sub_at[p] for p in img_rule.state_positions]
        return Run(img_rule, subruns, img_rule.plug([sub.subject for sub in subruns]))

    return convert(run)


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

    Only annotated states that some tree reaches are built.  A bottom-up
    worklist starts from the rules without real child states and derives
    q_v when a rule sums vector v (capped) from child vectors already
    derived and v has a nonzero product.  The result is the product
    construction over all of {0..u}^n (`full_zero_divisor_elimination` in
    tests/oracles.py) restricted to its bottom-up-reachable states, with
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

    def vec_add(a, b):
        return tuple(min(x + y, u) for x, y in zip(a, b))

    def name(q, vec):
        return f"{q}_v{'_'.join(str(x) for x in vec)}"

    rules = [rule for rule in A.rules if rule.target != sink]
    real = {
        rule.index: [(i, lbl) for i, lbl in enumerate(rule.state_labels) if lbl != sink]
        for rule in rules
    }
    uses: dict[str, list] = {}  # state -> (rule, index among its real children)
    for rule in rules:
        for j, (_, lbl) in enumerate(real[rule.index]):
            uses.setdefault(lbl, []).append((rule, j))
    derived: dict[str, set] = {}
    applied = {rule.index: {} for rule in rules}  # child vectors -> target vector
    agenda = []

    def fire(rule, assignment):
        vec = unit.get(rule.weight.value, zero_vec)
        for v in assignment:
            vec = vec_add(vec, v)
        if viable(vec):
            applied[rule.index][assignment] = vec
            agenda.append((rule.target, vec))

    for rule in rules:
        if not real[rule.index]:
            fire(rule, ())
    # Semi-naive: each new q_v is combined only with the vectors derived so
    # far, so every assignment fires once its last child vector comes in.
    while agenda:
        q, v = agenda.pop()
        found = derived.setdefault(q, set())
        if v in found:
            continue
        found.add(v)
        for rule, j in uses.get(q, ()):
            choices = [
                (v,) if k == j else derived.get(lbl, ())
                for k, (_, lbl) in enumerate(real[rule.index])
            ]
            for assignment in product(*choices):
                fire(rule, assignment)

    # {0..u}^n is enumerated in lexicographic order, so sorting vectors and
    # assignments restores the emission order of the full construction.
    out_rules = []
    for rule in A.rules:
        if rule.target == sink:
            out_rules.append((rule.lhs, rule.target, rule.weight, rule.pairs))
            continue
        for assignment, vec in sorted(applied[rule.index].items()):
            subs = [Tree(lbl) for lbl in rule.state_labels]
            for (i, lbl), v in zip(real[rule.index], assignment):
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
        for rule in A.rules:
            if rule.target == sink:
                continue
            subs = [None] * len(rule.state_labels)
            for idxs, labels in zip(rule.class_indices, rule.class_labels):
                real = Tree(next(lbl for lbl in labels if lbl != sink))
                for i in idxs:
                    subs[i] = real
            specs.append((rule.plug(subs), rule.target, 1, rule.pairs))
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
    tree with nonzero state weight at each of the class's real states; the
    produced rule's weight multiplies in one wt factor per instantiated
    position (sink positions contribute the one).  Unconstrained state
    positions stay symbolic.  The sink and its rules are dropped.
    """
    if lin_height < 0:
        raise AutomatonError("linearization height must be nonnegative")
    reason = eq_restriction_violation(A)
    if reason is not None and A.sink is not None:
        raise AutomatonError(f"input is not eq-restricted: {reason}")
    sink = A.sink
    sr = A.semiring
    table = RunsTable(A, lin_height)
    lang: dict[str, dict[Tree, object]] = {}
    for q in A.states:
        if q == sink:
            continue
        lang[q] = {t: w.value for t, w in table.state_trees(q)}

    specs = []
    for rule in A.rules:
        if sink is not None and rule.target == sink:
            continue
        to_instantiate = [
            (cls, labels)
            for cls, labels in zip(rule.classes, rule.class_labels)
            if len(cls) > 1
        ]
        domains = []
        for cls, labels in to_instantiate:
            real = [lbl for lbl in dict.fromkeys(labels) if lbl != sink]
            base = list(lang[real[0]])
            for q in real[1:]:
                base = [t for t in base if t in lang[q]]
            domains.append(base)
        # Constrained classes are fully instantiated, so produced rules
        # carry no constraint pairs at all.
        for combo in product(*domains):
            lhs = rule.lhs
            value = rule.weight.value
            for (cls, labels), t in zip(to_instantiate, combo):
                for p, lbl in zip(cls, labels):
                    lhs = replace_at(lhs, p, t)
                    if lbl != sink:
                        value = sr.mul(value, lang[lbl][t])
            specs.append((lhs, rule.target, value, ()))

    merged = _merge_rules(sr, specs)
    states = [q for q in A.states if q != sink]
    return Automaton(sr, A.alphabet, states, A.finals, merged, sink=None)


def canonical_form(A: Automaton) -> Automaton:
    """Same automaton with states sorted by name and rules sorted by
    (lhs text, target, constraint text, weight text)."""
    rules = sorted(
        A.rules,
        key=lambda r: (r.lhs.text, r.target, r.constraint_text(), str(r.weight)),
    )
    return Automaton(A.semiring, A.alphabet, sorted(A.states), A.finals, rules,
                     sink=A.sink)


def _erased_rule_key(A: Automaton, rule: Rule):
    sink = A.sink
    final_set = set(A.finals)

    def erase(t: Tree) -> Tree:
        if t.label in rule._states:
            return Tree("_" if t.label != sink else "__sink__")
        return Tree(t.label, [erase(c) for c in t.children])

    return (
        erase(rule.lhs).text,
        rule.constraint_text(),
        str(rule.weight),
        rule.target == sink,
        rule.target in final_set,
        tuple(lbl == sink for lbl in rule.state_labels),
        tuple(lbl in final_set for lbl in rule.state_labels),
    )


def canonical_rename(A: Automaton) -> Automaton:
    """Rename states by first use: the sink becomes `bot`, other states s0,
    s1, ... in the order they appear scanning rules sorted by a name-erased
    key.  Canonicalizes away state naming for isomorphism-style comparison."""
    mapping: dict[str, str] = {}
    if A.sink is not None:
        mapping[A.sink] = "bot"

    def assign(q):
        if q not in mapping:
            mapping[q] = f"s{len(mapping) - (1 if A.sink is not None else 0)}"

    order = sorted(A.rules, key=lambda r: (_erased_rule_key(A, r), r.text))
    for rule in order:
        for lbl in rule.state_labels:
            assign(lbl)
        assign(rule.target)
    for q in sorted(A.finals):
        assign(q)
    for q in sorted(A.states):
        assign(q)

    def rename_tree(t: Tree) -> Tree:
        if t.label in mapping and not t.children:
            return Tree(mapping[t.label])
        return Tree(t.label, [rename_tree(c) for c in t.children])

    rules = [
        (rename_tree(r.lhs), mapping[r.target], r.weight, r.pairs)
        for r in A.rules
    ]
    return canonical_form(
        Automaton(
            A.semiring,
            A.alphabet,
            [mapping[q] for q in A.states],
            [mapping[q] for q in A.finals],
            rules,
            sink=None if A.sink is None else "bot",
        )
    )


def automata_equal(A: Automaton, B: Automaton, rename: bool = False) -> bool:
    """Equality of canonical forms; with rename=True, compare after
    first-use state renaming (isomorphism up to the documented tiebreak)."""
    if rename:
        A, B = canonical_rename(A), canonical_rename(B)
    else:
        A, B = canonical_form(A), canonical_form(B)
    if A.semiring != B.semiring or A.alphabet != B.alphabet:
        return False
    if A.states != B.states or A.finals != B.finals or A.sink != B.sink:
        return False
    key = lambda r: (r.lhs, r.classes, r.target, r.weight.value)
    return [key(r) for r in A.rules] == [key(r) for r in B.rules]
