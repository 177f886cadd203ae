"""Independent brute-force reference implementations and random instance
generators used by the test suite.  Everything here recomputes results from
first principles so the package code has something honest to be compared
against.  The constructions and run checks at the end serve only the tests;
``wtg_to_wta``, the WTA normalization of a WTG, is the reference that
``bounded_equivalence`` on a WTG must agree with.  ``build_parser`` is the
argparse parser that ``treehom.cli.read_args`` must agree with, and
``reference_parse_automaton`` and ``reference_parse_hom`` are the file
readers that ``treehom.cli.parse_automaton`` and ``parse_hom`` must agree
with."""

import argparse
import functools
import re
from itertools import combinations, product

from treehom import (
    Automaton,
    AutomatonError,
    Evaluator,
    RunsTable,
    dickson_cap,
    eq_restriction_violation,
    RankedAlphabet,
    Rule,
    Run,
    Tree,
    TreeHomomorphism,
    Verdict,
    Weight,
    enumerate_trees,
    format_position,
    get_semiring,
    hom_image,
    linearize,
    replace_at,
    tree_key,
)
from treehom import cli
from treehom.automaton import constraints_ok
from treehom.construct import (
    _fresh_name,
    _image_rule_specs,
    _merge_rules,
    _non_one_weights,
    _sink_rule_specs,
    _variable_occurrences,
)
from treehom.cli import FileFormatError
from treehom.hom import HomError, _clash, _missing_variables
from treehom.semiring import SemiringError
from treehom.term import (
    NAME_RE,
    PositionError,
    TermError,
    TermSyntaxError,
    Variables,
    is_variable,
    parse_position,
    parse_term,
    preorder,
)
from treehom.verdict import verified, violated


# Recursive reference walkers: `preorder`, `format_run` and `run_state_map`
# walk on explicit stacks and must agree with these.


def positions(t: Tree) -> tuple:
    """All positions of t in prefix-first lexicographic (preorder) order."""
    out = []

    def walk(node, prefix):
        out.append(prefix)
        for i, c in enumerate(node.children, start=1):
            walk(c, prefix + (i,))

    walk(t, ())
    return tuple(out)


def subtree_at(t: Tree, p) -> Tree:
    node = t
    for i in p:
        if i < 1 or i > len(node.children):
            raise PositionError(f"position {format_position(p)} not in {t.text}")
        node = node.children[i - 1]
    return node


def naive_format_run(run: Run, indent: str = "") -> str:
    lines = [f"{indent}{run.rule.text}"]
    for sub in run.subruns:
        lines.append(naive_format_run(sub, indent + "  "))
    return "\n".join(lines)


def naive_run_state_map(run: Run) -> dict:
    """Position -> target state map of a WTA-shaped run."""
    out = {(): run.rule.target}
    for p, sub in zip(run.rule.state_positions, run.subruns):
        for sp, q in naive_run_state_map(sub).items():
            out[p + sp] = q
    return out


def naive_rule_data(lhs: Tree, states, pairs) -> dict:
    """What `make_rule` derives from a valid lhs and constraint pairs: the
    state positions (from `positions`) and their states, the constraint
    classes by a plain closure (merge any two classes a pair links, until
    none do), each class as indices into the state positions and as their
    states, whether every lhs child is a state leaf, and whether a class has
    two members."""
    state_positions = tuple(p for p in positions(lhs) if subtree_at(lhs, p).label in states)
    classes = [{p} for p in state_positions]
    merged = True
    while merged:
        merged = False
        for a, b in pairs:
            ca = next(c for c in classes if a in c)
            cb = next(c for c in classes if b in c)
            if ca is not cb:
                classes.remove(cb)
                ca |= cb
                merged = True
    classes = tuple(sorted(tuple(sorted(c)) for c in classes))
    class_indices = tuple(tuple(state_positions.index(p) for p in c) for c in classes)
    return {
        "state_positions": state_positions,
        "state_labels": tuple(subtree_at(lhs, p).label for p in state_positions),
        "classes": classes,
        "class_indices": class_indices,
        "class_labels": tuple(tuple(subtree_at(lhs, p).label for p in c) for c in classes),
        "flat": all(not c.children and c.label in states for c in lhs.children),
        "constrained": any(len(c) > 1 for c in classes),
        "pairs": tuple((c[0], p) for c in classes for p in c[1:]),
    }


def naive_parse_term(text: str, alphabet: RankedAlphabet | None = None, ext=frozenset()) -> Tree:
    """The recursive-descent reference for `parse_term`: one call per node,
    a new object per subterm.  Parse ``name | name '(' tree (',' tree)* ')'``;
    whitespace insignificant.

    Names in ``ext`` are leaf tokens (states or variables) and may not take
    arguments.  With an alphabet, all other names must be declared and used at
    their rank; ``a()`` is accepted for a nullary symbol.  Without an alphabet
    the parse is loose: any name, rank read off from usage.
    """
    ext = frozenset(ext)
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise TermSyntaxError(msg, pos + 1)

    def parse_node() -> Tree:
        nonlocal pos
        skip_ws()
        m = NAME_RE.match(text, pos)
        if not m:
            fail("expected a name")
        name = m.group(0)
        name_col = pos + 1
        pos = m.end()
        skip_ws()
        children = []
        if pos < n and text[pos] == "(":
            if name in ext:
                fail(f"leaf token {name} cannot take arguments")
            pos += 1
            skip_ws()
            if pos < n and text[pos] == ")":
                pos += 1
            else:
                children.append(parse_node())
                skip_ws()
                while pos < n and text[pos] == ",":
                    pos += 1
                    children.append(parse_node())
                    skip_ws()
                if pos >= n or text[pos] != ")":
                    fail("expected ')' or ','")
                pos += 1
        if name not in ext and alphabet is not None:
            if name not in alphabet:
                raise TermSyntaxError(f"unknown symbol: {name}", name_col)
            if alphabet.rank(name) != len(children):
                raise TermSyntaxError(
                    f"symbol {name} has rank {alphabet.rank(name)}, "
                    f"used with {len(children)} arguments",
                    name_col,
                )
        return Tree(name, children)

    tree = parse_node()
    skip_ws()
    if pos != n:
        fail("trailing input after term")
    return tree


def _match_states(node, t, states, acc):
    # Collect the input subtree under each state leaf, preorder.
    if node.label in states:
        acc.append((node.label, t))
        return True
    if node.label != t.label or len(node.children) != len(t.children):
        return False
    return all(
        _match_states(c, tc, states, acc)
        for c, tc in zip(node.children, t.children)
    )


def naive_runs(A, t, q):
    """All runs of A for t to q by direct recursion, ignoring weights.  Each
    (subtree, state) pair is expanded once per call, so a subtree that many
    rules try is not expanded again for each of them."""
    states = set(A.states)
    expanded = {}

    def runs(t, q):
        if (t, q) in expanded:
            return expanded[t, q]
        out = []
        for rule in A.rules:
            if rule.target != q:
                continue
            acc = []
            if not _match_states(rule.lhs, t, states, acc):
                continue
            holds = all(
                subtree_at(t, cls[0]) == subtree_at(t, p)
                for cls in rule.classes
                for p in cls[1:]
            )
            if not holds:
                continue
            child_runs = [runs(sub, lbl) for lbl, sub in acc]
            for combo in product(*child_runs):
                out.append(Run(rule, combo, t))
        expanded[t, q] = out
        return out

    return list(runs(t, q))


def naive_run_weight(run):
    sr = run.rule.weight.semiring
    v = run.rule.weight.value
    for sub in run.subruns:
        v = sr.mul(v, naive_run_weight(sub).value)
    return Weight(sr, v)


def naive_state_value(A, t, q):
    sr = A.semiring
    total = sr.zero
    for run in naive_runs(A, t, q):
        total = sr.add(total, naive_run_weight(run).value)
    return total


def naive_evaluate(A, t):
    sr = A.semiring
    total = sr.zero
    for q in A.finals:
        total = sr.add(total, naive_state_value(A, t, q))
    return Weight(sr, total)


def _classes_fit(run, k):
    """Whether every constrained class of every rule application in run
    captures a subtree of height <= k."""
    for cls in run.rule.classes:
        if len(cls) > 1 and subtree_at(run.subject, cls[0]).height > k:
            return False
    return all(_classes_fit(sub, k) for sub in run.subruns)


def naive_linearized_value(A, k, t):
    """The sum of the weights of A's runs on t to a final state whose
    constrained classes all capture subtrees of height <= k: the value that
    linearize(A, k) should give t."""
    sr = A.semiring
    total = sr.zero
    for q in A.finals:
        for run in naive_runs(A, t, q):
            if _classes_fit(run, k):
                total = sr.add(total, naive_run_weight(run).value)
    return Weight(sr, total)


def naive_accepting_runs(A, t):
    out = []
    for q in A.finals:
        for run in naive_runs(A, t, q):
            if not naive_run_weight(run).is_zero:
                out.append(run)
    return out


def hom_image_annotated(A, h):
    """Intermediate image automaton with rule-annotated root symbols, for
    cross-checking the fused construction against relabel-and-merge."""
    if not A.is_wta:
        raise AutomatonError("homomorphic image is defined on WTA input only")
    if A.alphabet != h.source:
        raise AutomatonError("automaton alphabet differs from the homomorphism source")
    sink = _fresh_name("bot", set(A.states) | set(h.target.names()))
    symbols = dict(h.target.items())
    for rule in A.rules:
        root = h.image_of(rule.lhs.label).label
        symbols[f"{root}__r{rule.index}"] = h.target.rank(root)
    alphabet = RankedAlphabet(sorted(symbols.items()))
    specs = _image_rule_specs(A, h, sink)  # one per rule of A, in rule order
    rules = [
        (Tree(f"{lhs.label}__r{i}", lhs.children), tgt, Weight(A.semiring, v), pairs)
        for i, (lhs, tgt, v, pairs) in enumerate(specs)
    ]
    rules.extend(_sink_rule_specs(h.target, A.semiring, sink))
    states = list(A.states) + [sink]
    return Automaton(A.semiring, alphabet, states, A.finals, rules, sink=sink)


def relabel_symbols(A, mapping):
    """Rename alphabet symbols and merge rules that become identical."""
    ranks = {}
    for name, rank in A.alphabet.items():
        new = mapping.get(name, name)
        if new in ranks and ranks[new] != rank:
            raise AutomatonError(f"relabeling maps two ranks onto symbol {new}")
        ranks[new] = rank

    def rename(t):
        if t.label in A.states:
            return t
        return Tree(mapping.get(t.label, t.label), [rename(c) for c in t.children])

    specs = [(rename(r.lhs), r.target, r.weight.value, r.pairs) for r in A.rules]
    merged = _merge_rules(A.semiring, specs)
    return Automaton(A.semiring, RankedAlphabet(sorted(ranks.items())), A.states,
                     A.finals, merged, sink=A.sink)


def full_zero_divisor_elimination(A):
    """Annotate states with capped multiplicity vectors of the non-one rule
    weights so that every surviving run has nonzero weight.

    Over a zero-divisor-free semiring the input is returned unchanged.  Over
    a finite semiring the cap is u = max(index + period) of the weights'
    power sequences: beyond u, one more period never changes the product, so
    any vector witnessing a zero product reduces into {0..u}^n.

    The paper's product construction: every viable (state, vector) pair over
    all of {0..u}^n, and every rule over them (the reference for
    ``eliminate_zero_divisors``, which builds only its reachable part).
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
    universe = list(product(range(u + 1), repeat=n))
    value_of = {}
    for vec in universe:
        val = sr.one
        for s, e in zip(weights, vec):
            for _ in range(e):
                val = sr.mul(val, s)
        value_of[vec] = val
    vectors = [vec for vec in universe if value_of[vec] != sr.zero]
    vec_set = set(vectors)
    unit = {s: tuple(1 if j == i else 0 for j in range(n)) for i, s in enumerate(weights)}
    zero_vec = (0,) * n

    def vec_add(a, b):
        return tuple(min(x + y, u) for x, y in zip(a, b))

    def name(q, vec):
        return f"{q}_v{'_'.join(str(x) for x in vec)}"

    out_rules = []
    for rule in A.rules:
        if rule.target == sink:
            out_rules.append((rule.lhs, rule.target, rule.weight, rule.pairs))
            continue
        real = [
            (p, lbl)
            for p, lbl in zip(rule.state_positions, rule.state_labels)
            if lbl != sink
        ]
        base = unit.get(rule.weight.value, zero_vec)
        for assignment in product(vectors, repeat=len(real)):
            vec = base
            for v in assignment:
                vec = vec_add(vec, v)
            if vec not in vec_set:
                continue
            lhs = rule.lhs
            for (p, lbl), v in zip(real, assignment):
                lhs = replace_at(lhs, p, Tree(name(lbl, v)))
            out_rules.append((lhs, name(rule.target, vec), rule.weight, rule.pairs))

    states = [name(q, vec) for q in A.states if q != sink for vec in vectors]
    states.append(sink)
    finals = [name(q, vec) for q in A.finals for vec in vectors]
    return Automaton(sr, A.alphabet, states, finals, out_rules, sink=sink)


def naive_reachable_part(A):
    """A restricted to the states that some rule derives from states already
    derived (a naive fixpoint over all rules, constraints ignored), keeping
    the sink and the order of states, finals and rules."""
    reached = {A.sink}
    changed = True
    while changed:
        changed = False
        for rule in A.rules:
            if rule.target not in reached and all(q in reached for q in rule.state_labels):
                reached.add(rule.target)
                changed = True
    rules = [r for r in A.rules if all(q in reached for q in r.state_labels)]
    return Automaton(A.semiring, A.alphabet, [q for q in A.states if q in reached],
                     [q for q in A.finals if q in reached], rule_specs(rules), sink=A.sink)


def naive_tetris_free(h, height_bound):
    """Bounded tetris-freeness by enumerating every source tree up to the
    bound, grouping them by image and comparing each group against its first
    member (the reference for ``check_tetris_free``)."""
    groups = {}
    for s in enumerate_trees(h.source, height_bound):
        groups.setdefault(h.apply(s), []).append(s)
    for image, members in groups.items():
        first = members[0]
        first_pos = positions(first)
        for other in members[1:]:
            if positions(other) != first_pos:
                return violated(
                    height_bound,
                    (first, other),
                    f"position sets differ for preimages of {image.text}",
                )
            for p in first_pos:
                a = subtree_at(first, p).label
                b = subtree_at(other, p).label
                if h.image_of(a) != h.image_of(b):
                    return violated(
                        height_bound,
                        (first, other),
                        f"symbol images differ at position {format_position(p)}: "
                        f"h({a}) != h({b})",
                    )
    return verified(height_bound)


def root_blind_images_clash(h):
    """``images_clash(h)`` with every target shape counted as an image root,
    so that a variable clashes with nothing: the clash rule without its root
    rule.  A hom for which ``images_clash`` holds and this does not clashes
    only by the root rule."""
    shapes = set(h.target.items())
    classes = dict.fromkeys(h.images.values())
    return all(_clash(p, q, shapes) for p, q in combinations(classes, 2))


def naive_h_unambiguous(A, h, height_bound):
    """Bounded h-unambiguity by enumerating every tree of height <= bound with
    a run, grouping the accepting ones by image and comparing each run against
    its group's first (the reference for ``check_h_unambiguous``)."""
    if not A.is_wta:
        raise AutomatonError("h-unambiguity is defined on WTA input only")
    if A.alphabet != h.source:
        raise AutomatonError("automaton alphabet differs from the homomorphism source")
    table = RunsTable(A, height_bound)
    groups = {}
    for s in table.trees:
        acc = table.accepting_runs(s)
        if acc:
            groups.setdefault(h.apply(s), []).append((s, acc))
    for members in groups.values():
        ref_tree, ref_runs = members[0]
        ref_map = naive_run_state_map(ref_runs[0])
        ref_positions = sorted(ref_map)
        for s, runs in members:
            for run in runs:
                if s is ref_tree and run is ref_runs[0]:
                    continue
                cur = naive_run_state_map(run)
                if sorted(cur) != ref_positions:
                    return violated(
                        height_bound,
                        (ref_tree, s, ref_runs[0], run, None),
                        f"position sets differ for {ref_tree.text} and {s.text}",
                    )
                for p in ref_positions:
                    if cur[p] != ref_map[p]:
                        return violated(
                            height_bound,
                            (ref_tree, s, ref_runs[0], run, p),
                            f"runs on {ref_tree.text} and {s.text} disagree at "
                            f"position {format_position(p)}: {ref_map[p]} vs {cur[p]}",
                        )
    return verified(height_bound)


def naive_unambiguous(A, height_bound):
    """First tree of height <= bound carrying two accepting runs, found by
    examining every tree with a run (the reference for ``check_unambiguous``)."""
    table = RunsTable(A, height_bound)
    for t in table.trees:
        acc = table.accepting_runs(t)
        if len(acc) > 1:
            return violated(height_bound, (t, acc), f"{len(acc)} accepting runs for {t.text}")
    return verified(height_bound)


def count_trees(alphabet: RankedAlphabet, max_height: int) -> int:
    """Number of ground trees of height <= max_height, without materializing
    them (the reference for the length of ``enumerate_trees``)."""
    if max_height < 0:
        return 0
    items = alphabet.items()
    total = sum(1 for _, k in items if k == 0)
    for _ in range(max_height):
        total = sum(1 if k == 0 else total**k for _, k in items)
    return total


def naive_preimage(h, t, height_bound, trees):
    """Source trees from the given pool whose image is t."""
    return [s for s in trees if h.apply(s) == t and s.height <= height_bound]


UNARY_TARGET = RankedAlphabet([("c", 0), ("d", 0), ("g", 1)])
BINARY_TARGET = RankedAlphabet([("c", 0), ("k", 2)])


def random_ground(rng, alphabet, height):
    syms = sorted(alphabet.items())
    nullary = [n for n, k in syms if k == 0]
    if height == 0 or rng.random() < 0.45:
        return Tree(rng.choice(nullary), ())
    name, k = rng.choice([(n, k) for n, k in syms if k > 0])
    return Tree(name, tuple(random_ground(rng, alphabet, height - 1) for _ in range(k)))


def random_image(rng, target, rank):
    if rank == 0:
        return random_ground(rng, target, 2)
    t = random_ground(rng, target, 2)
    while t.height < 1:
        t = random_ground(rng, target, 2)
    leaves = [p for p in positions(t) if not subtree_at(t, p).children]
    for p in rng.sample(leaves, rng.randint(1, min(2, len(leaves)))):
        t = replace_at(t, p, Tree("x1", ()))
    return t


def random_hom(rng):
    symbols = ([("a", 0), ("b", 0)][: rng.randint(1, 2)]
               + [("g", 1), ("f", 1)][: rng.randint(1, 2)])
    source = RankedAlphabet(symbols)
    target = UNARY_TARGET if rng.random() < 0.5 else BINARY_TARGET
    images = {name: random_image(rng, target, rank) for name, rank in symbols}
    return TreeHomomorphism(source, target, images)


BRANCHING_TARGET = RankedAlphabet([("c", 0), ("d", 0), ("g", 1), ("h", 1), ("k", 2)])
# Source alphabets with at most 723 trees up to height 3, so the enumerating
# oracle stays cheap.
BRANCHING_SOURCES = (
    (("a", 0), ("g", 1), ("m", 2)),
    (("a", 0), ("f", 1), ("g", 1), ("m", 2)),
    (("a", 0), ("b", 0), ("f", 1), ("g", 1)),
    (("a", 0), ("m", 2), ("n", 2)),
)


def random_pattern(rng, rank):
    """Image pattern over BRANCHING_TARGET of height 1-2 (mostly 1) in which
    each of x1..x<rank> occurs, some of them twice."""
    height = rng.choice([1, 1, 2])
    if rank == 0:
        return random_ground(rng, BRANCHING_TARGET, height)
    while True:
        t = random_ground(rng, BRANCHING_TARGET, height)
        leaves = [p for p in positions(t) if not subtree_at(t, p).children]
        if t.height >= 1 and len(leaves) >= rank:
            break
    rng.shuffle(leaves)
    for i, p in enumerate(leaves):
        if i < rank:
            var = i + 1
        elif rng.random() < 0.3:
            var = rng.randint(1, rank)
        else:
            continue
        t = replace_at(t, p, Tree(f"x{var}", ()))
    return t


def random_branching_hom(rng):
    """Hom from one of BRANCHING_SOURCES into BRANCHING_TARGET.  Two symbols
    of equal rank often share one image, and two unary symbols often get
    same-root nested images such as g(g(x1)) and g(x1)."""
    source = rng.choice(BRANCHING_SOURCES)
    images = {name: random_pattern(rng, rank) for name, rank in source}
    by_rank = {}
    for name, rank in source:
        by_rank.setdefault(rank, []).append(name)
    same_rank = [names for names in by_rank.values() if len(names) > 1]
    if same_rank and rng.random() < 0.4:
        a, b = rng.sample(rng.choice(same_rank), 2)
        images[b] = images[a]
    if len(by_rank.get(1, ())) > 1 and rng.random() < 0.4:
        a, b = rng.sample(by_rank[1], 2)
        root = rng.choice(["g", "h"])
        images[a] = Tree(root, (Tree("x1", ()),))
        images[b] = Tree(root, (rng.choice([images[a], images[b]]),))
    return TreeHomomorphism(RankedAlphabet(source), BRANCHING_TARGET, images)


def z6_copy(automaton_text: str) -> str:
    """The automaton file text over z6, every weight w becoming w mod 6, or 1
    where that is 0."""
    text = re.sub(r"@ (\d+)", lambda m: f"@ {int(m[1]) % 6 or 1}", automaton_text)
    return re.sub(r"(?m)^semiring: .*$", "semiring: z6", text)


def random_weight(rng, sr):
    if sr.id == "boolean":
        return Weight(sr, 1)
    if sr.id == "natural":
        return Weight(sr, rng.randint(1, 4))
    if sr.id == "integer":
        return Weight(sr, rng.choice([-3, -2, -1, 1, 2, 3]))
    if sr.id.startswith("z"):
        return Weight(sr, rng.randint(1, sr.k - 1))
    # tropical and arctic: stick to small finite values
    return Weight(sr, rng.randint(0, 3))


def random_wta(rng, source, semiring_id, n_states=None):
    sr = get_semiring(semiring_id)
    n = n_states if n_states is not None else rng.randint(1, 2)
    states = [f"s{i}" for i in range(n)]
    rules = []
    for name, rank in sorted(source.items()):
        for vec in product(states, repeat=rank):
            if rng.random() < 0.75 or (rank == 0 and not rules):
                lhs = Tree(name, tuple(Tree(q, ()) for q in vec))
                rules.append((lhs, rng.choice(states), random_weight(rng, sr), ()))
    finals = sorted(rng.sample(states, rng.randint(1, n)))
    return Automaton(sr, source, states, finals, rules)


def random_pair(rng, semiring_id, n_states=None):
    h = random_hom(rng)
    A = random_wta(rng, h.source, semiring_id, n_states)
    return A, h


MODULAR_SEMIRINGS = ("z6", "z12", "z30", "z60")


def _universe_size(A):
    """(u + 1)^n for the Dickson cap u of A's n distinct non-one weights."""
    return (dickson_cap(A) + 1) ** len(_non_one_weights(A))


def random_modular_pair(rng, duplicating=False):
    """(A, h) with h from random_branching_hom over a source that has a rank-2
    symbol and A a 3-state WTA over that source in z6, z12, z30 or z60.  A's
    rules carry 2-4 distinct non-one weights; the other rules weigh one.
    With duplicating, some image of h copies a variable, so hom_image(A, h)
    has a constrained rule.

    Pairs are drawn until {0..u}^n has at most 81 vectors both for
    A and for hom_image(A, h) (merged image rules can add weights), so that
    full_zero_divisor_elimination, squared on rank-2 rules, stays cheap."""
    n = rng.randint(2, 4)
    while True:
        h = random_branching_hom(rng)
        if 2 not in dict(h.source.items()).values():
            continue
        if duplicating and not any(
                len(ps) > 1 for name, rank in h.source.items()
                for ps in _variable_occurrences(h.image_of(name), rank).values()):
            continue
        sr = get_semiring(rng.choice(MODULAR_SEMIRINGS))
        if sr.k - 2 < n:
            continue
        pool = rng.sample(range(2, sr.k), n)
        states = ["s0", "s1", "s2"]
        lhss = []
        for name, rank in sorted(h.source.items()):
            shapes = [Tree(name, tuple(Tree(q, ()) for q in vec))
                      for vec in product(states, repeat=rank)]
            lhss += shapes if rank == 0 else rng.sample(shapes, rng.randint(1, 2))
        if len(lhss) < n:
            continue
        weights = pool + [rng.choice(pool + [1, 1]) for _ in lhss[n:]]
        rng.shuffle(weights)
        rules = [(lhs, rng.choice(states), Weight(sr, w), ()) for lhs, w in zip(lhss, weights)]
        finals = sorted(rng.sample(states, rng.randint(1, 2)))
        A = Automaton(sr, h.source, states, finals, rules)
        if all(_universe_size(B) <= 81 for B in (with_sink(A), hom_image(A, h))):
            return A, h


def rule_specs(rules) -> list:
    """Rules as the (lhs, target, weight, pairs) tuples `Automaton` takes."""
    return [(r.lhs, r.target, r.weight, r.pairs) for r in rules]


def with_sink(A, sink="bot"):
    """The WTA A plus a sink state and its weight-one rules: eq-restricted."""
    return Automaton(A.semiring, A.alphabet, list(A.states) + [sink], A.finals,
                     rule_specs(A.rules) + _sink_rule_specs(A.alphabet, A.semiring, sink),
                     sink=sink)


# Reference constructions and run checks that only the tests use.


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


def state_language_up_to(A: Automaton, q: str, height_bound: int):
    """All (tree, wt_q(tree)) with nonzero value and height <= bound."""
    if q not in A.states:
        raise AutomatonError(f"undeclared state: {q}")
    if q == A.pure_sink:
        one = A.semiring.one_weight
        return [(t, one) for t in enumerate_trees(A.alphabet, height_bound)]
    table = RunsTable(A, height_bound)
    values = ((t, table.state_value(t, q)) for t in table.trees)
    return [(t, Weight(A.semiring, v)) for t, v in values if v != A.semiring.zero]


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


def canonical_form(A: Automaton) -> Automaton:
    """Same automaton with states sorted by name and rules sorted by
    (lhs text, target, constraint text, weight text)."""
    rules = sorted(
        A.rules,
        key=lambda r: (r.lhs.text, r.target, r.constraint_text, str(r.weight)),
    )
    return Automaton(A.semiring, A.alphabet, sorted(A.states), A.finals,
                     rule_specs(rules), sink=A.sink)


def _erased_rule_key(A: Automaton, rule: Rule):
    sink = A.sink
    final_set = set(A.finals)

    def erase(t: Tree) -> Tree:
        if t.label in rule._states:
            return Tree("_" if t.label != sink else "__sink__")
        return Tree(t.label, [erase(c) for c in t.children])

    return (
        erase(rule.lhs).text,
        rule.constraint_text,
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


def automata_equal(A: Automaton, B: Automaton) -> bool:
    """Equality of canonical forms.  Compare the `canonical_rename` of both
    sides for isomorphism up to the documented tiebreak."""
    A, B = canonical_form(A), canonical_form(B)
    if A.semiring != B.semiring or A.alphabet != B.alphabet:
        return False
    if A.states != B.states or A.finals != B.finals or A.sink != B.sink:
        return False
    key = lambda r: (r.lhs, r.classes, r.target, r.weight.value)
    return [key(r) for r in A.rules] == [key(r) for r in B.rules]


def run_count_compare(A: Automaton, lin_height: int, height_bound: int) -> Verdict:
    """Check that linearization never creates accepting runs: on every tree of
    height <= bound, the linearized automaton has at most as many accepting
    runs as A.  Witness payload: (tree, lin count, original count)."""
    L = linearize(A, lin_height)
    ta = RunsTable(A, height_bound)
    tl = RunsTable(L, height_bound)
    trees = sorted(set(ta.trees) | set(tl.trees), key=tree_key)
    for t in trees:
        ca = len(ta.accepting_runs(t))
        cl = len(tl.accepting_runs(t))
        if cl > ca:
            return violated(
                height_bound,
                (t, cl, ca),
                f"{cl} linearized vs {ca} original accepting runs on {t.text}",
            )
    return verified(height_bound)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line was read with before the option
    table of `treehom.cli`: the reference for its values and exit codes."""
    parser = argparse.ArgumentParser(
        prog="treehom",
        description="weighted tree automata with hom-constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an automaton and/or hom file")
    p.add_argument("--automaton")
    p.add_argument("--hom")
    p.set_defaults(func=cli._cmd_validate)

    p = sub.add_parser("eval", help="evaluate the series on one tree")
    p.add_argument("--automaton", required=True)
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cli._cmd_eval)

    p = sub.add_parser("support", help="nonzero-value trees up to a height")
    p.add_argument("--automaton", required=True)
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=cli._cmd_support)

    p = sub.add_parser("runs", help="enumerate runs for one tree")
    p.add_argument("--automaton", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--state")
    p.set_defaults(func=cli._cmd_runs)

    p = sub.add_parser("image", help="eq-restricted homomorphic image of a WTA")
    p.add_argument("--automaton", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli._cmd_image)

    p = sub.add_parser("fix-zero-divisors", help="make every run weight nonzero")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli._cmd_fix_zero_divisors)

    p = sub.add_parser("project-bool", help="boolean support projection")
    p.add_argument("--automaton", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli._cmd_project_bool)

    p = sub.add_parser("linearize", help="instantiate constrained positions")
    p.add_argument("--automaton", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cli._cmd_linearize)

    p = sub.add_parser("check", help="bounded property checks")
    p.add_argument(
        "what",
        choices=["eq-restricted", "unambiguous", "tetris-free", "h-unambiguous"],
    )
    p.add_argument("--automaton")
    p.add_argument("--hom")
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cli._cmd_check_dispatch)

    p = sub.add_parser("equiv", help="bounded series equivalence of two automata")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cli._cmd_equiv)

    p = sub.add_parser("decide", help="hom-image regularity pipeline")
    p.add_argument("--automaton", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("--check-bound", type=int, default=4)
    p.add_argument("--lin-height", type=int, default=2)
    p.add_argument("--eq-bound", type=int, default=4)
    p.add_argument("--oracle")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cli._cmd_decide)

    return parser


# The file readers as they were before `parse_automaton` read the alphabet
# off `parse_nodes` and `TreeHomomorphism` checked its images without
# positions: each lhs and image is walked in preorder, position by position.


def reference_parse_automaton(text: str) -> Automaton:
    semiring = states = sink = finals = None
    rule_lines = []
    in_rules = saw_rules_header = False
    for lineno, line in cli._content_lines(text):
        if in_rules:
            rule_lines.append((lineno, line))
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise FileFormatError(lineno, f"expected 'key: value', got {line!r}")
        key = key.strip()
        rest = rest.strip()
        if key == "semiring":
            try:
                semiring = get_semiring(rest)
            except SemiringError as err:
                raise FileFormatError(lineno, str(err)) from None
        elif key == "states":
            states = rest.split()
        elif key == "sink":
            parts = rest.split()
            if len(parts) != 1:
                raise FileFormatError(lineno, "sink takes exactly one state name")
            sink = parts[0]
        elif key == "final":
            finals = rest.split()
        elif key == "rules":
            if rest:
                raise FileFormatError(lineno, "rules: starts the rule block, no inline value")
            in_rules = saw_rules_header = True
        else:
            raise FileFormatError(lineno, f"unknown section {key!r}")
    for value, what in [(semiring, "'semiring:' line"), (states, "'states:' line"),
                        (finals, "'final:' line")]:
        if value is None:
            raise FileFormatError(None, f"missing {what}")
    if not saw_rules_header:
        raise FileFormatError(None, "missing 'rules:' section")

    state_set = set(states)
    parsed = []
    for lineno, line in rule_lines:
        main, had_constraint, constraint = line.partition("|")
        lhs_text, arrow, rest = main.partition("->")
        if not arrow:
            raise FileFormatError(lineno, "rule needs 'lhs -> state @ weight'")
        target_text, at, weight_text = rest.partition("@")
        if not at:
            raise FileFormatError(lineno, "rule needs '@ weight'")
        try:
            lhs = parse_term(lhs_text.strip(), None, ext=state_set)
        except TermError as err:
            raise FileFormatError(lineno, str(err)) from None
        pairs = []
        if had_constraint:
            for chunk in constraint.split(","):
                a, eq, b = chunk.partition("=")
                if not eq:
                    raise FileFormatError(lineno, f"bad constraint pair {chunk.strip()!r}")
                try:
                    pairs.append((parse_position(a), parse_position(b)))
                except TermError as err:
                    raise FileFormatError(lineno, str(err)) from None
        try:
            weight = semiring.parse(weight_text.strip())
        except SemiringError as err:
            raise FileFormatError(lineno, str(err)) from None
        if weight.is_zero:
            raise FileFormatError(lineno, f"zero-weight rule: {line}")
        parsed.append((lineno, lhs, target_text.strip(), weight, tuple(pairs)))

    ranks = {}
    for lineno, lhs, _, _, _ in parsed:
        for _, node in preorder(lhs):
            if node.label in state_set:
                continue
            rank = len(node.children)
            if ranks.setdefault(node.label, rank) != rank:
                raise FileFormatError(
                    lineno, f"symbol {node.label} used at ranks {ranks[node.label]} and {rank}")
    if not ranks:
        raise FileFormatError(None, "no alphabet symbols appear in any rule")
    rules = [(lhs, target, weight, pairs) for _, lhs, target, weight, pairs in parsed]
    try:
        return Automaton(semiring, RankedAlphabet(sorted(ranks.items())), states, finals,
                         rules, sink=sink)
    except AutomatonError as err:
        raise FileFormatError(None, str(err)) from None


def reference_parse_hom(text: str) -> TreeHomomorphism:
    source = target = None
    image_lines = []
    for lineno, line in cli._content_lines(text):
        key, sep, rest = line.partition(":")
        if sep and key.strip() in ("from", "to"):
            symbols = cli._parse_symbol_list(lineno, rest.strip())
            try:
                if key.strip() == "from":
                    source = RankedAlphabet(symbols)
                else:
                    target = RankedAlphabet(symbols)
            except TermError as err:
                raise FileFormatError(lineno, str(err)) from None
        else:
            image_lines.append((lineno, line))
    if source is None:
        raise FileFormatError(None, "missing 'from:' line")
    if target is None:
        raise FileFormatError(None, "missing 'to:' line")
    images = {}
    for lineno, line in image_lines:
        head, arrow, term_text = line.partition("->")
        symbols = cli._parse_symbol_list(lineno, head.strip()) if arrow else ()
        if len(symbols) != 1:
            raise FileFormatError(lineno, f"expected 'name/rank -> term', got {line!r}")
        (name, rank), = symbols
        if name not in source or source.rank(name) != rank:
            raise FileFormatError(lineno, f"{name}/{rank} is not a source symbol")
        if name in images:
            raise FileFormatError(lineno, f"duplicate image for {name}")
        try:
            images[name] = parse_term(term_text.strip(), target, ext=Variables(rank))
        except TermError as err:
            raise FileFormatError(lineno, str(err)) from None
    try:
        _reference_validate(source, target, images)
    except HomError as err:
        raise FileFormatError(None, str(err)) from None
    # A HomError from here on is the package's check disagreeing with the
    # reference one: it is left unconverted, so a comparison sees it.
    return TreeHomomorphism(source, target, images)


def _reference_validate(source, target, images):
    for name in target.names():
        if is_variable(name):
            raise HomError(f"target alphabet declares variable-like symbol {name}")
    for name in images:
        if name not in source:
            raise HomError(f"image given for undeclared symbol {name}")
    for name, rank in source.items():
        if name not in images:
            raise HomError(f"missing image for symbol {name}/{rank}")
        image = images[name]
        allowed = Variables(rank)
        seen = set()
        for _, node in preorder(image):
            if is_variable(node.label):
                if node.children:
                    raise HomError(f"variable {node.label} used with arguments in h({name})")
                if node.label not in allowed:
                    raise HomError(f"stray variable {node.label} in h({name}/{rank})")
                seen.add(node.label)
            else:
                if node.label not in target:
                    raise HomError(f"unknown target symbol {node.label} in h({name})")
                if target.rank(node.label) != len(node.children):
                    raise HomError(f"target symbol {node.label} used at wrong rank in h({name})")
        if len(seen) < rank:
            raise HomError(
                f"deleting homomorphism: h({name}) drops {_missing_variables(seen, rank)}")
        if is_variable(image.label):
            raise HomError(f"erasing homomorphism: h({name}) is a bare variable")
