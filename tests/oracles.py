"""Independent brute-force reference implementations and random instance
generators used by the test suite.  Everything here recomputes results from
first principles so the package code has something honest to be compared
against."""

from itertools import product

from treehom import (
    Automaton,
    AutomatonError,
    RunsTable,
    dickson_cap,
    eq_restriction_violation,
    RankedAlphabet,
    Run,
    Tree,
    TreeHomomorphism,
    Weight,
    enumerate_trees,
    format_position,
    get_semiring,
    hom_image,
    positions,
    replace_at,
    run_state_map,
    subtree_at,
)
from treehom.construct import (
    _fresh_name,
    _image_rule_specs,
    _merge_rules,
    _non_one_weights,
    _sink_rule_specs,
)
from treehom.verdict import verified, violated


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
    """All runs of A for t to q by direct recursion, ignoring weights."""
    states = set(A.states)
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
        child_runs = [naive_runs(A, sub, lbl) for lbl, sub in acc]
        for combo in product(*child_runs):
            out.append(Run(rule, combo, t))
    return out


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
                     [q for q in A.finals if q in reached], rules, sink=A.sink)


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
        ref_map = run_state_map(ref_runs[0])
        ref_positions = sorted(ref_map)
        for s, runs in members:
            for run in runs:
                if s is ref_tree and run is ref_runs[0]:
                    continue
                cur = run_state_map(run)
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


def random_modular_pair(rng):
    """(A, h) with h from random_branching_hom over a source that has a rank-2
    symbol and A a 3-state WTA over that source in z6, z12, z30 or z60.  A's
    rules carry 2-4 distinct non-one weights; the other rules weigh one.

    Pairs are drawn until {0..u}^n has at most 81 vectors both for
    A and for hom_image(A, h) (merged image rules can add weights), so that
    full_zero_divisor_elimination, squared on rank-2 rules, stays cheap."""
    n = rng.randint(2, 4)
    while True:
        h = random_branching_hom(rng)
        if 2 not in dict(h.source.items()).values():
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
        rules = [(lhs, rng.choice(states), sr.weight(w), ()) for lhs, w in zip(lhss, weights)]
        finals = sorted(rng.sample(states, rng.randint(1, 2)))
        A = Automaton(sr, h.source, states, finals, rules)
        if all(_universe_size(B) <= 81 for B in (with_sink(A), hom_image(A, h))):
            return A, h


def with_sink(A, sink="bot"):
    """The WTA A plus a sink state and its weight-one rules: eq-restricted."""
    return Automaton(A.semiring, A.alphabet, list(A.states) + [sink], A.finals,
                     list(A.rules) + _sink_rule_specs(A.alphabet, A.semiring, sink),
                     sink=sink)
