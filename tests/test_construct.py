import random

import pytest

from treehom import (
    Automaton,
    AutomatonError,
    Evaluator,
    RankedAlphabet,
    RunsTable,
    Tree,
    TreeHomomorphism,
    Weight,
    bounded_equivalence,
    dickson_cap,
    eliminate_zero_divisors,
    enumerate_trees,
    eq_restriction_violation,
    get_semiring,
    hom_image,
    linearize,
    parse_term,
    project_boolean,
)
from treehom.cli import format_automaton, parse_automaton
from treehom.construct import _non_one_weights
from oracles import (
    automata_equal,
    canonical_form,
    canonical_rename,
    check_run,
    full_zero_divisor_elimination,
    hom_image_annotated,
    naive_evaluate,
    naive_linearized_value,
    naive_reachable_part,
    random_modular_pair,
    random_pair,
    relabel_symbols,
    rule_specs,
    run_image,
    with_sink,
    wtg_to_wta,
)

NAT = get_semiring("natural")
Z6 = get_semiring("z6")


def rule_texts(A):
    return sorted(r.text for r in A.rules)


def relabel_tree(t, mapping):
    return Tree(mapping.get(t.label, t.label),
                tuple(relabel_tree(c, mapping) for c in t.children))


def constant_collapse_hom():
    sigma = RankedAlphabet([("a", 0), ("b", 0)])
    delta = RankedAlphabet([("c", 0)])
    return sigma, delta, TreeHomomorphism(sigma, delta, {
        "a": parse_term("c", delta), "b": parse_term("c", delta)})


@pytest.fixture()
def z6_image():
    # Constrained eq-restricted automaton over z6 whose accepting runs on
    # k(g^n(a), g^(n+1)(a)) weigh 3 * 2^n, hitting zero for every n >= 1.
    alphabet = RankedAlphabet([("a", 0), ("g", 1), ("k", 2)])
    states = ["q", "qf", "bot"]
    ext = set(states)
    rules = [
        (parse_term("a", None, ext=ext), "q", Weight(Z6, 3), ()),
        (parse_term("g(q)", None, ext=ext), "q", Weight(Z6, 2), ()),
        (parse_term("k(q,g(bot))", None, ext=ext), "qf", Weight(Z6, 1),
         (((1,), (2, 1)),)),
        (parse_term("a", None, ext=ext), "bot", Weight(Z6, 1), ()),
        (parse_term("g(bot)", None, ext=ext), "bot", Weight(Z6, 1), ()),
        (parse_term("k(bot,bot)", None, ext=ext), "bot", Weight(Z6, 1), ()),
    ]
    return Automaton(Z6, alphabet, states, ["qf"], rules, sink="bot")


# ---------------------------------------------------------------- hom_image


def test_hom_image_golden(doubling_chain, duplicating_hom, doubling_image):
    img = hom_image(doubling_chain, duplicating_hom)
    assert eq_restriction_violation(img) is None
    assert automata_equal(img, doubling_image)
    assert rule_texts(img) == [
        "a -> bot @ 1",
        "a -> q @ 1",
        "g(bot) -> bot @ 1",
        "g(q) -> q @ 2",
        "k(bot,bot) -> bot @ 1",
        "k(q,g(bot)) -> qf @ 1 | 1 = 2.1",
    ]


def test_hom_image_shifted_golden(counting_chain, shifted_duplication):
    img = hom_image(counting_chain, shifted_duplication)
    assert rule_texts(img) == [
        "c -> bot @ 1",
        "c -> q @ 2",
        "k(bot,bot) -> bot @ 1",
        "k(c,c) -> q @ 3",
        "k(q,c) -> q @ 1",
    ]
    t = parse_term("k(c,c)", img.alphabet)
    ev = Evaluator(img)
    assert ev.evaluate(t).value == 5
    assert len(ev.accepting_runs(t)) == 2


def test_hom_image_arctic_golden(arctic_chain, full_duplication):
    img = hom_image(arctic_chain, full_duplication)
    assert rule_texts(img) == [
        "c -> bot @ 0",
        "c -> qa @ 0",
        "c -> qb @ 0",
        "k(bot,bot) -> bot @ 0",
        "k(qa,bot) -> qa @ 1 | 1 = 2",
        "k(qb,bot) -> qb @ 2 | 1 = 2",
    ]


def test_hom_image_requires_wta(doubling_image, duplicating_hom):
    with pytest.raises(AutomatonError):
        hom_image(doubling_image, duplicating_hom)


def test_hom_image_requires_matching_alphabet(counting_chain, duplicating_hom):
    with pytest.raises(AutomatonError):
        hom_image(counting_chain, duplicating_hom)


def test_hom_image_merges_colliding_rules():
    # Both constants map to c, so their rules collapse with summed weight.
    sigma, delta, h = constant_collapse_hom()
    A = Automaton(NAT, sigma, ["q"], ["q"], [
        (Tree("a", ()), "q", Weight(NAT, 2), ()),
        (Tree("b", ()), "q", Weight(NAT, 3), ()),
    ])
    img = hom_image(A, h)
    assert rule_texts(img) == ["c -> bot @ 1", "c -> q @ 5"]
    assert Evaluator(img).evaluate(parse_term("c", delta)).value == 5


def test_hom_image_drops_zero_sum_merges():
    # Weights 2 and 4 add up to 0 mod 6; the merged rule disappears.
    sigma, delta, h = constant_collapse_hom()
    A = Automaton(Z6, sigma, ["q"], ["q"], [
        (Tree("a", ()), "q", Weight(Z6, 2), ()),
        (Tree("b", ()), "q", Weight(Z6, 4), ()),
    ])
    img = hom_image(A, h)
    assert rule_texts(img) == ["c -> bot @ 1"]
    assert Evaluator(img).evaluate(parse_term("c", delta)).is_zero


def test_hom_image_series_property(doubling_chain, duplicating_hom):
    # The image evaluates t to the sum over the preimage of t.
    img = hom_image(doubling_chain, duplicating_hom)
    ev_img = Evaluator(img)
    ev_src = Evaluator(doubling_chain)
    sr = doubling_chain.semiring
    for t in enumerate_trees(duplicating_hom.target, 4):
        want = sr.zero
        for s in duplicating_hom.preimage(t):
            want = sr.add(want, ev_src.evaluate(s).value)
        assert ev_img.evaluate(t).value == want


def test_hom_image_series_property_random():
    rng = random.Random(23)
    for sr_id in ("natural", "tropical", "z6"):
        for _ in range(3):
            A, h = random_pair(rng, sr_id)
            img = hom_image(A, h)
            ev_img = Evaluator(img)
            ev_src = Evaluator(A)
            sr = A.semiring
            for t in enumerate_trees(h.target, 3):
                want = sr.zero
                for s in h.preimage(t):
                    want = sr.add(want, ev_src.evaluate(s).value)
                assert ev_img.evaluate(t).value == want


def test_annotated_image_relabels_to_plain(doubling_chain, duplicating_hom):
    annotated = hom_image_annotated(doubling_chain, duplicating_hom)
    mapping = {
        name: name.split("__", 1)[0] for name, _ in annotated.alphabet.items()
    }
    merged = relabel_symbols(annotated, mapping)
    plain = hom_image(doubling_chain, duplicating_hom)
    assert automata_equal(merged, plain)


def test_run_image_preserves_weight_and_shape(doubling_chain, duplicating_hom):
    img = hom_image(doubling_chain, duplicating_hom)
    ev = Evaluator(doubling_chain)
    for s in enumerate_trees(doubling_chain.alphabet, 4):
        for q in doubling_chain.states:
            for run in ev.runs(s, q):
                out = run_image(doubling_chain, duplicating_hom, run, img)
                check_run(img, out,
                          expect_tree=duplicating_hom.apply(s), expect_state=q)
                assert out.weight.value == run.weight.value


def run_positions_states(run):
    # Flatten a run into (position, target) pairs; works for deep rules.
    out = []

    def walk(r, at):
        out.append((at, r.target))
        for p, sub in zip(r.rule.state_positions, r.subruns):
            walk(sub, tuple(at) + p)

    walk(run, ())
    return dict(out)


def test_run_image_routes_copies_through_sink(doubling_chain, duplicating_hom):
    img = hom_image(doubling_chain, duplicating_hom)
    s = parse_term("f(g(a))", doubling_chain.alphabet)
    (run,) = Evaluator(doubling_chain).accepting_runs(s)
    out = run_image(doubling_chain, duplicating_hom, run, img)
    states = run_positions_states(out)
    # The leading copy keeps q below position 1; the duplicate at 2.1 is sunk.
    assert states[(1,)] == "q"
    assert states[(2, 1)] == "bot"


# ---------------------------------------------------------------- wtg_to_wta


def test_wtg_to_wta_flattens(doubling_image):
    lin = linearize(doubling_image, 2)
    wta = wtg_to_wta(lin)
    assert wta.is_wta
    assert bounded_equivalence(lin, wta, 5).is_ok


def test_wtg_to_wta_identity_on_wta(doubling_chain):
    assert wtg_to_wta(doubling_chain) is doubling_chain


def test_wtg_to_wta_rejects_constraints(doubling_image):
    with pytest.raises(AutomatonError):
        wtg_to_wta(doubling_image)


def test_wtg_to_wta_random_equivalence():
    rng = random.Random(5)
    for _ in range(5):
        A, h = random_pair(rng, "natural", n_states=1)
        lin = linearize(hom_image(A, h), 1)
        wta = wtg_to_wta(lin)
        assert wta.is_wta
        assert bounded_equivalence(lin, wta, 3).is_ok


# ------------------------------------------------- eliminate_zero_divisors


def test_dickson_cap(z6_chain, doubling_image):
    assert dickson_cap(z6_chain) == 3
    with pytest.raises(Exception):
        dickson_cap(doubling_image)  # needs a finite semiring


def test_eliminate_zero_divisors_golden(z6_chain):
    fixed = full_zero_divisor_elimination(z6_chain)
    assert eq_restriction_violation(fixed) is None
    # 7 viable power vectors for the weights (2, 3) times two real states.
    assert len(fixed.real_states) == 14
    assert fixed.sink == "bot"
    texts = rule_texts(fixed)
    assert "a -> q_v1_0 @ 2" in texts
    # No rule may step onto the dead vector (1, 1): 2 * 3 = 0.
    assert not any("v1_1" in text for text in texts)


def test_eliminate_zero_divisors_reachable_golden(z6_chain):
    fixed = eliminate_zero_divisors(z6_chain)
    # Only the vector (1, 0) is reachable: g(q) would step onto (1, 1).
    assert fixed.states == ("q_v1_0", "qf_v1_0", "bot")
    assert fixed.finals == ("qf_v1_0",)
    assert fixed.sink == "bot"
    assert [r.text for r in fixed.rules] == [
        "a -> q_v1_0 @ 2",
        "f(q_v1_0) -> qf_v1_0 @ 1",
        "a -> bot @ 1",
        "g(bot) -> bot @ 1",
        "f(bot) -> bot @ 1",
    ]


def test_eliminate_zero_divisors_is_reachable_part_of_full_construction(z6_image):
    rng = random.Random(11)
    instances = [z6_image]
    for _ in range(12):
        A, h = random_modular_pair(rng)
        instances += [with_sink(A), hom_image(A, h)]
    weight_counts = set()
    constrained = 0
    for B in instances:
        expected = naive_reachable_part(full_zero_divisor_elimination(B))
        got = eliminate_zero_divisors(B)
        assert got.states == expected.states
        assert got.finals == expected.finals
        assert [(r.lhs, r.target, r.weight, r.pairs) for r in got.rules] == [
            (r.lhs, r.target, r.weight, r.pairs) for r in expected.rules]
        weight_counts.add(len(_non_one_weights(B)))
        constrained += not B.is_wtg
    assert {2, 3, 4} <= weight_counts
    assert constrained > 1  # z6_image and at least one random image


def test_eliminate_zero_divisors_no_zero_runs(z6_chain):
    fixed = eliminate_zero_divisors(z6_chain)
    table = RunsTable(fixed, 4)
    for t in table.trees:
        for q in fixed.real_states:
            for run in table.runs(t, q):
                assert not run.weight.is_zero


def test_eliminate_zero_divisors_preserves_series(z6_chain):
    fixed = eliminate_zero_divisors(z6_chain)
    assert bounded_equivalence(z6_chain, fixed, 4).is_ok
    ev = Evaluator(fixed)
    for t in enumerate_trees(z6_chain.alphabet, 4):
        assert ev.evaluate(t) == naive_evaluate(z6_chain, t)


def test_eliminate_zero_divisors_preserves_run_counts(z6_chain):
    fixed = eliminate_zero_divisors(z6_chain)
    ev, ev_fixed = Evaluator(z6_chain), Evaluator(fixed)
    for t, _ in RunsTable(z6_chain, 4).support():
        assert len(ev_fixed.accepting_runs(t)) == len(ev.accepting_runs(t))


def test_eliminate_zero_divisors_trivial_cases(doubling_image):
    # Zero-divisor free semiring: returned unchanged.
    assert eliminate_zero_divisors(doubling_image) is doubling_image
    ones = Automaton(
        Z6, RankedAlphabet([("a", 0)]), ["q", "bot"], ["q"],
        [(Tree("a", ()), "q", Weight(Z6, 1), ()),
         (Tree("a", ()), "bot", Weight(Z6, 1), ())],
        sink="bot")
    assert eliminate_zero_divisors(ones) is ones


def test_eliminate_zero_divisors_requires_eq_restricted(constrained_pair):
    with pytest.raises(AutomatonError):
        eliminate_zero_divisors(constrained_pair)


def test_eliminate_zero_divisors_constrained_instance(z6_image):
    fixed = eliminate_zero_divisors(z6_image)
    assert eq_restriction_violation(fixed) is None
    assert bounded_equivalence(z6_image, fixed, 4).is_ok
    table = RunsTable(fixed, 4)
    assert table.trees  # the construction kept a nonempty language
    for t in table.trees:
        for q in fixed.real_states:
            for run in table.runs(t, q):
                assert not run.weight.is_zero
    # Only n = 0 survives: 3 * 2^n = 0 mod 6 once n >= 1.
    assert [t.text for t, _ in RunsTable(fixed, 4).support()] == ["k(a,g(a))"]


# ---------------------------------------------------------- project_boolean


def test_project_boolean_golden(doubling_image):
    proj = project_boolean(doubling_image)
    assert proj.semiring.id == "boolean"
    assert proj.sink is None
    assert proj.states == ("q", "qf")
    assert rule_texts(proj) == [
        "a -> q @ 1",
        "g(q) -> q @ 1",
        "k(q,g(q)) -> qf @ 1 | 1 = 2.1",
    ]


def test_project_boolean_support_agreement(doubling_image):
    # Over a zero-sum free, zero-divisor free semiring the projection
    # recognizes exactly the support.
    proj = project_boolean(doubling_image)
    sup = [t.text for t, _ in RunsTable(doubling_image, 4).support()]
    psup = [t.text for t, _ in RunsTable(proj, 4).support()]
    assert sup == psup


def test_project_boolean_overapproximates_with_zero_divisors(z6_chain):
    # Projecting before eliminating zero divisors keeps f(g(a)), whose only
    # run weighs zero; fixing first repairs the support.
    raw = project_boolean(z6_chain)
    t = parse_term("f(g(a))", z6_chain.alphabet)
    assert Evaluator(z6_chain).evaluate(t).is_zero
    assert not Evaluator(raw).evaluate(t).is_zero
    fixed_proj = project_boolean(eliminate_zero_divisors(z6_chain))
    assert Evaluator(fixed_proj).evaluate(t).is_zero
    sup = {s.text for s, _ in RunsTable(z6_chain, 4).support()}
    assert {s.text for s, _ in RunsTable(fixed_proj, 4).support()} == sup


def test_project_boolean_wtg_path(doubling_chain):
    proj = project_boolean(doubling_chain)
    assert proj.semiring.id == "boolean"
    assert all(r.weight.is_one for r in proj.rules)
    sup = [t.text for t, _ in RunsTable(doubling_chain, 4).support()]
    assert [t.text for t, _ in RunsTable(proj, 4).support()] == sup


def test_project_boolean_rejects_other_constraints(constrained_pair):
    with pytest.raises(AutomatonError):
        project_boolean(constrained_pair)


# ---------------------------------------------------------------- linearize


def test_linearize_golden(doubling_image):
    lin = linearize(doubling_image, 2)
    assert lin.is_wtg
    assert lin.sink is None
    assert rule_texts(lin) == [
        "a -> q @ 1",
        "g(q) -> q @ 2",
        "k(a,g(a)) -> qf @ 1",
        "k(g(a),g(g(a))) -> qf @ 2",
        "k(g(g(a)),g(g(g(a)))) -> qf @ 4",
    ]


def test_linearize_height_zero(doubling_image):
    lin = linearize(doubling_image, 0)
    assert rule_texts(lin) == [
        "a -> q @ 1",
        "g(q) -> q @ 2",
        "k(a,g(a)) -> qf @ 1",
    ]


def test_linearize_agrees_up_to_height(doubling_image):
    # lin(A, 2) and A agree on all trees whose constrained subtrees fit.
    lin = linearize(doubling_image, 2)
    assert bounded_equivalence(doubling_image, lin, 4).is_ok
    verdict = bounded_equivalence(doubling_image, lin, 5)
    assert not verdict.is_ok
    t, va, vb = verdict.witness
    assert t.text == "k(g(g(g(a))),g(g(g(g(a)))))"
    assert (va.value, vb.value) == (8, 0)


def test_linearize_unconstrained_input_is_plain_copy(doubling_chain):
    lin = linearize(doubling_chain, 2)
    assert rule_texts(lin) == rule_texts(doubling_chain)


def test_linearize_arctic_image(arctic_chain, full_duplication):
    img = hom_image(arctic_chain, full_duplication)
    lin = linearize(img, 1)
    assert rule_texts(lin) == [
        "c -> qa @ 0",
        "c -> qb @ 0",
        "k(c,c) -> qa @ 1",
        "k(c,c) -> qb @ 2",
        "k(k(c,c),k(c,c)) -> qa @ 2",
        "k(k(c,c),k(c,c)) -> qb @ 4",
    ]


def test_linearize_accepts_sink_free_constraints(constrained_pair):
    # Without a sink every constrained position is real, so each one
    # multiplies in its own factor: 1 * 2^n * 2^n here.
    lin = linearize(constrained_pair, 1)
    assert rule_texts(lin) == [
        "a -> q @ 1",
        "g(q) -> q @ 2",
        "k(a,g(a)) -> qf @ 1",
        "k(g(a),g(g(a))) -> qf @ 4",
    ]
    assert bounded_equivalence(constrained_pair, lin, 3).is_ok


# Sink-free automata whose constrained class {1, 2.1} holds two distinct
# real states: a class tree must reach both, and weighs in each one's value.
TWO_STATE_CLASS = """semiring: integer
states: p r q qf
final: qf
rules:
a -> p @ 2
g(p) -> r @ 3
g(r) -> p @ 1
a -> q @ 3
g(q) -> q @ -1
k(p,g(q)) -> qf @ 1 | 1 = 2.1
k(qf,p) -> qf @ 3
"""
# At a, p weighs 2 and q weighs 3, whose product is the zero divisor 0 of
# z6: the first rule's instance at a still comes first, so the merged rule
# for k(a,g(a)) does too.
Z6_TWO_STATE_CLASS = """semiring: z6
states: p q qf
final: qf
rules:
a -> p @ 2
a -> q @ 3
g(p) -> p @ 1
g(q) -> p @ 1
g(p) -> q @ 1
g(q) -> q @ 1
k(p,g(q)) -> qf @ 1 | 1 = 2.1
k(q,g(q)) -> qf @ 1 | 1 = 2.1
"""


def test_linearize_class_of_two_distinct_states():
    A = parse_automaton(TWO_STATE_CLASS)
    kept = ["a -> p @ 2", "g(p) -> r @ 3", "g(r) -> p @ 1", "a -> q @ 3", "g(q) -> q @ -1"]
    # g(a) reaches q and r but not p, so no rule instantiates it.
    assert [r.text for r in linearize(A, 0).rules] == [
        *kept, "k(a,g(a)) -> qf @ 6", "k(qf,p) -> qf @ 3"]
    assert [r.text for r in linearize(A, 1).rules] == [
        *kept, "k(a,g(a)) -> qf @ 6", "k(qf,p) -> qf @ 3"]
    assert [r.text for r in linearize(A, 2).rules] == [
        *kept, "k(a,g(a)) -> qf @ 6", "k(g(g(a)),g(g(g(a)))) -> qf @ 18", "k(qf,p) -> qf @ 3"]
    A = parse_automaton(Z6_TWO_STATE_CLASS)
    kept = [r.text for r in A.rules[:6]]
    assert [r.text for r in linearize(A, 0).rules] == [*kept, "k(a,g(a)) -> qf @ 3"]
    assert [r.text for r in linearize(A, 1).rules] == [
        *kept, "k(a,g(a)) -> qf @ 3", "k(g(a),g(g(a))) -> qf @ 2"]
    assert [r.text for r in linearize(A, 2).rules] == [
        *kept, "k(a,g(a)) -> qf @ 3", "k(g(a),g(g(a))) -> qf @ 2",
        "k(g(g(a)),g(g(g(a)))) -> qf @ 2"]


def test_linearize_sums_the_runs_whose_classes_fit():
    # linearize(A, k) gives each tree the summed weight of A's accepting
    # runs whose constrained classes capture subtrees of height <= k.
    rng = random.Random(16)
    instances = [parse_automaton(TWO_STATE_CLASS), parse_automaton(Z6_TWO_STATE_CLASS)]
    for sr_id in ("natural", "integer", "z6", "tropical", "arctic") * 4:
        image = hom_image(*random_pair(rng, sr_id))
        if not image.is_wtg:
            instances.append(image)
    assert len(instances) >= 8
    for A in instances:
        trees = enumerate_trees(A.alphabet, 4)
        for k in (0, 1):
            ev = Evaluator(linearize(A, k))
            for t in trees:
                assert ev.evaluate(t) == naive_linearized_value(A, k, t)


def test_linearize_rejects_broken_sink_discipline(doubling_image):
    # A sink state fed into a real rule without a leading real position
    # breaks the eq-restriction, and such inputs are refused.
    ext = set(doubling_image.states)
    rules = rule_specs(doubling_image.rules)
    rules.append((parse_term("g(bot)", None, ext=ext), "q",
                  Weight(NAT, 1), ()))
    broken = Automaton(doubling_image.semiring, doubling_image.alphabet,
                       doubling_image.states, doubling_image.finals,
                       rules, sink=doubling_image.sink)
    with pytest.raises(AutomatonError):
        linearize(broken, 2)


# ------------------------------------------- projection/linearize commute


def test_projection_commutes_with_linearization(doubling_image):
    for L in (0, 1, 2):
        lhs = project_boolean(linearize(doubling_image, L))
        rhs = linearize(project_boolean(doubling_image), L)
        assert automata_equal(canonical_rename(lhs), canonical_rename(rhs))


def test_projection_commutes_on_arctic_image(arctic_chain, full_duplication):
    img = hom_image(arctic_chain, full_duplication)
    for L in (0, 1):
        lhs = project_boolean(linearize(img, L))
        rhs = linearize(project_boolean(img), L)
        assert automata_equal(canonical_rename(lhs), canonical_rename(rhs))


# ------------------------------------------------------------ canonicalizing


def test_canonical_form_sorts(doubling_image):
    canon = canonical_form(doubling_image)
    assert canon.states == tuple(sorted(doubling_image.states))
    assert [r.text for r in canon.rules] == sorted(r.text for r in canon.rules)
    assert automata_equal(canon, doubling_image)


def test_canonical_rename(doubling_image):
    renamed = canonical_rename(doubling_image)
    assert renamed.sink == "bot"
    assert set(renamed.states) == {"s0", "s1", "bot"}
    assert bounded_equivalence(renamed, doubling_image, 4).is_ok


def test_automata_equal_modulo_rename(doubling_chain):
    rename = {"q": "p0", "qf": "p1"}
    moved = Automaton(
        doubling_chain.semiring, doubling_chain.alphabet,
        [rename[q] for q in doubling_chain.states],
        [rename[q] for q in doubling_chain.finals],
        [(relabel_tree(r.lhs, rename), rename[r.target], r.weight, ())
         for r in doubling_chain.rules])
    assert not automata_equal(doubling_chain, moved)
    assert automata_equal(canonical_rename(doubling_chain), canonical_rename(moved))


def test_linearize_builds_no_table_when_nothing_is_instantiated(z6_chain, doubling_image,
                                                                   monkeypatch):
    def no_fill(self, h):
        raise AssertionError("RunsTable layer filled")

    monkeypatch.setattr("treehom.automaton.RunsTable.layer", no_fill)
    # Under a linear hom the image has no constrained rule, so linearization
    # instantiates nothing.  z6_chain's own sink bot is a real state of the
    # image, whose fresh sink is bot_.
    target = RankedAlphabet([("a", 0), ("h", 1), ("f", 1)])
    h = TreeHomomorphism(z6_chain.alphabet, target, {
        "a": parse_term("a", target),
        "g": parse_term("h(x1)", target, ext={"x1"}),
        "f": parse_term("f(x1)", target, ext={"x1"}),
    })
    image = hom_image(z6_chain, h)
    assert eq_restriction_violation(image) is None
    assert format_automaton(linearize(image, 2)) == (
        "semiring: z6\n"
        "states: bot q qf\n"
        "final: qf\n"
        "rules:\n"
        "a -> bot @ 1\n"
        "a -> q @ 2\n"
        "f(bot) -> bot @ 1\n"
        "f(q) -> qf @ 1\n"
        "h(bot) -> bot @ 1\n"
        "h(q) -> q @ 3\n"
    )
    # A constrained class is instantiated from the table's state languages.
    with pytest.raises(AssertionError, match="RunsTable layer filled"):
        linearize(doubling_image, 2)
