import random

import pytest
from hypothesis import given, strategies as st

from treehom import (
    Automaton,
    AutomatonError,
    Evaluator,
    RankedAlphabet,
    RunsTable,
    TermError,
    Tree,
    Weight,
    check_unambiguous,
    eliminate_zero_divisors,
    enumerate_trees,
    eq_restriction_violation,
    format_position,
    format_run,
    get_semiring,
    hom_image,
    linearize,
    parse_term,
    run_state_map,
    tree_key,
)
from treehom.automaton import _relaxed_rules, first_diverging_height, make_rule
from treehom.cli import load_automaton, load_hom
from oracles import (
    BRANCHING_SOURCES,
    check_run,
    naive_accepting_runs,
    naive_evaluate,
    naive_format_run,
    naive_rule_data,
    naive_run_state_map,
    naive_run_weight,
    naive_runs,
    naive_state_value,
    naive_unambiguous,
    random_branching_hom,
    random_modular_pair,
    random_pair,
    random_weight,
    random_wta,
    rule_specs,
    state_language_up_to,
    with_sink,
)

NAT = get_semiring("natural")


def build(semiring_id, alphabet_pairs, states, finals, rule_texts, sink=None):
    sr = get_semiring(semiring_id)
    alphabet = RankedAlphabet(alphabet_pairs)
    rules = []
    for text in rule_texts:
        main, _, constraint = text.partition("|")
        lhs_text, _, rest = main.partition("->")
        target, _, weight = rest.partition("@")
        pairs = []
        for chunk in constraint.split(",") if constraint else []:
            a, _, b = chunk.partition("=")
            pairs.append((
                tuple(int(i) for i in a.strip().split(".")),
                tuple(int(i) for i in b.strip().split(".")),
            ))
        rules.append((
            parse_term(lhs_text.strip(), None, ext=set(states)),
            target.strip(),
            sr.parse(weight.strip()),
            tuple(pairs),
        ))
    return Automaton(sr, alphabet, states, finals, rules, sink=sink)


# Flat rules with and without a constraint between their children, plus a
# constrained rule that is not flat: the chart captures a flat rule's subtrees
# as the tree's children and compares them only for the constrained ones.
FLAT_CONSTRAINED = build(
    "natural", [("a", 0), ("b", 0), ("g", 1), ("k", 2)], ["q", "p", "r"], ["p", "r"],
    [
        "a -> q @ 2",
        "b -> q @ 3",
        "g(q) -> q @ 2",
        "k(q,q) -> p @ 1 | 1 = 2",
        "k(q,q) -> p @ 5",
        "k(p,q) -> r @ 7 | 1 = 2",
        "k(q,g(q)) -> r @ 3 | 1 = 2.1",
    ],
)


def test_evaluate_doubling_chain(doubling_chain):
    t = parse_term("f(g(g(a)))", doubling_chain.alphabet)
    assert Evaluator(doubling_chain).evaluate(t).value == 4
    t5 = parse_term("f(g(g(g(g(g(a))))))", doubling_chain.alphabet)
    assert Evaluator(doubling_chain).evaluate(t5).value == 32
    assert Evaluator(doubling_chain).evaluate(parse_term("a", doubling_chain.alphabet)).is_zero


def test_evaluate_constrained_pair(constrained_pair):
    t = parse_term("k(g(g(a)),g(g(g(a))))", constrained_pair.alphabet)
    assert Evaluator(constrained_pair).evaluate(t).value == 16
    # The constraint rejects unequal siblings even when states would fit.
    bad = parse_term("k(g(a),g(g(g(a))))", constrained_pair.alphabet)
    assert Evaluator(constrained_pair).evaluate(bad).is_zero


def test_evaluate_eq_restricted_image(doubling_image):
    t = parse_term("k(g(g(a)),g(g(g(a))))", doubling_image.alphabet)
    assert Evaluator(doubling_image).evaluate(t).value == 4


def test_run_weight_factors_per_position(constrained_pair, doubling_image):
    # Every state position contributes its own factor: the constrained
    # automaton squares the subtree weight while the eq-restricted variant
    # routes the copy through the weight-one sink.
    t = parse_term("k(g(g(a)),g(g(g(a))))", constrained_pair.alphabet)
    runs = Evaluator(constrained_pair).accepting_runs(t)
    assert len(runs) == 1
    assert runs[0].weight.value == 16
    runs_im = Evaluator(doubling_image).accepting_runs(t)
    assert len(runs_im) == 1
    assert runs_im[0].weight.value == 4


def test_run_subject_and_state_map(doubling_chain):
    t = parse_term("f(g(a))", doubling_chain.alphabet)
    (run,) = Evaluator(doubling_chain).accepting_runs(t)
    assert run.subject == t
    assert run.target == "qf"
    assert run_state_map(run) == {(): "qf", (1,): "q", (1, 1): "q"}
    rendered = format_run(run)
    assert "f(q) -> qf @ 1" in rendered and "a -> q @ 1" in rendered


def test_runs_to_state(doubling_chain):
    t = parse_term("g(g(a))", doubling_chain.alphabet)
    ev = Evaluator(doubling_chain)
    runs = ev.runs(t, "q")
    assert len(runs) == 1
    assert runs[0].weight.value == 4
    assert ev.runs(t, "qf") == ()


def test_runs_to_an_undeclared_state(doubling_chain):
    # The tree is valid, so the state is what gets reported, whether or not
    # the chart already holds the tree.
    ev = Evaluator(doubling_chain)
    t = ev.parse("f(g(a))")
    for chart in (ev, Evaluator(doubling_chain), RunsTable(doubling_chain, 2)):
        with pytest.raises(AutomatonError) as err:
            chart.runs(t, "nowhere")
        assert str(err.value) == "undeclared state: nowhere"


def test_state_weight(doubling_chain):
    t = parse_term("g(g(a))", doubling_chain.alphabet)
    chart = Evaluator(doubling_chain)
    assert chart.state_value(t, "q") == 4
    assert chart.state_value(t, "qf") == doubling_chain.semiring.zero


def test_nondeterminism_sums_run_weights(counting_chain):
    # k(c,c) analogue on the source side: two rules both target q.
    two_rules = build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 2"])
    assert Evaluator(two_rules).evaluate(parse_term("a", two_rules.alphabet)).value == 2
    t = parse_term("g(b)", counting_chain.alphabet)
    assert Evaluator(counting_chain).evaluate(t).value == 3


def test_duplicate_rules_rejected():
    with pytest.raises(AutomatonError) as err:
        build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 2", "a -> q @ 3"])
    assert str(err.value) == "duplicate rule: a -> q @ 3"
    # A rule is its (lhs, constraint classes, target): the same pair written
    # the other way round is the same rule.
    with pytest.raises(AutomatonError) as err:
        build("natural", [("a", 0), ("k", 2)], ["q"], ["q"],
              ["a -> q @ 1", "k(q,q) -> q @ 2 | 1 = 2", "k(q,q) -> q @ 3 | 2 = 1"])
    assert str(err.value) == "duplicate rule: k(q,q) -> q @ 3 | 1 = 2"


# (rule spec, the exact error) for each check a rule goes through, over the
# alphabet a/0 g/1 k/2 and states q, p.  Where a spec breaks several checks,
# the first in this order wins: target, weight, bare-state lhs, then the lhs
# nodes in preorder, then the constraint.
RULE_ERRORS = [
    ((Tree("p"), "q", NAT.one_weight),
     "left-hand side must not be a bare state: p"),
    ((Tree("k", (Tree("q", (Tree("a"),)), Tree("a"))), "q", NAT.one_weight),
     "state q used with arguments in k(q(a),a)"),
    ((Tree("g", (Tree("h"),)), "q", NAT.one_weight),
     "undeclared symbol h in g(h)"),
    ((Tree("g", (Tree("q"), Tree("q"))), "q", NAT.one_weight),
     "symbol g has rank 1, used with 2 arguments in g(q,q)"),
    ((Tree("a"), "z", NAT.one_weight), "undeclared target state: z"),
    ((Tree("a"), "q", 1), "rule weight must be a Weight, got 1"),
    ((Tree("a"), "q", get_semiring("tropical").one_weight),
     "rule weight lives in tropical, automaton in natural"),
    ((Tree("a"), "q", Weight(NAT, 0)), "zero-weight rule: a -> q"),
    ((Tree("k", (Tree("q"), Tree("a"))), "q", NAT.one_weight, (((1,), (2,)),)),
     "constraint position 2 is not a state position"),
    ((Tree("k", (Tree("q"), Tree("p"))), "q", NAT.one_weight, (((1,), (2,)), ((2,), (1, 1)))),
     "constraint position 1.1 is not a state position"),
    ((Tree("p"), "z", Weight(NAT, 0)), "undeclared target state: z"),
    ((Tree("p"), "q", Weight(NAT, 0)), "zero-weight rule: p -> q"),
    ((Tree("k", (Tree("g", (Tree("q"), Tree("q"))), Tree("h"))), "q", NAT.one_weight),
     "symbol g has rank 1, used with 2 arguments in k(g(q,q),h)"),
    ((Tree("k", (Tree("h"), Tree("g", (Tree("q"), Tree("q"))))), "q", NAT.one_weight),
     "undeclared symbol h in k(h,g(q,q))"),
    ((Tree("k", (Tree("g", (Tree("p", (Tree("a"),)),)), Tree("q"))), "q", NAT.one_weight,
      (((2,), (3,)),)),
     "state p used with arguments in k(g(p(a)),q)"),
]


def test_rule_validation_errors():
    alphabet = RankedAlphabet([("a", 0), ("g", 1), ("k", 2)])
    for spec, message in RULE_ERRORS:
        with pytest.raises(AutomatonError) as err:
            Automaton(NAT, alphabet, ["q", "p"], ["q"], [spec])
        assert str(err.value) == message
    with pytest.raises(AutomatonError) as err:
        build("natural", [("a", 0)], ["q", "bot"], ["bot"],
              ["a -> q @ 1", "a -> bot @ 1"], sink="bot")
    assert str(err.value) == "sink state bot must not be final"


RULE_ALPHABET = RankedAlphabet([("a", 0), ("g", 1), ("k", 2)])
RULE_STATES = ("q", "p")


def lhs_strategy():
    """Left-hand sides over a/0 g/1 k/2 with state leaves q and p below the
    root: nested, flat and ground ones, and ground subterms beside states."""
    leaf = st.sampled_from(["a", "q", "p"]).map(Tree)

    def extend(children):
        return st.one_of(st.builds(lambda c: Tree("g", (c,)), children),
                         st.builds(lambda c, d: Tree("k", (c, d)), children, children))

    return st.one_of(st.just(Tree("a")), extend(st.recursive(leaf, extend, max_leaves=6)))


# Fixed cases beside the drawn ones: ground, flat with and without a pair,
# nested with a chain of pairs, a ground subterm between states.
RULE_CASES = [
    (Tree("a"), ()),
    (Tree("k", (Tree("q"), Tree("p"))), ()),
    (Tree("k", (Tree("q"), Tree("p"))), (((2,), (1,)),)),
    (Tree("k", (Tree("g", (Tree("q"),)), Tree("k", (Tree("p"), Tree("q"))))),
     (((2, 2), (2, 1)), ((1, 1), (2, 2)))),
    (Tree("k", (Tree("k", (Tree("a"), Tree("q"))), Tree("g", (Tree("p"),)))), (((2, 1), (1, 2)),)),
    (Tree("g", (Tree("k", (Tree("a"), Tree("g", (Tree("a"),)))),)), ()),
]


def check_rule_data(lhs, pairs):
    rule = make_rule(RULE_ALPHABET, RULE_STATES, NAT, lhs, "q", NAT.one_weight, pairs)
    expected = naive_rule_data(lhs, RULE_STATES, pairs)
    assert {name: getattr(rule, name) for name in expected} == expected
    assert rule.constraint_text == ", ".join(
        f"{format_position(a)} = {format_position(b)}" for a, b in expected["pairs"])


def test_make_rule_on_fixed_cases():
    for lhs, pairs in RULE_CASES:
        check_rule_data(lhs, pairs)


@given(lhs_strategy(), st.data())
def test_make_rule_matches_the_naive_reference(lhs, data):
    where = naive_rule_data(lhs, RULE_STATES, ())["state_positions"]
    pairs = ()
    if where:
        position = st.sampled_from(where)
        pairs = tuple(data.draw(st.lists(st.tuples(position, position), max_size=4)))
    check_rule_data(lhs, pairs)


def test_classification(doubling_chain, doubling_image, constrained_pair):
    assert doubling_chain.is_wta and doubling_chain.is_wtg
    assert not doubling_image.is_wtg
    deep = build("natural", [("a", 0), ("g", 1)], ["q"], ["q"],
                 ["a -> q @ 1", "g(g(q)) -> q @ 2"])
    assert deep.is_wtg and not deep.is_wta


def test_eq_restriction_verdicts(doubling_image, constrained_pair, z6_chain):
    assert eq_restriction_violation(doubling_image) is None
    assert eq_restriction_violation(z6_chain) is None
    reason = eq_restriction_violation(constrained_pair)
    assert reason is not None and "sink" in reason


def test_eq_restriction_needs_exactly_one_real_position():
    bad = build(
        "natural", [("a", 0), ("k", 2)], ["q", "qf", "bot"], ["qf"],
        ["a -> q @ 1", "k(q,q) -> qf @ 1 | 1 = 2",
         "a -> bot @ 1", "k(bot,bot) -> bot @ 1"],
        sink="bot")
    reason = eq_restriction_violation(bad)
    assert reason is not None


def test_eq_restriction_needs_complete_sink_rules():
    incomplete = build(
        "natural", [("a", 0), ("g", 1)], ["q", "bot"], ["q"],
        ["a -> q @ 1", "a -> bot @ 1"],
        sink="bot")
    assert eq_restriction_violation(incomplete) is not None


def test_support_doubling_image(doubling_image):
    sup = RunsTable(doubling_image, 4).support()
    assert [(t.text, w.value) for t, w in sup] == [
        ("k(a,g(a))", 1),
        ("k(g(a),g(g(a)))", 2),
        ("k(g(g(a)),g(g(g(a))))", 4),
    ]


def test_support_z6_drops_zero_sums(z6_chain):
    # 2 * 3^n = 0 mod 6 for n >= 1, so only f(a) stays in the support.
    sup = RunsTable(z6_chain, 4).support()
    assert [(t.text, w.value) for t, w in sup] == [("f(a)", 2)]


def test_state_language(doubling_chain):
    lang = state_language_up_to(doubling_chain, "q", 2)
    assert [(t.text, w.value) for t, w in lang] == [
        ("a", 1), ("g(a)", 2), ("g(g(a))", 4)]


def test_state_language_of_pure_sink(doubling_image):
    lang = state_language_up_to(doubling_image, "bot", 1)
    texts = [t.text for t, w in lang]
    assert texts == [t.text for t in enumerate_trees(doubling_image.alphabet, 1)]
    assert all(w.is_one for _, w in lang)


def test_check_unambiguous_stops_at_the_first_ambiguous_height():
    # a has two accepting runs; the trees over m/2 grow doubly exponentially
    # with height, so the check must not build the layers above height 0.
    A = build("natural", [("a", 0), ("m", 2)], ["q", "p"], ["q", "p"],
              ["a -> q @ 1", "a -> p @ 1", "m(q,q) -> q @ 1"])
    verdict = check_unambiguous(A, 40)
    assert not verdict.is_ok and verdict.bound == 40
    assert verdict.witness[0].text == "a"


def test_check_unambiguous(doubling_chain, counting_chain):
    assert check_unambiguous(doubling_chain, 4).is_ok
    assert check_unambiguous(counting_chain, 4).is_ok
    two = build("natural", [("a", 0)], ["q", "p"], ["q", "p"],
                ["a -> q @ 1", "a -> p @ 1"])
    verdict = check_unambiguous(two, 2)
    assert not verdict.is_ok
    witness_tree, runs = verdict.witness
    assert witness_tree.text == "a" and len(runs) == 2


def unambiguity_key(v):
    """Everything a check_unambiguous verdict reports, runs as text."""
    if v.witness is None:
        return (v.status, v.bound, v.detail, None)
    t, runs = v.witness
    return (v.status, v.bound, v.detail, t.text, tuple(format_run(run) for run in runs))


def colliding_when_relaxed():
    """Eq-restricted automaton whose two k rules differ only in their
    constraint, so they would merge once the constraints are dropped."""
    return build("natural", [("a", 0), ("g", 1), ("k", 2)], ["q", "qf", "bot"], ["qf"],
                 ["a -> q @ 1", "g(q) -> q @ 1", "k(q,bot) -> qf @ 1 | 1 = 2",
                  "k(q,bot) -> qf @ 2", "a -> bot @ 1", "g(bot) -> bot @ 1",
                  "k(bot,bot) -> bot @ 1"], sink="bot")


def unambiguity_instances(data_dir):
    """(automaton, largest bound) for the unambiguity differential test."""
    for path in sorted(data_dir.glob("*.aut")):
        yield load_automaton(path), 4
    # The two shared images of acceptance check C09: both are ambiguous.
    for aut, hom in (("arctic_chain", "full_duplication"),
                     ("counting_chain", "shifted_duplication")):
        yield hom_image(load_automaton(data_dir / f"{aut}.aut"),
                        load_hom(data_dir / f"{hom}.hom")), 4
    yield colliding_when_relaxed(), 4
    rng = random.Random(2309)
    for i in range(150):
        if i % 5 == 4:
            A, h = random_modular_pair(rng)
        else:
            h = random_branching_hom(rng)
            sr = ("natural", "arctic", "tropical", "boolean", "integer")[i % 5]
            A = random_wta(rng, h.source, sr, rng.randint(1, 3))
        image = hom_image(A, h)
        fixed = eliminate_zero_divisors(image)
        for B in (image, fixed, linearize(fixed, 1)):
            yield B, 3


def test_check_unambiguous_matches_naive(data_dir):
    statuses = set()
    for A, top in unambiguity_instances(data_dir):
        for bound in range(top + 1):
            expected = naive_unambiguous(A, bound)
            assert unambiguity_key(check_unambiguous(A, bound)) == unambiguity_key(expected)
            statuses.add(expected.status)
    assert statuses == {"ok", "witness"}


def test_relaxed_pair_fixpoint_is_exact(data_dir):
    """On a constraint-free automaton over a zero-divisor-free semiring the
    relaxation is the automaton itself and no run weighs zero, so the pair
    fixpoint gives the least height of a tree with two accepting runs, not
    only a height below it: exactly the height of the first naive witness."""
    instances = [load_automaton(path) for path in sorted(data_dir.glob("*.aut"))]
    instances = [A for A in instances if A.is_wtg and A.semiring.zero_divisor_free]
    # Two random WTAs over one state set, merged: nondeterministic, so
    # ambiguous at some heights, unlike one random WTA.
    binary = RankedAlphabet([("a", 0), ("k", 2)])
    rng = random.Random(1811)
    for i in range(90):
        sr = ("natural", "tropical", "arctic", "integer", "boolean")[i % 5]
        first, second = (random_wta(rng, binary, sr, 1 + i % 3) for _ in range(2))
        rules = {(r.lhs, r.target): (r.lhs, r.target, r.weight) for r in first.rules + second.rules}
        instances.append(Automaton(first.semiring, binary, first.states, first.finals,
                                   list(rules.values())))
    saturated = set()
    for A in instances:
        got = first_diverging_height(_relaxed_rules(A), A.finals)
        if got is None or got > 4:
            assert naive_unambiguous(A, 4).is_ok
        else:
            verdict = naive_unambiguous(A, got)
            assert not verdict.is_ok and verdict.witness[0].height == got
        saturated.add(got is None)
    assert saturated == {True, False}


def test_check_unambiguous_rules_colliding_when_relaxed():
    verdict = check_unambiguous(colliding_when_relaxed(), 3)
    t, runs = verdict.witness
    assert t.text == "k(a,a)" and [run.weight.value for run in runs] == [1, 2]


def test_check_unambiguous_rejects_a_negative_bound(doubling_chain):
    # The first two have rules that merge when relaxed, so no fixpoint runs
    # before the run chart; the last is decided by the fixpoint alone.
    for A in (FLAT_CONSTRAINED, colliding_when_relaxed(), doubling_chain):
        with pytest.raises(AutomatonError, match="height bound must be nonnegative"):
            check_unambiguous(A, -1)


def test_check_run_accepts_and_rejects(doubling_chain):
    t = parse_term("f(g(a))", doubling_chain.alphabet)
    (run,) = Evaluator(doubling_chain).accepting_runs(t)
    check_run(doubling_chain, run, expect_tree=t, expect_state="qf")
    with pytest.raises(AutomatonError):
        check_run(doubling_chain, run, expect_state="q")
    other = build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 1"])
    with pytest.raises(AutomatonError):
        check_run(other, run)


def test_check_run_verifies_constraints(doubling_image):
    t = parse_term("k(g(a),g(g(a)))", doubling_image.alphabet)
    (run,) = Evaluator(doubling_image).accepting_runs(t)
    check_run(doubling_image, run, expect_tree=t)
    bad_subject = parse_term("k(a,g(g(a)))", doubling_image.alphabet)
    with pytest.raises(AutomatonError):
        check_run(doubling_image, run, expect_tree=bad_subject)


# Two targets for some left-hand sides, and rules of one symbol into one
# state from different child states, so trees carry several runs to a state.
# k(q,q) comes before k(p,q) and k(q,p) in rule order but not in the order
# of the child-state tuples.
NONDETERMINISTIC = build(
    "natural", [("a", 0), ("g", 1), ("k", 2)], ["p", "q", "r", "s"], ["r", "s"],
    [
        "a -> p @ 1",
        "a -> q @ 2",
        "g(q) -> p @ 3",
        "g(p) -> q @ 1",
        "g(q) -> q @ 2",
        "g(r) -> s @ 1",
        "k(q,q) -> r @ 2",
        "k(p,q) -> r @ 1",
        "k(q,p) -> r @ 1",
        "k(r,p) -> s @ 1",
        "k(p,p) -> q @ 3",
    ],
)


def branching_image():
    """An eq-restricted image whose constrained left-hand sides are not flat,
    such as k(k(s0,bot),g(c)) | 1.1 = 1.2, with trees of several runs."""
    rng = random.Random(233)
    h = random_branching_hom(rng)
    image = hom_image(random_wta(rng, h.source, "natural", 3), h)
    assert eq_restriction_violation(image) is None
    assert any(rule.constrained and not rule.flat for rule in image.rules)
    return image


def test_runs_match_naive_enumeration(doubling_image, constrained_pair, z6_chain):
    # Runs come in (rule index, child-run order), as the naive recursion
    # lists them, on enumerated trees and on parsed ones, which share equal
    # subterms.
    image = branching_image()
    instances = [(A, enumerate_trees(A.alphabet, 3)) for A in
                 (doubling_image, constrained_pair, z6_chain, FLAT_CONSTRAINED, NONDETERMINISTIC)]
    instances.append((image, RunsTable(image, 3).trees + enumerate_trees(image.alphabet, 2)))
    several = 0
    for A, trees in instances:
        for ts in (trees, [parse_term(t.text, A.alphabet) for t in trees]):
            ev = Evaluator(A)
            for t in ts:
                for q in A.states:
                    got = ev.runs(t, q)
                    assert list(got) == naive_runs(A, t, q)
                    several += len(got) > 1
                    for run in got:
                        check_run(A, run, expect_tree=t, expect_state=q)
    assert several


def test_value_only_chart_matches_naive_runs():
    # A cell maps each state with runs to its summed run weight, and nothing
    # else, whether filled from a parse's node list (shared subterms), by
    # walking an enumerated tree (distinct equal copies) or by a RunsTable;
    # the runs re-derived from it come in the naive recursion's order.
    image = branching_image()
    for A, trees in ((NONDETERMINISTIC, enumerate_trees(NONDETERMINISTIC.alphabet, 3)),
                     (image, RunsTable(image, 3).trees + enumerate_trees(image.alphabet, 2))):
        table = RunsTable(A, 3)
        for t in trees:
            filled = Evaluator(A)
            parsed = filled.parse(t.text)
            want = {q: naive_runs(A, t, q) for q in A.states}
            want_cell = {q: naive_state_value(A, t, q) for q in A.real_states if want[q]}
            for ev, s in ((filled, parsed), (Evaluator(A), t), (table, t)):
                assert ev._cell(s) == want_cell
                for q in A.states:
                    assert list(ev.runs(s, q)) == want[q]
                    assert ev.state_value(s, q) == naive_state_value(A, t, q)
                assert list(ev.accepting_runs(s)) == naive_accepting_runs(A, t)


def test_runs_table_has_no_runs_outside_its_trees(doubling_chain, doubling_image):
    # Each tall tree is one level taller than its table, whose trees hold its
    # children, and a rule applies at it: it has runs, but not in the table.
    for A, bound, inside, outside, tall in (
        (doubling_chain, 2, "f(g(a))", "f(f(a))", "f(g(g(a)))"),
        (doubling_image, 3, "k(g(a),g(g(a)))", "k(a,a)", "k(g(g(a)),g(g(g(a))))"),
    ):
        table = RunsTable(A, bound)
        t = parse_term(tall, A.alphabet)
        assert t.height == bound + 1 and naive_accepting_runs(A, t)
        assert table.accepting_runs(parse_term(inside, A.alphabet))
        for text in (outside, tall):
            t = parse_term(text, A.alphabet)
            assert table.accepting_runs(t) == ()
            for q in A.real_states:
                assert table.runs(t, q) == ()


def test_run_walkers_match_recursive_references(doubling_image, constrained_pair, z6_chain):
    for A in (doubling_image, constrained_pair, z6_chain, FLAT_CONSTRAINED):
        ev = Evaluator(A)
        for t in enumerate_trees(A.alphabet, 3):
            for q in A.states:
                for run in ev.runs(t, q):
                    assert format_run(run) == naive_format_run(run)
                    assert format_run(run, "  ") == naive_format_run(run, "  ")
                    # same entries in the same order
                    assert list(run_state_map(run).items()) == \
                        list(naive_run_state_map(run).items())


def test_evaluate_matches_naive(doubling_image, constrained_pair, z6_chain, arctic_chain):
    for A in (doubling_image, constrained_pair, z6_chain, arctic_chain, FLAT_CONSTRAINED):
        ev = Evaluator(A)
        for t in enumerate_trees(A.alphabet, 3):
            assert ev.evaluate(t) == naive_evaluate(A, t)


def test_evaluate_on_shared_subterms_matches_naive():
    # Parsed terms share equal subterms, so the constrained rules compare
    # one object with itself; enumerated trees hold distinct equal copies.
    rng = random.Random(5)
    A = FLAT_CONSTRAINED
    trees = enumerate_trees(A.alphabet, 2)
    ev = Evaluator(A)
    for _ in range(200):
        x, y = rng.choice(trees), rng.choice(trees)
        for text in (f"k({x.text},{x.text})", f"k(k({x.text},{y.text}),k({x.text},{y.text}))",
                     f"k({x.text},g({x.text}))", f"k(k({x.text},{x.text}),{x.text})"):
            t = parse_term(text, A.alphabet)
            assert ev.evaluate(t) == naive_evaluate(A, t)
            for q in A.states:
                assert ev.state_value(t, q) == naive_state_value(A, t, q)


def test_random_wta_evaluate_matches_naive():
    rng = random.Random(11)
    for sr_id in ("natural", "tropical", "z6"):
        for _ in range(4):
            A, _ = random_pair(rng, sr_id)
            ev = Evaluator(A)
            for t in enumerate_trees(A.alphabet, 2):
                assert ev.evaluate(t) == naive_evaluate(A, t)
                for q in A.states:
                    assert ev.state_value(t, q) == naive_state_value(A, t, q)


EVAL_TEXT_SEMIRINGS = ("natural", "integer", "tropical", "arctic", "boolean", "z6")


def shared_tree(rng, alphabet, steps):
    """A ground tree whose children are drawn from the trees built before
    it, so equal subterms repeat."""
    pool = [Tree(name) for name, rank in alphabet.items() if rank == 0]
    inner = [(name, rank) for name, rank in alphabet.items() if rank > 0]
    for _ in range(steps):
        name, rank = rng.choice(inner)
        pool.append(Tree(name, tuple(rng.choice(pool) for _ in range(rank))))
    return pool[-1]


def spaced_text(rng, t):
    """The text of t with random whitespace around its tokens, and ``()``
    after some leaves."""
    def pad():
        return rng.choice(("", " ", "\t", "\n  "))

    if not t.children:
        return pad() + t.label + (pad() + "(" + pad() + ")" if rng.random() < 0.3 else "") + pad()
    inner = ",".join(spaced_text(rng, c) for c in t.children)
    return pad() + t.label + pad() + "(" + inner + ")" + pad()


def test_evaluate_text_matches_the_tree_path_and_naive():
    rng = random.Random(24)
    for source in BRANCHING_SOURCES:
        alphabet = RankedAlphabet(source)
        unary = [name for name, rank in source if rank == 1]
        for sr_id in EVAL_TEXT_SEMIRINGS:
            for n_states in range(1, 5):
                A = random_wta(rng, alphabet, sr_id, n_states)
                assert A.is_wta
                texts = []
                for steps in range(5):
                    t = shared_tree(rng, alphabet, steps)
                    texts.append((spaced_text(rng, t), t))
                if unary:
                    texts.append((f"{unary[0]}(" * 3000 + "a" + ")" * 3000, None))
                for text, t in texts:
                    ev = Evaluator(A)
                    got = Evaluator(A).evaluate_text(text)
                    assert got == ev.evaluate(ev.parse(text))
                    if t is not None and n_states ** t.size <= 4096:  # naive lists every run
                        assert got == naive_evaluate(A, t)


def test_evaluate_text_of_other_automata_takes_the_tree_path(doubling_image, constrained_pair,
                                                              monkeypatch):
    # Constrained rules, and an unconstrained rule that is not flat: both
    # compare or capture subtrees below the children, so they need trees.
    deep = build("natural", [("a", 0), ("g", 1)], ["q"], ["q"],
                 ["a -> q @ 2", "g(q) -> q @ 3", "g(g(q)) -> q @ 5"])
    cases = [(doubling_image, "k(g(g(a)),g(g(g(a))))"),
             (constrained_pair, "k(g(g(a)), g(g(g(a))))"),
             (FLAT_CONSTRAINED, "k(k(a,a),k(a,a))"),
             (deep, "g(g(g(a)))")]
    parsed = []
    parse = Evaluator.parse
    monkeypatch.setattr(Evaluator, "parse", lambda self, text: parsed.append(text) or parse(self, text))
    for A, text in cases:
        assert not A.is_wta
        assert Evaluator(A).evaluate_text(text) == naive_evaluate(A, parse_term(text, A.alphabet))
    assert parsed == [text for _, text in cases]


@pytest.mark.parametrize("text", [
    "f(z)", "f(a,a)", "g", "f(a) a", "f(a))", "f(g(a)", "f(", "", "   ", "f(a,)", "f(a b)", "#",
])
def test_evaluate_text_rejects_what_parse_rejects(doubling_chain, text):
    with pytest.raises(TermError) as want:
        Evaluator(doubling_chain).parse(text)
    with pytest.raises(TermError) as got:
        Evaluator(doubling_chain).evaluate_text(text)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_evaluate_text_of_a_wta_builds_no_tree(doubling_chain, counting_chain, monkeypatch):
    evaluators = Evaluator(doubling_chain), Evaluator(counting_chain)

    def no_tree(self, *args):
        raise AssertionError("a Tree was built")

    monkeypatch.setattr(Tree, "__init__", no_tree)
    chain = "g(" * 3000 + "a" + ")" * 3000
    assert evaluators[0].evaluate_text(f"f({chain})").value == 2**3000
    assert evaluators[1].evaluate_text("g(a( ))").value == 2


def tree_path_runs(A, text, state=None):
    """What `runs_text` must give, through a parsed tree: its text, and per
    run the target, weight, subject text and printed run."""
    ev = Evaluator(A)
    t = ev.parse(text)
    runs = ev.accepting_runs(t) if state is None else ev.runs(t, state)
    return t.text, [(r.target, r.weight, r.subject.text, format_run(r)) for r in runs]


def text_path_runs(A, text, state=None):
    shown, runs = Evaluator(A).runs_text(text, state)
    return shown, [(r.target, r.weight, r.subject.text, format_run(r)) for r in runs]


def run_counter(A):
    """A with every weight one over the naturals: a tree's value at a state
    is its number of runs there."""
    one = NAT.one_weight
    return Automaton(NAT, A.alphabet, A.states, A.finals,
                     [(r.lhs, r.target, one, r.pairs) for r in A.rules], sink=A.sink)


def with_sink_positions(rng, A, sink="bot"):
    """`with_sink(A)` plus, for about half the non-leaf rules of A, a copy
    with one child state turned into the sink, so runs have sink subruns."""
    B = with_sink(A, sink)
    specs = rule_specs(B.rules)
    seen = {(lhs, target) for lhs, target, *_ in specs}
    for rule in A.rules:
        if rule.lhs.children and rng.random() < 0.5:
            kids = list(rule.lhs.children)
            kids[rng.randrange(len(kids))] = Tree(sink)
            lhs = Tree(rule.lhs.label, kids)
            if (lhs, rule.target) not in seen:
                seen.add((lhs, rule.target))
                specs.append((lhs, rule.target, random_weight(rng, A.semiring), ()))
    return Automaton(A.semiring, A.alphabet, B.states, B.finals, specs, sink=sink)


def test_runs_text_matches_the_tree_path():
    rng = random.Random(25)
    compared = sink_subruns = 0
    for source in BRANCHING_SOURCES:
        alphabet = RankedAlphabet(source)
        for sr_id in EVAL_TEXT_SEMIRINGS:
            for n_states in range(1, 4):
                A = random_wta(rng, alphabet, sr_id, n_states)
                for B in (A, with_sink(A), with_sink_positions(rng, A)):
                    assert B.is_wta
                    counter = Evaluator(run_counter(B))
                    for steps in range(8):
                        t = shared_tree(rng, alphabet, steps)
                        if max(counter.state_value(t, q) for q in B.real_states) > 2000:
                            continue  # both paths list every run
                        compared += 1
                        text = spaced_text(rng, t)
                        for state in (None, *B.states):
                            got = text_path_runs(B, text, state)
                            assert got == tree_path_runs(B, text, state)
                            assert got[0] == t.text
                            if state is None:
                                sink_subruns += sum(" -> bot @ 1" in r[3] for r in got[1])
    assert compared >= 1000 and sink_subruns >= 20


def test_runs_text_of_an_ambiguous_wta():
    # Every node has a run to each of p and q: g^n(a) has 2^(n+1) runs to f.
    A = build("natural", [("a", 0), ("g", 1)], ["p", "q"], ["p", "q"],
              ["a -> p @ 1", "a -> q @ 2", "g(p) -> p @ 1", "g(p) -> q @ 3",
               "g(q) -> p @ 2", "g(q) -> q @ 1"])
    for text in ("a", "g(a)", "g(g(g(a)))", " g ( g(a ( ) ) ) "):
        got = text_path_runs(A, text)
        assert got == tree_path_runs(A, text)
        t = parse_term(text, A.alphabet)
        assert len(got[1]) == 2 ** t.height * 2
        assert sorted(r[3] for r in got[1]) == sorted(
            format_run(r) for r in naive_accepting_runs(A, t))


def test_runs_text_of_a_3000_deep_chain(arctic_chain):
    # g^n(b) has one run, to qb, of arctic weight 2n, and none to qa.
    text = "g(" * 3000 + "b" + ")" * 3000
    shown, runs = Evaluator(arctic_chain).runs_text(text)
    assert shown == text
    (run,) = runs
    assert (run.target, run.weight.value) == ("qb", 6000)
    lines = format_run(run).split("\n")
    assert lines == ["  " * i + "g(qb) -> qb @ 2" for i in range(3000)] + ["  " * 3000 + "b -> qb @ 0"]
    assert Evaluator(arctic_chain).runs_text(text, "qa") == (text, ())


@pytest.mark.parametrize("text", [
    "f(z)", "f(a,a)", "g", "f(a) a", "f(a))", "f(g(a)", "f(", "", "   ", "f(a,)", "f(a b)", "#",
])
def test_runs_text_rejects_what_parse_rejects(doubling_chain, text):
    for state in (None, "q", "nowhere"):  # the text is reported before the state
        with pytest.raises(TermError) as want:
            Evaluator(doubling_chain).parse(text)
        with pytest.raises(TermError) as got:
            Evaluator(doubling_chain).runs_text(text, state)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_runs_text_of_an_undeclared_state(doubling_chain, doubling_image):
    for A, text in ((doubling_chain, "f(g(a))"), (doubling_image, "k(a,g(a))")):
        with pytest.raises(AutomatonError) as err:
            Evaluator(A).runs_text(text, "nowhere")
        assert str(err.value) == "undeclared state: nowhere"


def test_runs_text_of_a_constrained_automaton_matches_the_tree_path(doubling_image):
    text = "k(g(g(a)), g(g(g(a))))"
    for state in (None, *doubling_image.states):
        assert text_path_runs(doubling_image, text, state) == tree_path_runs(
            doubling_image, text, state)


def test_runs_text_of_a_wta_builds_no_tree(doubling_chain, monkeypatch):
    rng = random.Random(5)
    sinked = with_sink_positions(rng, random_wta(rng, RankedAlphabet(BRANCHING_SOURCES[0]),
                                                 "natural", 2))
    text = "m(g(a),m(a,g(a)))"
    want = {state: text_path_runs(sinked, text, state) for state in (None, *sinked.states)}
    chart = Evaluator(doubling_chain)

    def no_tree(self, *args):
        raise AssertionError("a Tree was built")

    monkeypatch.setattr(Tree, "__init__", no_tree)
    deep = "f(" + "g(" * 3000 + "a" + ")" * 3001
    shown, (run,) = chart.runs_text(deep)
    assert (shown, run.weight.value) == (deep, 2**3000)
    for state, (shown, runs) in want.items():
        assert text_path_runs(sinked, text, state) == (shown, runs)


def test_run_weights_match_naive(doubling_image):
    ev = Evaluator(doubling_image)
    for t in enumerate_trees(doubling_image.alphabet, 3):
        for run in ev.accepting_runs(t):
            assert run.weight == naive_run_weight(run)


def test_runs_table_agrees_with_direct_enumeration(doubling_image, z6_chain):
    for A in (doubling_image, z6_chain, FLAT_CONSTRAINED):
        table = RunsTable(A, 3)
        for t in enumerate_trees(A.alphabet, 3):
            for q in A.states:
                got = sorted(map(repr, table.runs(t, q)))
                want = sorted(map(repr, naive_runs(A, t, q)))
                assert got == want
            assert table.evaluate(t) == naive_evaluate(A, t)


def test_runs_table_covers_all_support_trees(doubling_image):
    table = RunsTable(doubling_image, 4)
    sup = {t.text for t, _ in table.support()}
    # Brute-force support over every tree of bounded height.
    want = {
        t.text for t in enumerate_trees(doubling_image.alphabet, 4)
        if not naive_evaluate(doubling_image, t).is_zero
    }
    assert sup == want


BRANCHING = RankedAlphabet([("a", 0), ("b", 0), ("g", 1), ("m", 2)])


def chart_instances():
    """Automata the instance generators of the other tests never make:
    3-state WTAs over a branching alphabet, images and linearized images of
    random pairs, a pure sink at an unconstrained position and in a sink-only
    class, a class joining two real states, and a final state u that no tree
    reaches, alone, next to a live state and in constraint classes, each with
    the height bound to check it at."""
    abc = [("a", 0), ("g", 1), ("k", 2)]
    sink_rules = ["a -> bot @ 1", "g(bot) -> bot @ 1", "k(bot,bot) -> bot @ 1"]
    yield build("natural", abc, ["q", "qf", "bot"], ["qf"], [
        "a -> q @ 1", "g(q) -> q @ 2", "k(q,bot) -> qf @ 1",
        "k(bot,bot) -> qf @ 3 | 1 = 2", *sink_rules,
    ], sink="bot"), 3
    yield build("z6", abc, ["q", "p", "qf"], ["qf"], [
        "a -> q @ 2", "a -> p @ 1", "g(q) -> q @ 1", "g(p) -> p @ 3",
        "k(q,g(p)) -> qf @ 1 | 1 = 2.1", "k(q,p) -> qf @ 4",
    ]), 3
    yield build("natural", abc, ["q", "qf", "u", "bot"], ["qf", "u"], [
        "a -> q @ 1", "g(q) -> q @ 2", "k(q,q) -> qf @ 1", "g(q) -> qf @ 3",
        "g(u) -> u @ 2", "g(u) -> qf @ 5", "k(q,u) -> qf @ 2",
        "k(u,g(q)) -> qf @ 1 | 1 = 2.1", "k(q,g(u)) -> qf @ 7 | 1 = 2.1",
        "k(g(u),k(bot,bot)) -> qf @ 1 | 2.1 = 2.2", *sink_rules,
    ], sink="bot"), 3
    rng = random.Random(29)
    for sr_id in ("natural", "tropical", "z6", "integer"):
        yield random_wta(rng, BRANCHING, sr_id, n_states=3), 2
    for sr_id in ("natural", "arctic", "z6", "integer") * 3:
        A, h = random_pair(rng, sr_id)
        image = hom_image(A, h)
        yield image, 3
        yield linearize(image, 1), 3


def test_chart_matches_naive_on_unseen_instances():
    for B, bound in chart_instances():
        table, ev = RunsTable(B, bound), Evaluator(B)
        for t in enumerate_trees(B.alphabet, bound):
            for q in B.states:
                got = table.runs(t, q)
                assert got == ev.runs(t, q)
                assert set(got) == set(naive_runs(B, t, q))
            assert ev.evaluate(t) == naive_evaluate(B, t)


def test_evaluate_tall_chain(doubling_chain):
    t = Tree("a")
    for _ in range(5000):
        t = Tree("g", (t,))
    assert Evaluator(doubling_chain).evaluate(Tree("f", (t,))).value == 2**5000


def test_evaluate_tall_constrained_pair(doubling_image):
    # The constraint compares two equal but distinct chains of 3,000 g nodes.
    def chain(n):
        t = Tree("a")
        for _ in range(n):
            t = Tree("g", (t,))
        return t

    n = 3000
    assert Evaluator(doubling_image).evaluate(Tree("k", (chain(n), chain(n + 1)))).value == 2**n


def test_evaluator_memoization_is_persistent(doubling_chain):
    ev = Evaluator(doubling_chain)
    t = parse_term("f(g(g(a)))", doubling_chain.alphabet)
    assert ev.evaluate(t).value == 4
    assert ev.evaluate(t).value == 4
    deeper = parse_term("f(g(g(g(a))))", doubling_chain.alphabet)
    assert ev.evaluate(deeper).value == 8


def test_accepting_runs_filter_zero_weight(z6_chain):
    # The run on f(g(a)) exists but weighs 2 * 3 = 0, hence not accepting.
    t = parse_term("f(g(a))", z6_chain.alphabet)
    assert naive_runs(z6_chain, t, "qf")
    assert Evaluator(z6_chain).accepting_runs(t) == ()


def test_ground_input_required(doubling_chain):
    with pytest.raises(AutomatonError):
        Evaluator(doubling_chain).evaluate(parse_term("f(q)", None, ext={"q"}))


def test_ground_check_names_the_first_bad_node_in_preorder():
    # Built directly, since parse_term rejects these trees.  The first fault
    # in preorder sits in a subterm shared by both children; a wrong-rank
    # node follows it in the second child.
    A = FLAT_CONSTRAINED
    a, b = Tree("a"), Tree("b")
    shared = Tree("g", (Tree("k", (a, Tree("z"))),))
    undeclared = Tree("k", (shared, Tree("k", (shared, Tree("g", (a, b))))))
    wrong_rank = Tree("k", (Tree("k", (a, Tree("b", (a,)))), shared))
    for t, message in ((undeclared, "undeclared symbol z in input tree"),
                       (wrong_rank, "symbol b used at wrong rank in input tree")):
        ev = Evaluator(A)
        for call in (lambda: Evaluator(A).evaluate(t), lambda: Evaluator(A).accepting_runs(t),
                     lambda: Evaluator(A).runs(t, "q"), lambda: Evaluator(A).runs(t, "nowhere"),
                     lambda: ev.evaluate(t), lambda: ev.accepting_runs(t)):
            with pytest.raises(AutomatonError) as err:
                call()
            assert str(err.value) == message
        # The failed calls left no cell behind: the same evaluator still
        # answers, on the good subtrees of t among others.
        for text in ("a", "g(a)", "k(a,a)", "k(g(a),g(a))", "k(k(a,a),a)", "k(a,g(a))"):
            good = parse_term(text, A.alphabet)
            assert ev.evaluate(good) == naive_evaluate(A, good)
            for q in A.states:
                assert ev.state_value(good, q) == naive_state_value(A, good, q)


def test_wta_run_count_equals_labeling_count():
    # On a WTA over the booleans, runs to q biject with rule-consistent
    # state labelings, here counted independently.
    rng = random.Random(3)
    for _ in range(3):
        A, _ = random_pair(rng, "boolean")
        ev = Evaluator(A)
        for t in enumerate_trees(A.alphabet, 2):
            for q in A.states:
                runs = ev.runs(t, q)
                maps = {tuple(sorted(run_state_map(r).items())) for r in runs}
                assert len(maps) == len(runs)
