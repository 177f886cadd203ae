import random

import pytest

from treehom import (
    Automaton,
    AutomatonError,
    Evaluator,
    RankedAlphabet,
    RunsTable,
    Tree,
    Weight,
    accepting_runs,
    check_run,
    check_unambiguous,
    eliminate_zero_divisors,
    enumerate_trees,
    eq_restriction_violation,
    evaluate,
    format_run,
    get_semiring,
    hom_image,
    is_eq_restricted,
    linearize,
    parse_term,
    run_state_map,
    runs_to_state,
    state_language_up_to,
    state_weight,
    support_up_to,
    tree_key,
)
from treehom.cli import load_automaton, load_hom
from oracles import (
    naive_accepting_runs,
    naive_evaluate,
    naive_run_weight,
    naive_runs,
    naive_state_value,
    naive_unambiguous,
    random_branching_hom,
    random_modular_pair,
    random_pair,
    random_wta,
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


def test_evaluate_doubling_chain(doubling_chain):
    t = parse_term("f(g(g(a)))", doubling_chain.alphabet)
    assert evaluate(doubling_chain, t).value == 4
    t5 = parse_term("f(g(g(g(g(g(a))))))", doubling_chain.alphabet)
    assert evaluate(doubling_chain, t5).value == 32
    assert evaluate(doubling_chain, parse_term("a", doubling_chain.alphabet)).is_zero


def test_evaluate_constrained_pair(constrained_pair):
    t = parse_term("k(g(g(a)),g(g(g(a))))", constrained_pair.alphabet)
    assert evaluate(constrained_pair, t).value == 16
    # The constraint rejects unequal siblings even when states would fit.
    bad = parse_term("k(g(a),g(g(g(a))))", constrained_pair.alphabet)
    assert evaluate(constrained_pair, bad).is_zero


def test_evaluate_eq_restricted_image(doubling_image):
    t = parse_term("k(g(g(a)),g(g(g(a))))", doubling_image.alphabet)
    assert evaluate(doubling_image, t).value == 4


def test_run_weight_factors_per_position(constrained_pair, doubling_image):
    # Every state position contributes its own factor: the constrained
    # automaton squares the subtree weight while the eq-restricted variant
    # routes the copy through the weight-one sink.
    t = parse_term("k(g(g(a)),g(g(g(a))))", constrained_pair.alphabet)
    runs = accepting_runs(constrained_pair, t)
    assert len(runs) == 1
    assert runs[0].weight.value == 16
    runs_im = accepting_runs(doubling_image, t)
    assert len(runs_im) == 1
    assert runs_im[0].weight.value == 4


def test_run_subject_and_state_map(doubling_chain):
    t = parse_term("f(g(a))", doubling_chain.alphabet)
    (run,) = accepting_runs(doubling_chain, t)
    assert run.subject == t
    assert run.target == "qf"
    assert run_state_map(run) == {(): "qf", (1,): "q", (1, 1): "q"}
    rendered = format_run(run)
    assert "f(q) -> qf @ 1" in rendered and "a -> q @ 1" in rendered


def test_runs_to_state(doubling_chain):
    t = parse_term("g(g(a))", doubling_chain.alphabet)
    runs = runs_to_state(doubling_chain, t, "q")
    assert len(runs) == 1
    assert runs[0].weight.value == 4
    assert runs_to_state(doubling_chain, t, "qf") == ()


def test_state_weight(doubling_chain):
    t = parse_term("g(g(a))", doubling_chain.alphabet)
    assert state_weight(doubling_chain, t, "q").value == 4
    assert state_weight(doubling_chain, t, "qf").is_zero


def test_nondeterminism_sums_run_weights(counting_chain):
    # k(c,c) analogue on the source side: two rules both target q.
    two_rules = build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 2"])
    assert evaluate(two_rules, parse_term("a", two_rules.alphabet)).value == 2
    t = parse_term("g(b)", counting_chain.alphabet)
    assert evaluate(counting_chain, t).value == 3


def test_duplicate_rules_rejected():
    with pytest.raises(AutomatonError):
        build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 2", "a -> q @ 3"])


def test_rule_validation_errors():
    with pytest.raises(AutomatonError):
        # bare state left-hand side
        build("natural", [("a", 0)], ["q", "p"], ["q"], ["p -> q @ 1"])
    with pytest.raises(AutomatonError):
        # undeclared target
        build("natural", [("a", 0)], ["q"], ["q"], ["a -> z @ 1"])
    with pytest.raises(AutomatonError):
        # zero weight
        build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 0"])
    with pytest.raises(AutomatonError):
        # constraint on a non-state position
        build("natural", [("a", 0), ("k", 2)], ["q"], ["q"],
              ["k(q,a) -> q @ 1 | 1 = 2"])
    with pytest.raises(AutomatonError):
        # final sink
        build("natural", [("a", 0)], ["q", "bot"], ["bot"],
              ["a -> q @ 1", "a -> bot @ 1"], sink="bot")


def test_classification(doubling_chain, doubling_image, constrained_pair):
    assert doubling_chain.is_wta and doubling_chain.is_wtg
    assert not doubling_image.is_wtg
    deep = build("natural", [("a", 0), ("g", 1)], ["q"], ["q"],
                 ["a -> q @ 1", "g(g(q)) -> q @ 2"])
    assert deep.is_wtg and not deep.is_wta


def test_eq_restriction_verdicts(doubling_image, constrained_pair, z6_chain):
    assert is_eq_restricted(doubling_image)
    assert is_eq_restricted(z6_chain)
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
    sup = support_up_to(doubling_image, 4)
    assert [(t.text, w.value) for t, w in sup] == [
        ("k(a,g(a))", 1),
        ("k(g(a),g(g(a)))", 2),
        ("k(g(g(a)),g(g(g(a))))", 4),
    ]


def test_support_z6_drops_zero_sums(z6_chain):
    # 2 * 3^n = 0 mod 6 for n >= 1, so only f(a) stays in the support.
    sup = support_up_to(z6_chain, 4)
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


def test_check_unambiguous_rules_colliding_when_relaxed():
    verdict = check_unambiguous(colliding_when_relaxed(), 3)
    t, runs = verdict.witness
    assert t.text == "k(a,a)" and [run.weight.value for run in runs] == [1, 2]


def test_check_run_accepts_and_rejects(doubling_chain):
    t = parse_term("f(g(a))", doubling_chain.alphabet)
    (run,) = accepting_runs(doubling_chain, t)
    check_run(doubling_chain, run, expect_tree=t, expect_state="qf")
    with pytest.raises(AutomatonError):
        check_run(doubling_chain, run, expect_state="q")
    other = build("natural", [("a", 0)], ["q"], ["q"], ["a -> q @ 1"])
    with pytest.raises(AutomatonError):
        check_run(other, run)


def test_check_run_verifies_constraints(doubling_image):
    t = parse_term("k(g(a),g(g(a)))", doubling_image.alphabet)
    (run,) = accepting_runs(doubling_image, t)
    check_run(doubling_image, run, expect_tree=t)
    bad_subject = parse_term("k(a,g(g(a)))", doubling_image.alphabet)
    with pytest.raises(AutomatonError):
        check_run(doubling_image, run, expect_tree=bad_subject)


def test_runs_match_naive_enumeration(doubling_image, constrained_pair, z6_chain):
    for A in (doubling_image, constrained_pair, z6_chain):
        for t in enumerate_trees(A.alphabet, 3):
            for q in A.states:
                got = runs_to_state(A, t, q)
                want = naive_runs(A, t, q)
                assert sorted(map(repr, got)) == sorted(map(repr, want))
                for run in got:
                    check_run(A, run, expect_tree=t, expect_state=q)


def test_evaluate_matches_naive(doubling_image, constrained_pair, z6_chain, arctic_chain):
    for A in (doubling_image, constrained_pair, z6_chain, arctic_chain):
        for t in enumerate_trees(A.alphabet, 3):
            assert evaluate(A, t) == naive_evaluate(A, t)


def test_random_wta_evaluate_matches_naive():
    rng = random.Random(11)
    for sr_id in ("natural", "tropical", "z6"):
        for _ in range(4):
            A, _ = random_pair(rng, sr_id)
            for t in enumerate_trees(A.alphabet, 2):
                assert evaluate(A, t) == naive_evaluate(A, t)
                for q in A.states:
                    assert Evaluator(A).state_value(t, q) == naive_state_value(A, t, q)


def test_run_weights_match_naive(doubling_image):
    for t in enumerate_trees(doubling_image.alphabet, 3):
        for run in accepting_runs(doubling_image, t):
            assert run.weight == naive_run_weight(run)


def test_runs_table_agrees_with_direct_enumeration(doubling_image, z6_chain):
    for A in (doubling_image, z6_chain):
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
    class, and a class joining two real states, each with the height bound
    to check it at."""
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
        table = RunsTable(B, bound)
        for t in enumerate_trees(B.alphabet, bound):
            for q in B.states:
                got = table.runs(t, q)
                assert got == runs_to_state(B, t, q)
                assert set(got) == set(naive_runs(B, t, q))
            assert evaluate(B, t) == naive_evaluate(B, t)


def test_evaluate_tall_chain(doubling_chain):
    t = Tree("a")
    for _ in range(5000):
        t = Tree("g", (t,))
    assert evaluate(doubling_chain, Tree("f", (t,))).value == 2**5000


def test_evaluate_tall_constrained_pair(doubling_image):
    # The constraint compares two equal but distinct chains of 3,000 g nodes.
    def chain(n):
        t = Tree("a")
        for _ in range(n):
            t = Tree("g", (t,))
        return t

    n = 3000
    assert evaluate(doubling_image, Tree("k", (chain(n), chain(n + 1)))).value == 2**n


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
    assert accepting_runs(z6_chain, t) == ()


def test_ground_input_required(doubling_chain):
    with pytest.raises(AutomatonError):
        evaluate(doubling_chain, parse_term("f(q)", None, ext={"q"}))


def test_wta_run_count_equals_labeling_count():
    # On a WTA over the booleans, runs to q biject with rule-consistent
    # state labelings, here counted independently.
    rng = random.Random(3)
    for _ in range(3):
        A, _ = random_pair(rng, "boolean")
        for t in enumerate_trees(A.alphabet, 2):
            for q in A.states:
                runs = runs_to_state(A, t, q)
                maps = {tuple(sorted(run_state_map(r).items())) for r in runs}
                assert len(maps) == len(runs)
