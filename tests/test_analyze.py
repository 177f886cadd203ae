import random

import pytest

from treehom import (
    Automaton,
    AutomatonError,
    RankedAlphabet,
    Tree,
    TreeHomomorphism,
    bounded_equivalence,
    check_h_unambiguous,
    check_tetris_free,
    enumerate_trees,
    evaluate,
    format_run,
    get_semiring,
    hom_image,
    linearize,
    parse_term,
    run_count_compare,
    wtg_to_wta,
)
from treehom.hom import images_clash
from oracles import (
    BRANCHING_SOURCES,
    naive_evaluate,
    naive_h_unambiguous,
    random_branching_hom,
    random_pair,
    random_wta,
)

NAT = get_semiring("natural")


def test_bounded_equivalence_ok(doubling_image):
    lin = linearize(doubling_image, 2)
    verdict = bounded_equivalence(doubling_image, wtg_to_wta(lin), 4)
    assert verdict.is_ok
    assert verdict.bound == 4


def test_bounded_equivalence_witness(doubling_image):
    lin = linearize(doubling_image, 2)
    verdict = bounded_equivalence(doubling_image, wtg_to_wta(lin), 5)
    assert not verdict.is_ok
    t, va, vb = verdict.witness
    assert t.text == "k(g(g(g(a))),g(g(g(g(a)))))"
    assert va.value == 8 and vb.value == 0
    assert "8 vs 0" in verdict.detail


def test_bounded_equivalence_requires_same_shape(doubling_image, counting_chain):
    with pytest.raises(AutomatonError):
        bounded_equivalence(doubling_image, counting_chain, 3)


def test_bounded_equivalence_reports_first_witness_in_order():
    # Two single-rule automata differing everywhere: the smallest tree wins.
    alphabet = RankedAlphabet([("a", 0), ("g", 1)])
    one = Automaton(NAT, alphabet, ["q"], ["q"],
                    [(Tree("a", ()), "q", NAT.weight(1), ())])
    two = Automaton(NAT, alphabet, ["q"], ["q"],
                    [(Tree("a", ()), "q", NAT.weight(2), ())])
    verdict = bounded_equivalence(one, two, 3)
    t, va, vb = verdict.witness
    assert t.text == "a" and (va.value, vb.value) == (1, 2)


def test_bounded_equivalence_matches_brute_force():
    # The saturated comparison must agree with evaluating every tree.
    rng = random.Random(31)
    for sr_id in ("natural", "z6"):
        for _ in range(3):
            A, h = random_pair(rng, sr_id)
            B, _ = random_pair(rng, sr_id)
            B2, _h2 = random_pair(rng, sr_id)
            img = hom_image(A, h)
            for (X, Y) in ((A, A), (img, img)):
                assert bounded_equivalence(X, Y, 3).is_ok
            # Same alphabet pairs drawn independently: verify the verdict
            # against direct evaluation.
            if B.alphabet == B2.alphabet:
                verdict = bounded_equivalence(B, B2, 2)
                diffs = [t for t in enumerate_trees(B.alphabet, 2)
                         if naive_evaluate(B, t) != naive_evaluate(B2, t)]
                assert verdict.is_ok == (not diffs)
                if diffs:
                    assert verdict.witness[0] == diffs[0]


def test_h_unambiguous_ok(doubling_chain, duplicating_hom, identity_hom):
    assert check_h_unambiguous(doubling_chain, duplicating_hom, 4).is_ok
    assert check_h_unambiguous(doubling_chain, identity_hom, 4).is_ok


def test_h_unambiguous_witness(arctic_chain, full_duplication):
    verdict = check_h_unambiguous(arctic_chain, full_duplication, 4)
    assert not verdict.is_ok
    s, s2, run, run2, p = verdict.witness
    assert {s.text, s2.text} == {"a", "b"}
    assert full_duplication.apply(s) == full_duplication.apply(s2)
    assert run.target != run2.target


def test_h_unambiguous_requires_wta(doubling_image, duplicating_hom):
    with pytest.raises(AutomatonError):
        check_h_unambiguous(doubling_image, duplicating_hom, 3)


def test_h_unambiguous_detects_injective_instances():
    # With an injective hom, h-unambiguity collapses to plain unambiguity.
    alphabet = RankedAlphabet([("a", 0), ("g", 1)])
    ambiguous = Automaton(
        NAT, alphabet, ["q", "p"], ["q", "p"],
        [(Tree("a", ()), "q", NAT.weight(1), ()),
         (Tree("a", ()), "p", NAT.weight(1), ()),
         (Tree("g", (Tree("q", ()),)), "q", NAT.weight(1), ()),
         (Tree("g", (Tree("p", ()),)), "p", NAT.weight(1), ())])
    from treehom import TreeHomomorphism
    ident = TreeHomomorphism(alphabet, alphabet, {
        "a": parse_term("a", alphabet),
        "g": parse_term("g(x1)", alphabet, ext={"x1"})})
    verdict = check_h_unambiguous(ambiguous, ident, 2)
    assert not verdict.is_ok
    s, s2, run, run2, p = verdict.witness
    assert s == s2


def test_h_unambiguous_random_single_state_instances():
    # One state plus a tetris-free hom can never trip h-unambiguity.
    rng = random.Random(17)
    found = 0
    while found < 10:
        A, h = random_pair(rng, "natural", n_states=1)
        if not check_tetris_free(h, 3).is_ok:
            continue
        found += 1
        assert check_h_unambiguous(A, h, 3).is_ok


def test_run_count_compare_ok(doubling_image):
    for L in (0, 1, 2):
        verdict = run_count_compare(doubling_image, L, 5)
        assert verdict.is_ok, verdict.detail


def test_run_count_compare_arctic(arctic_chain, full_duplication):
    img = hom_image(arctic_chain, full_duplication)
    assert run_count_compare(img, 1, 3).is_ok


def test_run_count_compare_counts_match_brute_force(doubling_image):
    # At most as many accepting runs in the linearization, per tree; on this
    # unambiguous instance the counts are 1 wherever the heights fit.
    from treehom import accepting_runs
    lin = linearize(doubling_image, 2)
    for t in enumerate_trees(doubling_image.alphabet, 4):
        cl = len(accepting_runs(lin, t))
        ca = len(accepting_runs(doubling_image, t))
        assert cl <= ca


def h_verdict_key(v):
    """Everything a check_h_unambiguous verdict reports, runs as text."""
    if v.witness is None:
        return (v.status, v.bound, v.detail, None)
    s, s2, run, run2, p = v.witness
    return (v.status, v.bound, v.detail, s.text, s2.text, format_run(run), format_run(run2), p)


H_SEMIRINGS = ("natural", "arctic", "tropical", "boolean", "integer", "z6")


def test_h_unambiguous_matches_naive_on_branching_homs():
    rng = random.Random(2309)
    outcomes = set()
    for _ in range(200):
        h = random_branching_hom(rng)
        A = random_wta(rng, h.source, rng.choice(H_SEMIRINGS), rng.randint(1, 3))
        clash = images_clash(h)
        for bound in range(4):
            expected = naive_h_unambiguous(A, h, bound)
            assert h_verdict_key(check_h_unambiguous(A, h, bound)) == h_verdict_key(expected)
            if expected.is_ok:
                outcomes.add("proved absent" if clash else "ok after a walk")
            else:
                outcomes.add("violation on a clash hom" if clash else "violation")
                if expected.witness[0].height < bound:
                    outcomes.add("witness below the bound")
    assert {"proved absent", "witness below the bound",
            "violation on a clash hom"} <= outcomes


def test_h_unambiguous_matches_naive_at_bound_4():
    # Over (a, g/1, m/2) the oracle builds up to 33,673 source trees.
    rng = random.Random(7)
    source = RankedAlphabet(BRANCHING_SOURCES[0])
    statuses = []
    while len(statuses) < 4:
        h = random_branching_hom(rng)
        if h.source != source:
            continue
        A = random_wta(rng, h.source, rng.choice(H_SEMIRINGS), rng.randint(1, 3))
        expected = naive_h_unambiguous(A, h, 4)
        assert h_verdict_key(check_h_unambiguous(A, h, 4)) == h_verdict_key(expected)
        statuses.append(expected.status)
    assert set(statuses) == {"ok", "witness"}


def test_h_unambiguous_zero_weight_divergence_keeps_the_full_search():
    # Over z6, g(a) and g(b) diverge at height 1 with run weights 2 * 3 = 0;
    # the first violation with nonzero runs is at height 2.
    z6 = get_semiring("z6")
    sigma = RankedAlphabet([("a", 0), ("b", 0), ("g", 1)])
    delta = RankedAlphabet([("c", 0), ("g", 1)])
    h = TreeHomomorphism(sigma, delta, {
        "a": parse_term("c", delta), "b": parse_term("c", delta),
        "g": parse_term("g(x1)", delta, ext={"x1"})})
    rules = [("a", "q0", 2), ("b", "q1", 3), ("g(q0)", "f", 3), ("g(q1)", "f", 2),
             ("a", "r0", 1), ("b", "r1", 1), ("g(r0)", "s0", 1), ("g(r1)", "s1", 1),
             ("g(s0)", "f", 1), ("g(s1)", "f", 1)]
    states = ["q0", "q1", "r0", "r1", "s0", "s1", "f"]
    A = Automaton(z6, sigma, states, ["f"], [
        (parse_term(lhs, None, ext=set(states)), q, z6.weight(w), ()) for lhs, q, w in rules])
    verdict = check_h_unambiguous(A, h, 3)
    assert h_verdict_key(verdict) == h_verdict_key(naive_h_unambiguous(A, h, 3))
    assert (verdict.witness[0].text, verdict.witness[1].text) == ("g(g(a))", "g(g(b))")
