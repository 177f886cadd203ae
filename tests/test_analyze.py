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
    check_h_unambiguous,
    check_tetris_free,
    eliminate_zero_divisors,
    enumerate_trees,
    format_run,
    get_semiring,
    hom_image,
    linearization_equivalence,
    linearize,
    parse_term,
)
import treehom.analyze as analyze
from treehom.automaton import relaxation_unambiguous
from treehom.cli import load_automaton, load_hom, parse_automaton, parse_hom, verdict_to_dict
from treehom.hom import images_clash
from oracles import (
    BRANCHING_SOURCES,
    naive_evaluate,
    naive_h_unambiguous,
    root_blind_images_clash,
    random_branching_hom,
    random_hom,
    random_modular_pair,
    random_pair,
    random_weight,
    random_wta,
    run_count_compare,
    wtg_to_wta,
    z6_copy,
)
from test_decide import DUP_AUTOMATON, DUP_HOM

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
                    [(Tree("a", ()), "q", Weight(NAT, 1), ())])
    two = Automaton(NAT, alphabet, ["q"], ["q"],
                    [(Tree("a", ()), "q", Weight(NAT, 2), ())])
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


def test_bounded_equivalence_stops_at_the_first_differing_height(memory_cap):
    # The series differ on a; the trees over m/2 grow doubly exponentially
    # with height, so the comparison must not fill the layers above height 0.
    def over(leaf_weight):
        return parse_automaton("semiring: natural\nstates: q\nfinal: q\nrules:\n"
                               f"a -> q @ {leaf_weight}\nm(q,q) -> q @ 1\n")

    with memory_cap():
        verdict = bounded_equivalence(over(1), over(2), 40)
    assert not verdict.is_ok and verdict.bound == 40
    t, va, vb = verdict.witness
    assert t.text == "a" and (va.value, vb.value) == (1, 2)


def test_bounded_equivalence_witness_is_least_across_sizes_of_one_height():
    # One non-leaf rule weight changed, so the series first differ above
    # height 0.  Over the branching sources the trees of one height come in
    # several sizes, which the witness order must respect.
    rng = random.Random(23)
    # Cases whose first differing height holds differing trees of several
    # sizes, and cases whose witness is larger than the least tree of its height.
    several_sizes = past_smaller = 0
    for _ in range(32):
        source = RankedAlphabet(rng.choice(BRANCHING_SOURCES))
        A = random_wta(rng, source, rng.choice(["natural", "z6"]), 2)
        rules = [[r.lhs, r.target, r.weight, ()] for r in A.rules]
        changed = rng.choice([spec for spec in rules if spec[0].children])
        old = changed[2]
        while changed[2] == old:
            changed[2] = random_weight(rng, A.semiring)
        B = Automaton(A.semiring, source, A.states, A.finals, rules)
        trees = enumerate_trees(source, 3)  # in (height, size, text) order
        diffs = [t for t in trees if naive_evaluate(A, t) != naive_evaluate(B, t)]
        verdict = bounded_equivalence(A, B, 3)
        assert verdict.is_ok == (not diffs)
        if diffs:
            t = diffs[0]
            assert t.height > 0
            assert verdict.witness == (t, naive_evaluate(A, t), naive_evaluate(B, t))
            several_sizes += len({s.size for s in diffs if s.height == t.height}) > 1
            past_smaller += t.size > min(s.size for s in trees if s.height == t.height)
    assert several_sizes >= 2 and past_smaller >= 2


def _equivalence_instances(data_dir):
    """Zero-divisor-fixed images: every bundled WTA and hom over one
    alphabet, then seeded random pairs over six semirings and modular pairs."""
    for aut in sorted(data_dir.glob("*.aut")):
        for hom in sorted(data_dir.glob("*.hom")):
            A, h = load_automaton(aut), load_hom(hom)
            if A.is_wta and A.alphabet == h.source:
                yield f"{aut.name} x {hom.name}", A, h
    rng = random.Random(47)
    for sr_id in ("boolean", "natural", "integer", "tropical", "arctic", "z6"):
        for i in range(4):
            yield f"{sr_id} #{i}", *random_pair(rng, sr_id)
    for i in range(4):
        yield f"modular #{i}", *random_modular_pair(rng)


def test_bounded_equivalence_on_a_wtg_matches_its_wta_normalization(data_dir):
    # decide compares the image with its linearization, a WTG, directly; the
    # WTA normalization recognizes the same series, so every verdict, its
    # detail and its witness texts must be the same on both.
    outcomes = set()
    for name, A, h in _equivalence_instances(data_dir):
        fixed = eliminate_zero_divisors(hom_image(A, h))
        for lin_height in (0, 1, 2):
            L = linearize(fixed, lin_height)
            direct = verdict_to_dict(bounded_equivalence(fixed, L, 4))
            flat = verdict_to_dict(bounded_equivalence(fixed, wtg_to_wta(L), 4))
            assert direct == flat, (name, lin_height)
            outcomes.add(direct["status"])
    assert outcomes == {"ok", "witness"}


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
        [(Tree("a", ()), "q", Weight(NAT, 1), ()),
         (Tree("a", ()), "p", Weight(NAT, 1), ()),
         (Tree("g", (Tree("q", ()),)), "q", Weight(NAT, 1), ()),
         (Tree("g", (Tree("p", ()),)), "p", Weight(NAT, 1), ())])
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
    # unambiguous instance the counts are 1 wherever the heights fit.  One
    # evaluator per automaton fills each distinct subtree once for all trees.
    from treehom import Evaluator
    lin, image = Evaluator(linearize(doubling_image, 2)), Evaluator(doubling_image)
    for t in enumerate_trees(doubling_image.alphabet, 4):
        cl = len(lin.accepting_runs(t))
        ca = len(image.accepting_runs(t))
        assert cl <= ca


def h_verdict_key(v):
    """Everything a check_h_unambiguous verdict reports, runs as text."""
    if v.witness is None:
        return (v.status, v.bound, v.detail, None)
    s, s2, run, run2, p = v.witness
    return (v.status, v.bound, v.detail, s.text, s2.text, format_run(run), format_run(run2), p)


H_SEMIRINGS = ("natural", "arctic", "tropical", "boolean", "integer", "z6")

# With f/1 and g/1 -> f(x1) the class images clash.  Over the naturals the
# pair fixpoint first finds f(f(f(f(a)))) and g(f(f(f(a)))), accepted at p4
# and p5, so h-unambiguity enumerates the source trees of height 4 only,
# whatever the bound.
LATE_DIVERGENCE_AUTOMATON = """semiring: natural
states: p0 p1 p2 p3 p4 p5
final: p4 p5
rules:
a -> p0 @ 1
b -> p0 @ 1
f(p0) -> p1 @ 1
f(p1) -> p2 @ 1
f(p2) -> p3 @ 1
f(p3) -> p4 @ 1
g(p3) -> p5 @ 1
m(p4,p4) -> p4 @ 1
"""


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
                if clash and not root_blind_images_clash(h):
                    outcomes.add("violation on a hom that clashes by the root rule")
                s, s2 = expected.witness[:2]
                if s.height < bound:
                    outcomes.add("witness below the bound")
                if s.height != s2.height:
                    outcomes.add("witness trees of two heights")
                if clash and s.height >= 1 and any(
                        t.size < s.size for t in RunsTable(A, s.height).layer(s.height)):
                    outcomes.add("witness above the least size of its layer")
    # random_wta has one rule per left-hand side, so no tree has two runs.
    # A second leaf rule for a, to another state, gives trees two accepting
    # runs, and then a witness may pair the first member's first run with
    # its second.
    rng = random.Random(2310)
    for _ in range(40):
        h = random_branching_hom(rng)
        A = random_wta(rng, h.source, rng.choice(H_SEMIRINGS), rng.randint(2, 3))
        leaf = next(r for r in A.rules if r.lhs.label == "a")
        other = rng.choice([q for q in A.states if q != leaf.target])
        A = Automaton(A.semiring, A.alphabet, A.states, A.finals,
                      [(r.lhs, r.target, r.weight, ()) for r in A.rules]
                      + [(leaf.lhs, other, Weight(A.semiring, A.semiring.one), ())])
        for bound in range(3):
            expected = naive_h_unambiguous(A, h, bound)
            assert h_verdict_key(check_h_unambiguous(A, h, bound)) == h_verdict_key(expected)
            if not expected.is_ok and expected.witness[0] == expected.witness[1]:
                below = "below" if expected.witness[4] else "at"
                outcomes.add(f"two runs on one tree that differ {below} the root")
    assert {"proved absent", "witness below the bound", "violation on a clash hom",
            "violation on a hom that clashes by the root rule",
            "witness above the least size of its layer", "violation", "ok after a walk",
            "witness trees of two heights", "two runs on one tree that differ at the root",
            "two runs on one tree that differ below the root"} <= outcomes
    # Each start of the walk on the five-symbol source: none, where over z6
    # the dup hom's images clash and the fixpoint proves the bound; height 0,
    # where the tetris hom's images do not clash; the first diverging height,
    # over the naturals.  Bound 4 on this source has 2.3e8 trees, more than
    # the oracle can enumerate.
    dup_z6 = DUP_AUTOMATON.replace("natural", "z6")
    tetris = DUP_HOM.replace("f(x1)", "g(g(x1))").replace("k(x1,x1)", "g(x1)")
    merged = DUP_HOM.replace("k(x1,x1)", "f(x1)")
    for aut_text, hom_text, bound in ((dup_z6, DUP_HOM, 3), (dup_z6, tetris, 3),
                                      (LATE_DIVERGENCE_AUTOMATON, merged, 5)):
        A, h = parse_automaton(aut_text), parse_hom(hom_text)
        expected = naive_h_unambiguous(A, h, bound)
        assert h_verdict_key(check_h_unambiguous(A, h, bound)) == h_verdict_key(expected)


def test_h_unambiguous_expands_only_the_witness_height_up_to_its_size(monkeypatch):
    # Clashing images over a zero-divisor-free semiring: the fixpoint gives
    # the witness height H, so no tree below H, and no tree of height H
    # larger than the witness, has its accepting runs expanded.
    expanded = []
    accepting_runs = Evaluator.accepting_runs
    monkeypatch.setattr(Evaluator, "accepting_runs",
                        lambda self, t: expanded.append(t) or accepting_runs(self, t))
    rng = random.Random(2309)
    below = larger = 0
    for _ in range(200):
        h = random_branching_hom(rng)
        A = random_wta(rng, h.source, rng.choice(H_SEMIRINGS), rng.randint(1, 3))
        if not images_clash(h) or not A.semiring.zero_divisor_free:
            continue
        for bound in range(4):
            expected = naive_h_unambiguous(A, h, bound)
            expanded.clear()
            verdict = check_h_unambiguous(A, h, bound)
            assert h_verdict_key(verdict) == h_verdict_key(expected)
            if verdict.is_ok:
                assert not expanded
                continue
            s = verdict.witness[0]
            assert expanded and all(t.height == s.height and t.size <= s.size for t in expanded)
            table = RunsTable(A, s.height)
            below += any(table.layer(k) for k in range(s.height))
            larger += any(t.size > s.size for t in table.layer(s.height))
    assert below >= 10 and larger >= 5


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
        (parse_term(lhs, None, ext=set(states)), q, Weight(z6, w), ()) for lhs, q, w in rules])
    verdict = check_h_unambiguous(A, h, 3)
    assert h_verdict_key(verdict) == h_verdict_key(naive_h_unambiguous(A, h, 3))
    assert (verdict.witness[0].text, verdict.witness[1].text) == ("g(g(a))", "g(g(b))")


def test_h_unambiguous_stops_at_the_first_violating_layer(workloads, memory_cap):
    # The z6 copies of the merge instances (every weight w becomes w mod 6,
    # or 1 where that is 0): over zero divisors the search covers the full
    # bound, but every witness sits at height 0-2, so the layers above the
    # violating one must stay unfilled.  Filled, the trees up to height 5
    # over a, b, f, g, m alone outgrow the cap.
    merge = [inst for cls, members in workloads.branching_pool(2).items()
             if cls.startswith("merge-") for inst in members]
    assert len(merge) == 6
    for inst in merge:
        A = parse_automaton(z6_copy(inst.automaton_text))
        h = parse_hom(inst.hom_text)
        with memory_cap():
            verdict = check_h_unambiguous(A, h, 8)
        assert not verdict.is_ok and verdict.bound == 8
        assert verdict.witness[1].height <= 2
        expected = naive_h_unambiguous(A, h, 2)
        assert h_verdict_key(verdict)[2:] == h_verdict_key(expected)[2:]
    # The tetris hom's images do not clash, and its witness f(a) / g(g(a))
    # spans heights 1 and 2: the walk stops there too.
    A = parse_automaton(DUP_AUTOMATON.replace("natural", "z6"))
    h = parse_hom(DUP_HOM.replace("f(x1)", "g(g(x1))").replace("k(x1,x1)", "g(x1)"))
    with memory_cap():
        verdict = check_h_unambiguous(A, h, 8)
    expected = naive_h_unambiguous(A, h, 3)
    assert (expected.witness[0].text, expected.witness[1].text) == ("f(a)", "g(g(a))")
    assert verdict.bound == 8 and h_verdict_key(verdict)[2:] == h_verdict_key(expected)[2:]
    # On tetris-arctic-0 the walk stops in a group that opens at height 3
    # and has a member of height 4, whose runs are read from the
    # automaton's own chart: the table's layer 4 alone holds 1.3 million
    # trees, which outgrow the cap.
    inst = next(inst for members in workloads.branching_pool(2).values()
                for inst in members if inst.id == "tetris-arctic-0")
    A, h = parse_automaton(inst.automaton_text), parse_hom(inst.hom_text)
    with memory_cap():
        verdict = check_h_unambiguous(A, h, 16)
    assert verdict.bound == 16 and h_verdict_key(verdict)[2:5] == (
        "position sets differ for m(f(f(a)),f(f(a))) and m(f(f(a)),f(g(g(a))))",
        "m(f(f(a)),f(f(a)))", "m(f(f(a)),f(g(g(a))))")


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls that linearization_equivalence makes to linearize and to
    bounded_equivalence: path 2 makes one of each, paths 0 and 1 neither."""
    calls = []

    def counted(fn):
        def call(*args):
            calls.append((fn.__name__, args))
            return fn(*args)
        return call

    monkeypatch.setattr(analyze, "linearize", counted(linearize))
    monkeypatch.setattr(analyze, "bounded_equivalence", counted(bounded_equivalence))
    return calls


def _check_linearizations(fixed, fallbacks, bounds=range(4), falls_back=()):
    """Compare linearization_equivalence with the enumerator at lin heights
    0-2; returns the statuses of the fixpoint path's verdicts.  Where the
    fixpoint path applies, it must neither linearize nor enumerate, except at
    the (lin height, bound) pairs in falls_back, where its least tall tree
    weighs zero.  A fallback linearizes once and enumerates once."""
    fast = []
    constrained = any(r.constrained for r in fixed.rules if r.target != fixed.sink)
    for k in range(3):
        L = linearize(fixed, k)
        for e in bounds:
            fallbacks.clear()
            verdict = linearization_equivalence(fixed, k, e)
            assert verdict == bounded_equivalence(fixed, L, e), (k, e)
            assert [name for name, _ in fallbacks] in ([], ["linearize", "bounded_equivalence"])
            if not constrained:
                assert verdict.is_ok and not fallbacks
            elif relaxation_unambiguous(fixed, e):
                assert bool(fallbacks) == ((k, e) in falls_back), (k, e)
                fast.append(verdict.status)
    return fast


def _duplicating_image(rng, semiring_id):
    """The image of a 3-4 state random WTA under a random hom that
    duplicates some variable, so the image has a constrained rule."""
    while True:
        h = random_hom(rng) if rng.random() < 0.5 else random_branching_hom(rng)
        A = random_wta(rng, h.source, semiring_id, rng.randint(3, 4))
        image = hom_image(A, h)
        if any(r.constrained for r in image.rules):
            return image


def test_linearization_equivalence_matches_the_enumerator_on_random_images(fallbacks):
    rng = random.Random(2024)
    fast = []
    for sr_id in ("natural", "tropical", "arctic"):
        for _ in range(30):
            fast += _check_linearizations(_duplicating_image(rng, sr_id), fallbacks)
    assert fast.count("witness") >= 30 and "ok" in fast


def test_linearization_equivalence_matches_the_enumerator_on_the_bundled_data(
        data_dir, fallbacks):
    fast = []
    for name, A, h in _equivalence_instances(data_dir):
        if name.endswith(".hom"):
            fixed = eliminate_zero_divisors(hom_image(A, h))
            fast += _check_linearizations(fixed, fallbacks, range(5))
    assert set(fast) == {"ok", "witness"}


def test_linearization_equivalence_falls_back_over_zero_divisors(duplicating_hom, fallbacks):
    # Over z6 a run may weigh zero, so a tall run need not make a difference:
    # in the image, g(a) weighs 2 * 3 = 0, and the least tall tree's values
    # agree.  Once zero divisors are eliminated no run weighs zero.
    z6 = get_semiring("z6")
    A = Automaton(z6, duplicating_hom.source, ["q", "qf"], ["qf"], [
        (parse_term(lhs, None, ext={"q"}), q, Weight(z6, w), ())
        for lhs, q, w in [("a", "q", 2), ("g(q)", "q", 3), ("f(q)", "qf", 1), ("f(q)", "q", 5)]])
    image = hom_image(A, duplicating_hom)
    fixed = eliminate_zero_divisors(image)
    assert any(r.constrained for r in fixed.rules if r.target != fixed.sink)
    assert _check_linearizations(fixed, fallbacks, range(5))
    assert _check_linearizations(image, fallbacks, range(5), {(0, 3), (0, 4), (1, 4)})


def test_linearization_equivalence_matches_the_enumerator_on_eliminated_modular_images(
        fallbacks):
    rng = random.Random(12)
    fast = []
    for _ in range(15):
        image = hom_image(*random_modular_pair(rng, duplicating=True))
        assert any(r.constrained for r in image.rules if r.target != image.sink)
        fast += _check_linearizations(eliminate_zero_divisors(image), fallbacks)
    assert "witness" in fast and "ok" in fast


def test_linearization_equivalence_rejects_a_negative_lin_height(doubling_image):
    with pytest.raises(AutomatonError, match="linearization height must be nonnegative"):
        linearization_equivalence(doubling_image, -1, 3)


def test_linearization_equivalence_falls_back_on_an_ambiguous_image(fallbacks):
    # Two runs on every g-chain: their difference is no longer one run's weight.
    sigma = RankedAlphabet([("a", 0), ("g", 1)])
    delta = RankedAlphabet([("a", 0), ("k", 2)])
    h = TreeHomomorphism(sigma, delta, {
        "a": parse_term("a", delta), "g": parse_term("k(x1,x1)", delta, ext={"x1"})})
    states = ["p", "q", "r"]
    A = Automaton(NAT, sigma, states, ["r"], [
        (parse_term(lhs, None, ext=set(states)), q, Weight(NAT, w), ())
        for lhs, q, w in [("a", "p", 1), ("a", "q", 2), ("g(p)", "r", 1), ("g(q)", "r", 3),
                          ("g(r)", "p", 1), ("g(r)", "q", 1)]])
    fixed = hom_image(A, h)
    assert not relaxation_unambiguous(fixed, 1)
    _check_linearizations(fixed, fallbacks)
    assert fallbacks


def test_linearization_equivalence_falls_back_on_rules_sharing_lhs_and_target(fallbacks):
    # One lhs and target under two constraints: the relaxation would merge
    # the two rules, so it proves nothing.
    fixed = parse_automaton("""semiring: natural
states: q p bot
sink: bot
final: p
rules:
a -> q @ 1
g(q) -> q @ 2
m(q,k(q,bot)) -> p @ 1 | 1 = 2.2
m(q,k(q,bot)) -> p @ 3 | 2.1 = 2.2
a -> bot @ 1
g(bot) -> bot @ 1
k(bot,bot) -> bot @ 1
m(bot,bot) -> bot @ 1
""")
    _check_linearizations(fixed, fallbacks)
    assert fallbacks


def test_linearization_equivalence_witness_is_least_in_text_among_equal_sizes(fallbacks):
    # m(a,K) and m(K,a), K = k(k(a,a),k(a,a)), are the least tall trees by
    # (height, size); the witness must be the one with the lesser text.
    sigma = RankedAlphabet([("a", 0), ("g", 1), ("m", 2)])
    delta = RankedAlphabet([("a", 0), ("k", 2), ("m", 2)])
    h = TreeHomomorphism(sigma, delta, {
        "a": parse_term("a", delta), "g": parse_term("k(x1,x1)", delta, ext={"x1"}),
        "m": parse_term("m(x2,x1)", delta, ext={"x1", "x2"})})
    A = Automaton(NAT, sigma, ["q", "f"], ["f"], [
        (parse_term(lhs, None, ext={"q"}), q, Weight(NAT, w), ())
        for lhs, q, w in [("a", "q", 1), ("g(q)", "q", 2), ("m(q,q)", "f", 3)]])
    fixed = hom_image(A, h)
    assert _check_linearizations(fixed, fallbacks) == ["ok"] * 3 + ["witness"] + ["ok"] * 8
    verdict = linearization_equivalence(fixed, 0, 3)
    assert verdict.witness[0].text == "m(a,k(k(a,a),k(a,a)))"
