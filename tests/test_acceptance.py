"""Acceptance gate: thirteen end-to-end checks, one test each.

Every check asserts exact values (integer or symbolic weights, no
tolerances).  Run with `pytest tests/test_acceptance.py -v` to get one
pass/fail line per check; with `-s` each check also prints a summary line.
"""

import random
from contextlib import contextmanager

from treehom import (
    EVIDENCE_REGULAR,
    LINEARIZATION_MISMATCH,
    PRECONDITION_VIOLATED,
    Evaluator,
    RunsTable,
    TreeHomomorphism,
    Weight,
    bounded_equivalence,
    check_h_unambiguous,
    check_tetris_free,
    check_unambiguous,
    decide_hom_regularity,
    eliminate_zero_divisors,
    enumerate_trees,
    hom_image,
    linearize,
    parse_term,
    project_boolean,
)

from oracles import automata_equal, canonical_rename, random_pair, run_count_compare


@contextmanager
def accept(cid, title):
    try:
        yield
    except Exception:
        print(f"[ACCEPT] {cid} FAIL  {title}")
        raise
    print(f"[ACCEPT] {cid} PASS  {title}")


def test_c01_constrained_weight_vs_image_weight(constrained_pair, doubling_image):
    with accept("C01", "evaluation weights on k(g^2(a), g^3(a))"):
        t = parse_term("k(g(g(a)),g(g(g(a))))", constrained_pair.alphabet)
        assert Evaluator(constrained_pair).evaluate(t).value == 16
        t2 = parse_term("k(g(g(a)),g(g(g(a))))", doubling_image.alphabet)
        assert Evaluator(doubling_image).evaluate(t2).value == 4


def test_c02_image_construction_golden(doubling_chain, duplicating_hom,
                                        doubling_image):
    with accept("C02", "homomorphic image equals the bundled constrained automaton"):
        img = hom_image(doubling_chain, duplicating_hom)
        assert automata_equal(canonical_rename(img), canonical_rename(doubling_image))
        renamed = canonical_rename(img)
        reference = canonical_rename(doubling_image)
        assert [r.text for r in renamed.rules] == [r.text for r in reference.rules]
        assert renamed.finals == reference.finals
        assert renamed.pure_sink == reference.pure_sink


def test_c03_image_series_property(doubling_chain, duplicating_hom):
    def check_instance(A, h, bound):
        img = hom_image(A, h)
        source_eval = Evaluator(A)
        image_eval = Evaluator(img)
        for t in enumerate_trees(h.target, bound):
            sr, total = A.semiring, A.semiring.zero
            for s in h.preimage(t):
                total = sr.add(total, source_eval.evaluate_value(s))
            assert image_eval.evaluate(t) == Weight(sr, total)

    with accept("C03", "image series equals preimage sums, exhaustively to height 4"):
        check_instance(doubling_chain, duplicating_hom, 4)
        rng = random.Random(101)
        for semiring_id in ("natural", "tropical", "z6"):
            for _ in range(7):
                A, h = random_pair(rng, semiring_id)
                check_instance(A, h, 4)


def test_c04_linearization_golden(doubling_image):
    with accept("C04", "height-2 linearization yields the five expected rules"):
        lin = linearize(doubling_image, 2)
        assert sorted(r.text for r in lin.rules) == [
            "a -> q @ 1",
            "g(q) -> q @ 2",
            "k(a,g(a)) -> qf @ 1",
            "k(g(a),g(g(a))) -> qf @ 2",
            "k(g(g(a)),g(g(g(a)))) -> qf @ 4",
        ]
        assert sorted(r.weight.value for r in lin.rules) == [1, 1, 2, 2, 4]


def test_c05_linearization_gap_witness(doubling_image):
    with accept("C05", "bound-5 comparison pins the first tree past the cut"):
        lin = linearize(doubling_image, 2)
        verdict = bounded_equivalence(doubling_image, lin, 5)
        assert not verdict.is_ok
        t, left, right = verdict.witness
        assert t.text == "k(g(g(g(a))),g(g(g(g(a)))))"
        assert left.value == 8
        assert right.value == 0


def test_c06_linearization_run_counts(doubling_image):
    with accept("C06", "linearizations never gain accepting runs, bound 5"):
        for lin_height in (0, 1, 2):
            assert run_count_compare(doubling_image, lin_height, 5).is_ok


def test_c07_boolean_projection_golden(doubling_image):
    with accept("C07", "boolean projection golden and support agreement"):
        proj = project_boolean(doubling_image)
        assert proj.semiring.id == "boolean"
        assert sorted(r.text for r in proj.rules) == [
            "a -> q @ 1",
            "g(q) -> q @ 1",
            "k(q,g(q)) -> qf @ 1 | 1 = 2.1",
        ]
        expected = ["k(a,g(a))", "k(g(a),g(g(a)))", "k(g(g(a)),g(g(g(a))))"]
        assert [t.text for t, _ in RunsTable(doubling_image, 4).support()] == expected
        assert [t.text for t, _ in RunsTable(proj, 4).support()] == expected


def test_c08_projection_commutes_with_linearization(doubling_image):
    with accept("C08", "projection and linearization commute for heights 0..2"):
        for lin_height in (0, 1, 2):
            left = project_boolean(linearize(doubling_image, lin_height))
            right = linearize(project_boolean(doubling_image), lin_height)
            assert automata_equal(canonical_rename(left), canonical_rename(right))


def test_c09_shared_image_ambiguity(arctic_chain, full_duplication,
                                     counting_chain, shifted_duplication):
    with accept("C09", "shared-image instances break the two ambiguity checks"):
        verdict = check_h_unambiguous(arctic_chain, full_duplication, 4)
        assert not verdict.is_ok
        assert {verdict.witness[0].text, verdict.witness[1].text} == {"a", "b"}
        arc_img = hom_image(arctic_chain, full_duplication)
        ambiguity = check_unambiguous(arc_img, 2)
        assert not ambiguity.is_ok
        assert ambiguity.witness[0].text == "c"

        img = canonical_rename(hom_image(counting_chain, shifted_duplication))
        assert [r.text for r in img.rules] == [
            "c -> bot @ 1",
            "c -> s0 @ 2",
            "k(bot,bot) -> bot @ 1",
            "k(c,c) -> s0 @ 3",
            "k(s0,c) -> s0 @ 1",
        ]
        kcc = parse_term("k(c,c)", img.alphabet)
        ev = Evaluator(img)
        assert ev.evaluate(kcc).value == 5
        assert len(ev.accepting_runs(kcc)) == 2


def test_c10_tetris_freeness_checks(duplicating_hom, shifted_duplication):
    with accept("C10", "tetris-freeness verdicts at bound 4"):
        assert check_tetris_free(duplicating_hom, 4).is_ok
        verdict = check_tetris_free(shifted_duplication, 4)
        assert not verdict.is_ok
        assert {verdict.witness[0].text, verdict.witness[1].text} == {"b", "g(a)"}


def test_c11_zero_divisor_elimination(z6_chain):
    with accept("C11", "zero-divisor elimination: no zero runs, same series"):
        fixed = eliminate_zero_divisors(z6_chain)
        table = RunsTable(fixed, 4)
        for q in fixed.real_states:
            for t in table.trees:
                for r in table.runs(t, q):
                    assert not r.weight.is_zero
        assert bounded_equivalence(z6_chain, fixed, 4).is_ok
        ev, ev_fixed = Evaluator(z6_chain), Evaluator(fixed)
        for t, _ in RunsTable(z6_chain, 4).support():
            assert len(ev.accepting_runs(t)) == len(ev_fixed.accepting_runs(t))


def test_c12_images_of_clean_instances_are_unambiguous(doubling_chain,
                                                        duplicating_hom):
    with accept("C12", "tetris-free h-unambiguous inputs give unambiguous images"):
        assert check_tetris_free(duplicating_hom, 4).is_ok
        assert check_h_unambiguous(doubling_chain, duplicating_hom, 4).is_ok
        assert check_unambiguous(hom_image(doubling_chain, duplicating_hom), 4).is_ok

        rng = random.Random(201)
        found = 0
        while found < 10:
            A, h = random_pair(rng, "natural", n_states=1)
            if not check_tetris_free(h, 4).is_ok:
                continue
            if not check_h_unambiguous(A, h, 4).is_ok:
                continue
            assert check_unambiguous(hom_image(A, h), 4).is_ok
            found += 1


def test_c13_decision_pipeline_verdicts(doubling_chain, duplicating_hom,
                                         arctic_chain, full_duplication,
                                         identity_hom):
    with accept("C13", "pipeline verdicts for the three reference instances"):
        report = decide_hom_regularity(doubling_chain, duplicating_hom,
                                       check_bound=4, lin_height=2, eq_bound=5)
        assert report.verdict == LINEARIZATION_MISMATCH
        t, left, right = report.equivalence.witness
        assert t.text == "k(g(g(g(a))),g(g(g(g(a)))))"
        assert (left.value, right.value) == (8, 0)

        report = decide_hom_regularity(arctic_chain, full_duplication)
        assert report.verdict == PRECONDITION_VIOLATED
        witness = report.h_unambiguous.witness
        assert {witness[0].text, witness[1].text} == {"a", "b"}

        report = decide_hom_regularity(doubling_chain, identity_hom)
        assert report.verdict == EVIDENCE_REGULAR
