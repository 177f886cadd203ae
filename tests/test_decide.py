import json
import os
import stat

import pytest

from treehom import (
    EVIDENCE_REGULAR,
    LINEARIZATION_MISMATCH,
    ORACLE_NONREGULAR,
    ORACLE_REGULAR,
    PRECONDITION_VIOLATED,
    UNKNOWN,
    Automaton,
    AutomatonError,
    DecisionReport,
    Evaluator,
    RunsTable,
    check_unambiguous,
    decide_hom_regularity,
    get_semiring,
    parse_term,
    project_boolean,
)
import treehom.automaton
import treehom.decide
from treehom.cli import (
    load_automaton,
    load_hom,
    main,
    parse_automaton,
    parse_hom,
    report_to_dict,
)
from treehom.verdict import violated
from oracles import naive_evaluate


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_identity_instance_is_evidence_regular(doubling_chain, identity_hom):
    report = decide_hom_regularity(doubling_chain, identity_hom)
    assert report.verdict == EVIDENCE_REGULAR
    assert report.tetris.is_ok
    assert report.h_unambiguous.is_ok
    assert report.zero_divisor_path == "unchanged (zero-divisor-free semiring)"
    assert report.image_unambiguous.is_ok
    assert report.support_arm == "zero-sum-free"
    assert report.equivalence.is_ok
    assert report.warnings == []


def test_duplicating_instance_hits_linearization_gap(doubling_chain, duplicating_hom):
    report = decide_hom_regularity(
        doubling_chain, duplicating_hom, check_bound=4, lin_height=2, eq_bound=5)
    assert report.verdict == LINEARIZATION_MISMATCH
    t, va, vb = report.equivalence.witness
    assert t.text == "k(g(g(g(a))),g(g(g(g(a)))))"
    assert (va.value, vb.value) == (8, 0)
    assert report.support_arm == "zero-sum-free"


def test_duplicating_instance_at_low_bound_looks_regular(doubling_chain,
                                                         duplicating_hom):
    # The default eq bound of 4 cannot see the height-5 witness; the surrogate
    # honestly reports agreement within its bound.
    report = decide_hom_regularity(doubling_chain, duplicating_hom)
    assert report.verdict == EVIDENCE_REGULAR
    assert report.equivalence.bound == 4


def test_arctic_instance_violates_h_unambiguity(arctic_chain, full_duplication):
    report = decide_hom_regularity(arctic_chain, full_duplication)
    assert report.verdict == PRECONDITION_VIOLATED
    assert report.tetris.is_ok
    s, s2, _, _, _ = report.h_unambiguous.witness
    assert {s.text, s2.text} == {"a", "b"}
    assert report.image is None
    assert any("h-unambiguous" in w for w in report.warnings)


def test_tetris_violation_stops_early(counting_chain, shifted_duplication):
    report = decide_hom_regularity(counting_chain, shifted_duplication)
    assert report.verdict == PRECONDITION_VIOLATED
    assert not report.tetris.is_ok
    assert report.h_unambiguous is None
    assert report.image is None


def test_requires_wta_input(doubling_image, duplicating_hom):
    with pytest.raises(AutomatonError):
        decide_hom_regularity(doubling_image, duplicating_hom)


def test_z6_instance_caps_positive_verdicts(z6_chain, identity_hom):
    # Rebuild the chain shape over z6 as a WTA input.
    z6 = get_semiring("z6")
    src = Automaton(
        z6, z6_chain.alphabet, ["q", "qf"], ["qf"],
        [(r.lhs, r.target, r.weight, ())
         for r in z6_chain.rules if r.target != "bot"])
    from treehom import TreeHomomorphism, parse_term
    ident = TreeHomomorphism(src.alphabet, src.alphabet, {
        "a": parse_term("a", src.alphabet),
        "g": parse_term("g(x1)", src.alphabet, ext={"x1"}),
        "f": parse_term("f(x1)", src.alphabet, ext={"x1"})})
    report = decide_hom_regularity(src, ident)
    assert report.verdict == UNKNOWN
    assert report.support_arm == "unambiguous-up-to-bound(4)"
    assert report.zero_divisor_path == "dickson cap u=3"
    assert report.equivalence.is_ok  # the surrogate agreed...
    assert any("downgraded" in w for w in report.warnings)  # ...but is capped
    assert any("not zero-sum free" in w for w in report.warnings)


def test_oracle_regular(tmp_path, doubling_chain, identity_hom):
    oracle = write_script(tmp_path, "yes.sh", "echo regular\n")
    report = decide_hom_regularity(doubling_chain, identity_hom, oracle=oracle)
    assert report.verdict == ORACLE_REGULAR
    assert report.oracle_answer == "regular"
    assert report.oracle_diagnostic is None
    assert report.linearized is None and report.equivalence is None


def test_oracle_nonregular(tmp_path, doubling_chain, duplicating_hom):
    oracle = write_script(tmp_path, "no.sh", "echo nonregular\n")
    report = decide_hom_regularity(doubling_chain, duplicating_hom, oracle=oracle)
    assert report.verdict == ORACLE_NONREGULAR


def test_oracle_receives_projection_file(tmp_path, doubling_chain, duplicating_hom):
    copy = tmp_path / "seen.aut"
    oracle = write_script(tmp_path, "copy.sh", f'cp "$1" {copy}\necho regular\n')
    decide_hom_regularity(doubling_chain, duplicating_hom, oracle=oracle)
    text = copy.read_text()
    assert "semiring: boolean" in text
    assert "k(q,g(q)) -> qf @ 1 | 1 = 2.1" in text


def test_oracle_projection_file_is_removed(tmp_path, doubling_chain, identity_hom):
    seen = tmp_path / "path.txt"
    oracle = write_script(tmp_path, "record.sh", f'echo "$1" > {seen}\necho regular\n')
    report = decide_hom_regularity(doubling_chain, identity_hom, oracle=oracle)
    assert report.verdict == ORACLE_REGULAR
    path = seen.read_text().strip()
    assert path.endswith(".aut")
    assert not os.path.exists(path)


def test_oracle_garbage_output_is_unknown(tmp_path, doubling_chain, identity_hom):
    oracle = write_script(tmp_path, "noise.sh", "echo maybe\n")
    report = decide_hom_regularity(doubling_chain, identity_hom, oracle=oracle)
    assert report.verdict == UNKNOWN
    assert report.oracle_answer is None
    assert "maybe" in report.oracle_diagnostic


def test_oracle_failure_is_unknown(tmp_path, doubling_chain, identity_hom):
    oracle = write_script(tmp_path, "fail.sh", "exit 3\n")
    report = decide_hom_regularity(doubling_chain, identity_hom, oracle=oracle)
    assert report.verdict == UNKNOWN
    assert report.oracle_diagnostic


def test_oracle_command_with_an_open_quote_is_unknown(doubling_chain, identity_hom):
    report = decide_hom_regularity(doubling_chain, identity_hom, oracle='foo "bar')
    assert report.verdict == UNKNOWN
    assert report.oracle_answer is None
    assert report.oracle_diagnostic == "oracle failed to run: No closing quotation"
    assert report.warnings == [report.oracle_diagnostic]


@pytest.mark.parametrize("command", ["", "  \t "])
def test_empty_oracle_command_is_unknown(monkeypatch, doubling_chain, identity_hom,
                                         command):
    def no_temp_file(*args, **kwargs):
        raise AssertionError("no projection file should be written")

    monkeypatch.setattr("tempfile.NamedTemporaryFile", no_temp_file)
    report = decide_hom_regularity(doubling_chain, identity_hom, oracle=command)
    assert report.verdict == UNKNOWN
    assert report.oracle_answer is None
    assert report.oracle_diagnostic == "oracle command is empty"


def test_decision_report_defaults():
    report = DecisionReport("z6", True, 3, 2, 4, None)
    assert repr(report) == (
        "DecisionReport(semiring_id='z6', zero_sum_free=True, check_bound=3, "
        "lin_height=2, eq_bound=4, oracle=None, verdict='UNKNOWN', warnings=[], "
        "tetris=None, h_unambiguous=None, image=None, zero_divisor_path=None, "
        "fixed_image=None, image_unambiguous=None, internal_consistency_failure=False, "
        "projection=None, support_arm=None, linearized=None, equivalence=None, "
        "oracle_answer=None, oracle_diagnostic=None)")
    other = DecisionReport(semiring_id="z6", zero_sum_free=True, check_bound=3,
                           lin_height=2, eq_bound=4, oracle=None)
    assert report == other and report.warnings is not other.warnings
    report.warnings.append("w")
    assert other.warnings == [] and report != other
    with pytest.raises(TypeError):
        hash(report)


def test_report_is_deterministic(doubling_chain, duplicating_hom):
    first = decide_hom_regularity(doubling_chain, duplicating_hom, eq_bound=5)
    second = decide_hom_regularity(doubling_chain, duplicating_hom, eq_bound=5)
    assert report_to_dict(first) == report_to_dict(second)


def test_reduce_to_support(doubling_image):
    assert check_unambiguous(doubling_image, 4).is_ok
    projection = project_boolean(doubling_image)
    assert projection.semiring.id == "boolean"
    support = RunsTable(doubling_image, 4).support()
    boolean_support = RunsTable(projection, 4).support()
    assert [t for t, _ in support] == [t for t, _ in boolean_support]
    assert [t.text for t, _ in support] == [
        "k(a,g(a))", "k(g(a),g(g(a)))", "k(g(g(a)),g(g(g(a))))"]
    assert [t.text for t, _ in boolean_support] == [
        t.text for t, _ in support]


def test_reduce_to_support_detects_overapproximation(z6_chain):
    support = RunsTable(z6_chain, 4).support()
    boolean_support = RunsTable(project_boolean(z6_chain), 4).support()
    # Zero-divisor products inflate the projected language.
    assert [t for t, _ in support] != [t for t, _ in boolean_support]
    assert len(boolean_support) > len(support)


# A 3-state WTA and a hom that duplicates the subtree below g.  Layer 4 of
# its fixed image holds millions of trees, so enumerating both automata up
# to the default eq bound ran out of memory; over z6 too, where the fixed
# image is eliminated of zero divisors.
DUP_AUTOMATON = """semiring: natural
states: q0 q1 q2
final: q1 q2
rules:
a -> q1 @ 2
b -> q2 @ 1
f(q0) -> q1 @ 3
f(q1) -> q2 @ 2
f(q2) -> q0 @ 1
g(q0) -> q1 @ 4
g(q1) -> q2 @ 4
g(q2) -> q1 @ 2
m(q0,q2) -> q2 @ 3
m(q1,q0) -> q0 @ 1
m(q1,q1) -> q2 @ 3
m(q2,q2) -> q2 @ 2
"""
DUP_HOM = """from: a/0 b/0 f/1 g/1 m/2
to: a/0 b/0 f/1 g/1 k/2 m/2
a/0 -> a
b/0 -> b
f/1 -> f(x1)
g/1 -> k(x1,x1)
m/2 -> m(x1,x2)
"""


def test_default_bounds_on_a_duplicating_instance(memory_cap):
    h = parse_hom(DUP_HOM)
    for semiring, witness in [("natural", "k(f(f(f(a))),f(f(f(a))))"),
                              ("z6", "k(f(f(k(b,b))),f(f(k(b,b))))")]:
        A = parse_automaton(DUP_AUTOMATON.replace("natural", semiring))
        with memory_cap(128 * 2**20):
            reports = [decide_hom_regularity(A, h), decide_hom_regularity(A, h, eq_bound=10)]
        for report in reports:
            assert report.verdict == LINEARIZATION_MISMATCH
            t, wa, wb = report.equivalence.witness
            assert t.text == witness
            assert (wa, wb) == (naive_evaluate(report.fixed_image, t),
                                naive_evaluate(report.linearized, t))
            assert wa != wb


def test_internal_consistency_failure(data_dir, monkeypatch, capsys):
    # An ambiguous fixed image after passing preconditions is a bug in the
    # pipeline: the report says so and the verdict is UNKNOWN.
    def ambiguous(A, bound):
        t = parse_term("k(a,g(a))", A.alphabet)
        (run,) = Evaluator(A).accepting_runs(t)
        return violated(bound, (t, (run, run)), f"2 accepting runs for {t.text}")

    monkeypatch.setattr(treehom.decide, "check_unambiguous", ambiguous)
    warning = ("internal consistency failure: image automaton is ambiguous although the "
               "preconditions passed at the same bound: 2 accepting runs for k(a,g(a))")
    aut, hom = data_dir / "doubling_chain.aut", data_dir / "duplicating_hom.hom"
    report = decide_hom_regularity(load_automaton(aut), load_hom(hom), check_bound=3)
    assert report.verdict == UNKNOWN
    assert report.internal_consistency_failure
    assert report.warnings == [warning]
    assert report.projection is report.linearized is report.equivalence is None
    code = main(["decide", "--automaton", str(aut), "--hom", str(hom),
                 "--check-bound", "3", "--format", "machine"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["verdict"] == UNKNOWN
    assert out["internal_consistency_failure"] is True
    assert out["warnings"] == [warning]
    assert out["image_unambiguous"]["status"] == report.image_unambiguous.status
    assert out["image_unambiguous"]["detail"] == "2 accepting runs for k(a,g(a))"
    assert out["projection"] is out["linearized"] is out["equivalence"] is None


def test_decide_runs_the_relaxed_fixpoint_once_per_fixed_image(workloads, monkeypatch):
    # `check_unambiguous` and `linearization_equivalence` both ask whether
    # the fixed image's relaxation is unambiguous, at different bounds.
    built = []
    relaxed_rules = treehom.automaton._relaxed_rules
    monkeypatch.setattr(treehom.automaton, "_relaxed_rules",
                        lambda A: built.append(A) or relaxed_rules(A))
    dup = [inst for cls, members in workloads.branching_pool(2).items()
           if cls.startswith("dup-") for inst in members]
    assert len(dup) == 6
    for inst in dup:
        built.clear()
        A, h = parse_automaton(inst.automaton_text), parse_hom(inst.hom_text)
        report = decide_hom_regularity(A, h, check_bound=3)
        assert report.equivalence is not None
        assert len(built) == 1 and built[0] is report.fixed_image
