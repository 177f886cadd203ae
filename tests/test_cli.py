import json
import subprocess
import sys

import pytest

from treehom import (
    RankedAlphabet,
    automata_equal,
    bounded_equivalence,
    eliminate_zero_divisors,
    hom_image,
    linearize,
    wtg_to_wta,
)
from treehom.cli import (
    FileFormatError,
    _warn_enumeration,
    emit_report,
    format_automaton,
    format_hom,
    load_automaton,
    load_hom,
    main,
    parse_automaton,
    parse_hom,
    verdict_to_dict,
)
from oracles import naive_h_unambiguous, naive_unambiguous
from test_hom import BRANCHING, BRANCHING_SHAPES

AUT_FILES = [
    "doubling_chain.aut",
    "doubling_image.aut",
    "constrained_pair.aut",
    "arctic_chain.aut",
    "counting_chain.aut",
    "z6_chain.aut",
]
HOM_FILES = [
    "duplicating_hom.hom",
    "full_duplication.hom",
    "shifted_duplication.hom",
]


@pytest.mark.parametrize("name", AUT_FILES)
def test_automaton_round_trip(data_dir, name):
    A = load_automaton(data_dir / name)
    text = format_automaton(A)
    B = parse_automaton(text)
    assert automata_equal(A, B)
    assert format_automaton(B) == text


@pytest.mark.parametrize("name", HOM_FILES)
def test_hom_round_trip(data_dir, name):
    h = load_hom(data_dir / name)
    text = format_hom(h)
    h2 = parse_hom(text)
    assert h2.source == h.source and h2.target == h.target
    for sym, _ in h.source.items():
        assert h2.image_of(sym) == h.image_of(sym)
    assert format_hom(h2) == text


def test_parse_automaton_infers_alphabet(doubling_image):
    assert doubling_image.alphabet == RankedAlphabet(
        [("a", 0), ("g", 1), ("k", 2)])


def test_parse_automaton_errors():
    base = "semiring: natural\nstates: q\nfinal: q\nrules:\na -> q @ 1\n"
    for broken in [
        base.replace("semiring: natural\n", ""),
        base.replace("states: q\n", ""),
        base.replace("final: q\n", ""),
        base.replace("rules:\n", ""),
        base.replace("a -> q @ 1", "a -> q"),
        base.replace("a -> q @ 1", "a => q @ 1"),
        base.replace("a -> q @ 1", "a -> q @ 0"),
        base.replace("a -> q @ 1", "a -> q @ x"),
        base.replace("a -> q @ 1", "a -> p @ 1"),
        base.replace("a -> q @ 1", "q -> q @ 1"),
        base.replace("a -> q @ 1", "a -> q @ 1 | 1 = 2"),
        base.replace("a -> q @ 1", "a -> q @ 1\ng(q, q) -> q @ 1\ng(q) -> q @ 1"),
        base + "wild: line\n",
        base.replace("semiring: natural", "semiring: imaginary"),
    ]:
        with pytest.raises(FileFormatError):
            parse_automaton(broken)


def test_parse_automaton_reports_line_numbers():
    text = "semiring: natural\nstates: q\nfinal: q\nrules:\na -> q @ 0\n"
    with pytest.raises(FileFormatError) as err:
        parse_automaton(text)
    assert "line 5" in str(err.value)


def test_parse_automaton_state_with_arguments():
    text = "semiring: natural\nstates: q\nfinal: q\nrules:\nq(q) -> q @ 1\n"
    with pytest.raises(FileFormatError):
        parse_automaton(text)


def test_parse_automaton_comments_and_blanks():
    text = (
        "# heading\n\nsemiring: natural\n"
        "states: q   # trailing\nfinal: q\nrules:\n\n"
        "a -> q @ 2  # the only rule\n"
    )
    A = parse_automaton(text)
    assert [r.text for r in A.rules] == ["a -> q @ 2"]


def test_parse_hom_errors():
    base = "from: a/0 g/1\nto: c/0 k/2\na/0 -> c\ng/1 -> k(x1,c)\n"
    for broken in [
        base.replace("from: a/0 g/1\n", ""),
        base.replace("to: c/0 k/2\n", ""),
        base.replace("a/0 -> c\n", ""),  # missing image
        base.replace("a/0 -> c", "a/0 -> c\na/0 -> c"),  # duplicate
        base.replace("g/1 -> k(x1,c)", "g/1 -> x1"),  # erasing
        base.replace("g/1 -> k(x1,c)", "g/1 -> k(c,c)"),  # deleting
        base.replace("g/1 -> k(x1,c)", "b/0 -> c"),  # not a source symbol
        base.replace("g/1 -> k(x1,c)", "g/2 -> k(x1,c)"),  # wrong arity
        base.replace("g/1 -> k(x1,c)", "g/1 -> k(x1,x2)"),  # stray variable
        base.replace("from: a/0 g/1", "from: a/zero g/1"),
    ]:
        with pytest.raises(FileFormatError):
            parse_hom(broken)


def run_cli(*argv):
    return main(list(argv))


def test_cli_validate(data_dir, capsys):
    code = run_cli("validate", "--automaton", str(data_dir / "doubling_image.aut"),
                   "--hom", str(data_dir / "duplicating_hom.hom"))
    out = capsys.readouterr().out
    assert code == 0
    assert "eq-restricted: yes" in out
    assert "valid homomorphism" in out


def test_cli_validate_needs_input(capsys):
    assert run_cli("validate") == 1


def test_cli_missing_file_is_input_error(capsys):
    assert run_cli("eval", "--automaton", "/no/such.aut", "--tree", "a") == 1
    assert "error" in capsys.readouterr().err


def test_cli_malformed_tree_is_input_error(data_dir, capsys):
    code = run_cli("eval", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--tree", "f(")
    assert code == 1


def test_cli_eval(data_dir, capsys):
    code = run_cli("eval", "--automaton", str(data_dir / "constrained_pair.aut"),
                   "--tree", "k(g(g(a)),g(g(g(a))))")
    assert code == 0
    assert capsys.readouterr().out.strip() == "16"


def test_cli_support(data_dir, capsys):
    code = run_cli("support", "--automaton", str(data_dir / "doubling_image.aut"),
                   "--height", "4")
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "k(a,g(a)) -> 1",
        "k(g(a),g(g(a))) -> 2",
        "k(g(g(a)),g(g(g(a)))) -> 4",
    ]


def test_cli_runs(data_dir, capsys):
    code = run_cli("runs", "--automaton", str(data_dir / "counting_chain.aut"),
                   "--tree", "g(b)", "--state", "q")
    out = capsys.readouterr().out
    assert code == 0
    assert "1 to state q run(s)" in out
    assert "b -> q @ 3" in out


def test_cli_runs_accepting(data_dir, capsys):
    code = run_cli("runs", "--automaton", str(data_dir / "doubling_image.aut"),
                   "--tree", "k(g(a),g(g(a)))")
    assert code == 0
    assert capsys.readouterr().out == (
        "1 accepting run(s) for k(g(a),g(g(a)))\n"
        "run 1: target qf, weight 2\n"
        "  k(q,g(bot)) -> qf @ 1 | 1 = 2.1\n"
        "    g(q) -> q @ 2\n"
        "      a -> q @ 1\n"
        "    g(bot) -> bot @ 1\n"
        "      a -> bot @ 1\n"
    )
    # The one run on f(g(a)) weighs 2 * 3 = 0 in z6, so it is not accepting.
    code = run_cli("runs", "--automaton", str(data_dir / "z6_chain.aut"),
                   "--tree", "f(g(a))")
    assert code == 0
    assert capsys.readouterr().out == "0 accepting run(s) for f(g(a))\n"


def test_cli_image_writes_output(data_dir, tmp_path, capsys):
    out_file = tmp_path / "image.aut"
    code = run_cli("image", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(data_dir / "duplicating_hom.hom"),
                   "-o", str(out_file))
    assert code == 0
    img = load_automaton(out_file)
    assert automata_equal(img, load_automaton(data_dir / "doubling_image.aut"),
                          rename=True)


def test_cli_fix_zero_divisors(data_dir, capsys):
    code = run_cli("fix-zero-divisors", "--automaton", str(data_dir / "z6_chain.aut"))
    assert code == 0
    assert "q_v1_0" in capsys.readouterr().out


def test_cli_project_bool(data_dir, capsys):
    code = run_cli("project-bool", "--automaton", str(data_dir / "doubling_image.aut"))
    out = capsys.readouterr().out
    assert code == 0
    assert "semiring: boolean" in out
    assert "k(q,g(q)) -> qf @ 1 | 1 = 2.1" in out


def test_cli_linearize(data_dir, capsys):
    code = run_cli("linearize", "--automaton", str(data_dir / "doubling_image.aut"),
                   "--height", "2")
    out = capsys.readouterr().out
    assert code == 0
    assert "k(g(g(a)),g(g(g(a)))) -> qf @ 4" in out


def test_cli_check_exit_codes(data_dir, capsys):
    ok = run_cli("check", "eq-restricted",
                 "--automaton", str(data_dir / "doubling_image.aut"))
    bad = run_cli("check", "eq-restricted",
                  "--automaton", str(data_dir / "constrained_pair.aut"))
    assert (ok, bad) == (0, 2)
    tetris = run_cli("check", "tetris-free",
                     "--hom", str(data_dir / "shifted_duplication.hom"),
                     "--height", "4")
    assert tetris == 2
    hunamb = run_cli("check", "h-unambiguous",
                     "--automaton", str(data_dir / "arctic_chain.aut"),
                     "--hom", str(data_dir / "full_duplication.hom"),
                     "--height", "3")
    assert hunamb == 2
    unamb = run_cli("check", "unambiguous",
                    "--automaton", str(data_dir / "counting_chain.aut"),
                    "--height", "4")
    assert unamb == 0


def test_cli_check_requires_matching_inputs(data_dir, capsys):
    code = run_cli("check", "tetris-free",
                   "--automaton", str(data_dir / "doubling_chain.aut"))
    assert code == 1


def test_cli_check_machine_format(data_dir, capsys):
    code = run_cli("check", "tetris-free",
                   "--hom", str(data_dir / "shifted_duplication.hom"),
                   "--height", "4", "--format", "machine")
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["status"] == "witness"
    assert payload["bound"] == 4
    assert sorted(payload["witness"]) == ["b", "g(a)"]


def test_cli_equiv(data_dir, tmp_path, capsys):
    lin_file = tmp_path / "lin.aut"
    run_cli("linearize", "--automaton", str(data_dir / "doubling_image.aut"),
            "--height", "2", "-o", str(lin_file))
    capsys.readouterr()
    same = run_cli("equiv", "--a", str(data_dir / "doubling_image.aut"),
                   "--b", str(lin_file), "--height", "4")
    assert same == 0
    differ = run_cli("equiv", "--a", str(data_dir / "doubling_image.aut"),
                     "--b", str(lin_file), "--height", "5")
    out = capsys.readouterr().out
    assert differ == 2
    assert "k(g(g(g(a))),g(g(g(g(a)))))" in out
    assert "8 vs 0" in out


def test_cli_equiv_machine_format(data_dir, tmp_path, capsys):
    lin_file = tmp_path / "lin.aut"
    run_cli("linearize", "--automaton", str(data_dir / "doubling_image.aut"),
            "--height", "2", "-o", str(lin_file))
    capsys.readouterr()
    args = ("equiv", "--a", str(data_dir / "doubling_image.aut"), "--b", str(lin_file),
            "--format", "machine", "--height")
    assert run_cli(*args, "4") == 0
    assert capsys.readouterr().out == (
        '{\n  "bound": 4,\n  "detail": "",\n  "status": "ok",\n  "witness": null\n}\n'
    )
    assert run_cli(*args, "5") == 2
    assert capsys.readouterr().out == (
        '{\n  "bound": 5,\n'
        '  "detail": "series differ on k(g(g(g(a))),g(g(g(g(a))))): 8 vs 0",\n'
        '  "status": "witness",\n'
        '  "witness": [\n    "k(g(g(g(a))),g(g(g(g(a)))))",\n    "8",\n    "0"\n  ]\n}\n'
    )


def test_cli_check_eq_restricted_machine_format(data_dir, capsys):
    ok = run_cli("check", "eq-restricted", "--automaton",
                 str(data_dir / "doubling_image.aut"), "--format", "machine")
    assert ok == 0
    assert capsys.readouterr().out == '{\n  "eq_restricted": true,\n  "reason": null\n}\n'
    bad = run_cli("check", "eq-restricted", "--automaton",
                  str(data_dir / "constrained_pair.aut"), "--format", "machine")
    assert bad == 2
    assert capsys.readouterr().out == (
        '{\n  "eq_restricted": false,\n  "reason": "no sink state declared"\n}\n'
    )


def test_cli_decide_text_and_exit(data_dir, capsys):
    code = run_cli("decide", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(data_dir / "duplicating_hom.hom"),
                   "--eq-bound", "5")
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: LINEARIZATION_MISMATCH" in out


def test_cli_decide_machine(data_dir, capsys):
    code = run_cli("decide", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(data_dir / "duplicating_hom.hom"),
                   "--eq-bound", "5", "--format", "machine")
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "LINEARIZATION_MISMATCH"
    witness = payload["equivalence"]["witness"]
    assert witness[0] == "k(g(g(g(a))),g(g(g(g(a)))))"
    assert witness[1:] == ["8", "0"]


def test_cli_decide_precondition_exit(data_dir, capsys):
    code = run_cli("decide", "--automaton", str(data_dir / "arctic_chain.aut"),
                   "--hom", str(data_dir / "full_duplication.hom"),
                   "--format", "machine")
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "PRECONDITION_VIOLATED"
    assert payload["h_unambiguous"]["witness"][:2] == ["a", "b"]


def test_cli_decide_positive_exit(data_dir, tmp_path, capsys):
    hom_file = tmp_path / "ident.hom"
    hom_file.write_text(
        "from: a/0 g/1 f/1\nto: a/0 g/1 f/1\n"
        "a/0 -> a\ng/1 -> g(x1)\nf/1 -> f(x1)\n")
    code = run_cli("decide", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(hom_file))
    assert code == 0
    assert "verdict: EVIDENCE_REGULAR" in capsys.readouterr().out


def test_cli_decide_unknown_exit(data_dir, tmp_path, capsys):
    # Oracle speaking gibberish leaves the question open: exit code 3.
    oracle = tmp_path / "noise.sh"
    oracle.write_text("#!/bin/sh\necho maybe\n")
    oracle.chmod(0o755)
    hom_file = tmp_path / "ident.hom"
    hom_file.write_text(
        "from: a/0 g/1 f/1\nto: a/0 g/1 f/1\n"
        "a/0 -> a\ng/1 -> g(x1)\nf/1 -> f(x1)\n")
    code = run_cli("decide", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(hom_file), "--oracle", str(oracle))
    assert code == 3


def test_cli_decide_tetris_violation_at_default_bound(tmp_path, capsys, memory_cap):
    # Every source tree up to height 4 over this alphabet would not fit in memory.
    aut = tmp_path / "branching.aut"
    aut.write_text(
        "semiring: natural\nstates: q\nfinal: q\nrules:\n"
        "a -> q @ 1\nb -> q @ 1\nf(q) -> q @ 1\ng(q) -> q @ 2\nm(q,q) -> q @ 1\n")
    hom = tmp_path / "tetris.hom"
    hom.write_text(
        "from: a/0 b/0 f/1 g/1 m/2\nto: a/0 b/0 g/1 m/2\n"
        "a/0 -> a\nb/0 -> b\nf/1 -> g(g(x1))\ng/1 -> g(x1)\nm/2 -> m(x1,x2)\n")
    with memory_cap():
        code = run_cli("decide", "--automaton", str(aut), "--hom", str(hom),
                       "--check-bound", "4", "--format", "machine")
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "PRECONDITION_VIOLATED"
    assert payload["tetris_free"]["witness"] == ["f(a)", "g(g(a))"]


FOUR_WEIGHT_CHAIN = (
    "semiring: z30\nstates: q0 q1 q2\nfinal: q2\nrules:\n"
    "a -> q0 @ 2\ng(q0) -> q1 @ 3\ng(q1) -> q1 @ 5\nk(q1,q0) -> q2 @ 7\n")
SWAP_HOM = ("from: a/0 g/1 k/2\nto: a/0 g/1 k/2\n"
            "a/0 -> a\ng/1 -> g(x1)\nk/2 -> k(x2,x1)\n")


def test_cli_decide_four_weight_chain_stays_small(tmp_path, capsys, memory_cap):
    # Over all of {0..5}^4 the fixed image has 1,639 states and 136,912
    # rules; 2 * 3 * 5 = 0 mod 30, so only one vector per state is reachable.
    aut = tmp_path / "chain.aut"
    aut.write_text(FOUR_WEIGHT_CHAIN)
    hom = tmp_path / "swap.hom"
    hom.write_text(SWAP_HOM)
    with memory_cap():
        code = run_cli("decide", "--automaton", str(aut), "--hom", str(hom),
                       "--check-bound", "4", "--format", "machine")
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["verdict"] == "UNKNOWN"
    assert payload["zero_divisor_path"] == "dickson cap u=5"
    assert (payload["fixed_image"]["states"], payload["fixed_image"]["rules"]) == (4, 6)


def test_cli_decide_text_reports_fixed_image(data_dir, tmp_path, capsys):
    hom = tmp_path / "swap.hom"
    hom.write_text(SWAP_HOM)
    aut = tmp_path / "chain.aut"
    aut.write_text(FOUR_WEIGHT_CHAIN)
    run_cli("decide", "--automaton", str(aut), "--hom", str(hom))
    lines = capsys.readouterr().out.splitlines()
    i = lines.index("zero-divisor elimination: dickson cap u=5")
    assert lines[i + 1] == "fixed image: 4 states, 6 rules"
    # Elimination returns a natural image unchanged: no line for it.
    run_cli("decide", "--automaton", str(data_dir / "doubling_chain.aut"),
            "--hom", str(data_dir / "duplicating_hom.hom"))
    assert "fixed image" not in capsys.readouterr().out


def test_cli_check_tetris_free_warns_only_before_a_walk(tmp_path, capsys, memory_cap):
    # About 2.8e33 source trees up to height 6; only the walk enumerates them.
    head = "from: a/0 b/0 f/1 g/1 m/2\n"
    dup = tmp_path / "dup.hom"
    dup.write_text(head + "to: a/0 b/0 f/1 k/2 m/2\n"
                   "a/0 -> a\nb/0 -> b\nf/1 -> f(x1)\ng/1 -> k(x1,x1)\n"
                   "m/2 -> m(x1,x2)\n")
    tetris = tmp_path / "tetris.hom"
    tetris.write_text(head + "to: a/0 b/0 g/1 m/2\n"
                      "a/0 -> a\nb/0 -> b\nf/1 -> g(g(x1))\ng/1 -> g(x1)\n"
                      "m/2 -> m(x1,x2)\n")
    with memory_cap():
        assert run_cli("check", "tetris-free", "--hom", str(dup), "--height", "6") == 0
        out, err = capsys.readouterr()
        assert out == "tetris-free up to height 6\n"
        assert err == ""
        assert run_cli("check", "tetris-free", "--hom", str(tetris), "--height", "6") == 2
        assert "warning: enumerating" in capsys.readouterr().err


# Deterministic, so unambiguous; g(a) and g(b) reach q0 from different states.
BRANCHING_AUT = (
    "semiring: natural\nstates: q0 q1\nfinal: q0\nrules:\n"
    "a -> q0 @ 1\nb -> q1 @ 1\nf(q0) -> q0 @ 2\nf(q1) -> q1 @ 1\n"
    "g(q0) -> q0 @ 1\ng(q1) -> q0 @ 3\nm(q0,q0) -> q0 @ 1\nm(q1,q0) -> q1 @ 1\n")


def write_branching_shape(tmp_path, kind):
    """Files for BRANCHING_AUT and the hom of the given BRANCHING_SHAPES kind."""
    images, target = BRANCHING_SHAPES[kind]
    aut = tmp_path / "branching.aut"
    aut.write_text(BRANCHING_AUT)
    hom = tmp_path / f"{kind}.hom"
    hom.write_text(
        "from: " + " ".join(f"{n}/{k}" for n, k in BRANCHING.items()) + "\n"
        + "to: " + " ".join(f"{n}/{k}" for n, k in target) + "\n"
        + "".join(f"{n}/{BRANCHING.rank(n)} -> {text}\n" for n, text in images.items()))
    return aut, hom


@pytest.mark.parametrize("kind", ["dup", "merge"])
def test_cli_decide_check_bound_4_on_branching_shapes(kind, tmp_path, capsys, memory_cap):
    # About 2.3e8 source trees up to height 4; the enumerating checks need
    # more memory than the cap allows.
    aut, hom = write_branching_shape(tmp_path, kind)
    with memory_cap():
        code = run_cli("decide", "--automaton", str(aut), "--hom", str(hom),
                       "--check-bound", "4", "--lin-height", "1", "--eq-bound", "3",
                       "--format", "machine")
    payload = json.loads(capsys.readouterr().out)
    A, h = load_automaton(aut), load_hom(hom)
    expected = verdict_to_dict(naive_h_unambiguous(A, h, 3))
    assert payload["h_unambiguous"] == {**expected, "bound": 4}
    if kind == "merge":
        assert expected["witness"][:2] == ["g(a)", "g(b)"]
        assert (code, payload["verdict"]) == (2, "PRECONDITION_VIOLATED")
        return
    assert expected["status"] == "ok"
    fixed = eliminate_zero_divisors(hom_image(A, h))
    expected = verdict_to_dict(naive_unambiguous(fixed, 3))
    assert expected["status"] == "ok"
    assert payload["image_unambiguous"] == {**expected, "bound": 4}
    equal = bounded_equivalence(fixed, wtg_to_wta(linearize(fixed, 1)), 3).is_ok
    assert (code, payload["verdict"]) == ((0, "EVIDENCE_REGULAR") if equal
                                          else (2, "LINEARIZATION_MISMATCH"))


def test_cli_decide_warns_only_when_it_will_enumerate(tmp_path, capsys, memory_cap):
    # Only a hom whose class images do not all clash makes decide walk the
    # source trees up to the check bound.
    for kind, warns in (("dup", False), ("tetris", True)):
        aut, hom = write_branching_shape(tmp_path, kind)
        with memory_cap():
            run_cli("decide", "--automaton", str(aut), "--hom", str(hom),
                    "--check-bound", "6", "--lin-height", "1", "--eq-bound", "3")
        err = capsys.readouterr().err
        assert ("warning: enumerating" in err) == warns
        if not warns:
            assert err == ""


def test_enumeration_warning(capsys):
    big = RankedAlphabet([("a", 0), ("g", 1), ("k", 2)])
    _warn_enumeration(big, 5)
    assert "warning" in capsys.readouterr().err
    _warn_enumeration(big, 4)
    assert capsys.readouterr().err == ""


def test_emit_report_requires_known_type():
    with pytest.raises(TypeError):
        emit_report(object())


def test_console_script_entry_point(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "treehom.cli", "eval",
         "--automaton", str(data_dir / "doubling_chain.aut"),
         "--tree", "f(g(a))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
