import decimal
import gc
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from treehom import (
    RankedAlphabet,
    Tree,
    bounded_equivalence,
    decide_hom_regularity,
    eliminate_zero_divisors,
    hom_image,
    linearize,
    project_boolean,
)
from treehom import cli
from treehom.cli import (
    COMMANDS,
    FileFormatError,
    emit_report,
    format_automaton,
    load_automaton,
    load_hom,
    main,
    parse_automaton,
    parse_hom,
    read_args,
    verdict_to_dict,
)
from oracles import (
    automata_equal,
    build_parser,
    canonical_form,
    canonical_rename,
    naive_h_unambiguous,
    naive_unambiguous,
    random_modular_pair,
    random_pair,
    reference_parse_automaton,
    reference_parse_hom,
    wtg_to_wta,
    z6_copy,
)
from conftest import DATA_DIR, ROOT
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


def canonical_text(A):
    """The file text of the rebuilt canonical form of A."""
    C = canonical_form(A)
    lines = [f"semiring: {C.semiring.id}", f"states: {' '.join(C.states)}"]
    if C.sink is not None:
        lines.append(f"sink: {C.sink}")
    lines += [f"final: {' '.join(C.finals)}", "rules:"]
    lines += [rule.text for rule in C.rules]
    return "\n".join(lines) + "\n"


def test_format_automaton_prints_the_canonical_form(data_dir):
    automata = [load_automaton(data_dir / name) for name in AUT_FILES]
    rng = random.Random(17)
    pairs = [random_pair(rng, sr_id) for sr_id in ("natural", "arctic", "z6", "integer") * 2]
    pairs += [random_modular_pair(rng) for _ in range(4)]
    for A, h in pairs:
        image = hom_image(A, h)
        fixed = eliminate_zero_divisors(image)
        automata += [image, fixed, project_boolean(fixed), linearize(fixed, 1)]
    for A in automata:
        assert format_automaton(A) == canonical_text(A)


def format_hom(h):
    lines = [
        "from: " + " ".join(f"{n}/{k}" for n, k in sorted(h.source.items())),
        "to: " + " ".join(f"{n}/{k}" for n, k in sorted(h.target.items())),
    ]
    for name, rank in sorted(h.source.items()):
        lines.append(f"{name}/{rank} -> {h.image_of(name).text}")
    return "\n".join(lines) + "\n"


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


PARSE_BASE = "semiring: natural\nstates: q\nfinal: q\nrules:\na -> q @ 1\n"
# Each malformed file and its error message, as the messages read before the
# alphabet was taken from `parse_nodes`.
PARSE_ERRORS = [
    (PARSE_BASE.replace("semiring: natural\n", ""), "missing 'semiring:' line"),
    (PARSE_BASE.replace("states: q\n", ""), "missing 'states:' line"),
    (PARSE_BASE.replace("final: q\n", ""), "missing 'final:' line"),
    (PARSE_BASE.replace("rules:\n", ""), "line 4: expected 'key: value', got 'a -> q @ 1'"),
    (PARSE_BASE.replace("a -> q @ 1", "a -> q"), "line 5: rule needs '@ weight'"),
    (PARSE_BASE.replace("a -> q @ 1", "a => q @ 1"), "line 5: rule needs 'lhs -> state @ weight'"),
    (PARSE_BASE.replace("a -> q @ 1", "a -> q @ 0"), "line 5: zero-weight rule: a -> q @ 0"),
    (PARSE_BASE.replace("a -> q @ 1", "a -> q @ x"), "line 5: invalid natural weight literal: 'x'"),
    (PARSE_BASE.replace("a -> q @ 1", "a -> p @ 1"), "undeclared target state: p"),
    (PARSE_BASE.replace("a -> q @ 1", "q -> q @ 1"), "no alphabet symbols appear in any rule"),
    (PARSE_BASE.replace("a -> q @ 1", "a -> q @ 1 | 1 = 2"),
     "constraint position 1 is not a state position"),
    (PARSE_BASE.replace("a -> q @ 1", "a -> q @ 1\ng(q, q) -> q @ 1\ng(q) -> q @ 1"),
     "line 7: symbol g used at ranks 2 and 1"),
    # Within one lhs the outer symbol's rank comes first.
    (PARSE_BASE.replace("a -> q @ 1", "a -> q @ 1\nf(f(q, q)) -> q @ 1"),
     "line 6: symbol f used at ranks 1 and 2"),
    (PARSE_BASE.replace("a -> q @ 1", "f(q, g(q)) -> q @ 1\ng(q, a) -> q @ 1"),
     "line 6: symbol g used at ranks 1 and 2"),
    (PARSE_BASE + "wild: line\n", "line 6: rule needs 'lhs -> state @ weight'"),
    (PARSE_BASE.replace("semiring: natural", "semiring: imaginary"),
     "line 1: unknown semiring: 'imaginary'"),
]


def test_parse_automaton_errors():
    for broken, message in PARSE_ERRORS:
        with pytest.raises(FileFormatError) as err:
            parse_automaton(broken)
        assert str(err.value) == message


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


# Differential tests of the file readers against the references in
# `oracles`: files derived from valid ones by a few small edits, each a
# piece of the file syntax put in place of up to four characters, must give
# the same automaton or hom, or the same error message and line.
READER_PIECES = ["", "(", ")", ",", "|", "=", "@", "->", "#", ":", "\n", "\r", "\r\n", " ",
                 "0", "1", "2", "1.2", "e", "q", "q0", "bot", "a", "b", "g", "f(", "k(",
                 "x1", "x2", "/", "/0", "/1", "/2", "from", "to", "rules", "states", "final",
                 "sink", "semiring", "z6", "a(q)", "f(q)", "g(q, q)"]
READER_AUTOMATA = [(DATA_DIR / name).read_text() for name in AUT_FILES] + [
    "semiring: tropical\nstates: q p bot\nsink: bot\nfinal: p\nrules:\n"
    "a -> q @ 1\nb -> q @ 2\nf(q, g(q)) -> p @ 3 | 1 = 2.1\ng(q) -> q @ 1\n"
    "f(bot, q) -> bot @ 1\n",
    "semiring: z6\nstates: q\nfinal: q\nrules:\na -> q @ 2\nf(f(q, q), a) -> q @ 3\n",
]
READER_HOMS = [(DATA_DIR / name).read_text() for name in HOM_FILES] + [
    "from: a/0 g/1 f/2\nto: a/0 g/1 k/2\na/0 -> a\ng/1 -> g(g(x1))\nf/2 -> k(x2,g(x1))\n",
]


@st.composite
def edited(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(READER_PIECES)) + text[j:]
    return text


def read_outcome(parse, text):
    try:
        return parse(text)
    except Exception as err:  # any difference in kind or message is a failure
        return type(err).__name__, str(err)


@settings(max_examples=400)
@given(edited(READER_AUTOMATA))
def test_parse_automaton_agrees_with_the_reference(text):
    got, want = read_outcome(parse_automaton, text), read_outcome(reference_parse_automaton, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.alphabet == want.alphabet
        assert automata_equal(got, want)


@settings(max_examples=400)
@given(edited(READER_HOMS))
def test_parse_hom_agrees_with_the_reference(text):
    got, want = read_outcome(parse_hom, text), read_outcome(reference_parse_hom, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert (got.source, got.target, got.images) == (want.source, want.target, want.images)


@pytest.mark.parametrize("option,data,message", [
    ("--automaton", b"semiring: natural\nstates: q\n# caf\xff\nfinal: q\nrules:\na -> q @ 1\n",
     "line 3: not UTF-8 text: byte 0xff (invalid start byte)"),
    ("--automaton", b"semiring: natural\rstates: q\r\nfinal: q\rrules:\r\xe9 -> q @ 1\r",
     "line 5: not UTF-8 text: byte 0xe9 (invalid continuation byte)"),
    ("--hom", b"from: a/0\r\nto: a/0\r\n\r\na/0 -> a # \xe2\x82\n",
     "line 4: not UTF-8 text: byte 0xe2 (invalid continuation byte)"),
    ("--hom", b"\x80from: a/0\nto: a/0\na/0 -> a\n",
     "line 1: not UTF-8 text: byte 0x80 (invalid start byte)"),
])
def test_cli_non_utf8_input_is_one_error_line(tmp_path, capsys, option, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    if option == "--automaton":
        code = run_cli("eval", "--automaton", str(path), "--tree", "a")
    else:
        code = run_cli("validate", "--hom", str(path))
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_load_numbers_lines_as_the_parser_does(tmp_path):
    # "\r\n" and a lone "\r" each end one line, read from a file or not.
    text = "semiring: natural\r\nstates: q\rfinal: q\r\n\r\nrules:\ra -> q @ 0\r\n"
    path = tmp_path / "crlf.aut"
    path.write_bytes(text.encode())
    with pytest.raises(FileFormatError, match="^line 6: zero-weight rule") as err:
        load_automaton(path)
    with pytest.raises(FileFormatError) as direct:
        parse_automaton(text)
    assert str(err.value) == str(direct.value)


# A tuple as a key, a set, bytes and a plain object: json.dumps rejects each.
# The ids are the positions these inputs held in the encoder's longer input list.
@pytest.mark.parametrize("payload", [
    pytest.param({(1,): "a"}, id="payload1"),
    pytest.param({"a": {1, 2}}, id="payload2"),
    pytest.param([b"x"], id="payload4"),
    pytest.param(object(), id="payload5"),
])
def test_machine_text_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._machine_text(payload)


def run_cli(*argv):
    return main(list(argv))


def test_image_line_with_two_symbols_is_one_error_line(tmp_path, capsys):
    text = "from: a/0 f/1 g/1\nto: a/0 f/1 g/1\na/0 -> a\nf/1 g/1 -> g(x1)\ng/1 -> g(x1)\n"
    with pytest.raises(FileFormatError, match="^line 4: expected 'name/rank -> term'"):
        parse_hom(text)
    path = tmp_path / "two.hom"
    path.write_text(text)
    assert run_cli("validate", "--hom", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_cli_too_deep_tree_is_one_error_line(data_dir, capsys, monkeypatch):
    # A stand-in raise: parsing and evaluation no longer recurse once per level.
    def too_deep(self, text):
        raise RecursionError

    monkeypatch.setattr("treehom.cli.Evaluator.evaluate_text", too_deep)
    code = run_cli("eval", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--tree", "f(a)")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_eval_of_tall_chains(data_dir, capsys):
    tree = "f(" + "g(" * 3000 + "a" + ")" * 3001
    assert run_cli("eval", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--tree", tree) == 0
    assert capsys.readouterr().out == f"{2**3000}\n"
    # counting_chain.aut: g^n(a) -> 2, g^n(b) -> 3
    for leaf, value in (("a", "2"), ("b", "3")):
        tree = "g(" * 100_000 + leaf + ")" * 100_000
        assert run_cli("eval", "--automaton", str(data_dir / "counting_chain.aut"),
                       "--tree", tree) == 0
        assert capsys.readouterr().out == f"{value}\n"


def test_cli_prints_exact_weights_of_any_size(data_dir, capsys):
    n = 20_000  # 2**n has 6,021 digits, past the interpreter's int-to-str limit
    tree = "f(" + "g(" * n + "a" + ")" * (n + 1)
    assert run_cli("eval", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--tree", tree) == 0
    exact = decimal.Context(prec=n, traps=[decimal.Inexact])
    assert capsys.readouterr().out == format(exact.power(2, n), "f") + "\n"


@pytest.mark.parametrize("semiring,sign", [
    ("natural", ""), ("integer", "-"), ("tropical", ""), ("arctic", ""),
])
def test_cli_reads_weight_literals_of_any_size(tmp_path, capsys, semiring, sign):
    digits = "9" + "1234567890" * 600  # 6,001 digits
    path = tmp_path / "long.aut"
    path.write_text(f"semiring: {semiring}\nstates: q\nfinal: q\nrules:\n"
                    f"a -> q @ {sign}{digits}\ng(q) -> q @ 1\n")
    assert run_cli("eval", "--automaton", str(path), "--tree", "a") == 0
    assert capsys.readouterr().out == f"{sign}{digits}\n"
    assert run_cli("eval", "--automaton", str(path), "--tree", "g(a)") == 0
    # times one over the naturals and integers, plus one over tropical and arctic
    want = digits if semiring in ("natural", "integer") else digits[:-1] + "1"
    assert capsys.readouterr().out == f"{sign}{want}\n"


def test_cli_out_of_memory_is_one_error_line(data_dir, capsys, memory_cap, monkeypatch):
    # A stand-in raise: the test never allocates the memory it reports.
    def exhausted(self, text):
        raise MemoryError

    monkeypatch.setattr("treehom.cli.Evaluator.evaluate_text", exhausted)
    with memory_cap():
        code = run_cli("eval", "--automaton", str(data_dir / "doubling_chain.aut"),
                       "--tree", "f(a)")
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: out of memory\n"


def test_cli_out_of_memory_in_the_run_chart_is_one_error_line(data_dir, capsys, monkeypatch):
    # Stand-ins again: the chart fill runs out of memory at its first rule
    # application, and so does the suspended instance generator when it is
    # closed.  Left to the garbage collector, that close would be reported
    # through sys.unraisablehook, with a traceback, before the error line.
    def exhausted(*args):
        raise MemoryError

    def instances(self, rule, h, langs):
        try:
            yield [Tree("a")] * len(rule.state_positions)
        except GeneratorExit:
            raise MemoryError from None

    unraisable = []
    monkeypatch.setattr("treehom.automaton._apply", exhausted)
    monkeypatch.setattr("treehom.automaton.RunsTable._instances", instances)
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    code = run_cli("support", "--automaton", str(data_dir / "doubling_image.aut"),
                   "--height", "2")
    gc.collect()
    assert code == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert unraisable == []


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


def test_cli_runs_to_an_undeclared_state(data_dir, capsys):
    code = run_cli("runs", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--tree", "f(g(a))", "--state", "nowhere")
    assert code == 1
    assert capsys.readouterr() == ("", "error: undeclared state: nowhere\n")


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


def test_cli_runs_of_tall_chains(data_dir, capsys):
    n = 3000
    tree = "f(" + "g(" * n + "a" + ")" * (n + 1)
    code = run_cli("runs", "--automaton", str(data_dir / "doubling_chain.aut"), "--tree", tree)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == n + 4
    # run line i (from 0) is indented by 2 + 2 * i spaces
    assert lines[-1] == " " * (2 * n + 4) + "a -> q @ 1"


SINK_WTA = """semiring: natural
states: q qf bot
sink: bot
final: qf
rules:
a -> q @ 1
g(q) -> q @ 2
k(q,bot) -> qf @ 3
k(q,q) -> qf @ 5
a -> bot @ 1
g(bot) -> bot @ 1
k(bot,bot) -> bot @ 1
"""


def test_cli_runs_of_a_wta_with_sink_positions(tmp_path, capsys):
    # g(a) is one subterm wanted at q and at the sink: each sink position
    # gets the subterm's weight-one sink run.
    path = tmp_path / "sink.aut"
    path.write_text(SINK_WTA)
    code = run_cli("runs", "--automaton", str(path), "--tree", "k(g(a), g(a))")
    assert code == 0
    assert capsys.readouterr() == (
        "2 accepting run(s) for k(g(a),g(a))\n"
        "run 1: target qf, weight 6\n"
        "  k(q,bot) -> qf @ 3\n"
        "    g(q) -> q @ 2\n"
        "      a -> q @ 1\n"
        "    g(bot) -> bot @ 1\n"
        "      a -> bot @ 1\n"
        "run 2: target qf, weight 20\n"
        "  k(q,q) -> qf @ 5\n"
        "    g(q) -> q @ 2\n"
        "      a -> q @ 1\n"
        "    g(q) -> q @ 2\n"
        "      a -> q @ 1\n", "")
    code = run_cli("runs", "--automaton", str(path), "--tree", "k(g(a), g(a))",
                   "--state", "bot")
    assert code == 0
    assert capsys.readouterr() == (
        "1 to state bot run(s) for k(g(a),g(a))\n"
        "run 1: target bot, weight 1\n"
        "  k(bot,bot) -> bot @ 1\n"
        "    g(bot) -> bot @ 1\n"
        "      a -> bot @ 1\n"
        "    g(bot) -> bot @ 1\n"
        "      a -> bot @ 1\n", "")


@pytest.mark.parametrize("name, tree", [("doubling_chain.aut", "f(g(a)"),
                                        ("doubling_image.aut", "k(g(a)")])
def test_cli_runs_reports_a_malformed_tree_before_an_undeclared_state(data_dir, capsys, name,
                                                                      tree):
    # A WTA's runs are listed from the parse, any other automaton's from a tree.
    code = run_cli("runs", "--automaton", str(data_dir / name), "--tree", tree,
                   "--state", "nowhere")
    assert code == 1
    assert capsys.readouterr() == ("", "error: column 7: expected ')' or ','\n")


def test_cli_constraint_positions_of_any_length(tmp_path, capsys):
    digits = "1" * 5000  # past the interpreter's int-to-str limit
    path = tmp_path / "long.aut"
    path.write_text("semiring: natural\nstates: q p\nfinal: p\nrules:\na -> q @ 1\n"
                    f"k(q,q) -> p @ 1 | 1 = {digits}\n")
    assert run_cli("eval", "--automaton", str(path), "--tree", "k(a,a)") == 1
    err = capsys.readouterr().err
    assert err == f"error: constraint position {digits} is not a state position\n"


def test_cli_hom_ranks_of_too_many_digits(tmp_path, capsys):
    path = tmp_path / "long.hom"
    path.write_text(f"from: a/0 f/{'1' * 5000}\nto: a/0\na/0 -> a\n")
    assert run_cli("validate", "--hom", str(path)) == 1
    assert capsys.readouterr().err == "error: line 1: rank of f has too many digits\n"


def test_cli_hom_of_a_huge_rank(tmp_path, capsys, memory_cap):
    # Variables are checked by index: no set of a million names is built.
    path = tmp_path / "wide.hom"
    path.write_text("from: a/0 f/1000000\nto: a/0 k/2\na/0 -> a\nf/1000000 -> a\n")
    with memory_cap(32 * 2**20):
        assert run_cli("validate", "--hom", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: deleting homomorphism: h(f) drops x1, x2, x3, x4, x5 and 999995 more\n")
    path.write_text("from: a/0 f/1000000\nto: a/0 k/2\na/0 -> a\n"
                    "f/1000000 -> k(x1000000,x1)\n")
    with memory_cap(32 * 2**20):
        assert run_cli("validate", "--hom", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: deleting homomorphism: h(f) drops x2, x3, x4, x5, x6 and 999993 more\n")
    path.write_text("from: a/0 f/1000000\nto: a/0 k/2\na/0 -> a\n"
                    "f/1000000 -> k(x1000001,x1)\n")
    assert run_cli("validate", "--hom", str(path)) == 1
    assert capsys.readouterr().err == "error: line 4: column 3: unknown symbol: x1000001\n"


def test_cli_moduli_of_any_length(tmp_path, capsys):
    modulus = "2" * 5000
    path = tmp_path / "long.aut"
    path.write_text(f"semiring: z{modulus}\nstates: q\nfinal: q\nrules:\na -> q @ 7\n"
                    f"g(q) -> q @ {'3' * 5000}\n")
    assert run_cli("eval", "--automaton", str(path), "--tree", "a") == 1
    err = capsys.readouterr().err
    assert err == (f"error: line 6: residue {'3' * 5000} out of range for z{modulus} "
                   f"(expected 0..{modulus[:-1]}1)\n")
    path.write_text(f"semiring: z{modulus}\nstates: q\nfinal: q\nrules:\na -> q @ 7\n"
                    f"g(q) -> q @ {modulus[:-1]}1\n")
    assert run_cli("eval", "--automaton", str(path), "--tree", "g(a)") == 0
    assert capsys.readouterr().out == f"{modulus[:-2]}15\n"  # 7 * (k - 1) = k - 7


def test_cli_image_writes_output(data_dir, tmp_path, capsys):
    out_file = tmp_path / "image.aut"
    code = run_cli("image", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(data_dir / "duplicating_hom.hom"),
                   "-o", str(out_file))
    assert code == 0
    img = load_automaton(out_file)
    assert automata_equal(canonical_rename(img),
                          canonical_rename(load_automaton(data_dir / "doubling_image.aut")))


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


@pytest.mark.parametrize("name", HOM_FILES)
def test_cli_check_tetris_free_rejects_a_negative_height(data_dir, capsys, name):
    code = run_cli("check", "tetris-free", "--hom", str(data_dir / name), "--height", "-1")
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: height bound must be nonnegative\n"


def test_cli_check_unambiguous_rejects_a_negative_height(tmp_path, capsys):
    # Two rules share lhs and target, so the check goes straight to the run
    # chart, whose layers would never reach a negative height.
    path = tmp_path / "merging.aut"
    path.write_text("semiring: natural\nstates: q p\nfinal: p\nrules:\n"
                    "a -> q @ 2\nk(q,q) -> p @ 1 | 1 = 2\nk(q,q) -> p @ 5\n")
    code = run_cli("check", "unambiguous", "--automaton", str(path), "--height", "-1")
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: height bound must be nonnegative\n"


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


@pytest.mark.parametrize("oracle,diagnostic", [
    ('foo "bar', "oracle failed to run: No closing quotation"),
    ("", "oracle command is empty"),
])
def test_cli_decide_unusable_oracle_command_is_unknown(data_dir, oracle, diagnostic):
    proc = subprocess.run(
        [sys.executable, "-m", "treehom.cli", "decide",
         "--automaton", str(data_dir / "doubling_chain.aut"),
         "--hom", str(data_dir / "duplicating_hom.hom"), "--oracle", oracle],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert f"warning: {diagnostic}\nverdict: UNKNOWN\n" in proc.stdout


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
    # About 2.8e33 source trees up to height 6; only the walk enumerates them,
    # up to its first violation, and nothing is written to stderr.
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
        assert capsys.readouterr().err == ""


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


def test_cli_decide_warns_only_when_it_will_enumerate(tmp_path, capsys, memory_cap,
                                                     workloads):
    # Only a hom whose class images do not all clash makes decide walk the
    # source trees up to the check bound; over z6 the merge instance's images
    # clash and the search stops at its first violating layer.  Each run
    # answers, and none writes to stderr.
    merge = workloads.branching_pool(2)["merge-natural"][0]
    z6_aut, z6_hom = tmp_path / "z6-merge.aut", tmp_path / "z6-merge.hom"
    z6_aut.write_text(z6_copy(merge.automaton_text))
    z6_hom.write_text(merge.hom_text)
    for (aut, hom), bound in ((write_branching_shape(tmp_path, "dup"), "6"),
                              (write_branching_shape(tmp_path, "tetris"), "6"),
                              ((z6_aut, z6_hom), "8")):
        with memory_cap():
            assert run_cli("decide", "--automaton", str(aut), "--hom", str(hom),
                           "--check-bound", bound, "--lin-height", "1", "--eq-bound", "3") == 2
        assert capsys.readouterr().err == ""


def run_cli_process(*argv):
    """`treehom argv` in a fresh process, under a 1 GiB address-space cap and
    a 20 s timeout."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    return subprocess.run([sys.executable, "-m", "treehom.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=cap)


@pytest.mark.parametrize("kind", ["dup", "tetris"])
def test_cli_decide_at_check_bound_64_counts_no_trees(kind, tmp_path):
    # The number of source trees of height <= 64 has far more digits than
    # memory holds.  The dup hom's class images clash, so no check walks a
    # tree; the tetris hom's do not, and tetris-freeness walks the trees up to
    # its first violation.  Neither counts them, and neither writes to stderr.
    aut, hom = write_branching_shape(tmp_path, kind)
    proc = run_cli_process("decide", "--automaton", str(aut), "--hom", str(hom),
                           "--check-bound", "64")
    report = decide_hom_regularity(load_automaton(aut), load_hom(hom), check_bound=64)
    assert (proc.returncode, proc.stdout) == (2, emit_report(report))
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["check", "decide"])
def test_cli_warning_names_no_count(command, tmp_path):
    # The number of source trees of height <= 14 has 8,561 digits, more than
    # str() prints for an int; no message names it, and stderr stays empty.
    aut, hom = write_branching_shape(tmp_path, "tetris")
    if command == "check":
        argv = ("check", "tetris-free", "--hom", str(hom), "--height", "14")
    else:
        argv = ("decide", "--automaton", str(aut), "--hom", str(hom), "--check-bound", "14")
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr == ""


@pytest.mark.parametrize("aut,hom,bound,message", [
    ("doubling_image.aut", "duplicating_hom.hom", 4, "the decision pipeline needs a WTA input"),
    ("doubling_image.aut", "duplicating_hom.hom", 30, "the decision pipeline needs a WTA input"),
    ("doubling_chain.aut", "dup", 4, "automaton alphabet differs from the homomorphism source"),
    ("doubling_chain.aut", "duplicating_hom.hom", -1, "height bound must be nonnegative"),
])
def test_cli_decide_input_error_does_not_depend_on_the_bound(aut, hom, bound, message,
                                                              data_dir, tmp_path, capsys):
    # At bounds 4 and 30 the sources have more than a million trees; the
    # input is rejected before any tree is built.
    hom = write_branching_shape(tmp_path, hom)[1] if hom == "dup" else data_dir / hom
    assert run_cli("decide", "--automaton", str(data_dir / aut), "--hom", str(hom),
                   "--check-bound", str(bound)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flag,message", [
    ("--lin-height", "linearization height must be nonnegative"),
    ("--eq-bound", "height bound must be nonnegative"),
])
@pytest.mark.parametrize("setup", ["duplicating", "tetris", "oracle"])
def test_cli_decide_rejects_a_negative_bound_on_every_path(setup, flag, message, data_dir,
                                                            tmp_path, capsys):
    # A tetris violation and an oracle answer each end the pipeline before
    # linearization, whose own checks reject these bounds too.
    if setup == "tetris":
        aut, hom = write_branching_shape(tmp_path, "tetris")
    else:
        aut, hom = data_dir / "doubling_chain.aut", data_dir / "duplicating_hom.hom"
    oracle = ["--oracle", "sh -c 'echo regular'"] if setup == "oracle" else []
    assert run_cli("decide", "--automaton", str(aut), "--hom", str(hom), "--check-bound", "3",
                   flag, "-1", *oracle) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# The option table of `treehom.cli` against the argparse parser it replaced
# (`oracles.build_parser`).  Argv lists are built from every command's option
# strings and their prefixes, the `=` and glued `-oVALUE` forms, values of
# every kind, and stray arguments; most hold the command's required options.
CHECK_WHAT = COMMANDS["check"].positional.choices
LONG_FLAGS = sorted({opt.name for command in COMMANDS.values() for opt in command.options})
FLAG_PREFIXES = sorted({flag[:k] for flag in LONG_FLAGS for k in range(3, len(flag) + 1)})
FLAG_WORDS = FLAG_PREFIXES + ["-o", "--foo", "-x"]
# Flags glued to `-h` (`-hh`, `-hx`) are left out: Python 3.13's parser reads
# them differently (see test_help_flags_glued_together).
HELP_WORDS = ["-h", "--help", "--he", "--help=x"]
VALUE_WORDS = ["in.aut", "3", "-1", "-2.5", "1.5", " 7 ", "+4", "1_0", "\u0663", "0x1", "",
               "a b", "-a b", "-x", "-", "--", "=", "text", "machine", "json", *CHECK_WHAT]
# A glued value of exactly `--` is taken as written; argparse dropped it and
# handed the command an empty list (see test_glued_double_dash_is_a_value).
GLUED_VALUES = [v for v in VALUE_WORDS if v != "--"]


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from([*COMMANDS, "nosuch"]))
    groups = []
    command = COMMANDS.get(name)
    if command is not None and draw(st.integers(0, 3)):
        groups += [(opt.name, "3" if opt.type is int else "in.aut")
                   for opt in command.options if opt.required]
        if command.positional is not None:
            groups.append((draw(st.sampled_from(CHECK_WHAT)),))
    flags, values = st.sampled_from(FLAG_WORDS), st.sampled_from(VALUE_WORDS)
    glued = st.sampled_from(GLUED_VALUES)
    groups += draw(st.lists(st.one_of(
        st.tuples(flags, values),
        st.tuples(flags),
        st.tuples(values),
        st.builds(lambda f, v: (f"{f}={v}",), st.sampled_from(FLAG_PREFIXES), glued),
        st.builds(lambda v: (f"-o{v}",), glued),
    ), max_size=3))
    if draw(st.integers(0, 7)) == 0:
        groups.append((draw(st.sampled_from(HELP_WORDS)),))
    before = ([draw(st.sampled_from(HELP_WORDS + ["--foo", "--", "3"]))]
              if draw(st.integers(0, 9)) == 0 else [])
    return [*before, name, *(word for group in draw(st.permutations(groups)) for word in group)]


def reference_args(argv):
    """The reference parser's namespace as a dict, or the code it exits with."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit as stop:
        return stop.code


def read_values(argv):
    """`read_args` as a dict in the form of `reference_args`."""
    command, args = read_args(argv)
    return {**vars(args), "func": command.handler}


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(command_lines())
def test_read_args_agrees_with_argparse(argv):
    expected = reference_args(argv)
    if isinstance(expected, dict):
        assert read_values(argv) == expected
        return
    # A rejected argv never reaches a command: main returns at once.
    code, out, err = run_captured(argv)
    assert code == expected
    shown, quiet = (out, err) if code == 0 else (err, out)
    assert shown.startswith("usage: treehom")
    assert quiet == ""


@pytest.mark.parametrize("argv,values", [
    (["decide", "--automaton=a", "--hom", "h"], {"automaton": "a", "hom": "h"}),
    (["decide", "--auto", "a", "--ho=h", "--eq-b", "7"], {"hom": "h", "eq_bound": 7}),
    (["image", "--automaton", "a", "--hom", "h", "-oout.aut"], {"output": "out.aut"}),
    (["image", "--automaton", "a", "--hom", "h", "-o=out.aut"], {"output": "out.aut"}),
    (["image", "--automaton", "a", "--hom", "h", "--out", "-"], {"output": "-"}),
    (["decide", "--automaton", "a", "--hom", "h", "--check-bound", "2", "--check-bound", "-1"],
     {"check_bound": -1}),
    (["decide", "--automaton", "a", "--hom", "h", "--eq-bound", " +7 ", "--lin-height", "1_0"],
     {"eq_bound": 7, "lin_height": 10}),
    (["decide", "--automaton", "a", "--hom", "h", "--lin-height", "\u0663"], {"lin_height": 3}),
    (["eval", "--automaton", "a", "--tree", "-a b"], {"tree": "-a b"}),
    (["check", "--height", "2", "tetris-free", "--hom", "h"], {"what": "tetris-free", "height": 2}),
    (["check", "--format=machine", "unambiguous", "--automaton", "a"],
     {"what": "unambiguous", "format": "machine", "hom": None}),
    (["check", "--automaton", "a", "--", "eq-restricted"], {"what": "eq-restricted"}),
    (["validate"], {"automaton": None, "hom": None}),
])
def test_read_args_forms(argv, values):
    got = read_values(argv)
    assert got.items() >= values.items()
    assert got == reference_args(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["--automaton", "a", "eval"],
    ["--foo", "validate"],
    ["--", "eval", "--automaton", "a", "--tree", "t"],
    ["decide", "--automaton", "a"],
    ["decide", "--h", "h", "--automaton", "a"],
    ["decide", "--automaton", "a", "--hom", "h", "--check-bound", "x"],
    ["decide", "--automaton", "a", "--hom", "h", "--check-bound", "1.5"],
    ["decide", "--automaton", "a", "--hom", "h", "--check-bound", "-x"],
    ["decide", "--automaton", "a", "--hom", "h", "--format", "json"],
    ["decide", "--automaton", "a", "--hom", "h", "--help=x"],
    ["check", "maybe", "--automaton", "a"],
    ["check", "--automaton", "a"],
    ["check", "unambiguous", "tetris-free", "--automaton", "a"],
    ["eval", "--automaton", "a", "--tree"],
    ["eval", "--automaton", "a", "--tree", "--", "t"],
    ["eval", "--automaton", "a", "--tree", "t", "--bogus", "1"],
    ["eval", "--automaton", "a", "--tree", "t", "extra"],
    ["eval", "-o", "x", "--automaton", "a", "--tree", "t"],
])
def test_usage_errors_exit_2(argv):
    assert reference_args(argv) == 2
    code, out, err = run_captured(argv)
    assert code == 2
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: treehom")
    assert error.startswith("treehom") and ": error: " in error


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"]]
                         + [[name, flag] for name in COMMANDS for flag in ("-h", "--help")])
def test_help_exits_0(argv):
    code, out, err = run_captured(argv)
    assert code == 0
    assert out.startswith("usage: treehom")
    assert err == ""
    command = COMMANDS.get(argv[0])
    names = list(COMMANDS) if command is None else [opt.name for opt in command.options]
    assert all(name in out for name in names)


@pytest.mark.parametrize("argv,code", [
    (["-hh"], 0),
    (["image", "-ho", "x"], 0),
    (["image", "-hox"], 0),
    (["image", "-ho"], 2),
    (["-hx"], 2),
    (["eval", "-hx"], 2),
    (["eval", "-h="], 2),
])
def test_help_flags_glued_together(argv, code):
    # `-h` shares one argument with further short flags as in the parser of
    # Python 3.10-3.12: help wins unless a flag is unknown or lacks its value.
    got, out, err = run_captured(argv)
    assert got == code
    assert (out if code == 0 else err).startswith("usage: treehom")


def test_glued_double_dash_is_a_value(data_dir):
    # argparse turned `--name=--` and `-o--` into an empty list, which made
    # decide fail with a TypeError traceback; the table reads the text.
    assert read_values(["image", "--automaton", "a", "--hom", "h", "-o--"])["output"] == "--"
    assert read_values(["validate", "--automaton=--"])["automaton"] == "--"
    code, out, err = run_captured(["decide", "--automaton", str(data_dir / "doubling_chain.aut"),
                                   "--hom", str(data_dir / "duplicating_hom.hom"),
                                   "--check-bound=--"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --check-bound: invalid int value: '--'\n")


def test_negative_bound_reaches_the_package_error(data_dir, capsys):
    code = run_cli("decide", "--automaton", str(data_dir / "doubling_chain.aut"),
                   "--hom", str(data_dir / "duplicating_hom.hom"), "--check-bound", "-1")
    assert code == 1
    assert capsys.readouterr() == ("", "error: height bound must be nonnegative\n")


# Standard-library modules that `decide` never needs: argparse and gettext (the
# option table replaced them), dataclasses and what it pulls in, the oracle's
# process and temp-file modules, json, which only machine output uses, and
# typing and contextlib, which only named tuples and `closing` needed.
# `-S` keeps `site` from importing some of them first.
UNUSED_AT_IMPORT = ("argparse", "gettext", "dataclasses", "inspect", "subprocess", "shlex",
                    "tempfile", "json", "typing", "contextlib")


def test_importing_the_cli_imports_no_argparse():
    code = f"import sys, treehom.cli; print(sorted(set({UNUSED_AT_IMPORT!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


# sha256 of the `decide --check-bound 3 --format machine` stdout, and the exit
# code, of each instance of the benchmark's decide pools.  The golden files of
# the benchmark check verdicts and witnesses only; these cover every printed
# automaton of the reports too.
POOL_REPORT_DIGESTS = {
    "dup-natural-0": ("d504accafa8354c4c3a511e09b87a159dee4b78634a3affd69ebbf2a7d7bfc2d", 2),
    "dup-natural-1": ("9303af806b635a6c317c7ede941531d1fdd60a68d5a7eb3018d2669c85e688ae", 0),
    "dup-tropical-0": ("8f481bc8a6acf34a8108d5b881196a8402a9ef4f97bf86fac13aa8426811fc73", 2),
    "dup-tropical-1": ("58f5349c4c3481d299fa77051ea07e7a9cc4bdc9be4ae2e96d0ff1a69d0e78f3", 0),
    "dup-arctic-0": ("8fefc0024a1e7dc14ef752806e1947e2bf5ca120be9a5825959420d069274005", 0),
    "dup-arctic-1": ("88169257e3f983243bd03c74c236080caaa0b76e02bff3f023f122dbbbfd82fc", 2),
    "merge-natural-0": ("58881f1a2a22e21e0bd4e35349e662df7ad5b6bad3153c787c7063423a9288b6", 2),
    "merge-natural-1": ("48952f2a1cdcd3b3a84acad7675a41638c362f7a6ec3255032d901d084796a84", 2),
    "merge-tropical-0": ("e16e1eed67f4532fefe46d73f9dfcf505d27879c66d566269b4012e5b4d837c0", 2),
    "merge-tropical-1": ("788bb9694eadf476f843f7ef0b24144f7905308b123deded519140728d92674b", 2),
    "merge-arctic-0": ("d18b69f349b51f9e9f25c052a58f2bace942ccdb46565cb63370705d888f751f", 2),
    "merge-arctic-1": ("52fc61a6b8d2c8d3028c26c238f33bfc2a61e37b0a4a9785f5a8dc0abdc65d36", 2),
    "tetris-natural-0": ("13c101b5f269652847352fdd652819ffbed83f849c6090fbbbb431e24e866da7", 2),
    "tetris-natural-1": ("13c101b5f269652847352fdd652819ffbed83f849c6090fbbbb431e24e866da7", 2),
    "tetris-tropical-0": ("413704be8e83aa05ba3644b4ad07b773f62a85af86c8c21f8adeade34c0c60c9", 2),
    "tetris-tropical-1": ("413704be8e83aa05ba3644b4ad07b773f62a85af86c8c21f8adeade34c0c60c9", 2),
    "tetris-arctic-0": ("a84ce86fffbe36e8a5520bc516cf7cb62f35f10c8183ea77e826a09f0928ac84", 2),
    "tetris-arctic-1": ("a84ce86fffbe36e8a5520bc516cf7cb62f35f10c8183ea77e826a09f0928ac84", 2),
    "z6-2.3.5-0": ("ac90338d562ccfbf681811faca8d5ab6b3d5f4fc36fe8c4f79f7dff4b4a3e2ec", 3),
    "z6-2.3.5-1": ("7429dd7a938ebf8f4678c2491697326c82895c20b6c6fb120329622fa0e480c5", 3),
    "z12-2.3.5-0": ("8f9c44da694dc7be61b0d39396df4420786c6e6fd333a3f21e487da8e0dc2e40", 3),
    "z12-2.3.5-1": ("a6cc3d22e83d5d023d757ec4d55aceb7ae5fd6a0d8edcdb0aaef942c21181daf", 3),
    "z30-2.3-0": ("095dada6d5a31f6254145207011196f5120e314c4e23b263b024840d9bc19d85", 3),
    "z30-2.3-1": ("093caf7513e8fbee17ad20b00f19d903a03dbe1cccecf54c48473bfcfeee12f0", 3),
    "z30-2.3.5-0": ("88cf93f19496491ec40238250d89cae1da76a196be203f1714a7c40a528ef8ea", 3),
    "z30-2.3.5-1": ("3d61d1405b7fb266891c6fc93b41a3ae3d379a9e3636e7c2870d4e80d5d81707", 3),
    "z60-2.3-0": ("bd11248f99f654fc28f94ebf9fbde4f4f343c1907a01107ec1f8f0d1a18d5700", 3),
    "z60-2.3-1": ("f9b96e74ea8177ff8fb09cd8be02dc8cfd10a43b48cdc6fdd36ae03c1f246c29", 3),
    "z60-2.3.5-0": ("b62b289530c86879639d97de1c35f8fab3ae5d11adfdf53580d9f4e90defc6cb", 3),
    "z60-2.3.5-1": ("6ebf0f48cd430511192cb6754eaf2e52c2692bfe13e75cceb730c23916be1573", 3),
}


def test_decide_reports_of_the_benchmark_pools(workloads, tmp_path, capsys):
    seen = {}
    for pool in (workloads.branching_pool(2), workloads.modular_pool(2)):
        for members in pool.values():
            for inst in members:
                aut, hom = tmp_path / f"{inst.id}.aut", tmp_path / f"{inst.id}.hom"
                aut.write_text(inst.automaton_text)
                hom.write_text(inst.hom_text)
                code = run_cli("decide", "--automaton", str(aut), "--hom", str(hom),
                               "--check-bound", "3", "--format", "machine")
                out = capsys.readouterr().out
                seen[inst.id] = (hashlib.sha256(out.encode()).hexdigest(), code)
    assert seen == POOL_REPORT_DIGESTS


# sha256 of `format_automaton(linearize(fixed_image, 2))`, the linearization at
# the default height, for each instance of the benchmark's decide pools whose
# decide report reaches the linearization comparison: the six dup instances
# and every modular one.
POOL_LINEARIZATION_DIGESTS = {
    "dup-arctic-0": "38b43c9b53d64fc3f734c871c5e1614abfbbfbfdf1797ffd369cb8bab8bc7bdb",
    "dup-arctic-1": "11b7e3f9987678a96d3e7b0d546fea4d320bf8931be398849a18f79ccae8a5aa",
    "dup-natural-0": "dd3d36a8cf1c966c8b7b494e97c75a90eb9d4ed1264be360268a9e4a4f4c95df",
    "dup-natural-1": "80e4cc2788c9b2a9346a8cf23194d313332ee3e2c7185a7d46c253b57d3257a0",
    "dup-tropical-0": "035756781e3a0b5c6ece1f6816692bf23684a51fd4e3daba76508aebca546405",
    "dup-tropical-1": "1842a1cf2dc8112e08a178fb4e221b752ddc04fa3cffabed805380d387f644b9",
    "z12-2.3.5-0": "5621f61d4bbe0f7425609b81a1c4dc9e464ed52d1a8fdb2c4dbea103c60319a9",
    "z12-2.3.5-1": "ee4ddf18c6fa16ec79bc4dd9e7c80bd230c76da99efa3587caa2fb4fdca1390d",
    "z30-2.3-0": "49c6b15c2917f2084ca08f3bdb8658ebd861c7a4d076b7e92a3f56fcc107e295",
    "z30-2.3-1": "15daf00c8b39b1a35b4eb12756c2fceeaa820273a67d6dd951e177eef1e5bf95",
    "z30-2.3.5-0": "df3a31b1fa8dbead391e63aaac53e4a5a78e1b0d976472643730ba1c45e6b7f3",
    "z30-2.3.5-1": "021ba4bae11d2726405ec8012209e0c9be382e9fab45c064bf1716b7ae251293",
    "z6-2.3.5-0": "95b3591cf3bc59716cf2545ed3fc55459da20d369ad9844706138ae6a134f891",
    "z6-2.3.5-1": "e5921c5b6a47bec26bbe2a6d88444f8384ae8d19edccd2ce96f547146150264a",
    "z60-2.3-0": "b946cd0752749d0e2f10deb8deaf90025e6054801c4326f4d3c1e4a386a760dc",
    "z60-2.3-1": "c871a67b956a6b395f20ac101656c8026ae3b327fcf167fba31b7c93c3ef36e1",
    "z60-2.3.5-0": "4488d2817ea705349fd676b21b4a03a5789994db40b83a08c5a19988bbe3048d",
    "z60-2.3.5-1": "f29d7fe469d806c01775e3b59b1105d8d3f0e1189d187fc4c7ba579482390c85",
}


def test_linearizations_of_the_benchmark_pools(workloads):
    seen = {}
    for pool in (workloads.branching_pool(2), workloads.modular_pool(2)):
        for members in pool.values():
            for inst in members:
                if inst.id in POOL_LINEARIZATION_DIGESTS:
                    A, h = parse_automaton(inst.automaton_text), parse_hom(inst.hom_text)
                    fixed = eliminate_zero_divisors(hom_image(A, h))
                    text = format_automaton(linearize(fixed, 2))
                    seen[inst.id] = hashlib.sha256(text.encode()).hexdigest()
    assert seen == POOL_LINEARIZATION_DIGESTS
