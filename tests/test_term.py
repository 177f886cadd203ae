from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from treehom import (
    RankedAlphabet,
    TermError,
    TermSyntaxError,
    Tree,
    enumerate_trees,
    format_position,
    is_variable,
    parse_nodes,
    parse_position,
    parse_term,
    preorder,
    replace_at,
    substitute_vars,
    tree_key,
    variable,
)
from oracles import count_trees, naive_parse_term, positions, subtree_at
from treehom.cli import load_automaton, parse_automaton
from treehom.term import PositionError

SIGMA = RankedAlphabet([("a", 0), ("g", 1), ("k", 2)])


def t(text):
    return parse_term(text, SIGMA)


def tree_strategy(alphabet):
    nullary = [n for n, k in alphabet.items() if k == 0]
    rest = [(n, k) for n, k in alphabet.items() if k > 0]
    leaf = st.sampled_from(nullary).map(lambda n: Tree(n, ()))

    def extend(children):
        opts = [st.builds(Tree, st.just(n), st.tuples(*[children] * k))
                for n, k in rest]
        return st.one_of(opts)

    return st.recursive(leaf, extend, max_leaves=8)


def test_tree_basics():
    s = t("k(g(g(a)),g(g(g(a))))")
    assert s.label == "k"
    assert s.size == 8
    assert s.height == 4
    assert len(list(preorder(s))) == 8
    assert s.text == "k(g(g(a)),g(g(g(a))))"


def test_positions_are_preorder():
    s = t("k(g(a),a)")
    assert [(p, node.text) for p, node in preorder(s)] == [
        ((), "k(g(a),a)"), ((1,), "g(a)"), ((1, 1), "a"), ((2,), "a"),
    ]


@given(tree_strategy(SIGMA))
def test_preorder_matches_recursive_positions(s):
    walked = list(preorder(s))
    assert [p for p, _ in walked] == list(positions(s))
    assert all(node is subtree_at(s, p) for p, node in walked)


def test_preorder_of_a_tall_tree():
    # Past the recursion limit; positions of a chain sum to n**2 / 2 entries.
    n = 3000
    s = parse_term("g(" * n + "a" + ")" * n, SIGMA)
    count = 0
    for p, node in preorder(s):
        count += 1
    assert count == n + 1
    assert p == (1,) * n and node.label == "a"


def test_subtree_and_replace():
    s = t("k(g(a),g(g(a)))")
    assert dict(preorder(s))[(2, 1)] == t("g(a)")
    assert replace_at(s, (1,), t("a")) == t("k(a,g(g(a)))")
    assert replace_at(s, (), t("a")) == t("a")
    with pytest.raises(TermError):
        replace_at(s, (3,), t("a"))


def test_position_formatting():
    assert format_position(()) == "e"
    assert format_position((2, 1)) == "2.1"
    assert parse_position("e") == ()
    assert parse_position("2.1") == (2, 1)
    with pytest.raises(TermError):
        parse_position("0.1")
    with pytest.raises(TermError):
        parse_position("1..2")


def test_variables():
    assert is_variable("x1") and is_variable("x12")
    assert not is_variable("x0") and not is_variable("x") and not is_variable("y1")
    assert variable(3) == "x3"


def test_substitute_vars():
    pattern = parse_term("k(x1,g(x1))", SIGMA, ext={"x1"})
    out = substitute_vars(pattern, {"x1": t("g(a)")})
    assert out == t("k(g(a),g(g(a)))")


def test_parse_rejects_bad_terms():
    with pytest.raises(TermSyntaxError):
        parse_term("k(a)", SIGMA)  # wrong arity
    with pytest.raises(TermSyntaxError):
        parse_term("h(a)", SIGMA)  # unknown symbol
    with pytest.raises(TermSyntaxError):
        parse_term("k(a,a", SIGMA)  # missing paren
    with pytest.raises(TermSyntaxError):
        parse_term("k(a,a))", SIGMA)  # trailing junk
    with pytest.raises(TermSyntaxError):
        parse_term("", SIGMA)
    with pytest.raises(TermSyntaxError):
        parse_term("x1(a)", SIGMA, ext={"x1"})  # ext tokens are leaves


def test_parse_nullary_sugar():
    assert parse_term("a()", SIGMA) == t("a")


def test_parse_reports_column():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("k(a,h(a))", SIGMA)
    assert err.value.column == 5


def test_parse_shares_equal_subterms():
    s = t("k(g(a),g(a))")
    assert s.children[0] is s.children[1]
    assert s.children[0] is not t("k(g(a),a)").children[0]  # the memo lives for one parse
    assert s == Tree("k", (Tree("g", (Tree("a"),)), Tree("g", (Tree("a"),))))


def test_parse_and_text_of_a_tall_term():
    n = 100_000
    text = "g(" * n + "k(a,a)" + ")" * n
    s = t(text)
    assert s.height == n + 1 and s.size == n + 3
    assert s.text == text
    assert s == t(" " + text)


def parse_outcome(parse, text, alphabet, ext):
    try:
        return parse(text, alphabet, ext)
    except TermSyntaxError as err:
        return (str(err), err.column)


PARSE_MODES = [(SIGMA, frozenset()), (SIGMA, {"x1"}), (None, frozenset()), (None, {"a"})]


# Whitespace between tokens: ASCII, and the \x1c and Unicode spaces that
# the tokenizer skips as well.
GAPS = ["", " ", "\t", "\n ", "\r\n", "\x1c", "\xa0", "\u2003"]


@given(tree_strategy(SIGMA), st.sampled_from(GAPS))
def test_parse_matches_the_recursive_parser(s, gap):
    spaced = s.text.replace(",", gap + "," + gap).replace("(", "(" + gap)
    for text in (s.text, spaced, gap + spaced + gap):
        for alphabet, ext in PARSE_MODES:
            got = parse_outcome(parse_term, text, alphabet, ext)
            assert got == parse_outcome(naive_parse_term, text, alphabet, ext)
        assert parse_term(text, SIGMA) == s


@given(st.text(alphabet="agkhx1(), \t", max_size=16))
def test_parse_errors_match_the_recursive_parser(text):
    for alphabet, ext in PARSE_MODES:
        got = parse_outcome(parse_term, text, alphabet, ext)
        assert got == parse_outcome(naive_parse_term, text, alphabet, ext)


def subterm_ids(s):
    """The ids of the subterm objects of s, on an explicit stack."""
    out, stack = set(), [s]
    while stack:
        node = stack.pop()
        if id(node) not in out:
            out.add(id(node))
            stack.extend(node.children)
    return out


def check_parse_nodes(text, alphabet, ext=frozenset()):
    nodes = parse_nodes(text, alphabet, ext)
    assert len(set(nodes)) == len(nodes)  # pairwise unequal
    placed = set()
    for node in nodes:
        assert all(id(c) in placed for c in node.children)  # children first
        placed.add(id(node))
    assert placed == subterm_ids(nodes[-1])  # every subterm of the last
    assert nodes[-1] == parse_term(text, alphabet, ext)


@given(tree_strategy(SIGMA), st.sampled_from(GAPS))
def test_parse_nodes_lists_each_subterm_once_children_first(s, gap):
    spaced = s.text.replace(",", gap + "," + gap).replace("(", "(" + gap)
    for text in (s.text, spaced, f"k({spaced},{s.text})"):
        for alphabet, ext in PARSE_MODES:
            check_parse_nodes(text, alphabet, ext)


def test_parse_nodes_of_bundled_left_hand_sides(data_dir):
    for path in sorted(data_dir.glob("*.aut")):
        A = load_automaton(path)
        for rule in A.rules:
            check_parse_nodes(rule.lhs.text, A.alphabet, set(A.states))
            check_parse_nodes(rule.lhs.text, None, set(A.states))


def test_parse_nodes_of_the_deep_eval_trees(data_dir, workloads):
    w = workloads.deep_eval(1, "in")
    automata = {}
    for op in w.ops:
        path = op.argv[2]
        if path not in automata:
            automata[path] = (load_automaton(data_dir / Path(path).name)
                              if path.startswith("data/") else parse_automaton(w.files[path]))
        check_parse_nodes(op.argv[4], automata[path].alphabet)


# Texts and the exact errors they get, the first ones with digits mixed into
# names ("12ab" is the tokens "1", "2", "ab").
PARSE_ERRORS = [
    ("f(1a)", "column 3: expected a name"),
    ("f(a 12)", "column 5: expected ')' or ','"),
    ("12ab", "column 1: expected a name"),
    ("f(a,)", "column 5: expected a name"),
    ("k(a,\t12)", "column 6: expected a name"),
    ("k(\na,\n1)", "column 7: expected a name"),
    ("k(a,\tg(a)\n) 7", "column 13: trailing input after term"),
    ("k(a,\x1c12)", "column 6: expected a name"),
    ("k(a,\xa0\xa012)", "column 7: expected a name"),
    ("g(\x1cg(\xa0a)) 9", "column 11: trailing input after term"),
    ("k(a,\u00e9)", "column 5: expected a name"),
    ("k(a\u00e9,a)", "column 4: expected ')' or ','"),
    ("k(a,h(a))", "column 5: unknown symbol: h"),
    ("k(a)", "column 1: symbol k has rank 2, used with 1 arguments"),
    ("g(a,a)", "column 1: symbol g has rank 1, used with 2 arguments"),
]
LOOSE = {"f(1a)", "f(a 12)", "12ab", "f(a,)"}  # the same without an alphabet


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parse_error_messages_and_columns(text, message):
    alphabet = RankedAlphabet([("a", 0), ("f", 1), ("g", 1), ("k", 2)])
    for alph in (alphabet, None) if text in LOOSE else (alphabet,):
        for parse in (parse_term, parse_nodes):
            with pytest.raises(TermSyntaxError) as err:
                parse(text, alph)
            assert str(err.value) == message
            assert err.value.column == int(message.split(":")[0].split()[1])


# Position texts and what they parse to, then malformed ones: steps are
# ASCII decimals without a leading zero, joined by single dots.
POSITIONS = [("e", ()), (" 2.1 ", (2, 1)), ("10.1", (10, 1)), ("1\n", (1,))]
POSITION_ERRORS = ["", "0", "0.1", "1..2", "1.", ".1", "01", "1.0", "a", "e.1", "E",
                   "1 .2", "+1", "1_0", "\u0661"]


@pytest.mark.parametrize("text,position", POSITIONS)
def test_parse_position(text, position):
    assert parse_position(text) == position


@pytest.mark.parametrize("text", POSITION_ERRORS)
def test_parse_position_error_messages(text):
    with pytest.raises(PositionError) as err:
        parse_position(text)
    assert str(err.value) == f"invalid position: {text.strip()!r}"


def test_alphabet_validation():
    assert RankedAlphabet({"a": 0, "g": 1}) == RankedAlphabet([("g", 1), ("a", 0)])
    with pytest.raises(TermError):
        RankedAlphabet([("a", 0), ("a", 1)])
    with pytest.raises(TermError):
        RankedAlphabet([("x1", 0)])  # variable-shaped name
    with pytest.raises(TermError):
        RankedAlphabet([("a", -1)])


@given(tree_strategy(SIGMA))
def test_format_parse_round_trip(s):
    assert parse_term(s.text, SIGMA) == s


@given(tree_strategy(SIGMA))
def test_every_position_resolves(s):
    for p, sub in preorder(s):
        assert replace_at(s, p, sub) == s


@given(tree_strategy(SIGMA))
def test_size_and_height_consistency(s):
    assert s.size == len(list(preorder(s)))
    assert s.height == max(len(p) for p, _ in preorder(s))


def test_enumerate_trees_small():
    assert [s.text for s in enumerate_trees(SIGMA, 0)] == ["a"]
    level1 = [s.text for s in enumerate_trees(SIGMA, 1)]
    assert level1 == ["a", "g(a)", "k(a,a)"]


def test_enumerate_matches_count():
    for bound in range(4):
        assert len(enumerate_trees(SIGMA, bound)) == count_trees(SIGMA, bound)
    assert count_trees(SIGMA, 4) == 33673


def test_enumerate_is_sorted_and_exact():
    trees = enumerate_trees(SIGMA, 2)
    assert all(s.height <= 2 for s in trees)
    assert len(set(trees)) == len(trees)
    assert trees == sorted(trees, key=tree_key)


def test_count_trees_unary_alphabet():
    unary = RankedAlphabet([("c", 0), ("d", 0), ("g", 1)])
    # c, d and g^m applied to either constant for 1 <= m <= 4
    assert count_trees(unary, 4) == 10
    assert len(enumerate_trees(unary, 4)) == 10
