"""Ranked alphabets, immutable trees, positions, and the term grammar.

Positions are 1-based child-index tuples; the root is the empty tuple and
prints as ``e``.  Python's tuple ordering is exactly the prefix-first
lexicographic order used everywhere for determinism.  Trees are immutable
with structural equality and cached hash/size/height, so they can key memo
tables cheaply; leaf labels may be alphabet symbols, states, or variables
x1, x2, ... depending on context.
"""

from __future__ import annotations

import re
from itertools import product

Position = tuple


class TermError(ValueError):
    pass


class TermSyntaxError(TermError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class PositionError(TermError):
    pass


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
VARIABLE_RE = re.compile(r"x[1-9][0-9]*\Z")


def is_variable(name: str) -> bool:
    return VARIABLE_RE.match(name) is not None


def variable(i: int) -> str:
    return f"x{i}"


class RankedAlphabet:
    """Finite map from symbol names to ranks."""

    def __init__(self, symbols):
        pairs = list(symbols.items()) if isinstance(symbols, dict) else list(symbols)
        ranks: dict[str, int] = {}
        for name, rank in pairs:
            if not NAME_RE.fullmatch(name):
                raise TermError(f"illegal symbol name: {name!r}")
            if VARIABLE_RE.fullmatch(name):
                raise TermError(f"symbol name {name!r} is reserved for variables")
            if not isinstance(rank, int) or rank < 0:
                raise TermError(f"illegal rank for {name}: {rank!r}")
            if name in ranks and ranks[name] != rank:
                raise TermError(f"symbol {name} declared with ranks {ranks[name]} and {rank}")
            ranks[name] = rank
        if not ranks:
            raise TermError("alphabet must not be empty")
        self._ranks = ranks

    def rank(self, name: str) -> int:
        try:
            return self._ranks[name]
        except KeyError:
            raise TermError(f"unknown symbol: {name}") from None

    def __contains__(self, name):
        return name in self._ranks

    def names(self):
        return tuple(self._ranks)

    def items(self):
        return tuple(self._ranks.items())

    def __eq__(self, other):
        return isinstance(other, RankedAlphabet) and other._ranks == self._ranks

    def __hash__(self):
        return hash(frozenset(self._ranks.items()))

    def __repr__(self):
        inner = " ".join(f"{n}/{k}" for n, k in self._ranks.items())
        return f"<alphabet {inner}>"


class Tree:
    """Immutable labeled tree; children is a tuple of Trees."""

    __slots__ = ("label", "children", "size", "height", "_hash", "_text")

    def __init__(self, label: str, children=()):
        self.label = label
        self.children = tuple(children)
        size = 1
        height = 0
        for c in self.children:
            size += c.size
            if c.height >= height:
                height = c.height + 1
        self.size = size
        self.height = height
        self._hash = hash((label, self.children))
        self._text = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self._hash != other._hash or self.size != other.size:
            return False
        return self.label == other.label and self.children == other.children

    def __hash__(self):
        return self._hash

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = format_term(self)
        return self._text

    def __repr__(self):
        return f"Tree({self.text!r})"


def tree_key(t: Tree):
    """Sort key used for all deterministic tree orders: (height, size, text)."""
    return (t.height, t.size, t.text)


def format_position(p: Position) -> str:
    return ".".join(str(i) for i in p) if p else "e"


def parse_position(text: str) -> Position:
    text = text.strip()
    if text == "e":
        return ()
    parts = text.split(".")
    if not all(re.fullmatch(r"[1-9][0-9]*", part) for part in parts):
        raise PositionError(f"invalid position: {text!r}")
    return tuple(int(part) for part in parts)


def positions(t: Tree) -> tuple[Position, ...]:
    """All positions of t in prefix-first lexicographic (preorder) order."""
    out = []

    def walk(node, prefix):
        out.append(prefix)
        for i, c in enumerate(node.children, start=1):
            walk(c, prefix + (i,))

    walk(t, ())
    return tuple(out)


def subtree_at(t: Tree, p: Position) -> Tree:
    node = t
    for i in p:
        if i < 1 or i > len(node.children):
            raise PositionError(f"position {format_position(p)} not in {t.text}")
        node = node.children[i - 1]
    return node


def replace_at(t: Tree, p: Position, sub: Tree) -> Tree:
    if not p:
        return sub
    i = p[0]
    if i < 1 or i > len(t.children):
        raise PositionError(f"position {format_position(p)} not in {t.text}")
    children = list(t.children)
    children[i - 1] = replace_at(children[i - 1], p[1:], sub)
    return Tree(t.label, children)


def substitute_vars(t: Tree, theta: dict[str, Tree]) -> Tree:
    """Replace leaves whose label is mapped by theta; unmapped leaves pass through."""
    if not t.children:
        return theta.get(t.label, t)
    return Tree(t.label, [substitute_vars(c, theta) for c in t.children])


def format_term(t: Tree) -> str:
    if not t.children:
        return t.label
    return f"{t.label}({','.join(format_term(c) for c in t.children)})"


def parse_term(text: str, alphabet: RankedAlphabet | None = None, ext=frozenset()) -> Tree:
    """Parse ``name | name '(' tree (',' tree)* ')'``; whitespace insignificant.

    Names in ``ext`` are leaf tokens (states or variables) and may not take
    arguments.  With an alphabet, all other names must be declared and used at
    their rank; ``a()`` is accepted for a nullary symbol.  Without an alphabet
    the parse is loose: any name, rank read off from usage.
    """
    ext = frozenset(ext)
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise TermSyntaxError(msg, pos + 1)

    def parse_node() -> Tree:
        nonlocal pos
        skip_ws()
        m = NAME_RE.match(text, pos)
        if not m:
            fail("expected a name")
        name = m.group(0)
        name_col = pos + 1
        pos = m.end()
        skip_ws()
        children = []
        if pos < n and text[pos] == "(":
            if name in ext:
                fail(f"leaf token {name} cannot take arguments")
            pos += 1
            skip_ws()
            if pos < n and text[pos] == ")":
                pos += 1
            else:
                children.append(parse_node())
                skip_ws()
                while pos < n and text[pos] == ",":
                    pos += 1
                    children.append(parse_node())
                    skip_ws()
                if pos >= n or text[pos] != ")":
                    fail("expected ')' or ','")
                pos += 1
        if name not in ext and alphabet is not None:
            if name not in alphabet:
                raise TermSyntaxError(f"unknown symbol: {name}", name_col)
            if alphabet.rank(name) != len(children):
                raise TermSyntaxError(
                    f"symbol {name} has rank {alphabet.rank(name)}, "
                    f"used with {len(children)} arguments",
                    name_col,
                )
        return Tree(name, children)

    tree = parse_node()
    skip_ws()
    if pos != n:
        fail("trailing input after term")
    return tree


def iter_trees(alphabet: RankedAlphabet, max_height: int):
    """Ground trees of height <= max_height in (height, size, text) order,
    lazily: a height level is built only once the one below it is used up."""
    if max_height < 0:
        return
    names = sorted(alphabet.names())
    leaves = sorted(
        (Tree(name) for name in names if alphabet.rank(name) == 0),
        key=tree_key,
    )
    yield from leaves
    upto = list(leaves)
    for h in range(1, max_height + 1):
        level = []
        for name in names:
            k = alphabet.rank(name)
            if k == 0:
                continue
            for combo in product(upto, repeat=k):
                if max(c.height for c in combo) == h - 1:
                    level.append(Tree(name, combo))
        level.sort(key=tree_key)
        yield from level
        upto.extend(level)


def enumerate_trees(alphabet: RankedAlphabet, max_height: int) -> list[Tree]:
    """All ground trees of height <= max_height in (height, size, text) order."""
    return list(iter_trees(alphabet, max_height))


def count_trees(alphabet: RankedAlphabet, max_height: int) -> int:
    """Number of ground trees of height <= max_height, without materializing them."""
    if max_height < 0:
        return 0
    items = alphabet.items()
    total = sum(1 for _, k in items if k == 0)
    for _ in range(max_height):
        total = sum(1 if k == 0 else total**k for _, k in items)
    return total
