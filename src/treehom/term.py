"""Ranked alphabets, immutable trees, positions, and the term grammar.

Positions are 1-based child-index tuples; the root is the empty tuple and
prints as ``e``.  Python's tuple ordering is exactly the prefix-first
lexicographic order used everywhere for determinism.  Trees are immutable
with structural equality and cached hash/size/height/text, so they can key
memo tables cheaply; leaf labels may be alphabet symbols, states, or variables
x1, x2, ... depending on context.  `parse_term` makes equal subterms of one
parse a single shared object, so comparing them stops at identity, and each
distinct subterm is evaluated once.  `parse_nodes` lists those subterms,
each once and children first, checked against the alphabet as they were
built, so a run chart can fill them without walking the term again; with
another node constructor it builds, say, a run chart's parse nodes, each
with its cell, instead of trees, so the text is evaluated from the parse
alone.
"""

from __future__ import annotations

import re
from itertools import product
from types import MappingProxyType

from .semiring import decimal_text, parse_digits

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
POSITION_STEP_RE = re.compile(r"[1-9][0-9]*")


def is_variable(name: str) -> bool:
    return VARIABLE_RE.match(name) is not None


def variable(i: int) -> str:
    return f"x{i}"


class Variables:
    """The variable names x1..x<rank> as a container, without building them,
    so a huge rank costs nothing."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank

    def __contains__(self, name) -> bool:
        # x<i> has no leading zero, so more digits than the rank has means i > rank.
        return (is_variable(name) and len(name) - 1 <= self.rank.bit_length() // 3 + 1
                and parse_digits(name[1:]) <= self.rank)


class RankedAlphabet:
    """Finite map from symbol names to ranks; `ranks` is a read-only view of
    it."""

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
        self.ranks = MappingProxyType(ranks)

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


# Trees at most this tall compare by native tuple comparison and build their
# text from their children's, both of which recurse once per level; taller
# ones take an explicit stack down to this height.
_NATIVE_HEIGHT = 64


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
        if self.height <= _NATIVE_HEIGHT:
            return self.label == other.label and self.children == other.children
        # Equal but distinct subtrees may be arbitrarily tall: walk the tall
        # part with an explicit stack.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.height <= _NATIVE_HEIGHT:
                if a != b:
                    return False
            elif (a._hash != b._hash or a.size != b.size or a.label != b.label
                  or len(a.children) != len(b.children)):
                return False
            else:
                stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return self._hash

    @property
    def text(self) -> str:
        """The term syntax of the tree, cached.  Up to _NATIVE_HEIGHT it
        joins the children's cached text; a taller tree is written out on an
        explicit stack, which caches text only at its root and the subtrees
        up to that height."""
        if self._text is None:
            if self.height > _NATIVE_HEIGHT:
                self._text = _tall_text(self)
            elif self.children:
                self._text = f"{self.label}({','.join(c.text for c in self.children)})"
            else:
                self._text = self.label
        return self._text

    def __repr__(self):
        return f"Tree({self.text!r})"


def _tall_text(t) -> str:
    """The term syntax of t, any node with a label and children, written out
    on an explicit stack.  A `Tree` up to _NATIVE_HEIGHT gives its cached
    text; any other node, such as a parse node without a cached text, is
    written node by node."""
    parts = []
    stack = [t]  # nodes still to write, and the ',' and ')' between them
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif not node.children:
            parts.append(node.label)
        elif isinstance(node, Tree) and node.height <= _NATIVE_HEIGHT:
            parts.append(node.text)
        else:
            parts.append(node.label + "(")
            stack.append(")")
            for c in reversed(node.children[1:]):
                stack.append(c)
                stack.append(",")
            stack.append(node.children[0])
    return "".join(parts)


def tree_key(t: Tree):
    """Sort key used for all deterministic tree orders: (height, size, text)."""
    return (t.height, t.size, t.text)


def format_position(p: Position) -> str:
    return ".".join(decimal_text(i) for i in p) if p else "e"


def parse_position(text: str) -> Position:
    text = text.strip()
    if text == "e":
        return ()
    parts = text.split(".")
    if not all(POSITION_STEP_RE.fullmatch(part) for part in parts):
        raise PositionError(f"invalid position: {text!r}")
    return tuple(parse_digits(part) for part in parts)


def preorder(t: Tree):
    """(position, node) for every node of t in prefix-first lexicographic
    (preorder) order, walked on an explicit stack, so any height works."""
    stack = [((), t)]
    while stack:
        p, node = stack.pop()
        yield p, node
        children = node.children
        if children:
            for i in range(len(children), 0, -1):
                stack.append(((*p, i), children[i - 1]))


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


# One token per match: a name, a bracket or comma, or any other non-space
# character (always a syntax error).  Whitespace is skipped between tokens.
_TOKEN_RE = re.compile(NAME_RE.pattern + r"|[(),]|\S")


def _token_column(text: str, i: int) -> int:
    """The 1-based column of token i of text, or the end column past the last."""
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        if j == i:
            return m.start() + 1
    return len(text) + 1


def parse_term(text: str, alphabet: RankedAlphabet | None = None, ext=frozenset()) -> Tree:
    """Parse ``name | name '(' tree (',' tree)* ')'``; whitespace insignificant.

    Names in ``ext`` (any container) are leaf tokens (states or variables)
    and may not take arguments.  With an alphabet, all other names must be declared and used at
    their rank; ``a()`` is accepted for a nullary symbol.  Without an alphabet
    the parse is loose: any name, rank read off from usage.

    The tree is built on an explicit stack, so any height parses, and equal
    subterms come out as one shared object.
    """
    return parse_nodes(text, alphabet, ext)[-1]


def parse_nodes(text: str, alphabet: RankedAlphabet | None = None, ext=frozenset(),
                node=Tree) -> list:
    """The distinct subterms of ``parse_term(text, alphabet, ext)``, each
    once and after its children, with the whole term last.  Each was checked
    against the alphabet as it was built, so a run chart can fill them in
    this order without walking the term again.

    Each is built by ``node(name, children)``, called once per distinct
    subterm with the sequence of its children's nodes; it must return a new
    object, since a parent is keyed by its children's identities.  The
    default builds trees; a run chart passes a function that builds a
    subterm's parse node, with its cell, from its children's nodes, so the
    text is evaluated straight from the parse, without trees."""
    ranks = None if alphabet is None else dict(alphabet.items())
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end of input
    names = set(filter(NAME_RE.match, set(tokens)))  # each distinct token classified once

    def fail(message, i):
        raise TermSyntaxError(message, _token_column(text, i))

    # Subterms of this parse by label (a leaf) or by label and child
    # identities: children are already shared, so equal subterms have equal
    # keys.  A subterm is added once its children are, so the values come
    # children first.
    shared: dict = {}
    open_nodes = []  # (name, its token index, children) of each node before its ')'
    i = 0
    while True:
        name = tokens[i]
        if name not in names:
            fail("expected a name", i)
        at = i
        if tokens[i + 1] != "(":
            children = ()
            i += 1
        elif name in ext:
            fail(f"leaf token {name} cannot take arguments", i + 1)
        elif tokens[i + 2] == ")":
            children = ()
            i += 3
        else:
            open_nodes.append((name, i, []))
            i += 2
            continue
        # name(children) is complete: build it, attach it to its parent, and
        # do the same for every parent whose argument list ends here.
        key = name
        while True:
            sub = shared.get(key)
            if sub is None:  # else name was checked at this number of children
                if ranks is not None and ranks.get(name) != len(children) and name not in ext:
                    if name not in ranks:
                        fail(f"unknown symbol: {name}", at)
                    fail(f"symbol {name} has rank {ranks[name]}, "
                         f"used with {len(children)} arguments", at)
                sub = shared[key] = node(name, children)
            if not open_nodes:
                if tokens[i]:
                    fail("trailing input after term", i)
                # The whole term is its largest subterm, so it came last.
                return list(shared.values())
            name, at, children = open_nodes[-1]
            children.append(sub)
            token = tokens[i]
            i += 1
            if token == ",":
                break
            if token != ")":
                fail("expected ')' or ','", i - 1)
            open_nodes.pop()
            key = (name, *map(id, children))


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
