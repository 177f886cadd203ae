"""Nondeleting, nonerasing tree homomorphisms.

A homomorphism maps every source symbol of rank k to a target-alphabet tree
over variables x1..xk.  Nondeleting: every variable occurs in the image.
Nonerasing: no image is a bare variable.  Both are enforced at construction,
so sizes never shrink under application and preimages are finite.
"""

from __future__ import annotations

from itertools import combinations, product

from .term import (
    RankedAlphabet,
    Tree,
    Variables,
    format_position,
    is_variable,
    iter_trees,
    preorder,
    substitute_vars,
    tree_key,
    variable,
)
from .verdict import Verdict, verified, violated


class HomError(ValueError):
    pass


class TreeHomomorphism:
    def __init__(self, source: RankedAlphabet, target: RankedAlphabet, images: dict[str, Tree]):
        self.source = source
        self.target = target
        self.images = dict(images)
        self._validate()
        self._apply_memo: dict[Tree, Tree] = {}
        self._preimage_memo: dict[Tree, tuple[Tree, ...]] = {}

    def _validate(self):
        for name in self.images:
            if name not in self.source:
                raise HomError(f"image given for undeclared symbol {name}")
        for name, rank in self.source.items():
            if name not in self.images:
                raise HomError(f"missing image for symbol {name}/{rank}")
            image = self.images[name]
            allowed = Variables(rank)
            seen = set()
            stack = [image]  # preorder, so the first error in the image is raised
            while stack:
                node = stack.pop()
                stack.extend(reversed(node.children))
                if is_variable(node.label):
                    if node.children:
                        raise HomError(f"variable {node.label} used with arguments in h({name})")
                    if node.label not in allowed:
                        raise HomError(f"stray variable {node.label} in h({name}/{rank})")
                    seen.add(node.label)
                else:
                    if node.label not in self.target:
                        raise HomError(f"unknown target symbol {node.label} in h({name})")
                    if self.target.rank(node.label) != len(node.children):
                        raise HomError(
                            f"target symbol {node.label} used at wrong rank in h({name})"
                        )
            if len(seen) < rank:
                raise HomError(
                    f"deleting homomorphism: h({name}) drops {_missing_variables(seen, rank)}"
                )
            if is_variable(image.label):
                raise HomError(f"erasing homomorphism: h({name}) is a bare variable")

    def image_of(self, name: str) -> Tree:
        try:
            return self.images[name]
        except KeyError:
            raise HomError(f"no image for symbol {name}") from None

    def apply(self, s: Tree) -> Tree:
        """Homomorphic image of a ground source tree, built bottom-up on an
        explicit stack, so any height works."""
        memo = self._apply_memo
        stack = [s]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if node.label not in self.source:
                raise HomError(f"unknown source symbol {node.label}")
            # First children on top: an unknown symbol is found in preorder.
            pending = [c for c in reversed(node.children) if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            theta = {variable(i): memo[c] for i, c in enumerate(node.children, start=1)}
            memo[node] = substitute_vars(self.image_of(node.label), theta)
        return memo[s]

    def preimage(self, t: Tree) -> tuple[Tree, ...]:
        """All ground source trees mapping onto t, sorted by (height, size, text).

        Finite because the homomorphism is nondeleting and nonerasing: any
        preimage of t has at most size(t) nodes.  The subtrees that the
        symbol images bind are proper subtrees of t; their preimages are
        found first, on an explicit stack, so any height works.
        """
        memo = self._preimage_memo
        stack = [(t, None)]
        while stack:
            node, matches = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if matches is None:
                matches = []
                for name in sorted(self.source.names()):
                    binding = _match_image(self.image_of(name), node)
                    if binding is not None:
                        rank = self.source.rank(name)
                        matches.append((name, [binding[variable(i)] for i in range(1, rank + 1)]))
                stack[-1] = (node, matches)
                pending = [sub for _, subs in matches for sub in subs if sub not in memo]
                if pending:
                    stack.extend((sub, None) for sub in pending)
                    continue
            stack.pop()
            found = [Tree(name, combo) for name, subs in matches
                     for combo in product(*(memo[sub] for sub in subs))]
            if len(found) > 1:
                found.sort(key=tree_key)
            memo[node] = tuple(found)
        return memo[t]

    def __repr__(self):
        return f"<hom {self.source!r} -> {self.target!r}>"


def _missing_variables(seen, rank: int, shown: int = 5) -> str:
    """The first few of x1..x<rank> not in seen, and how many more there are."""
    count = rank - len(seen)
    names = []
    i = 1
    while len(names) < min(count, shown):
        if variable(i) not in seen:
            names.append(variable(i))
        i += 1
    more = count - len(names)
    return ", ".join(names) + (f" and {more} more" if more else "")


def _match_image(pattern: Tree, t: Tree, binding=None):
    """Match an image pattern against t; repeated variables must bind equal subtrees."""
    if binding is None:
        binding = {}
    if is_variable(pattern.label):
        bound = binding.get(pattern.label)
        if bound is None:
            binding[pattern.label] = t
            return binding
        return binding if bound == t else None
    if pattern.label != t.label or len(pattern.children) != len(t.children):
        return None
    for pc, tc in zip(pattern.children, t.children):
        if _match_image(pc, tc, binding) is None:
            return None
    return binding


def _clash(p: Tree, q: Tree, roots) -> bool:
    """Whether no image tree matches both image patterns: they differ in
    label or arity at a position that both reach without passing through a
    variable, or one has a variable there and the other a node whose
    (label, arity) is not in roots, the symbol images' root shapes."""
    stack = [(p, q)]
    while stack:
        p, q = stack.pop()
        if is_variable(p.label):
            p, q = q, p  # a variable, if either is one, is now q
        if is_variable(q.label):
            if not is_variable(p.label) and (p.label, len(p.children)) not in roots:
                return True
        elif p.label != q.label or len(p.children) != len(q.children):
            return True
        else:
            stack.extend(zip(p.children, q.children))
    return False


def images_clash(h: TreeHomomorphism) -> bool:
    """Whether the images of every two symbols with distinct images clash
    (see ``_clash``).  Then h(s) = h(s') forces the two roots to have equal
    images and, because h is nondeleting, so on down: h is tetris-free at
    every height.

    A variable of an image binds an image tree h(s_i), and because h is
    nonerasing, h(s_i) starts with the root of the image of s_i's root
    symbol.  So where one image has a variable and the other a node whose
    (label, arity) is no symbol image's root, no image tree matches both:
    the root-aware form of the clash rule of syntactic unification (Baader
    & Nipkow, *Term Rewriting and All That*, ch. 4)."""
    roots = {(t.label, len(t.children)) for t in h.images.values()}
    classes = dict.fromkeys(h.images.values())
    return all(_clash(p, q, roots) for p, q in combinations(classes, 2))


def image_groups(h: TreeHomomorphism, trees, height_bound: int, keep):
    """The image groups of trees, which come in (height, size, text) order,
    each yielded once, when its first kept member arrives: the group of s is
    the members of ``h.preimage(h.apply(s))`` of height <= bound that keep
    accepts, in that order.  A group opens at its first kept member alone,
    so trees must hold that member, and only a group that opens has its
    later members read."""
    for s in trees:
        if not keep(s):
            continue
        members = (t for t in h.preimage(h.apply(s)) if t.height <= height_bound and keep(t))
        if next(members) == s:
            yield [s, *members]


def check_tetris_free(h: TreeHomomorphism, height_bound: int) -> Verdict:
    """Bounded tetris-freeness: whenever h(s) = h(s'), the two source trees must
    have the same position set and pointwise equal symbol images.

    The witness is taken from the first violating image group, groups ordered
    by their least member in (height, size, text) order among the source trees
    of height <= height_bound.  It pairs that least member with the first
    member, in the same order, that differs from it in position set or in a
    symbol image; the detail names the first such difference.

    Two paths give this verdict.  If ``images_clash(h)``, h is tetris-free at
    every height, which is reported as ``verified(height_bound)`` without
    enumerating any tree.  Otherwise the source trees are walked in
    (height, size, text) order through `image_groups`, which keeps every
    tree: a tree opens its image group exactly when it is the first entry of
    the (equally ordered) preimage of its image.  The rest of the group, up
    to the height bound, is compared against it, and the walk stops at the
    first violation.  `analyze.check_h_unambiguous` walks its run table
    through the same groups.
    """
    if height_bound < 0:
        raise HomError("height bound must be nonnegative")
    if images_clash(h):
        return verified(height_bound)
    for first, *rest in image_groups(h, iter_trees(h.source, height_bound), height_bound,
                                     lambda s: True):
        if not rest:
            continue
        first_nodes = tuple(preorder(first))
        first_pos = [p for p, _ in first_nodes]
        for other in rest:
            # Same-positions + pointwise-equal-images is an equivalence, so
            # comparing against the group's first member finds the first
            # violating pair.
            other_nodes = tuple(preorder(other))
            if [p for p, _ in other_nodes] != first_pos:
                return violated(
                    height_bound,
                    (first, other),
                    f"position sets differ for preimages of {h.apply(first).text}",
                )
            for (p, x), (_, y) in zip(first_nodes, other_nodes):
                a, b = x.label, y.label
                if h.image_of(a) != h.image_of(b):
                    return violated(
                        height_bound,
                        (first, other),
                        f"symbol images differ at position {format_position(p)}: "
                        f"h({a}) != h({b})",
                    )
    return verified(height_bound)
