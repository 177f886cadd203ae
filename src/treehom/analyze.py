"""Bounded semantic analyses: equivalence and h-unambiguity.

All checks are exhaustive up to an explicit height bound and return a
Verdict: either clean-up-to-bound or the first concrete witness in the
global (height, size, text) tree order.  Witness search walks the union of
the automata's generated tree sets; trees without any run evaluate to zero
on both sides, so no witness can hide outside that union.  h-unambiguity is
proved, or its least violating height found, by a fixpoint where it can;
any search left is tetris-freeness's image-group search
(`hom.first_disagreement`) over the run table, from that height or from 0.
"""

from __future__ import annotations

from functools import cache

from .automaton import (
    Automaton,
    AutomatonError,
    Evaluator,
    RunsTable,
    eq_restriction_violation,
    first_diverging_height,
    relaxation_unambiguous,
    run_state_map,
)
from .construct import linearize
from .hom import TreeHomomorphism, first_disagreement, images_clash
from .semiring import Weight
from .term import Tree, format_position, tree_key
from .verdict import Verdict, verified, violated


def bounded_equivalence(A: Automaton, B: Automaton, height_bound: int) -> Verdict:
    """Compare recognized series on every tree of height <= bound.

    The two run tables are read layer by layer (`RunsTable.layer`), and
    within a height by size; the comparison stops at the first group with a
    differing tree, so no higher layer is filled.

    Witness payload: (tree, value in A, value in B)."""
    if A.alphabet != B.alphabet:
        raise AutomatonError("equivalence needs automata over one alphabet")
    if A.semiring != B.semiring:
        raise AutomatonError("equivalence needs automata over one semiring")
    ta = RunsTable(A, height_bound)
    tb = RunsTable(B, height_bound)
    for h in range(height_bound + 1):
        # The trees of height h by size: only the differing trees of the
        # first size that has one are ordered by text, no later size is
        # evaluated and no later height is filled.
        by_size: dict[int, list[Tree]] = {}
        for t in {*ta.layer(h), *tb.layer(h)}:
            by_size.setdefault(t.size, []).append(t)
        for size in sorted(by_size):
            differing = [t for t in by_size[size] if ta.evaluate_value(t) != tb.evaluate_value(t)]
            if differing:
                t = min(differing, key=tree_key)
                wa, wb = ta.evaluate(t), tb.evaluate(t)
                return violated(height_bound, (t, wa, wb),
                                f"series differ on {t.text}: {wa} vs {wb}")
    return verified(height_bound)


def linearization_equivalence(A: Automaton, lin_height: int, height_bound: int) -> Verdict:
    """The verdict of `bounded_equivalence(A, B, height_bound)` for
    B = linearize(A, lin_height), found without building B or enumerating
    trees where possible.

    B sums exactly the runs of A whose constrained classes hold subtrees of
    height <= lin_height; call the other runs of A *tall*.  Three paths:

    0. No rule of A other than the sink's is constrained: A and B have the
       same runs, so the verdict is ok at any semiring.
    1. A is eq-restricted and `relaxation_unambiguous` proves at most one
       accepting run per tree of height <= bound.  Then A(t) is the weight
       of t's one accepting run, and B(t) is that weight if the run is short
       and zero if it is tall.  (A class subtree whose state weight is zero
       leaves both sides at zero: its one run to the class's state is part
       of the accepting run.)  So a tree's values differ exactly when its
       run is tall and weighs nonzero, and `_least_tall_tree` finds the
       least tall tree by a fixpoint over (state, tall) cells.  If there is
       none, the verdict is ok and no tree is built.  Otherwise B is zero on
       that tree, whose one run is tall, and only A is evaluated on it: if
       A's value is nonzero, it is the least differing tree.  This holds
       over any semiring; after `eliminate_zero_divisors` no run weighs
       zero, so a fixed image never takes the fallback below.
    2. Every other case, and a path-1 tree whose run weighs zero, builds B
       and gets `bounded_equivalence`.  Only this path builds B: no output
       of `decide`, text or machine, builds it elsewhere.
    """
    if lin_height < 0:
        raise AutomatonError("linearization height must be nonnegative")
    if height_bound < 0:
        raise AutomatonError("height bound must be nonnegative")
    if not any(r.constrained for r in A.rules if r.target != A.sink):
        return verified(height_bound)
    if eq_restriction_violation(A) is None and relaxation_unambiguous(A, height_bound):
        t = _least_tall_tree(A, lin_height, height_bound)
        if t is None:
            return verified(height_bound)
        wa, zero = Evaluator(A).evaluate(t), Weight(A.semiring, A.semiring.zero)
        if wa != zero:
            return violated(height_bound, (t, wa, zero),
                            f"series differ on {t.text}: {wa} vs {zero}")
    return bounded_equivalence(A, linearize(A, lin_height), height_bound)


def _least_tall_tree(A: Automaton, lin_height: int, height_bound: int):
    """The least tree in (height, size, text) order of height <= bound on
    which the eq-restricted A has a tall run to a final state, or None: the
    least tall final cell of the first layer that has one."""
    for cells in _tall_cells(A, lin_height, height_bound):
        tall = [cells[q, True][1] for q in A.finals if (q, True) in cells]
        if tall:
            return min(tall, key=tree_key)
    return None


def _precedes(a, b) -> bool:
    """(size, trees) pairs in (size, tree texts) order; texts break ties only."""
    return a[0] < b[0] or (a[0] == b[0] and [t.text for t in a[1]] < [t.text for t in b[1]])


def _tall_cells(A: Automaton, lin_height: int, height_bound: int):
    """For h = 0..bound, the cells of height h of the eq-restricted A:
    (state q, tall) -> (size, tree) for the least tree, in (size, text)
    order, of height exactly h with a run to q of that tallness.

    A run applies a rule to one tree per constraint class, placed at each
    of the class's positions: its real position needs a run to the class's
    real state, and its sink positions take any tree.  The run is tall when
    a child run is, or a constrained class holds a tree taller than
    lin_height.  Each child tree of a least tree is the least of its own
    cell (a smaller one would shrink the whole), and the lhs text fixes
    where the class trees go, so a rule's least instance folds its classes
    in position order keeping, per (height so far, tall so far), the least
    (size, class trees).
    """
    shapes = []
    for rule, _, class_states in A.chart_rules[0]:
        classes = [(q, max(map(len, cls)), len(cls), len(cls) > 1)
                   for q, cls in zip(class_states, rule.classes)]
        shapes.append((rule, rule.lhs.size - len(rule.state_positions), classes))

    layers: list[dict] = []
    for h in range(height_bound + 1):
        cells: dict = {}
        for rule, ground, classes in shapes:
            if rule.lhs.height > h:
                continue
            # (height, tall) -> (size, class trees) of the least prefix
            partial = {(rule.lhs.height, False): (ground, ())}
            for q, depth, copies, constrained in classes:
                grown: dict = {}
                for (height, tall), (size, trees) in partial.items():
                    for j in range(h - depth + 1):
                        for tall_j in (False, True):
                            cell = layers[j].get((q, tall_j))
                            if cell is None:
                                continue
                            at = (max(height, depth + j),
                                  tall or tall_j or (constrained and j > lin_height))
                            entry = (size + copies * cell[0], trees + (cell[1],))
                            old = grown.get(at)
                            if old is None or _precedes(entry, old):
                                grown[at] = entry
                partial = grown
            for tall in (False, True):
                entry = partial.get((h, tall))
                if entry is None:
                    continue
                size, trees = entry
                t = rule.plug(rule.spread(trees))
                old = cells.get((rule.target, tall))
                if old is None or _precedes((size, (t,)), (old[0], (old[1],))):
                    cells[rule.target, tall] = (size, t)
        layers.append(cells)
        yield cells


def check_h_unambiguous(A: Automaton, h: TreeHomomorphism, height_bound: int) -> Verdict:
    """Bounded h-unambiguity of a WTA: any two accepting runs on source trees
    with equal h-images must apply equally-targeted rules at every position.

    Witness payload: (s, s', run on s, run on s', position) for the first
    disagreement.  Image groups are ordered by their least member in
    (height, size, text) order; in the first violating group, each accepting
    run, members in that order, is compared against the first member's first
    accepting run, which suffices because pointwise agreement is an
    equivalence.

    Raises AutomatonError unless A is a WTA over h's source and the bound is
    nonnegative, in that order.

    The search is that of `hom.check_tetris_free`: `hom.first_disagreement`
    over the run table's trees from a start height in (height, size, text)
    order (`RunsTable.walk`), the items of a tree its accepting runs, each
    expanded once, labelled by `run_state_map`; it stops at the first
    violating group.  The table holds every tree with accepting runs of
    height <= bound, so each group opens at its least member.  Runs are
    read from A's own chart (`Evaluator`), not from the table, so a group
    member above the layers the walk has filled fills no layer.
    The start height is 0 unless ``images_clash(h)``.  Then two source
    trees have equal images exactly when they have one shape and, position
    by position, symbols with equal images, so the members of a group share
    one height, and `first_diverging_height` over the symbol image classes
    finds the least height H of a violation; if there is none up to the
    bound, the verdict is ok without building any tree.  Over a
    zero-divisor-free semiring every run weighs nonzero, so the first
    violation has height H and the walk starts there; with zero divisors H
    may come from zero-weight runs, and the walk starts at 0.
    """
    if not A.is_wta:
        raise AutomatonError("h-unambiguity is defined on WTA input only")
    if A.alphabet != h.source:
        raise AutomatonError("automaton alphabet differs from the homomorphism source")
    if height_bound < 0:
        raise AutomatonError("height bound must be nonnegative")
    start = 0
    if images_clash(h):
        rules = [(h.image_of(r.lhs.label), r.state_labels, r.target) for r in A.rules]
        first = first_diverging_height(rules, A.finals)
        if first is None or first > height_bound:
            return verified(height_bound)
        if A.semiring.zero_divisor_free:
            start = first
    table = RunsTable(A, height_bound)
    accepting = cache(Evaluator(A).accepting_runs)
    found = first_disagreement(h, table.walk(start), height_bound, accepting, run_state_map)
    if found is None:
        return verified(height_bound)
    ref_tree, s, ref_run, run, p = found
    if p is None:
        return violated(height_bound, found,
                        f"position sets differ for {ref_tree.text} and {s.text}")
    return violated(height_bound, found,
                    f"runs on {ref_tree.text} and {s.text} disagree at position "
                    f"{format_position(p)}: {run_state_map(ref_run)[p]} vs {run_state_map(run)[p]}")
