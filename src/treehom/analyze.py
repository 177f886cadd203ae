"""Bounded semantic analyses: equivalence, h-unambiguity, run-count bounds.

All checks are exhaustive up to an explicit height bound and return a
Verdict: either clean-up-to-bound or the first concrete witness in the
global (height, size, text) tree order.  Witness search walks the union of
the automata's generated tree sets; trees without any run evaluate to zero
on both sides, so no witness can hide outside that union.
"""

from __future__ import annotations

from .automaton import Automaton, AutomatonError, RunsTable, run_state_map
from .construct import linearize
from .hom import TreeHomomorphism
from .term import Tree, format_position, tree_key
from .verdict import Verdict, verified, violated


def bounded_equivalence(A: Automaton, B: Automaton, height_bound: int) -> Verdict:
    """Compare recognized series on every tree of height <= bound.

    Witness payload: (tree, value in A, value in B)."""
    if A.alphabet != B.alphabet:
        raise AutomatonError("equivalence needs automata over one alphabet")
    if A.semiring != B.semiring:
        raise AutomatonError("equivalence needs automata over one semiring")
    ta = RunsTable(A, height_bound)
    tb = RunsTable(B, height_bound)
    for t in sorted(set(ta.trees) | set(tb.trees), key=tree_key):
        if ta.evaluate_value(t) != tb.evaluate_value(t):
            wa, wb = ta.evaluate(t), tb.evaluate(t)
            return violated(height_bound, (t, wa, wb),
                            f"series differ on {t.text}: {wa} vs {wb}")
    return verified(height_bound)


def check_h_unambiguous(A: Automaton, h: TreeHomomorphism, height_bound: int) -> Verdict:
    """Bounded h-unambiguity of a WTA: any two accepting runs on source trees
    with equal h-images must apply equally-targeted rules at every position.

    Witness payload: (s, s', run on s, run on s', position) for the first
    disagreement; comparing each accepting run against the group's first
    accepting run suffices because pointwise agreement is an equivalence.
    """
    if not A.is_wta:
        raise AutomatonError("h-unambiguity is defined on WTA input only")
    if A.alphabet != h.source:
        raise AutomatonError("automaton alphabet differs from the homomorphism source")
    table = RunsTable(A, height_bound)
    groups: dict[Tree, list] = {}
    for s in table.trees:
        acc = table.accepting_runs(s)
        if acc:
            groups.setdefault(h.apply(s), []).append((s, acc))
    for members in groups.values():
        ref_tree, ref_runs = members[0]
        ref_map = run_state_map(ref_runs[0])
        ref_positions = sorted(ref_map)
        for s, runs in members:
            for run in runs:
                if s is ref_tree and run is ref_runs[0]:
                    continue
                cur = run_state_map(run)
                if sorted(cur) != ref_positions:
                    return violated(
                        height_bound,
                        (ref_tree, s, ref_runs[0], run, None),
                        f"position sets differ for {ref_tree.text} and {s.text}",
                    )
                for p in ref_positions:
                    if cur[p] != ref_map[p]:
                        return violated(
                            height_bound,
                            (ref_tree, s, ref_runs[0], run, p),
                            f"runs on {ref_tree.text} and {s.text} disagree at "
                            f"position {format_position(p)}: {ref_map[p]} vs {cur[p]}",
                        )
    return verified(height_bound)


def run_count_compare(A: Automaton, lin_height: int, height_bound: int) -> Verdict:
    """Check that linearization never creates accepting runs: on every tree of
    height <= bound, the linearized automaton has at most as many accepting
    runs as A.  Witness payload: (tree, lin count, original count)."""
    L = linearize(A, lin_height)
    ta = RunsTable(A, height_bound)
    tl = RunsTable(L, height_bound)
    trees = sorted(set(ta.trees) | set(tl.trees), key=tree_key)
    for t in trees:
        ca = len(ta.accepting_runs(t))
        cl = len(tl.accepting_runs(t))
        if cl > ca:
            return violated(
                height_bound,
                (t, cl, ca),
                f"{cl} linearized vs {ca} original accepting runs on {t.text}",
            )
    return verified(height_bound)
