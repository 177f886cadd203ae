"""Spans around the calls into each treehom module, for the traced run only.

``Tracer.install`` runs in the forked op child: it rebinds the module-level
names that ``cli``, ``decide``, ``analyze``, ``construct``, ``hom`` and
``automaton`` look up at call time, so every call through them records a
span (name, start, end, parent).  Counts are taken after ``main`` returns,
from results kept aside, so no counting time falls inside any span.

The ``semiring`` layer is not measured: its per-call ``add``/``mul`` is too
fine to wrap without the wrapper dominating.
"""

from __future__ import annotations

import importlib
import time

ROOT = "cli.main"


def _rules(result, args):
    return {"rules": len(result.rules)}


def _eliminated(result, args):
    return {"rules": len(result.rules), "reachable_rules": reachable_rules(result)}


def _table(result, args):
    A = result.automaton
    real = [q for q in A.states if q != A.pure_sink]
    runs = sum(len(result.runs(t, q)) for t in result.trees for q in real)
    return {"trees": len(result.trees), "runs": runs}


def _tetris(result, args):
    h, bound = args[0], args[1]
    return {"trees": count_trees(h.source.items(), bound)}


# span name, defining module, attribute, modules that look the name up, counter
TARGETS = (
    ("cli.parse_automaton", "cli", "parse_automaton", ("cli",), None),
    ("cli.parse_hom", "cli", "parse_hom", ("cli",), None),
    ("cli.emit_report", "cli", "emit_report", ("cli",), lambda r, a: {"bytes": len(r)}),
    ("term.parse_term", "term", "parse_term", ("cli",), None),
    ("decide.decide_hom_regularity", "decide", "decide_hom_regularity", ("cli",), None),
    ("hom.check_tetris_free", "hom", "check_tetris_free", ("decide", "cli"), _tetris),
    ("term.enumerate_trees", "term", "enumerate_trees", ("hom", "automaton"),
     lambda r, a: {"trees": len(r)}),
    ("automaton.RunsTable", "automaton", "RunsTable",
     ("automaton", "analyze", "construct"), _table),
    ("automaton.check_unambiguous", "automaton", "check_unambiguous",
     ("decide", "cli"), None),
    ("automaton.evaluate", "automaton", "evaluate", ("cli",), None),
    ("automaton.accepting_runs", "automaton", "accepting_runs", ("cli",),
     lambda r, a: {"runs": len(r)}),
    ("construct.hom_image", "construct", "hom_image", ("decide", "cli"), None),
    ("construct.eliminate_zero_divisors", "construct", "eliminate_zero_divisors",
     ("decide", "cli"), _eliminated),
    ("construct.project_boolean", "construct", "project_boolean", ("decide", "cli"), None),
    ("construct.linearize", "construct", "linearize", ("decide", "analyze", "cli"), _rules),
    ("construct.wtg_to_wta", "construct", "wtg_to_wta", ("decide",), None),
    ("analyze.check_h_unambiguous", "analyze", "check_h_unambiguous",
     ("decide", "cli"), None),
    ("analyze.bounded_equivalence", "analyze", "bounded_equivalence",
     ("decide", "cli"), None),
)


def count_trees(items, bound: int) -> int:
    """Ground trees of height <= bound over a ranked alphabet."""
    total = sum(1 for _, k in items if k == 0)
    for _ in range(bound):
        total = sum(1 if k == 0 else total**k for _, k in items)
    return total


def reachable_rules(A) -> int:
    """Rules whose state positions all carry states that some tree reaches."""
    reached, changed = set(), True
    while changed:
        changed = False
        for rule in A.rules:
            if rule.target not in reached and all(q in reached for q in rule.state_labels):
                reached.add(rule.target)
                changed = True
    return sum(all(q in reached for q in rule.state_labels) for rule in A.rules)


class Tracer:
    """Records spans in the op child; ``finish`` returns them with counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.kept = []  # (span index, counter, result, args)

    def install(self):
        for name, home, attr, users, counter in TARGETS:
            original = getattr(importlib.import_module(f"treehom.{home}"), attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, counter)
            for user in users:
                module = importlib.import_module(f"treehom.{user}")
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def _wrap(self, name, fn, counter):
        spans, stack, kept = self.spans, self.stack, self.kept
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1], spans[index][2] = start, end
            if counter is not None:
                kept.append((index, counter, result, args))
            return result

        return traced

    def finish(self, start: float, end: float):
        """Close the op: add the root span, then take the deferred counts."""
        root = len(self.spans)
        spans = [[n, s, e, root if p < 0 else p] for n, s, e, p in self.spans]
        spans.append([ROOT, start, end, -1])
        counts = {}
        for index, counter, result, args in self.kept:
            try:
                counts[index] = counter(result, args)
            except (AttributeError, TypeError) as err:  # the layer's API moved
                counts[index] = {"error": type(err).__name__}
        self.kept.clear()
        return spans, counts


def self_times(spans):
    """Self time per span: its duration minus its children's durations."""
    own = [e - s for _, s, e, _ in spans]
    for _, s, e, parent in spans:
        if parent >= 0:
            own[parent] -= e - s
    return own
