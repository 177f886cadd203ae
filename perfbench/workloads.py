"""Seeded workload generators for the treehom benchmark.

Every op is one ``treehom.cli.main(argv)`` call.  Set-up writes each op's
input files into a run directory; the program sees only those files and the
argv strings.  Trees are plain ``(label, children)`` tuples here, so the
generators and the expected values never depend on the package under test.

The decide workloads run fixed corpora (two instances per instance class,
generated from ``POOL_SEED``), which a golden file recorded once covers;
``--seed`` orders them.  Instance costs spread widely within a class, so
drawing instances per seed would make runs incomparable.  The deep-eval
workload draws its trees from ``--seed`` within fixed height strata; its
expected values come from closed forms and from a brute-force oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

POOL_SEED = 20230906
SOURCE = (("a", 0), ("b", 0), ("f", 1), ("g", 1), ("m", 2))
MODULAR_SOURCE = (("a", 0), ("g", 1), ("k", 2))
ONE = {"natural": "1", "tropical": "0", "arctic": "0"}
MiB = 2**20


@dataclass
class Op:
    """One CLI call: its argv, its work units and what its output must be."""

    argv: list
    units: int
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    mem_cap: int  # bytes of address space per op
    time_cap: float  # seconds per op
    tail_pct: int  # percentile reported as the tail latency: about ten samples beyond
    ops: list  # Op, in the order one pass of the timed loop runs them
    files: dict  # relative path -> text
    instances: dict = field(default_factory=dict)  # instance id -> Instance


@dataclass
class Instance:
    """A decide instance: a WTA, a hom and the data the oracles need."""

    id: str
    semiring: str
    states: list
    finals: list
    rules: list  # (symbol, child states, target, weight text)
    images: dict  # source symbol -> image pattern tree (variables x1..xk)
    source: tuple
    target: tuple

    @property
    def automaton_text(self) -> str:
        return wta_text(self.semiring, self.states, self.finals, self.rules)

    @property
    def hom_text(self) -> str:
        return hom_text(self.source, self.target, self.images)

    @property
    def digest(self) -> str:
        data = (self.automaton_text + "\0" + self.hom_text).encode()
        return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------- trees


def node(label, *children):
    return (label, tuple(children))


def fmt(t) -> str:
    """Term text of a tuple tree (generated trees are at most ~40 high)."""
    label, children = t
    return f"{label}({','.join(map(fmt, children))})" if children else label


def parse(text: str):
    """Parse term text into a tuple tree, iteratively."""
    stack = [[None, []]]
    name = []
    for ch in text + "\0":
        if ch.isalnum() or ch == "_":
            name.append(ch)
            continue
        if name:
            stack[-1][1].append(("".join(name), ()))
            name = []
        if ch == "(":
            label, _ = stack[-1][1].pop()
            stack.append([label, []])
        elif ch == ")":
            label, kids = stack.pop()
            stack[-1][1].append((label, tuple(kids)))
        elif ch not in ", \0":
            raise ValueError(f"bad character {ch!r} in term")
    (tree,) = stack[0][1]
    return tree


def text_size(text: str) -> int:
    """Nodes of a term given as text: the root plus one per '(' or ','."""
    return 1 + text.count("(") + text.count(",")


def size(t) -> int:
    n, stack = 0, [t]
    while stack:
        label, children = stack.pop()
        n += 1
        stack.extend(children)
    return n


def height(t) -> int:
    h, stack = 0, [(t, 0)]
    while stack:
        (label, children), d = stack.pop()
        h = max(h, d)
        stack.extend((c, d + 1) for c in children)
    return h


def positions(t, prefix=()):
    """(position, label) pairs in prefix-first lexicographic order."""
    out = [(prefix, t[0])]
    for i, c in enumerate(t[1], start=1):
        out.extend(positions(c, prefix + (i,)))
    return out


def apply_hom(images: dict, s):
    label, children = s
    theta = {f"x{i}": apply_hom(images, c) for i, c in enumerate(children, start=1)}
    return substitute(images[label], theta)


def substitute(pattern, theta):
    label, children = pattern
    if not children and label in theta:
        return theta[label]
    return (label, tuple(substitute(c, theta) for c in children))


def preimages(images: dict, ranks: dict, t):
    """All source trees s with h(s) = t (brute force over symbol images)."""
    out = []
    for name in sorted(images):
        binding = {}
        if not _match(images[name], t, binding):
            continue
        child_sets = [preimages(images, ranks, binding[f"x{i}"])
                      for i in range(1, ranks[name] + 1)]
        out.extend((name, combo) for combo in itertools.product(*child_sets))
    return out


def _match(pattern, t, binding) -> bool:
    label, children = pattern
    if not children and label.startswith("x") and label[1:].isdigit():
        if label in binding:
            return binding[label] == t
        binding[label] = t
        return True
    if label != t[0] or len(children) != len(t[1]):
        return False
    return all(_match(p, c, binding) for p, c in zip(children, t[1]))


# ---------------------------------------------------------------- file texts


def wta_text(semiring, states, finals, rules) -> str:
    lines = [f"semiring: {semiring}", f"states: {' '.join(states)}",
             f"final: {' '.join(finals)}", "rules:"]
    for symbol, kids, target, weight in rules:
        lhs = f"{symbol}({','.join(kids)})" if kids else symbol
        lines.append(f"{lhs} -> {target} @ {weight}")
    return "\n".join(lines) + "\n"


def hom_text(source, target, images) -> str:
    lines = ["from: " + " ".join(f"{n}/{k}" for n, k in source),
             "to: " + " ".join(f"{n}/{k}" for n, k in target)]
    lines.extend(f"{n}/{k} -> {fmt(images[n])}" for n, k in source)
    return "\n".join(lines) + "\n"


def image_automaton_text(inst: Instance) -> str:
    """Eq-restricted image of a WTA under an injective hom, built here from
    the definition: the lex-least occurrence of x_i carries q_i, the other
    occurrences carry the sink and are tied to it by a constraint."""
    lines = [f"semiring: {inst.semiring}",
             f"states: {' '.join(inst.states)} bot", "sink: bot",
             f"final: {' '.join(inst.finals)}", "rules:"]
    for symbol, kids, target, weight in inst.rules:
        occ: dict = {}
        for p, label in positions(inst.images[symbol]):
            if label.startswith("x") and label[1:].isdigit():
                occ.setdefault(int(label[1:]), []).append(p)
        pairs = []
        lhs = inst.images[symbol]
        for i, q in enumerate(kids, start=1):
            first, *rest = sorted(occ[i])
            lhs = _replace(lhs, first, (q, ()))
            for p in rest:
                lhs = _replace(lhs, p, ("bot", ()))
                pairs.append(f"{_pos(first)} = {_pos(p)}")
        rule = f"{fmt(lhs)} -> {target} @ {weight}"
        lines.append(rule + (" | " + ", ".join(pairs) if pairs else ""))
    one = ONE[inst.semiring]
    for name, rank in inst.target:
        lhs = f"{name}({','.join(['bot'] * rank)})" if rank else name
        lines.append(f"{lhs} -> bot @ {one}")
    return "\n".join(lines) + "\n"


def _replace(t, p, sub):
    if not p:
        return sub
    label, children = t
    i = p[0] - 1
    return (label, children[:i] + (_replace(children[i], p[1:], sub),) + children[i + 1:])


def _pos(p) -> str:
    return ".".join(map(str, p))


# ---------------------------------------------------------------- instances

X1, X2 = ("x1", ()), ("x2", ())


def _weight(rng, semiring) -> str:
    return str(rng.randint(1, 4) if semiring == "natural" else rng.randint(0, 3))


def random_wta(rng, semiring, m_pairs, fixed=None):
    """A deterministic 3-state WTA over SOURCE with every leaf and unary rule
    and ``m_pairs`` of the nine m rules; ``fixed`` pins leaf targets.  A fixed
    rule count keeps the cost of one class of instances nearly constant."""
    states = ["q0", "q1", "q2"]
    fixed = fixed or {}
    pairs = rng.sample(list(itertools.product(states, repeat=2)), m_pairs)
    rules = []
    for name, rank in SOURCE:
        for kids in itertools.product(states, repeat=rank):
            if rank == 2 and kids not in pairs:
                continue
            target = fixed.get(name) or rng.choice(states)
            rules.append((name, kids, target, _weight(rng, semiring)))
    finals = sorted(rng.sample(states, rng.randint(1, 3)))
    return states, finals, rules


def branching_hom(rng, kind, dups=("g1", "g2", "f1", "m")):
    """Images of SOURCE symbols for one of the three hom kinds; a "dup" hom
    duplicates the variable of one of ``dups``."""
    m_image = rng.choice([node("m", X1, X2), node("m", X2, X1)])
    if kind == "dup":  # injective on trees (distinct image roots), duplicating
        images = {"a": node("a"), "b": node("b"), "f": node("f", X1),
                  "g": node("g", X1), "m": m_image}
        dup = rng.choice(dups)
        if dup == "g1":
            images["g"] = node("k", X1, X1)
        elif dup == "g2":
            images["g"] = node("k", X1, node("g", X1))
        elif dup == "f1":
            images["f"] = node("k", X1, X1)
        else:
            images["m"] = node("m", X1, node("k", X2, X2))
        target = (("a", 0), ("b", 0), ("f", 1), ("g", 1), ("k", 2), ("m", 2))
    elif kind == "merge":  # h(a) = h(b): tetris-free, breaks h-unambiguity
        images = {"a": node("c"), "b": node("c"), "f": node("f", X1),
                  "g": node("g", X1), "m": m_image}
        target = (("c", 0), ("f", 1), ("g", 1), ("m", 2))
    else:  # h(f) = g(g(x1)), h(g) = g(x1): not tetris-free
        images = {"a": node("a"), "b": node("b"), "f": node("g", node("g", X1)),
                  "g": node("g", X1), "m": m_image}
        target = (("a", 0), ("b", 0), ("g", 1), ("m", 2))
    return images, target


def branching_pool(per_class: int) -> dict:
    """class name -> list of Instance, all from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for kind in ("dup", "merge", "tetris"):
        for semiring in ("natural", "tropical", "arctic"):
            cls = f"{kind}-{semiring}"
            members = []
            for i in range(per_class):
                fixed = {"a": "q0", "b": "q1"} if kind == "merge" else None
                states, finals, rules = random_wta(rng, semiring, BRANCHING_M_PAIRS, fixed)
                if kind == "merge" and "q0" not in finals:
                    finals = sorted(finals + ["q0"])
                images, target = branching_hom(rng, kind)
                members.append(Instance(f"{cls}-{i}", semiring, states, finals, rules,
                                        images, SOURCE, target))
            pool[cls] = members
    return pool


# Non-one weights per modulus; each set has 2-3 zero divisors or units whose
# power cycles set the Dickson cap, and so the size of the eliminated automaton.
# The classes' costs leave no wide gap at the middle of the corpus, where the
# median op latency is read.
MODULAR_CLASSES = (
    ("z6", (2, 3, 5)),
    ("z12", (2, 3, 5)),
    ("z30", (2, 3)),
    ("z30", (2, 3, 5)),
    ("z60", (2, 3)),
    ("z60", (2, 3, 5)),
)
MODULAR_HOMS = (
    {"a": node("a"), "g": node("g", X1), "k": node("k", X1, X2)},
    {"a": node("a"), "g": node("g", X1), "k": node("k", X2, X1)},
    {"a": node("a"), "g": node("h", X1), "k": node("k", X1, X2)},
)
MODULAR_TARGET = (("a", 0), ("g", 1), ("h", 1), ("k", 2))


def modular_pool(per_class: int) -> dict:
    rng = random.Random(POOL_SEED + 1)
    pool = {}
    for semiring, weights in MODULAR_CLASSES:
        cls = f"{semiring}-{'.'.join(map(str, weights))}"
        members = []
        for i in range(per_class):
            w = [str(x) for x in weights]
            rng.shuffle(w)
            w3 = w[2] if len(w) > 2 else rng.choice(w)
            if rng.random() < 0.5:
                states, finals = ["q0", "q1"], ["q1"]
                rules = [("a", (), "q0", w[0]), ("g", ("q0",), "q0", w[1]),
                         ("k", ("q0", "q0"), "q1", w3)]
            else:
                states, finals = ["q0", "q1", "q2"], ["q2"]
                rules = [("a", (), "q0", w[0]), ("g", ("q0",), "q1", w[1]),
                         ("g", ("q1",), "q1", "1"), ("k", ("q1", "q0"), "q2", w3)]
            images = rng.choice(MODULAR_HOMS)
            members.append(Instance(f"{cls}-{i}", semiring, states, finals, rules,
                                    images, MODULAR_SOURCE, MODULAR_TARGET))
        pool[cls] = members
    return pool


def _round_robin(rng, pool: dict):
    """The whole pool in a seeded order: round r takes the r-th member (in a
    seeded member order) of every class, classes in a seeded order, so every
    prefix of the list is class-balanced."""
    picks = {cls: rng.sample(members, len(members)) for cls, members in pool.items()}
    order = sorted(pool)
    out = []
    for r in range(max(len(m) for m in pool.values())):
        rng.shuffle(order)
        out.extend(picks[cls][r] for cls in order if r < len(picks[cls]))
    return out


# ---------------------------------------------------------------- workloads

# Two fixed instances per class: a run repeats whole passes over the corpus,
# so every run does the same work and the seed only orders it.
BRANCHING_PER_CLASS = 2
BRANCHING_M_PAIRS = 4
MODULAR_PER_CLASS = 2
BRANCHING_FLAGS = ["--lin-height", "1", "--eq-bound", "3", "--format", "machine"]


def _decide_workload(name, pool, seed, run_dir, flags, mem_cap, time_cap, tail_pct):
    rng = random.Random(f"{name}:{seed}")
    files, ops, instances = {}, [], {}

    def add(inst, check_bound):
        aut = f"{run_dir}/{inst.id}.aut"
        hom = f"{run_dir}/{inst.id}.hom"
        files[aut], files[hom] = inst.automaton_text, inst.hom_text
        instances[inst.id] = inst
        argv = ["decide", "--automaton", aut, "--hom", hom,
                "--check-bound", str(check_bound)] + flags
        ops.append(Op(argv, 1, {"instance": inst.id, "check_bound": check_bound}))

    for inst in _round_robin(rng, pool):
        add(inst, 3)
    return Workload(name, mem_cap, time_cap, tail_pct, ops, files, instances)


def branching_decide(seed: int, run_dir: str) -> Workload:
    """decide at check bound 3 on 5-symbol branching instances.  The CLI
    default check bound 4 runs out of memory today; known_failures.py
    probes it."""
    return _decide_workload("branching-decide", branching_pool(BRANCHING_PER_CLASS), seed,
                            run_dir, BRANCHING_FLAGS, mem_cap=256 * MiB, time_cap=60.0,
                            tail_pct=65)


def modular_decide(seed: int, run_dir: str) -> Workload:
    """decide at check bound 3 on z<k> chains with 2-3 non-one weights."""
    return _decide_workload("modular-decide", modular_pool(MODULAR_PER_CLASS), seed,
                            run_dir, ["--format", "machine"], mem_cap=512 * MiB,
                            time_cap=60.0, tail_pct=65)


# Heights n (g nodes) stay below the recursion limits of the seed commit,
# found by bisection: runs fails from n = 330, constrained eval (the
# doubling_image.aut rules with equality constraints) from n = 329, plain
# eval from n = 988.  Every op of a run must succeed; known_failures.py
# probes the heights past the limits.
PLAIN_MAX_HEIGHT = 900
NESTED_MAX_HEIGHT = 300
# Below this height the per-node latency is mostly the fixed per-op cost
# divided by a handful of nodes, and the tail percentile followed the seed's
# draws of the smallest heights.
TALL_MIN_HEIGHT = 30
# Bundled automata with closed-form series on unary chains (see their comments).
TALL_KINDS = (
    # (command, data file, max height, tree builder, expected value, expected run target)
    ("eval", "doubling_chain.aut", PLAIN_MAX_HEIGHT,
     lambda n, leaf: f"f({'g(' * n}a{')' * n})", lambda n, leaf: str(2**n), None),
    ("eval", "counting_chain.aut", PLAIN_MAX_HEIGHT,
     lambda n, leaf: f"{'g(' * n}{leaf}{')' * n}",
     lambda n, leaf: "2" if leaf == "a" else "3", None),
    ("eval", "arctic_chain.aut", PLAIN_MAX_HEIGHT,
     lambda n, leaf: f"{'g(' * n}{leaf}{')' * n}",
     lambda n, leaf: str(n if leaf == "a" else 2 * n), None),
    ("eval", "doubling_image.aut", NESTED_MAX_HEIGHT,
     lambda n, leaf: f"k({'g(' * n}a{')' * n},{'g(' * (n + 1)}a{')' * (n + 1)})",
     lambda n, leaf: str(2**n), None),
    ("runs", "doubling_chain.aut", NESTED_MAX_HEIGHT,
     lambda n, leaf: f"f({'g(' * n}a{')' * n})", lambda n, leaf: str(2**n),
     lambda leaf: "qf"),
    ("runs", "arctic_chain.aut", NESTED_MAX_HEIGHT,
     lambda n, leaf: f"{'g(' * n}{leaf}{')' * n}",
     lambda n, leaf: str(n if leaf == "a" else 2 * n), lambda leaf: "q" + leaf),
)
# Each tall kind gets one height from each of TALL_STRATA equal slices of
# [TALL_MIN_HEIGHT, its max height), and each bushy op a source size from each of the
# slices of BUSHY_SOURCE_NODES, so every run has the same mix of sizes.
TALL_STRATA = 30
BUSHY_PER_STRATUM = 2
BUSHY_AUTOMATA = 6
BUSHY_SOURCE_NODES = (300, 3000)
BUSHY_MAX_GROWTH = 4  # image nodes per source node; larger images are redrawn


def _sized_source_tree(rng, n):
    """Random source tree with exactly n nodes: binary m nodes split the rest
    at random, one node in ten is unary f/g, leaves are a/b."""
    if n == 1:
        return node(rng.choice("ab"))
    if n == 2 or rng.random() < 0.1:
        return node(rng.choice("fg"), _sized_source_tree(rng, n - 1))
    left = rng.randint(1, n - 2)
    return node("m", _sized_source_tree(rng, left), _sized_source_tree(rng, n - 1 - left))


def deep_eval(seed: int, run_dir: str) -> Workload:
    """eval/runs on tall unary chains (bundled automata, closed forms) and on
    bushy images h(s) (image automata built here, brute-force oracle)."""
    rng = random.Random(f"deep-eval:{seed}")
    files, instances = {}, {}
    images = []
    for i in range(BUSHY_AUTOMATA):
        semiring = ("natural", "tropical", "arctic")[i % 3]
        states, finals, rules = random_wta(rng, semiring, 9)
        # A duplicating m would double every right subtree: images explode.
        hom_images, target = branching_hom(rng, "dup", dups=("g1", "g2", "f1"))
        inst = Instance(f"image-{i}", semiring, states, finals, rules, hom_images,
                        SOURCE, target)
        path = f"{run_dir}/{inst.id}.aut"
        files[path] = image_automaton_text(inst)
        instances[inst.id] = inst
        images.append((inst, path))
    strata = [rng.sample(range(TALL_STRATA), TALL_STRATA)
              for _ in range(len(TALL_KINDS) + BUSHY_PER_STRATUM)]
    lo, hi = BUSHY_SOURCE_NODES
    bushy_width = (hi - lo) // TALL_STRATA
    ops = []
    for j in range(TALL_STRATA):
        for (cmd, data, max_height, build, value, target), order in zip(TALL_KINDS, strata):
            width = (max_height - TALL_MIN_HEIGHT) // TALL_STRATA
            n = TALL_MIN_HEIGHT + order[j] * width + rng.randrange(width)
            leaf = rng.choice("ab")
            tree = build(n, leaf)
            expect = {"value": value(n, leaf), "nodes": text_size(tree)}
            if target is not None:
                expect["target"] = target(leaf)
            argv = [cmd, "--automaton", f"data/{data}", "--tree", tree]
            ops.append(Op(argv, expect["nodes"], expect))
        for order in strata[len(TALL_KINDS):]:
            inst, path = rng.choice(images)
            n = lo + order[j] * bushy_width + rng.randrange(bushy_width)
            while True:
                s = _sized_source_tree(rng, n)
                t = apply_hom(inst.images, s)
                if size(t) <= BUSHY_MAX_GROWTH * n:
                    break
            ops.append(Op(["eval", "--automaton", path, "--tree", fmt(t)], size(t),
                          {"instance": inst.id, "source": fmt(s)}))
    # Above p90 the per-node latency is that of the few smallest trees, where
    # the per-op overhead divided by a handful of nodes dominates; it spread by
    # 19-57% between runs.
    return Workload("deep-eval", 256 * MiB, 20.0, 90, ops, files, instances)


WORKLOADS = {
    "branching-decide": branching_decide,
    "modular-decide": modular_decide,
    "deep-eval": deep_eval,
}


def write_inputs(w: Workload, root: str) -> None:
    """Write every input file and the op list (argv + expectations)."""
    for rel, text in w.files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    run_dir = os.path.dirname(next(iter(w.files)))
    with open(os.path.join(root, run_dir, "ops.json"), "w", encoding="utf-8") as f:
        json.dump([{"argv": op.argv, "units": op.units, "expect": op.expect}
                   for op in w.ops], f, indent=0, sort_keys=True)
