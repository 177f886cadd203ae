"""Output checks against references the code under test does not produce.

* decide: the golden file recorded at the seed commit (verdicts and
  witnesses), semiring- and hom-forced outcomes, and a direct re-check of
  every witness with this benchmark's own hom code and the brute-force
  oracles of ``tests/oracles.py``;
* tall unary trees: the closed forms in the bundled ``data/*.aut`` comments;
* bushy image trees: ``naive_evaluate`` of the source WTA at the preimage.

Each check returns ``None`` when the output is right, else a short reason.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os

import workloads as wl

POSITIVE = ("EVIDENCE_REGULAR", "ORACLE_REGULAR")
STAGES = ("tetris_free", "h_unambiguous", "image_unambiguous", "equivalence")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def load_oracles(root: str):
    """tests/oracles.py of the checkout, imported by path.

    ``naive_runs`` recurses into every rule without sharing work, which is
    exponential in tree height; its recursive calls go through the module
    global, so memoizing that name keeps its logic and makes it polynomial.
    """
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    naive_runs = module.naive_runs
    memo = {}

    def memo_runs(A, t, q):
        key = (id(A), t, q)
        if key not in memo:
            memo[key] = naive_runs(A, t, q)
        return memo[key]

    module.naive_runs = memo_runs
    return module


def load_golden(workload: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def golden_key(instance_id: str, check_bound: int) -> str:
    return f"{instance_id}@{check_bound}"


def golden_entry(inst, report: dict) -> dict:
    """The parts of a decide report that must never change."""
    entry = {"digest": inst.digest, "verdict": report["verdict"],
             "zero_sum_free": report["zero_sum_free"],
             "zero_divisor_path": report["zero_divisor_path"]}
    for stage in STAGES:
        v = report[stage]
        entry[stage] = None if v is None else [v["status"], v["bound"], v["witness"]]
    return entry


class Checker:
    def __init__(self, root: str, workload, golden: dict):
        import treehom

        self.treehom = treehom
        self.oracles = load_oracles(root)
        self.workload = workload
        self.golden = golden
        self._automata = {}
        self._cache = {}

    def check(self, index: int, op, result) -> str | None:
        """Verify one finished op; repeats of an op reuse the first verdict."""
        if not result.ok:
            return f"error:{result.error}"
        with open(result.out_path, "rb") as f:
            data = f.read()
        key = (index, hashlib.sha256(data).hexdigest(), result.exit_code)
        if key not in self._cache:
            text = data.decode("utf-8")
            try:
                self._cache[key] = self._check(op, text, result.exit_code)
            except (ValueError, KeyError, TypeError, IndexError) as err:
                self._cache[key] = f"unreadable output: {type(err).__name__}: {err}"
        return self._cache[key]

    def _check(self, op, text, code):
        if op.argv[0] == "decide":
            return self._check_decide(op, text, code)
        if code != 0:
            return f"exit code {code}"
        if op.argv[0] == "runs":
            return self._check_runs(op, text)
        if "instance" in op.expect:
            inst = self.workload.instances[op.expect["instance"]]
            want = str(self._evaluate(inst, wl.parse(op.expect["source"])))
        else:
            want = op.expect["value"]
        got = text.strip()
        return None if got == want else f"value {got[:40]} != {want[:40]}"

    def _check_runs(self, op, text):
        lines = text.rstrip("\n").split("\n")
        tree = op.argv[op.argv.index("--tree") + 1]
        head = [f"1 accepting run(s) for {tree}",
                f"run 1: target {op.expect['target']}, weight {op.expect['value']}"]
        if lines[:2] != head:
            return f"runs header {lines[:2]!r:.80}"
        body = lines[2:]
        if len(body) != op.expect["nodes"]:
            return f"{len(body)} run lines for {op.expect['nodes']} nodes"
        for depth, line in enumerate(body, start=1):
            if len(line) - len(line.lstrip(" ")) != 2 * depth:
                return f"run line {depth} misindented"
        return None

    def _check_decide(self, op, text, code):
        report = json.loads(text)
        inst = self.workload.instances[op.expect["instance"]]
        verdict = report["verdict"]
        want_code = 0 if verdict in POSITIVE else 3 if verdict == "UNKNOWN" else 2
        if code != want_code:
            return f"exit code {code} for verdict {verdict}"
        modular = inst.semiring.startswith("z")
        if report["zero_sum_free"] == modular:
            return "zero_sum_free flag contradicts the semiring"
        if modular and verdict != "UNKNOWN":
            return f"{inst.semiring} verdict {verdict}, expected UNKNOWN"
        if not modular and verdict == "UNKNOWN":
            return "UNKNOWN on a zero-sum-free semiring"
        if inst.id.startswith("tetris-"):
            tetris = report["tetris_free"]
            if verdict != "PRECONDITION_VIOLATED" or tetris["status"] != "witness":
                return "non-tetris-free hom passed the tetris check"
        key = golden_key(inst.id, op.expect["check_bound"])
        if key not in self.golden:
            return f"no golden entry for {key}"
        want, got = self.golden[key], golden_entry(inst, report)
        for field in want:
            if got[field] != want[field]:
                return f"{field} differs from the golden file"
        return self.check_witnesses(inst, report)

    def check_witnesses(self, inst, report):
        """Re-check every witness of a decide report from its definition."""
        ranks = dict(inst.source)
        for stage in STAGES:
            v = report[stage]
            if v is None or v["status"] != "witness":
                continue
            w = v["witness"]
            if stage == "tetris_free":
                s, s2 = wl.parse(w[0]), wl.parse(w[1])
                if max(wl.height(s), wl.height(s2)) > v["bound"]:
                    return "tetris witness above the bound"
                if wl.apply_hom(inst.images, s) != wl.apply_hom(inst.images, s2):
                    return "tetris witness trees have different images"
                p1, p2 = wl.positions(s), wl.positions(s2)
                same = [p for p, _ in p1] == [p for p, _ in p2] and all(
                    inst.images[a] == inst.images[b] for (_, a), (_, b) in zip(p1, p2))
                if same:
                    return "tetris witness pair has equal shapes and symbol images"
            elif stage == "h_unambiguous":
                reason = self._check_h_witness(inst, v["bound"], w)
                if reason:
                    return reason
            elif stage == "equivalence":
                t = wl.parse(w[0])
                if wl.height(t) > v["bound"]:
                    return "equivalence witness above the bound"
                sr = self.treehom.get_semiring(inst.semiring)
                total = sr.zero
                for s in wl.preimages(inst.images, ranks, t):
                    total = sr.add(total, self._evaluate(inst, s).value)
                if w[1] != sr.format_value(total):
                    return f"image value {w[1]} at {w[0]} != {sr.format_value(total)}"
                if w[1] == w[2]:
                    return "equivalence witness values are equal"
            else:
                return f"{stage} reported a witness"
        return None

    def _check_h_witness(self, inst, bound, w):
        s, s2 = wl.parse(w[0]), wl.parse(w[1])
        if max(wl.height(s), wl.height(s2)) > bound:
            return "h-unambiguity witness above the bound"
        if wl.apply_hom(inst.images, s) != wl.apply_hom(inst.images, s2):
            return "h-unambiguity witness trees have different images"
        A = self._automaton(inst)
        maps = []
        for tree, text in ((s, w[2]), (s2, w[3])):
            found = [r for r in self.oracles.naive_accepting_runs(A, self._tree(tree))
                     if render_run(r) == text]
            if not found:
                return "h-unambiguity witness run is not an accepting run"
            maps.append(state_map(found[0]))
        if maps[0] == maps[1]:
            return "h-unambiguity witness runs agree everywhere"
        return None

    # treehom objects for the oracles, built from this benchmark's own data
    def _tree(self, t):
        return self.treehom.Tree(t[0], tuple(self._tree(c) for c in t[1]))

    def _automaton(self, inst):
        A = self._automata.get(inst.id)
        if A is None:
            th = self.treehom
            sr = th.get_semiring(inst.semiring)
            rules = [(th.Tree(sym, tuple(th.Tree(q) for q in kids)), target,
                      sr.parse(weight), ()) for sym, kids, target, weight in inst.rules]
            A = th.Automaton(sr, th.RankedAlphabet(list(inst.source)), inst.states,
                             inst.finals, rules)
            self._automata[inst.id] = A
        return A

    def _evaluate(self, inst, s):
        return self.oracles.naive_evaluate(self._automaton(inst), self._tree(s))


def render_run(run, indent: str = "") -> str:
    lines = [indent + run.rule.text]
    lines.extend(render_run(sub, indent + "  ") for sub in run.subruns)
    return "\n".join(lines)


def state_map(run, prefix=()):
    out = {prefix: run.rule.target}
    for p, sub in zip(run.rule.state_positions, run.subruns):
        out.update(state_map(sub, prefix + p))
    return out
