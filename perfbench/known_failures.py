"""Probe of the ops that fail at the seed commit, kept out of the timed
workloads (every op of a benchmark run must succeed):

    python3 perfbench/known_failures.py

* ``decide`` at the CLI default ``--check-bound 4`` on a branching-decide
  instance runs out of its 256 MB memory cap (``check_tetris_free``);
* ``runs`` and constrained ``eval`` on unary chains past height ~330, and
  plain ``eval`` past ~990, raise ``RecursionError``.

Each op runs like a benchmark op, in a forked child under the workload's
caps.  Prints one JSON line per op: how it ended (``error``) and the
outcome of checking it (``check``: ``null`` when the op now succeeds and its
output is right).
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(".perfbench-run", "known-failures")
HEIGHTS = {"eval": (1000, 1200), "runs": (340, 400)}
CONSTRAINED_HEIGHTS = (340, 400)


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import verify
    import workloads as wl
    from executor import run_op

    shutil.rmtree(RUN_DIR, ignore_errors=True)
    probes = []  # (workload, op)
    branching = wl.branching_decide(0, os.path.join(RUN_DIR, "in"))
    inst = branching.instances[wl.branching_pool(wl.BRANCHING_PER_CLASS)["tetris-natural"][0].id]
    argv = ["decide", "--automaton", f"{RUN_DIR}/in/{inst.id}.aut", "--hom",
            f"{RUN_DIR}/in/{inst.id}.hom", "--check-bound", "4"] + wl.BRANCHING_FLAGS
    probes.append((branching, wl.Op(argv, 1, {"instance": inst.id, "check_bound": 4})))
    deep = wl.deep_eval(0, os.path.join(RUN_DIR, "in"))
    for cmd, data, _, build, value, target in wl.TALL_KINDS:
        heights = CONSTRAINED_HEIGHTS if data == "doubling_image.aut" else HEIGHTS[cmd]
        for n in heights:
            tree = build(n, "a")
            expect = {"value": value(n, "a"), "nodes": wl.text_size(tree)}
            if target is not None:
                expect["target"] = target("a")
            probes.append((deep, wl.Op([cmd, "--automaton", f"data/{data}", "--tree", tree],
                                       expect["nodes"], expect)))
    wl.write_inputs(branching, ROOT)
    wl.write_inputs(deep, ROOT)

    out = os.path.join(RUN_DIR, "out")
    for w, op in probes:
        r = run_op(op.argv, w.mem_cap, w.time_cap, out)
        checker = verify.Checker(ROOT, w, {})
        if not r.ok:
            reason = f"error:{r.error}"
        elif op.argv[0] == "decide":  # no golden entry at bound 4: re-check the witnesses
            with open(out, encoding="utf-8") as f:
                reason = checker.check_witnesses(inst, json.load(f))
        else:
            reason = checker.check(-1, op, r)
        label = " ".join(op.argv[:3] + op.argv[5:7] if op.argv[0] == "decide" else op.argv[:3])
        print(json.dumps({"op": label, "nodes": op.units, "error": r.error,
                          "check": reason, "peak_rss_mb": round(r.peak_rss_kb / 1024, 1),
                          "seconds": round(r.seconds, 3)}), flush=True)
    shutil.rmtree(RUN_DIR, ignore_errors=True)


if __name__ == "__main__":
    main()
