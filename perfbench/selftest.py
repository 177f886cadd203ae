"""Self-test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py

* the same seed regenerates byte-identical input files, another seed changes
  them (every workload);
* a corrupted expected value is counted as a failure: a tall-tree closed form,
  a bushy-tree source tree and a golden decide verdict are each corrupted
  after the op ran correctly once.
"""

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(".perfbench-run", "selftest")


def read_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def generated(workloads, name, seed, tag):
    root = os.path.join(SCRATCH, tag)
    shutil.rmtree(root, ignore_errors=True)
    w = workloads.WORKLOADS[name](seed, "in")
    workloads.write_inputs(w, root)
    return read_tree(root)


def first_op(w, predicate):
    return next(i for i, op in enumerate(w.ops) if predicate(op))


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import verify
    import workloads
    from executor import run_op

    failures = []

    def expect(cond, what):
        print(("PASS " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for name in workloads.WORKLOADS:
        a = generated(workloads, name, 11, "a")
        b = generated(workloads, name, 11, "b")
        c = generated(workloads, name, 12, "c")
        expect(a == b, f"{name}: seed 11 regenerates byte-identical inputs")
        expect(a != c, f"{name}: seed 12 changes the inputs")

    cases = [
        ("deep-eval", lambda op: op.argv[0] == "eval" and "value" in op.expect
         and op.units < 200, "value", "12345"),
        ("deep-eval", lambda op: "source" in op.expect, "source", "a"),
        ("branching-decide", lambda op: op.expect.get("check_bound") == 3
         and op.expect["instance"].startswith("tetris"), "golden", "EVIDENCE_REGULAR"),
    ]
    run_dir = os.path.join(SCRATCH, "run")
    for name, predicate, field, bad in cases:
        w = workloads.WORKLOADS[name](5, os.path.join(run_dir, "in"))
        shutil.rmtree(run_dir, ignore_errors=True)
        workloads.write_inputs(w, ROOT)
        golden = verify.load_golden(name)
        i = first_op(w, predicate)
        op = w.ops[i]
        result = run_op(op.argv, w.mem_cap, w.time_cap, os.path.join(run_dir, "out"))
        reason = verify.Checker(ROOT, w, golden).check(i, op, result)
        expect(reason is None, f"{name}: op {i} verifies ({reason})")
        if field == "golden":
            key = verify.golden_key(op.expect["instance"], 3)
            golden = copy.deepcopy(golden)
            golden[key]["verdict"] = bad
        else:
            op.expect[field] = bad
        reason = verify.Checker(ROOT, w, golden).check(i, op, result)
        expect(reason is not None, f"{name}: corrupted {field} counts as a failure ({reason})")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
