"""Record the golden decide outputs for every pool instance.

    python3 perfbench/record_golden.py

Run once, from the root of a checkout of the commit whose outputs are the
reference; it writes ``perfbench/golden/<workload>.json``.  Every recorded
witness is re-checked with the benchmark's own oracles first, and the
script refuses to write a file if any op fails or any witness is wrong.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import verify
    import workloads
    from executor import run_op

    run_root = os.path.join(".perfbench-run", "golden")
    os.makedirs(run_root, exist_ok=True)
    for name in ("branching-decide", "modular-decide"):
        w = workloads.WORKLOADS[name](0, f"{run_root}/in")
        workloads.write_inputs(w, ROOT)
        checker = verify.Checker(ROOT, w, {})
        golden = {}
        for op in w.ops:
            bound = op.expect["check_bound"]
            inst = w.instances[op.expect["instance"]]
            out = os.path.join(run_root, "out.json")
            r = run_op(op.argv, w.mem_cap, w.time_cap, out)
            if not r.ok:
                sys.exit(f"{inst.id}: {r.error}")
            with open(out, encoding="utf-8") as f:
                report = json.load(f)
            reason = checker.check_witnesses(inst, report)
            if reason:
                sys.exit(f"{inst.id}: {reason}")
            golden[verify.golden_key(inst.id, bound)] = verify.golden_entry(inst, report)
            print(inst.id, report["verdict"], f"{r.seconds:.2f}s", flush=True)
        path = os.path.join(verify.GOLDEN_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
