"""treehom benchmark: one seeded workload of CLI ops, timed end to end.

    python3 perfbench/run.py --workload branching-decide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up imports the package from ``src/``,
writes the seeded inputs under ``.perfbench-run/<workload>/`` and warms up.
The timed loop is a closed loop with one client: it runs one op at a time,
each in a forked child under the workload's memory and time caps, in whole
passes over the op list until ``--seconds`` have passed at a pass boundary.  Every output is then
checked (see verify.py).  The last stdout line is the JSON result; the line
before it holds details (sample counts, tail percentile, failure reasons and
the uncalibrated figures).

Calibration: on a shared VM the speed drifts by +-25% within seconds under
other tenants' load (measured on a 2-vCPU x86-64 VM).  At least every CALIBRATE_EVERY seconds the loop times a fixed
reference kernel in a forked child (``executor.reference_work``); each op's
times are scaled by REFERENCE_S / (mean of the kernel times just before and
just after the op), i.e. reported in seconds at the kernel's nominal speed.

Per-op results are written to ``.perfbench-run/<workload>/results.json``.
With ``--trace 1`` every op runs twice in a row, untraced and then with spans
(see tracing.py), so both runs of an op see the same machine speed; the
result holds the per-layer metrics and the tracing overhead, and the spans
are written to ``.perfbench-run/<workload>/spans.json``.
"""

import argparse
import bisect
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
CALIBRATE_EVERY = 0.5
HARD_STOP_S = 100  # no op starts later in a loop; a run must end within 180 s
REFERENCE_S = 0.045  # reference_work on an unloaded 2-vCPU x86-64 VM, Python 3.11
REQUIRED = ("src/treehom/cli.py", "tests/oracles.py", "data", "BENCHMARK.json")


def quantile(values, pct, grid=4000):
    """Harrell-Davis estimate of the pct-th percentile: a Beta-weighted mean of
    all order statistics.  A run's ops come from a fixed corpus with a few
    cost classes; the plain sample percentile jumps between neighbouring
    classes under timing noise, the weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    for k in range(grid):  # midpoint rule for the Beta(a, b) mass of each [(i-1)/n, i/n)
        x = (k + 0.5) / grid
        density = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights[int(x * n)] += density
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def import_seconds():
    """Time ``import treehom.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import treehom.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def prepare(name, seed, run_root):
    """Generate and write the inputs, then warm up in-process."""
    import workloads

    w = workloads.WORKLOADS[name](seed, os.path.relpath(os.path.join(run_root, "in"), ROOT))
    shutil.rmtree(os.path.join(run_root, "in"), ignore_errors=True)
    workloads.write_inputs(w, ROOT)
    warm_up()
    return w


def warm_up():
    """One tiny op per command, so lazy caches fill before timing."""
    import contextlib
    import io

    import treehom.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["eval", "--automaton", "data/doubling_chain.aut", "--tree", "f(g(a))"])
        cli.main(["runs", "--automaton", "data/arctic_chain.aut", "--tree", "g(b)"])
        cli.main(["decide", "--automaton", "data/doubling_chain.aut", "--hom",
                  "data/duplicating_hom.hom", "--check-bound", "1", "--eq-bound", "2",
                  "--format", "machine"])


def run_loop(w, seconds, out_dir, tracer_factory=None):
    """Closed loop over whole passes of the op list until ``seconds`` have
    passed at the end of a pass.  With ``tracer_factory`` each op runs twice
    in a row, untraced and then traced.

    Returns ([(op index, Result, elapsed, scale)], wall), where elapsed is the
    op's time from fork to reaping and scale its calibration factor."""
    from executor import reference_seconds, run_op

    tracers = [None, tracer_factory] if tracer_factory else [None]
    done, cal = [], []  # cal: (start, end, kernel seconds)

    def calibrate():
        t = time.perf_counter()
        kernel = reference_seconds()
        cal.append((t, time.perf_counter(), kernel))

    start = time.perf_counter()
    for batch in itertools.repeat(range(len(w.ops))):
        for i in batch:
            if time.perf_counter() - start >= HARD_STOP_S:
                break  # ops far slower than today's: end mid-pass, within the exit deadline
            for make in tracers:
                if not cal or time.perf_counter() - cal[-1][1] >= CALIBRATE_EVERY:
                    calibrate()
                tracer = make() if make else None
                out = os.path.join(out_dir, f"{len(done)}.out")
                t0 = time.perf_counter()
                result = run_op(w.ops[i].argv, w.mem_cap, w.time_cap, out, tracer)
                done.append((i, result, t0, time.perf_counter()))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    calibrate()
    starts = [c[0] for c in cal]
    timed = []
    for i, result, t0, t1 in done:
        before = cal[bisect.bisect_right(starts, t0) - 1][2]
        after = cal[bisect.bisect_left(starts, t1)][2]
        timed.append((i, result, t1 - t0, 2 * REFERENCE_S / (before + after)))
    return timed, wall


def end_to_end(w, timed, correct, setup_s):
    """The end-to-end metrics, and details for the line before the result."""
    good = [(w.ops[i], r, scale) for (i, r, _, scale), ok in zip(timed, correct) if ok]
    per_unit = [r.seconds * scale / op.units * 1e6 for op, r, scale in good]
    units = sum(op.units for op, _, _ in good)
    tail = quantile(per_unit, w.tail_pct)
    details = {"tail_pct": w.tail_pct, "latency_samples": len(per_unit),
               "samples_beyond_tail": sum(x > tail for x in per_unit)}
    return {
        "setup_s": setup_s,
        "peak_rss_p90_mb": quantile([r.peak_rss_kb / 1024 for _, r, _ in good], 90),
        "units_per_s": units / sum(elapsed * scale for _, _, elapsed, scale in timed),
        "unit_p50_us": quantile(per_unit, 50),
        "unit_tail_us": tail,
    }, details


def per_layer(traced, untraced_s, wall_t, wall_u, names):
    """Per-op means of calibrated span times and of counts over the traced ops.
    ``traced`` holds (spans, counts, scale) per op."""
    from tracing import ROOT as ROOT_SPAN
    from tracing import self_times

    n = len(traced)
    incl, own, calls, counts = {}, {}, {}, {}
    self_sum = 0.0
    for spans, span_counts, scale in traced:
        selfs = self_times(spans)
        self_sum += sum(selfs) * scale
        for j, (name, s, e, _) in enumerate(spans):
            incl[name] = incl.get(name, 0.0) + (e - s) * scale
            own[name] = own.get(name, 0.0) + selfs[j] * scale
            calls[name] = calls.get(name, 0) + 1
            for key, value in span_counts.get(j, {}).items():
                if key != "error":
                    counts[(name, key)] = counts.get((name, key), 0) + value
    special = {
        "trace.ops": n,
        "trace.op_s": incl.get(ROOT_SPAN, 0.0) / n,
        "trace.untraced_op_s": untraced_s / n,
        "trace.self_sum_s": self_sum / n,
        "trace.overhead_s": (wall_t - wall_u) / n,
    }
    out = {}
    for name in names:
        span, _, quantity = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif quantity == "s":
            out[name] = incl.get(span, 0.0) / n
        elif quantity == "self_s":
            out[name] = own.get(span, 0.0) / n
        elif quantity == "calls":
            out[name] = calls.get(span, 0) / n
        elif quantity == "useful_ratio":
            rules = counts.get((span, "rules"), 0)
            out[name] = counts.get((span, "reachable_rules"), 0) / rules if rules else 0.0
        else:
            out[name] = counts.get((span, quantity), 0) / n
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a treehom checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    # Set-up = importing the package + generating the inputs + warming up,
    # repeated; each repeat is calibrated like an op and the median is taken.
    from executor import reference_seconds

    run_root = os.path.join(ROOT, ".perfbench-run", args.workload)
    repeats = []
    for _ in range(SETUP_REPEATS):
        kernel = reference_seconds()
        t = time.perf_counter()
        w = prepare(args.workload, args.seed, run_root)
        prepare_s = time.perf_counter() - t
        import_s = import_seconds()
        kernel = (kernel + reference_seconds()) / 2
        repeats.append((import_s + prepare_s) * REFERENCE_S / kernel)
    setup_s = statistics.median(repeats)

    out_dir = os.path.join(run_root, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    checker = verify.Checker(ROOT, w, verify.load_golden(args.workload))

    if args.trace:
        from tracing import Tracer

        timed, wall = run_loop(w, args.seconds, out_dir, Tracer)
        first, second = timed[0::2], timed[1::2]
    else:
        timed, wall = run_loop(w, args.seconds, out_dir)

    reasons = [checker.check(i, w.ops[i], r) for i, r, _, _ in timed]
    correct = [reason is None for reason in reasons]
    failures = {}
    for reason in reasons:
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
    info = {"workload": args.workload, "seed": args.seed, "ops": len(timed),
            "failures": failures}

    if args.trace:
        pairs = [(u, t) for u, t in zip(first, second) if t[1].trace is not None]
        traced = [(*t[1].trace, t[3]) for _, t in pairs]
        untraced_s = sum(u[1].seconds * u[3] for u, _ in pairs)
        wall_u = sum(e * s for _, _, e, s in first)
        wall_t = sum(e * s for _, _, e, s in second)
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(traced, untraced_s, wall_t, wall_u, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        with open(os.path.join(run_root, "spans.json"), "w", encoding="utf-8") as f:
            json.dump([{"op": k, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                       for k, (_, t) in enumerate(pairs) for s in t[1].trace[0]], f)
        info.update(wall_s=wall, untraced_s=wall_u, traced_s=wall_t, trace_check={
            "self_sum_minus_untraced_s": values["trace.self_sum_s"]
            - values["trace.untraced_op_s"], "overhead_s": values["trace.overhead_s"]})
    else:
        values, details = end_to_end(w, timed, correct, setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw = [(w.ops[i], r) for (i, r, _, _), ok in zip(timed, correct) if ok]
        raw_unit = [r.seconds / op.units * 1e6 for op, r in raw]
        info.update(
            details, wall_s=wall, setup_repeats_s=repeats,
            mean_scale=statistics.mean(s for *_, s in timed),
            uncalibrated={"units_per_s": sum(op.units for op, _ in raw) / wall,
                          "unit_p50_us": quantile(raw_unit, 50),
                          "unit_tail_us": quantile(raw_unit, w.tail_pct)})
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(run_root, "results.json"), "w", encoding="utf-8") as f:
        json.dump([{"op": i, "correct": ok, "seconds": r.seconds, "elapsed": elapsed,
                    "scale": scale, "units": w.ops[i].units, "peak_rss_kb": r.peak_rss_kb}
                   for (i, r, elapsed, scale), ok in zip(timed, correct)], f)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": all(correct),
        "attempted": len(timed),
        "failed": correct.count(False),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
