"""Probe that overlaps the ROADMAP baseline: ``check_tetris_free`` on the
5-symbol branching source at bound 3 (ROADMAP "Recent": about 0.5 s).

    python3 perfbench/crosscheck.py

Times the call in-process, once per hom, for three pool homs of every
branching-decide class, and prints one JSON line with the median.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PER_CLASS = 3


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from treehom.cli import parse_hom
    from treehom.hom import check_tetris_free

    import workloads

    times = []
    for members in workloads.branching_pool(workloads.BRANCHING_PER_CLASS).values():
        for inst in members[:PER_CLASS]:
            h = parse_hom(inst.hom_text)
            start = time.perf_counter()
            check_tetris_free(h, 3)
            times.append(time.perf_counter() - start)
    print(json.dumps({"probe": "check_tetris_free, 5-symbol source, bound 3",
                      "homs": len(times), "median_s": statistics.median(times),
                      "min_s": min(times), "max_s": max(times),
                      "roadmap_s": 0.5}))


if __name__ == "__main__":
    main()
