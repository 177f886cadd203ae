"""Run one CLI op in a forked child under an address-space cap and a time cap.

The child inherits the parent's imported, warmed-up package, calls
``treehom.cli.main(argv)`` with stdout captured, writes the captured text to
a file, and sends a small pickled record back through a pipe.  The parent
reads the child's peak RSS from ``wait4``, so it is known for killed children
too.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import pickle
import resource
import select
import signal
import time
from dataclasses import dataclass


@dataclass
class Result:
    ok: bool  # the call returned an exit code (its output is still unchecked)
    error: str | None  # exception type, "killed:<signal>", "time-cap" or "no-result"
    exit_code: int | None
    seconds: float  # the main() call alone, measured in the child
    peak_rss_kb: int
    out_path: str
    trace: object = None  # what the child's tracer returned


def _child(argv, mem_cap, time_cap, out_path, wfd, tracer):
    import treehom.cli as cli

    # Objects inherited from the parent are not the op's: keep the cyclic
    # collector off them, so the op's time does not depend on the parent heap.
    gc.freeze()
    resource.setrlimit(resource.RLIMIT_AS, (mem_cap, mem_cap))
    # Backstop for a child whose parent died before it could enforce the cap.
    cpu_cap = int(time_cap) + 10
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_cap, cpu_cap))
    if tracer is not None:
        tracer.install()
    buf = io.StringIO()
    error, code = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except BaseException as err:  # the op failed; record which way and report it
        error = type(err).__name__
    seconds = time.perf_counter() - start
    trace = tracer.finish(start, start + seconds) if tracer is not None else None
    text = buf.getvalue()
    buf = None
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(text)
    payload = pickle.dumps((error, code, seconds, trace))
    with os.fdopen(wfd, "wb") as w:
        w.write(payload)


class _Node:
    __slots__ = ("label", "kids", "hash")

    def __init__(self, label, kids):
        self.label = label
        self.kids = kids
        self.hash = hash((label, kids))

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.label == other.label and self.kids == other.kids


def _text(t) -> str:
    return t.label if not t.kids else f"{t.label}({','.join(_text(k) for k in t.kids)})"


def reference_work() -> int:
    """Fixed work of the same kind as the package's, and independent of it:
    build every tree of height <= 3 over {a, b, g/1, m/2}, dedupe them in a
    dict and group them by the length of their text."""
    trees = [_Node("a", ()), _Node("b", ())]
    for _ in range(3):
        grown = [_Node("g", (t,)) for t in trees]
        grown += [_Node("m", (x, y)) for x in trees for y in trees]
        trees = list(dict.fromkeys(trees + grown))
    groups: dict = {}
    for t in trees:
        groups.setdefault(len(_text(t)), []).append(t)
    return len(groups)


def reference_seconds() -> float:
    """Time ``reference_work`` in a forked child, like an op, and return it.
    Machine speed drifts under other load; op times are scaled by it."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            gc.freeze()
            start = time.perf_counter()
            reference_work()
            with os.fdopen(wfd, "wb") as w:
                w.write(pickle.dumps(time.perf_counter() - start))
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as r:
        data = r.read()
    os.waitpid(pid, 0)
    return pickle.loads(data)


def run_op(argv, mem_cap: int, time_cap: float, out_path: str, tracer=None) -> Result:
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            _child(argv, mem_cap, time_cap, out_path, wfd, tracer)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + time_cap
    timed_out = False
    with os.fdopen(rfd, "rb") as r:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    peak = usage.ru_maxrss
    if timed_out:
        return Result(False, "time-cap", None, time_cap, peak, out_path)
    if os.WIFSIGNALED(status):
        name = signal.Signals(os.WTERMSIG(status)).name
        return Result(False, f"killed:{name}", None, 0.0, peak, out_path)
    if not chunks:
        return Result(False, "no-result", None, 0.0, peak, out_path)
    # Bytes written by this program's own child, so unpickling them is safe.
    error, code, seconds, trace = pickle.loads(b"".join(chunks))
    return Result(error is None, error, code, seconds, peak, out_path, trace)
