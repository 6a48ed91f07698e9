"""Host-speed calibration: a fixed interpreter loop, timed.

The reference host's speed drifts by up to 2× within minutes while
nothing in the container changes.  A timed run therefore times this
loop before its first sweep and after each one, in as many processes at
once as the workload keeps busy, and scales its times by the loop's
mean time (``run.py``).  The loop is a small discrete-event step, heap,
dict, float and attribute work like the simulator's, and it lives here,
not in the program, so a change to the program does not move it.

    python3 sweepbench/calib.py ITERATIONS   # prints seconds
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time
from statistics import mean

#: About 2 s on the reference host when it is quiet: long enough that
#: the quarter-second swings of its CPU speed average out.
ITERATIONS = 2_600_000
TIMEOUT_S = 60.0


def spin(n: int) -> float:
    class Node:
        __slots__ = ("busy", "done")

        def __init__(self):
            self.busy = 0.0
            self.done = 0

    nodes = {i: Node() for i in range(64)}
    heap = [(0.0, i) for i in range(64)]
    t = 0.0
    for k in range(n):
        t, i = heapq.heappop(heap)
        node = nodes[i]
        dt = 1e-3 * (1 + (k * 2654435761 % 97) / 97.0)
        node.busy += dt
        node.done += 1
        heapq.heappush(heap, (t + dt, (i * 7 + k) % 64))
    return t


def measure(copies: int, n: int = ITERATIONS) -> float:
    """Mean seconds of ``spin(n)`` in ``copies`` processes run at once.
    Busy processes slow each other on the reference host (two take about
    10% longer each than one), so the copies match the workload's."""
    procs = [subprocess.Popen([sys.executable, __file__, str(n)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(copies)]
    try:
        return mean(float(p.communicate(timeout=TIMEOUT_S)[0])
                    for p in procs)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


if __name__ == "__main__":
    t0 = time.perf_counter()
    spin(int(sys.argv[1]))
    print(time.perf_counter() - t0)
