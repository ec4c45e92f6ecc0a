"""Host-speed calibration: a fixed reference workload timed in a run.

The benchmark's hosts are shared, and their speed drifts by up to 2x
over seconds to minutes, so the same code measures very differently
from one run to the next.  A run therefore times a *reference* between
its passes: a small cooperative scheduler with the simulator's shape —
128 carrier threads, each parked on its own semaphore, resumed one at a
time by a run loop, doing dict/list/heap work on its own state each
turn — but with none of the program's code, so a change to the program
does not move it.

The run's *speed factor* is ``(median slice / REFERENCE_S) **
ELASTICITY``; dividing a measured time by it gives *reference seconds*.
The elasticity is the log-log slope of the program's pass times on the
reference's slice times, measured on the defining host while its speed
drifted by up to 2x: 0.66-0.77 for jobs of every workload (the
reference, all hot interpreter loops, slows more than the simulator,
whose time is partly memory stalls, kernel handoffs and fsyncs that do
not scale with the CPU's speed).  With an elasticity of 1 a slow spell
would read as a faster program.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import List

from .metrics import median

#: median seconds of one :func:`reference_slice` on a quiet spell of the
#: defining host (2-vCPU x86_64 VM, Intel Xeon, Python 3.11.7, process
#: pinned to one CPU); it only sets the scale of reference seconds
REFERENCE_S = 0.092
#: share of the reference's relative slow-down the program shows
ELASTICITY = 0.7

#: carrier threads per slice, and turns each takes
CARRIERS = 128
TURNS = 8
#: loop iterations of state work per turn
WORK = 150


def _turn(state: dict, heap: List, log: List, base: int) -> None:
    for i in range(WORK):
        k = (base + i * 7919) & 255
        state[k] = state.get(k, 0) + i
        heapq.heappush(heap, (k, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        log.append((k, i))
        if len(log) > 48:
            del log[:16]


def reference_slice() -> float:
    """Seconds to run the reference scheduler once: start
    :data:`CARRIERS` carriers, resume each :data:`TURNS` times round
    robin, join them."""
    t0 = time.perf_counter()
    main = threading.Semaphore(0)
    sems = [threading.Semaphore(0) for _ in range(CARRIERS)]

    def carrier(me: int) -> None:
        state: dict = {}
        heap: List = []
        log: List = []
        for turn in range(TURNS):
            sems[me].acquire()
            _turn(state, heap, log, me * TURNS + turn)
            main.release()

    threads = [threading.Thread(target=carrier, args=(c,), daemon=True)
               for c in range(CARRIERS)]
    for t in threads:
        t.start()
    for _ in range(TURNS):
        for sem in sems:
            sem.release()
            main.acquire()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def speed_factor(slices: List[float]) -> float:
    """How much slower than a quiet spell of the defining host this run's
    host was, for the program (see the module docstring)."""
    return (median(slices) / REFERENCE_S) ** ELASTICITY
