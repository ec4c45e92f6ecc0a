"""Checkpointing at the paper's process counts — ring@512, 3 checkpoints.

Tables 4-5 time checkpoints at hundreds of processes, where the
Figure-5 Checkpoint-Initiated fan-out (every rank to every other rank)
dominates the traffic: P·(P−1) envelopes per recovery line.  This point
runs ring@512 on the Lemieux model with 3 timer-initiated checkpoints,
spaced as ``measure_c3`` spaces them (0.45 × the original makespan / 3),
checks that every line commits on every rank and that the control plane
sent exactly 3·512·511 envelopes, and prints the host wall time.

Run with ``PYTHONPATH=src python -m pytest
benchmarks/bench_checkpoint_scaling.py --benchmark-only -q -s``.
"""

import time

from conftest import run_once

from repro.apps import APPS
from repro.core.ccc import run_c3, run_original
from repro.core.protocol import C3Config
from repro.harness.scaling import SCALING_APPS
from repro.mpi.timemodel import LEMIEUX

NPROCS = 512
CHECKPOINTS = 3
INTERVAL_FRACTION = 0.45


def ring(ctx):
    return APPS["ring"](ctx, **SCALING_APPS["ring"])


def checkpoint_scaling_point():
    original = run_original(ring, NPROCS, machine=LEMIEUX)
    original.raise_errors()
    interval = original.virtual_time * INTERVAL_FRACTION / CHECKPOINTS
    config = C3Config(checkpoint_interval=interval, save_to_disk=True,
                      overlap=False, max_checkpoints=CHECKPOINTS)
    t0 = time.perf_counter()
    result, stats = run_c3(ring, NPROCS, machine=LEMIEUX, config=config)
    wall = time.perf_counter() - t0
    result.raise_errors()
    return original, result, stats, wall


def test_ring_512_three_checkpoints(benchmark):
    original, result, stats, wall = run_once(benchmark,
                                             checkpoint_scaling_point)
    control = sum(result.sent_counts) - sum(original.sent_counts)
    print()
    print(f"ring@{NPROCS} lemieux, {CHECKPOINTS} checkpoints: "
          f"{control} Checkpoint-Initiated envelopes, "
          f"virtual {result.virtual_time:.6f} s, host wall {wall:.2f} s")
    assert not result.aborted
    assert all(s is not None and s.checkpoints_committed == CHECKPOINTS
               for s in stats)
    assert control == CHECKPOINTS * NPROCS * (NPROCS - 1) == 784_896
