"""Control plane: Checkpoint-Initiated messages and early-registry exchange."""

import numpy as np
import pytest

from repro.core.control import ControlPlane, TAG_CKPT_INITIATED
from repro.core.modes import ProtocolError
from repro.testutil import run


def test_announce_and_poll():
    def main(mpi):
        cp = ControlPlane(mpi.COMM_WORLD.Dup(), mpi.rank, mpi.size)
        got = []
        if mpi.rank == 0:
            cp.announce_checkpoint(1, [0, 5, 7])
            return None
        # ranks 1 and 2 receive their own count
        while not got:
            cp.poll(lambda line, src, count: got.append((line, src, count)))
        return got[0]

    result = run(3, main, wall_timeout=30)
    assert result.returns[1] == (1, 0, 5)
    assert result.returns[2] == (1, 0, 7)


def test_all_started_tracking():
    def main(mpi):
        cp = ControlPlane(mpi.COMM_WORLD.Dup(), mpi.rank, mpi.size)
        cp.announce_checkpoint(1, [0] * mpi.size)
        while not cp.all_started(1):
            cp.poll(lambda *a: None)
        assert cp.any_started(1)
        cp.forget_line(1)
        assert not cp.any_started(1)
        return True

    assert all(run(3, main, wall_timeout=30).returns)


def test_duplicate_announcement_raises():
    def main(mpi):
        cp = ControlPlane(mpi.COMM_WORLD.Dup(), mpi.rank, mpi.size)
        if mpi.rank == 0:
            # illegally announce the same line twice
            cp.announce_checkpoint(1, [0, 0])
            cp.comm.Send(np.array([1, 0], dtype=np.int64), dest=1,
                         tag=TAG_CKPT_INITIATED)
            return None
        seen = 0
        try:
            while True:
                seen += cp.poll(lambda *a: None)
        except ProtocolError:
            return "raised"

    result = run(2, main, wall_timeout=30)
    assert result.returns[1] == "raised"


def test_early_registry_exchange_routing():
    def main(mpi):
        cp = ControlPlane(mpi.COMM_WORLD.Dup(), mpi.rank, mpi.size)
        # rank 0 recorded early messages from rank 1 (tag 5) and rank 2
        # (tags 6 and 6); others recorded none
        if mpi.rank == 0:
            by_sender = {1: [(5, 0)], 2: [(6, 0), (6, 0)]}
        else:
            by_sender = {}
        return sorted(cp.exchange_early_registries(by_sender))

    result = run(3, main, wall_timeout=30)
    assert result.returns[0] == []
    assert result.returns[1] == [(0, 5, 0)]          # suppress send to rank 0
    assert result.returns[2] == [(0, 6, 0), (0, 6, 0)]


def test_exchange_with_no_entries_everywhere():
    def main(mpi):
        cp = ControlPlane(mpi.COMM_WORLD.Dup(), mpi.rank, mpi.size)
        return cp.exchange_early_registries({})

    result = run(4, main, wall_timeout=30)
    assert all(r == [] for r in result.returns)


def test_initiated_is_pruned_once_a_line_commits(monkeypatch):
    """``commit_checkpoint`` forgets the committed line, so the
    per-line announcement table holds at most the open line and the
    next one, however many checkpoints the job takes."""
    from repro.apps import APPS
    from repro.core import C3Config, run_c3, run_original
    from repro.harness.scaling import SCALING_APPS
    from repro.mpi.timemodel import LEMIEUX

    def ring(ctx):
        return APPS["ring"](ctx, **SCALING_APPS["ring"])

    makespan = run_original(ring, 8, machine=LEMIEUX).virtual_time
    peak = {}
    poll = ControlPlane.poll

    def recording_poll(self, on_initiated):
        n = poll(self, on_initiated)
        peak[self.rank] = max(peak.get(self.rank, 0), len(self.initiated))
        return n

    monkeypatch.setattr(ControlPlane, "poll", recording_poll)
    config = C3Config(checkpoint_interval=makespan * 0.45 / 5,
                      save_to_disk=True, overlap=False, max_checkpoints=5)
    result, stats = run_c3(ring, 8, machine=LEMIEUX, config=config)
    result.raise_errors()
    assert [s.checkpoints_committed for s in stats] == [5] * 8
    assert sorted(peak) == list(range(8))
    assert max(peak.values()) <= 2
