"""Cooperative scheduler: paper-scale smoke, backend equivalence,
instant deadlock detection, spin fairness, and backend selection."""

import numpy as np
import pytest

from repro.core.ccc import run_original
from repro.apps import heat, ring
from repro.mpi import FaultPlan, FaultSpec, SUM, TESTING, run_job
from repro.mpi.engine import resolve_backend


class TestBackendSelection:
    def test_default_is_cooperative(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_backend(None) == "cooperative"

    def test_aliases(self):
        assert resolve_backend("coop") == "cooperative"
        assert resolve_backend("COOPERATIVE") == "cooperative"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            run_job(2, lambda mpi: mpi.rank, engine="fibers")

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "sharded:2")
        assert resolve_backend(None) == "sharded:2"
        # explicit argument beats the environment
        assert resolve_backend("cooperative") == "cooperative"

    def test_retired_threads_spellings_rejected(self, monkeypatch):
        """The thread-per-rank backend is gone: its spellings fail like
        any unknown name, in the registry and at service submission."""
        from repro.mpi.backends import engine_choices
        from repro.service import JobSpec

        assert engine_choices() == ["cooperative", "sharded", "processes"]
        for spelling in ("threads", "threaded", "thread", "THREADS"):
            with pytest.raises(ValueError, match="unknown engine backend"):
                resolve_backend(spelling)
            with pytest.raises(ValueError, match="unknown engine backend"):
                JobSpec(app="ring", engine=spelling)
        monkeypatch.setenv("REPRO_ENGINE", "threads")
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend(None)


class TestPaperScaleSmoke:
    """The tentpole: jobs at the paper's true process counts."""

    def test_ring_256_ranks(self):
        result = run_original(ring, 256, app_args=(),
                              machine=TESTING, wall_timeout=120)
        result.raise_errors()
        assert result.failure is None
        assert len(result.returns) == 256
        # every rank returns the same global checksum structure
        assert len({str(r) for r in result.returns}) >= 1
        assert all(c > 0 for c in result.clocks)

    def test_heat_halo_256_ranks(self):
        def app(ctx):
            return heat(ctx, local_n=8, niter=4)

        result = run_original(app, 256, machine=TESTING, wall_timeout=120)
        result.raise_errors()
        assert result.failure is None
        assert len(result.returns) == 256

    def test_fault_injection_at_scale(self):
        """A mid-run kill at 64 ranks: victim dies, every peer unwinds."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            x = np.zeros(1)
            for _ in range(50):
                mpi.compute(1e-3)
                comm.Allreduce(np.array([1.0]), x, SUM)
            return float(x[0])

        plan = FaultPlan([FaultSpec(rank=33, at_time=0.02)])
        result = run_job(64, main, fault_plan=plan, wall_timeout=60,
                         engine="cooperative")
        assert result.failure is not None
        assert result.failure.rank == 33
        assert not result.errors

    def test_runs_are_bit_reproducible(self):
        """Determinism: two cooperative runs agree on every observable."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            buf = np.zeros(4)
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            comm.Send(np.full(4, float(mpi.rank)), dest=right, tag=1)
            comm.Recv(buf, source=left, tag=mpi.ANY_TAG)
            out = np.zeros(1)
            comm.Allreduce(np.array([buf.sum()]), out, SUM)
            return float(out[0])

        a = run_job(32, main, wall_timeout=60, engine="cooperative")
        b = run_job(32, main, wall_timeout=60, engine="cooperative")
        assert a.returns == b.returns
        assert a.clocks == b.clocks
        assert a.sent_counts == b.sent_counts


def _wildcard_kernel(mpi):
    """Seeded, wildcard-heavy, schedule-independent kernel.

    Wildcards are exercised two ways that keep matching deterministic
    under any schedule, so every backend must produce bit-identical
    results:

    * ``ANY_TAG`` receives from a *specific* source — the overflow
      (wildcard) list arbitration runs, but per-source FIFO pins the
      match order;
    * ``ANY_SOURCE`` receives with the senders serialized by barriers —
      one sender has in-flight traffic at a time.
    """
    comm = mpi.COMM_WORLD
    rank, size = mpi.rank, mpi.size
    rng = np.random.default_rng(1234 + rank)
    right, left = (rank + 1) % size, (rank - 1) % size
    K = 4

    # phase 1: ANY_TAG wildcards from a pinned source
    bufs = [np.empty(8) for _ in range(K)]
    reqs = [comm.Irecv(bufs[i], source=left, tag=mpi.ANY_TAG)
            for i in range(K)]
    for i in range(K):
        comm.Send(rng.standard_normal(8), dest=right, tag=10 + i)
    statuses = mpi.Waitall(reqs)
    tags = [st.tag for st in statuses]
    total = float(sum(b.sum() for b in bufs))

    # phase 2: ANY_SOURCE wildcards, senders serialized by barriers
    recv_sum = 0.0
    for sender in range(size):
        comm.Barrier()
        if rank == sender:
            for i in range(2):
                comm.Send(np.full(4, float(sender + i)),
                          dest=(sender + 1) % size, tag=77)
        elif rank == (sender + 1) % size:
            for _ in range(2):
                buf = np.zeros(4)
                comm.Recv(buf, source=mpi.ANY_SOURCE, tag=77)
                recv_sum += float(buf.sum())
    out = np.zeros(1)
    comm.Allreduce(np.array([total + recv_sum]), out, SUM)
    return (tags, float(out[0]), mpi.Wtime())


class TestBackendEquivalence:
    """Cooperative and sharded must agree bit-for-bit on deterministic
    kernels: the wildcard ordering is pinned by the program, not by
    which scheduler (or how many) runs the ranks."""

    @pytest.mark.parametrize("nprocs", [2, 8])
    def test_wildcard_kernel_jobresult_equivalence(self, nprocs):
        coop = run_job(nprocs, _wildcard_kernel, wall_timeout=60,
                       engine="cooperative")
        shard = run_job(nprocs, _wildcard_kernel, wall_timeout=60,
                        engine="sharded:2")
        coop.raise_errors()
        shard.raise_errors()
        assert coop.returns == shard.returns
        assert coop.clocks == shard.clocks        # bitwise virtual times
        assert coop.sent_counts == shard.sent_counts
        assert coop.sent_bytes == shard.sent_bytes


class TestInstantDeadlockDetection:
    def test_all_blocked_detected_without_waiting_for_watchdog(self):
        """Every rank blocked + no predicate true => immediate
        DeadlockError, not a 60s wall-clock watchdog wait."""
        def main(mpi):
            mpi.COMM_WORLD.Recv(np.zeros(1), source=(mpi.rank + 1) % mpi.size,
                                tag=9)

        result = run_job(4, main, wall_timeout=60, engine="cooperative")
        assert result.errors
        assert "deadlock" in result.errors[0][1].lower()
        assert result.wall_seconds < 5.0   # instant, not watchdog-paced

    def test_deadlock_message_names_blocked_ranks(self):
        def main(mpi):
            if mpi.rank == 0:
                mpi.COMM_WORLD.Recv(np.zeros(1), source=1, tag=1)
            return "done"

        result = run_job(2, main, wall_timeout=60, engine="cooperative")
        assert result.errors
        assert "blocked ranks: [0]" in result.errors[0][1]

    def test_partial_block_is_not_deadlock(self):
        """A blocked rank whose peer is still computing must not trip
        the instant detector."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.zeros(1)
                comm.Recv(buf, source=1, tag=3)
                return float(buf[0])
            mpi.compute(5.0)
            comm.Send(np.array([42.0]), dest=0, tag=3)
            return 42.0

        result = run_job(2, main, wall_timeout=60, engine="cooperative")
        result.raise_errors()
        assert result.returns == [42.0, 42.0]


class TestSpinFairness:
    def test_test_spin_loop_cannot_starve_sender(self):
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.zeros(2)
                req = comm.Irecv(buf, source=1, tag=5)
                spins = 0
                while True:
                    done, _st = mpi.Test(req)
                    if done:
                        break
                    spins += 1
                    assert spins < 1_000_000, "Test spin starved the sender"
                return float(buf.sum())
            mpi.compute(1e-3)
            comm.Send(np.array([1.0, 2.0]), dest=0, tag=5)
            return 3.0

        result = run_job(2, main, wall_timeout=30, engine="cooperative")
        result.raise_errors()
        assert result.returns == [3.0, 3.0]

    def test_iprobe_spin_loop_cannot_starve_sender(self):
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                spins = 0
                while True:
                    flag, st = comm.Iprobe(source=mpi.ANY_SOURCE, tag=6)
                    if flag:
                        break
                    spins += 1
                    assert spins < 1_000_000
                buf = np.zeros(1)
                comm.Recv(buf, source=st.source, tag=6)
                return float(buf[0])
            mpi.compute(1e-3)
            comm.Send(np.array([7.0]), dest=0, tag=6)
            return 7.0

        result = run_job(2, main, wall_timeout=30, engine="cooperative")
        result.raise_errors()
        assert result.returns == [7.0, 7.0]

    def test_abort_unwinds_spinning_rank(self):
        """A rank spinning on Test observes a peer's error abort through
        the nb_poll observation point and unwinds."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 1:
                raise ValueError("boom")
            req = comm.Irecv(np.zeros(1), source=1, tag=0)
            while True:
                done, _ = mpi.Test(req)
                assert not done

        result = run_job(2, main, wall_timeout=30, engine="cooperative")
        assert result.errors and result.errors[0][0] == 1
        assert result.wall_seconds < 10.0


class TestSchedulerInternals:
    def test_scheduler_runs_lock_free_mailboxes(self):
        """Cooperative runs bind every mailbox to the scheduler."""
        from repro.mpi.engine import Engine

        eng = Engine(3, engine="cooperative")
        eng.run(lambda mpi: mpi.rank)
        assert eng.backend == "cooperative"
        assert eng.scheduler is not None
        assert eng.scheduler.switches > 0
        for mb in eng.mailboxes:
            assert mb._sched is eng.scheduler
