"""The fused dense point-to-point branch against the layered chain it
replaced.

A dense send or receive — an exact ``np.ndarray`` buffer, at least 1-d,
C-contiguous, with a named dtype, an exact peer and tag — goes pack ->
post -> match -> deliver in one pass (``Communicator._send``/``_post``,
``_post_dense``/``_complete_dense``, the collective internals' ``_send``/
``_recv``/``_recv_all``/``_exchange``), the C3 layer accounts a native
collective's streams in one batch, and the scheduler hands the runner
from fiber to fiber without a central loop.

The layered chain lives on only here, as the oracle: ``Send`` ->
``send_packed`` -> ``post_envelope`` -> ``Mailbox.deliver`` and ``Irecv``
-> ``Mailbox.post`` -> ``Request.wait`` -> ``_finish`` ->
``_deliver_to_buffer`` -> ``Datatype.unpack``, the per-stream C3
accounting, and the run-loop scheduler with its two semaphore operations
per switch.  Every job below runs once with each, and everything it
reports must be bitwise equal: clocks, returns, traffic counts, fiber
switches, per-mailbox delivery counts, every ``C3Stats`` field, and
where an injected fault lands.
"""

import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import fields

import numpy as np
import pytest

import repro.core.collectives as c3coll
import repro.mpi.collectives as coll
import repro.mpi.engine as engine_mod
from repro.apps import APPS
from repro.core import C3Config, run_c3
from repro.core.ccc import _original_main
from repro.core.collectives import _parse_header, _stream_account, _unpack_into
from repro.core.modes import ProtocolError
from repro.core.protocol import COLL_TAG, C3Protocol
from repro.harness.campaign import CAMPAIGN_PARAMS
from repro.mpi import FaultPlan, FaultSpec, run_job
from repro.mpi.communicator import PROC_NULL, TAG_UB, Communicator
from repro.mpi.datatypes import from_numpy_dtype
from repro.mpi.engine import Engine
from repro.mpi.matching import ANY_SOURCE, ANY_TAG
from repro.mpi.message import Envelope, MessageSignature
from repro.mpi.requests import Request, wait_all
from repro.mpi.scheduler import CooperativeScheduler, RankTask
from repro.mpi.status import Status
from repro.mpi.timemodel import LEMIEUX


# -- the oracle: the layered send/receive chain ----------------------------------

def _old_post_envelope(ctx, env):
    extra = 0.0
    if env.piggyback is not None:
        pb_bytes = getattr(env.piggyback, "nbytes", ctx.machine.piggyback_bytes)
        extra = (pb_bytes / ctx.machine.bandwidth
                 + ctx.machine.piggyback_overhead)
    env.send_time = ctx.clock.now
    env.avail_time = (ctx.clock.now
                      + ctx.machine.transfer_time(env.nbytes) + extra)
    key = (env.dest, env.context_id)
    env.seq = ctx.send_seq.get(key, 0)
    ctx.send_seq[key] = env.seq + 1
    ctx.sent_count += 1
    ctx.sent_bytes += env.nbytes
    ctx.engine.mailboxes[env.dest].deliver(env)


def _old_send_packed(self, payload, dest, tag, count=0, type_name="MPI_BYTE",
                     piggyback=None, context_id=None, system=False):
    self._check()
    if dest == PROC_NULL:
        return
    ctx = self._ctx
    ctx.enter_mpi_call()
    cid = self.context_id if context_id is None else context_id
    sig = MessageSignature(source=self.rank, tag=tag, context_id=cid)
    env = Envelope(signature=sig, payload=payload, count=count,
                   type_name=type_name, dest=self._world_rank(dest),
                   piggyback=piggyback, system=system)
    _old_post_envelope(ctx, env)


def _old_Send(self, buf, dest, tag=0, datatype=None, count=None,
              piggyback=None):
    self._check()
    if dest == PROC_NULL:
        return
    self._check_tag(tag)
    dt = self._resolve_type(buf, datatype)
    n = count if count is not None else (
        buf.size if isinstance(buf, np.ndarray) else 1)
    payload = dt.pack(buf, n)
    self.send_packed(payload, dest, tag, count=n, type_name=dt.name,
                     piggyback=piggyback)


def _old_Isend(self, buf, dest, tag=0, datatype=None, count=None,
               piggyback=None):
    self.Send(buf, dest, tag, datatype=datatype, count=count,
              piggyback=piggyback)
    n = count if count is not None else (
        buf.size if isinstance(buf, np.ndarray) else 1)
    return Request(Request.SEND, self._ctx, buffer=buf, count=n)


def _old_Recv(self, buf, source=ANY_SOURCE, tag=ANY_TAG, datatype=None,
              status=None):
    req = self.Irecv(buf, source=source, tag=tag, datatype=datatype)
    st = req.wait()
    if status is not None:
        status.__dict__.update(st.__dict__)
    return st


def _old_Sendrecv(self, sendbuf, dest, sendtag, recvbuf, source, recvtag,
                  status=None):
    rreq = self.Irecv(recvbuf, source=source, tag=recvtag)
    self.Send(sendbuf, dest, sendtag)
    st = rreq.wait()
    if status is not None:
        status.__dict__.update(st.__dict__)
    return st


def _old_deliver_to_buffer(self):
    if self.kind == Request.SEND:
        return Status(source=self._rank_ctx.rank, tag=0, count=self.count)
    env = self.envelope
    if not self._delivered:
        if self.buffer is not None and self.datatype is not None:
            elems = (env.nbytes // self.datatype.size
                     if self.datatype.size else 0)
            self.datatype.unpack(env.payload, self.buffer, count=elems)
        self._delivered = True
    elems = ((env.nbytes // self.datatype.size)
             if (self.datatype and self.datatype.size) else env.count)
    return Status(source=env.source, tag=env.tag, count=elems,
                  nbytes=env.nbytes)


def _old_coll_send(comm, buf, dest, tag):
    comm._ctx.collective_fault_point()
    dt = from_numpy_dtype(buf.dtype)
    payload = dt.pack(buf, buf.size)
    comm.send_packed(payload, dest, tag, count=buf.size, type_name=dt.name,
                     context_id=comm.shadow_id, system=True)


def _old_coll_recv(comm, buf, source, tag):
    comm._ctx.collective_fault_point()
    req = comm.Irecv(buf, source=source, tag=tag, context_id=comm.shadow_id)
    req.wait()


def _old_recv_all(comm, bufs_by_source, tag):
    comm._ctx.collective_fault_point()
    reqs = [comm.Irecv(buf, source=source, tag=tag, context_id=comm.shadow_id)
            for source, buf in bufs_by_source]
    wait_all(reqs)


def _old_alltoall(comm, sendbuf, recvbuf):
    size, rank = comm.size, comm.rank
    sp = sendbuf.reshape(size, -1)
    rp = recvbuf.reshape(size, -1)
    rp[rank, :] = sp[rank]
    tag = coll._next_tag(comm)
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        req = comm.Irecv(rp[src], source=src, tag=tag,
                         context_id=comm.shadow_id)
        coll._send(comm, np.ascontiguousarray(sp[dest]), dest, tag)
        req.wait()


def _old_alltoallv(comm, sendbuf, sendcounts, recvbuf, recvcounts):
    size, rank = comm.size, comm.rank
    sflat = sendbuf.reshape(-1)
    rflat = recvbuf.reshape(-1)
    soff = np.concatenate([[0], np.cumsum(np.asarray(sendcounts))]).astype(int)
    roff = np.concatenate([[0], np.cumsum(np.asarray(recvcounts))]).astype(int)
    rflat[roff[rank]:roff[rank + 1]] = sflat[soff[rank]:soff[rank + 1]]
    tag = coll._next_tag(comm)
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        req = comm.Irecv(rflat[roff[src]:roff[src + 1]], source=src, tag=tag,
                         context_id=comm.shadow_id)
        coll._send(comm, np.ascontiguousarray(
            sflat[soff[dest]:soff[dest + 1]]), dest, tag)
        req.wait()


def _old_streams_sent(p, centry, dests):
    for dest in dests:
        p.counters.on_send(centry.raw.group.translate(dest))
        m = p.machine
        p.mpi.compute(m.coll_stream_overhead + p.codec.nbytes / m.bandwidth)


def _old_streams_received(p, centry, wire, out, own):
    raw = centry.raw
    for src in range(raw.size):
        if src == raw.rank:
            _unpack_into(own, out[src])
            continue
        sender_epoch, stopped, payload = _parse_header(p, wire[src].tobytes())
        _stream_account(p, centry, src, sender_epoch, stopped, payload)
        _unpack_into(payload, out[src])


def _old_c3_send(self, centry, buf, dest, tag=0, datatype=None, count=None,
                 _internal_tag=False):
    self._charge()
    self._poll_control()
    if tag == COLL_TAG and not _internal_tag:
        raise ProtocolError(f"tag {COLL_TAG} is reserved for the C3 layer")
    dtype = self._resolve_dtype(buf, datatype)
    n = count if count is not None else (
        buf.size if isinstance(buf, np.ndarray) else 1)
    payload = dtype.pack(buf, n)
    self._send_payload(centry, payload, dest, tag, n, dtype.name)


class _RunLoopScheduler(CooperativeScheduler):
    """The scheduler before direct handoff: a central run loop on the
    launching thread, and a round trip through two semaphores per fiber
    switch.  The wait/yield entry points and the hooks are shared."""

    def __init__(self, engine, ranks=None):
        super().__init__(engine, ranks)
        self._main = threading.Semaphore(0)
        self._sems = {}

    def _park(self, task, state):
        task.state = state
        self._main.release()
        self._sems[task.rank].acquire()
        task.state = "running"

    def _start_carriers(self, body):
        def carrier(task):
            self._sems[task.rank].acquire()
            task.state = "running"
            try:
                body(task.rank)
            finally:
                task.state = "done"
                self._main.release()

        for task in self._tasks:
            self._sems[task.rank] = threading.Semaphore(0)
            task.thread = threading.Thread(target=carrier, args=(task,),
                                           daemon=True)
            task.thread.start()

    def run(self, body, deadline, errors):
        engine = self.engine
        ranks = self.ranks if self.ranks is not None else range(engine.nprocs)
        self._tasks = [RankTask(r) for r in ranks]
        runnable = deque(self._tasks)
        blocked = self._blocked
        abort = engine.abort_event
        self._start_carriers(body)
        live = len(self._tasks)
        idle_spins = 0
        while live:
            if abort.is_set() or time.monotonic() > deadline:
                for r in sorted(blocked):
                    runnable.append(blocked.pop(r))
                self._dirty.clear()
            elif self._dirty:
                wake = self._dirty & blocked.keys()
                self._dirty.clear()
                contexts = engine.rank_contexts
                for r in sorted(wake):
                    task = blocked[r]
                    if task.predicate() or contexts[r].has_due_fault:
                        del blocked[r]
                        runnable.append(task)
            if not runnable:
                if self._on_quiescent():
                    continue
                self.deadlocked = True
                if not self._deadlock_ranks:
                    self._deadlock_ranks = sorted(blocked)
                for r in sorted(blocked):
                    runnable.append(blocked.pop(r))
                continue
            task = runnable.popleft()
            self._current = task
            self.switches += 1
            self._sems[task.rank].release()
            self._main.acquire()
            if task.state == "done":
                live -= 1
                idle_spins = 0
            elif task.state == "blocked":
                blocked[task.rank] = task
                idle_spins += 1
            else:
                runnable.append(task)
                idle_spins += 1
            if self._dirty:
                idle_spins = 0
            elif idle_spins >= self.SPIN_HOOK_EVERY:
                idle_spins = 0
                self._on_idle_spin()


def _install_oracle(m):
    m.setattr(Communicator, "send_packed", _old_send_packed)
    m.setattr(Communicator, "Send", _old_Send)
    m.setattr(Communicator, "Isend", _old_Isend)
    m.setattr(Communicator, "Recv", _old_Recv)
    m.setattr(Communicator, "Sendrecv", _old_Sendrecv)
    m.setattr(Request, "_deliver_to_buffer", _old_deliver_to_buffer)
    m.setattr(coll, "_send", _old_coll_send)
    m.setattr(coll, "_recv", _old_coll_recv)
    m.setattr(coll, "_recv_all", _old_recv_all)
    m.setattr(coll, "alltoall", _old_alltoall)
    m.setattr(coll, "alltoallv", _old_alltoallv)
    m.setattr(c3coll, "_streams_sent", _old_streams_sent)
    m.setattr(c3coll, "_streams_received", _old_streams_received)
    m.setattr(C3Protocol, "send", _old_c3_send)
    m.setattr(engine_mod, "CooperativeScheduler", _RunLoopScheduler)


# -- running a job ---------------------------------------------------------------

def _app(name):
    params = CAMPAIGN_PARAMS[name]

    def main(ctx):
        return APPS[name](ctx, **params)

    return main


def _checkpointing(app, nprocs):
    """C3 with three timer-initiated checkpoints, spaced like
    ``measure_c3``: 0.45 x the original makespan / 3."""
    original = run_job(nprocs, _original_main, args=(_app(app), ()),
                       machine=LEMIEUX)
    original.raise_errors()
    return C3Config(checkpoint_interval=original.virtual_time * 0.15,
                    save_to_disk=True, overlap=False, max_checkpoints=3)


def _outcome(monkeypatch, app, nprocs, mode, engine="cooperative",
             faults=None, config=None):
    """Everything a job reports, in comparable form.

    ``faults`` builds the job's fault plan; specs remember having fired,
    so every run needs fresh ones.
    """
    engines = []
    run = Engine.run

    def recording_run(self, *args, **kw):
        engines.append(self)
        return run(self, *args, **kw)

    plan = faults() if faults else None
    with monkeypatch.context() as m:
        m.setattr(Engine, "run", recording_run)
        if mode == "c3":
            result, stats = run_c3(_app(app), nprocs, machine=LEMIEUX,
                                   config=config or C3Config(),
                                   fault_plan=plan, engine=engine)
        else:
            result = run_job(nprocs, _original_main, args=(_app(app), ()),
                             machine=LEMIEUX, fault_plan=plan, engine=engine)
            stats = []
    (eng,) = engines
    failure = result.failure
    return {
        "clocks": result.clocks,
        "returns": result.returns,
        "sent_counts": result.sent_counts,
        "sent_bytes": result.sent_bytes,
        "errors": result.errors,
        "failure": None if failure is None else (failure.rank, failure.time,
                                                 failure.reason),
        "stats": [None if s is None else
                  {f.name: getattr(s, f.name) for f in fields(s)}
                  for s in stats],
        "switches": None if eng.scheduler is None else eng.scheduler.switches,
        # sharded workers deliver into their own copies of the mailboxes
        "delivered": [(mb.delivered_count, mb.delivered_bytes)
                      for mb in eng.mailboxes],
    }


def _differential(monkeypatch, app, nprocs, mode, **kw):
    fused = _outcome(monkeypatch, app, nprocs, mode, **kw)
    with monkeypatch.context() as m:
        _install_oracle(m)
        oracle = _outcome(monkeypatch, app, nprocs, mode, **kw)
    assert fused.keys() == oracle.keys()
    for key in fused:
        assert fused[key] == oracle[key], key
    return fused


# -- fault-free jobs ----------------------------------------------------------------

CELLS = [("ring", 64), ("heat", 32), ("CG", 16), ("LU", 16), ("MG", 8),
         ("IS", 8), ("FT", 4)]
#: checkpoints exercise the counters the stream accounting feeds
CHECKPOINT_CELLS = [("ring", 16), ("heat", 8), ("CG", 8), ("LU", 4),
                    ("MG", 8), ("IS", 4), ("FT", 4)]


@pytest.mark.parametrize("app,nprocs,mode", [
    (app, n, mode) for app, n in CELLS for mode in ("original", "c3")
] + [(app, n, "c3+checkpoints") for app, n in CHECKPOINT_CELLS])
def test_bitwise_equal_to_layered_chain(monkeypatch, app, nprocs, mode):
    config = None
    if mode == "c3+checkpoints":
        mode, config = "c3", _checkpointing(app, nprocs)
    out = _differential(monkeypatch, app, nprocs, mode, config=config)
    assert out["failure"] is None and not out["errors"]
    assert sum(out["sent_counts"]) > 0
    if mode == "original":
        # every envelope sent was delivered into some mailbox
        assert sum(c for c, _b in out["delivered"]) == sum(out["sent_counts"])
    if config is not None:
        assert all(s["checkpoints_committed"] >= 1 for s in out["stats"])


@pytest.mark.parametrize("mode", ["original", "c3"])
@pytest.mark.parametrize("app,nprocs", [("ring", 16), ("CG", 8), ("FT", 8)])
def test_bitwise_equal_under_sharded_engine(monkeypatch, app, nprocs, mode):
    out = _differential(monkeypatch, app, nprocs, mode, engine="sharded:2")
    assert out["failure"] is None and not out["errors"]


def test_threads_engine_still_runs_the_fused_branch(monkeypatch):
    out = _differential(monkeypatch, "heat", 8, "original", engine="threads")
    assert out["failure"] is None and not out["errors"]
    assert out["switches"] is None


# -- faults ------------------------------------------------------------------------

VICTIM = 3


def _op_before(monkeypatch, app, nprocs, patch, k):
    """The victim's op count on entry to the ``k``-th call of ``patch``
    (a (namespace, name) pair whose first argument leads to the rank)."""
    owner, name = patch
    original = getattr(owner, name)
    seen = []

    def recording(first, *args, **kw):
        ctx = first._ctx
        if ctx.rank == VICTIM:
            seen.append(ctx.op_count)
        return original(first, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(owner, name, recording)
        run_job(nprocs, _original_main, args=(_app(app), ()),
                machine=LEMIEUX)
    return seen[k]


def test_kill_lands_on_a_collective_internal_send(monkeypatch):
    op = _op_before(monkeypatch, "CG", 8, (coll, "_send"), 5)
    out = _differential(monkeypatch, "CG", 8, "original",
                        faults=lambda: FaultPlan([FaultSpec(
                            rank=VICTIM, after_ops=op + 1)]))
    assert out["failure"][0] == VICTIM


def test_kill_lands_on_a_point_to_point_receive(monkeypatch):
    op = _op_before(monkeypatch, "ring", 8, (Communicator, "Recv"), 3)
    out = _differential(monkeypatch, "ring", 8, "original",
                        faults=lambda: FaultPlan([FaultSpec(
                            rank=VICTIM, after_ops=op + 1)]))
    assert out["failure"][0] == VICTIM


def test_in_collective_fault(monkeypatch):
    out = _differential(monkeypatch, "CG", 8, "c3",
                        faults=lambda: FaultPlan([FaultSpec(
                            rank=VICTIM, in_collective=4)]))
    assert out["failure"][0] == VICTIM


def test_probability_fault_consumes_rng_in_the_same_order(monkeypatch):
    out = _differential(monkeypatch, "heat", 8, "original",
                        faults=lambda: FaultPlan(
                            [FaultSpec(rank=r, probability=0.01)
                             for r in (2, 5)], seed=4))
    # seed 4 fires on rank 5 in the second half of its run
    assert out["failure"][0] == 5


def test_at_time_fault(monkeypatch):
    makespan = max(_outcome(monkeypatch, "ring", 8, "c3")["clocks"])
    out = _differential(monkeypatch, "ring", 8, "c3",
                        faults=lambda: FaultPlan([FaultSpec(
                            rank=VICTIM, at_time=0.5 * makespan)]))
    assert out["failure"][0] == VICTIM


# -- error parity -----------------------------------------------------------------

def _exchange_errors(monkeypatch, body, nprocs=2):
    """Run ``body(mpi)`` on every rank, new code and oracle; each rank
    reports the class of the first exception its body raised, with its
    op count and clock at that point."""
    def main(mpi):
        try:
            body(mpi)
        except Exception as exc:  # noqa: BLE001 - the error is the result
            return type(exc).__name__, mpi._ctx.op_count, mpi._ctx.clock.now
        return None, mpi._ctx.op_count, mpi._ctx.clock.now

    fused = run_job(nprocs, main, machine=LEMIEUX)
    with monkeypatch.context() as m:
        _install_oracle(m)
        oracle = run_job(nprocs, main, machine=LEMIEUX)
    assert fused.returns == oracle.returns
    assert fused.clocks == oracle.clocks
    assert fused.sent_counts == oracle.sent_counts
    assert [r for r, _ in fused.errors] == [r for r, _ in oracle.errors]
    return fused.returns


def _pair(send, recv):
    """Rank 0 runs ``send(comm)``, rank 1 ``recv(comm)``."""
    def body(mpi):
        comm = mpi.COMM_WORLD
        (send if mpi.rank == 0 else recv)(comm)
    return body


def _noop(comm):
    pass


def _send8(comm):
    comm.Send(np.arange(8.0), dest=1, tag=5)


ERROR_CASES = {
    # the receive is posted after the message arrived: raised at posting
    "truncation-pending": (
        _pair(_send8, lambda c: c.Recv(np.zeros(4), source=0, tag=5)),
        ("TruncationError", 1)),
    # posted first: the sender's delivery raises, the receiver deadlocks
    "truncation-posted": (
        _pair(lambda c: (c.Recv(np.zeros(4), source=1, tag=5)),
              lambda c: c.Send(np.arange(8.0), dest=0, tag=5)),
        ("TruncationError", 1)),
    "noncontiguous-send": (
        _pair(lambda c: c.Send(np.arange(16.0)[::2], dest=1, tag=5), _noop),
        ("InvalidDatatypeError", 0)),
    "noncontiguous-recv": (
        _pair(_send8, lambda c: c.Recv(np.zeros(16)[::2], source=0, tag=5)),
        ("InvalidDatatypeError", 1)),
    "rank-send": (
        _pair(lambda c: c.Send(np.zeros(2), dest=2, tag=5), _noop),
        ("InvalidRankError", 0)),
    "rank-recv": (
        _pair(_noop, lambda c: c.Recv(np.zeros(2), source=2, tag=5)),
        ("InvalidRankError", 1)),
    "rank-sendrecv": (
        _pair(lambda c: c.Sendrecv(np.zeros(2), 1, 5, np.zeros(2), 7, 5),
              _noop),
        ("InvalidRankError", 0)),
    "tag-send": (
        _pair(lambda c: c.Send(np.zeros(2), dest=1, tag=TAG_UB), _noop),
        ("InvalidTagError", 0)),
    "tag-recv": (
        _pair(_noop, lambda c: c.Recv(np.zeros(2), source=0, tag=TAG_UB)),
        ("InvalidTagError", 1)),
    "dtype-send": (
        _pair(lambda c: c.Send(np.zeros(2, np.float16), dest=1, tag=5),
              _noop),
        ("InvalidDatatypeError", 0)),
    "dtype-recv": (
        _pair(_noop, lambda c: c.Recv(np.zeros(2, np.float16), source=0,
                                      tag=5)),
        ("InvalidDatatypeError", 1)),
    "noncontiguous-bcast": (
        lambda mpi: mpi.COMM_WORLD.Bcast(np.zeros(16)[::2], root=0),
        ("InvalidDatatypeError", 0)),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_fused_branch_raises_like_the_layered_chain(monkeypatch, case):
    body, (error, rank) = ERROR_CASES[case]
    returns = _exchange_errors(monkeypatch, body)
    assert returns[rank][0] == error


@pytest.mark.parametrize("op", ["send", "recv"])
def test_freed_communicator(monkeypatch, op):
    def body(mpi):
        comm = mpi.COMM_WORLD.Dup()
        comm.Free()
        if mpi.rank == 0:
            if op == "send":
                comm.Send(np.zeros(2), dest=1, tag=5)
            else:
                comm.Recv(np.zeros(2), source=1, tag=5)

    returns = _exchange_errors(monkeypatch, body)
    assert returns[0][0] == "InvalidCommunicatorError"


def test_proc_null_send_and_receive(monkeypatch):
    def body(mpi):
        comm = mpi.COMM_WORLD
        buf = np.full(3, 7.0)
        comm.Send(buf, dest=PROC_NULL, tag=5)
        st = comm.Recv(buf, source=PROC_NULL, tag=5)
        assert (st.source, st.count) == (PROC_NULL, 0)
        assert (buf == 7.0).all()
        req = comm.Isend(buf, dest=PROC_NULL, tag=5)
        assert req.count == 3

    returns = _exchange_errors(monkeypatch, body)
    assert all(error is None for error, _op, _t in returns)


def test_only_dense_exact_receives_take_the_fused_branch(monkeypatch):
    calls = []
    for name in ("_post_dense", "Irecv"):
        original = getattr(Communicator, name)

        def spy(self, *args, _name=name, _original=original, **kw):
            calls.append(_name)
            return _original(self, *args, **kw)

        monkeypatch.setattr(Communicator, name, spy)

    def main(mpi):
        comm = mpi.COMM_WORLD
        if mpi.rank == 0:
            for tag in (1, 2, 3):
                comm.Send(np.arange(4.0), dest=1, tag=tag)
            return None
        seen = {}
        buf = np.zeros(4)
        comm.Recv(buf, source=0, tag=1)
        seen["dense"] = list(calls)
        calls.clear()
        vector = mpi.Type_vector(4, 1, 1, mpi.DOUBLE).Commit()
        comm.Recv(buf, source=0, tag=2, datatype=vector)
        seen["derived"] = list(calls)
        calls.clear()
        comm.Recv(buf, source=ANY_SOURCE, tag=3)
        seen["wildcard"] = list(calls)
        return seen, buf.tolist()

    result = run_job(2, main)
    result.raise_errors()
    seen, buf = result.returns[1]
    assert seen == {"dense": ["_post_dense"], "derived": ["Irecv"],
                    "wildcard": ["Irecv"]}
    assert buf == [0.0, 1.0, 2.0, 3.0]


def test_wildcard_replay_example_matches():
    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "wildcard_replay.py")
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last == "no message lost or duplicated across the failure — OK"


# -- the stuck-task watchdog ------------------------------------------------------

def test_watchdog_abandons_a_rank_blocked_outside_mpi(monkeypatch):
    gate = threading.Event()
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    monkeypatch.setattr(CooperativeScheduler, "HANDOFF_GRACE", 0.2)

    def main(mpi):
        if mpi.rank == 1 and not gate.is_set():
            gate.wait()  # a bare OS primitive: the fiber never yields
        mpi.COMM_WORLD.Barrier()
        return mpi.rank

    eng = Engine(3, wall_timeout=0.3)
    t0 = time.monotonic()
    result = eng.run(main)
    assert time.monotonic() - t0 < 15
    assert [rank for rank, _msg in result.errors] == [-1]
    assert "rank 1 never yielded" in result.errors[0][1]
    stuck = eng.scheduler._tasks[1]
    assert stuck.leaked and stuck.thread.is_alive()

    # The abandoned carrier wakes into the aborted job, unwinds and ends
    # without touching the scheduler it was abandoned by.
    switches = eng.scheduler.switches
    gate.set()
    stuck.thread.join(5)
    assert not stuck.thread.is_alive()
    sched = eng.scheduler
    assert sched.switches == switches
    assert (sched._live, list(sched._runnable), sched._blocked) == (0, [], {})
    assert not crashes

    after = run_job(4, main)
    assert not after.errors and after.failure is None
    assert after.returns == [0, 1, 2, 3]


def test_handoff_under_a_tiny_switch_interval():
    """Force the interpreter to preempt carriers between any two
    bytecodes: a second runner or a lost wakeup would change the
    schedule (or hang), so the job must come out exactly as it does
    with the default interval."""

    def spinning(mpi):
        comm = mpi.COMM_WORLD
        rank, size = mpi.rank, mpi.size
        buf = np.zeros(4)
        acc = 0.0
        for it in range(12):
            req = comm.Irecv(buf, source=(rank - 1) % size, tag=it)
            comm.Send(np.full(4, float(rank + it)), dest=(rank + 1) % size,
                      tag=it)
            while not req.test()[0]:  # Test spin: yields every few misses
                pass
            acc += float(buf.sum())
            total = np.zeros(1)
            comm.Allreduce(np.array([acc]), total, mpi.SUM)
            acc = float(total[0]) / size
        return acc

    def outcome():
        eng = Engine(48, wall_timeout=120)
        result = eng.run(spinning)
        result.raise_errors()
        return result.returns, result.clocks, eng.scheduler.switches

    reference = outcome()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = outcome()
    finally:
        sys.setswitchinterval(interval)
    assert stressed == reference
