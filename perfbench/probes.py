"""Where the traced run puts its spans: the public functions of each
``repro`` layer, wrapped from outside by a :class:`~perfbench.tracing.Tracer`.

Span categories (the per-layer metric a span's self time feeds):

===================  ====================================================
``mpi.p2p``          ``Communicator`` Send/Recv/Isend/Irecv/probes,
                     ``Request.wait``/``test``, ``MPI.Wait*``/``Test*``
``mpi.coll``         ``Communicator`` collectives and communicator creation
``mpi.engine``       ``Engine.run`` on the calling thread: the run loop
``mpi.rank``         a rank's body outside every other span
``core.wrapper``     ``C3Comm`` methods (the Figure-4 wrappers)
``core.control``     ``ControlPlane.announce_checkpoint`` + ``poll``; the
                     envelopes a rank sends inside ``announce_checkpoint``
                     are ``core.control_envelopes``
``core.checkpoint``  ``C3Protocol.pragma`` (start/commit bookkeeping)
``core.setup``       ``C3Protocol.__init__`` + ``finalize``
``core.restore``     ``restore_checkpoint``
``statesave.dumps``  ``Serializer.dumps``
``statesave.loads``  ``Serializer.loads``
``storage.commit``   store ``put_section``/``commit_line``/``delete_line``,
                     and the clean-end flush of ``on_job_end``
``storage.read``     store ``read_section``/``validate_line``, and the
                     crash-replay of ``on_job_end(failed_rank)``
``apps.kernel``      the application kernel outside every call above
``harness.measure``  ``measure_recovery`` orchestration
``service.execute``  ``execute_job`` on a service worker thread
===================  ====================================================

The engine wrapper also gathers the exact counts every engine run
reports: envelopes and bytes (``JobResult.sent_counts``/``sent_bytes``),
fiber switches (the cooperative scheduler's ``switches``) and the
``C3Stats`` of every rank that finished.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Tuple

from repro.apps import APPS
from repro.core import ccc
from repro.core.comms import C3Comm
from repro.core.control import ControlPlane
from repro.core.protocol import C3Protocol, C3Stats
from repro.mpi.api import MPI
from repro.mpi.communicator import Communicator
from repro.mpi.engine import Engine
from repro.mpi.requests import Request
from repro.statesave.serializer import Serializer
from repro.storage.store import ScatterStore
from repro.storage.wal import WalStore
import repro.service as service

from .tracing import Tracer

_P2P = ("Send", "send_packed", "Isend", "Recv", "Irecv", "Sendrecv",
        "Iprobe", "Probe", "recv_out_of_band")
_COLL = ("Barrier", "Bcast", "Reduce", "Allreduce", "Scan", "Gather",
         "Gatherv", "Scatter", "Scatterv", "Allgather", "Alltoall",
         "Alltoallv", "Dup", "Split", "Cart_create")
_MPI_COMPLETION = ("Wait", "Test", "Waitall", "Waitany", "Waitsome",
                   "Testall", "Testany")
_C3COMM = ("Send", "Recv", "Isend", "Irecv", "Sendrecv", "Wait", "Test",
           "Waitall", "Waitany", "Waitsome", "Barrier", "Bcast", "Gather",
           "Scatter", "Allgather", "Alltoall", "Reduce", "Allreduce",
           "Scan", "Dup", "Split", "Cart_create", "Free")
#: C3Stats fields summed over ranks into per-layer counts
_STATS_COUNTS = {
    "core.app_envelopes": "app_sends",
    "core.late_logged": "late_logged",
    "core.replayed_from_log": "replayed_from_log",
    "core.suppressed_sends": "suppressed_sends",
}


class LayerProbes:
    """Installs the layer wrappers on a tracer and collects the service
    timestamps a traced run needs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: id(JobSpec) -> job id, registered by a client before submit
        self.job_of_spec: Dict[int, str] = {}
        #: (job id, execute_job entry, execute_job exit), perf_counter
        self.executions: List[Tuple[str, float, float]] = []

    # -- install ------------------------------------------------------------
    def install(self, apps: Iterable[str]) -> None:
        t = self.tracer
        for name in _P2P:
            t.wrap(Communicator, name, "mpi.p2p")
        for name in _COLL:
            t.wrap(Communicator, name, "mpi.coll")
        t.wrap(Request, "wait", "mpi.p2p")
        t.wrap(Request, "test", "mpi.p2p")
        for name in _MPI_COMPLETION:
            t.wrap(MPI, name, "mpi.p2p")
        for name in _C3COMM:
            t.wrap(C3Comm, name, "core.wrapper")
        self._wrap_announce()
        t.wrap(ControlPlane, "poll", "core.control")
        t.wrap(C3Protocol, "pragma", "core.checkpoint")
        t.wrap(C3Protocol, "__init__", "core.setup")
        t.wrap(C3Protocol, "finalize", "core.setup")
        t.wrap(ccc, "restore_checkpoint", "core.restore")
        t.wrap(Serializer, "dumps", "statesave.dumps",
               after=lambda out, a, k: t.count("statesave.bytes_serialized",
                                               len(out)))
        t.wrap(Serializer, "loads", "statesave.loads")
        for store in (WalStore, ScatterStore):
            for name in ("put_section", "commit_line", "delete_line"):
                t.wrap(store, name, "storage.commit")
            for name in ("read_section", "validate_line"):
                t.wrap(store, name, "storage.read")
        self._wrap_job_end(WalStore)
        for name in sorted(set(apps)):
            t.wrap(APPS, name, "apps.kernel")
        t.wrap(service, "measure_recovery", "harness.measure",
               after=lambda row, a, k: t.count("harness.restarts",
                                               row["restarts"]))
        self._wrap_execute_job()
        self._wrap_engine_run()

    def uninstall(self) -> None:
        self.tracer.uninstall()

    # -- custom wrappers ----------------------------------------------------------
    def _wrap_announce(self) -> None:
        t = self.tracer
        original = vars(ControlPlane)["announce_checkpoint"]

        def announce_checkpoint(plane, line, sent_counts):
            # the Checkpoint-Initiated fan-out: count what the rank really
            # sent, so a rank killed mid-fan-out counts its partial sends
            rank_ctx = plane.comm._ctx
            before = rank_ctx.sent_count
            frame = t.begin("core.control")
            try:
                return original(plane, line, sent_counts)
            finally:
                t.end(frame)
                t.count("core.control_envelopes",
                        rank_ctx.sent_count - before)

        t.replace(ControlPlane, "announce_checkpoint", announce_checkpoint)

    def _wrap_job_end(self, store) -> None:
        t = self.tracer
        original = vars(store)["on_job_end"]

        def on_job_end(self_, failed_rank=None):
            # a fail-stop end tears the failed node's tail and replays the
            # log (the read path); a clean end drains staged commits
            frame = t.begin("storage.read" if failed_rank is not None
                            else "storage.commit")
            try:
                return original(self_, failed_rank)
            finally:
                t.end(frame)

        t.replace(store, "on_job_end", on_job_end)

    def _wrap_execute_job(self) -> None:
        t = self.tracer
        original = vars(service)["execute_job"]
        probes = self

        def execute_job(spec, store_factory, on_row=None):
            job = probes.job_of_spec.get(id(spec))
            t.set_context(job)
            entered = time.perf_counter()
            frame = t.begin("service.execute")
            try:
                return original(spec, store_factory, on_row)
            finally:
                t.end(frame)
                probes.executions.append((job, entered,
                                          time.perf_counter()))
                t.set_context(None)

        t.replace(service, "execute_job", execute_job)

    def _wrap_engine_run(self) -> None:
        t = self.tracer
        original = vars(Engine)["run"]

        def run(engine, main, args=(), wall_timeout=None):
            frame = t.begin("mpi.engine")
            job, parent = t.current_job(), frame[0]

            def rank_main(mpi, *rank_args):
                t.set_context(job, parent)
                body = t.begin("mpi.rank")
                try:
                    return main(mpi, *rank_args)
                finally:
                    t.end(body)

            try:
                result = original(engine, rank_main, args, wall_timeout)
            finally:
                t.end(frame)
            _count_engine_run(t, engine, result)
            return result

        t.replace(Engine, "run", run)


def _count_engine_run(t: Tracer, engine, result) -> None:
    scheduler = engine.scheduler
    t.count("mpi.engine_runs")
    t.count("mpi.fiber_switches",
            scheduler.switches if scheduler is not None else 0)
    t.count("mpi.envelopes", sum(result.sent_counts))
    t.count("mpi.envelope_bytes", sum(result.sent_bytes))
    stats = [r[1] for r in result.returns
             if isinstance(r, tuple) and len(r) == 2
             and isinstance(r[1], C3Stats)]
    for metric, field in _STATS_COUNTS.items():
        t.count(metric, sum(getattr(s, field) for s in stats))
    if stats:
        # recovery lines this execution committed on every rank
        t.count("core.checkpoints_committed",
                min(s.checkpoints_committed for s in stats))
