"""Control-message plane.

The coordination layer exchanges two kinds of out-of-band messages on a
dedicated communicator (a dup of ``MPI_COMM_WORLD`` made at startup, so
control traffic can never match application receives):

* ``Checkpoint-Initiated`` — sent to every peer by ``chkpt_StartCheckpoint``
  for recovery line *k*, carrying the sender's ``Sent-Count[receiver]`` for
  the epoch that just ended (Figure 5);
* ``Early-Registry`` — sent during recovery to the original sender of each
  early message so it can build its Was-Early-Registry.

Control messages are polled ("Check for control messages", Figure 4) at
every protocol operation and at pragmas; they are never classified,
logged, or suppressed.

Deliberately *not* a control message: the committed floor that drives
recovery-line garbage collection.  Durable commits are visible in the
shared storage manifest, so GC reads it there
(:meth:`repro.core.protocol.C3Protocol._gc_lines`) — broadcasting
Line-Committed announcements instead would stamp them with the drain's
late virtual times, and consuming one drags the receiver's clock
forward, charging the background write right back into the application
makespan the overlapped pipeline exists to protect.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..mpi.datatypes import LONG
from ..statesave import serializer
from .modes import ProtocolError

#: tags on the control communicator
TAG_CKPT_INITIATED = 1
TAG_EARLY_REGISTRY = 2
TAG_RECOVERY = 3

#: Checkpoint-Initiated payload: ``(line, sent count)`` as two native
#: int64s, the bytes of ``np.array([line, count], dtype=np.int64)``
_INITIATED = struct.Struct("=qq")


class ControlPlane:
    """Sends/receives control messages and tracks checkpoint initiations."""

    def __init__(self, comm, rank: int, nprocs: int):
        self.comm = comm  # raw (protocol-invisible) communicator, dup of world
        self.rank = rank
        self.nprocs = nprocs
        #: line -> {sender rank: announced sent count}
        self.initiated: Dict[int, Dict[int, int]] = {}

    # -- Checkpoint-Initiated -------------------------------------------------
    def announce_checkpoint(self, line: int, sent_counts: List[int]) -> None:
        """Send Checkpoint-Initiated for ``line`` to every other rank.

        The P-1 envelopes go out through one multicast: each is its own
        MPI call on the send side (call overhead, fault checks,
        timestamps), in rank order; only the per-message set-up is
        shared.
        """
        pack = _INITIATED.pack
        self.comm.multicast_packed(
            ((q, pack(line, sent_counts[q]))
             for q in range(self.nprocs) if q != self.rank),
            TAG_CKPT_INITIATED, count=2, type_name=LONG.name)

    def poll(self, on_initiated: Callable[[int, int, int], None]) -> int:
        """Drain pending Checkpoint-Initiated messages.

        Calls ``on_initiated(line, sender, sent_count)`` for each, oldest
        arrival first; returns the number processed.
        """
        # Polled on every intercepted call: the O(1) context check
        # short-circuits the drain in the common no-traffic case.  The
        # drain itself is out-of-band — no call overhead, no availability
        # sync — because it models the PSC-style daemon consuming control
        # traffic outside the application: charging it here would stamp
        # the drain's backend-dependent physical delivery point into the
        # virtual clock (the same argument that keeps committed-floor GC
        # off the control plane, see the module docstring).
        if not self.comm.has_pending():
            return 0
        initiated = self.initiated

        def take(sender: int, payload: bytes) -> None:
            line, count = _INITIATED.unpack(payload)
            peers = initiated.setdefault(line, {})
            if sender in peers:
                raise ProtocolError(
                    f"duplicate Checkpoint-Initiated for line {line} from "
                    f"rank {sender}"
                )
            peers[sender] = count
            on_initiated(line, sender, count)

        return self.comm.drain_out_of_band(TAG_CKPT_INITIATED, take)

    def all_started(self, line: int) -> bool:
        """Has every *other* rank announced checkpoint ``line``?"""
        return len(self.initiated.get(line, {})) == self.nprocs - 1

    def any_started(self, line: int) -> bool:
        return bool(self.initiated.get(line))

    def forget_line(self, line: int) -> None:
        """Drop bookkeeping for a committed line."""
        self.initiated.pop(line, None)

    # -- early-registry distribution (recovery) -----------------------------------
    def exchange_early_registries(self, by_sender: Dict[int, list]) -> List[Tuple[int, int, int]]:
        """Distribute early signatures to their senders; gather mine.

        ``by_sender`` maps an original sending rank to the list of
        ``(tag, context_id)`` pairs of early messages it sent me.  Every
        rank sends one message to every other rank (possibly an empty
        list) and receives one from every other rank, so the exchange is
        deterministic and self-synchronizing.

        Returns the Was-Early entries for *this* rank:
        ``(dest, tag, context_id)`` for each send to suppress.
        """
        # Post all receives first to avoid ordering constraints.
        reqs = []
        bufs = []
        sizes = np.zeros(self.nprocs, dtype=np.int64)
        my_sizes = np.zeros(self.nprocs, dtype=np.int64)
        payloads: Dict[int, bytes] = {}
        for q in range(self.nprocs):
            if q == self.rank:
                continue
            payloads[q] = serializer.dumps(
                [list(sig) for sig in by_sender.get(q, [])])
            my_sizes[q] = len(payloads[q])
        # First exchange sizes, then payloads, with plain point-to-point.
        for q in range(self.nprocs):
            if q == self.rank:
                continue
            self.comm.Send(my_sizes[q:q + 1], dest=q, tag=TAG_EARLY_REGISTRY)
        for q in range(self.nprocs):
            if q == self.rank:
                continue
            size_buf = np.zeros(1, dtype=np.int64)
            self.comm.Recv(size_buf, source=q, tag=TAG_EARLY_REGISTRY)
            sizes[q] = int(size_buf[0])
        for q in range(self.nprocs):
            if q == self.rank:
                continue
            payload = np.frombuffer(payloads[q], dtype=np.uint8).copy()
            if len(payload):
                self.comm.Send(payload, dest=q, tag=TAG_EARLY_REGISTRY)
        out: List[Tuple[int, int, int]] = []
        for q in range(self.nprocs):
            if q == self.rank:
                continue
            if sizes[q] == 0:
                entries = []
            else:
                buf = np.empty(int(sizes[q]), dtype=np.uint8)
                self.comm.Recv(buf, source=q, tag=TAG_EARLY_REGISTRY)
                entries = serializer.loads(buf.tobytes())
            for tag, ctx in entries:
                out.append((q, tag, ctx))
        return out
