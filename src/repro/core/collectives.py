"""Collective communication under the C3 protocol (Section 4.3).

The protocol is applied to the start and end points of each individual
communication *stream* inside a collective (Figure 7): the sender side
runs the send protocol (counter updates, suppression during recovery),
the receiver side classifies each incoming stream as late / intra-epoch /
early and updates the registries, exactly as for point-to-point messages.
Streams use the reserved ``COLL_TAG`` on the application context id, so
per-signature FIFO keeps successive collectives between the same pair of
ranks ordered.

Two transports:

* **native** (normal execution) — the data, with each stream's piggyback
  embedded as an 8-byte header, travels through the runtime's optimized
  collective algorithms; the protocol only touches the call sites.
* **emulated** (during recovery, or always with the
  ``emulate_collectives`` ablation) — every logical stream is a plain
  point-to-point message through the protocol's restore-aware primitives,
  so absent senders are replayed from the log and sends to already-
  consistent receivers are suppressed.  A job started in recovery mode
  stays emulated for its lifetime: switching back requires a globally
  agreed flip point that the paper does not specify (see DESIGN.md).

Reduction operations cannot log individual streams once the payload has
been aggregated, so ``Reduce`` is transformed into a Gather plus a local
rank-ordered fold at the root (the paper's Section 4.3 transform);
``Allreduce`` is Reduce-to-0 + Bcast and ``Scan`` is Gather-to-0 +
prefix-fold + Scatter, which makes every reduction correct under the same
per-stream machinery.  The paper's result-logging optimization for
``Allreduce``/``Scan`` is available as ``log_reduction_results`` and is
exercised by the ablation bench.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..mpi.datatypes import from_numpy_dtype
from ..mpi.ops import Op
from .epoch import EARLY, INTRA, LATE, WirePiggyback, classify
from .modes import Mode, ProtocolError
from .registries import DATA, EventLog

if TYPE_CHECKING:  # pragma: no cover
    from .commtable import CommEntry
    from .protocol import C3Protocol

from .protocol import COLL_TAG

_HDR = struct.Struct("<q")  # embedded piggyback header on native streams


def _use_emulation(p: "C3Protocol") -> bool:
    return p.recovering or p.config.emulate_collectives


def _pack(buf: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(buf)
    return arr.tobytes()


def _unpack_into(payload: bytes, buf: np.ndarray) -> None:
    flat = buf.reshape(-1)
    src = np.frombuffer(payload, dtype=buf.dtype)
    if src.size != flat.size:
        raise ProtocolError(
            f"collective stream size mismatch: got {src.size} elements, "
            f"expected {flat.size}"
        )
    flat[:] = src


# ---------------------------------------------------------------------------
# stream primitives
# ---------------------------------------------------------------------------

def _stream_send(p: "C3Protocol", centry: "CommEntry", dest: int,
                 payload: bytes) -> None:
    """Send protocol + transmission for one emulated stream."""
    raw = centry.raw
    dest_world = raw.group.translate(dest)
    if p.modes.mode is Mode.RESTORE:
        if p.was_early.match_and_remove(dest_world, COLL_TAG, raw.context_id):
            p.counters.on_send(dest_world)
            p.stats.suppressed_sends += 1
            p._maybe_finish_restore()
            return
    raw.send_packed(payload, dest, COLL_TAG, count=len(payload),
                    type_name="MPI_BYTE", piggyback=p._piggyback())
    p.counters.on_send(dest_world)


def _streams_sent(p: "C3Protocol", centry: "CommEntry", dests) -> None:
    """Send-protocol bookkeeping for native-transport streams, one per
    destination in ``dests``, in order.

    The C3 layer piggybacks on every communication stream it originates,
    including the per-stream headers inside native collectives, so the
    platform's per-message piggyback cost applies here too (this is the
    term behind the paper's Velocity-2 anomaly): one clock charge per
    stream.
    """
    on_send = p.counters.on_send
    world = centry.raw.group.world_ranks
    m = p.machine
    cost = m.coll_stream_overhead + p.codec.nbytes / m.bandwidth
    advance = p.mpi._ctx.clock.advance
    for dest in dests:
        on_send(world[dest])
        advance(cost)


def _stream_recv(p: "C3Protocol", centry: "CommEntry", source: int,
                 nbytes: int) -> bytes:
    """Restore-aware receive of one emulated stream; returns the payload."""
    raw = centry.raw
    if p.modes.mode is Mode.RESTORE:
        m = p.late_reg.match(source, COLL_TAG, raw.context_id)
        if m is not None and m.kind == DATA:
            p.late_reg.pop(m)
            p.stats.replayed_from_log += 1
            p._maybe_finish_restore()
            return m.payload
    buf = np.empty(nbytes, dtype=np.uint8)
    req = raw.Irecv(buf, source=source, tag=COLL_TAG)
    req.wait()
    env = req.envelope
    assert env is not None
    pb = p.codec.decode(env.piggyback.value, p.epoch)
    _stream_account(p, centry, env.source, pb.sender_epoch,
                    pb.stopped_logging, env.payload)
    return env.payload


def _stream_account(p: "C3Protocol", centry: "CommEntry", source: int,
                    sender_epoch: int, stopped_logging: bool,
                    payload: bytes) -> None:
    """Receive-protocol bookkeeping for one incoming stream."""
    raw = centry.raw
    kind = classify(sender_epoch, p.epoch)
    source_world = raw.group.translate(source)
    if kind == LATE:
        p.counters.on_late_received(source_world)
        if p.modes.is_logging_late:
            p.late_reg.record_late(source, COLL_TAG, raw.context_id, payload)
            p.stats.late_logged += 1
            p.stats.late_logged_bytes += len(payload)
        elif p.modes.mode is not Mode.RESTORE:
            raise ProtocolError(
                f"rank {p.rank} received a late collective stream in mode "
                f"{p.modes.mode}"
            )
        p._maybe_commit()
    elif kind == INTRA:
        p.counters.on_intra_received(source_world)
        if p.modes.mode is Mode.NONDET_LOG and stopped_logging:
            p._stop_nondet_logging()
    else:  # EARLY
        p.counters.on_early_received(source_world)
        p.early_reg.record(source_world, COLL_TAG, raw.context_id)
        p.stats.early_recorded += 1
        if p.modes.mode is Mode.NONDET_LOG:
            p._stop_nondet_logging()


def _native_header(p: "C3Protocol") -> bytes:
    return _HDR.pack(p._piggyback().value)


def _parse_header(p: "C3Protocol", raw_bytes: bytes):
    (word,) = _HDR.unpack_from(raw_bytes)
    pb = p.codec.decode(word, p.epoch)
    return pb.sender_epoch, pb.stopped_logging, raw_bytes[_HDR.size:]


def _streams_received(p: "C3Protocol", centry: "CommEntry", wire: np.ndarray,
                      out: np.ndarray, own: bytes) -> None:
    """Receive protocol and unpack for every stream of a native
    collective, in source order: row ``src`` of ``wire`` is source
    ``src``'s header and piece, unpacked into ``out[src]``; my own row of
    ``out`` gets ``own``.

    When every row carries the same intra-epoch piggyback outside
    non-deterministic logging, each stream's protocol step is one
    counter update and nothing can fail, so the pieces move in one copy.
    Anything else runs the stream-by-stream protocol.
    """
    raw = centry.raw
    rank = raw.rank
    hdr = _HDR.size
    words = np.ascontiguousarray(wire[:, :hdr]).view("<i8")
    word = int(words[0, 0])
    row = out.shape[1] * out.itemsize
    if (p.modes.mode is not Mode.NONDET_LOG
            and (words == word).all()
            and wire.shape[1] - hdr == row == len(own)
            and out.flags.writeable):
        pb = p.codec.decode(word, p.epoch)
        if classify(pb.sender_epoch, p.epoch) == INTRA:
            on_intra = p.counters.on_intra_received
            world = raw.group.world_ranks
            for src in range(raw.size):
                if src != rank:
                    on_intra(world[src])
            out[...] = np.frombuffer(wire[:, hdr:].tobytes(),
                                     dtype=out.dtype).reshape(out.shape)
            _unpack_into(own, out[rank])
            return
    for src in range(raw.size):
        if src == rank:
            _unpack_into(own, out[src])
            continue
        sender_epoch, stopped, payload = _parse_header(p, wire[src].tobytes())
        _stream_account(p, centry, src, sender_epoch, stopped, payload)
        _unpack_into(payload, out[src])


# ---------------------------------------------------------------------------
# data-moving collectives
# ---------------------------------------------------------------------------

def bcast(p: "C3Protocol", centry: "CommEntry", buf: np.ndarray,
          root: int = 0) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    if size == 1:
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        if rank == root:
            payload = _pack(buf)
            for dest in range(size):
                if dest != root:
                    _stream_send(p, centry, dest, payload)
        else:
            payload = _stream_recv(p, centry, root, buf.nbytes)
            _unpack_into(payload, buf)
        return
    p.stats.collectives_native += 1
    if rank == root:
        _streams_sent(p, centry, (d for d in range(size) if d != root))
        wire = np.frombuffer(_native_header(p) + _pack(buf), dtype=np.uint8).copy()
        raw.Bcast(wire, root=root)
    else:
        wire = np.empty(_HDR.size + buf.nbytes, dtype=np.uint8)
        raw.Bcast(wire, root=root)
        sender_epoch, stopped, payload = _parse_header(p, wire.tobytes())
        _stream_account(p, centry, root, sender_epoch, stopped, payload)
        _unpack_into(payload, buf)


def gather(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
           recvbuf: Optional[np.ndarray], root: int = 0) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    piece = _pack(sendbuf)
    if size == 1:
        if recvbuf is not None:
            _unpack_into(piece, recvbuf.reshape(-1))
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        if rank != root:
            _stream_send(p, centry, root, piece)
            return
        out = recvbuf.reshape(size, -1)
        for src in range(size):
            if src == rank:
                _unpack_into(piece, out[src])
            else:
                payload = _stream_recv(p, centry, src, sendbuf.nbytes)
                _unpack_into(payload, out[src])
        return
    p.stats.collectives_native += 1
    wire_piece = np.frombuffer(_native_header(p) + piece, dtype=np.uint8).copy()
    if rank == root:
        wire_out = np.empty((size, wire_piece.size), dtype=np.uint8)
        raw.Gather(wire_piece, wire_out, root=root)
        _streams_received(p, centry, wire_out, recvbuf.reshape(size, -1),
                          piece)
    else:
        _streams_sent(p, centry, (root,))
        raw.Gather(wire_piece, None, root=root)


def scatter(p: "C3Protocol", centry: "CommEntry", sendbuf: Optional[np.ndarray],
            recvbuf: np.ndarray, root: int = 0) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    if size == 1:
        _unpack_into(_pack(sendbuf.reshape(-1)), recvbuf.reshape(-1))
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        if rank == root:
            pieces = sendbuf.reshape(size, -1)
            for dest in range(size):
                if dest == rank:
                    _unpack_into(_pack(pieces[dest]), recvbuf.reshape(-1))
                else:
                    _stream_send(p, centry, dest, _pack(pieces[dest]))
        else:
            payload = _stream_recv(p, centry, root, recvbuf.nbytes)
            _unpack_into(payload, recvbuf.reshape(-1))
        return
    p.stats.collectives_native += 1
    if rank == root:
        header = _native_header(p)
        pieces = sendbuf.reshape(size, -1)
        _streams_sent(p, centry, (d for d in range(size) if d != root))
        wire_send = np.stack([np.frombuffer(header + _pack(piece),
                                            dtype=np.uint8)
                              for piece in pieces])
        wire_recv = np.empty(wire_send.shape[1], dtype=np.uint8)
        raw.Scatter(wire_send, wire_recv, root=root)
        _unpack_into(_pack(pieces[rank]), recvbuf.reshape(-1))
    else:
        wire_recv = np.empty(_HDR.size + recvbuf.nbytes, dtype=np.uint8)
        raw.Scatter(None, wire_recv, root=root)
        sender_epoch, stopped, payload = _parse_header(p, wire_recv.tobytes())
        _stream_account(p, centry, root, sender_epoch, stopped, payload)
        _unpack_into(payload, recvbuf.reshape(-1))


def allgather(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
              recvbuf: np.ndarray) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    piece = _pack(sendbuf)
    out = recvbuf.reshape(size, -1)
    if size == 1:
        _unpack_into(piece, out[0])
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        for dest in range(size):
            if dest != rank:
                _stream_send(p, centry, dest, piece)
        for src in range(size):
            if src == rank:
                _unpack_into(piece, out[src])
            else:
                payload = _stream_recv(p, centry, src, sendbuf.nbytes)
                _unpack_into(payload, out[src])
        return
    p.stats.collectives_native += 1
    _streams_sent(p, centry, (d for d in range(size) if d != rank))
    wire_piece = np.frombuffer(_native_header(p) + piece, dtype=np.uint8).copy()
    wire_out = np.empty((size, wire_piece.size), dtype=np.uint8)
    raw.Allgather(wire_piece, wire_out)
    _streams_received(p, centry, wire_out, out, piece)


def alltoall(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
             recvbuf: np.ndarray) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    sp = sendbuf.reshape(size, -1)
    rp = recvbuf.reshape(size, -1)
    if size == 1:
        _unpack_into(_pack(sp[0]), rp[0])
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        for dest in range(size):
            if dest != rank:
                _stream_send(p, centry, dest, _pack(sp[dest]))
        _unpack_into(_pack(sp[rank]), rp[rank])
        for src in range(size):
            if src != rank:
                payload = _stream_recv(p, centry, src, rp[src].nbytes)
                _unpack_into(payload, rp[src])
        return
    p.stats.collectives_native += 1
    header = _native_header(p)
    _streams_sent(p, centry, (d for d in range(size) if d != rank))
    wire_send = np.stack([np.frombuffer(header + _pack(piece), dtype=np.uint8)
                          for piece in sp])
    wire_recv = np.empty_like(wire_send)
    raw.Alltoall(wire_send, wire_recv)
    _streams_received(p, centry, wire_recv, rp, _pack(sp[rank]))


def barrier(p: "C3Protocol", centry: "CommEntry") -> None:
    """Barrier as an allgather of empty streams, so that every pairwise
    synchronization token is protocol-visible (a barrier can cross a
    recovery line like any other collective; see DESIGN.md)."""
    token_send = np.zeros(1, dtype=np.uint8)
    token_recv = np.zeros(centry.raw.size, dtype=np.uint8)
    allgather(p, centry, token_send, token_recv)


# ---------------------------------------------------------------------------
# reductions (Section 4.3)
# ---------------------------------------------------------------------------

def reduce(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
           recvbuf: Optional[np.ndarray], op: Op, root: int = 0) -> None:
    """``MPI_Reduce`` via the Gather transform: individual contributions
    are gathered (so the protocol sees every stream) and folded at the
    root in rank order."""
    raw = centry.raw
    size = raw.size
    contributions = (np.empty((size,) + sendbuf.shape, dtype=sendbuf.dtype)
                     if raw.rank == root else None)
    gather(p, centry, sendbuf, contributions, root=root)
    if raw.rank == root:
        acc = contributions[0].copy()
        for r in range(1, size):
            acc = op(acc, contributions[r])
        np.copyto(recvbuf, acc)


def allreduce(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
              recvbuf: np.ndarray, op: Op) -> None:
    """``MPI_Allreduce``: result logging when enabled, otherwise
    Reduce-to-0 + Bcast over protocol-visible streams."""
    if p.config.log_reduction_results:
        _logged_reduction(p, centry, sendbuf, recvbuf, op, scan=False)
        return
    reduce(p, centry, sendbuf, recvbuf if centry.raw.rank == 0 else
           np.empty_like(np.asarray(recvbuf)), op, root=0)
    bcast(p, centry, recvbuf, root=0)


def scan(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
         recvbuf: np.ndarray, op: Op) -> None:
    """``MPI_Scan``: result logging when enabled, otherwise Gather-to-0 +
    prefix fold + Scatter."""
    if p.config.log_reduction_results:
        _logged_reduction(p, centry, sendbuf, recvbuf, op, scan=True)
        return
    raw = centry.raw
    size = raw.size
    contributions = (np.empty((size,) + sendbuf.shape, dtype=sendbuf.dtype)
                     if raw.rank == 0 else None)
    gather(p, centry, sendbuf, contributions, root=0)
    prefixes = None
    if raw.rank == 0:
        prefixes = np.empty_like(contributions)
        acc = contributions[0].copy()
        prefixes[0] = acc
        for r in range(1, size):
            acc = op(acc, contributions[r])
            prefixes[r] = acc
    scatter(p, centry, prefixes, recvbuf, root=0)


def _logged_reduction(p: "C3Protocol", centry: "CommEntry",
                      sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op,
                      scan: bool) -> None:
    """The paper's optimization: run the native operation and log only the
    final result while a checkpoint is open; replay it during recovery."""
    p._charge()
    p._poll_control()
    raw = centry.raw
    if p.modes.mode is Mode.RESTORE and len(p.event_log):
        payload = p.event_log.replay(EventLog.COLLECTIVE_RESULT)
        _unpack_into(payload, recvbuf)
        p.stats.replayed_from_log += 1
        return
    if scan:
        raw.Scan(sendbuf, recvbuf, op)
    else:
        raw.Allreduce(sendbuf, recvbuf, op)
    p.stats.collectives_native += 1
    if p.modes.is_logging_late:
        p.event_log.record(EventLog.COLLECTIVE_RESULT, _pack(recvbuf))
        p.stats.events_logged += 1
