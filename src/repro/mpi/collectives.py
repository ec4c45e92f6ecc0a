"""Built-in collective algorithms over point-to-point messaging.

Collectives exchange their internal traffic on the communicator's *shadow*
context id so it never matches application receives.  The algorithms are
the classic ones (binomial trees, dissemination barrier, ring/pairwise
exchanges), so the virtual-time cost of a collective emerges naturally
from the point-to-point time model: e.g. a broadcast costs about
``ceil(log2 p)`` message latencies, as on a real machine.

Non-commutative reductions are evaluated strictly in rank order
(gather-and-fold), as the MPI standard requires.  ``scan`` uses a rank
chain, matching the "strictly ordered dependency chain" the paper relies
on in Section 4.3 to argue `MPI_Scan` can be replayed from a result log.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .datatypes import dense_type, from_numpy_dtype
from .matching import ANY_TAG
from .ops import Op
from .requests import wait_all

#: Tag space for collective-internal traffic; each collective call on a
#: communicator uses a fresh tag so concurrent phases cannot interfere.
_COLL_TAG_BASE = 1 << 20


def _next_tag(comm) -> int:
    ctx = comm._ctx
    ctx.begin_collective()
    key = ("coll_seq", comm.shadow_id)
    seq = ctx.scratch.get(key, 0)
    ctx.scratch[key] = seq + 1
    return _COLL_TAG_BASE + (seq % (1 << 18))


# Internal traffic always names its peer and tag, so it takes the
# communicator's fused dense branch whenever the buffer allows (see
# ``Communicator._send``); other buffers take the general code.

def _send(comm, buf: np.ndarray, dest: int, tag: int) -> None:
    comm._ctx.collective_fault_point()
    dt = dense_type(buf)
    if dt is not None:
        payload = buf.tobytes()
    else:
        dt = from_numpy_dtype(buf.dtype)
        payload = dt.pack(buf, buf.size)
    comm._check()
    comm._post(payload, dest, tag, buf.size, dt.name, None, comm.shadow_id,
               True)


def _recv(comm, buf: np.ndarray, source: int, tag: int) -> None:
    comm._ctx.collective_fault_point()
    _exchange(comm, None, 0, buf, source, tag)


def _exchange(comm, sendbuf, dest: int, recvbuf: np.ndarray, source: int,
              tag: int) -> None:
    """Post a receive, send ``sendbuf`` (unless None), then complete the
    receive: ``Irecv`` + :func:`_send` + ``wait``."""
    dt = dense_type(recvbuf)
    if dt is None:
        req = comm.Irecv(recvbuf, source=source, tag=tag,
                         context_id=comm.shadow_id)
        if sendbuf is not None:
            _send(comm, sendbuf, dest, tag)
        req.wait()
        return
    pr = comm._post_dense(recvbuf, source, tag, comm.shadow_id)
    if sendbuf is not None:
        _send(comm, sendbuf, dest, tag)
    comm._complete_dense(pr, dt, recvbuf)


def _recv_all(comm, bufs_by_source, tag: int) -> None:
    """Post fully-specified receives for every (source, buf) pair, then
    complete them with one blocking wait (source order).

    Collective internals always know their peers, so these receives all
    take the mailbox's exact-signature fast path; batching them turns p-1
    sleep/wake cycles into one.
    """
    comm._ctx.collective_fault_point()
    types = [dense_type(buf) for _source, buf in bufs_by_source]
    if None in types:
        wait_all([comm.Irecv(buf, source=source, tag=tag,
                             context_id=comm.shadow_id)
                  for source, buf in bufs_by_source])
        return
    posted = [comm._post_dense(buf, source, tag, comm.shadow_id)
              for source, buf in bufs_by_source]
    live = [pr for pr in posted if not pr.matched]
    if live:
        ctx = comm._ctx
        ctx.mailbox.wait_for(lambda: all(pr.matched for pr in live),
                             poll=ctx.poll_hook)
    for dt, pr, (_source, buf) in zip(types, posted, bufs_by_source):
        comm._complete_dense(pr, dt, buf)


# --------------------------------------------------------------------------
def barrier(comm) -> None:
    """Dissemination barrier: ceil(log2 p) rounds of pairwise signals."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    tag = _next_tag(comm)
    token = np.zeros(1, dtype=np.uint8)
    k = 1
    while k < size:
        dest = (rank + k) % size
        src = (rank - k) % size
        _send(comm, token, dest, tag)
        _recv(comm, token, src, tag)
        k <<= 1


def bcast(comm, buf: np.ndarray, root: int = 0) -> None:
    """Binomial-tree broadcast."""
    size = comm.size
    if size == 1:
        return
    tag = _next_tag(comm)
    # Rotate so the root is virtual rank 0.
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank < mask:
            partner = vrank | mask
            if partner < size:
                _send(comm, buf, (partner + root) % size, tag)
        elif vrank < (mask << 1):
            partner = vrank & ~mask
            _recv(comm, buf, (partner + root) % size, tag)
        mask <<= 1


def reduce(comm, sendbuf: np.ndarray, recvbuf, op: Op, root: int = 0) -> None:
    """Reduction to root: binomial tree if commutative, rank-ordered fold if not."""
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    if size == 1:
        if recvbuf is not None:
            np.copyto(recvbuf, sendbuf)
        return
    if not op.commutative:
        _reduce_ordered(comm, sendbuf, recvbuf, op, root, tag)
        return
    # Binomial-tree combine towards virtual rank 0 (= root).
    vrank = (rank - root) % size
    acc = np.array(sendbuf, copy=True)
    tmp = np.empty_like(acc)
    mask = 1
    while mask < size:
        if vrank & mask:
            partner = vrank & ~mask
            _send(comm, acc, (partner + root) % size, tag)
            break
        partner = vrank | mask
        if partner < size:
            _recv(comm, tmp, (partner + root) % size, tag)
            acc = op(acc, tmp)
        mask <<= 1
    if rank == root and recvbuf is not None:
        np.copyto(recvbuf, acc)


def _reduce_ordered(comm, sendbuf, recvbuf, op: Op, root: int, tag: int) -> None:
    size, rank = comm.size, comm.rank
    if rank == root:
        parts = [np.array(sendbuf, copy=True) if r == rank
                 else np.empty_like(np.asarray(sendbuf)) for r in range(size)]
        _recv_all(comm, [(r, parts[r]) for r in range(size) if r != rank], tag)
        acc = parts[0]
        for p in parts[1:]:
            acc = op(acc, p)
        np.copyto(recvbuf, acc)
    else:
        _send(comm, np.ascontiguousarray(sendbuf), root, tag)


def allreduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op) -> None:
    """Reduce to rank 0, then broadcast."""
    reduce(comm, sendbuf, recvbuf if comm.rank == 0 else np.empty_like(np.asarray(sendbuf)), op, root=0)
    bcast(comm, recvbuf, root=0)


def scan(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op) -> None:
    """Inclusive prefix reduction along the rank chain."""
    rank, size = comm.rank, comm.size
    tag = _next_tag(comm)
    acc = np.array(sendbuf, copy=True)
    if rank > 0:
        prefix = np.empty_like(acc)
        _recv(comm, prefix, rank - 1, tag)
        acc = op(prefix, acc)
    np.copyto(recvbuf, acc)
    if rank + 1 < size:
        _send(comm, acc, rank + 1, tag)


def gather(comm, sendbuf: np.ndarray, recvbuf, root: int = 0) -> None:
    """Binomial-tree gather (rank order restored at the root).

    Real MPI implementations gather short messages through a tree, which
    puts ~log2(p) message latencies on the critical path; a linear gather
    would let the root overlap all receives and under-charge the virtual
    time model.
    """
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    send = np.ascontiguousarray(sendbuf).reshape(-1)
    if size == 1:
        if recvbuf is not None:
            recvbuf.reshape(1, -1)[0, :] = send
        return
    vrank = (rank - root) % size
    # staging area indexed by virtual rank; my piece goes to slot vrank
    stage = np.zeros((size, send.size), dtype=sendbuf.dtype)
    stage[vrank, :] = send
    mask = 1
    while mask < size:
        if vrank & mask:
            # send my accumulated subtree [vrank, vrank+mask) to the parent
            parent = ((vrank & ~mask) + root) % size
            hi = min(vrank + mask, size)
            _send(comm, np.ascontiguousarray(stage[vrank:hi]), parent, tag)
            break
        child_v = vrank | mask
        if child_v < size:
            hi = min(child_v + mask, size)
            _recv(comm, stage[child_v:hi], (child_v + root) % size, tag)
        mask <<= 1
    if rank == root:
        out = recvbuf.reshape(size, -1)
        for v in range(size):
            out[(v + root) % size, :] = stage[v]


def gatherv(comm, sendbuf: np.ndarray, recvbuf, counts: Sequence[int], root: int = 0) -> None:
    """Gather varying-size contributions; ``counts`` in elements per rank."""
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    send = np.ascontiguousarray(sendbuf)
    if rank == root:
        flat = recvbuf.reshape(-1)
        pieces = []
        offset = 0
        for r in range(size):
            n = int(counts[r])
            if r == rank:
                flat[offset:offset + n] = send.reshape(-1)[:n]
            else:
                pieces.append((r, flat[offset:offset + n]))
            offset += n
        _recv_all(comm, pieces, tag)
    else:
        _send(comm, send, root, tag)


def scatter(comm, sendbuf, recvbuf: np.ndarray, root: int = 0) -> None:
    """Binomial-tree scatter (the mirror image of :func:`gather`)."""
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    if size == 1:
        recvbuf.reshape(-1)[:] = sendbuf.reshape(-1)
        return
    vrank = (rank - root) % size
    piece_len = recvbuf.reshape(-1).size
    stage = np.zeros((size, piece_len), dtype=recvbuf.dtype)
    if rank == root:
        pieces = sendbuf.reshape(size, -1)
        for r in range(size):
            stage[(r - root) % size, :] = pieces[r]
        span = size
    else:
        # wait for my subtree's block from the parent
        mask = 1
        while not vrank & mask:
            mask <<= 1
        span = min(vrank + mask, size) - vrank
        parent = ((vrank & ~mask) + root) % size
        _recv(comm, stage[vrank:vrank + span], parent, tag)
    # forward sub-blocks to children (highest bit first)
    mask = 1
    while mask < size and not vrank & mask:
        mask <<= 1
    mask >>= 1
    while mask:
        child_v = vrank | mask
        if child_v < size and child_v < vrank + span:
            hi = min(child_v + mask, size)
            _send(comm, np.ascontiguousarray(stage[child_v:hi]),
                  (child_v + root) % size, tag)
        mask >>= 1
    recvbuf.reshape(-1)[:] = stage[vrank]


def scatterv(comm, sendbuf, recvbuf: np.ndarray, counts: Sequence[int], root: int = 0) -> None:
    """Scatter varying-size pieces; ``counts`` in elements per rank."""
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    if rank == root:
        flat = sendbuf.reshape(-1)
        offset = 0
        for r in range(size):
            n = int(counts[r])
            if r == rank:
                recvbuf.reshape(-1)[:n] = flat[offset:offset + n]
            else:
                _send(comm, np.ascontiguousarray(flat[offset:offset + n]), r, tag)
            offset += n
    else:
        _recv(comm, recvbuf.reshape(-1), root, tag)


def allgather(comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
    """Ring allgather: p-1 rounds, each rank forwards the piece it received."""
    size, rank = comm.size, comm.rank
    send = np.ascontiguousarray(sendbuf)
    out = recvbuf.reshape(size, -1)
    out[rank, :] = send.reshape(-1)
    if size == 1:
        return
    tag = _next_tag(comm)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        src_piece = (rank - step) % size
        dst_piece = (rank - step - 1) % size
        _send(comm, np.ascontiguousarray(out[src_piece]), right, tag)
        _recv(comm, out[dst_piece], left, tag)


def alltoall(comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
    """Pairwise-exchange all-to-all with equal piece sizes."""
    size, rank = comm.size, comm.rank
    sp = sendbuf.reshape(size, -1)
    rp = recvbuf.reshape(size, -1)
    rp[rank, :] = sp[rank]
    tag = _next_tag(comm)
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        _exchange(comm, np.ascontiguousarray(sp[dest]), dest, rp[src], src,
                  tag)


def alltoallv(comm, sendbuf: np.ndarray, sendcounts: Sequence[int],
              recvbuf: np.ndarray, recvcounts: Sequence[int]) -> None:
    """Pairwise-exchange all-to-all with varying piece sizes (elements)."""
    size, rank = comm.size, comm.rank
    sflat = sendbuf.reshape(-1)
    rflat = recvbuf.reshape(-1)
    soff = np.concatenate([[0], np.cumsum(np.asarray(sendcounts))]).astype(int)
    roff = np.concatenate([[0], np.cumsum(np.asarray(recvcounts))]).astype(int)
    rflat[roff[rank]:roff[rank + 1]] = sflat[soff[rank]:soff[rank + 1]]
    tag = _next_tag(comm)
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        _exchange(comm, np.ascontiguousarray(sflat[soff[dest]:soff[dest + 1]]),
                  dest, rflat[roff[src]:roff[src + 1]], src, tag)
