"""Per-rank mailbox with MPI matching semantics.

The mailbox owns two collections, both indexed by the full match
signature ``(source, tag, context_id)`` — an envelope's
:class:`~repro.mpi.message.MessageSignature` is its key as is — so the
hot paths are O(1) amortized instead of linear scans:

* ``pending`` — envelopes that have arrived but not yet matched a
  receive, bucketed by signature.  Each bucket keeps arrival order (=
  per-source send order, which is what gives MPI its per-signature
  non-overtaking guarantee), and every envelope carries a mailbox-wide
  arrival stamp so wildcard receives can select the *oldest* matching
  envelope across buckets — exactly the order a linear arrival-ordered
  scan would produce;
* ``posted`` — receives that have been posted but not yet matched.
  Fully-specified receives are bucketed by signature; receives with
  ``ANY_SOURCE`` / ``ANY_TAG`` wildcards go to a (short) overflow list.
  Both sides keep post order, and a mailbox-wide post stamp arbitrates
  between an exact bucket head and a wildcard candidate, preserving
  MPI's earliest-posted-receive-wins rule.

Messages with different signatures may be consumed in any order the
application chooses — the property Section 2.4 of the paper calls out as
breaking Chandy-Lamport's FIFO assumption.

Every receive enters as a :class:`PostedRecv` through :meth:`Mailbox.post`.
A request-based receive (``Irecv``) wraps it in a
:class:`~repro.mpi.requests.Request`; the communicator's fused dense
branch posts it bare and waits on :meth:`PostedRecv.done`, so a dense
exact receive costs one bucket probe when its message is already
pending.  Truncation is checked where the match happens: at posting for
a pending envelope, in the sender's :meth:`Mailbox.deliver` for a
posted receive.

Paper mapping: the mailbox is the runtime's model of the MPI matching
engine the C3 protocol reasons about — Section 2.4's non-FIFO channels
(signature-indexed consumption), Section 3's late/early message
classification (every envelope carries send/avail timestamps and a
sender sequence number, which the protocol layer compares against
epochs), and Section 4.1's piggyback channel (envelopes carry the
sender's C3 piggyback alongside the payload).

Synchronization is backend-dependent.  Under the default cooperative
scheduler (:mod:`repro.mpi.scheduler`) exactly one rank runs at a time,
so the mailbox uses **no locks and no condition variables**: blocking
operations suspend their rank fiber and deliveries mark the destination
rank dirty, waking exactly the ranks whose wait predicate became true.
Under the ``engine="threads"`` backend all state is protected by a
single condition variable; blocking operations wait on it
*indefinitely* — there is no timeout poll — and are woken precisely by
deliveries, job aborts, the engine's virtual-time fault scheduler, and
the wall-clock watchdog (see :mod:`repro.mpi.engine`).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .errors import JobAborted, TruncationError
from .message import Envelope

ANY_SOURCE = -1
ANY_TAG = -1

#: a pending-bucket key / posted-bucket key: ``(source, tag, context_id)``
Signature = Tuple[int, int, int]


def signature_matches(env: Envelope, context_id: int, source: int, tag: int) -> bool:
    """Does an envelope match a receive's ``(context, source, tag)`` triple?"""
    if env.context_id != context_id:
        return False
    if source != ANY_SOURCE and env.source != source:
        return False
    if tag != ANY_TAG and env.tag != tag:
        return False
    return True


class PostedRecv:
    """A receive posted to the mailbox, waiting for a matching envelope."""

    __slots__ = (
        "context_id", "source", "tag", "max_bytes", "envelope", "matched",
        "cancelled", "post_seq",
    )

    def __init__(self, context_id: int, source: int, tag: int, max_bytes: int):
        self.context_id = context_id
        self.source = source
        self.tag = tag
        self.max_bytes = max_bytes
        self.envelope: Optional[Envelope] = None
        self.matched = False
        self.cancelled = False
        #: mailbox-wide post order; assigned when queued unmatched
        self.post_seq = -1

    @property
    def wildcard(self) -> bool:
        return self.source == ANY_SOURCE or self.tag == ANY_TAG

    def accepts(self, env: Envelope) -> bool:
        return not self.matched and not self.cancelled and signature_matches(
            env, self.context_id, self.source, self.tag
        )

    def done(self) -> bool:
        """Wait predicate of a receive posted without a request."""
        return self.matched

    def _match(self, env: Envelope) -> None:
        nbytes = len(env.payload)
        if nbytes > self.max_bytes:
            raise TruncationError(
                f"message of {nbytes} bytes truncates receive buffer of "
                f"{self.max_bytes} bytes (src={env.source}, tag={env.tag})"
            )
        self.envelope = env
        self.matched = True


#: shared reusable no-op mutex for scheduler-bound (single-runner) mailboxes
_NO_MUTEX = nullcontext()


class Mailbox:
    """All incoming traffic for one rank."""

    def __init__(self, rank: int, abort_event: threading.Event):
        self.rank = rank
        self._abort = abort_event
        self._cond = threading.Condition()
        #: condition variable (threads) or no-op (cooperative scheduler)
        self._mutex = self._cond
        #: cooperative scheduler this mailbox reports wakeups to, if any
        self._sched = None
        #: signature -> deque of (arrival stamp, envelope), arrival order
        self._pending: Dict[Signature, Deque[Tuple[int, Envelope]]] = {}
        self._arrival_seq = 0
        self._pending_total = 0
        self._pending_by_ctx: Dict[int, int] = {}
        #: context -> live pending signatures; wildcard matching scans
        #: only its own context's buckets instead of every bucket in
        #: the mailbox (collectives keep a second context permanently
        #: populated, which made the global scan quadratic-ish for
        #: wildcard-heavy apps at high rank counts)
        self._ctx_sigs: Dict[int, set] = {}
        #: signature -> deque of fully-specified receives, post order
        self._posted_exact: Dict[Signature, Deque[PostedRecv]] = {}
        #: wildcard receives, post order (the overflow list)
        self._posted_wild: List[PostedRecv] = []
        self._post_seq = 0
        self._posted_total = 0
        #: statistics, read by the harness
        self.delivered_count = 0
        self.delivered_bytes = 0

    # -- backend binding -----------------------------------------------------
    def bind_scheduler(self, scheduler) -> None:
        """Run lock-free under a cooperative scheduler.

        With a single runner the condition variable is dead weight: the
        mutex becomes a no-op and wakeups become exact dirty-rank notes
        for the scheduler's next step.  Called by the engine before a
        cooperative run; a bound mailbox must no longer be touched from
        free-running threads.
        """
        self._sched = scheduler
        self._mutex = _NO_MUTEX

    def _wake(self) -> None:
        """Wake whoever waits on this mailbox (backend-appropriate)."""
        if self._sched is not None:
            self._sched.mailbox_activity(self.rank)
        else:
            self._cond.notify_all()

    # -- delivery (called from sender threads) ------------------------------
    def deliver(self, env: Envelope) -> None:
        """Hand an envelope to this rank; matches a posted receive if any."""
        with self._mutex:
            self.delivered_count += 1
            self.delivered_bytes += len(env.payload)
            key = env.signature
            if self._posted_total:
                pr = self._take_posted(env, key)
                if pr is not None:
                    pr._match(env)
                    self._wake()
                    return
            ctx = key.context_id
            bucket = self._pending.get(key)
            if bucket is None:
                bucket = self._pending[key] = deque()
                sigs = self._ctx_sigs.get(ctx)
                if sigs is None:
                    sigs = self._ctx_sigs[ctx] = set()
                sigs.add(key)
            bucket.append((self._arrival_seq, env))
            self._arrival_seq += 1
            self._pending_total += 1
            self._pending_by_ctx[ctx] = self._pending_by_ctx.get(ctx, 0) + 1
            self._wake()

    def _take_posted(self, env: Envelope,
                     key: Signature) -> Optional[PostedRecv]:
        """Pop the earliest-posted receive accepting ``env`` (whose
        signature is ``key``), if any."""
        bucket = self._posted_exact.get(key)
        exact = bucket[0] if bucket else None
        wild: Optional[PostedRecv] = None
        if self._posted_wild:
            for pr in self._posted_wild:
                if pr.accepts(env):
                    wild = pr
                    break
        if exact is None and wild is None:
            return None
        if wild is None or (exact is not None and exact.post_seq < wild.post_seq):
            bucket.popleft()
            if not bucket:
                del self._posted_exact[key]
            self._posted_total -= 1
            return exact
        self._posted_wild.remove(wild)
        self._posted_total -= 1
        return wild

    # -- posting receives ----------------------------------------------------
    def post(self, pr: PostedRecv) -> None:
        """Post a receive; matches the oldest pending envelope if one fits."""
        with self._mutex:
            source, tag = pr.source, pr.tag
            if source != ANY_SOURCE and tag != ANY_TAG:
                sig = (source, tag, pr.context_id)
                # pending buckets are deleted when they empty
                key = sig if sig in self._pending else None
            else:
                sig = None
                key = self._oldest_pending_key(pr.context_id, source, tag)
            if key is not None:
                env = self._pop_pending(key)
                pr._match(env)
                self._wake()
                return
            pr.post_seq = self._post_seq
            self._post_seq += 1
            if sig is not None:
                bucket = self._posted_exact.get(sig)
                if bucket is None:
                    bucket = self._posted_exact[sig] = deque()
                bucket.append(pr)
            else:
                self._posted_wild.append(pr)
            self._posted_total += 1

    def _oldest_pending_key(self, context_id: int, source: int,
                            tag: int) -> Optional[Signature]:
        """Bucket holding the oldest pending envelope matching the triple."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (source, tag, context_id)
            return key if key in self._pending else None
        if not self._pending_by_ctx.get(context_id):
            return None
        # Scan only this context's live buckets; the winner is the
        # unique minimal arrival stamp, so set iteration order cannot
        # leak into matching order.
        best_key: Optional[Signature] = None
        best_arrival = -1
        pending = self._pending
        for key in self._ctx_sigs.get(context_id, ()):
            if source != ANY_SOURCE and key[0] != source:
                continue
            if tag != ANY_TAG and key[1] != tag:
                continue
            arrival = pending[key][0][0]
            if best_key is None or arrival < best_arrival:
                best_key, best_arrival = key, arrival
        return best_key

    def _pop_pending(self, key: Signature) -> Envelope:
        bucket = self._pending[key]
        _, env = bucket.popleft()
        ctx = key[2]
        if not bucket:
            del self._pending[key]
            sigs = self._ctx_sigs[ctx]
            sigs.discard(key)
            if not sigs:
                del self._ctx_sigs[ctx]
        self._pending_total -= 1
        remaining = self._pending_by_ctx[ctx] - 1
        if remaining:
            self._pending_by_ctx[ctx] = remaining
        else:
            del self._pending_by_ctx[ctx]
        return env

    def cancel(self, pr: PostedRecv) -> bool:
        """Cancel a posted receive; returns False if it already matched."""
        with self._mutex:
            if pr.matched:
                return False
            pr.cancelled = True
            if pr.wildcard:
                if pr in self._posted_wild:
                    self._posted_wild.remove(pr)
                    self._posted_total -= 1
            else:
                sig = (pr.source, pr.tag, pr.context_id)
                bucket = self._posted_exact.get(sig)
                if bucket is not None and pr in bucket:
                    bucket.remove(pr)
                    if not bucket:
                        del self._posted_exact[sig]
                    self._posted_total -= 1
            return True

    # -- waiting --------------------------------------------------------------
    def wait_for(self, predicate: Callable[[], bool], poll: Optional[Callable[[], None]] = None) -> None:
        """Block until ``predicate()`` is true or the job aborts.

        The predicate is checked *before* the abort flag so an operation
        whose match has already arrived completes instead of being
        retroactively reported as aborted.

        There is no timeout: the wait is woken precisely by deliveries
        into this mailbox, by :meth:`notify` (job abort, due virtual-time
        faults, the wall-clock watchdog).  ``poll`` (if given) runs on
        every wakeup — the engine uses it to raise due faults and
        deadline errors inside the blocked rank's own thread.

        Under a cooperative scheduler the same contract holds, but the
        wait suspends this rank's fiber instead of a condition variable;
        the scheduler resumes it when the predicate becomes true.
        """
        if self._sched is not None:
            self._sched.wait(predicate, poll)
            return
        with self._mutex:
            while True:
                if predicate():
                    return
                if self._abort.is_set():
                    raise JobAborted()
                if poll is not None:
                    poll()
                    if predicate():
                        return
                self._cond.wait()

    def notify(self) -> None:
        """Wake any thread blocked on this mailbox (abort, fault, watchdog)."""
        with self._mutex:
            self._wake()

    def pop_pending(self, context_id: int, source: int, tag: int) -> Optional[Envelope]:
        """Pop the oldest pending envelope matching the triple, if any.

        The out-of-band consumption path: no posted receive is involved,
        so the caller (the C3 control daemon) takes the envelope without
        the matching engine ever seeing a posted/pending rendezvous.
        Ordering is the same oldest-arrival rule a wildcard receive uses.
        """
        with self._mutex:
            key = self._oldest_pending_key(context_id, source, tag)
            if key is None:
                return None
            return self._pop_pending(key)

    def drain_pending(self, context_id: int, tag: int) -> List[Envelope]:
        """Pop every pending envelope on ``context_id`` with ``tag``.

        The batch form of ``pop_pending(context_id, ANY_SOURCE, tag)``:
        the result, oldest arrival first, is exactly the sequence that
        repeated pops would return, taken in one pass over the context's
        buckets instead of one bucket scan per envelope.  Envelopes with
        other tags and posted receives are left alone.
        """
        with self._mutex:
            sigs = self._ctx_sigs.get(context_id)
            keys = [key for key in sigs if key[1] == tag] if sigs else ()
            if not keys:
                return []
            stamped: List[Tuple[int, Envelope]] = []
            for key in keys:
                stamped.extend(self._pending.pop(key))
            sigs.difference_update(keys)
            if not sigs:
                del self._ctx_sigs[context_id]
            n = len(stamped)
            self._pending_total -= n
            remaining = self._pending_by_ctx[context_id] - n
            if remaining:
                self._pending_by_ctx[context_id] = remaining
            else:
                del self._pending_by_ctx[context_id]
            # buckets are each in arrival order; stamps are unique
            stamped.sort(key=itemgetter(0))
            return [env for _, env in stamped]

    # -- probing ---------------------------------------------------------------
    def probe_pending(self, context_id: int, source: int, tag: int) -> Optional[Envelope]:
        """Oldest pending envelope matching the triple, without removing it."""
        with self._mutex:
            key = self._oldest_pending_key(context_id, source, tag)
            if key is None:
                return None
            return self._pending[key][0][1]

    def has_pending(self, context_id: int) -> bool:
        """O(1): is any envelope pending on this context?"""
        with self._mutex:
            return bool(self._pending_by_ctx.get(context_id))

    def pending_count(self, context_id: Optional[int] = None) -> int:
        with self._mutex:
            if context_id is None:
                return self._pending_total
            return self._pending_by_ctx.get(context_id, 0)

    def posted_count(self) -> int:
        with self._mutex:
            return self._posted_total
