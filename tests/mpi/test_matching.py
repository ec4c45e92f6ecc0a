"""Mailbox matching semantics: wildcards, ordering, truncation."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.errors import JobAborted, TruncationError
from repro.mpi.matching import ANY_SOURCE, ANY_TAG, Mailbox, PostedRecv, signature_matches
from repro.mpi.message import Envelope, MessageSignature


def env(source=0, tag=0, ctx=0, payload=b"x", dest=0, seq=0):
    return Envelope(MessageSignature(source, tag, ctx), payload, len(payload),
                    "MPI_BYTE", dest, seq=seq)


def mailbox():
    return Mailbox(0, threading.Event())


class TestSignatureMatching:
    def test_exact(self):
        assert signature_matches(env(1, 2, 3), 3, 1, 2)

    def test_wrong_context_never_matches(self):
        assert not signature_matches(env(1, 2, 3), 4, ANY_SOURCE, ANY_TAG)

    def test_any_source(self):
        assert signature_matches(env(5, 2, 0), 0, ANY_SOURCE, 2)

    def test_any_tag(self):
        assert signature_matches(env(1, 9, 0), 0, 1, ANY_TAG)

    def test_both_wildcards(self):
        assert signature_matches(env(7, 8, 0), 0, ANY_SOURCE, ANY_TAG)

    def test_source_mismatch(self):
        assert not signature_matches(env(1, 2, 0), 0, 2, 2)


class TestMailbox:
    def test_deliver_then_post(self):
        mb = mailbox()
        mb.deliver(env(1, 5, 0, b"abc"))
        pr = PostedRecv(0, 1, 5, 100)
        mb.post(pr)
        assert pr.matched
        assert pr.envelope.payload == b"abc"

    def test_post_then_deliver(self):
        mb = mailbox()
        pr = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr)
        assert not pr.matched
        mb.deliver(env(2, 3, 0))
        assert pr.matched

    def test_earliest_posted_recv_wins(self):
        mb = mailbox()
        pr1 = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        pr2 = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr1)
        mb.post(pr2)
        mb.deliver(env())
        assert pr1.matched and not pr2.matched

    def test_oldest_pending_message_wins(self):
        mb = mailbox()
        mb.deliver(env(0, 1, 0, b"first"))
        mb.deliver(env(0, 1, 0, b"second"))
        pr = PostedRecv(0, 0, 1, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"first"

    def test_tag_selection_skips_nonmatching(self):
        # the app may consume messages out of arrival order by tag —
        # the paper's Section 2.4 observation
        mb = mailbox()
        mb.deliver(env(0, 1, 0, b"tag1"))
        mb.deliver(env(0, 2, 0, b"tag2"))
        pr = PostedRecv(0, 0, 2, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"tag2"
        pr2 = PostedRecv(0, 0, 1, 100)
        mb.post(pr2)
        assert pr2.envelope.payload == b"tag1"

    def test_truncation_raises(self):
        mb = mailbox()
        mb.deliver(env(0, 0, 0, b"0123456789"))
        with pytest.raises(TruncationError):
            mb.post(PostedRecv(0, 0, 0, 4))

    def test_cancel_unmatched(self):
        mb = mailbox()
        pr = PostedRecv(0, 0, 0, 10)
        mb.post(pr)
        assert mb.cancel(pr)
        mb.deliver(env())
        assert not pr.matched
        assert mb.pending_count() == 1

    def test_cancel_matched_fails(self):
        mb = mailbox()
        mb.deliver(env())
        pr = PostedRecv(0, 0, 0, 10)
        mb.post(pr)
        assert not mb.cancel(pr)

    def test_probe_does_not_consume(self):
        mb = mailbox()
        mb.deliver(env(3, 4, 0))
        assert mb.probe_pending(0, 3, 4) is not None
        assert mb.pending_count() == 1

    def test_abort_wakes_wait(self):
        abort = threading.Event()
        mb = Mailbox(0, abort)
        abort.set()
        with pytest.raises(JobAborted):
            mb.wait_for(lambda: False)

    def test_abort_after_delivery_still_completes(self):
        # Regression: the predicate must be checked before the abort flag,
        # or an operation whose match already arrived is retroactively
        # reported as JobAborted.
        abort = threading.Event()
        mb = Mailbox(0, abort)
        pr = PostedRecv(0, 0, 0, 100)
        mb.post(pr)
        mb.deliver(env(0, 0, 0, b"data"))
        abort.set()
        mb.wait_for(lambda: pr.matched)  # must NOT raise JobAborted
        assert pr.envelope.payload == b"data"

    def test_delivery_wakes_blocked_waiter_without_timeout(self):
        # The wait has no timeout poll: a delivery must wake it directly.
        mb = mailbox()
        pr = PostedRecv(0, 0, 0, 100)
        mb.post(pr)
        t = threading.Thread(target=mb.wait_for, args=(lambda: pr.matched,))
        t.start()
        mb.deliver(env(0, 0, 0))
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_stats(self):
        mb = mailbox()
        mb.deliver(env(payload=b"abcd"))
        mb.deliver(env(payload=b"ef"))
        assert mb.delivered_count == 2
        assert mb.delivered_bytes == 6


class TestWildcardOrdering:
    """Ordering guarantees of the signature-indexed mailbox: wildcard
    receives observe exactly the order a linear arrival-order scan gives."""

    def test_wildcard_recv_takes_oldest_across_signatures(self):
        mb = mailbox()
        mb.deliver(env(2, 9, 0, b"first"))
        mb.deliver(env(1, 3, 0, b"second"))
        pr = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"first"
        pr2 = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(pr2)
        assert pr2.envelope.payload == b"second"

    def test_source_wildcard_respects_arrival_order_per_tag(self):
        mb = mailbox()
        mb.deliver(env(3, 7, 0, b"a"))
        mb.deliver(env(1, 7, 0, b"b"))
        mb.deliver(env(3, 8, 0, b"other-tag"))
        pr = PostedRecv(0, ANY_SOURCE, 7, 100)
        mb.post(pr)
        assert pr.envelope.payload == b"a"
        assert pr.envelope.source == 3

    def test_exact_posted_before_wildcard_wins(self):
        mb = mailbox()
        exact = PostedRecv(0, 1, 5, 100)
        wild = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        mb.post(exact)
        mb.post(wild)
        mb.deliver(env(1, 5, 0, b"x"))
        assert exact.matched and not wild.matched

    def test_wildcard_posted_before_exact_wins(self):
        mb = mailbox()
        wild = PostedRecv(0, ANY_SOURCE, ANY_TAG, 100)
        exact = PostedRecv(0, 1, 5, 100)
        mb.post(wild)
        mb.post(exact)
        mb.deliver(env(1, 5, 0, b"x"))
        assert wild.matched and not exact.matched
        mb.deliver(env(1, 5, 0, b"y"))
        assert exact.matched
        assert exact.envelope.payload == b"y"

    def test_probe_wildcard_returns_oldest(self):
        mb = mailbox()
        mb.deliver(env(5, 1, 0, b"old"))
        mb.deliver(env(4, 2, 0, b"new"))
        got = mb.probe_pending(0, ANY_SOURCE, ANY_TAG)
        assert got.payload == b"old"
        assert mb.pending_count() == 2

    def test_has_pending_per_context(self):
        mb = mailbox()
        assert not mb.has_pending(0)
        mb.deliver(env(0, 0, ctx=3))
        assert mb.has_pending(3)
        assert not mb.has_pending(0)
        pr = PostedRecv(3, 0, 0, 100)
        mb.post(pr)
        assert not mb.has_pending(3)

    def test_counts_track_buckets(self):
        mb = mailbox()
        for tag in range(4):
            mb.deliver(env(0, tag, 0))
        assert mb.pending_count() == 4
        assert mb.pending_count(0) == 4
        mb.post(PostedRecv(0, 0, 2, 100))
        assert mb.pending_count() == 3
        prs = [PostedRecv(0, 9, 9, 100), PostedRecv(0, ANY_SOURCE, 1, 100)]
        for pr in prs:
            mb.post(pr)
        assert mb.posted_count() == 1  # the wildcard matched tag 1 instantly
        assert mb.cancel(prs[0])
        assert mb.posted_count() == 0


class TestDrainPending:
    """``drain_pending``: every pending envelope of one (context, tag),
    oldest arrival first, in one call."""

    def test_arrival_order_across_interleaved_sources(self):
        mb = mailbox()
        order = [(3, b"a"), (1, b"b"), (3, b"c"), (2, b"d"), (1, b"e"),
                 (2, b"f")]
        for source, payload in order:
            mb.deliver(env(source, 1, 0, payload))
        got = mb.drain_pending(0, 1)
        assert [(e.source, e.payload) for e in got] == order

    def test_other_tags_and_posted_receives_untouched(self):
        mb = mailbox()
        exact = PostedRecv(0, 4, 1, 100)   # waits for a source that never sends
        mb.post(exact)
        mb.deliver(env(1, 1, 0, b"a"))
        mb.deliver(env(1, 2, 0, b"registry"))   # other tag, same context
        mb.deliver(env(2, 1, 0, b"b"))
        mb.deliver(env(2, 1, 5, b"other context"))
        assert [e.payload for e in mb.drain_pending(0, 1)] == [b"a", b"b"]
        assert not exact.matched
        assert mb.posted_count() == 1
        assert mb.pending_count(0) == 1
        assert mb.probe_pending(0, ANY_SOURCE, ANY_TAG).payload == b"registry"
        assert mb.pending_count(5) == 1
        mb.deliver(env(4, 1, 0, b"late"))   # the posted receive still matches
        assert exact.matched and exact.envelope.payload == b"late"

    def test_bookkeeping_after_partial_and_full_drain(self):
        mb = mailbox()
        for source in range(3):
            mb.deliver(env(source, 1, 0))
            mb.deliver(env(source, 2, 0))
        assert len(mb.drain_pending(0, 1)) == 3
        assert mb.has_pending(0)
        assert mb.pending_count() == mb.pending_count(0) == 3
        assert mb._ctx_sigs[0] == {(s, 2, 0) for s in range(3)}
        assert len(mb.drain_pending(0, 2)) == 3
        assert not mb.has_pending(0)
        assert mb.pending_count() == mb.pending_count(0) == 0
        assert 0 not in mb._ctx_sigs and not mb._pending

    def test_empty_drain_changes_nothing(self):
        mb = mailbox()
        assert mb.drain_pending(0, 1) == []
        mb.deliver(env(1, 2, 0))
        before = (mb.pending_count(), mb.pending_count(0),
                  dict(mb._ctx_sigs), mb._arrival_seq)
        assert mb.drain_pending(0, 1) == []
        assert mb.drain_pending(7, 2) == []
        assert (mb.pending_count(), mb.pending_count(0),
                dict(mb._ctx_sigs), mb._arrival_seq) == before

    def test_holds_the_mutex_when_unbound(self):
        mb = mailbox()
        mb.deliver(env(1, 1, 0))
        got = []
        with mb._cond:
            t = threading.Thread(target=lambda: got.append(
                mb.drain_pending(0, 1)))
            t.start()
            t.join(0.05)
            assert t.is_alive() and not got
        t.join(5)
        assert not t.is_alive()
        assert len(got[0]) == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)),
                max_size=16))
def test_drain_equals_repeated_wildcard_pops(messages):
    """Property: one drain returns what popping ANY_SOURCE one envelope
    at a time would, in the same order."""
    a, b = mailbox(), mailbox()
    for i, (source, tag) in enumerate(messages):
        for mb in (a, b):
            mb.deliver(env(source, tag, 0, payload=str(i).encode()))
    popped = []
    while (e := a.pop_pending(0, ANY_SOURCE, 1)) is not None:
        popped.append(e)
    assert b.drain_pending(0, 1) == popped
    assert b.pending_count(0) == a.pending_count(0)
    assert b._ctx_sigs == a._ctx_sigs

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=12))
def test_per_signature_fifo(messages):
    """Property: messages with equal (source, tag) are received in send
    order, no matter how other signatures interleave (MPI non-overtaking)."""
    mb = mailbox()
    seq = {}
    for source, tag in messages:
        k = (source, tag)
        seq[k] = seq.get(k, 0) + 1
        mb.deliver(env(source, tag, 0, payload=str(seq[k]).encode()))
    got = {}
    for source, tag in messages:
        pr = PostedRecv(0, source, tag, 100)
        mb.post(pr)
        assert pr.matched
        k = (source, tag)
        got[k] = got.get(k, 0) + 1
        assert pr.envelope.payload == str(got[k]).encode()
