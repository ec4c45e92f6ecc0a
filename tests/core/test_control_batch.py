"""Batched control plane against the per-message path it replaced.

``ControlPlane.announce_checkpoint`` posts its P-1 Checkpoint-Initiated
envelopes through one engine-level multicast, and ``ControlPlane.poll``
drains them with one mailbox call.  The per-message implementations
(one ``Communicator.Send`` per peer; one ``recv_out_of_band`` wildcard
pop per envelope) live on only here, as the oracle: every run below is
made twice, once with each, and everything the job reports must be
bitwise equal — clocks, returns, traffic counts, every ``C3Stats``
field, the fiber-switch count, and where an injected fault lands.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.apps import APPS
from repro.core import C3Config, run_c3, run_original
from repro.core.control import ControlPlane, TAG_CKPT_INITIATED
from repro.core.modes import ProtocolError
from repro.harness.scaling import SCALING_APPS
from repro.mpi import FaultPlan, FaultSpec
from repro.mpi.engine import Engine
from repro.mpi.matching import ANY_SOURCE
from repro.mpi.timemodel import LEMIEUX

CHECKPOINTS = 3


# -- the oracle: the per-message path -------------------------------------------

def _per_message_announce(self, line, sent_counts):
    for q in range(self.nprocs):
        if q == self.rank:
            continue
        payload = np.array([line, sent_counts[q]], dtype=np.int64)
        self.comm.Send(payload, dest=q, tag=TAG_CKPT_INITIATED)


def _per_message_poll(self, on_initiated):
    n = 0
    while True:
        if not self.comm.has_pending():
            return n
        buf = np.empty(2, dtype=np.int64)
        st = self.comm.recv_out_of_band(buf, source=ANY_SOURCE,
                                        tag=TAG_CKPT_INITIATED)
        if st is None:
            return n
        line, count = int(buf[0]), int(buf[1])
        peers = self.initiated.setdefault(line, {})
        if st.source in peers:
            raise ProtocolError(
                f"duplicate Checkpoint-Initiated for line {line} from "
                f"rank {st.source}")
        peers[st.source] = count
        on_initiated(line, st.source, count)
        n += 1


def _install_oracle(monkeypatch):
    monkeypatch.setattr(ControlPlane, "announce_checkpoint",
                        _per_message_announce)
    monkeypatch.setattr(ControlPlane, "poll", _per_message_poll)


# -- running a cell ----------------------------------------------------------------

def _app(name):
    params = SCALING_APPS[name]

    def main(ctx):
        return APPS[name](ctx, **params)

    return main


def _interval(app, nprocs):
    """``measure_c3``'s spacing: 0.45 x the original makespan / 3."""
    original = run_original(_app(app), nprocs, machine=LEMIEUX)
    original.raise_errors()
    return original.virtual_time * 0.45 / CHECKPOINTS


def _outcome(monkeypatch, app, nprocs, interval, engine="cooperative",
             faults=None):
    """Everything a C3 run reports, in comparable form.

    ``faults`` builds the run's fault plan; specs remember having fired,
    so every run needs fresh ones.
    """
    engines = []
    run = Engine.run

    def recording_run(self, *args, **kw):
        engines.append(self)
        return run(self, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(Engine, "run", recording_run)
        config = C3Config(checkpoint_interval=interval, save_to_disk=True,
                          overlap=False, max_checkpoints=CHECKPOINTS)
        result, stats = run_c3(_app(app), nprocs, machine=LEMIEUX,
                               config=config,
                               fault_plan=faults() if faults else None,
                               engine=engine)
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
    }


def _differential(monkeypatch, app, nprocs, interval, **kw):
    batched = _outcome(monkeypatch, app, nprocs, interval, **kw)
    with monkeypatch.context() as m:
        _install_oracle(m)
        oracle = _outcome(monkeypatch, app, nprocs, interval, **kw)
    assert batched.keys() == oracle.keys()
    for key in batched:
        assert batched[key] == oracle[key], key
    return batched


# -- fault-free cells ------------------------------------------------------------------

@pytest.mark.parametrize("app,nprocs", [
    ("ring", 8), ("ring", 32), ("heat", 16), ("heat", 32), ("CG", 8),
    ("CG", 32),
])
def test_bitwise_equal_to_per_message_path(monkeypatch, app, nprocs):
    out = _differential(monkeypatch, app, nprocs, _interval(app, nprocs))
    assert out["failure"] is None and not out["errors"]
    for s in out["stats"]:
        # CG ends before its third timer fires
        assert s["checkpoints_committed"] == s["checkpoints_started"] >= 2
        # every rank announced each line to every peer and heard them all
        assert s["control_msgs"] == 2 * s["checkpoints_started"] * (nprocs - 1)


def test_bitwise_equal_under_sharded_engine(monkeypatch):
    out = _differential(monkeypatch, "heat", 16, _interval("heat", 16),
                        engine="sharded:2")
    assert out["failure"] is None and not out["errors"]
    assert all(s["checkpoints_committed"] == CHECKPOINTS
               for s in out["stats"])


# -- faults ----------------------------------------------------------------------------

APP, NPROCS, VICTIM, LINE = "ring", 16, 3, 2


@pytest.fixture(scope="module")
def fanout_ops():
    """The victim's op and sent counts on entry to its fan-out for
    ``LINE``."""
    interval = _interval(APP, NPROCS)
    seen = {}
    announce = ControlPlane.announce_checkpoint

    def recording(self, line, sent_counts):
        ctx = self.comm._ctx
        seen.setdefault((self.rank, line), (ctx.op_count, ctx.sent_count))
        return announce(self, line, sent_counts)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ControlPlane, "announce_checkpoint", recording)
        run_c3(_app(APP), NPROCS, machine=LEMIEUX,
               config=C3Config(checkpoint_interval=interval,
                               save_to_disk=True, overlap=False,
                               max_checkpoints=CHECKPOINTS))
    return interval, seen[(VICTIM, LINE)]


@pytest.mark.parametrize("envelope", [1, NPROCS // 2, NPROCS - 1],
                         ids=["first", "middle", "last"])
def test_kill_lands_on_the_same_fanout_envelope(monkeypatch, fanout_ops,
                                                envelope):
    interval, (op0, sent0) = fanout_ops
    out = _differential(monkeypatch, APP, NPROCS, interval,
                        faults=lambda: FaultPlan([FaultSpec(
                            rank=VICTIM, after_ops=op0 + envelope)]))
    assert out["failure"][0] == VICTIM
    # the k-th envelope's own MPI call raised, so k-1 of them went out
    assert out["sent_counts"][VICTIM] == sent0 + envelope - 1


def test_probability_fault_consumes_rng_in_the_same_order(monkeypatch,
                                                          fanout_ops):
    interval, _ = fanout_ops
    # seed 4 fires on rank 9 inside its fan-out for line 2
    out = _differential(monkeypatch, APP, NPROCS, interval,
                        faults=lambda: FaultPlan(
                            [FaultSpec(rank=r, probability=0.02)
                             for r in (2, 9)], seed=4))
    assert out["failure"][0] == 9


def test_at_time_fault(monkeypatch, fanout_ops):
    interval, _ = fanout_ops
    out = _differential(monkeypatch, APP, NPROCS, interval,
                        faults=lambda: FaultPlan([FaultSpec(
                            rank=VICTIM, at_time=2.2 * interval)]))
    assert out["failure"][0] == VICTIM
