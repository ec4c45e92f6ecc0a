"""The benchmark's workloads and one pass over each.

A *pass* executes a workload's job list once and returns a
:class:`PassResult`: the pass wall time, one :class:`JobRecord` per job
(host wall time, digest of its virtual-time outputs, error, the host's
speed factor while it ran), the exact counts the workload can read
without tracing (storage backend counters, service statistics), and the
reference slices timed between its jobs or segments
(:mod:`.calibrate`).

* ``failure-free-256`` — CG@128, heat@256 and ring@256 on the lemieux
  model with the scaling study's parameters, each run as the original
  program and then under C3 without checkpoints (the Tables 2-3 cell).
* ``checkpoint-fanout-128`` — ring@128 and heat@128 on lemieux, the
  original run and then C3 with 3 timer-initiated checkpoints at an
  interval of 0.45 x the original makespan / 3 (as ``measure_c3``), over
  a WAL on in-memory storage.
* ``kill-restart-service`` — two closed-loop clients submitting recovery
  jobs to a ``CampaignService`` with two workers over a WAL on a
  ``DiskStorage`` temp dir, in segments at whose ends both loops drain.
  The job mix is generated from the seed, side-by-side jobs of the same
  app and size.  The jobs run on the testing model: on lemieux a campaign-sized job ends
  before its first checkpoint is durable (0.2 ms disk latency against a
  0.4 ms makespan), so every restart there is cold and nothing is
  restored.

All jobs run on the cooperative engine, the oracle.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import C3Config, run_c3, run_original
from repro.apps import APPS
from repro.harness.loadgen import MIX_KILLS
from repro.harness.scaling import SCALING_APPS
from repro.mpi.timemodel import MACHINES
from repro.service import (
    CampaignService, JobSpec, ServiceError, canonical_result_bytes,
)
from repro.storage.stable import DiskStorage, InMemoryStorage
from repro.storage.wal import WalStore

from .calibrate import speed_factor
from .metrics import digest, digest_bytes

WORKLOADS: Tuple[str, ...] = (
    "failure-free-256", "checkpoint-fanout-128", "kill-restart-service",
)

MACHINE = MACHINES["lemieux"]
#: the service jobs' machine model (see the module docstring)
SERVICE_PLATFORM = "testing"

#: largest job first, so the median job's latency spans most of a pass
#: rather than its two shortest jobs (short windows read the host's
#: speed swings at full strength)
FAILURE_FREE_JOBS: Tuple[Tuple[str, int], ...] = (
    ("CG", 128), ("heat", 256), ("ring", 256))
FANOUT_JOBS: Tuple[Tuple[str, int], ...] = (("ring", 128), ("heat", 128))
FANOUT_CHECKPOINTS = 3
#: the checkpoint interval is this share of the original makespan,
#: divided by the checkpoint count (``measure_c3``'s rule)
FANOUT_INTERVAL_FRACTION = 0.45

SERVICE_APPS: Tuple[str, ...] = ("ring", "heat", "CG", "LU", "MG")
SERVICE_RANKS: Tuple[int, ...] = (4, 8, 16)
#: (app, ranks) cells left out of the service mix because the program's
#: own recovery verification fails on them: C3's Allreduce sums in a
#: different order from the native one at these rank counts, so even a
#: fault-free C3 run differs from the original in the last bit.  Put a
#: cell back once ``measure_recovery`` verifies it.
KNOWN_VERIFY_FAILURES: Tuple[Tuple[str, int], ...] = (("ring", 16),
                                                       ("MG", 16))
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
#: share of submissions that resubmit a spec the same client completed
RESUBMIT_SHARE = 0.25
#: a service pass runs each client's list in this many segments; the
#: closed loops drain at a segment's end, so the host's speed can be
#: timed between segments without a job running
SERVICE_SEGMENTS = 12


@dataclass
class JobRecord:
    """One job of a pass."""

    label: str
    #: the job's trace identifier (the label for batch jobs; client and
    #: submission index for the service)
    job: str
    #: host seconds: the call for batch jobs, submit -> result for the
    #: service
    wall: float
    #: digest of the virtual-time outputs (None if the job failed)
    digest: Optional[str]
    error: Optional[str] = None
    #: service only: when the client submitted (perf_counter seconds)
    submitted: float = 0.0
    #: seconds from submission to result; a batch pass submits its whole
    #: job list at once and runs it in order, so a batch job's latency
    #: also counts the jobs before it
    latency: float = 0.0
    #: the host's speed factor while the job ran (:mod:`.calibrate`);
    #: 1.0 when the pass was not calibrated
    speed: float = 1.0


@dataclass
class PassResult:
    #: host seconds the pass's jobs ran (reference slices excluded)
    wall: float
    jobs: List[JobRecord]
    #: exact counts read without tracing
    counts: Dict[str, float] = field(default_factory=dict)
    #: reference slice times taken in the pass (s)
    slices: List[float] = field(default_factory=list)
    #: (host seconds, speed factor) of each stretch of the pass timed
    #: between two slices: a batch job, a service segment
    stretches: List[Tuple[float, float]] = field(default_factory=list)


def _configured(app: str, params: dict):
    """The kernel with its parameters bound; ``APPS`` is read at call
    time so a traced pass sees the traced kernel."""

    def main(ctx):
        return APPS[app](ctx, **params)

    main.__name__ = f"{app}_configured"
    return main


def _c3_config(interval: Optional[float], checkpoints: int) -> C3Config:
    """The configuration ``measure_c3`` builds."""
    return C3Config(checkpoint_interval=interval, save_to_disk=True,
                    overlap=False, max_checkpoints=checkpoints or None)


def _job_error(result) -> Optional[str]:
    if result.errors:
        return result.errors[0][1].strip().splitlines()[-1]
    if result.failure is not None:
        return f"process failure: {result.failure}"
    return None


def _storage_counts(backends: Sequence) -> Dict[str, float]:
    return {
        "storage.writes": sum(b.write_count for b in backends),
        "storage.reads": sum(b.read_count for b in backends),
        "storage.fsyncs": sum(b.fsync_count for b in backends),
        "storage.bytes_written": sum(b.written_bytes for b in backends),
    }


def _stats_fields(stats) -> List[Optional[dict]]:
    return [None if s is None else
            {f.name: getattr(s, f.name) for f in fields(s)} for s in stats]


class _BatchRunner:
    """Runs original and C3 jobs, recording each as a :class:`JobRecord`.

    Given ``calibrate`` (a function timing one reference slice), it
    times a slice before every job and after the last, and gives each
    job the speed factor of the slices on either side of it."""

    def __init__(self, tracer=None,
                 calibrate: Optional[Callable[[], float]] = None):
        self.tracer = tracer
        self.calibrate = calibrate
        self.jobs: List[JobRecord] = []
        self.backends: List[InMemoryStorage] = []
        self.slices: List[float] = []

    def _start(self, label: str) -> float:
        if self.calibrate is not None:
            self.slices.append(self.calibrate())
        if self.tracer is not None:
            self.tracer.set_context(label)
        return time.perf_counter()

    def original(self, label: str, main, nprocs: int):
        t0 = self._start(label)
        try:
            result = run_original(main, nprocs, machine=MACHINE)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            self._record(label, t0, None, f"{type(exc).__name__}: {exc}")
            return None
        error = _job_error(result)
        self._record(label, t0, {"clocks": result.clocks,
                                 "returns": result.returns}, error)
        return None if error else result

    def c3(self, label: str, main, nprocs: int, config: C3Config):
        backend = InMemoryStorage()
        self.backends.append(backend)
        t0 = self._start(label)
        try:
            result, stats = run_c3(main, nprocs, machine=MACHINE,
                                   storage=WalStore(backend), config=config)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            self._record(label, t0, None, f"{type(exc).__name__}: {exc}")
            return
        self._record(label, t0, {"clocks": result.clocks,
                                 "returns": result.returns,
                                 "stats": _stats_fields(stats)},
                     _job_error(result))

    def _record(self, label: str, t0: float, outputs, error) -> None:
        now = time.perf_counter()
        self.jobs.append(JobRecord(
            label=label, job=label, wall=now - t0,
            digest=None if error or outputs is None else digest(outputs),
            error=error))

    def finish(self) -> PassResult:
        """The pass: jobs back to back, each one's latency the walls of
        the jobs up to and including it."""
        if self.calibrate is not None:
            self.slices.append(self.calibrate())
            for i, job in enumerate(self.jobs):
                job.speed = speed_factor(self.slices[i:i + 2])
        elapsed = 0.0
        for job in self.jobs:
            elapsed += job.wall
            job.latency = elapsed
        return PassResult(elapsed, self.jobs, _storage_counts(self.backends),
                          self.slices,
                          [(job.wall, job.speed) for job in self.jobs])


def failure_free_pass(tracer=None, calibrate=None) -> PassResult:
    runner = _BatchRunner(tracer, calibrate)
    for app, nprocs in FAILURE_FREE_JOBS:
        main = _configured(app, SCALING_APPS[app])
        label = f"{app}@{nprocs}"
        runner.original(f"{label}/original", main, nprocs)
        runner.c3(f"{label}/c3", main, nprocs, _c3_config(None, 0))
    return runner.finish()


def fanout_pass(tracer=None, calibrate=None) -> PassResult:
    runner = _BatchRunner(tracer, calibrate)
    for app, nprocs in FANOUT_JOBS:
        main = _configured(app, SCALING_APPS[app])
        label = f"{app}@{nprocs}"
        orig = runner.original(f"{label}/original", main, nprocs)
        if orig is None:
            continue
        interval = (orig.virtual_time * FANOUT_INTERVAL_FRACTION
                    / FANOUT_CHECKPOINTS)
        runner.c3(f"{label}/c3", main, nprocs,
                  _c3_config(interval, FANOUT_CHECKPOINTS))
    return runner.finish()


# ---------------------------------------------------------------------------
# kill-restart-service
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Submission:
    #: the spec's cell, e.g. ``CG@8/mid``
    key: str
    spec: JobSpec
    #: a resubmission of a spec this client already completed
    resubmit: bool


def service_cells() -> List[Tuple[str, int, str]]:
    """Every (app, ranks, kill class) of the mix, in a fixed order."""
    return [(app, n, kill) for app in SERVICE_APPS for n in SERVICE_RANKS
            for kill in MIX_KILLS
            if (app, n) not in KNOWN_VERIFY_FAILURES]


def service_plan(seed: int, cells: Optional[Sequence] = None,
                 round_: int = 0) -> List[List[Submission]]:
    """Each client's submission list for pass ``round_`` of a run,
    generated from ``seed``.

    Every cell is submitted exactly once, so the work of a pass does not
    depend on the seed; the seed and the round decide the order of the
    (app, ranks) groups and of the kill classes in a group, the specs'
    seeds, and where the resubmissions go.  The cells are dealt to the
    clients in turn, group by group, so the jobs the clients run side by
    side are the same app at the same size: a job's latency then does
    not hang on whether the seed happened to pair it with a job four
    times its size.  Each client has the same resubmission slots, and a
    resubmission repeats a spec its client completed earlier, so it is
    served by the golden-run cache whatever the timing.
    """
    rng = random.Random(f"{seed}/{round_}")
    groups: Dict[Tuple[str, int], List] = {}
    for cell in (service_cells() if cells is None else cells):
        groups.setdefault(cell[:2], []).append(cell)
    order = list(groups.values())
    rng.shuffle(order)
    for group in order:
        rng.shuffle(group)
    uniques = [Submission(
        key=f"{app}@{n}/{kill}",
        spec=JobSpec(app=app, platform=SERVICE_PLATFORM, nprocs=n,
                     seed=rng.randrange(1 << 30), storage="wal",
                     kills=MIX_KILLS[kill](n)),
        resubmit=False) for group in order for app, n, kill in group]
    plans = []
    for c in range(SERVICE_CLIENTS):
        own = uniques[c::SERVICE_CLIENTS]
        extra = round(len(own) * RESUBMIT_SHARE / (1 - RESUBMIT_SHARE))
        total = len(own) + extra
        slot_rng = random.Random(f"{seed}/{round_}/slots")
        slots = set(slot_rng.sample(range(1, total), extra))
        seq: List[Submission] = []
        done: List[Submission] = []
        fresh = iter(own)
        for pos in range(total):
            if pos in slots:
                again = rng.choice(done)
                seq.append(Submission(again.key, again.spec, True))
            else:
                sub = next(fresh)
                done.append(sub)
                seq.append(sub)
        plans.append(seq)
    return plans


async def _client(svc: CampaignService, tenant: str,
                  subs: Sequence[Submission], probes, first: Dict[str, bytes],
                  offset: int) -> List[JobRecord]:
    """A closed-loop client: submit, wait for the result, repeat.
    ``subs`` start at index ``offset`` of the client's list; ``first``
    holds the client's results so far, by cell."""
    records: List[JobRecord] = []
    for i, sub in enumerate(subs, offset):
        job_id = f"{tenant}#{i}"
        if probes is not None:
            probes.job_of_spec[id(sub.spec)] = job_id
        t0 = time.perf_counter()
        job = await svc.submit(tenant, sub.spec)
        try:
            rows = await job.result()
            error = None
        except ServiceError as exc:
            rows, error = None, f"ServiceError: {exc}"
        wall = time.perf_counter() - t0
        blob = canonical_result_bytes(rows) if rows is not None else None
        if error is None:
            if not all(r.get("passed") for r in rows):
                error = "recovery did not verify against the golden run"
            elif job.cached != sub.resubmit:
                error = ("served from cache" if job.cached
                         else "resubmission missed the cache")
            elif sub.resubmit and blob != first[sub.key]:
                error = "cached result differs from the first run"
        if not sub.resubmit and blob is not None:
            first[sub.key] = blob
        records.append(JobRecord(
            label=sub.key, job=job_id, wall=wall,
            digest=digest_bytes(blob) if blob is not None else None,
            error=error, submitted=t0, latency=wall))
    return records


async def start_service(root: str) -> Tuple[CampaignService, DiskStorage]:
    backend = DiskStorage(root)
    svc = CampaignService(backend=backend, workers=SERVICE_WORKERS)
    await svc.start()
    return svc, backend


async def _service_pass(plan, root: str, probes, calibrate) -> PassResult:
    svc, backend = await start_service(root)
    firsts: List[Dict[str, bytes]] = [{} for _ in plan]
    bounds = [[round(len(subs) * k / SERVICE_SEGMENTS)
               for k in range(SERVICE_SEGMENTS + 1)] for subs in plan]
    segments: List[Tuple[float, List[JobRecord]]] = []
    slices: List[float] = []
    try:
        for k in range(SERVICE_SEGMENTS):
            if calibrate is not None:
                slices.append(calibrate())
            t0 = time.perf_counter()
            per_client = await asyncio.gather(*[
                _client(svc, f"client{c}", subs[b[k]:b[k + 1]], probes,
                        firsts[c], b[k])
                for c, (subs, b) in enumerate(zip(plan, bounds))])
            segments.append((time.perf_counter() - t0,
                             [r for records in per_client for r in records]))
        if calibrate is not None:
            slices.append(calibrate())
        stats = svc.stats()
    finally:
        await svc.close()
    stretches = []
    for k, (wall, records) in enumerate(segments):
        speed = speed_factor(slices[k:k + 2]) if slices else 1.0
        for r in records:
            r.speed = speed
        stretches.append((wall, speed))
    jobs = [r for _, records in segments for r in records]
    hits = sum(t["hits"] for t in stats["tenants"].values())
    counts = _storage_counts([backend])
    counts.update({
        "service.submissions": len(jobs),
        "service.jobs_executed": stats["jobs_executed"],
        "service.cache_hits": hits,
        "service.cache_hit_ratio": hits / len(jobs),
    })
    return PassResult(sum(w for w, _ in stretches), jobs, counts, slices,
                      stretches)


def service_pass(plan, tmp_root: str, probes=None,
                 calibrate=None) -> PassResult:
    """One closed-loop pass over ``plan`` on a fresh service and a fresh
    disk root under ``tmp_root`` (removed afterwards), in
    :data:`SERVICE_SEGMENTS` segments; given ``calibrate``, it times a
    reference slice before every segment and after the last."""
    root = tempfile.mkdtemp(prefix="service-", dir=tmp_root)
    try:
        return asyncio.run(_service_pass(plan, os.path.join(root, "disk"),
                                         probes, calibrate))
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# The workload seam run.py drives
# ---------------------------------------------------------------------------

class Workload:
    """A named workload: set up once, then run passes."""

    def __init__(self, name: str, seed: int, tmp_root: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.tmp_root = tmp_root
        #: passes run so far; a service pass's plan depends on it
        self.passes = 0

    @property
    def is_service(self) -> bool:
        return self.name == WORKLOADS[2]

    @property
    def apps(self) -> List[str]:
        if self.name == WORKLOADS[0]:
            return [a for a, _ in FAILURE_FREE_JOBS]
        if self.name == WORKLOADS[1]:
            return [a for a, _ in FANOUT_JOBS]
        return list(SERVICE_APPS)

    def run_pass(self, probes=None, calibrate=None) -> PassResult:
        """One pass.  Given ``calibrate`` (a function timing one
        reference slice), a batch pass times a slice before every job and
        after the last, a service pass before every segment and after the
        last, and each job gets the speed factor of the slices on either
        side of its stretch."""
        tracer = probes.tracer if probes is not None else None
        self.passes += 1
        if self.name == WORKLOADS[0]:
            return failure_free_pass(tracer, calibrate)
        if self.name == WORKLOADS[1]:
            return fanout_pass(tracer, calibrate)
        plan = service_plan(self.seed, round_=self.passes - 1)
        return service_pass(plan, self.tmp_root, probes, calibrate)

    async def _start_and_stop_service(self) -> None:
        root = tempfile.mkdtemp(prefix="setup-", dir=self.tmp_root)
        try:
            svc, _ = await start_service(os.path.join(root, "disk"))
            await svc.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def probe_setup(self) -> None:
        """What a run sets up before its first job, for the set-up probe:
        for the service, a started (and then stopped) service."""
        if self.is_service:
            asyncio.run(self._start_and_stop_service())
