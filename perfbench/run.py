"""The repository benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload failure-free-256 --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified.  ``--trace 1`` runs untraced passes first, then installs the
layer probes (:mod:`perfbench.probes`) and measures the per-layer
metrics on traced passes; the spans go to ``.perfbench/`` as a gzip'd
table.  Either way the run checks every job's virtual-time outputs
against the digests committed in ``perfbench/expected.json`` and every
deterministic count it measured against the committed counts, prints a
human-readable report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 1 on any digest or count mismatch or failed job.
``--record`` (with ``--trace 1``) rewrites the workload's committed
digests and counts from the run instead of checking them.

Workloads, metrics and the predictions of which layer moves which
end-to-end metric are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: the program and this package import from the root
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics as M  # noqa: E402
from perfbench.calibrate import (  # noqa: E402
    REFERENCE_S, reference_slice, speed_factor,
)

EXPECTED = ROOT / "perfbench" / "expected.json"
#: scratch space inside the checkout: temp dirs and trace files
OUT_DIR = ROOT / ".perfbench"

#: set-ups per run; ``setup_s`` is their median
SETUPS = 7
#: a run's latency percentiles need this many submissions (p90 with ten
#: samples beyond it)
MIN_SUBMISSIONS = 100

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"), ("run_wall_s", "s"), ("jobs_per_s", "jobs/s"),
    ("job_latency_p50_s", "s"), ("job_latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("mpi.envelopes", "count"), ("mpi.envelope_bytes", "bytes"),
    ("mpi.fiber_switches", "count"), ("mpi.engine_runs", "count"),
    ("mpi.us_per_envelope", "us"), ("mpi.us_per_switch", "us"),
    ("mpi.p2p_busy_s", "s"), ("mpi.coll_busy_s", "s"),
    ("mpi.blocked_wait_s", "s"), ("mpi.engine_busy_s", "s"),
    ("mpi.rank_busy_s", "s"),
    ("core.app_envelopes", "count"), ("core.control_envelopes", "count"),
    ("core.control_share", "ratio"),
    ("core.wrapper_us_per_app_envelope", "us"),
    ("core.wrapper_busy_s", "s"), ("core.control_busy_s", "s"),
    ("core.checkpoint_busy_s", "s"), ("core.setup_busy_s", "s"),
    ("core.restore_busy_s", "s"),
    ("core.checkpoints_committed", "count"), ("core.late_logged", "count"),
    ("core.replayed_from_log", "count"), ("core.suppressed_sends", "count"),
    ("statesave.bytes_serialized", "bytes"),
    ("statesave.dumps_busy_s", "s"), ("statesave.loads_busy_s", "s"),
    ("storage.writes", "count"), ("storage.reads", "count"),
    ("storage.fsyncs", "count"), ("storage.bytes_written", "bytes"),
    ("storage.fsyncs_per_line", "ratio"),
    ("storage.commit_busy_s", "s"), ("storage.read_busy_s", "s"),
    ("storage.wait_s", "s"),
    ("harness.restarts", "count"), ("harness.busy_s", "s"),
    ("service.queue_wait_p50_s", "s"), ("service.queue_wait_p90_s", "s"),
    ("service.exec_p50_s", "s"), ("service.exec_p90_s", "s"),
    ("service.cache_hit_ratio", "ratio"), ("service.cache_hits", "count"),
    ("service.submissions", "count"), ("service.jobs_executed", "count"),
    ("service.busy_s", "s"),
    ("apps.self_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"), ("trace.spans", "count"),
)

#: deterministic per-layer counts, gated exactly against expected.json
EXACT_COUNTS: Tuple[str, ...] = (
    "mpi.envelopes", "mpi.envelope_bytes", "mpi.fiber_switches",
    "mpi.engine_runs", "core.app_envelopes", "core.control_envelopes",
    "core.control_share", "core.checkpoints_committed", "core.late_logged",
    "core.replayed_from_log", "core.suppressed_sends",
    "statesave.bytes_serialized", "storage.writes", "storage.reads",
    "storage.fsyncs", "storage.bytes_written", "storage.fsyncs_per_line",
    "harness.restarts", "service.submissions", "service.jobs_executed",
    "service.cache_hits", "service.cache_hit_ratio",
)

#: busy categories -> the per-layer metric they report as
BUSY_METRICS: Dict[str, str] = {
    "mpi.p2p": "mpi.p2p_busy_s", "mpi.coll": "mpi.coll_busy_s",
    "mpi.engine": "mpi.engine_busy_s", "mpi.rank": "mpi.rank_busy_s",
    "core.wrapper": "core.wrapper_busy_s",
    "core.control": "core.control_busy_s",
    "core.checkpoint": "core.checkpoint_busy_s",
    "core.setup": "core.setup_busy_s",
    "core.restore": "core.restore_busy_s",
    "statesave.dumps": "statesave.dumps_busy_s",
    "statesave.loads": "statesave.loads_busy_s",
    "storage.commit": "storage.commit_busy_s",
    "storage.read": "storage.read_busy_s",
    "apps.kernel": "apps.self_s",
    "harness.measure": "harness.busy_s",
    "service.execute": "service.busy_s",
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, count: int,
                  ) -> Tuple[List[float], List[float]]:
    """Seconds from launching a fresh interpreter to the point where it
    would submit its first job, ``count`` times; and the reference
    slices timed before each and after the last."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    slices = [reference_slice()]
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{proc.returncode}, said {line!r})")
        samples.append(elapsed)
        slices.append(reference_slice())
    return samples, slices


class Phase:
    """Passes of one kind (untraced or traced) and what they measured."""

    def __init__(self) -> None:
        self.passes = []
        #: per traced pass: busy, wait, counts, service executions
        self.traces: List[dict] = []
        #: the process's peak RSS once the first pass ended (MB); later
        #: passes add a few MB each, and how many fit depends on the host
        self.first_pass_rss_mb = 0.0
        #: every reference slice timed in the passes (s)
        self.calibration: List[float] = []

    @property
    def walls(self) -> List[float]:
        return [p.wall for p in self.passes]

    @property
    def jobs(self):
        return [j for p in self.passes for j in p.jobs]


def run_phase(workload, budget: float, probes=None, min_jobs: int = 0,
              min_executed: int = 0) -> Phase:
    """Passes until the next one would overrun ``budget`` seconds; at
    least one pass, ``min_jobs`` jobs and ``min_executed`` service
    executions."""
    phase = Phase()
    start = time.perf_counter()
    executed = 0
    while True:
        t0 = time.perf_counter()
        result = workload.run_pass(probes, reference_slice)
        phase.calibration += result.slices
        phase.passes.append(result)
        if len(phase.passes) == 1:
            phase.first_pass_rss_mb = peak_rss_mb()
        if probes is not None:
            trace = {"busy": probes.tracer.busy(),
                     "wait": probes.tracer.wait(),
                     "counts": probes.tracer.counts(),
                     "executions": list(probes.executions)}
            phase.traces.append(trace)
            executed += len(trace["executions"])
            probes.tracer.reset_aggregates()
            probes.executions.clear()
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        enough = len(phase.jobs) >= min_jobs and executed >= min_executed
        if enough and elapsed + last > budget:
            return phase


def in_reference(workload, phase: Phase) -> Phase:
    """``phase`` with every job's wall and latency and every pass's wall
    in reference seconds, each job at its own speed factor."""
    ref = Phase()
    ref.first_pass_rss_mb = phase.first_pass_rss_mb
    for result in phase.passes:
        jobs = []
        elapsed = 0.0
        for job in result.jobs:
            wall = job.wall / job.speed
            elapsed += wall
            # a batch job's latency is the walls up to and including it
            latency = (job.latency / job.speed if workload.is_service
                       else elapsed)
            jobs.append(dataclasses.replace(job, wall=wall, latency=latency,
                                            speed=1.0))
        wall = sum(w / speed for w, speed in result.stretches)
        ref.passes.append(dataclasses.replace(
            result, wall=wall, jobs=jobs,
            stretches=[(w / speed, 1.0) for w, speed in result.stretches]))
    return ref


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _label_medians(jobs, attr: str = "wall") -> Dict[str, float]:
    by_label: Dict[str, List[float]] = {}
    for j in jobs:
        by_label.setdefault(j.label, []).append(getattr(j, attr))
    return {label: M.median(v) for label, v in by_label.items()}


def latency_samples(workload, phase: Phase) -> List[float]:
    """Submission -> result times.  Service: every submission.  Batch:
    each job of the list once, at its median over the passes, where a
    pass submits the whole list at its start."""
    if workload.is_service:
        return [j.latency for j in phase.jobs]
    return list(_label_medians(phase.jobs, "latency").values())


def run_wall(workload, phase: Phase) -> float:
    """Seconds to execute the job list once.  Batch: the sum of each
    job's median wall over the passes, which keeps a slow moment of the
    host inside one job.  Service: the median closed-loop pass."""
    if workload.is_service:
        return M.median(phase.walls)
    return sum(_label_medians(phase.jobs).values())


def end_to_end(workload, phase: Phase, setups: List[float]) -> Dict:
    latencies = latency_samples(workload, phase)
    return {
        "setup_s": M.median(setups),
        "run_wall_s": run_wall(workload, phase),
        "jobs_per_s": M.median([len(p.jobs) / p.wall for p in phase.passes]),
        "job_latency_p50_s": M.percentile(latencies, 50.0),
        "job_latency_p90_s": M.percentile(latencies, 90.0),
        "peak_rss_mb": phase.first_pass_rss_mb,
    }


def to_reference(layers: Dict[str, float], speed: float) -> Dict:
    """Per-layer metrics with their host times (units ``s`` and ``us``)
    divided by the run's ``speed``; counts and ratios unchanged."""
    units = dict(PER_LAYER)
    return {name: value / speed if units[name] in ("s", "us") else value
            for name, value in layers.items()}


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process, and the set-up interpreters it starts, to the
    last CPU it may run on.  Rank fibers and service workers are threads
    of which one runs at a time; on one CPU their handoffs are local
    context switches rather than cross-CPU wakeups, whose cost swings
    with the load of the other CPUs."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_pass_counts(phase: Phase, traced: bool) -> List[Dict[str, float]]:
    """Each pass's counts: what the workload reads itself, plus (traced
    passes) what the probes counted, plus the derived count ratios."""
    out = []
    for i, p in enumerate(phase.passes):
        counts = dict(p.counts)
        if traced:
            # every count is measured on a traced pass; absent means 0
            counts = {**dict.fromkeys(EXACT_COUNTS, 0), **counts,
                      **phase.traces[i]["counts"]}
            envelopes = counts.get("mpi.envelopes", 0)
            lines = counts.get("core.checkpoints_committed", 0)
            counts["core.control_share"] = (
                counts.get("core.control_envelopes", 0) / envelopes
                if envelopes else 0.0)
            counts["storage.fsyncs_per_line"] = (
                counts["storage.fsyncs"] / lines if lines else 0.0)
        out.append({k: v for k, v in counts.items() if k in EXACT_COUNTS})
    return out


def per_layer(workload, untraced: Phase, traced: Phase) -> Dict:
    n = len(traced.passes)
    busy: Dict[str, float] = {}
    wait: Dict[str, float] = {}
    for trace in traced.traces:
        for k, v in trace["busy"].items():
            busy[k] = busy.get(k, 0.0) + v / n
        for k, v in trace["wait"].items():
            wait[k] = wait.get(k, 0.0) + v / n
    counts = per_pass_counts(traced, traced=True)[0]
    out: Dict[str, float] = dict(counts)
    for category, metric in BUSY_METRICS.items():
        out[metric] = busy.get(category, 0.0)
    out["mpi.blocked_wait_s"] = (wait.get("mpi.p2p", 0.0)
                                 + wait.get("mpi.coll", 0.0))
    out["storage.wait_s"] = (wait.get("storage.commit", 0.0)
                             + wait.get("storage.read", 0.0))

    untraced_wall = run_wall(workload, untraced)
    envelopes = counts["mpi.envelopes"]
    switches = counts["mpi.fiber_switches"]
    out["mpi.us_per_envelope"] = (untraced_wall * 1e6 / envelopes
                                  if envelopes else 0.0)
    out["mpi.us_per_switch"] = (untraced_wall * 1e6 / switches
                                if switches else 0.0)
    out["core.wrapper_us_per_app_envelope"] = 0.0
    if not workload.is_service and counts["core.app_envelopes"]:
        med = _label_medians(untraced.jobs)
        extra = sum(w - med[label[:-3] + "/original"]
                    for label, w in med.items() if label.endswith("/c3"))
        out["core.wrapper_us_per_app_envelope"] = (
            extra * 1e6 / counts["core.app_envelopes"])

    for name in ("service.queue_wait_p50_s", "service.queue_wait_p90_s",
                 "service.exec_p50_s", "service.exec_p90_s"):
        out[name] = 0.0
    if workload.is_service:
        waits, execs = [], []
        for result, trace in zip(traced.passes, traced.traces):
            submitted = {j.job: j.submitted for j in result.jobs}
            for job, entered, exited in trace["executions"]:
                waits.append(entered - submitted[job])
                execs.append(exited - entered)
        out["service.queue_wait_p50_s"] = M.percentile(waits, 50.0)
        out["service.queue_wait_p90_s"] = M.percentile(waits, 90.0)
        out["service.exec_p50_s"] = M.percentile(execs, 50.0)
        out["service.exec_p90_s"] = M.percentile(execs, 90.0)

    traced_wall = sum(traced.walls) / n
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - sum(busy.values())
    out["trace.overhead_frac"] = (run_wall(workload, traced)
                                  / untraced_wall - 1.0)
    return out


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def load_expected() -> Dict:
    with open(EXPECTED) as f:
        return json.load(f)


def judge(phases: List[Phase], counts: List[Dict[str, float]],
          expected: Optional[Dict]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems).  A job fails if it raised, aborted,
    failed verification, or (given ``expected``) its digest differs from
    the committed one; a count mismatch is a problem, not a failed job."""
    problems: List[str] = []
    jobs = [j for ph in phases for j in ph.jobs]
    failed = 0
    for j in jobs:
        if j.error is not None:
            problem = j.error
        elif expected is not None and expected["jobs"].get(j.label) \
                != j.digest:
            problem = (f"digest {j.digest} != committed "
                       f"{expected['jobs'].get(j.label)}")
        else:
            continue
        failed += 1
        problems.append(f"{j.job} ({j.label}): {problem}")
    if expected is not None:
        for i, observed in enumerate(counts):
            for name, diff in M.count_mismatches(
                    observed, expected["counts"]).items():
                problems.append(f"pass {i}: count {name} = "
                                f"{diff['observed']}, committed "
                                f"{diff['expected']}")
    return len(jobs), failed, problems


def record(workload, phases: List[Phase],
           counts: List[Dict[str, float]]) -> List[str]:
    """Rewrite the workload's committed digests and counts from a run
    whose passes agree; returns the disagreements otherwise."""
    problems = []
    jobs: Dict[str, str] = {}
    for j in (j for ph in phases for j in ph.jobs):
        if j.error is None and jobs.setdefault(j.label, j.digest) \
                != j.digest:
            problems.append(f"{j.label}: digest differs between passes")
    merged: Dict[str, float] = {}
    for observed in counts:
        for name, value in observed.items():
            if merged.setdefault(name, value) != value:
                problems.append(f"count {name} differs between passes")
    if problems:
        return problems
    data = load_expected() if EXPECTED.exists() else {"workloads": {}}
    data["workloads"][workload.name] = {
        "jobs": dict(sorted(jobs.items())),
        "counts": dict(sorted(merged.items())),
    }
    with open(EXPECTED, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    return []


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(workload, seed: int, untraced: Phase,
                 traced: Optional[Phase], setups: List[float],
                 e2e: Dict, host_e2e: Dict, layers: Optional[Dict],
                 attempted: int, failed: int, problems: List[str],
                 speed: float, slices: int, cpu: Optional[int]) -> None:
    units = dict(END_TO_END + PER_LAYER)
    lat_n = len(latency_samples(workload, untraced))
    print(f"workload {workload.name}  seed {seed}  "
          f"untraced passes {len(untraced.passes)}  "
          f"traced passes {len(traced.passes) if traced else 0}  "
          f"pinned to CPU {cpu}")
    print(f"  host speed factor {speed:.4f} over the run ({slices} "
          f"reference slices against {REFERENCE_S} s); times are reference "
          f"seconds, host seconds in brackets")
    if workload.is_service:
        from perfbench.workloads import KNOWN_VERIFY_FAILURES
        excluded = ", ".join(f"{a}@{n}" for a, n in KNOWN_VERIFY_FAILURES)
        print(f"  mix excludes cells whose recovery fails verification "
              f"at HEAD: {excluded}")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "run_wall_s": (f"median of {len(untraced.passes)} passes"
                       if workload.is_service else
                       f"sum of job medians over {len(untraced.passes)} "
                       f"passes"),
        "jobs_per_s": (f"median of {len(untraced.passes)} passes, "
                       f"{len(untraced.jobs)} jobs"),
        "peak_rss_mb": (f"after the first pass; {peak_rss_mb():.1f} MB "
                        f"after all"),
        "job_latency_p50_s": f"{lat_n} samples",
        "job_latency_p90_s": (
            f"{lat_n} samples, {M.samples_beyond(lat_n, 90.0)} beyond"
            + ("" if M.tail_resolved(lat_n, 90.0) else
               "; below the tail rule")),
    }
    if not workload.is_service:
        jobs = "  ".join(f"{label} {wall:.3f}" for label, wall in
                         _label_medians(untraced.jobs).items())
        print(f"  job medians (s): {jobs}")
    print("  end to end")
    for name, value in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        host = (f" [{_fmt(host_e2e[name])}]" if host_e2e[name] != value
                else "")
        print(f"    {name:<34} {_fmt(value):>14} {units[name]}{host}{note}")
    print(f"    {'failed_frac':<34} "
          f"{_fmt(failed / attempted if attempted else 0.0):>14} ratio  "
          f"({failed} of {attempted} jobs)")
    if layers is not None:
        print("  per layer (per traced pass)")
        for name, unit in PER_LAYER:
            print(f"    {name:<34} {_fmt(layers[name]):>14} {unit}")
        attributed = sum(layers[m] for m in BUSY_METRICS.values())
        print(f"  accounting: traced wall {layers['trace.wall_s']:.4f} s = "
              f"busy {attributed:.4f} s + unattributed "
              f"{layers['trace.unattributed_s']:.4f} s")
        print(f"  control share: {_fmt(layers['core.control_envelopes'])} "
              f"control of {_fmt(layers['mpi.envelopes'])} envelopes; "
              f"cache: {_fmt(layers['service.cache_hits'])} hits of "
              f"{_fmt(layers['service.submissions'])} submissions")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more problems")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement time per run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the committed digests and counts")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record and not args.trace:
        print("--record needs --trace 1 (per-layer counts)", file=sys.stderr)
        return 2
    try:
        from perfbench import workloads as W
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # keep every temporary file of the program inside the checkout
    tempfile.tempdir = tmp
    try:
        workload = W.Workload(args.workload, args.seed, tmp)
        if args.setup_probe:
            workload.probe_setup()
            print("ready", flush=True)
            return 0
        return run(workload, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(workload, args) -> int:
    cpu = pin_to_one_cpu()
    setups, calibration = measure_setup(workload.name, args.seed, SETUPS)
    ref_setups = [t / speed_factor(calibration[i:i + 2])
                  for i, t in enumerate(setups)]
    min_jobs = MIN_SUBMISSIONS if workload.is_service else 0
    traced = None
    layers = None
    if not args.trace:
        untraced = run_phase(workload, args.seconds, min_jobs=min_jobs)
        counts = per_pass_counts(untraced, traced=False)
    else:
        from perfbench.probes import LayerProbes
        from perfbench.tracing import Tracer

        untraced = run_phase(workload, args.seconds / 2)
        probes = LayerProbes(Tracer())
        probes.install(workload.apps)
        try:
            traced = run_phase(
                workload, args.seconds - sum(untraced.walls), probes,
                min_executed=MIN_SUBMISSIONS if workload.is_service else 0)
        finally:
            probes.uninstall()
        layers = per_layer(workload, untraced, traced)
        counts = (per_pass_counts(untraced, traced=False)
                  + per_pass_counts(traced, traced=True))
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.tsv.gz"
        layers["trace.spans"] = (probes.tracer.write(str(trace_path))
                                 / len(traced.passes))
    e2e = end_to_end(workload, in_reference(workload, untraced), ref_setups)
    host_e2e = end_to_end(workload, untraced, setups)
    phases = [untraced] + ([traced] if traced else [])
    for phase in phases:
        calibration = calibration + phase.calibration
    speed = speed_factor(calibration)

    if args.record:
        attempted, failed, problems = judge(phases, counts, None)
        if not problems:
            problems = record(workload, phases, counts)
    else:
        expected = (load_expected()["workloads"].get(workload.name)
                    if EXPECTED.exists() else None)
        attempted, failed, problems = judge(phases, counts, expected)
        if expected is None:
            problems.append(f"no committed digests for {workload.name}")
    if layers is not None:
        layers = to_reference(layers, speed)
    print_report(workload, args.seed, untraced, traced, setups, e2e,
                 host_e2e, layers, attempted, failed, problems, speed,
                 len(calibration), cpu)
    metrics = layers if args.trace else e2e
    units = dict(END_TO_END + PER_LAYER)
    names = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
