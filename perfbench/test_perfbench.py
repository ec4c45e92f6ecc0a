"""Tests of the benchmark itself: span arithmetic, the tail rule, a
tiny-scale pass of each workload, and the digest and count gates."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench import calibrate as C
from perfbench import metrics as M
from perfbench import run as R
from perfbench import tracing
from perfbench import workloads as W
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


class FakeClocks:
    """Hand-set wall and thread-CPU clocks for the tracer."""

    def __init__(self, monkeypatch):
        self.wall = 0.0
        self.cpu = 0.0
        monkeypatch.setattr(tracing, "_wall", lambda: self.wall)
        monkeypatch.setattr(tracing, "_cpu", lambda: self.cpu)

    def at(self, wall, cpu):
        self.wall, self.cpu = wall, cpu


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children(monkeypatch):
    clocks = FakeClocks(monkeypatch)
    t = Tracer()
    clocks.at(0.0, 0.0)
    outer = t.begin("outer")
    clocks.at(2.0, 2.0)
    inner = t.begin("inner")
    clocks.at(3.0, 3.0)
    leaf = t.begin("leaf")
    clocks.at(3.5, 3.5)
    t.end(leaf)
    clocks.at(5.0, 4.0)          # inner parked for 1 s of wall
    t.end(inner)
    clocks.at(10.0, 8.0)
    t.end(outer)
    busy, wait = t.busy(), t.wait()
    assert busy == {"outer": 6.0, "inner": 1.5, "leaf": 0.5}
    assert wait == {"outer": 1.0, "inner": 1.0, "leaf": 0.0}
    # self times add up to the outer span's duration
    assert sum(busy.values()) + sum(wait.values()) == 10.0


def test_parked_span_is_wait_not_busy(monkeypatch):
    clocks = FakeClocks(monkeypatch)
    t = Tracer()
    clocks.at(1.0, 0.25)
    f = t.begin("mpi.p2p")
    clocks.at(5.0, 1.25)         # 4 s of wall, 1 s on the CPU
    t.end(f)
    assert t.busy() == {"mpi.p2p": 1.0}
    assert t.wait() == {"mpi.p2p": 3.0}


def test_parked_thread_measured_with_real_clocks():
    t = Tracer()

    def body():
        f = t.begin("parked")
        threading.Event().wait(0.05)
        t.end(f)

    th = threading.Thread(target=body)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    assert t.wait()["parked"] >= 0.04
    assert t.busy()["parked"] < t.wait()["parked"]


def test_cross_thread_children_are_not_subtracted(monkeypatch):
    clocks = FakeClocks(monkeypatch)
    t = Tracer()
    t.set_context("job-1")
    clocks.at(0.0, 0.0)
    engine = t.begin("mpi.engine")

    def rank():
        t.set_context("job-1", engine[0])
        f = t.begin("mpi.rank")
        clocks.at(4.0, 0.0)      # the rank's own CPU clock reads 0 -> 0
        t.end(f)

    th = threading.Thread(target=rank)
    th.start()
    th.join(timeout=10)
    clocks.at(6.0, 1.0)
    t.end(engine)
    # the engine span keeps its whole duration: the rank ran beside it
    assert t.busy()["mpi.engine"] == 1.0
    assert t.wait()["mpi.engine"] == 5.0
    states = [st for st in t._threads if len(st)]
    by_cat = {st.categories[0]: st for st in states}
    assert by_cat["mpi.rank"].parents[0] == engine[0]
    assert by_cat["mpi.rank"].jobs[0] == "job-1"


def test_wrap_and_uninstall_restore_originals():
    class Target:
        def work(self, x):
            return x * 2

    original = Target.__dict__["work"]
    table = {"k": len}
    t = Tracer()
    t.wrap(Target, "work", "layer",
           after=lambda out, a, k: t.count("calls"))
    t.wrap(table, "k", "table")
    assert Target().work(3) == 6
    assert table["k"]([1, 2]) == 2
    assert t.counts() == {"calls": 1}
    assert set(t.busy()) == {"layer", "table"}
    t.uninstall()
    assert Target.__dict__["work"] is original
    assert table["k"] is len


def test_write_emits_every_span(tmp_path):
    import gzip

    t = Tracer()
    for _ in range(3):
        t.end(t.begin("a"))
    path = tmp_path / "trace.tsv.gz"
    assert t.write(str(path)) == 3
    with gzip.open(path, "rt") as f:
        lines = f.read().splitlines()
    assert len(lines) == 4 and lines[0].startswith("id\tparent")


# ---------------------------------------------------------------------------
# Percentiles and the tail rule
# ---------------------------------------------------------------------------

def test_tail_rule_needs_ten_samples_beyond():
    assert M.samples_beyond(100, 90.0) == 10
    assert M.tail_resolved(100, 90.0)
    assert not M.tail_resolved(99, 90.0)
    assert not M.tail_resolved(999, 99.0)
    assert M.tail_resolved(1000, 99.0)


def test_nearest_rank_percentile_and_median():
    values = list(range(1, 101))
    assert M.percentile(values, 90.0) == 90
    assert M.percentile(values, 50.0) == 50
    assert M.percentile([3.0], 90.0) == 3.0
    assert M.median([4.0, 1.0, 3.0]) == 3.0
    assert M.median([4.0, 1.0, 3.0, 2.0]) == 2.5


# ---------------------------------------------------------------------------
# Digest and exact-count gates on perturbed outputs
# ---------------------------------------------------------------------------

def test_digest_sees_a_last_bit_change():
    clocks = [0.5, 1.25]
    bumped = [0.5, float(np.nextafter(1.25, 2.0))]
    assert M.digest({"clocks": clocks}) == M.digest({"clocks": list(clocks)})
    assert M.digest({"clocks": clocks}) != M.digest({"clocks": bumped})
    arr = np.arange(4.0)
    other = arr.copy()
    other[2] = np.nextafter(other[2], 9.0)
    assert M.digest({"returns": [arr]}) != M.digest({"returns": [other]})


def test_gates_fire_on_perturbed_digest_and_count():
    job = W.JobRecord(label="ring@4/c3", job="ring@4/c3", wall=0.1,
                      digest="abc")
    phase = R.Phase()
    phase.passes.append(W.PassResult(0.1, [job], {}))
    expected = {"jobs": {"ring@4/c3": "abc"},
                "counts": {"mpi.envelopes": 10, "storage.fsyncs": 2}}
    counts = [{"mpi.envelopes": 10, "storage.fsyncs": 2}]
    assert R.judge([phase], counts, expected) == (1, 0, [])

    job.digest = "abd"
    attempted, failed, problems = R.judge(
        [phase], [{"mpi.envelopes": 11, "storage.fsyncs": 2}], expected)
    assert (attempted, failed) == (1, 1)
    assert any("digest" in p for p in problems)
    assert any("count mpi.envelopes" in p for p in problems)
    # a count the run did not measure is not judged
    assert M.count_mismatches({}, expected["counts"]) == {}


def test_speed_factor_scales_with_the_reference_slice():
    ref = C.REFERENCE_S
    assert C.speed_factor([ref, ref]) == pytest.approx(1.0)
    assert C.speed_factor([ref, 2 * ref, 9 * ref]) == pytest.approx(
        2 ** C.ELASTICITY)


def test_reference_slice_joins_its_threads():
    before = threading.active_count()
    assert C.reference_slice() > 0
    assert threading.active_count() == before


def test_in_reference_divides_each_job_by_its_own_speed():
    def job(label, wall, speed, latency=0.0):
        return W.JobRecord(label=label, job=label, wall=wall, digest="d",
                           latency=latency, speed=speed)

    batch = R.Phase()
    batch.passes.append(W.PassResult(
        3.0, [job("a", 2.0, 2.0, 2.0), job("b", 1.0, 1.0, 3.0)],
        stretches=[(2.0, 2.0), (1.0, 1.0)]))
    ref = R.in_reference(W.Workload("failure-free-256", 0, "."), batch)
    assert [j.wall for j in ref.jobs] == [1.0, 1.0]
    assert [j.latency for j in ref.jobs] == [1.0, 2.0]
    assert ref.walls == [2.0]

    service = R.Phase()
    service.passes.append(W.PassResult(
        5.0, [job("c", 0.5, 2.0, 0.5), job("d", 0.3, 0.5, 0.3)],
        stretches=[(4.0, 2.0), (1.0, 0.5)]))
    ref = R.in_reference(W.Workload("kill-restart-service", 0, "."), service)
    assert [j.latency for j in ref.jobs] == [0.25, 0.6]
    assert ref.walls == [4.0]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "failure-free-256", "--seed", "0", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        R.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        R.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def test_committed_expectations_cover_every_workload():
    data = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert set(data["workloads"]) == set(W.WORKLOADS)
    service = data["workloads"]["kill-restart-service"]
    assert set(service["jobs"]) == {f"{a}@{n}/{k}"
                                    for a, n, k in W.service_cells()}
    counts = service["counts"]
    assert counts["service.cache_hit_ratio"] == (
        counts["service.cache_hits"] / counts["service.submissions"])
    assert data["workloads"]["failure-free-256"]["counts"][
        "core.control_envelopes"] == 0
    for entry in data["workloads"].values():
        assert set(entry["counts"]) == set(R.EXACT_COUNTS)


# ---------------------------------------------------------------------------
# The service mix
# ---------------------------------------------------------------------------

def test_service_plan_is_seeded_and_covers_every_cell_once():
    a, b = W.service_plan(1), W.service_plan(2)
    assert W.service_plan(1) == a
    for plan in (a, b):
        subs = [s for client in plan for s in client]
        uniques = [s.key for s in subs if not s.resubmit]
        assert Counter(uniques) == Counter(
            f"{app}@{n}/{k}" for app, n, k in W.service_cells())
        for client in plan:
            fresh = sum(not s.resubmit for s in client)
            assert sum(s.resubmit for s in client) == round(fresh / 3)
            seen = set()
            for s in client:
                assert (s.key in seen) == s.resubmit
                seen.add(s.key)
        # side by side, the clients run the same app at the same size
        for x, y in zip(*plan):
            assert x.resubmit == y.resubmit
            if not x.resubmit:
                assert x.key.split("/")[0] == y.key.split("/")[0]
    assert [s.key for s in a[0]] != [s.key for s in b[0]]
    assert W.service_plan(1, round_=1) != a


def test_service_rows_do_not_depend_on_the_spec_seed(tmp_path):
    from repro.service import JobSpec, canonical_result_bytes, execute_job
    from repro.storage.stable import DiskStorage
    from repro.storage.wal import WalStore

    rows = []
    for seed in (3, 4):
        spec = JobSpec(app="ring", platform=W.SERVICE_PLATFORM, nprocs=4,
                       seed=seed, storage="wal",
                       kills=({"rank": 1, "frac": 0.55},))
        root = tmp_path / f"s{seed}"
        n = iter(range(100))
        rows.append(canonical_result_bytes(execute_job(
            spec, lambda: WalStore(DiskStorage(f"{root}/{next(n)}")))))
    assert rows[0] == rows[1]


@pytest.mark.xfail(strict=False, reason=(
    "known defect: C3's Allreduce sums in a different order from the "
    "native one at 16 ranks, so ring@16 and MG@16 fail recovery "
    "verification; the service mix leaves them out until this passes"))
def test_known_verify_failures_verify():
    from repro.harness.campaign import CAMPAIGN_PARAMS
    from repro.harness.runner import measure_recovery
    from repro.mpi.timemodel import MACHINES

    for app, n in W.KNOWN_VERIFY_FAILURES:
        row = measure_recovery(app, n, MACHINES[W.SERVICE_PLATFORM],
                               CAMPAIGN_PARAMS[app],
                               [{"rank": 1, "frac": 0.55}])
        assert row["verified"], f"{app}@{n}"


# ---------------------------------------------------------------------------
# Tiny-scale smoke of each workload, untraced and traced
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(W, "FAILURE_FREE_JOBS", (("ring", 4),))
    monkeypatch.setattr(W, "FANOUT_JOBS", (("heat", 4),))


def _traced(run_pass, apps):
    from perfbench.probes import LayerProbes

    probes = LayerProbes(Tracer())
    probes.install(apps)
    try:
        result = run_pass(probes)
    finally:
        probes.uninstall()
    return result, probes


def test_failure_free_smoke(tiny):
    from repro.mpi.communicator import Communicator

    send = Communicator.__dict__["Send"]
    plain = W.failure_free_pass(calibrate=lambda: C.REFERENCE_S)
    assert [j.label for j in plain.jobs] == ["ring@4/original", "ring@4/c3"]
    assert all(j.error is None and j.digest for j in plain.jobs)
    assert len(plain.slices) == len(plain.jobs) + 1
    assert plain.stretches == [(j.wall, 1.0) for j in plain.jobs]
    assert plain.jobs[-1].latency == pytest.approx(plain.wall)
    traced, probes = _traced(lambda p: W.failure_free_pass(p.tracer),
                             ["ring"])
    assert Communicator.__dict__["Send"] is send
    assert [j.digest for j in traced.jobs] == [j.digest for j in plain.jobs]
    counts = probes.tracer.counts()
    assert counts["mpi.engine_runs"] == 2
    assert counts["mpi.envelopes"] > 0 and counts["mpi.fiber_switches"] > 0
    assert counts.get("core.control_envelopes", 0) == 0
    busy = probes.tracer.busy()
    for category in ("mpi.p2p", "mpi.coll", "core.wrapper", "apps.kernel",
                     "mpi.engine"):
        assert busy[category] > 0, category


def test_checkpoint_fanout_smoke(tiny):
    plain = W.fanout_pass()
    assert all(j.error is None for j in plain.jobs)
    assert plain.counts["storage.fsyncs"] > 0
    traced, probes = _traced(lambda p: W.fanout_pass(p.tracer), ["heat"])
    assert [j.digest for j in traced.jobs] == [j.digest for j in plain.jobs]
    counts = probes.tracer.counts()
    # P(P-1) Checkpoint-Initiated envelopes per checkpoint
    assert counts["core.control_envelopes"] == W.FANOUT_CHECKPOINTS * 4 * 3
    assert counts["core.checkpoints_committed"] == W.FANOUT_CHECKPOINTS
    assert counts["statesave.bytes_serialized"] > 0
    assert probes.tracer.busy()["storage.commit"] > 0


def test_service_smoke(tmp_path):
    cells = [("ring", 4, "mid"), ("heat", 4, "late"), ("LU", 4, "double")]
    plan = W.service_plan(5, cells)
    first = W.service_pass(plan, str(tmp_path),
                           calibrate=lambda: C.REFERENCE_S)
    assert all(j.error is None for j in first.jobs), \
        [j.error for j in first.jobs]
    assert len(first.slices) == W.SERVICE_SEGMENTS + 1
    assert len({j.job for j in first.jobs}) == len(first.jobs)
    subs = [s for client in plan for s in client]
    assert first.counts["service.submissions"] == len(subs)
    assert first.counts["service.cache_hits"] == sum(s.resubmit for s in subs)
    traced, probes = _traced(
        lambda p: W.service_pass(plan, str(tmp_path), p),
        [app for app, _, _ in cells])
    assert traced.counts == first.counts
    by_key = {j.label: j.digest for j in first.jobs}
    assert all(by_key[j.label] == j.digest for j in traced.jobs)
    assert len(probes.executions) == len(cells)
    counts = probes.tracer.counts()
    assert counts["harness.restarts"] >= len(cells)
    busy = probes.tracer.busy()
    for category in ("service.execute", "harness.measure", "core.restore",
                     "storage.read", "statesave.loads"):
        assert busy[category] > 0, category
    assert not list(tmp_path.iterdir())
