"""Deterministic cooperative rank scheduler.

The default execution backend of the :class:`~repro.mpi.engine.Engine`.
Each rank's ``main`` runs as a *fiber*: a task that executes until it
reaches a blocking point — a mailbox wait (``Recv``/``Wait``/``Probe``,
collective internals, the C3 checkpoint coordination paths) or a failed
non-blocking completion check (``Test``/``Iprobe`` spin loops) — and
then hands the runner to the next task through one scheduling step.
Exactly one rank executes at any instant, so

* the schedule is **deterministic**: runnable ranks are serviced from a
  FIFO queue seeded in rank order, and blocked ranks are woken in rank
  order, so a job's message matching, virtual clocks, and fault
  delivery points are a pure function of the program and the fault
  plan — every run of the same job is bit-identical;
* the mailbox needs **no locks and no condition variables**: all
  matching state is mutated by whichever single task is running (the
  engine binds each mailbox to the scheduler, so a delivery is just a
  wakeup note for the scheduling step);
* **wakeups are exact**: a delivery or notification marks the target
  rank dirty, and the scheduling step re-evaluates only dirty ranks' wait
  predicates, resuming exactly the ranks whose predicate became true
  (or that have a due fault to observe) — there are no notify-all
  storms and no timeout polls;
* **deadlock is detected instantly**: when every live rank is blocked
  and no wait predicate holds, no future delivery can occur (only
  ranks send), so the scheduler declares deadlock immediately instead
  of burning the wall-clock watchdog timeout.

CPython cannot suspend an arbitrary call stack (no first-class
continuations, and ``greenlet`` is not a dependency), so each fiber is
*carried* by a parked OS thread with a small stack: the carrier blocks
on a private bare ``_thread`` lock whenever its task is not scheduled.
There is no central loop thread to bounce through: the task that parks
runs the scheduling step itself (wakeups, deadlock detection, the
sharded hooks) and releases the lock of the task it picked, so a fiber
switch is one OS wakeup, and none when a yielding task picks itself.
The launching thread only waits for the job to end and keeps the
stuck-task watchdog.  The cooperative discipline — one runner at a time,
explicit yield points — is what delivers the determinism and the
scalability; the carrier threads are an implementation detail that
never run concurrently.  This is what lets platform models run at the
paper's true process counts (256+ ranks sweep in
:mod:`repro.harness.scaling`).

Rank code must reach its blocking points *through the simulated MPI
layer*: a task that blocks on a bare OS primitive (``Event.wait``,
``time.sleep`` loops) stalls the job, because it holds the only runner
without yielding.  The launching thread guards against this: once the
job is past its wall deadline plus :attr:`CooperativeScheduler.HANDOFF_GRACE`
and the running task has not parked for a whole watch period, the task
is abandoned (its daemon carrier leaks; if it ever parks or finishes, it
sees itself abandoned and stops without touching the scheduler) and the
job aborts with an engine-watchdog error.

See DESIGN.md section 4 for the execution-model contract.
"""

from __future__ import annotations

import _thread
import threading
import time as _time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from .errors import DeadlockError, JobAborted

#: task states
_RUNNING = "running"
_BLOCKED = "blocked"
_YIELDED = "yielded"
_DONE = "done"


def _locked() -> "_thread.LockType":
    lock = _thread.allocate_lock()
    lock.acquire()
    return lock


class RankTask:
    """One rank's fiber: a parked carrier thread plus scheduling state."""

    __slots__ = ("rank", "lock", "thread", "state", "predicate", "leaked")

    def __init__(self, rank: int):
        self.rank = rank
        #: held while the task is parked; whoever schedules the task
        #: releases it (exactly once per park, so no release ever finds
        #: it unlocked)
        self.lock = _locked()
        self.thread: Optional[threading.Thread] = None
        self.state = _YIELDED
        #: wait predicate registered by the current blocking operation
        self.predicate: Optional[Callable[[], bool]] = None
        #: True once the watchdog abandoned a non-yielding task
        self.leaked = False


class CooperativeScheduler:
    """One rank fiber at a time, each handing the runner to the next."""

    #: carrier-thread stack size: tasks never recurse deeply, and with
    #: one runner at a time there is no per-thread working set beyond
    #: the (lazily committed) stack — 512 KiB bounds a 1024-rank job to
    #: 0.5 GiB of *virtual* address space
    STACK_BYTES = 512 << 10

    #: extra wall-clock grace beyond the job deadline before the
    #: watchdog abandons a task that never yields (non-MPI blocking call)
    HANDOFF_GRACE = 30.0

    #: consecutive no-progress switches (yield/block with no mailbox
    #: activity) before :meth:`_on_idle_spin` fires; a no-op hook here,
    #: overridden by the sharded worker loop to poll its master pipe so
    #: Test/Iprobe spinners waiting on cross-shard traffic make progress
    SPIN_HOOK_EVERY = 64

    def __init__(self, engine, ranks=None):
        self.engine = engine
        #: the subset of ranks this loop runs (None = all engine ranks);
        #: the sharded backend runs one loop per simulated-node group
        self.ranks = None if ranks is None else [int(r) for r in ranks]
        #: the task holding the runner
        self._current: Optional[RankTask] = None
        #: ranks whose mailbox saw activity since they blocked
        self._dirty: Set[int] = set()
        self._blocked: Dict[int, RankTask] = {}
        self._runnable: Deque[RankTask] = deque()
        self._live = 0
        self._idle_spins = 0
        self._deadline = 0.0
        self._errors: List = []
        #: released by whoever finds the job over
        self._done = _locked()
        #: orders a parking task's state change against the watchdog's
        #: abandon decision
        self._guard = _thread.allocate_lock()
        #: an exception the scheduling step raised on a carrier thread,
        #: re-raised by :meth:`run` on the launching thread
        self._crash: Optional[BaseException] = None
        #: set when every live rank is blocked with no wakeup possible;
        #: observed by parked tasks, which unwind with DeadlockError
        self.deadlocked = False
        self._deadlock_ranks: List[int] = []
        self._tasks: List[RankTask] = []
        #: statistics: fiber context switches performed
        self.switches = 0

    # -- wakeup notes (called from mailboxes, possibly off-loop) -----------
    def mailbox_activity(self, rank: int) -> None:
        """Note a delivery/notification for ``rank`` (its wait predicate
        may have become true); ``set.add`` is atomic, so faults signalled
        from the engine's abort path are safe too."""
        self._dirty.add(rank)

    # -- task-side suspension points ---------------------------------------
    def wait(self, predicate: Callable[[], bool],
             poll: Optional[Callable[[], None]] = None) -> None:
        """Park the calling rank until ``predicate()`` holds or the job
        aborts/deadlocks.

        There is no timeout: the scheduling step resumes the rank when a
        delivery or notification makes its predicate true.  The
        predicate is checked before the abort flag (an operation whose
        match already arrived completes even under abort), and ``poll``
        runs on every wakeup in the task's own context so due faults and
        deadline errors raise on the right rank.
        """
        task = self._current
        abort = self.engine.abort_event
        while True:
            if predicate():
                return
            if abort.is_set():
                raise JobAborted()
            if self.deadlocked:
                raise DeadlockError(self._deadlock_message())
            if poll is not None:
                poll()
                if predicate():
                    return
            task.predicate = predicate
            self._park(task, _BLOCKED)

    def yield_now(self) -> None:
        """Fairness point: hand the loop one turn, stay runnable.

        Called on failed non-blocking completion checks so ``Test`` /
        ``Iprobe`` spin loops let their peers progress instead of
        monopolizing the single runner.  Raises :class:`JobAborted` once
        the job aborted: the task is taken from ``_current``, and a
        carrier the watchdog abandoned (which always aborts the job
        first) must not park the task that holds the runner now.
        """
        if self.engine.abort_event.is_set():
            raise JobAborted()
        task = self._current
        if task is not None:
            self._park(task, _YIELDED)

    def _park(self, task: RankTask, state: str) -> None:
        """Give up the runner in ``state`` and sleep until picked again."""
        if self._hand_off(task, state):
            task.lock.acquire()
        task.state = _RUNNING

    def _hand_off(self, task: RankTask, state: str) -> bool:
        """Run the scheduling step on the leaving task's own thread and
        wake the task it picks; False if it picked ``task`` itself.

        An abandoned task stops here: the watchdog already scheduled
        past it, so it must neither touch the run queues nor release a
        lock — the task it would pick may already be running (a second
        runner), and ``release()`` of the job-over lock after the job
        ended raises.  A parking one then sleeps on its own lock for good
        (nobody releases it); a finished one just ends.
        """
        with self._guard:
            if task.leaked:
                return True
            task.state = state
        try:
            nxt = self._advance(task)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._crash = exc
            nxt = None
        if nxt is task:
            return False
        if nxt is None:
            self._done.release()
        else:
            nxt.lock.release()
        return True

    def _deadlock_message(self) -> str:
        return (f"cooperative deadlock: all live ranks blocked with no "
                f"matching traffic possible "
                f"(blocked ranks: {self._deadlock_ranks})")

    # -- extension hooks (overridden by the sharded worker loop) -----------
    def _on_quiescent(self) -> bool:
        """All live ranks are blocked and no wait predicate holds.

        Return True if external traffic may still arrive (the override
        marks ranks dirty after delivering it); False means quiescence
        is final and the loop declares deadlock.  A single-loop run has
        no external traffic source, so the default is final.
        """
        return False

    def _on_idle_spin(self) -> None:
        """Ran after :data:`SPIN_HOOK_EVERY` consecutive switches with
        no mailbox activity — runnable ranks are spinning in
        non-blocking completion checks with nothing arriving."""

    # -- carriers ------------------------------------------------------------
    def _start_carriers(self, body: Callable[[int], None]) -> None:
        def carrier(task: RankTask) -> None:
            task.lock.acquire()         # wait to be scheduled the first time
            task.state = _RUNNING
            try:
                body(task.rank)         # never raises (engine worker wrapper)
            finally:
                self._hand_off(task, _DONE)

        old_stack = threading.stack_size()
        try:
            threading.stack_size(self.STACK_BYTES)
        except (ValueError, RuntimeError):  # pragma: no cover - platform quirk
            pass
        try:
            for task in self._tasks:
                task.thread = threading.Thread(
                    target=carrier, args=(task,), daemon=True,
                    name=f"coop-rank-{task.rank}")
                task.thread.start()
        finally:
            try:
                threading.stack_size(old_stack)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass

    # -- the scheduling step ---------------------------------------------------
    def _advance(self, left: Optional[RankTask],
                 abandoned: bool = False) -> Optional[RankTask]:
        """Account for the task that just gave up the runner, then pick
        the next one to run; None when no live task is left.

        Runs on whichever thread holds the runner: the leaving task's
        carrier, or the launching thread for the first pick and after an
        abandon.
        """
        engine = self.engine
        runnable = self._runnable
        blocked = self._blocked
        if abandoned:
            # The task never yielded: it is stuck in a non-MPI blocking
            # call or an unbounded compute.  Fail the job and stop
            # trusting the task.
            self._errors.append((
                -1,
                f"cooperative engine watchdog: rank {left.rank} never "
                f"yielded (blocked outside the simulated MPI layer?)"))
            engine.abort(None)
            self._live -= 1
        elif left is not None:
            state = left.state
            if state == _DONE:
                self._live -= 1
                self._idle_spins = 0
            else:
                if state == _BLOCKED:
                    blocked[left.rank] = left
                else:  # _YIELDED: round-robin to the back of the queue
                    runnable.append(left)
                self._idle_spins += 1
            if self._dirty:
                self._idle_spins = 0
            elif self._idle_spins >= self.SPIN_HOOK_EVERY:
                self._idle_spins = 0
                self._on_idle_spin()

        abort = engine.abort_event
        while self._live:
            if abort.is_set() or _time.monotonic() > self._deadline:
                # Wake everything: blocked tasks observe the abort flag
                # (JobAborted) or the expired deadline (their poll's
                # check_deadline raises DeadlockError and aborts).
                for r in sorted(blocked):
                    runnable.append(blocked.pop(r))
                self._dirty.clear()
            elif self._dirty:
                # Exact wakeups: only dirty ranks are re-examined, and
                # only those whose predicate holds (or that must observe
                # a due fault) are resumed — in rank order.
                wake = self._dirty & blocked.keys()
                self._dirty.clear()
                contexts = engine.rank_contexts
                for r in sorted(wake):
                    task = blocked[r]
                    if task.predicate() or contexts[r].has_due_fault:
                        del blocked[r]
                        runnable.append(task)
            if not runnable:
                if not blocked:  # pragma: no cover - defensive
                    return None
                # Every live rank is blocked and no predicate holds.  In
                # a sharded run another shard (or an in-transit envelope)
                # may still wake us: ask the hook before giving up.
                if self._on_quiescent():
                    continue
                # No rank can ever deliver again — instant deadlock.
                # Wake them so each unwinds with DeadlockError/JobAborted.
                # A hook that already learned the global picture (sharded
                # master naming blocked ranks on every shard) has set
                # _deadlock_ranks itself; keep its list in that case.
                self.deadlocked = True
                if not self._deadlock_ranks:
                    self._deadlock_ranks = sorted(blocked)
                for r in sorted(blocked):
                    runnable.append(blocked.pop(r))
                continue
            task = runnable.popleft()
            if task.state == _DONE:  # pragma: no cover - defensive
                continue
            self._current = task
            self.switches += 1
            return task
        return None

    # -- the launching thread ----------------------------------------------------
    def run(self, body: Callable[[int], None], deadline: float,
            errors: List) -> None:
        """Execute ``body(rank)`` for every rank to completion."""
        engine = self.engine
        ranks = self.ranks if self.ranks is not None else range(engine.nprocs)
        self._tasks = [RankTask(r) for r in ranks]
        self._runnable = deque(self._tasks)
        self._live = len(self._tasks)
        self._deadline = deadline
        self._errors = errors
        self._start_carriers(body)
        nxt = self._advance(None)
        while nxt is not None:
            nxt.lock.release()
            nxt = self._watch()
        if self._crash is not None:
            raise self._crash

    def _watch(self) -> Optional[RankTask]:
        """Wait for the job to end; past the deadline plus the grace,
        abandon a task that holds the runner for a whole watch period
        and return the task picked after it."""
        while True:
            seen = self.switches
            budget = max(1.0, self._deadline + self.HANDOFF_GRACE
                         - _time.monotonic())
            if self._done.acquire(timeout=budget):
                return None
            with self._guard:
                task = self._current
                stuck = self.switches == seen and task.state == _RUNNING
                if stuck:
                    task.leaked = True
            if stuck:
                return self._advance(task, abandoned=True)
