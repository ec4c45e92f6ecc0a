"""An in-memory span tracer with per-thread stacks.

Simulated ranks run on carrier threads that stock ``cProfile`` cannot
see, so the tracer keeps one span stack per thread.  A span records its
category, its parent, the job it belongs to, and its start and end in
both wall time (``time.perf_counter``) and thread-CPU time
(``time.thread_time``).

Self time is a span's duration minus the part covered by its children on
the same thread.  A span's self thread-CPU time is its *busy* time; its
self wall time minus its busy time is its *wait* time, the time the
thread sat parked (a rank blocked in ``Recv``, a worker in ``fsync``).

A thread's first span may name a parent on another thread (a rank's
body names the engine run that launched it) through
:meth:`Tracer.set_context`; cross-thread children are never subtracted,
since they overlap their parent rather than nest in it.

Spans stay in memory and are written out by :meth:`Tracer.write` when
the run ends.  Wrappers are installed with :meth:`Tracer.wrap` and
removed by :meth:`Tracer.uninstall`, so untraced runs execute the
program unmodified.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_wall = time.perf_counter
_cpu = time.thread_time


class _ThreadState:
    """One thread's stack, aggregates and finished spans.

    Finished spans are stored column-wise (typed arrays for numbers,
    lists of shared references for categories and jobs): a traced pass
    can finish a million spans.
    """

    __slots__ = ("ident", "stack", "job", "root", "busy", "wait", "counts",
                 "ids", "parents", "jobs", "categories", "wall0", "wall1",
                 "cpu")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        #: open frames: [id, category, parent, job, child_wall,
        #: child_cpu, wall0, cpu0]
        self.stack: List[list] = []
        self.job: Any = None
        #: parent of this thread's outermost spans (0: none)
        self.root = 0
        self.busy: Dict[str, float] = defaultdict(float)
        self.wait: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.ids = array("q")
        self.parents = array("q")
        self.jobs: List[Any] = []
        self.categories: List[str] = []
        self.wall0 = array("d")
        self.wall1 = array("d")
        #: thread-CPU duration
        self.cpu = array("d")

    def __len__(self) -> int:
        return len(self.ids)


class Tracer:
    """Spans and counts at layer boundaries, kept per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: every thread state ever created; list.append is atomic
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread state -------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._threads.append(st)
        return st

    def set_context(self, job: Any, root: int = 0) -> None:
        """Tag this thread's next spans with ``job``; its outermost spans
        get ``root`` (a span id, possibly on another thread) as parent."""
        st = self._state()
        st.job = job
        st.root = root

    def current_job(self) -> Any:
        return self._state().job

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    # -- spans ------------------------------------------------------------
    def begin(self, category: str) -> list:
        st = self._state()
        parent = st.stack[-1][0] if st.stack else st.root
        frame = [next(self._ids), category, parent, st.job, 0.0, 0.0,
                 0.0, 0.0]
        st.stack.append(frame)
        frame[6] = _wall()
        frame[7] = _cpu()
        return frame

    def end(self, frame: list) -> None:
        cpu1 = _cpu()
        wall1 = _wall()
        st = self._local.st
        st.stack.pop()
        span_id, category, parent, job, child_wall, child_cpu, wall0, cpu0 \
            = frame
        dur_wall = wall1 - wall0
        dur_cpu = cpu1 - cpu0
        if st.stack:
            outer = st.stack[-1]
            outer[4] += dur_wall
            outer[5] += dur_cpu
        busy = dur_cpu - child_cpu
        st.busy[category] += busy
        st.wait[category] += (dur_wall - child_wall) - busy
        st.ids.append(span_id)
        st.parents.append(parent)
        st.jobs.append(job)
        st.categories.append(category)
        st.wall0.append(wall0)
        st.wall1.append(wall1)
        st.cpu.append(dur_cpu)

    # -- aggregates ---------------------------------------------------------
    def busy(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for st in list(self._threads):
            for k, v in st.busy.items():
                out[k] += v
        return dict(out)

    def wait(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for st in list(self._threads):
            for k, v in st.wait.items():
                out[k] += v
        return dict(out)

    def counts(self) -> Dict[str, float]:
        out: Counter = Counter()
        for st in list(self._threads):
            out.update(st.counts)
        return dict(out)

    def reset_aggregates(self) -> None:
        """Zero busy/wait/counts (spans are kept).  Call only while no
        traced thread is running, e.g. between passes."""
        for st in list(self._threads):
            st.busy.clear()
            st.wait.clear()
            st.counts.clear()

    # -- wrappers -------------------------------------------------------------
    def wrap(self, owner: Any, name: str, category: str,
             after: Optional[Callable[[Any, tuple, dict], None]] = None,
             ) -> None:
        """Replace ``owner.name`` (a class or module attribute, or a dict
        entry) with a traced wrapper; ``after(result, args, kwargs)`` runs
        on return."""
        original = owner[name] if isinstance(owner, dict) else \
            vars(owner)[name]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer.begin(category)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                after(result, args, kwargs)
            return result

        self.replace(owner, name, traced)

    def replace(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name`` (or ``owner[name]`` for a dict) to ``value``,
        remembering the original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- export -----------------------------------------------------------------
    def write(self, path: str) -> int:
        """Write every span as gzip'd tab-separated lines, one thread after
        another; returns the span count.  Times are microseconds from the
        earliest span start."""
        threads = [st for st in list(self._threads) if len(st)]
        base = min((min(st.wall0) for st in threads), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tjob\tthread\tcategory\twall_start_us\t"
                    "wall_end_us\tcpu_us\n")
            for st in threads:
                f.writelines(
                    f"{i}\t{p}\t{j}\t{st.ident}\t{c}\t"
                    f"{(w0 - base) * 1e6:.1f}\t{(w1 - base) * 1e6:.1f}\t"
                    f"{cpu * 1e6:.1f}\n"
                    for i, p, j, c, w0, w1, cpu in zip(
                        st.ids, st.parents, st.jobs, st.categories,
                        st.wall0, st.wall1, st.cpu))
        return sum(len(st) for st in threads)
