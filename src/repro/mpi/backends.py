"""Pluggable execution backends behind one registry.

``Engine`` used to dispatch its launch paths through an inline
``if/elif`` over backend-name strings, with the spelling table, the
wall-watchdog arming, and the per-study ``--engine`` help text each
keeping a private copy of the backend vocabulary.  This module is the
single source of truth instead:

* :class:`ExecutionBackend` — the interface one backend implements:
  its canonical name and accepted spellings, capability flags
  (``supports_real_kill``, ``supports_shards``, ``deterministic``),
  an :meth:`~ExecutionBackend.available` environment probe, and the
  :meth:`~ExecutionBackend.launch` path that actually runs rank bodies.
  The base class owns the wall-clock watchdog: backends that need a
  Timer (``uses_wall_timer``) get it armed *and* cancelled here, in one
  ``try/finally``, so no launch path — normal exit, abort, or a raise
  mid-start — can leak a live Timer.
* :data:`BACKENDS` / :func:`register` — the registry.  ``harness.jobs``
  derives the ``--engine`` CLI validation and help text from it, and
  ``service.JobSpec`` validates submissions against it, so an unknown
  spelling produces the same error message everywhere.
* :func:`resolve_backend` — spelling -> canonical spec (previously in
  :mod:`repro.mpi.engine`; re-exported there for compatibility).
  Backends with ``takes_count`` accept a ``":N"`` suffix
  (``"sharded:8"``, ``"processes:2"``).

The four registered backends are ``cooperative`` (deterministic fiber
scheduler, the oracle), ``threads`` (thread-per-rank escape hatch),
``sharded[:N]`` (forked node-shards under an LBTS window, DESIGN.md
§10), and ``processes[:N]`` (real OS processes with real SIGKILL fault
delivery and recovery from shared stable storage, DESIGN.md §12 —
defined in :mod:`repro.mpi.processes`).
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BACKENDS", "ExecutionBackend", "backend_for", "engine_choices",
    "engine_help", "register", "resolve_backend", "split_spec",
]


class ExecutionBackend:
    """One way of executing a job's rank bodies.

    Subclasses implement :meth:`_launch`; everything else — watchdog
    ownership, availability fallback, capability introspection — is
    shared.  Backends are stateless singletons: per-run state lives on
    the :class:`~repro.mpi.engine.Engine`.
    """

    #: canonical name (also the registry key)
    name: str = ""
    #: accepted ``engine=`` spellings besides the canonical name
    aliases: Tuple[str, ...] = ()
    #: accepts a ``":N"`` worker-count suffix (``"sharded:8"``)
    takes_count: bool = False
    #: one-line summary, folded into the shared ``--engine`` help text
    summary: str = ""

    # -- capability flags (satellite: studies consult these instead of
    # -- scattering ``if engine == ...`` checks) ----------------------------
    #: fault specs are delivered as actual SIGKILLs to OS processes;
    #: fault-injected jobs therefore need stable storage that survives
    #: the process (a disk-backed store)
    supports_real_kill: bool = False
    #: ranks are partitioned across forked workers (parallel across
    #: cores; cross-worker clocks synchronized by the LBTS window)
    supports_shards: bool = False
    #: completed runs are bit-reproducible against the cooperative
    #: oracle on the differential battery's kernels
    deterministic: bool = True
    #: arm a wall-clock Timer that wakes all mailboxes at the deadline
    #: (backends whose run loop cannot observe the deadline itself)
    uses_wall_timer: bool = False

    def available(self) -> Optional[str]:
        """``None`` if the backend can run here, else a reason string.

        ``Engine.run`` degrades an unavailable backend to the
        cooperative oracle with a :class:`RuntimeWarning` naming the
        reason, instead of failing the job.
        """
        return None

    def launch(self, engine, body: Callable[[int], None], timeout: float,
               errors: List[Tuple[int, str]], returns: List[Any]) -> None:
        """Run ``body(rank)`` for every rank, mutating state in place.

        Owns the wall watchdog: armed before and cancelled after
        :meth:`_launch` in one ``try/finally``, so neither an abort nor
        an exception mid-launch leaks a live Timer (the bug the old
        per-backend arming made possible).
        """
        watchdog: Optional[threading.Timer] = None
        if self.uses_wall_timer:
            # Blocking waits have no timeout; the watchdog wakes every
            # mailbox at the deadline so blocked ranks observe it
            # (check_deadline) and unwind with DeadlockError.
            watchdog = threading.Timer(timeout + 0.05,
                                       engine._on_wall_deadline)
            watchdog.daemon = True
            watchdog.start()
        try:
            self._launch(engine, body, timeout, errors, returns)
        finally:
            if watchdog is not None:
                watchdog.cancel()

    def _launch(self, engine, body: Callable[[int], None], timeout: float,
                errors: List[Tuple[int, str]], returns: List[Any]) -> None:
        raise NotImplementedError

    def worker_count(self, engine) -> int:
        """Requested worker-process count from a ``name:N`` spec.

        Bare specs default to the CPU count; the shard planner clamps
        to the simulated node count either way.
        """
        _base, _sep, count = engine.backend.partition(":")
        if count:
            return int(count)
        return os.cpu_count() or 1


#: canonical name -> backend singleton, in registration order
BACKENDS: Dict[str, ExecutionBackend] = {}
#: every accepted spelling -> canonical name
_ALIASES: Dict[str, str] = {}


def register(backend: ExecutionBackend) -> ExecutionBackend:
    """Add a backend to the registry (its class is also usable as a
    decorator target: ``register(MyBackend())``)."""
    if not backend.name:
        raise ValueError("backend needs a canonical name")
    BACKENDS[backend.name] = backend
    _ALIASES[backend.name] = backend.name
    for alias in backend.aliases:
        _ALIASES[alias] = backend.name
    return backend


def resolve_backend(name: Optional[str]) -> str:
    """Canonical backend spec: explicit arg > ``REPRO_ENGINE`` > default.

    Count-taking backends accept a worker-count suffix — ``"sharded:8"``
    runs (up to) 8 worker processes, ``"processes:2"`` packs the
    simulated nodes into 2 OS processes; bare spellings default to the
    machine's CPU count (always clamped to the simulated node count).
    """
    if name is None:
        name = os.environ.get("REPRO_ENGINE") or "cooperative"
    text = str(name).lower()
    base, sep, count = text.partition(":")
    backend = _ALIASES.get(base)
    if backend is None:
        raise ValueError(
            f"unknown engine backend {name!r}; "
            f"known: {sorted(set(_ALIASES))}")
    if sep:
        if not BACKENDS[backend].takes_count:
            raise ValueError(
                f"engine backend {base!r} takes no ':N' suffix ({name!r})")
        if not count.isdigit() or int(count) < 1:
            raise ValueError(f"bad worker count in engine spec {name!r}")
        return f"{backend}:{int(count)}"
    return backend


def split_spec(spec: Optional[str]) -> Tuple[str, Optional[int]]:
    """A resolved spec -> ``(canonical name, worker count or None)``."""
    base, _sep, count = resolve_backend(spec).partition(":")
    return base, (int(count) if count else None)


def backend_for(spec: Optional[str]) -> ExecutionBackend:
    """The registered backend a (possibly aliased) spec names."""
    return BACKENDS[split_spec(spec)[0]]


def engine_choices() -> List[str]:
    """Canonical backend names, registration order (CLI help/docs)."""
    return list(BACKENDS)


def engine_help(default: str = "the cooperative scheduler") -> str:
    """The shared ``--engine`` help text, derived from the registry."""
    parts = []
    for b in BACKENDS.values():
        spec = f"{b.name}[:N]" if b.takes_count else b.name
        parts.append(f"{spec} ({b.summary})" if b.summary else spec)
    return (f"execution backend: {', '.join(parts)} "
            f"(default: {default}, or REPRO_ENGINE)")


def warn_unavailable(backend: ExecutionBackend, reason: str) -> None:
    """The single degraded-mode message for an unavailable backend."""
    warnings.warn(
        f"engine backend {backend.name!r} is unavailable here ({reason}); "
        f"falling back to the cooperative scheduler — faults will be "
        f"simulated unwinds, not real kills",
        RuntimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# The built-in backends
# ---------------------------------------------------------------------------

class CooperativeBackend(ExecutionBackend):
    """Deterministic rank fibers, one running at a time (the oracle).

    No watchdog Timer: the scheduling step itself checks the wall
    deadline at every switch and detects true deadlocks (all ranks
    blocked, no predicate true) instantly.
    """

    name = "cooperative"
    aliases = ("coop",)
    summary = "deterministic fiber scheduler, the oracle"

    def _launch(self, engine, body, timeout, errors, returns) -> None:
        engine._run_cooperative(body, errors)


class ThreadsBackend(ExecutionBackend):
    """Thread-per-rank escape hatch / differential oracle."""

    name = "threads"
    aliases = ("threaded", "thread")
    summary = "one OS thread per rank"
    deterministic = False
    uses_wall_timer = True

    def _launch(self, engine, body, timeout, errors, returns) -> None:
        old_stack = threading.stack_size()
        try:
            threading.stack_size(1 << 20)
        except (ValueError, RuntimeError):  # pragma: no cover - platform
            pass
        threads = [threading.Thread(target=body, args=(r,), daemon=True,
                                    name=f"rank-{r}")
                   for r in range(engine.nprocs)]
        try:
            # Stack size takes effect when a thread *starts*, so the old
            # value may only be restored after the start loop.
            for t in threads:
                t.start()
        finally:
            try:
                threading.stack_size(old_stack)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass
        # Join against one shared absolute deadline (watchdog + margin):
        # per-thread timeouts would make a hung many-rank job wait
        # O(nprocs * timeout) instead of O(timeout).
        import time as _time
        join_deadline = _time.monotonic() + timeout + 30.0
        for t in threads:
            t.join(max(0.0, join_deadline - _time.monotonic()))

        if any(t.is_alive() for t in threads):  # pragma: no cover - watchdog
            engine.abort(None)
            for t in threads:
                t.join(5.0)
            errors.append((-1,
                           "engine watchdog: some ranks never terminated"))


class ShardedBackend(ExecutionBackend):
    """Forked node-shards under a conservative LBTS window (§10)."""

    name = "sharded"
    aliases = ("shard", "shards")
    summary = "N forked node-shards, LBTS-synchronized"
    takes_count = True
    supports_shards = True

    def available(self) -> Optional[str]:
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return "os.fork is not available on this platform"
        return None

    def _launch(self, engine, body, timeout, errors, returns) -> None:
        from .sharded import run_sharded  # local import, no cycle
        run_sharded(engine, body, timeout, errors, returns,
                    n_shards=self.worker_count(engine))


register(CooperativeBackend())
register(ThreadsBackend())
register(ShardedBackend())

# The processes backend lives in its own module (it is a subsystem, not
# a dispatch arm); importing it registers it.  Import last so it can
# subclass ExecutionBackend and call register() at module load.
from . import processes as _processes  # noqa: E402,F401  (registers)
