"""General work distribution: one process-pool layer for every hot loop.

PR 1 parallelized campaign *generation*; this module generalizes that
machinery so the rest of the program (the stage graph's stages, RFE
folds) fans out over the same kind of pool:

* :class:`WorkerPool` — a ``ProcessPoolExecutor`` wrapper whose
  one-worker mode runs every task in-process through the *same*
  code path, so serial and parallel output are bit-identical by
  construction;
* :func:`get_pool` / :func:`parallel_map` — a shared, lazily created
  pool reused across analysis calls in one process (spinning up workers
  per figure would dominate fast-mode runtimes), shut down atexit;
* worker bootstrap that mirrors the parent's observability: log records
  gain the ``[w<pid>]`` prefix, spans append to the parent's trace file
  (``REPRO_TRACE_FILE``), and every submission carries the submitting
  span id so worker spans graft onto the parent's span tree
  (:func:`repro.obs.remote_parent`).  The pool adds no per-task span:
  every task function opens its own (``graph.stage``, ``ml.rfe.fold``,
  ``campaign.task.*``), and like every span it carries the worker's
  resource sample;
* a nested-parallelism guard: workers advertise themselves via
  ``REPRO_PARALLEL_WORKER`` and :func:`effective_workers` resolves to 1
  inside one, so a driver that fans datasets out never has its workers
  fork grandchildren for the per-fold loops inside.

Determinism contract (same as the campaign layer): tasks are pure
functions of their arguments, results are gathered in submission order,
and any randomness flows through per-task seeded streams — so the
worker count can never perturb any result: an N-worker run is
bit-identical to a serial one.

The worker count has one surface: the ``REPRO_WORKERS`` environment
variable (a CLI's ``--workers N`` writes it), read by
:func:`repro.config.resolve_workers`; unset means 1 (serial) and ``0``
means "all cores".  Every pool here resolves it itself.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.config import resolve_workers
from repro.obs import current_span_id, remote_parent, span
from repro.obs.log import configure_worker_logging
from repro.obs.trace import attach_worker

__all__ = [
    "WORKER_ENV",
    "WorkerPool",
    "WorkerPoolError",
    "chunked",
    "effective_workers",
    "get_pool",
    "in_worker",
    "parallel_map",
    "shutdown_pool",
    "wait_any",
]

#: Set in every pool worker's environment by the bootstrap initializer;
#: :func:`in_worker` / :func:`effective_workers` read it to keep workers
#: from forking their own grandchildren.
WORKER_ENV = "REPRO_PARALLEL_WORKER"


class WorkerPoolError(RuntimeError):
    """A pool worker process died or the pool broke."""


def in_worker() -> bool:
    """Is this process a pool worker (of any repro pool)?"""
    return bool(os.environ.get(WORKER_ENV))


def effective_workers() -> int:
    """The worker count, clamped to 1 inside a pool worker.

    Outside workers this is :func:`repro.config.resolve_workers`
    (``REPRO_WORKERS``; unset = 1, ``<= 0`` = all cores).  Inside a
    worker it is always 1, so nested fan-out points (a per-dataset task
    that itself calls the per-fold API) degrade to the serial code path
    instead of oversubscribing the machine.
    """
    if in_worker():
        return 1
    return resolve_workers()


# --------------------------------------------------------------------------- #
# Worker bootstrap and submission shims (top-level so they pickle).
# --------------------------------------------------------------------------- #


def _bootstrap_worker(initializer, initargs) -> None:
    """Pool initializer: observability first, then the caller's setup.

    Marks the process as a worker (nested-parallelism guard), mirrors
    the parent's logging configuration, and attaches the parent's trace
    sink so worker spans land in the same JSONL file.
    """
    os.environ[WORKER_ENV] = "1"
    configure_worker_logging()
    attach_worker()
    if initializer is not None:
        initializer(*initargs)


def _remote_call(parent_span_id: "str | None", fn, args):
    """Run one task with the submitting span adopted as ambient parent,
    so worker-side spans graft onto the parent process's span tree."""
    with remote_parent(parent_span_id):
        return fn(*args)


class _DoneFuture:
    """Future-alike for the in-process serial mode."""

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        self._value = value

    def result(self):
        return self._value


def wait_any(futures: list) -> list[int]:
    """Indices of completed futures, blocking until at least one is done.

    Accepts the mixed future population :meth:`WorkerPool.submit`
    produces — already-done in-process :class:`_DoneFuture` results and
    real executor futures — so a DAG scheduler can drain completions in
    finish order regardless of pool mode.
    """

    def done_now() -> list[int]:
        return [
            i
            for i, f in enumerate(futures)
            if isinstance(f, _DoneFuture) or f.done()
        ]

    ready = done_now()
    if ready or not futures:
        return ready
    wait(futures, return_when=FIRST_COMPLETED)
    return done_now()


# --------------------------------------------------------------------------- #
# The pool.
# --------------------------------------------------------------------------- #


class WorkerPool:
    """Executes task functions on :func:`effective_workers` processes.

    A count of 1 runs every task in-process through the *same* task
    functions — both the fast path for small workloads and the reference
    the equivalence tests compare against.  Serial mode never runs
    ``initializer``; callers that need in-process state install it
    themselves (see :class:`repro.campaign.runner.CampaignRunner`).

    Parameters
    ----------
    initializer, initargs:
        Per-worker setup run in each subprocess *after* the
        observability bootstrap.  Must be picklable (top-level).
    error:
        Exception class raised when a worker dies or the pool breaks
        (must subclass :class:`WorkerPoolError`).
    name:
        Label for the ``parallel.map`` span and worker-death errors.
    """

    def __init__(
        self,
        *,
        initializer=None,
        initargs: tuple = (),
        error: type = WorkerPoolError,
        name: str = "pool",
    ) -> None:
        self.workers = effective_workers()
        self.parallel = self.workers > 1
        self.error = error
        self.name = name
        self.broken = False
        self._exec: ProcessPoolExecutor | None = None
        if self.parallel:
            self._exec = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_bootstrap_worker,
                initargs=(initializer, initargs),
            )

    # -- submission ----------------------------------------------------- #

    def submit(self, fn, *args):
        """Submit ``fn(*args)``; returns a future-alike.

        In serial mode the task runs immediately in-process (the
        ambient span context is already correct); in parallel mode the
        submitting span id rides along so worker spans re-root under it.
        """
        if not self.parallel:
            return _DoneFuture(fn(*args))
        try:
            return self._exec.submit(_remote_call, current_span_id(), fn, args)
        except BrokenProcessPool as exc:  # pragma: no cover - rare
            self.broken = True
            raise self.error(
                f"{self.name} worker pool broke during submission"
            ) from exc

    def result(self, future):
        """Unwrap a future, translating worker death into a clean error."""
        try:
            return future.result()
        except BrokenProcessPool as exc:
            self.broken = True
            raise self.error(
                f"a {self.name} worker process died; partial results discarded "
                "(rerun with REPRO_WORKERS=1 to rule out resource exhaustion)"
            ) from exc

    def map(self, fn, tasks) -> list:
        """``[fn(*args) for args in tasks]`` with a deterministic ordered
        gather: results come back in task order no matter which worker
        finishes first."""
        tasks = list(tasks)
        with span(
            "parallel.map", pool=self.name, tasks=len(tasks), workers=self.workers
        ):
            futures = [self.submit(fn, *args) for args in tasks]
            return [self.result(f) for f in futures]

    # -- lifecycle ------------------------------------------------------ #

    def shutdown(self) -> None:
        if self._exec is not None:
            self._exec.shutdown(wait=False, cancel_futures=True)
            self._exec = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# --------------------------------------------------------------------------- #
# The shared analysis pool.
# --------------------------------------------------------------------------- #

_SHARED: WorkerPool | None = None


def get_pool() -> WorkerPool:
    """The shared analysis pool for the resolved worker count.

    Serial resolution returns a throwaway in-process pool (no state to
    share).  A parallel pool is created lazily, reused across calls as
    long as the resolved count is stable, replaced when it changes, and
    shut down atexit.  A pool that lost a worker is discarded so the
    next call starts clean.
    """
    global _SHARED
    n = effective_workers()
    if n <= 1:
        return WorkerPool(name="analysis")
    if _SHARED is not None and _SHARED.workers == n and not _SHARED.broken:
        return _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
    _SHARED = WorkerPool(name="analysis")
    return _SHARED


def shutdown_pool() -> None:
    """Shut the shared analysis pool down (atexit, tests)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None


atexit.register(shutdown_pool)


def parallel_map(fn, tasks) -> list:
    """Ordered map over the shared pool: the one-call analysis fan-out."""
    return get_pool().map(fn, tasks)


def chunked(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous chunks."""
    if not items:
        return []
    size = max(1, -(-len(items) // max(1, n_chunks)))
    return [items[i : i + size] for i in range(0, len(items), size)]
