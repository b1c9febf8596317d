"""Run manifests and the JSONL trace sink.

A *run* is one process invocation worth of observability data, stored as
a single JSONL file under the trace directory::

    <REPRO_TRACE_DIR or REPRO_CACHE_DIR/traces>/<stamp>-<pid>-<name>.jsonl

Record types (the ``"t"`` field):

``manifest``
    Written first, once, by the root process: run id, argv, versions,
    platform, and every ``REPRO_*`` environment knob.
``span``
    One finished span (see :mod:`repro.obs.spans`), written at exit time
    with its parent id, wall start, duration, and attributes.
``event``
    A point-in-time progress marker (e.g. campaign generation progress).
``annotation``
    Key/value provenance added mid-run (campaign fingerprints, dataset
    keys) — manifest content that is only known once work starts.
``metrics``
    Final :data:`repro.obs.metrics.METRICS` snapshot of one process,
    tagged with its pid; the root process and every worker each flush
    one on exit.
``truncated``
    Written once when the trace file crosses ``REPRO_TRACE_MAX_MB``;
    every later record from that process is dropped so a long profiled
    run degrades to a capped trace instead of filling the disk.

Enablement: ``REPRO_TRACE=1`` turns tracing on; entry points (the
experiment/campaign CLIs, :func:`repro.experiments.run_experiment`) call
:func:`ensure_run` so one invocation produces one complete trace.
Worker processes see the ``REPRO_TRACE_FILE`` variable exported by the
parent's :func:`start_run` and append to the same file (line-granular
``O_APPEND`` writes).  With tracing off, the only cost on any hot path
is the :data:`ACTIVE` module-global check in ``span()``.
"""

from __future__ import annotations

import atexit
import io
import json
import math
import os
import platform
import sys
import threading
import time
from pathlib import Path

from repro.obs.env import env_flag
from repro.obs.metrics import METRICS

#: Env toggles.
TRACE_ENV = "REPRO_TRACE"
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
#: Exported by ``start_run`` so subprocess workers join the same trace.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"
#: Resource profiling (:mod:`repro.obs.profile`); implies tracing.
PROFILE_ENV = "REPRO_PROFILE"
#: Trace size cap in MiB (float; ``<= 0`` disables the guard).  A long
#: profiled campaign run must degrade to a truncated trace, not a full
#: disk.
TRACE_MAX_ENV = "REPRO_TRACE_MAX_MB"
DEFAULT_TRACE_MAX_MB = 512.0
#: Size checks cost an fstat, so they run once per this many records.
_SIZE_CHECK_EVERY = 64

#: Fast-path gate: ``span()`` checks only this module global.  True when
#: a sink is attached *or* tracing is requested but not yet started (the
#: first span then initialises the run).
ACTIVE = False

_LOCK = threading.RLock()
_SINK: "io.TextIOWrapper | None" = None
_RUN_PATH: Path | None = None
_IS_WORKER = False
_ATEXIT_REGISTERED = False
_TRUNCATED = False
_SINCE_SIZE_CHECK = 0


def profile_requested() -> bool:
    """``REPRO_PROFILE`` truthiness (resource profiling wanted)."""
    return env_flag(PROFILE_ENV, False)


def trace_requested() -> bool:
    """Tracing wanted for this invocation (``REPRO_TRACE``, or implied
    by ``REPRO_PROFILE`` — profiled records need a sink to land in)."""
    return env_flag(TRACE_ENV, False) or profile_requested()


def trace_dir() -> Path:
    """Trace output directory (``REPRO_TRACE_DIR``, else under the cache)."""
    explicit = os.environ.get(TRACE_DIR_ENV)
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")) / "traces"


def active() -> bool:
    """Is a trace sink attached to this process right now?"""
    return _SINK is not None


def current_trace_path() -> Path | None:
    return _RUN_PATH


def _refresh_gate() -> None:
    global ACTIVE
    ACTIVE = _SINK is not None or trace_requested() or bool(
        os.environ.get(TRACE_FILE_ENV)
    )


def _max_trace_bytes() -> int:
    """The configured trace cap in bytes (0 = unlimited).

    Raises ValueError when ``REPRO_TRACE_MAX_MB`` is set to anything
    but a finite number.
    """
    raw = os.environ.get(TRACE_MAX_ENV, "").strip()
    if not raw:
        mb = DEFAULT_TRACE_MAX_MB
    else:
        try:
            mb = float(raw)
        except ValueError:
            mb = math.nan
        if not math.isfinite(mb):
            raise ValueError(
                f"{TRACE_MAX_ENV} must be a number of MiB, got {raw!r}"
            )
    if mb <= 0:
        return 0
    return int(mb * 1024 * 1024)


def write_record(rec: dict) -> None:
    """Append one JSONL record (no-op when no sink is attached).

    Guarded by ``REPRO_TRACE_MAX_MB``: once the shared trace file
    crosses the cap (checked every :data:`_SIZE_CHECK_EVERY` records),
    one ``truncated`` marker record is written and every later record
    from this process is dropped — the run itself never fails on trace
    volume.
    """
    global _TRUNCATED, _SINCE_SIZE_CHECK
    sink = _SINK
    if sink is None or _TRUNCATED:
        return
    line = json.dumps(rec, separators=(",", ":"), default=str) + "\n"
    with _LOCK:
        if _TRUNCATED:
            return
        try:
            sink.write(line)
            sink.flush()
        except ValueError:  # closed mid-shutdown: drop silently
            return
        _SINCE_SIZE_CHECK += 1
        if _SINCE_SIZE_CHECK < _SIZE_CHECK_EVERY:
            return
        _SINCE_SIZE_CHECK = 0
        limit = _max_trace_bytes()
        if not limit:
            return
        try:
            size = os.fstat(sink.fileno()).st_size
        except (OSError, ValueError):  # pragma: no cover - racing close
            return
        if size < limit:
            return
        marker = json.dumps(
            {
                "t": "truncated",
                "pid": os.getpid(),
                "ts": time.time(),
                "size_bytes": size,
                "limit_mb": limit / (1024 * 1024),
            },
            separators=(",", ":"),
        )
        try:
            sink.write(marker + "\n")
            sink.flush()
        except ValueError:  # pragma: no cover - racing close
            pass
        _TRUNCATED = True


def _manifest_record(name: str, run_id: str) -> dict:
    env = {
        k: v
        for k, v in sorted(os.environ.items())
        if k.startswith("REPRO_") and k != TRACE_FILE_ENV
    }
    versions = {"python": platform.python_version()}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        pass
    return {
        "t": "manifest",
        "run_id": run_id,
        "name": name,
        "ts": time.time(),
        "argv": sys.argv,
        "pid": os.getpid(),
        "cwd": os.getcwd(),
        "platform": platform.platform(),
        "versions": versions,
        "env": env,
    }


def start_run(name: str = "run", path: "Path | str | None" = None) -> Path:
    """Open a trace file, write the manifest, and export it to workers.

    Idempotent: a second call while a run is open returns the open path.
    """
    global _SINK, _RUN_PATH, _IS_WORKER, _ATEXIT_REGISTERED
    global _TRUNCATED, _SINCE_SIZE_CHECK
    with _LOCK:
        if _SINK is not None:
            return _RUN_PATH  # type: ignore[return-value]
        _max_trace_bytes()  # a bad cap fails here, before any file opens
        _TRUNCATED = False
        _SINCE_SIZE_CHECK = 0
        stamp = time.strftime("%Y%m%dT%H%M%S")
        run_id = f"{stamp}-{os.getpid()}-{name}"
        if path is None:
            path = trace_dir() / f"{run_id}.jsonl"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        _SINK = open(path, "a", encoding="utf-8")
        _RUN_PATH = path
        _IS_WORKER = False
        os.environ[TRACE_FILE_ENV] = str(path)
        if not _ATEXIT_REGISTERED:
            atexit.register(end_run)
            _ATEXIT_REGISTERED = True
        _refresh_gate()
    write_record(_manifest_record(name, run_id))
    return path


def ensure_run(name: str = "run") -> Path | None:
    """Start a run iff tracing is requested and none is open.

    Called by entry points and by the first span, so ``REPRO_TRACE=1``
    yields a complete trace no matter which door the process came in
    through.  Returns the trace path, or None when tracing is off.
    """
    if _SINK is not None:
        return _RUN_PATH
    if os.environ.get(TRACE_FILE_ENV) and not _IS_WORKER:
        return _attach_worker()
    if trace_requested():
        return start_run(name)
    _refresh_gate()
    return None


def attach_worker() -> Path | None:
    """Join the parent's trace from a pool worker (call in initializers).

    Spawned workers arrive with clean module state and simply attach to
    ``REPRO_TRACE_FILE``.  *Forked* workers inherit the parent's open
    sink, its atexit registration, and its metric values — all of which
    belong to the parent: the inherited handle is replaced with this
    process's own, worker bookkeeping (exit finalizer, ``worker`` flag)
    is installed, and :data:`METRICS` is zeroed so the worker's final
    snapshot counts only its own work.  No-op when tracing is off.
    """
    global _SINK, _RUN_PATH, _IS_WORKER, _ATEXIT_REGISTERED
    if not os.environ.get(TRACE_FILE_ENV):
        _refresh_gate()
        return None
    with _LOCK:
        if _SINK is not None and not _IS_WORKER:
            inherited, _SINK = _SINK, None
            _RUN_PATH = None
            _ATEXIT_REGISTERED = False
            try:
                inherited.close()  # our dup of the fd; the parent keeps its own
            except OSError:  # pragma: no cover - close failure is ignorable
                pass
            METRICS.reset()
    return _attach_worker()


def _attach_worker() -> Path | None:
    """Join the parent's trace file from a worker process."""
    global _SINK, _RUN_PATH, _IS_WORKER, _ATEXIT_REGISTERED
    global _TRUNCATED, _SINCE_SIZE_CHECK
    with _LOCK:
        if _SINK is not None:
            return _RUN_PATH
        target = os.environ.get(TRACE_FILE_ENV)
        if not target:
            return None
        try:
            _SINK = open(target, "a", encoding="utf-8")
        except OSError:
            return None
        _TRUNCATED = False
        _SINCE_SIZE_CHECK = 0
        _RUN_PATH = Path(target)
        _IS_WORKER = True
        if not _ATEXIT_REGISTERED:
            atexit.register(end_run)
            # Pool workers exit through os._exit, which skips atexit but
            # does run multiprocessing's own finalizers — register there
            # too so each worker's final metrics reach the trace.
            try:
                from multiprocessing.util import Finalize

                Finalize(None, end_run, exitpriority=0)
            except Exception:  # pragma: no cover - stdlib always has it
                pass
            _ATEXIT_REGISTERED = True
        _refresh_gate()
        return _RUN_PATH


def end_run() -> None:
    """Flush this process's final metrics and close the sink.

    The root process of a profiled run (``REPRO_PROFILE=1``) also
    aggregates the finished trace into ``<trace>.profile.json`` — every
    worker has flushed its records by the time the root closes.
    """
    global _SINK, _RUN_PATH, _IS_WORKER, _TRUNCATED, _SINCE_SIZE_CHECK
    if _SINK is None:
        _refresh_gate()
        return
    write_record(
        {
            "t": "metrics",
            "pid": os.getpid(),
            "worker": _IS_WORKER,
            "ts": time.time(),
            "values": METRICS.snapshot(),
        }
    )
    with _LOCK:
        sink, _SINK = _SINK, None
        path, _RUN_PATH = _RUN_PATH, None
        was_worker, _IS_WORKER = _IS_WORKER, False
        _TRUNCATED = False
        _SINCE_SIZE_CHECK = 0
        try:
            sink.close()
        except OSError:  # pragma: no cover - close failure is ignorable
            pass
        if not was_worker:
            os.environ.pop(TRACE_FILE_ENV, None)
        _refresh_gate()
    if path is not None and not was_worker and profile_requested():
        try:
            from repro.obs.profile import write_profile_json

            write_profile_json(path)
        except Exception as exc:  # pragma: no cover - best-effort output
            import warnings

            warnings.warn(
                f"could not write run profile for {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )


def event(name: str, **attrs) -> None:
    """Record a point-in-time event (cheap no-op when tracing is off)."""
    if not ACTIVE:
        return
    if _SINK is None and ensure_run() is None:
        return
    write_record(
        {"t": "event", "name": name, "ts": time.time(), "pid": os.getpid(),
         "attrs": attrs}
    )


def annotate(**attrs) -> None:
    """Attach provenance (fingerprints, dataset keys) to the open run."""
    if not ACTIVE:
        return
    if _SINK is None and ensure_run() is None:
        return
    write_record(
        {"t": "annotation", "ts": time.time(), "pid": os.getpid(),
         "attrs": attrs}
    )


# Resolve the gate once at import: in a freshly spawned worker this sees
# the parent's exported TRACE_FILE_ENV; in an untraced process it leaves
# the single-bool fast path in place.  A bad REPRO_TRACE/REPRO_PROFILE
# value must not fail the import: the gate stays open, so the next
# ensure_run() (a CLI's knob check, or the first span) raises naming it.
try:
    _refresh_gate()
except ValueError:
    ACTIVE = True
