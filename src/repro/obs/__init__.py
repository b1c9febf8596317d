"""Observability: spans, metrics, run manifests, traces, and logging.

The reproduction instruments *itself* the way the paper instrumented
Cori: lightweight always-available counters plus an opt-in trace of
where the time goes.

* :func:`span` — hierarchical timing spans, each recorded with its
  CPU/RSS/GC/cache resource sample (:mod:`repro.obs.spans`); near-zero
  cost unless ``REPRO_TRACE=1``;
* :data:`METRICS` — the process-wide counter registry
  (:mod:`repro.obs.metrics`), always on (plain ints under a lock);
* :mod:`repro.obs.trace` — per-invocation run manifest + JSONL sink
  (``REPRO_TRACE``, ``REPRO_TRACE_DIR``), joined transparently by
  campaign worker processes;
* ``python -m repro.obs report`` — self/cumulative time table and cache
  hit rates from one trace (:mod:`repro.obs.report`), plus the run
  profile aggregated from it (:mod:`repro.obs.profile`); the ``export``
  and ``diff`` subcommands turn traces into a chrome-trace file and
  regression verdicts;
* :func:`get_logger` / :func:`configure_logging` — the package's single
  stdlib-logging setup (``REPRO_LOG_LEVEL``);
* :func:`env_flag` — the one parser of the boolean ``REPRO_*`` toggles
  (:mod:`repro.obs.env`), shared by every layer.

See ``docs/observability.md`` for the trace schema and workflows.
"""

from repro.obs.env import env_flag
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import METRICS, Counter, MetricsRegistry
from repro.obs.spans import current_span_id, remote_parent, span
from repro.obs.trace import (
    annotate,
    end_run,
    ensure_run,
    event,
    start_run,
    trace_dir,
    trace_requested,
)

__all__ = [
    "span",
    "current_span_id",
    "remote_parent",
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "start_run",
    "ensure_run",
    "end_run",
    "event",
    "annotate",
    "trace_dir",
    "trace_requested",
    "get_logger",
    "configure_logging",
    "env_flag",
]
