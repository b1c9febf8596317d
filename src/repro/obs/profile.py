"""Deterministic-safe resource profiling attached to trace spans.

``REPRO_PROFILE=1`` turns profiling on (and implies tracing: a profiled
run always has a JSONL sink to land in).  The call sites that matter —
every ``graph.stage`` execution, every campaign-generation phase, every
``parallel_map`` worker batch — open their spans through
:func:`profiled_span`, which samples wall/CPU/RSS/GC/cache state on
entry and attaches the delta to the span's trace record as a ``prof``
field (``maxrss_kb`` is no delta: it is the process's ``ru_maxrss``
high-water at span exit):

.. code-block:: json

    {"t": "span", "name": "graph.stage", "dur": 1.83,
     "prof": {"cpu_user": 1.74, "cpu_sys": 0.06, "maxrss_kb": 412304,
              "gc_collections": 3, "cache": {"features.cache.misses": 2}}}

Everything is **out-of-band**: samples flow only into the trace sink,
never into stage artifacts or experiment results, so golden-stats and
determinism tests are byte-identical with profiling on or off.  With
profiling off, ``profiled_span`` is exactly ``span`` plus one dict
lookup — the disabled path stays inside the noise floor the example
time budgets enforce.

Worker processes profile the same way their spans trace: samples are
taken in the worker, the record lands in the shared JSONL file, and the
pid-embedded span ids re-root each worker's profiled spans under the
submitting span (:func:`repro.obs.remote_parent`), so the aggregation
below sees one connected, resource-annotated span tree per run.

:func:`build_profile` aggregates a loaded trace into the run profile:
per-stage (cell-qualified) and per-span-name resource totals, artifact
hit/miss/run statuses joined from the ``graph.plan`` event, and the
root span wall that critical-path analysis attributes.
:func:`write_profile_json` persists it as ``<trace>.profile.json`` next
to the trace (called by ``trace.end_run``).
"""

from __future__ import annotations

import gc
import json
import os
import sys
from pathlib import Path

from repro.obs.metrics import METRICS
from repro.obs.spans import Span, span
from repro.obs.trace import profile_requested

try:  # pragma: no cover - always present on the POSIX platforms we run on
    import resource
except ImportError:  # pragma: no cover - windows
    resource = None  # type: ignore[assignment]

__all__ = [
    "build_profile",
    "profile_requested",
    "profiled_span",
    "stage_key",
    "write_profile_json",
]

#: Cache counters sampled around every profiled span — the delta says
#: which caches a stage leaned on (or missed) without touching the
#: stage's own outputs.
_CACHE_COUNTER_NAMES = (
    "features.cache.hits",
    "features.cache.misses",
    "campaign.cache.hits",
    "campaign.cache.misses",
    "graph.stage.hit",
    "graph.stage.miss",
)

_cache_insts = None


def _cache_counters():
    global _cache_insts
    if _cache_insts is None:
        _cache_insts = tuple(METRICS.counter(n) for n in _CACHE_COUNTER_NAMES)
    return _cache_insts


def _maxrss_kb() -> int:
    if resource is None:  # pragma: no cover - windows
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return rss // 1024 if sys.platform == "darwin" else rss


def _sample() -> tuple:
    t = os.times()
    return (
        t.user,
        t.system,
        _maxrss_kb(),
        sum(s["collections"] for s in gc.get_stats()),
        tuple(c.value for c in _cache_counters()),
    )


def _delta(before: tuple) -> dict:
    after = _sample()
    prof = {
        "cpu_user": round(after[0] - before[0], 6),
        "cpu_sys": round(after[1] - before[1], 6),
        "maxrss_kb": int(after[2]),
        "gc_collections": after[3] - before[3],
    }
    cache = {
        name: a - b
        for name, a, b in zip(_CACHE_COUNTER_NAMES, after[4], before[4])
        if a != b
    }
    if cache:
        prof["cache"] = cache
    return prof


class _ProfiledSpan:
    """Wraps a live :class:`Span`, sampling resources around its body."""

    __slots__ = ("_span", "_before")

    def __init__(self, sp: Span) -> None:
        self._span = sp
        self._before = None

    def set(self, **attrs) -> "_ProfiledSpan":
        self._span.set(**attrs)
        return self

    def __enter__(self) -> "_ProfiledSpan":
        self._span.__enter__()
        self._before = _sample()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.prof = _delta(self._before)
        return self._span.__exit__(exc_type, exc, tb)


def profiled_span(name: str, **attrs):
    """A :func:`repro.obs.span` that also samples resource deltas.

    With ``REPRO_PROFILE`` unset this *is* ``span(...)`` — same no-op
    fast path, same trace records — so instrumenting a call site with
    ``profiled_span`` never changes the default trace schema.
    """
    sp = span(name, **attrs)
    if isinstance(sp, Span) and profile_requested():
        return _ProfiledSpan(sp)
    return sp


# --------------------------------------------------------------------------- #
# Aggregation: trace -> run profile.
# --------------------------------------------------------------------------- #


def stage_key(stage: str, cell: "str | None") -> str:
    """Profile key for one stage: cell-qualified when a cell is set.

    Shared stage *names* deliberately do not carry the (topology,
    routing) cell — only their fingerprints differ — so the profile key
    re-attaches it to keep the cells' records separate.
    """
    return f"{stage}@{cell}" if cell else stage


def _zero_record() -> dict:
    return {
        "calls": 0,
        "wall": 0.0,
        "cpu_user": 0.0,
        "cpu_sys": 0.0,
        "maxrss_kb": 0,
        "gc_collections": 0,
        "cache": {},
    }


def _fold(rec: dict, sp: dict, prof: dict) -> None:
    rec["calls"] += 1
    rec["wall"] = round(rec["wall"] + sp.get("dur", 0.0), 6)
    rec["cpu_user"] = round(rec["cpu_user"] + prof.get("cpu_user", 0.0), 6)
    rec["cpu_sys"] = round(rec["cpu_sys"] + prof.get("cpu_sys", 0.0), 6)
    rec["maxrss_kb"] = max(rec["maxrss_kb"], int(prof.get("maxrss_kb", 0)))
    rec["gc_collections"] += int(prof.get("gc_collections", 0))
    for name, delta in prof.get("cache", {}).items():
        rec["cache"][name] = rec["cache"].get(name, 0) + delta


def build_profile(data) -> dict | None:
    """Aggregate a loaded trace (:class:`~repro.obs.report.TraceData`)
    into the run profile dict, or None when it holds no profiled spans.

    ``stages`` is the heart of it: one record per (stage, cell) with
    resource totals for executed stages and timed artifact loads for
    hits (statuses joined from the ``graph.plan`` event the runner
    emits).  ``spans`` carries the same totals per span name — campaign
    phases, worker batches — and ``cells`` rolls stages up per
    (topology, routing) cell.
    """
    stages: dict[str, dict] = {}
    names: dict[str, dict] = {}
    any_prof = False
    for sp in data.spans:
        prof = sp.get("prof")
        if prof is None:
            continue
        any_prof = True
        _fold(names.setdefault(sp["name"], _zero_record()), sp, prof)
        if sp["name"] != "graph.stage":
            continue
        attrs = sp.get("attrs", {})
        stage = attrs.get("stage")
        if not stage:
            continue
        key = stage_key(stage, attrs.get("cell"))
        rec = stages.get(key)
        if rec is None:
            rec = stages[key] = _zero_record()
            rec.update(stage=stage, cell=attrs.get("cell"), status="run")
        _fold(rec, sp, prof)
    if not any_prof:
        return None

    # Join planned statuses and timed artifact loads: hits never open a
    # graph.stage span, so they enter the profile from the plan event.
    for ev in data.events:
        if ev.get("name") != "graph.plan":
            continue
        attrs = ev.get("attrs", {})
        cell = attrs.get("cell")
        for st in attrs.get("stages", []):
            key = stage_key(st["name"], cell)
            if key in stages:
                continue
            if st.get("status") != "hit":
                continue
            rec = _zero_record()
            rec.update(
                stage=st["name"],
                cell=cell,
                status="hit",
                calls=1,
                wall=round(st.get("load_s") or 0.0, 6),
            )
            stages[key] = rec

    cells: dict[str, dict] = {}
    for rec in stages.values():
        cell = rec.get("cell") or "default"
        c = cells.setdefault(
            cell, {"stages": 0, "hits": 0, "wall": 0.0, "cpu": 0.0}
        )
        c["stages"] += 1
        c["hits"] += 1 if rec["status"] == "hit" else 0
        c["wall"] = round(c["wall"] + rec["wall"], 6)
        c["cpu"] = round(c["cpu"] + rec["cpu_user"] + rec["cpu_sys"], 6)

    ids = {sp["id"] for sp in data.spans}
    roots = [sp for sp in data.spans if sp.get("parent") not in ids]
    root = max(roots, key=lambda sp: sp.get("dur", 0.0), default=None)
    out = {
        "format": 1,
        "trace": data.path.name,
        "stages": dict(sorted(stages.items())),
        "spans": dict(sorted(names.items())),
        "cells": dict(sorted(cells.items())),
    }
    if data.manifest:
        out["run_id"] = data.manifest.get("run_id")
    if root is not None:
        out["root"] = {"name": root["name"], "wall": round(root["dur"], 6)}
    return out


def _profile_out_path(trace_path: Path) -> Path:
    stem = trace_path.name
    if stem.endswith(".jsonl"):
        stem = stem[: -len(".jsonl")]
    return trace_path.with_name(f"{stem}.profile.json")


def write_profile_json(trace_path: "Path | str") -> Path | None:
    """Aggregate one trace and write ``<trace>.profile.json`` next to it.

    Returns the output path, or None when the trace holds no profiled
    spans (nothing worth a file).
    """
    from repro.obs.report import load_trace

    trace_path = Path(trace_path)
    prof = build_profile(load_trace(trace_path))
    if prof is None:
        return None
    out = _profile_out_path(trace_path)
    out.write_text(
        json.dumps(prof, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out
