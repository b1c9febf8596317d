"""The run profile: a traced run's spans aggregated per stage.

Every span of a ``REPRO_TRACE=1`` run carries its resource sample
(``prof``: CPU user/sys, GC collections, cache-counter deltas and the
``maxrss_kb`` high-water, see :mod:`repro.obs.spans`), so the trace
itself is the profile's only input.  Worker processes write their
spans into the same JSONL file, and the pid-embedded span ids re-root
them under the submitting span (:func:`repro.obs.remote_parent`), so
one trace is one connected, resource-annotated span tree per run.

:func:`build_profile` aggregates a loaded trace into the run profile:
per-stage (cell-qualified) and per-span-name resource totals, artifact
hit/miss/run statuses joined from the ``graph.plan`` event, and the
root span wall that critical-path analysis attributes.  It is computed
wherever it is read — ``repro.obs report`` (its ``--format json``
``profile`` key), ``repro.obs diff`` on a ``.jsonl`` trace, and the
perf harness — so a traced run writes no file beside its trace.
"""

from __future__ import annotations

__all__ = ["build_profile", "stage_key"]


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
    into the run profile dict, or None when no span carries a sample.

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
