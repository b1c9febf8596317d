"""Export a JSONL trace as a Chrome Trace Event file.

``python -m repro.obs export [trace]`` writes the Chrome Trace Event
JSON format, which ``chrome://tracing``, Perfetto and speedscope all
load: one complete ``"X"`` event per span, microsecond timestamps
relative to the earliest span, ``pid``/``tid`` from the recording
process so every worker gets its own track, span attributes and the
``prof`` resource sample in ``args``.

The export is a pure function of the loaded trace — it never touches
the trace file or any experiment output.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.report import TraceData


def chrome_trace(data: TraceData) -> dict:
    """The trace as a Chrome Trace Event ``traceEvents`` document."""
    spans = [sp for sp in data.spans if "ts" in sp and "dur" in sp]
    t0 = min((sp["ts"] for sp in spans), default=0.0)
    events = []
    for sp in sorted(spans, key=lambda s: s["ts"]):
        args = dict(sp.get("attrs", {}))
        if "prof" in sp:
            args["prof"] = sp["prof"]
        if not sp.get("ok", True):
            args["err"] = sp.get("err", "?")
        events.append(
            {
                "name": sp["name"],
                "cat": "span",
                "ph": "X",
                "ts": round((sp["ts"] - t0) * 1e6, 1),
                "dur": round(sp["dur"] * 1e6, 1),
                "pid": sp.get("pid", 0),
                "tid": sp.get("pid", 0),
                "args": args,
            }
        )
    for ev in data.events:
        events.append(
            {
                "name": ev["name"],
                "cat": "event",
                "ph": "i",
                "s": "g",
                "ts": round((ev.get("ts", t0) - t0) * 1e6, 1),
                "pid": ev.get("pid", 0),
                "tid": ev.get("pid", 0),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_trace(data: TraceData, out: "Path | str | None" = None) -> Path:
    """Write ``data`` as a chrome-trace file; returns the output path.

    The default output sits next to the trace: ``<stem>.chrome.json``.
    """
    if out is None:
        stem = data.path.name
        if stem.endswith(".jsonl"):
            stem = stem[: -len(".jsonl")]
        out = data.path.with_name(stem + ".chrome.json")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(chrome_trace(data), indent=2) + "\n", encoding="utf-8"
    )
    return out
