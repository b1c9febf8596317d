"""Parse a JSONL trace and render the self/cumulative-time report.

The report aggregates spans by name:

* **cum** — total wall time spent inside spans of that name;
* **self** — cum minus the time covered by *direct* child spans (clamped
  at zero: parallel children legitimately overlap their parent);
* **calls** — span count;
* **self rss+** — how far the span raised its process's RSS high-water
  (``prof.maxrss_growth_kb``) minus what its direct children in the same
  process raised it by: the spans that set a process's peak are the
  ones with a large value here.

plus the run manifest header, annotations, events, and a cache hit-rate
summary computed from every process's final metrics records.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class TraceData:
    """Everything one JSONL trace file contained, bucketed by type."""

    path: Path
    manifest: dict | None = None
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    annotations: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    truncated: list[dict] = field(default_factory=list)

    def merged_metrics(self) -> dict[str, int]:
        """Counter values summed across all processes' final snapshots."""
        out: dict[str, int] = {}
        for rec in self.metrics:
            for name, val in rec.get("values", {}).items():
                out[name] = out.get(name, 0) + val
        return out


def load_trace(path: "Path | str") -> TraceData:
    """Read a trace, tolerating torn/corrupt lines (warned and skipped)."""
    path = Path(path)
    data = TraceData(path=path)
    bad = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                bad += 1
                continue
            t = rec.get("t")
            if t == "manifest" and data.manifest is None:
                data.manifest = rec
            elif t == "span":
                data.spans.append(rec)
            elif t == "event":
                data.events.append(rec)
            elif t == "annotation":
                data.annotations.append(rec)
            elif t == "metrics":
                data.metrics.append(rec)
            elif t == "truncated":
                data.truncated.append(rec)
    if bad:
        warnings.warn(
            f"skipped {bad} unparseable line(s) in {path}", RuntimeWarning,
            stacklevel=2,
        )
    return data


@dataclass
class SpanAggregate:
    name: str
    calls: int
    cum: float
    self_time: float
    #: RSS high-water growth (kB) not attributed to a same-process child.
    self_growth_kb: int = 0


def _growth_kb(rec: dict) -> int:
    return int(rec.get("prof", {}).get("maxrss_growth_kb", 0))


def aggregate_spans(spans: list[dict]) -> list[SpanAggregate]:
    """Per-name call counts with cumulative and self times and self RSS
    growth, self-time-sorted.

    A child's growth counts against its parent only when both ran in
    one process: a worker's high-water is its own.
    """
    pid_of = {rec["id"]: rec.get("pid") for rec in spans}
    child_time: dict[str, float] = {}
    child_growth: dict[str, int] = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + rec["dur"]
            if pid_of.get(parent) == rec.get("pid"):
                child_growth[parent] = (
                    child_growth.get(parent, 0) + _growth_kb(rec)
                )
    agg: dict[str, SpanAggregate] = {}
    for rec in spans:
        a = agg.get(rec["name"])
        if a is None:
            a = agg[rec["name"]] = SpanAggregate(rec["name"], 0, 0.0, 0.0)
        a.calls += 1
        a.cum += rec["dur"]
        a.self_time += max(rec["dur"] - child_time.get(rec["id"], 0.0), 0.0)
        a.self_growth_kb += max(
            _growth_kb(rec) - child_growth.get(rec["id"], 0), 0
        )
    return sorted(agg.values(), key=lambda a: -a.self_time)


def span_tree(spans: list[dict]) -> list[tuple[int, dict]]:
    """(depth, span) pairs in start order — orphans surface as roots."""
    by_id = {rec["id"]: rec for rec in spans}
    children: dict[str | None, list[dict]] = {}
    for rec in sorted(spans, key=lambda r: r["ts"]):
        parent = rec.get("parent")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(rec)
    out: list[tuple[int, dict]] = []

    def walk(parent, depth: int) -> None:
        for rec in children.get(parent, []):
            out.append((depth, rec))
            walk(rec["id"], depth + 1)

    walk(None, 0)
    return out


def _cache_summary(metrics: dict[str, object]) -> list[str]:
    lines = []
    hits = int(metrics.get("features.cache.hits", 0) or 0)
    misses = int(metrics.get("features.cache.misses", 0) or 0)
    total = hits + misses
    if total:
        lines.append(
            f"feature cache: {hits} memo hits, {misses} builds "
            f"({100.0 * hits / total:.1f}% hit rate)"
        )
    camp_hits = int(metrics.get("campaign.cache.hits", 0) or 0)
    camp_miss = int(metrics.get("campaign.cache.misses", 0) or 0)
    if camp_hits + camp_miss:
        lines.append(
            f"campaign cache: {camp_hits} hits, {camp_miss} generations"
        )
    st_hits = int(metrics.get("graph.stage.hit", 0) or 0)
    st_miss = int(metrics.get("graph.stage.miss", 0) or 0)
    st_runs = int(metrics.get("graph.stage.run", 0) or 0)
    if st_hits + st_miss + st_runs:
        lines.append(
            f"stage graph: {st_hits} artifact hits, {st_miss} misses, "
            f"{st_runs} stages run"
        )
    for cell in sorted(_stage_cells(metrics)):
        hits = int(metrics.get(f"graph.stage.hit[{cell}]", 0) or 0)
        miss = int(metrics.get(f"graph.stage.miss[{cell}]", 0) or 0)
        runs = int(metrics.get(f"graph.stage.run[{cell}]", 0) or 0)
        lines.append(
            f"  cell {cell}: {hits} artifact hits, {miss} misses, "
            f"{runs} stages run"
        )
    sh_hits = int(metrics.get("graph.shard.hit", 0) or 0)
    sh_miss = int(metrics.get("graph.shard.miss", 0) or 0)
    sh_runs = int(metrics.get("graph.shard.run", 0) or 0)
    if sh_hits + sh_miss + sh_runs:
        lines.append(
            f"shard stages: {sh_hits} artifact hits, {sh_miss} misses, "
            f"{sh_runs} stages run"
        )
    return lines


def _stage_cells(metrics: dict[str, object]) -> set[str]:
    """Cell labels present in ``graph.stage.<status>[<cell>]`` counters."""
    cells: set[str] = set()
    for name in metrics:
        if name.startswith("graph.stage.") and name.endswith("]"):
            _, _, label = name.partition("[")
            cells.add(label[:-1])
    return cells


def critical_paths(data: TraceData) -> list[dict]:
    """Longest wall-time chain through each run's resolved stage DAG.

    Replays the ``graph.plan`` event(s) the runner emits (one per
    ``GraphRunner.run``, topologically ordered, with hit/miss/run
    statuses and input edges), attributing to each stage:

    * its summed ``graph.stage`` span wall when it executed,
    * its timed artifact load when it was a hit,
    * zero otherwise.

    Returns one record per plan with the dominant chain, its wall, the
    executed-vs-hit split, and the root wall the chain is a share of —
    empty when the trace predates the plan event.  The root is the span
    enclosing ``graph.run`` (``experiment.<id>``, ``experiments.run``,
    ...), because a cold run executes the ``campaign`` stage while it
    builds the graph, before ``graph.run`` opens; a parentless
    ``graph.run`` is its own root.
    """
    by_id = {sp["id"]: sp for sp in data.spans}
    # Executed-stage walls, keyed by (cell, stage name).
    walls: dict[tuple[str | None, str], float] = {}
    roots: dict[str | None, dict] = {}
    for sp in data.spans:
        attrs = sp.get("attrs", {})
        if sp["name"] == "graph.stage" and attrs.get("stage"):
            key = (attrs.get("cell"), attrs["stage"])
            walls[key] = walls.get(key, 0.0) + sp.get("dur", 0.0)
        elif sp["name"] == "graph.run":
            cell = attrs.get("cell")
            root = by_id.get(sp.get("parent"), sp)
            if root.get("dur", 0.0) >= roots.get(cell, {}).get("dur", 0.0):
                roots[cell] = root

    out: list[dict] = []
    for ev in data.events:
        if ev.get("name") != "graph.plan":
            continue
        attrs = ev.get("attrs", {})
        cell = attrs.get("cell")
        stages = attrs.get("stages", [])
        if not stages:
            continue
        info = {st["name"]: st for st in stages}

        def stage_wall(st: dict) -> tuple[float, str]:
            executed = walls.get((cell, st["name"]))
            if executed is not None:
                return executed, "run"
            if st.get("status") == "hit":
                return st.get("load_s") or 0.0, "hit"
            return 0.0, st.get("status", "?")

        # DP over the (topologically ordered) plan: best[n] is the
        # heaviest chain ending at n.
        best: dict[str, float] = {}
        prev: dict[str, str | None] = {}
        for st in stages:
            name = st["name"]
            w, _ = stage_wall(st)
            up_best, up_name = 0.0, None
            for up in st.get("inputs", []):
                if up in best and best[up] > up_best:
                    up_best, up_name = best[up], up
            best[name] = w + up_best
            prev[name] = up_name
        end = max(best, key=lambda n: best[n])
        chain: list[dict] = []
        node: str | None = end
        while node is not None:
            w, status = stage_wall(info[node])
            chain.append(
                {"name": node, "status": status, "wall": round(w, 6)}
            )
            node = prev[node]
        chain.reverse()

        executed = sum(
            stage_wall(st)[0] for st in stages
            if stage_wall(st)[1] == "run"
        )
        hits = sum(
            stage_wall(st)[0] for st in stages
            if stage_wall(st)[1] == "hit"
        )
        out.append(
            {
                "cell": cell,
                "stages": len(stages),
                "chain": chain,
                "chain_wall": round(best[end], 6),
                "executed_wall": round(executed, 6),
                "hit_wall": round(hits, 6),
                "root_wall": round(roots.get(cell, {}).get("dur", 0.0), 6),
                "root_span": roots.get(cell, {}).get("name"),
            }
        )
    return out


def render_critical_path(data: TraceData) -> str:
    """Text rendering of :func:`critical_paths` (``--critical-path``)."""
    paths = critical_paths(data)
    if not paths:
        return (
            "(no graph.plan events in this trace — run an experiment "
            "with REPRO_TRACE=1 to record the resolved DAG)"
        )
    lines: list[str] = []
    for p in paths:
        where = f" — cell {p['cell']}" if p["cell"] else ""
        lines.append(
            f"critical path{where}: {p['chain_wall']:.3f}s through "
            f"{len(p['chain'])} of {p['stages']} stages"
        )
        if p["root_wall"]:
            share = 100.0 * p["chain_wall"] / p["root_wall"]
            lines.append(
                f"  {p['root_span']} wall {p['root_wall']:.3f}s "
                f"({share:.0f}% on the chain); "
                f"executed stages {p['executed_wall']:.3f}s, "
                f"artifact hits {p['hit_wall']:.3f}s"
            )
        for entry in p["chain"]:
            lines.append(
                f"  [{entry['status']:<4}] {entry['wall']:>9.3f}s  "
                f"{entry['name']}"
            )
    return "\n".join(lines)


def _profile_summary(data: TraceData) -> list[str]:
    """Top stages by wall with their CPU and the process RSS
    high-water, shown when the trace's spans carry resource samples."""
    from repro.obs.profile import build_profile

    prof = build_profile(data)
    if prof is None:
        return []
    lines = ["profiled stages (top 5 by wall):"]
    ranked = sorted(
        prof["stages"].items(), key=lambda kv: -kv[1]["wall"]
    )[:5]
    for key, rec in ranked:
        cpu = rec["cpu_user"] + rec["cpu_sys"]
        lines.append(
            f"  [{rec['status']:<4}] {rec['wall']:>9.3f}s wall  "
            f"{cpu:>8.3f}s cpu  {rec['maxrss_kb']:>9} kB rss  {key}"
        )
    if not ranked:
        lines = []
    return lines


def report_json(data: TraceData) -> dict:
    """The machine-readable report (``report --format json``): manifest,
    span aggregates, merged metrics, the run profile, and critical-path
    records — the same facts the text renderer prints, reusable by the
    regression sentinel and CI."""
    from repro.obs.profile import build_profile

    man = data.manifest or {}
    aggs = aggregate_spans(data.spans)
    return {
        "format": 1,
        "trace": str(data.path),
        "run_id": man.get("run_id"),
        "argv": man.get("argv"),
        "platform": man.get("platform"),
        "versions": man.get("versions"),
        "env": man.get("env"),
        "annotations": [r.get("attrs", {}) for r in data.annotations],
        "spans": [
            {
                "name": a.name,
                "calls": a.calls,
                "cum_s": round(a.cum, 6),
                "self_s": round(a.self_time, 6),
                "self_growth_kb": a.self_growth_kb,
            }
            for a in aggs
        ],
        "failed_spans": [
            {"name": r["name"], "err": r.get("err")}
            for r in data.spans
            if not r.get("ok", True)
        ],
        "metrics": data.merged_metrics(),
        "truncated": len(data.truncated),
        "profile": build_profile(data),
        "critical_path": critical_paths(data),
    }


def render_report(data: TraceData, tree: bool = False) -> str:
    """The human-readable report ``python -m repro.obs report`` prints."""
    lines: list[str] = []
    man = data.manifest
    if man is not None:
        lines.append(f"run:      {man.get('run_id', '?')}")
        lines.append(f"argv:     {' '.join(man.get('argv', []))}")
        versions = man.get("versions", {})
        vers = ", ".join(f"{k} {v}" for k, v in versions.items())
        lines.append(f"platform: {man.get('platform', '?')} ({vers})")
        env = man.get("env", {})
        if env:
            lines.append(
                "env:      "
                + " ".join(f"{k}={v}" for k, v in sorted(env.items()))
            )
    for rec in data.annotations:
        kv = " ".join(f"{k}={v}" for k, v in rec.get("attrs", {}).items())
        lines.append(f"note:     {kv}")
    lines.append("")

    aggs = aggregate_spans(data.spans)
    if aggs:
        total = sum(a.self_time for a in aggs) or 1.0
        name_w = max(len(a.name) for a in aggs)
        name_w = max(name_w, len("span"))
        lines.append(
            f"{'span':<{name_w}}  {'calls':>6}  {'cum s':>9}  "
            f"{'self s':>9}  {'self %':>6}  {'self rss+ kB':>12}"
        )
        lines.append("-" * (name_w + 51))
        for a in aggs:
            lines.append(
                f"{a.name:<{name_w}}  {a.calls:>6}  {a.cum:>9.3f}  "
                f"{a.self_time:>9.3f}  {100.0 * a.self_time / total:>5.1f}%"
                f"  {a.self_growth_kb:>12}"
            )
    else:
        lines.append("(no spans recorded)")
    lines.append("")

    cache = _cache_summary(data.merged_metrics())
    if cache:
        lines.extend(cache)

    prof = _profile_summary(data)
    if prof:
        lines.append("")
        lines.extend(prof)

    if data.truncated:
        first = data.truncated[0]
        lines.append("")
        lines.append(
            f"warning: trace truncated at "
            f"{first.get('limit_mb', '?')} MB "
            f"(REPRO_TRACE_MAX_MB) — later records were dropped"
        )

    failed = [rec for rec in data.spans if not rec.get("ok", True)]
    if failed:
        lines.append("")
        lines.append(f"{len(failed)} span(s) ended in an exception:")
        for rec in failed[:10]:
            lines.append(f"  {rec['name']}: {rec.get('err', '?')}")

    if tree:
        lines.append("")
        for depth, rec in span_tree(data.spans):
            lines.append(f"{'  ' * depth}{rec['name']}  {rec['dur']:.3f}s")
    return "\n".join(lines)


def latest_trace(directory: "Path | str") -> Path | None:
    """The most recently modified ``*.jsonl`` trace in a directory."""
    paths = sorted(
        Path(directory).glob("*.jsonl"), key=lambda p: p.stat().st_mtime
    )
    return paths[-1] if paths else None
