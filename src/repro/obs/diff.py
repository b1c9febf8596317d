"""The perf regression sentinel: compare run profiles per stage.

``python -m repro.obs diff <baseline> <current>`` compares per-stage
wall (and optionally CPU) between two profiles and exits nonzero when
any stage breaches its threshold — the gate the CI
``profile`` job runs against the committed
``benchmarks/baselines/PROFILE_all_fast.json``.

Each side is one of two inputs, told apart by suffix:

* a ``.jsonl`` trace, aggregated on the fly
  (:func:`repro.obs.profile.build_profile`; raw seconds),
* any other file: a JSON ``stages`` document such as the harness
  baseline ``PROFILE_all_fast.json`` (calibration-normalized walls).

When both sides carry ``normalized_wall`` (harness profiles), the
comparison is machine-speed independent; raw-wall comparisons are only
meaningful on comparable hardware, which is why CI diffs two harness
profiles.  The two units never mix: a harness profile against a raw one
is refused (:func:`unit_mismatch`), since their ratio is the machine
calibration, not a change in the code.  Neither may a side with no
records to compare pass as "no regression": :func:`load_profile_stages`
refuses it.  Stages below the ``--min-wall`` noise floor and stages
present on only one side are reported but never fail the gate (the DAG
legitimately changes shape when experiments are added).

Peak RSS is not compared: a profile's ``maxrss_kb`` is the process's
``ru_maxrss`` high-water at span exit, so its ratio between two runs
moves with whatever ran earlier in the process, not with the stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Hard-fail default: a stage 25% over its baseline wall is a
#: regression (the CI ``profile`` job's threshold).
DEFAULT_WALL_RATIO = 1.25
#: Stages cheaper than this (in the profile's wall unit) jitter too
#: much to gate; they are skipped with a note.
DEFAULT_MIN_WALL = 0.5


def load_profile_stages(
    path: "Path | str", section: str = "stages"
) -> dict[str, dict]:
    """Normalise one diff input to ``{stage: record}``.

    Records carry ``wall`` (preferring ``normalized_wall`` when the
    source has one, flagged by ``normalized``), plus ``cpu`` and the
    process RSS high-water ``maxrss_kb`` when available.
    ``section="spans"`` selects the per-span-name records instead of
    the graph stages — that is how ``diff --spans`` compares campaign
    internals (``campaign.task.solve``, ...) between two runs that
    never open a graph stage.

    Raises ValueError when the section holds no records (a run that
    opened no graph stage, an empty document): a diff against nothing
    would pass having compared nothing.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        from repro.obs.profile import build_profile
        from repro.obs.report import load_trace

        doc = build_profile(load_trace(path)) or {}
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            doc = {}
    raw = doc.get(section)
    if not raw:
        hint = ""
        if section == "stages" and doc.get("spans"):
            hint = "; it holds span records, which diff --spans compares"
        raise ValueError(f"{path} holds no {section!r} records{hint}")
    out: dict[str, dict] = {}
    for name, rec in raw.items():
        wall = rec.get("normalized_wall")
        normalized = wall is not None
        if not normalized:
            wall = rec.get("wall", rec.get("wall_s", 0.0))
        cpu = rec.get("normalized_cpu")
        if cpu is None:
            cpu = rec.get("cpu_s")
        if cpu is None and ("cpu_user" in rec or "cpu_sys" in rec):
            cpu = rec.get("cpu_user", 0.0) + rec.get("cpu_sys", 0.0)
        out[name] = {
            "wall": float(wall or 0.0),
            "cpu": None if cpu is None else float(cpu),
            "maxrss_kb": rec.get("maxrss_kb"),
            "status": rec.get("status"),
            "normalized": normalized,
        }
    return out


def unit_mismatch(
    baseline: dict[str, dict],
    current: dict[str, dict],
    baseline_path: "Path | str",
    current_path: "Path | str",
) -> str | None:
    """Why two loaded profiles cannot be compared, or None when they can.

    Harness walls are in calibration units (seconds divided by a
    machine-speed yardstick), traces in raw seconds; every ratio
    between the two is that yardstick, so a mixed diff would pass or
    fail on units alone.
    """
    base = {rec["normalized"] for rec in baseline.values()}
    cur = {rec["normalized"] for rec in current.values()}
    if not (base and cur and base.isdisjoint(cur)):
        return None
    unit = {True: "calibration-normalized walls", False: "raw seconds"}
    return (
        f"{baseline_path} holds {unit[base.pop()]} but {current_path} "
        f"holds {unit[cur.pop()]}; diff two harness profiles "
        "(python -m benchmarks.perf_harness) or two .jsonl traces"
    )


@dataclass
class DiffLine:
    """One compared stage: its ratios and whether it breached."""

    stage: str
    kind: str  # "ok" | "regressed" | "skipped" | "new" | "missing"
    detail: str


def compare_profiles(
    baseline: dict[str, dict],
    current: dict[str, dict],
    *,
    wall_ratio: float = DEFAULT_WALL_RATIO,
    cpu_ratio: float = 0.0,
    min_wall: float = DEFAULT_MIN_WALL,
) -> tuple[list[DiffLine], list[str]]:
    """Per-stage comparison; returns (report lines, failed stages).

    ``wall_ratio`` gates always; ``cpu_ratio`` gates only when > 0 (CPU
    time varies with runner shape, so it defaults to informational).
    """
    lines: list[DiffLine] = []
    failures: list[str] = []
    for stage in sorted(baseline):
        base = baseline[stage]
        cur = current.get(stage)
        if cur is None:
            lines.append(
                DiffLine(stage, "missing", "not in current profile")
            )
            continue
        if base["wall"] < min_wall:
            lines.append(
                DiffLine(
                    stage,
                    "skipped",
                    f"baseline wall {base['wall']:.3f} under the "
                    f"{min_wall} noise floor",
                )
            )
            continue
        ratio = cur["wall"] / base["wall"] if base["wall"] else float("inf")
        parts = [f"wall {base['wall']:.3f} -> {cur['wall']:.3f} ({ratio:.2f}x)"]
        breached = ratio > wall_ratio
        if base.get("cpu") and cur.get("cpu") is not None:
            c_ratio = cur["cpu"] / base["cpu"]
            parts.append(f"cpu {c_ratio:.2f}x")
            if cpu_ratio > 0 and c_ratio > cpu_ratio:
                breached = True
        if breached:
            failures.append(stage)
            lines.append(DiffLine(stage, "regressed", ", ".join(parts)))
        else:
            lines.append(DiffLine(stage, "ok", ", ".join(parts)))
    for stage in sorted(set(current) - set(baseline)):
        lines.append(
            DiffLine(stage, "new", "not in baseline (informational)")
        )
    return lines, failures


_MARKS = {
    "ok": "  ok   ",
    "regressed": "  FAIL ",
    "skipped": "  skip ",
    "new": "  new  ",
    "missing": "  gone ",
}


def render_diff(
    lines: list[DiffLine], failures: list[str], *, verbose: bool = False
) -> str:
    """Human-readable diff: regressions always, the rest under -v."""
    out: list[str] = []
    for line in lines:
        if not verbose and line.kind in ("ok", "skipped"):
            continue
        out.append(f"{_MARKS[line.kind]} {line.stage}: {line.detail}")
    compared = sum(1 for line in lines if line.kind in ("ok", "regressed"))
    skipped = sum(1 for line in lines if line.kind == "skipped")
    out.append(
        f"{compared} stage(s) compared, {skipped} under the noise floor, "
        f"{len(failures)} regression(s)"
    )
    return "\n".join(out)
