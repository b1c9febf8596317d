"""CLI: trace reports, profile-viewer exports, and the perf sentinel.

::

    python -m repro.obs report [<trace.jsonl> | <dir>] [--tree]
        [--format text|json] [--critical-path]
    python -m repro.obs export [<trace.jsonl> | <dir>]
        [--format chrome-trace|speedscope] [--out FILE]
    python -m repro.obs diff <baseline> <current>
        [--wall-ratio 1.25] [--cpu-ratio N]
        [--min-wall 0.5] [--warn-only] [-v]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.report import (
    latest_trace,
    load_trace,
    render_critical_path,
    render_report,
    report_json,
)
from repro.obs.trace import trace_dir


def _resolve_trace(target: "str | None") -> Path | None:
    """A trace path from an explicit file, a directory, or the default
    trace dir (newest trace wins)."""
    path = Path(target) if target is not None else trace_dir()
    if path.is_dir():
        found = latest_trace(path)
        if found is None:
            print(f"no traces under {path}", file=sys.stderr)
            return None
        return found
    if not path.exists():
        print(f"no such trace: {path}", file=sys.stderr)
        return None
    return path


def _cmd_report(args) -> int:
    path = _resolve_trace(args.trace)
    if path is None:
        return 1
    data = load_trace(path)
    if args.format == "json":
        doc = report_json(data)
        if args.critical_path:
            doc = {"critical_path": doc["critical_path"]}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(render_report(data, tree=args.tree))
    if args.critical_path:
        print()
        print(render_critical_path(data))
    return 0


def _cmd_export(args) -> int:
    from repro.obs.export import export_trace

    path = _resolve_trace(args.trace)
    if path is None:
        return 1
    out = export_trace(load_trace(path), args.format, args.out)
    print(f"wrote {out}")
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import (
        compare_profiles,
        load_profile_stages,
        render_diff,
        unit_mismatch,
    )

    section = "spans" if args.spans else "stages"
    try:
        baseline = load_profile_stages(args.baseline, section=section)
        current = load_profile_stages(args.current, section=section)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load profile: {exc}", file=sys.stderr)
        return 2
    mismatch = unit_mismatch(baseline, current, args.baseline, args.current)
    if mismatch:
        print(f"cannot compare profiles: {mismatch}", file=sys.stderr)
        return 2
    lines, failures = compare_profiles(
        baseline,
        current,
        wall_ratio=args.wall_ratio,
        cpu_ratio=args.cpu_ratio,
        min_wall=args.min_wall,
    )
    print(render_diff(lines, failures, verbose=args.verbose))
    if failures and args.warn_only:
        print(
            f"warning: {len(failures)} regression(s) ignored (--warn-only)",
            file=sys.stderr,
        )
        return 0
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Inspect repro observability traces and profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report",
        help="summarise one trace: self/cumulative span times, cache "
        "hit rates, profiled resource usage",
    )
    rep.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="trace .jsonl file or a directory holding traces (default: "
        "newest trace under the trace dir)",
    )
    rep.add_argument(
        "--tree",
        action="store_true",
        help="also print the full span tree in start order",
    )
    rep.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is the machine-readable report)",
    )
    rep.add_argument(
        "--critical-path",
        action="store_true",
        help="attribute end-to-end wall to the dominant stage chain "
        "of each graph run",
    )
    rep.set_defaults(fn=_cmd_report)

    exp = sub.add_parser(
        "export",
        help="convert a trace for external profile viewers",
    )
    exp.add_argument("trace", nargs="?", default=None)
    exp.add_argument(
        "--format",
        choices=("chrome-trace", "speedscope"),
        default="chrome-trace",
        help="target format (chrome-trace opens in chrome://tracing, "
        "Perfetto, and speedscope)",
    )
    exp.add_argument(
        "--out", default=None, help="output path (default: next to the trace)"
    )
    exp.set_defaults(fn=_cmd_export)

    dif = sub.add_parser(
        "diff",
        help="compare two run profiles per stage; nonzero exit on "
        "regression (the CI sentinel)",
    )
    dif.add_argument("baseline", help="baseline profile (or .jsonl trace)")
    dif.add_argument("current", help="current profile (or .jsonl trace)")
    dif.add_argument(
        "--wall-ratio",
        type=float,
        default=None,
        help="fail when current/baseline stage wall exceeds this "
        "(default 1.25)",
    )
    dif.add_argument(
        "--cpu-ratio",
        type=float,
        default=0.0,
        help="also gate CPU time at this ratio (0 = informational)",
    )
    dif.add_argument(
        "--min-wall",
        type=float,
        default=None,
        help="skip stages whose baseline wall is below this noise "
        "floor (default 0.5)",
    )
    dif.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (single-core runners)",
    )
    dif.add_argument(
        "--spans",
        action="store_true",
        help="compare per-span-name records instead of graph stages "
        "(campaign phases, worker batches)",
    )
    dif.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print unregressed and skipped stages",
    )
    dif.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    if args.command == "diff":
        from repro.obs.diff import DEFAULT_MIN_WALL, DEFAULT_WALL_RATIO

        if args.wall_ratio is None:
            args.wall_ratio = DEFAULT_WALL_RATIO
        if args.min_wall is None:
            args.min_wall = DEFAULT_MIN_WALL
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
