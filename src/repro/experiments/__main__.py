"""CLI: ``python -m repro.experiments <exp-id> [--fast]`` or ``all``.

Experiments run over a shared, memoized stage graph: a repeated
invocation reuses every stored artifact (``--force`` bypasses them) and
``--explain`` prints the resolved DAG with per-stage hit/miss status
instead of executing it.  Parameterised ids take an argument after a
colon, e.g. ``fig07:MILC-512``.  A ``topology/routing`` cell can be
appended to run over a different network: ``fig09:df+/valiant``,
``fig07:MILC-512@df+/minimal`` (see ``repro.topology.registry``).
"""

from __future__ import annotations

import argparse
import sys

from repro.config import apply_workers_flag
from repro.experiments import (
    EXPERIMENTS,
    PAPER_EXPERIMENTS,
    explain_experiments,
    run_experiments,
)
from repro.experiments.context import resolve_fast
from repro.experiments.export import ExportError, export_result
from repro.graph.store import artifact_cache_enabled
from repro.obs import configure_logging, ensure_run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate a paper table/figure from the campaign data.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see DESIGN.md §5), optionally with an "
        "argument (fig07:MILC-512) and/or a topology/routing cell "
        "(fig09:df+/valiant, fig07:MILC-512@df+/minimal), or 'all'",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the test-scale campaign (smoke run); also honoured "
        "via REPRO_FAST=1",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the stage DAG with per-stage cache status; run nothing",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every stage, ignoring stored artifacts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for campaign generation and stage "
        "execution (0 = all cores; overrides REPRO_WORKERS; default: "
        "REPRO_WORKERS, else 1)",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write JSON/CSV/TXT result files into DIR",
    )
    args = parser.parse_args(argv)
    try:
        # Every REPRO_* value knob the run reads, before any work: a bad
        # one is a usage error naming it, not a traceback mid-run.
        configure_logging()
        apply_workers_flag(args.workers)
        resolve_fast(args.fast)
        artifact_cache_enabled()
        ensure_run()
    except ValueError as exc:
        parser.error(str(exc))
    if args.experiment == "all":
        ids = sorted(PAPER_EXPERIMENTS)
    else:
        base = args.experiment.partition(":")[0]
        if base not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {base!r}; expected one of "
                f"{sorted(EXPERIMENTS) + ['all']}"
            )
        try:
            from repro.experiments import split_cell

            split_cell(args.experiment)
        except ValueError as exc:
            parser.error(str(exc))
        ids = [args.experiment]
    if args.explain:
        print(explain_experiments(ids, fast=args.fast, force=args.force))
        return 0
    results = run_experiments(ids, fast=args.fast, force=args.force)
    rc = 0
    for exp_id in ids:
        result = results[exp_id]
        print(result.render())
        print()
        if args.export:
            try:
                written = export_result(result, args.export)
            except ExportError as exc:
                written = exc.written
                print(f"error: {exc}", file=sys.stderr)
                rc = 1
            for path in written:
                print(f"  wrote {path}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
