"""CLI: ``python -m repro.campaign [--fast] [--regenerate] [--workers N]``.

``python -m repro.campaign stream ...`` enters the longitudinal
streaming mode (see :mod:`repro.campaign.streaming`): generate or
append time windows, render the shard table, and optionally run the
rolling-retrain drift experiment over the shards.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.inspect import render_summary, summarize_campaign
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.config import apply_workers_flag
from repro.experiments.context import resolve_fast
from repro.obs import configure_logging, ensure_run, get_logger

_LOG = get_logger("campaign")


def _resolve_knobs(parser: argparse.ArgumentParser, args, *readers) -> bool:
    """Read every ``REPRO_*`` value knob the run uses, before any work.

    A bad value ends the CLI as a usage error (exit 2) naming the knob,
    not as a traceback from the middle of a run.  ``--workers N`` is
    applied to the whole invocation here.  Returns the resolved fast
    flag (``--fast`` or ``REPRO_FAST``, :func:`resolve_fast`), the one
    scale the whole invocation uses.
    """
    try:
        configure_logging()
        apply_workers_flag(args.workers)
        fast = resolve_fast(args.fast)
        for read in readers:
            read()
        ensure_run()
    except ValueError as exc:
        parser.error(str(exc))
    return fast


def _resolve_axis(parser: argparse.ArgumentParser, args) -> dict:
    """Validate the (topology, routing) flags into config overrides."""
    if args.topology is None and args.routing is None:
        return {}
    from repro.topology.registry import canonical_routing, canonical_topology

    try:
        topo = canonical_topology(args.topology or "dragonfly")
        routing = canonical_routing(args.routing or "ugal")
    except ValueError as exc:
        parser.error(str(exc))
    return {"topology": topo, "routing": routing}


def _axis_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        default=None,
        metavar="NAME",
        help="network topology (registry name or alias, e.g. dragonfly, "
        "df+); default: dragonfly",
    )
    parser.add_argument(
        "--routing",
        default=None,
        metavar="NAME",
        help="routing policy (ugal, minimal, valiant or alias); "
        "default: ugal",
    )


def stream_main(argv: list[str]) -> int:
    """``python -m repro.campaign stream``: windows, shards, drift."""
    parser = argparse.ArgumentParser(
        prog="repro.campaign stream",
        description="Generate (or incrementally append to) a streamed "
        "campaign of time-window shards and print the shard table. "
        "Re-running with --windows N+1 generates only the new window; "
        "everything else loads from the per-window caches.",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="test-scale windows; also honoured via REPRO_FAST=1",
    )
    parser.add_argument(
        "--windows",
        type=int,
        default=2,
        metavar="N",
        help="number of time windows in the stream (default: 2)",
    )
    parser.add_argument(
        "--window-days",
        type=float,
        default=None,
        metavar="D",
        help="days per window (default: the base config's full horizon "
        "for every window; window 0 is then exactly the one-shot "
        "campaign)",
    )
    parser.add_argument(
        "--drift",
        action="store_true",
        help="run the rolling-retrain drift experiment over the shards",
    )
    parser.add_argument(
        "--keys",
        default=None,
        metavar="K1,K2",
        help="comma-separated dataset keys for the drift experiment "
        "(default: every key present in all windows)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="render the drift DAG with per-stage (and per-shard) "
        "hit/miss status before running",
    )
    parser.add_argument(
        "--check-incremental",
        action="store_true",
        help="fail unless every cold stage is scoped to the newest "
        "window's shards (the append contract; exit 1 on violations)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for generation and the drift stages "
        "(0 = all cores; overrides REPRO_WORKERS)",
    )
    _axis_arguments(parser)
    args = parser.parse_args(argv)
    readers = ()
    if args.drift or args.explain or args.check_incremental:
        # The drift DAG runs over the artifact store.
        from repro.graph.store import artifact_cache_enabled

        readers = (artifact_cache_enabled,)
    fast = _resolve_knobs(parser, args, *readers)
    axis = _resolve_axis(parser, args)
    cfg = CampaignConfig.tiny(**axis) if fast else CampaignConfig.small(**axis)

    from repro.campaign.streaming import StreamConfig, render_stream, run_stream

    sconf = StreamConfig(
        base=cfg, windows=args.windows, window_days=args.window_days
    )
    campaign = run_stream(sconf, progress=True)
    if axis:
        print(f"campaign cell: {cfg.cell_id}")
    print(render_stream(campaign.stream))

    keys = [k for k in args.keys.split(",") if k] if args.keys else None
    if args.explain or args.check_incremental:
        from repro.experiments.stream_drift import (
            fresh_shard_fingerprints,
            incremental_violations,
            plan_stream_drift,
        )
        from repro.graph import render_plan

        plans = plan_stream_drift(campaign, keys=keys, fast=fast)
        if args.explain:
            print(render_plan(plans))
        if args.check_incremental:
            bad = incremental_violations(
                plans, fresh_shard_fingerprints(campaign)
            )
            if bad:
                for line in bad:
                    _LOG.error("incremental violation: %s", line)
                print(f"{len(bad)} incremental-append violations")
                return 1
            print(
                "incremental append clean: every cold stage is scoped to "
                "the newest window's shards"
            )
    if args.drift:
        from repro.experiments.stream_drift import stream_drift

        result = stream_drift(campaign, keys=keys, fast=fast)
        print(result.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stream":
        return stream_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.campaign",
        description="Generate (or load) the measurement campaign and "
        "print per-dataset summary statistics.",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="test-scale campaign; also honoured via REPRO_FAST=1",
    )
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help="drop the cached entry and rebuild (the fresh campaign is "
        "cached again)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the data-contract checks on every dataset",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for generation (0 = all cores; overrides "
        "the REPRO_WORKERS environment variable; output is bit-identical "
        "for any value)",
    )
    _axis_arguments(parser)
    args = parser.parse_args(argv)
    fast = _resolve_knobs(parser, args)
    axis = _resolve_axis(parser, args)
    cfg = CampaignConfig.tiny(**axis) if fast else CampaignConfig.small(**axis)
    if args.regenerate:
        # Drop the cached entry (under the saver lock, so a concurrent
        # generator isn't pulled out from under) and regenerate; the
        # fresh campaign is saved back, unlike use_cache=False.
        import shutil

        from repro.campaign.datasets import Campaign

        with Campaign.cache_lock(cfg.fingerprint()):
            root = Campaign.cache_dir() / cfg.fingerprint()
            if root.exists():
                shutil.rmtree(root)
    campaign = run_campaign(cfg, progress=True)
    # Results (fingerprint, summary, validation verdict) are the CLI's
    # output proper and stay on stdout; generation progress arrives as
    # log records (see campaign/runner.py).
    print(f"campaign fingerprint: {cfg.fingerprint()}")
    if axis:
        print(f"campaign cell: {cfg.cell_id}")
    print(render_summary(summarize_campaign(campaign)))
    print(f"ground-truth aggressors: {campaign.ground_truth_aggressors}")
    if args.validate:
        from repro.campaign.validate import validate_campaign

        reports = validate_campaign(campaign)
        bad = {k: r for k, r in reports.items() if not r.ok}
        if bad:
            for key, rep in bad.items():
                _LOG.error("INVALID %s: %s", key, ", ".join(rep.failed()))
            return 1
        print(f"all {len(reports)} datasets pass the data contract")
    return 0


if __name__ == "__main__":
    sys.exit(main())
