"""Perf-regression harness: timed figure drivers across worker counts.

Emits one ``BENCH_<name>.json`` per benched driver with the wall time at
every requested worker count, a machine calibration factor, and the
dataset fingerprint — the file committed under ``benchmarks/baselines/``
is the regression reference that :mod:`benchmarks.compare_bench` gates CI
against.

Wall times are not portable across machines, so each run also times a
fixed single-core calibration workload (a frozen NumPy kernel that
imports nothing from ``repro``, so the yardstick never moves with the
code under test) and reports ``normalized_wall = wall / calibration``.  The CI gate compares
*normalized* serial walls, which cancels raw CPU speed; the measured
multi-worker speedup is recorded for information (it depends on the
runner's core count and is not gated).

Usage::

    PYTHONPATH=src python -m benchmarks.perf_harness --fast \
        --bench fig09 --workers 1,4 --out benchmarks/baselines

The campaign is generated (or loaded from the disk cache) once before
timing, and the per-dataset feature caches are cleared before every timed
run so each worker-count configuration is measured cold-for-cold.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.campaign.runner import run_campaign
from repro.experiments import PAPER_EXPERIMENTS, run_experiment, run_experiments
from repro.experiments.context import experiment_config
from repro.features import clear_feature_caches
from repro.parallel import shutdown_pool

#: Drivers worth gating: the RFE sweep (fig09), both ablation grids
#: (fig08/fig10), the per-dataset MI table (table03), the warm second
#: `all` pass (the stage graph's near-pure cache read), cold campaign
#: generation on a non-default (topology, routing) cell, and the
#: streaming append (one-window generation + shard-scoped retrain).
BENCHES = [
    "fig09", "fig08", "fig10", "table03",
    "warm_all", "campaign_cold", "stream_append",
]

#: The cell ``campaign_cold`` generates on.  Pinned off the default so
#: the scenario times the registry-built path (Dragonfly+ geometry +
#: pinned-Valiant solve) and never touches the shared default cache.
CAMPAIGN_COLD_CELL = ("df+", "valiant")


def _calibration_kernel(x: np.ndarray, y: np.ndarray) -> float:
    """Boosted decision stumps over rank-binned features, in raw NumPy.

    Frozen: it imports nothing from ``repro``, so no change to the
    program under test can move the yardstick every baseline divides
    by.  It mixes the operations the pipeline spends its time in —
    sorting, gathers, ``bincount`` histograms, cumulative scans,
    elementwise arithmetic and small-array Python overhead.  Changing it
    invalidates every file under ``benchmarks/baselines``.
    """
    n, h, nb = x.shape[0], x.shape[1], 64
    codes = np.empty((n, h), dtype=np.intp)
    ranks = (np.arange(n) * nb // n)[:, None]
    codes[np.argsort(x, axis=0, kind="stable"), np.arange(h)] = ranks
    keys = (codes.T + np.arange(h)[:, None] * nb).ravel()
    cnt = np.cumsum(np.bincount(keys, minlength=h * nb).reshape(h, nb), axis=1)
    resid = y - y.mean()
    for _ in range(1000):
        sm = np.bincount(keys, weights=np.tile(resid, h), minlength=h * nb)
        c_sum = np.cumsum(sm.reshape(h, nb), axis=1)[:, :-1]
        c_cnt = cnt[:, :-1]
        gain = c_sum**2 / c_cnt + (resid.sum() - c_sum) ** 2 / (n - c_cnt)
        f, b = np.unravel_index(int(np.argmax(gain)), gain.shape)
        left = codes[:, f] <= b
        resid = resid - 0.1 * np.where(left, resid[left].mean(), resid[~left].mean())
    return float(np.abs(resid).sum())


def calibrate() -> float:
    """Seconds for a fixed single-core NumPy workload (machine speed
    unit): the best of three runs of :func:`_calibration_kernel`."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 12))
    y = x[:, 0] - 2.0 * x[:, 5] + rng.normal(scale=0.1, size=2000)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel(x, y)
        best = min(best, time.perf_counter() - t0)
    return best


def timed_run(name: str, campaign, fast: bool, workers: int) -> float:
    """One cold timed driver run at a fixed worker count."""
    clear_feature_caches()
    shutdown_pool()  # pool spin-up cost is part of the configuration
    os.environ["REPRO_WORKERS"] = str(workers)
    # Cold means cold: the stage artifact store must not serve a
    # previous configuration's results into a timed run.
    os.environ["REPRO_ARTIFACT_CACHE"] = "0"
    try:
        t0 = time.perf_counter()
        run_experiment(name, campaign=campaign, fast=fast)
        return time.perf_counter() - t0
    finally:
        os.environ.pop("REPRO_WORKERS", None)
        os.environ.pop("REPRO_ARTIFACT_CACHE", None)


def bench_warm_all(campaign, fast: bool, fingerprint: str) -> dict:
    """Time warm `all` passes against a freshly primed artifact store.

    One cold pass primes a private store (not timed), then each timed
    pass replays every paper experiment as a pure cache read — the
    number CI gates so stage resolution/loading never silently regresses
    into recomputation.  Warm walls are milliseconds, so the committed
    baseline carries a wide ``tolerance`` band.
    """
    calibration = calibrate()
    runs = []
    ids = sorted(PAPER_EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="repro-warmbench-") as cache_dir:
        os.environ["REPRO_ARTIFACT_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            run_experiments(ids, campaign=campaign, fast=fast)  # prime
            for i in range(3):
                t0 = time.perf_counter()
                run_experiments(ids, campaign=campaign, fast=fast)
                wall = time.perf_counter() - t0
                runs.append(
                    {
                        "pass": i + 1,
                        "wall_s": round(wall, 4),
                        "normalized_wall": round(wall / calibration, 4),
                    }
                )
                print(f"  warm_all pass {i + 1}: {wall:.3f}s "
                      f"({wall / calibration:.2f}x calibration)")
        finally:
            os.environ.pop("REPRO_ARTIFACT_CACHE", None)
            os.environ.pop("REPRO_CACHE_DIR", None)
    best = min(r["normalized_wall"] for r in runs)
    return {
        "name": "warm_all",
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "experiments": len(ids),
        "runs": runs,
        "serial_normalized_wall": best,
        # Millisecond-scale walls jitter far more than minutes-long
        # drivers; the regression this gates (a warm pass recomputing
        # stages) is orders of magnitude over any plausible band.
        "tolerance": 3.0,
    }


def bench_campaign_cold(
    fast: bool,
    worker_counts: list[int],
    step_blocks: list[int] | None = None,
) -> dict:
    """Time cold campaign generation on :data:`CAMPAIGN_COLD_CELL`.

    ``use_cache=False`` keeps every timed run a full generation (no disk
    reads or writes), so the number tracks the scheduler + routing +
    congestion-solve pipeline itself — on the non-default cell, where a
    geometry or registry regression would not be masked by the
    default-cell caches the other scenarios lean on.

    ``step_blocks`` optionally sweeps the batched solver's block size
    (``REPRO_STEP_BLOCK``) at workers=1 after the worker sweep — an
    informational curve for picking :data:`repro.config.DEFAULT_STEP_BLOCK`;
    it is recorded but never gated (results are bit-identical at any
    block size, only the wall time moves).
    """
    import dataclasses

    from repro.campaign.runner import run_campaign as gen

    topology, routing = CAMPAIGN_COLD_CELL
    cfg = dataclasses.replace(
        experiment_config(fast),
        topology=topology,
        routing=routing,
        use_cache=False,
    )
    fingerprint = cfg.fingerprint()
    calibration = calibrate()

    def one_timed_gen(workers: int) -> float:
        shutdown_pool()
        os.environ["REPRO_WORKERS"] = str(workers)
        try:
            t0 = time.perf_counter()
            gen(cfg)
            return time.perf_counter() - t0
        finally:
            os.environ.pop("REPRO_WORKERS", None)

    runs = []
    for workers in worker_counts:
        wall = one_timed_gen(workers)
        runs.append(
            {
                "workers": workers,
                "wall_s": round(wall, 4),
                "normalized_wall": round(wall / calibration, 4),
            }
        )
        print(f"  campaign_cold workers={workers}: {wall:.2f}s "
              f"({wall / calibration:.1f}x calibration)")

    sweep = []
    for block in step_blocks or []:
        os.environ["REPRO_STEP_BLOCK"] = str(block)
        try:
            wall = one_timed_gen(workers=1)
        finally:
            os.environ.pop("REPRO_STEP_BLOCK", None)
        sweep.append(
            {
                "step_block": block,
                "wall_s": round(wall, 4),
                "normalized_wall": round(wall / calibration, 4),
            }
        )
        print(f"  campaign_cold step_block={block}: {wall:.2f}s "
              f"({wall / calibration:.1f}x calibration)")

    serial = next((r for r in runs if r["workers"] == 1), runs[0])
    fastest = min(runs, key=lambda r: r["wall_s"])
    result = {
        "name": "campaign_cold",
        "mode": "fast" if fast else "full",
        "cell": f"{topology}/{routing}",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "runs": runs,
        "serial_normalized_wall": serial["normalized_wall"],
        "best_speedup_vs_serial": round(
            serial["wall_s"] / fastest["wall_s"], 3
        ),
        "best_speedup_workers": fastest["workers"],
    }
    if sweep:
        result["step_block_sweep"] = sweep
    return result


#: Datasets the stream_append scenario retrains on — two suffice to
#: exercise the multi-key append path without tripling the drift cost.
STREAM_APPEND_KEYS = ["AMG-128", "MILC-128"]


def bench_stream_append(fast: bool) -> dict:
    """Time one-window appends against a primed streamed campaign.

    Primes a two-window stream (generation + drift training, not timed)
    into a private cache, then times consecutive appends: each timed
    pass adds exactly one window, so the wall is one window's campaign
    generation plus the shard-scoped drift stages (train + eval on the
    new shard, reduce, render) — the incremental-append cost the
    streaming refactor gates.  A regression here means an append started
    recomputing old shards (the ``stream-append`` CI job catches the
    correctness side; this catches the wall).
    """
    from repro.campaign.streaming import StreamConfig, run_stream
    from repro.experiments.stream_drift import stream_drift

    calibration = calibrate()
    base = experiment_config(fast)
    window_days = 2.0
    primed, appends = 2, 3
    runs = []
    with tempfile.TemporaryDirectory(prefix="repro-streambench-") as cache_dir:
        os.environ["REPRO_ARTIFACT_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.environ["REPRO_WORKERS"] = "1"
        try:
            camp = run_stream(
                StreamConfig(base=base, windows=primed, window_days=window_days)
            )
            stream_drift(camp, keys=STREAM_APPEND_KEYS, fast=fast)  # prime
            for i in range(appends):
                windows = primed + 1 + i
                clear_feature_caches()  # in-memory warmth is not an append
                shutdown_pool()
                t0 = time.perf_counter()
                camp = run_stream(
                    StreamConfig(
                        base=base, windows=windows, window_days=window_days
                    )
                )
                stream_drift(camp, keys=STREAM_APPEND_KEYS, fast=fast)
                wall = time.perf_counter() - t0
                runs.append(
                    {
                        "windows": windows,
                        "wall_s": round(wall, 4),
                        "normalized_wall": round(wall / calibration, 4),
                    }
                )
                print(f"  stream_append -> windows={windows}: {wall:.2f}s "
                      f"({wall / calibration:.2f}x calibration)")
            fingerprint = camp.stream.fingerprint
        finally:
            os.environ.pop("REPRO_ARTIFACT_CACHE", None)
            os.environ.pop("REPRO_CACHE_DIR", None)
            os.environ.pop("REPRO_WORKERS", None)
    best = min(r["normalized_wall"] for r in runs)
    return {
        "name": "stream_append",
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "keys": STREAM_APPEND_KEYS,
        "window_days": window_days,
        "runs": runs,
        "serial_normalized_wall": best,
        # Append walls are seconds-scale and dominated by one window's
        # generation; give them more slack than the minutes-long drivers.
        "tolerance": 0.5,
    }


def bench_profile(campaign, fast: bool, fingerprint: str, out_dir: Path) -> dict:
    """One profiled cold ``all`` pass -> ``PROFILE_all_fast.json``.

    Runs every paper experiment serially with ``REPRO_PROFILE=1`` and
    the artifact store off (cold-for-cold, like the timed benches),
    aggregates the trace into per-stage resource records, and
    normalizes stage walls by the calibration factor so the committed
    baseline is machine-speed independent — ``python -m repro.obs
    diff`` gates against exactly this file.  The raw ``profile.json``
    and a chrome-trace export land in ``out_dir`` for CI upload.
    """
    import shutil

    from repro.obs import trace as obs_trace
    from repro.obs.export import export_trace
    from repro.obs.report import load_trace

    calibration = calibrate()
    ids = sorted(PAPER_EXPERIMENTS)
    clear_feature_caches()
    shutdown_pool()
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        trace_path = Path(tmp) / "profile-all.jsonl"
        os.environ["REPRO_PROFILE"] = "1"
        os.environ["REPRO_WORKERS"] = "1"
        os.environ["REPRO_ARTIFACT_CACHE"] = "0"
        try:
            obs_trace.end_run()  # a clean sink for exactly this run
            obs_trace.start_run("profile-all", path=trace_path)
            t0 = time.perf_counter()
            run_experiments(ids, campaign=campaign, fast=fast)
            wall = time.perf_counter() - t0
            obs_trace.end_run()  # flushes metrics + writes profile.json
        finally:
            os.environ.pop("REPRO_PROFILE", None)
            os.environ.pop("REPRO_WORKERS", None)
            os.environ.pop("REPRO_ARTIFACT_CACHE", None)
        profile_path = trace_path.with_name("profile-all.profile.json")
        prof = json.loads(profile_path.read_text(encoding="utf-8"))
        shutil.copy(profile_path, out_dir / "profile.json")
        export_trace(
            load_trace(trace_path), "chrome-trace",
            out_dir / "profile.chrome.json",
        )
    print(f"  profile_all: {wall:.2f}s over {len(ids)} experiments "
          f"({wall / calibration:.1f}x calibration)")

    stages = {}
    for key, rec in prof["stages"].items():
        cpu = rec["cpu_user"] + rec["cpu_sys"]
        stages[key] = {
            "calls": rec["calls"],
            "status": rec["status"],
            "wall_s": round(rec["wall"], 4),
            "normalized_wall": round(rec["wall"] / calibration, 4),
            "cpu_s": round(cpu, 4),
            "normalized_cpu": round(cpu / calibration, 4),
            "maxrss_kb": rec["maxrss_kb"],
        }
    return {
        "name": "profile_all",
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "experiments": len(ids),
        "wall_s": round(wall, 4),
        "normalized_wall": round(wall / calibration, 4),
        "stages": stages,
    }


def bench_one(
    name: str, campaign, fast: bool, worker_counts: list[int], fingerprint: str
) -> dict:
    calibration = calibrate()
    runs = []
    for workers in worker_counts:
        wall = timed_run(name, campaign, fast, workers)
        runs.append(
            {
                "workers": workers,
                "wall_s": round(wall, 4),
                "normalized_wall": round(wall / calibration, 4),
            }
        )
        print(f"  {name} workers={workers}: {wall:.2f}s "
              f"({wall / calibration:.1f}x calibration)")
    serial = next((r for r in runs if r["workers"] == 1), runs[0])
    fastest = min(runs, key=lambda r: r["wall_s"])
    return {
        "name": name,
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "runs": runs,
        "serial_normalized_wall": serial["normalized_wall"],
        "best_speedup_vs_serial": round(
            serial["wall_s"] / fastest["wall_s"], 3
        ),
        "best_speedup_workers": fastest["workers"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--bench", action="append", choices=BENCHES,
                    help="driver(s) to time (default: all)")
    ap.add_argument("--workers", default="1,4",
                    help="comma-separated worker counts to sweep")
    ap.add_argument("--fast", action="store_true",
                    help="test-scale campaign (the CI smoke configuration)")
    ap.add_argument("--step-block", default=None,
                    help="comma-separated REPRO_STEP_BLOCK values to sweep "
                    "at workers=1 in the campaign_cold bench (e.g. "
                    "'1,16,64'; informational, never gated)")
    ap.add_argument("--out", default="benchmarks",
                    help="directory for BENCH_<name>.json files")
    ap.add_argument("--profile", action="store_true",
                    help="run one profiled cold `all` pass and emit "
                    "PROFILE_all_<mode>.json (the obs diff baseline) "
                    "instead of the timed benches")
    args = ap.parse_args(argv)

    worker_counts = [int(w) for w in args.workers.split(",")]
    step_blocks = (
        [int(b) for b in args.step_block.split(",")]
        if args.step_block else None
    )
    # --profile replaces the timed benches unless some were named.
    benches = args.bench or ([] if args.profile else BENCHES)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg = experiment_config(args.fast)
    fingerprint = cfg.fingerprint()
    print(f"campaign {fingerprint} (mode={'fast' if args.fast else 'full'}, "
          f"cpu_count={os.cpu_count()})")
    # campaign_cold and stream_append generate their own campaigns;
    # don't pay for the default one unless another scenario needs it.
    campaign = (
        run_campaign(cfg, progress=True)
        if args.profile or set(benches) - {"campaign_cold", "stream_append"}
        else None
    )

    if args.profile:
        result = bench_profile(campaign, args.fast, fingerprint, out_dir)
        mode = "fast" if args.fast else "full"
        path = out_dir / f"PROFILE_all_{mode}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"  wrote {path}")

    for name in benches:
        if name == "campaign_cold":
            result = bench_campaign_cold(args.fast, worker_counts, step_blocks)
        elif name == "stream_append":
            result = bench_stream_append(args.fast)
        elif name == "warm_all":
            result = bench_warm_all(campaign, args.fast, fingerprint)
        else:
            # Warm pass: campaign-independent one-time costs (imports, disk
            # cache materialisation) land here, not in the timed runs.
            timed_run(name, campaign, args.fast, workers=1)
            result = bench_one(
                name, campaign, args.fast, worker_counts, fingerprint
            )
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
