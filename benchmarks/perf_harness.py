"""Perf-regression baseline: one traced cold ``all`` run, calibrated.

Runs the experiments CLI once, serially, in a subprocess::

    REPRO_TRACE=1 REPRO_ARTIFACT_CACHE=0 REPRO_CACHE_DIR=<empty tmp> \\
        REPRO_TRACE_DIR=<out> python -m repro.experiments all --fast --workers 1

The cache directory is private and empty and the artifact store is off,
so every stage executes cold inside the trace, campaign generation
included (the ``campaign`` stage).  The run's JSONL trace, whose every
span carries its resource sample, lands in ``--out``.  The harness adds
a chrome-trace export of the trace and ``PROFILE_all_<mode>.json``: the
run profile (:func:`repro.obs.profile.build_profile` of the trace) as
per-stage records with wall and CPU seconds divided by
:func:`calibrate`.  ``python -m repro.obs diff`` gates CI on that file
against the committed ``benchmarks/baselines/PROFILE_all_fast.json``.

Wall times are not portable across machines, so the calibration is a
fixed single-core workload: a frozen NumPy kernel that imports nothing
from ``repro``, so the yardstick never moves with the code under test.
Normalized walls cancel raw CPU speed.

Usage::

    PYTHONPATH=src python -m benchmarks.perf_harness --fast --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments import PAPER_EXPERIMENTS
from repro.experiments.context import experiment_config
from repro.obs.export import export_trace
from repro.obs.profile import build_profile
from repro.obs.report import load_trace


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


def profile_all(fast: bool, out_dir: Path) -> Path:
    """Run the traced cold ``all`` CLI into ``out_dir``; return its trace.

    Inherited ``REPRO_*`` knobs are dropped, so the run is the same
    whatever the caller's environment sets.
    """
    cmd = [sys.executable, "-m", "repro.experiments", "all", "--workers", "1"]
    if fast:
        cmd.append("--fast")
    before = set(out_dir.glob("*.jsonl"))
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as cache_dir:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            REPRO_TRACE="1",
            REPRO_ARTIFACT_CACHE="0",
            REPRO_CACHE_DIR=cache_dir,
            REPRO_TRACE_DIR=str(out_dir),
        )
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
    new = sorted(set(out_dir.glob("*.jsonl")) - before)
    if len(new) != 1:
        raise RuntimeError(f"expected one new trace in {out_dir}, found {new}")
    return new[0]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--fast", action="store_true",
                    help="test-scale campaign (the CI configuration)")
    ap.add_argument("--out", required=True,
                    help="directory for PROFILE_all_<mode>.json, the run's "
                    "trace and its chrome-trace export")
    args = ap.parse_args(argv)
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    mode = "fast" if args.fast else "full"
    fingerprint = experiment_config(args.fast).fingerprint()
    print(f"campaign {fingerprint} (mode={mode}, cpu_count={os.cpu_count()})")
    calibration = calibrate()
    trace_path = profile_all(args.fast, out_dir)
    data = load_trace(trace_path)
    export_trace(data)
    prof = build_profile(data)

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
    wall = prof["root"]["wall"]
    staged = sum(rec["wall"] for rec in prof["stages"].values())
    print(f"  profile_all: {wall:.2f}s root wall over {len(PAPER_EXPERIMENTS)} "
          f"experiments ({wall / calibration:.1f}x calibration); "
          f"{len(stages)} stages cover {staged / wall:.2%} of it, "
          f"campaign {prof['stages']['campaign']['wall']:.2f}s")
    result = {
        "name": "profile_all",
        "mode": mode,
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "experiments": len(PAPER_EXPERIMENTS),
        "wall_s": round(wall, 4),
        "normalized_wall": round(wall / calibration, 4),
        "stages": stages,
    }
    path = out_dir / f"PROFILE_all_{mode}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
