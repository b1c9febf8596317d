"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a repo checkout)::

    python3 perfbench/run.py --workload reproduce_cold --seed 1 --seconds 12 --trace 0

``--trace 0`` times the workload's unit with nothing installed, repeating
the unit (each time cold) until ``--seconds`` have passed and the
workload's ``min_units`` ran, and reports the end-to-end metrics as medians
over the repetitions.  ``--trace 1`` runs
the unit once with the per-layer wrappers of :mod:`perfbench.layers`
installed and reports the per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
context record (digest of all outputs, fingerprints, versions, CPU count,
calibration, CPU seconds, error rate).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402  (standard library only)


SRC = ROOT / "src"
#: Private scratch space (cache dirs) inside the checkout; removed per run.
WORK = ROOT / ".perfbench_work"

#: The program's entry modules; paper experiment modules are added from
#: ``repro.experiments.EXPERIMENTS``.
PROGRAM_MODULES = (
    "repro.campaign.runner", "repro.campaign.streaming",
    "repro.campaign.validate", "repro.experiments",
    "repro.experiments.stages", "repro.experiments.stream_drift",
)

#: Times :func:`load_program` in a fresh interpreter (this module imports
#: only the standard library, so the clock covers the program alone).
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{root!r}, {src!r}]; "
    "from perfbench.run import load_program; "
    "t0 = time.perf_counter(); load_program(); print(time.perf_counter() - t0)"
)

IMPORT_SAMPLES = 3

#: End-to-end metric -> unit (``error_rate`` travels as failed/attempted).
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cache_write_mb": "MB"}


def scrub_environment() -> None:
    """Drop every inherited ``REPRO_*`` knob; pin the measured defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ARTIFACT_CACHE"] = "1"


def import_seconds() -> float:
    """Median import time of the program in fresh interpreters."""
    code = IMPORT_PROBE.format(root=str(ROOT), src=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def calibrate() -> float:
    """Seconds for the fixed single-core GBR fit ``perf_harness`` uses."""
    import numpy as np

    from repro.ml.gbr import GradientBoostedRegressor

    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 12))
    y = x[:, 0] - 2.0 * x[:, 5] + rng.normal(scale=0.1, size=2000)
    t0 = perf_counter()
    GradientBoostedRegressor(n_estimators=40, max_depth=3).fit(x, y)
    return perf_counter() - t0


def load_program() -> None:
    """Import every module the workloads run, before anything is timed."""
    import importlib

    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    from repro.experiments import EXPERIMENTS, PAPER_EXPERIMENTS

    for exp in PAPER_EXPERIMENTS:
        importlib.import_module(EXPERIMENTS[exp].partition(":")[0])


def run(args, work: Path, import_s: float | None) -> tuple[dict, dict]:
    from perfbench.workloads import WORKLOADS, Clock, Outcome, reset_program_state

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    import numpy as np

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "import_s": import_s,
    }
    outcomes, walls, writes, cpus, primes = [], [], [], [], []
    tracer = None
    started = perf_counter()
    while True:
        cache = work / f"unit{len(outcomes)}"
        reset_program_state(cache)
        t0 = perf_counter()
        state = workload.prime(args.seed)
        primes.append(perf_counter() - t0)
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
        clock = Clock(cache, tracer)
        out = Outcome()
        try:
            workload.unit(state, clock, out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not outcomes:
            # Later cold repetitions only add allocator drift to the peak.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes.append(out)
        walls.append(clock.wall_s)
        writes.append(clock.write_bytes)
        cpus.append(clock.cpu_s)
        shutil.rmtree(cache, ignore_errors=True)
        if args.trace:
            break
        if (len(outcomes) >= workload.min_units
                and perf_counter() - started >= args.seconds):
            break

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digests = sorted({o.digest for o in outcomes})
    problems = [p for o in outcomes for p in o.problems]
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the output digest: {digests}")
    context.update(
        repetitions=len(outcomes),
        digest=digests[0] if len(digests) == 1 else digests,
        fingerprints=outcomes[0].fingerprints,
        wall_s=walls,
        cpu_s=statistics.median(cpus),
        prime_s=primes,
        calibration_s=calibrate(),
        error_rate=failed / attempted if attempted else 1.0,
        problems=problems,
    )
    result = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace:
        layers.check_liveness(tracer, args.workload)
        values = layers.layer_metrics(tracer, walls[0], clock.counters)
        result["metrics"] = {
            name: {"value": values[name], "unit": layers.unit_of(name)}
            for name in layers.PER_LAYER
        }
        context["traced_wall_s"] = walls[0]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": import_s + statistics.median(primes),
            "peak_rss_mb": peak_rss_mb,
            "cache_write_mb": statistics.median(writes) / 1e6,
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return context, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(layers.ALL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs (the benchmark's own tests)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; "
              "run from the root of a repo checkout", file=sys.stderr)
        return 2

    scrub_environment()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        import_s = None if args.trace else import_seconds()
        load_program()
        context, result = run(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
