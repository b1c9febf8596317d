"""The benchmark's workloads: inputs from the seed, the timed unit, checks.

Every workload is one fixed *unit* of work.  ``prime`` is its set-up
(untimed by ``wall_s``, reported in ``setup_s``); ``unit`` runs the timed
operation through a :class:`Clock` and then checks the program's outputs,
counting failed operations and feeding every output into a digest.  The
seed only enters through ``CampaignConfig.seed``: the program receives the
generated config and nothing else.

Import this module only after ``src/`` is on ``sys.path`` and the
``REPRO_*`` environment is scrubbed (``run.py`` does both).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.campaign.runner import CampaignConfig, run_campaign
from repro.campaign.streaming import StreamConfig, run_stream
from repro.campaign.validate import validate_campaign
from repro.experiments import PAPER_EXPERIMENTS, run_experiments
from repro.experiments.context import clear_cache
from repro.experiments.stream_drift import (
    fresh_shard_fingerprints,
    incremental_violations,
    plan_stream_drift,
    stream_drift,
)
from repro.features import clear_feature_caches
from repro.obs import METRICS
from repro.parallel import shutdown_pool

from perfbench.layers import COUNTERS, cpu_now


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:  # a temp file renamed under us
                pass
    return total


class Clock:
    """Accumulates one unit's timed segments.

    Each :meth:`timed` segment adds its wall and CPU seconds, the growth
    of the cache directory, and the deltas of the program's hit/miss
    counters; the tracer (if any) records only inside segments.
    """

    def __init__(self, cache_dir: Path, tracer=None) -> None:
        self.cache_dir = cache_dir
        self.tracer = tracer
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.write_bytes = 0
        self.counters = dict.fromkeys(COUNTERS, 0)

    @contextmanager
    def timed(self):
        size0 = tree_bytes(self.cache_dir)
        n0 = {name: METRICS.counter(name).value for name in COUNTERS}
        if self.tracer is not None:
            self.tracer.recording = True
        c0 = cpu_now()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - t0
            self.cpu_s += cpu_now() - c0
            if self.tracer is not None:
                self.tracer.recording = False
            for name in COUNTERS:
                self.counters[name] += METRICS.counter(name).value - n0[name]
            self.write_bytes += tree_bytes(self.cache_dir) - size0


@dataclasses.dataclass
class Outcome:
    """Operations attempted/failed in one unit, and the digest of outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    fingerprints: list = dataclasses.field(default_factory=list)
    _hash: object = dataclasses.field(default_factory=hashlib.sha256)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str, n: int = 1) -> None:
        """Count ``n`` failed operations (inside ``except``: also log the traceback)."""
        if sys.exc_info()[0] is not None:
            traceback.print_exc()
        self.attempted += n
        self.failed += n
        self.problems.append(why)

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._hash.update(str((part.shape, part.dtype.str)).encode())
                self._hash.update(np.ascontiguousarray(part).tobytes())
            else:
                self._hash.update(str(part).encode())
            self._hash.update(b"\0")

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


def reset_program_state(cache_dir: Path) -> None:
    """Cold start for one unit: empty private cache, no in-process memos."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    clear_cache()
    shutdown_pool()


# --------------------------------------------------------------------------- #
# reproduce_cold
# --------------------------------------------------------------------------- #

#: Per experiment, the result-data keys holding its headline numbers.
HEADLINES = {
    "table01": ("rows",),
    "table02": ("rows",),
    "table03": ("recovery_rate",),
    "fig01": ("rows",),
    "fig03": ("trends",),
    "fig04": ("AMG-512", "MILC-512"),
    "fig05": ("miniVite-128", "UMT-128"),
    "fig07": ("correlations",),
    "fig08": ("summary",),
    "fig09": ("scores", "mape"),
    "fig10": ("summary",),
    "fig11": ("AMG-128", "AMG-512", "MILC-128", "MILC-512"),
    "fig12": ("mape", "observed", "predicted"),
}

#: Experiments whose headline is a table of names, not numbers.
NON_NUMERIC = frozenset({"table02"})


def numbers(obj, depth: int = 0) -> list[float]:
    """Every numeric leaf under ``obj`` (dicts, sequences, arrays, dataclasses)."""
    if depth > 8 or isinstance(obj, (str, bytes, bool, np.bool_)):
        return []
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return [float(obj)]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fiu":
            return obj.astype(float).ravel().tolist()
        return [x for item in obj.ravel() for x in numbers(item, depth + 1)]
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in numbers(v, depth + 1)]
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in numbers(v, depth + 1)]
    if dataclasses.is_dataclass(obj):
        return [
            x for f in dataclasses.fields(obj)
            for x in numbers(getattr(obj, f.name), depth + 1)
        ]
    return []


def headline_problem(exp_id: str, result) -> str | None:
    """Why ``result`` lacks usable headline numbers, or None if it has them."""
    data = getattr(result, "data", None)
    if not isinstance(data, dict):
        return f"{exp_id}: no result data"
    for key in HEADLINES[exp_id]:
        if data.get(key) is None:
            return f"{exp_id}: headline {key!r} missing"
        if exp_id in NON_NUMERIC:
            if not len(data[key]):
                return f"{exp_id}: headline {key!r} empty"
            continue
        vals = numbers(data[key])
        if not vals:
            return f"{exp_id}: headline {key!r} has no numbers"
        if not all(math.isfinite(v) for v in vals):
            return f"{exp_id}: headline {key!r} is not finite"
    return None


class ReproduceCold:
    name = "reproduce_cold"
    min_units = 1

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        # The smoke size keeps one experiment per hot path: RFE (fig09),
        # the forecasting ablation grid (fig08), a trained forecaster
        # (fig12), and a names-only table.
        self.ids = (
            ["fig08", "fig09", "fig12", "table02"] if smoke
            else sorted(PAPER_EXPERIMENTS)
        )

    def prime(self, seed: int) -> CampaignConfig:
        if self.smoke:
            return CampaignConfig.tiny(seed=seed, days=4.0)
        return CampaignConfig.tiny(seed=seed)

    def unit(self, cfg: CampaignConfig, clock: Clock, out: Outcome) -> None:
        try:
            with clock.timed():
                camp = run_campaign(cfg)
                results = run_experiments(self.ids, campaign=camp, fast=True)
        except Exception as exc:
            out.fail(f"reproduce_cold raised {type(exc).__name__}: {exc}", len(self.ids))
            return
        out.fingerprints.append(cfg.fingerprint())
        out.feed(cfg.fingerprint())
        for exp_id in self.ids:
            result = results.get(exp_id)
            problem = headline_problem(exp_id, result)
            if problem:
                out.fail(problem)
                continue
            out.ok()
            out.feed(exp_id, result.render())


# --------------------------------------------------------------------------- #
# campaign_cold
# --------------------------------------------------------------------------- #


class CampaignCold:
    name = "campaign_cold"
    #: The first unit in a process also pays first-touch page faults; two
    #: units per run keep the median comparable from run to run.
    min_units = 2

    #: The adaptive and the pinned routing policy take different solve paths.
    CELLS = (("dragonfly", "ugal"), ("df+", "valiant"))

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def prime(self, seed: int):
        if self.smoke:
            return [CampaignConfig.tiny(seed=seed, days=4.0, topology=t, routing=r)
                    for t, r in self.CELLS]
        return [CampaignConfig.small(seed=seed, days=6.0, topology=t, routing=r)
                for t, r in self.CELLS]

    def unit(self, configs, clock: Clock, out: Outcome) -> None:
        for cfg in configs:
            # Written into the unit's empty private cache: the load misses,
            # so generation is cold, and the save is the user's disk cost.
            try:
                with clock.timed():
                    camp = run_campaign(cfg)
            except Exception as exc:
                out.fail(f"{cfg.cell_id} raised {type(exc).__name__}: {exc}")
                continue
            out.fingerprints.append(cfg.fingerprint())
            out.feed(cfg.cell_id, cfg.fingerprint())
            reports = validate_campaign(camp)
            for key in sorted(reports):
                rep = reports[key]
                if rep.ok:
                    out.ok()
                else:
                    out.fail(f"{cfg.cell_id} {key}: failed {rep.failed()}")
                ds = camp[key]
                out.feed(key, ds.Y, ds.X, ds.ldms, ds.placement, ds.start_times,
                         json.dumps([r.neighborhood for r in ds.runs]),
                         json.dumps([r.routine_times for r in ds.runs],
                                    sort_keys=True))


# --------------------------------------------------------------------------- #
# stream_append
# --------------------------------------------------------------------------- #


class StreamAppend:
    name = "stream_append"
    min_units = 2
    KEYS = ["AMG-128", "MILC-128"]
    WINDOW_DAYS = 2.0
    PRIMED = 2

    def __init__(self, smoke: bool = False) -> None:
        self.appends = 1 if smoke else 6

    def stream(self, base: CampaignConfig, windows: int) -> StreamConfig:
        return StreamConfig(base=base, windows=windows, window_days=self.WINDOW_DAYS)

    def prime(self, seed: int):
        base = CampaignConfig.tiny(seed=seed)
        camp = run_stream(self.stream(base, self.PRIMED))
        stream_drift(camp, keys=self.KEYS, fast=True)
        return base

    def unit(self, base: CampaignConfig, clock: Clock, out: Outcome) -> None:
        for i in range(self.appends):
            windows = self.PRIMED + 1 + i
            clear_feature_caches()  # in-memory warmth is not an append
            try:
                with clock.timed():
                    camp = run_stream(self.stream(base, windows))
                # The plan is read-only: it checks what the append will
                # recompute before the drift stages run.
                plans = plan_stream_drift(camp, keys=self.KEYS, fast=True)
                bad = incremental_violations(plans, fresh_shard_fingerprints(camp))
                with clock.timed():
                    result = stream_drift(camp, keys=self.KEYS, fast=True)
            except Exception as exc:
                out.fail(f"append {windows} raised {type(exc).__name__}: {exc}")
                continue
            out.fingerprints.append(camp.stream.fingerprint)
            out.feed(windows, camp.stream.fingerprint, result.render())
            if bad:
                out.fail(f"append {windows}: {'; '.join(bad)}")
            else:
                out.ok()


WORKLOADS = {w.name: w for w in (ReproduceCold, CampaignCold, StreamAppend)}
