"""Per-layer timing taken from outside the program.

The traced run installs a wrapper around public functions of each
``repro`` layer and records, per metric stem, the number of calls, the
inclusive wall time, and the self time (duration minus the time of wrapped
children, tracked with a stack).  Nothing inside ``src/`` changes:

* class methods are patched on the class that defines them;
* module functions are patched on their defining module *and* on every
  loaded ``repro`` module that bound them by name (``from x import f``),
  i.e. at every name a caller resolves.

A hook whose target does not exist fails at install time, and a hook that
never fires on a workload listed in its ``live`` set fails the run
(:func:`check_liveness`), so a renamed function can never read as 0 s.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = (
    "topology", "system", "network", "telemetry", "campaign",
    "features", "ml", "analysis", "graph", "parallel",
)

RC, CC, SA = "reproduce_cold", "campaign_cold", "stream_append"
ALL = frozenset({RC, CC, SA})


@dataclass(frozen=True)
class Hook:
    """One wrapped callable.

    ``stem`` is the metric prefix (``<layer>.<name>``); several hooks may
    share one stem (both routers feed ``topology.route``).  ``target`` is
    ``module:qualname``.  ``live`` names the workloads on which the hook
    must fire at least once.
    """

    stem: str
    target: str
    live: frozenset = ALL


HOOKS = (
    # topology
    Hook("topology.route", "repro.topology.routing:AdaptiveRouter.route"),
    Hook("topology.route", "repro.topology.dragonfly_plus:DragonflyPlusRouter.route",
         frozenset({CC})),
    Hook("topology.router_link_sums", "repro.topology.base:Topology.router_link_sums"),
    Hook("topology.build", "repro.topology.registry:build_topology"),
    Hook("topology.placement_features", "repro.topology.placement:placement_features"),
    # system
    Hook("system.schedule", "repro.system.scheduler:Scheduler.schedule"),
    Hook("system.bg_workload", "repro.system.workload:BackgroundWorkloadGenerator.generate"),
    # network
    Hook("network.counters_block", "repro.network.counters:synthesize_router_counters_block"),
    Hook("network.ldms_sample_steps", "repro.network.ldms:LDMSSampler.sample_steps"),
    Hook("network.engine_route", "repro.network.engine:CongestionEngine.route"),
    # telemetry
    Hook("telemetry.ncl_record_steps", "repro.telemetry.ariesncl:AriesNCL.record_steps"),
    Hook("telemetry.mpip_profile", "repro.telemetry.mpip:profile_run"),
    Hook("telemetry.sacct_neighborhood", "repro.telemetry.sacct:SacctLog.neighborhood_users"),
    # campaign
    Hook("campaign.run", "repro.campaign.runner:CampaignRunner.run"),
    Hook("campaign.solve_steps", "repro.campaign.runner:ProbeRunContext.solve_steps"),
    Hook("campaign.context_init", "repro.campaign.runner:ProbeRunContext.__init__"),
    Hook("campaign.bg_contributions",
         "repro.campaign.runner:BackgroundTrafficModel.contributions_for_batch"),
    Hook("campaign.dataset_save", "repro.campaign.datasets:RunDataset.save"),
    Hook("campaign.dataset_load", "repro.campaign.datasets:RunDataset.load",
         frozenset({SA})),
    Hook("campaign.stream_run", "repro.campaign.streaming:run_stream", frozenset({SA})),
    # features
    Hook("features.features", "repro.features.store:FeatureStore.features",
         frozenset({RC})),
    Hook("features.windows", "repro.features.store:FeatureStore.windows",
         frozenset({RC, SA})),
    Hook("features.flat_mean_centered", "repro.features.store:FeatureStore.flat_mean_centered",
         frozenset({RC})),
    # ml
    Hook("ml.tree_fit_binned", "repro.ml.tree:DecisionTreeRegressor.fit_binned",
         frozenset({RC})),
    Hook("ml.gbr_fit_binned", "repro.ml.gbr:GradientBoostedRegressor.fit_binned",
         frozenset({RC})),
    Hook("ml.rfe_fit", "repro.ml.rfe:RFE.fit", frozenset({RC})),
    Hook("ml.relevance_scores", "repro.ml.rfe:relevance_scores", frozenset({RC})),
    Hook("ml.attention_fit", "repro.ml.attention:AttentionForecaster.fit",
         frozenset({RC, SA})),
    Hook("ml.attention_predict", "repro.ml.attention:AttentionForecaster.predict",
         frozenset({RC, SA})),
    # analysis (the ablation grid's cells are `forecast_mape` calls: the
    # fig08/fig10 `cell:*` stages score one (m, k, tier) cell each)
    Hook("analysis.ablation_grid", "repro.analysis.forecasting:forecast_mape",
         frozenset({RC})),
    Hook("analysis.fit_forecaster", "repro.analysis.forecasting:fit_forecaster",
         frozenset({RC, SA})),
    Hook("analysis.deviation", "repro.analysis.deviation:deviation_analysis",
         frozenset({RC})),
    Hook("ml.drift_score", "repro.ml.drift:score_on_shard", frozenset({SA})),
    # graph
    Hook("graph.run", "repro.graph.scheduler:GraphRunner.run", frozenset({RC, SA})),
    Hook("graph.store_save", "repro.graph.store:ArtifactStore.save", frozenset({RC, SA})),
    Hook("graph.store_load", "repro.graph.store:ArtifactStore.load", frozenset({RC, SA})),
    # parallel
    Hook("parallel.map", "repro.parallel:WorkerPool.map", frozenset({RC})),
)

#: Hooks whose stem is timed for process CPU as well (``parallel.cpu_s``).
CPU_STEMS = frozenset({"parallel.map"})

#: The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "ml.tree_fit_binned.calls", "ml.tree_fit_binned.self_s",
    "ml.gbr_fit_binned.calls", "ml.gbr_fit_binned.dup_frac",
    "ml.rfe_fit.calls", "ml.relevance_scores.wall_s",
    "ml.attention_fit.calls", "ml.attention_fit.self_s",
    "analysis.ablation_grid.wall_s",
    "campaign.solve_steps.calls", "campaign.solve_steps.self_s",
    "campaign.context_init.self_s", "campaign.bg_contributions.self_s",
    "topology.route.calls", "topology.route.self_s",
    "topology.router_link_sums.self_s",
    "network.counters_block.self_s", "network.ldms_sample_steps.self_s",
    "telemetry.ncl_record_steps.self_s", "system.schedule.self_s",
    "campaign.run.wall_s", "campaign.dataset_save.self_s",
    "campaign.dataset_load.self_s",
    "graph.store_save.calls", "graph.store_save.self_s",
    "graph.store_load.self_s", "graph.run.self_s", "graph.stage_hit_frac",
    "features.features.calls", "features.windows.calls",
    "features.windows.self_s", "features.hit_frac",
    "parallel.map.calls", "parallel.map.wall_s", "parallel.cpu_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.unattributed_s", "trace.overhead_frac",
)

#: The ``repro.obs.METRICS`` counters the hit fractions are read from.
COUNTERS = (
    "features.cache.hits", "features.cache.disk_hits", "features.cache.misses",
    "graph.stage.hit", "graph.stage.miss",
)


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_frac"):
        return "fraction"
    return "s"


def cpu_now() -> float:
    """Process plus children CPU seconds."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Wrapper installation plus the self-time stack.

    Wrappers record only while :attr:`recording` is true, so the
    workload's untimed checks (validation, plans, digests) never land in
    the per-layer numbers.
    """

    def __init__(self) -> None:
        self.recording = False
        #: stem -> [calls, wall_s, self_s]
        self.stats: dict[str, list] = {}
        #: hook -> calls (liveness is per hook, not per stem)
        self.hook_calls: dict[Hook, int] = {}
        self.parallel_cpu_s = 0.0
        #: time spent hashing GBR inputs (kept out of every self time)
        self.hash_s = 0.0
        self._gbr_keys: set[bytes] = set()
        self.gbr_dups = 0
        self._child: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------- #

    def _wrap(self, hook: Hook, fn):
        stats = self.stats.setdefault(hook.stem, [0, 0.0, 0.0])
        self.hook_calls[hook] = 0
        cpu = hook.stem in CPU_STEMS
        pre = self._gbr_key if hook.stem == "ml.gbr_fit_binned" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._child
            if pre is not None:
                h0 = perf_counter()
                pre(args, kwargs)
                dh = perf_counter() - h0
                tracer.hash_s += dh
                if stack:
                    stack[-1] += dh
            stack.append(0.0)
            c0 = cpu_now() if cpu else 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if cpu:
                    tracer.parallel_cpu_s += cpu_now() - c0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                tracer.hook_calls[hook] += 1
                if stack:
                    stack[-1] += dt

        return functools.update_wrapper(wrapper, fn)

    def _gbr_key(self, args, kwargs) -> None:
        """Count GBR fits whose (codes, y, params) were already fitted."""
        import numpy as np

        est, binned = args[0], args[1]
        y = args[2] if len(args) > 2 else kwargs["y"]
        h = hashlib.blake2b(digest_size=16)
        for arr in (np.asarray(binned), np.asarray(y)):
            h.update(str((arr.shape, arr.dtype.str)).encode())
            h.update(arr.tobytes())
        h.update(repr((
            est.n_estimators, est.learning_rate, est.max_depth,
            est.min_samples_leaf, est.subsample, est.n_bins, est.random_state,
        )).encode())
        key = h.digest()
        if key in self._gbr_keys:
            self.gbr_dups += 1
        else:
            self._gbr_keys.add(key)

    # -- install / uninstall --------------------------------------------- #

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            module_name, _, qualname = hook.target.partition(":")
            module = importlib.import_module(module_name)
            owner_path, _, attr = qualname.rpartition(".")
            if owner_path:
                owner = module
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                if attr not in vars(owner):
                    raise AttributeError(
                        f"hook target {hook.target} not found: "
                        f"{owner.__name__} defines no {attr!r}"
                    )
                raw = vars(owner)[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    patched = type(raw)(self._wrap(hook, raw.__func__))
                else:
                    patched = self._wrap(hook, raw)
                self._patch(owner, attr, patched)
            else:
                orig = getattr(module, attr)  # AttributeError if renamed
                patched = self._wrap(hook, orig)
                # Every loaded name bound to the function, so callers that
                # imported it by name (the program's or this benchmark's)
                # resolve the wrapper too.
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if name.partition(".")[0] not in ("repro", "perfbench"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, patched)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def check_liveness(tracer: Tracer, workload: str) -> None:
    """Fail if a hook expected on ``workload`` never fired."""
    dead = [
        h.target for h in HOOKS
        if workload in h.live and tracer.hook_calls.get(h, 0) == 0
    ]
    if dead:
        raise RuntimeError(
            f"trace wrappers never fired on {workload}: {', '.join(dead)} "
            "(renamed or no longer called? update perfbench/layers.py)"
        )


def wrapper_cost_s(n: int = 20000) -> float:
    """Seconds one recording wrapper adds per call (best of 5)."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe._wrap(Hook("trace.probe", "probe:noop"), noop)
    probe.recording = True
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(n):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(n):
            wrapped()
        best = min(best, (perf_counter() - t0 - bare) / n)
    return max(best, 0.0)


def layer_metrics(
    tracer: Tracer, wall_s: float, counters: dict[str, int]
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced unit.

    ``wall_s`` is the traced wall (recording intervals only); ``counters``
    are the deltas of the program's own ``repro.obs.METRICS`` counters
    over the same intervals.
    """
    values: dict[str, float] = {}
    for stem, (calls, wall, self_s) in tracer.stats.items():
        values[f"{stem}.calls"] = calls
        values[f"{stem}.wall_s"] = wall
        values[f"{stem}.self_s"] = self_s
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s[2] for stem, s in tracer.stats.items()
            if stem.split(".", 1)[0] == layer
        )
    attributed = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.unattributed_s"] = wall_s - attributed
    calls = sum(s[0] for s in tracer.stats.values())
    overhead = calls * wrapper_cost_s() + tracer.hash_s
    values["trace.overhead_frac"] = overhead / max(wall_s - overhead, 1e-9)

    gbr_calls = values.get("ml.gbr_fit_binned.calls", 0)
    values["ml.gbr_fit_binned.dup_frac"] = (
        tracer.gbr_dups / gbr_calls if gbr_calls else 0.0
    )
    values["parallel.cpu_s"] = tracer.parallel_cpu_s

    def frac(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    values["features.hit_frac"] = frac(
        counters["features.cache.hits"] + counters["features.cache.disk_hits"],
        counters["features.cache.misses"],
    )
    values["graph.stage_hit_frac"] = frac(
        counters["graph.stage.hit"], counters["graph.stage.miss"]
    )
    return {name: values[name] for name in PER_LAYER}

