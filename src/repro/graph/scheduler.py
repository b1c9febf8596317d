"""Topological execution of a stage graph with store-backed memoization.

:class:`GraphRunner` resolves a :class:`~repro.graph.stage.Graph`
against an :class:`~repro.graph.store.ArtifactStore`:

* stages whose fingerprint is already stored are **hits** — their
  artifacts are loaded instead of recomputed, and their upstream cone is
  not even visited;
* everything else is scheduled in topological order onto the shared
  :func:`repro.parallel.get_pool` worker pool, streaming: a stage is
  submitted the moment its inputs are complete, independent branches run
  concurrently, and completed results are persisted immediately so a
  crashed run resumes where it stopped;
* ``local`` stages (renders, campaign-bound work) run in the parent
  process, between pool completions.

Warm-vs-cold accounting lands on the metrics registry —
``graph.stage.hit`` / ``graph.stage.miss`` for needed stages at
resolution time and ``graph.stage.run`` per executed stage — which is
what the warm-run "zero recompute" tests and the ``repro.obs report``
cache summary read.

Under ``REPRO_TRACE=1`` each run opens a ``graph.run`` span, each
executed stage a ``graph.stage`` span (with the resource sample every
span carries), and one ``graph.plan`` event records the resolved DAG
with the timed artifact load of every hit: the stage records of the
run profile (:func:`repro.obs.profile.build_profile`) come from these.

Determinism: stages are pure functions of their fingerprinted inputs
and results are keyed by stage name, so completion order (and therefore
worker count) can never perturb any downstream value.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable

from repro.graph.stage import Graph, Stage, StageCtx, resolve_fn
from repro.graph.store import MISS, ArtifactStore
from repro.obs import METRICS, event, span
from repro.parallel import get_pool, wait_any


def _exec_stage(
    fn_path: str,
    name: str,
    params: dict,
    inputs: dict,
    ds,
    camp=None,
    cell: str | None = None,
):
    """Execute one stage body (top-level so pool workers can run it)."""
    fn = resolve_fn(fn_path)
    attrs = {"stage": name}
    if cell:
        attrs["cell"] = cell
    with span("graph.stage", **attrs):
        return fn(StageCtx(params=params, inputs=inputs, ds=ds, camp=camp))


@dataclass(frozen=True)
class StagePlan:
    """One stage's resolution: its fingerprint and hit/miss/run status."""

    stage: Stage
    fingerprint: str
    status: str  # "hit" | "miss" | "force" | "run"


_TAGS = {"hit": "[hit ]", "miss": "[miss]", "force": "[force]", "run": "[run ]"}


def render_plan(plans: list[StagePlan]) -> str:
    """Human-readable DAG resolution (the CLI's ``--explain`` output).

    Shard-scoped stages carry a ``shard=<fp>[,<fp>...]`` tag and get
    their own summary line, so the hit/miss granularity of a streamed
    run is visible per shard.
    """
    width = max((len(p.stage.name) for p in plans), default=0)
    lines = []
    shard_counts: defaultdict[str, int] = defaultdict(int)
    for p in plans:
        line = (
            f"{_TAGS[p.status]:<7} {p.stage.kind:<7} "
            f"{p.stage.name:<{width}}  {p.fingerprint}"
        )
        if p.stage.shard:
            line += f"  shard={','.join(p.stage.shard)}"
            shard_counts[p.status] += 1
        lines.append(line)
    counts = defaultdict(int)
    for p in plans:
        counts[p.status] += 1
    summary = ", ".join(f"{counts[s]} {s}" for s in _TAGS if counts[s])
    lines.append(f"{len(plans)} stages: {summary}")
    if shard_counts:
        shard_summary = ", ".join(
            f"{shard_counts[s]} {s}" for s in _TAGS if shard_counts[s]
        )
        lines.append(
            f"{sum(shard_counts.values())} shard-scoped: {shard_summary}"
        )
    return "\n".join(lines)


class GraphRunner:
    """Resolve and execute a stage graph against an artifact store.

    Parameters
    ----------
    graph:
        The stage DAG.
    store:
        Artifact persistence; a disabled store makes every stage run.
    campaign_fingerprint:
        Folded into the fingerprint of every campaign/dataset-bound
        stage (see :meth:`Graph.fingerprints`).
    campaign:
        Zero-argument provider returning the materialised
        :class:`~repro.campaign.datasets.Campaign`.  Called lazily, only
        when an *executing* stage is campaign- or dataset-bound — a
        fully warm run never touches it.
    force:
        Bypass stored artifacts (results are still re-saved).
    cell:
        The canonical ``topology/routing`` label this graph runs on, or
        None for the default cell.  Shared stage *names* do not carry
        the cell (only their fingerprints differ), so the runner stamps
        it onto ``graph.stage`` spans, the ``graph.plan`` trace event,
        and cell-qualified ``graph.stage.<status>[<cell>]`` counters —
        that is what makes warm-cache behaviour attributable per cell
        in reports and profiles.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        store: ArtifactStore,
        campaign_fingerprint: str | None,
        campaign: Callable | None = None,
        force: bool = False,
        cell: str | None = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.force = force
        self.cell = cell
        self.fingerprints = graph.fingerprints(campaign_fingerprint)
        self._provider = campaign
        self._camp = None

    def _count(self, status: str, n: int = 1, shard: int = 0) -> None:
        """Bump a ``graph.stage.<status>`` counter, plus its per-cell
        twin when this runner is pinned to a (topology, routing) cell.
        The unqualified counter stays the cross-cell total existing
        tests and reports read.  ``shard`` of the ``n`` stages were
        shard-scoped and additionally land on ``graph.shard.<status>``
        — the numbers the stream-append assertions and ``repro.obs
        report`` read."""
        if not n:
            return
        METRICS.counter(f"graph.stage.{status}").inc(n)
        if self.cell:
            METRICS.counter(f"graph.stage.{status}[{self.cell}]").inc(n)
        if shard:
            METRICS.counter(f"graph.shard.{status}").inc(shard)

    def _campaign(self):
        if self._camp is None:
            if self._provider is None:
                raise RuntimeError(
                    "graph has campaign-bound stages to execute "
                    "but no campaign provider was supplied"
                )
            self._camp = self._provider()
        return self._camp

    # -- resolution ----------------------------------------------------- #

    def plan(self) -> list[StagePlan]:
        """Hit/miss status of every stage, in topological order."""
        plans = []
        for name, st in self.graph.stages.items():
            if self.force:
                status = "force"
            elif not self.store.enabled:
                status = "run"
            elif self.store.has(st.group(), self.fingerprints[name]):
                status = "hit"
            else:
                status = "miss"
            plans.append(StagePlan(st, self.fingerprints[name], status))
        return plans

    # -- execution ------------------------------------------------------ #

    def run(self, targets: list[str]) -> dict[str, object]:
        """Materialise ``targets``, reusing stored artifacts.

        Returns ``{target: value}``.  Only the cone of stages actually
        needed runs: the upstream walk stops at every stored hit.
        """
        targets = list(targets)
        for t in targets:
            if t not in self.graph.stages:
                raise KeyError(f"unknown stage {t!r}")
        attrs = {"targets": len(targets), "stages": len(self.graph.stages)}
        if self.cell:
            attrs["cell"] = self.cell
        with span("graph.run", **attrs):
            return self._run(targets)

    def _run(self, targets: list[str]) -> dict[str, object]:
        graph, store, fps = self.graph, self.store, self.fingerprints

        # Needed-set walk, newest-first: loads hit artifacts as it goes
        # (digest-verified — a corrupt entry counts as a miss and its
        # upstream cone rejoins the walk), stops recursion at each hit.
        values: dict[str, object] = {}
        exec_set: set[str] = set()
        load_times: dict[str, float] = {}
        stack, seen = list(targets), set()
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            st = graph.stages[name]
            if not self.force and store.enabled:
                t0 = time.perf_counter()
                value = store.load(st.group(), fps[name])
                if value is not MISS:
                    values[name] = value
                    load_times[name] = time.perf_counter() - t0
                    continue
                self._count("miss", shard=1 if st.shard else 0)
            exec_set.add(name)
            stack.extend(up for _, up in st.inputs)
        self._count(
            "hit",
            len(values),
            shard=sum(1 for n in values if graph.stages[n].shard),
        )

        self._emit_plan(values, exec_set, seen, load_times)
        if exec_set:
            self._execute(exec_set, values)
        return {t: values[t] for t in targets}

    def _emit_plan(
        self,
        values: dict[str, object],
        exec_set: set[str],
        seen: set[str],
        load_times: dict[str, float],
    ) -> None:
        """Record the resolved DAG as one ``graph.plan`` trace event.

        Carries every needed stage's status, input edges, and the timed
        artifact load of each hit — the structural half of the profile
        that critical-path analysis replays, since hits never open a
        ``graph.stage`` span of their own.
        """
        from repro.obs import trace as obs_trace

        if not obs_trace.ACTIVE:
            return
        stages = []
        for name, st in self.graph.stages.items():
            if name in values:
                status = "hit"
            elif name in exec_set:
                status = "force" if self.force else (
                    "miss" if self.store.enabled else "run"
                )
            elif name not in seen:
                continue  # outside the needed cone of this run
            else:  # pragma: no cover - seen stages are hit or executing
                continue
            entry: dict = {
                "name": name,
                "status": status,
                "inputs": [up for _, up in st.inputs],
            }
            if name in load_times:
                entry["load_s"] = round(load_times[name], 6)
            stages.append(entry)
        event("graph.plan", cell=self.cell, stages=stages)

    def _execute(self, exec_set: set[str], values: dict[str, object]) -> None:
        graph, store, fps = self.graph, self.store, self.fingerprints

        order = [n for n in graph.stages if n in exec_set]
        deps_left: dict[str, int] = {}
        downstream: dict[str, list[str]] = defaultdict(list)
        for name in order:
            ups = {up for _, up in graph.stages[name].inputs if up in exec_set}
            deps_left[name] = len(ups)
            for up in ups:
                downstream[up].append(name)
        ready = deque(n for n in order if deps_left[n] == 0)

        pool = get_pool()
        pending: list[tuple[str, object]] = []

        def finish(name: str, value: object) -> None:
            values[name] = value
            store.save(graph.stages[name].group(), fps[name], value)
            for down in downstream[name]:
                deps_left[down] -= 1
                if deps_left[down] == 0:
                    ready.append(down)

        while ready or pending:
            while ready:
                name = ready.popleft()
                st = graph.stages[name]
                self._count("run", shard=1 if st.shard else 0)
                inputs = {role: values[up] for role, up in st.inputs}
                if st.local or not pool.parallel:
                    finish(name, self._exec_local(st, name, inputs))
                else:
                    ds = (
                        self._campaign()[st.dataset]
                        if st.dataset is not None
                        else None
                    )
                    pending.append(
                        (
                            name,
                            pool.submit(
                                _exec_stage, st.fn, name, dict(st.params),
                                inputs, ds, None, self.cell,
                            ),
                        )
                    )
            if pending:
                done = wait_any([fut for _, fut in pending])
                for i in sorted(done, reverse=True):
                    name, fut = pending.pop(i)
                    finish(name, pool.result(fut))

    def _exec_local(self, st: Stage, name: str, inputs: dict) -> object:
        """Run one stage in this process, with campaign/dataset
        materialisation *inside* the stage span — a cold run's campaign
        generation is real stage time and must be attributed to the
        stage that forced it, or per-stage walls stop summing to the
        root span."""
        fn = resolve_fn(st.fn)
        attrs = {"stage": name}
        if self.cell:
            attrs["cell"] = self.cell
        with span("graph.stage", **attrs):
            camp = self._campaign() if st.campaign else None
            ds = (
                self._campaign()[st.dataset]
                if st.dataset is not None
                else None
            )
            return fn(StageCtx(params=dict(st.params), inputs=inputs, ds=ds, camp=camp))
