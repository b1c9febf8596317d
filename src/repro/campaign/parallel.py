"""Parallel campaign execution: fan probe-run solves across processes.

The campaign has one inherently serial part — the chronological
:class:`~repro.campaign.runner.TrafficTimeline` sweep that maintains the
additive background-traffic accumulators — and a large embarrassingly
parallel part: routing geometry construction and the per-step solves of
every probe run.  This module supplies the parallel side:

* the solving environment (:class:`WorkerEnv`: topology, engine, LDMS
  sampler, user population), which the runner builds once and installs
  in-process for a serial run, and each pool worker builds through the
  :func:`_init_worker` initializer, so tasks ship only slim specs and
  **never pickle the runner**;
* chunked task functions for the two parallel parts of the sweep:

  1. job contributions, loaded in batched lookahead as the sweep reaches
     each start event: background jobs' (comm, io) loads, and probes'
     mean loads, whose routing geometry (a :class:`ProbeRunContext`)
     stays in the building worker's cache for the run's solve;
  2. the per-run step solves, fed with shared *per-window* background
     snapshots (the accumulator state between two scheduler events)
     instead of per-step copies.

Determinism: every random draw a worker makes flows through
:func:`repro.config.rng_for` with per-``(job, step)`` stream labels, and
each run's steps are solved in step order inside one task.  Worker count,
chunking, and completion order therefore cannot perturb any stream, and
an N-worker campaign is bit-identical to a serial one.  The runner
submits the task functions to a :class:`repro.parallel.WorkerPool`, whose
one-worker mode runs them in-process.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import rng_for
from repro.network.engine import BaseLoad, CongestionEngine
from repro.network.counters import synthesize_router_counters_block
from repro.network.ldms import LDMSSampler
from repro.obs import span
from repro.parallel import WorkerPoolError
from repro.system.users import UserPopulation
from repro.telemetry.ariesncl import AriesNCL
from repro.telemetry.mpip import profile_run
from repro.topology.base import Topology
from repro.topology.registry import build_topology

if TYPE_CHECKING:
    from repro.campaign.runner import SparseLoad

__all__ = ["CampaignWorkerError", "WorkerEnv"]

#: Routing-geometry contexts a worker keeps between loading a probe's
#: contribution and solving its run (LRU; rebuilt on miss).  Every probe
#: has its own placement, so each context is built for one run and
#: popped by that run's solve.  In-process (one worker) that
#: leaves only the started-but-unsolved probes plus the loader's
#: lookahead resident, well under the cap; the cap bounds pool workers,
#: where one worker can build a context that another one solves (cache
#: size never affects results — rebuilds are deterministic).
_CTX_CACHE_CAP = 64

#: Most steps per block of the batched solver: each probe run's steps
#: are solved in blocks (grouped by background window) that amortise
#: per-step NumPy dispatch overhead.  The result is bit-identical for
#: any block size, so it is not part of any cache fingerprint.
_STEP_BLOCK = 64

#: Byte budget of one ``(steps, links)`` float64 array of a block: on
#: machines with many links a block holds fewer than :data:`_STEP_BLOCK`
#: steps (28 on the ``small`` dragonfly, 20 on ``small`` df+; the
#: ``tiny`` machines stay at 64), which bounds the solver's scratch.
_BLOCK_BYTES = 3 * 2**20


def _block_steps(topology: Topology) -> int:
    """Steps per solver block on ``topology`` (at least one)."""
    per_step = 8 * topology.num_links
    return max(1, min(_STEP_BLOCK, _BLOCK_BYTES // per_step))


class CampaignWorkerError(WorkerPoolError):
    """A campaign worker process died or the pool broke."""


# --------------------------------------------------------------------------- #
# Task specs and results (all slim and picklable).
# --------------------------------------------------------------------------- #


@dataclass
class ProbeSpec:
    """What a worker needs to build one probe's routing geometry."""

    job_id: int
    key: str
    long_steps: int | None
    nodes: np.ndarray


@dataclass
class BgJobSpec:
    """What a worker needs to solve one background job's contribution."""

    job_id: int
    user: str
    nodes: np.ndarray


@dataclass
class RunTask:
    """One probe run's solve task.

    ``window_ids[step]`` indexes into the shared per-chunk window dict;
    ``weather[step]`` is the filesystem-weather multiplier at the step's
    midpoint (the comm "breathing" multiplier is drawn worker-side from
    the run's own ``rng_for("burst", job_id)`` stream).
    """

    pi: int
    job_id: int
    key: str
    long_steps: int | None
    start_time: float
    nodes: np.ndarray
    window_ids: np.ndarray
    weather: np.ndarray


@dataclass
class RunResult:
    """Everything a solved probe run contributes to its dataset."""

    pi: int
    step_times: np.ndarray
    compute_times: np.ndarray
    mpi_times: np.ndarray
    counters: np.ndarray
    ldms: np.ndarray
    routine_times: dict[str, float]


# --------------------------------------------------------------------------- #
# Worker environment.
# --------------------------------------------------------------------------- #


class WorkerEnv:
    """Per-process solving state: built once by the runner (the serial
    mode's environment) and once per pool worker."""

    def __init__(self, config) -> None:
        from repro.campaign.runner import BackgroundTrafficModel

        self.config = config
        self.seed = config.seed
        # Build the campaign's (topology, routing) cell through the
        # registry so subprocess workers solve the same network as the
        # parent runner.
        self.topology = build_topology(config.topology, config.preset)
        self.engine = CongestionEngine(self.topology, policy=config.routing)
        self.sampler = LDMSSampler(self.topology)
        self.population = UserPopulation.cori_like(node_scale=config.node_scale)
        self.bg_model = BackgroundTrafficModel(
            self.topology,
            self.engine,
            self.population,
            config.background_intensity,
            config.seed,
        )


_ENV: WorkerEnv | None = None
_CTX_CACHE: "OrderedDict[int, object]" = OrderedDict()


def _init_worker(config) -> None:
    """Pool initializer: build the solving environment in the subprocess.

    Runs after :mod:`repro.parallel`'s worker bootstrap, which already
    mirrored the parent's observability (``[w<pid>]`` log tag, trace
    sink attach) and set the nested-parallelism guard.
    """
    global _ENV
    with span("campaign.worker_init"):
        _ENV = WorkerEnv(config)
    _CTX_CACHE.clear()


def _set_local_env(env: WorkerEnv) -> None:
    """Install a parent-built environment for the in-process serial mode."""
    global _ENV
    _ENV = env
    _CTX_CACHE.clear()


def _require_env() -> WorkerEnv:
    if _ENV is None:  # pragma: no cover - defensive
        raise CampaignWorkerError("campaign worker environment not initialised")
    return _ENV


def _get_context(spec_job_id: int, key: str, long_steps: int | None,
                 nodes: np.ndarray, *, keep: bool):
    """Build (or fetch from the worker-local LRU) one probe's context.

    Context construction is deterministic (no RNG), so a cache hit and a
    rebuild yield bit-identical solving state.
    """
    from repro.apps.registry import get_application
    from repro.campaign.runner import ProbeRunContext, _long_step_model

    env = _require_env()
    ctx = _CTX_CACHE.pop(spec_job_id, None)
    if ctx is None:
        app = get_application(key)
        sm = _long_step_model(app, long_steps) if long_steps else app.step_model()
        ctx = ProbeRunContext(app, env.topology, env.engine, nodes, sm)
    if keep:
        _CTX_CACHE[spec_job_id] = ctx
        while len(_CTX_CACHE) > _CTX_CACHE_CAP:
            _CTX_CACHE.popitem(last=False)
    return ctx


# --------------------------------------------------------------------------- #
# Task functions (top-level so they pickle under any start method).
# --------------------------------------------------------------------------- #


def _task_probe_contributions(
    specs: list[ProbeSpec],
) -> list[tuple[int, SparseLoad]]:
    """``(job_id, mean traffic contribution as seen by other jobs)`` per
    probe; each probe's context stays cached for its run's solve."""
    from repro.campaign.runner import _flat_width, _sparse_rows

    env = _require_env()
    with span("campaign.task.probe_contributions", n=len(specs)):
        block = np.empty((len(specs), _flat_width(env.topology)))
        for row, spec in zip(block, specs):
            ctx = _get_context(
                spec.job_id, spec.key, spec.long_steps, spec.nodes, keep=True
            )
            mean = ctx.mean_contribution()
            np.concatenate(
                (mean.link_loads, mean.inj, mean.ej, mean.vc4), out=row
            )
        loads = _sparse_rows(block)
    return [(spec.job_id, load) for spec, load in zip(specs, loads)]


def _task_bg_contributions(
    specs: list[BgJobSpec],
) -> list[tuple[int, SparseLoad, SparseLoad]]:
    """(steady comm, filesystem) contributions per background job."""
    env = _require_env()
    with span("campaign.task.bg_contributions", n=len(specs)):
        pairs = env.bg_model.contributions_for_batch(
            [(spec.job_id, spec.user, spec.nodes) for spec in specs]
        )
    return [
        (spec.job_id, comm, io) for spec, (comm, io) in zip(specs, pairs)
    ]


def _task_solve_runs(
    tasks: list[RunTask],
    windows: dict[int, tuple[BaseLoad, BaseLoad]],
) -> list[RunResult]:
    """Solve a chunk of probe runs against shared background windows."""
    env = _require_env()
    with span(
        "campaign.task.solve",
        runs=len(tasks),
        steps=sum(len(t.window_ids) for t in tasks),
    ):
        return [_solve_one_run(task, windows, env) for task in tasks]


def _solve_one_run(
    task: RunTask,
    windows: dict[int, tuple[BaseLoad, BaseLoad]],
    env: WorkerEnv,
) -> RunResult:
    """Solve one probe run with the batched step-block solver.

    Steps are processed in blocks of up to :func:`_block_steps` steps
    sharing one background window.  Per block, the per-step background
    ``BaseLoad`` construction, the network solve
    (:meth:`ProbeRunContext.solve_steps`), both counter syntheses
    (:func:`synthesize_router_counters_block`: probe plus background,
    then the background's flit family, each only where it is read),
    counter collection (:meth:`AriesNCL.record_steps`) and LDMS
    sampling (:meth:`LDMSSampler.sample_steps`) each run once over
    ``(steps, links)`` / ``(steps, routers)`` arrays.

    The output is byte-identical to the original per-step loop (kept
    frozen in ``tests/campaign/legacy_solver.py``).  That rests on three
    invariants, each asserted by the equality tests:

    * every batched array op is elementwise/broadcast, an exact
      ``maximum`` reduction, a ``bincount`` that feeds each bin in the
      per-step order, a last-axis sum over C-contiguous rows, or an
      explicit per-row 1-D dot — never a BLAS matmul or an axis-0
      reduction, which reorder FP accumulation;
    * scalar chains that feed Python ``float`` arithmetic (step-time
      products, ``blended_slowdown``'s ``**``) stay per-step scalar;
    * RNG streams are consumed in the per-step order: the per-step
      ``"steps"`` stream yields (volume, residual, compute) upfront —
      the solve never touches it — and the ``"ncl"`` / ``"ldms"``
      draws happen step-major inside the batched collectors.
    """
    from repro.apps.registry import get_application
    from repro.campaign.datasets import LDMS_FEATURES
    from repro.campaign.runner import (
        COUNTER_NOISE,
        _PT_FLIT_FAMILY,
        _RT_FLIT_FAMILY,
        _burst_series,
        _long_step_model,
    )

    topo = env.topology
    seed = env.seed
    app = get_application(task.key)
    sm = (
        _long_step_model(app, task.long_steps)
        if task.long_steps
        else app.step_model()
    )
    ctx = _get_context(task.job_id, task.key, task.long_steps, task.nodes,
                       keep=False)
    self_comm = ctx.mean_contribution()

    durations = sm.compute + sm.mpi
    mids = task.start_time + np.cumsum(durations) - durations / 2
    burst = _burst_series(mids, rng_for("burst", task.job_id, seed=seed))
    collector = AriesNCL(
        topo,
        ctx.routers,
        rng=rng_for("ncl", task.job_id, seed=seed),
        noise=COUNTER_NOISE,
    )
    n_steps = sm.num_steps
    step_t = np.zeros(n_steps)
    comp_t = np.zeros(n_steps)
    mpi_t = np.zeros(n_steps)
    ldms_t = np.zeros((n_steps, len(LDMS_FEATURES)))

    # Per-step stochastic factors, drawn upfront in the reference order
    # (volume, residual, compute within each step's own stream).
    vol_noise = np.empty(n_steps)
    res_noise = np.empty(n_steps)
    comp_noise = np.empty(n_steps)
    for step in range(n_steps):
        rng = rng_for("steps", task.job_id, step, seed=seed)
        vol_noise[step] = rng.lognormal(0.0, app.intensity_sigma)
        res_noise[step] = rng.lognormal(0.0, app.residual_sigma)
        comp_noise[step] = rng.lognormal(0.0, app.compute_sigma)

    window_ids = np.asarray(task.window_ids)
    weather = np.asarray(task.weather, dtype=np.float64)
    block = _block_steps(topo)

    start = 0
    while start < n_steps:
        wid = int(window_ids[start])
        end = start + 1
        while (
            end < n_steps
            and int(window_ids[end]) == wid
            and end - start < block
        ):
            end += 1
        steps = list(range(start, end))
        nb = end - start
        comm, io = windows[wid]

        # Background at each step midpoint: comm "breathing" scales the
        # steady part, the filesystem part follows its own weather, and
        # this probe's own mean contribution (folded into the timeline
        # when its start event crossed) is subtracted back out.
        bcol = burst[start:end, None]
        wcol = weather[start:end, None]

        def _bg(c: np.ndarray, i: np.ndarray, s: np.ndarray) -> np.ndarray:
            # max(b * c + w * i - b * s, 0), each operator written into
            # one of two buffers in the same order.
            out = bcol * c
            tmp = wcol * i
            out += tmp
            out -= np.multiply(bcol, s, out=tmp)
            return np.maximum(out, 0.0, out=out)

        bg = BaseLoad(
            _bg(comm.link_loads, io.link_loads, self_comm.link_loads),
            _bg(comm.inj, io.inj, self_comm.inj),
            _bg(comm.ej, io.ej, self_comm.ej),
            _bg(comm.vc4, io.vc4, self_comm.vc4),
        )
        intensities = sm.intensity[start:end] * vol_noise[start:end]
        loads, inj, ej, vc4, fabric_s, endpoint_s = ctx.solve_steps(
            bg, intensities
        )

        # Step times: scalar chains kept per-step (blended_slowdown's
        # ``**`` must see Python floats, as in the reference).
        t_nominal_b = np.empty(nb)
        for i, step in enumerate(steps):
            blended = app.blended_slowdown(
                float(fabric_s[i]), float(endpoint_s[i])
            )
            t_mpi = (
                sm.mpi[step]
                * float(vol_noise[step])
                * blended
                * float(res_noise[step])
            )
            t_comp = sm.compute[step] * float(comp_noise[step])
            step_t[step] = t_comp + t_mpi
            comp_t[step] = t_comp
            mpi_t[step] = t_mpi
            t_nominal_b[i] = float(sm.compute[step] + sm.mpi[step])
        t_step_b = step_t[start:end]

        rates, ldms_rates = synthesize_router_counters_block(
            topo, loads, inj, ej, vc4, ctx.job_links
        )
        bg_rates, _ = synthesize_router_counters_block(
            topo, bg.link_loads, bg.inj, bg.ej, bg.vc4, ctx.job_links,
            flits_only=True,
        )
        ratio = (t_nominal_b / t_step_b)[:, None]
        job_rates = {}
        for name, total_rate in rates.items():
            if name in _PT_FLIT_FAMILY:
                own = np.maximum(total_rate - bg_rates[name], 0.0)
                job_rates[name] = own * ratio
            elif name in _RT_FLIT_FAMILY:
                own = np.maximum(total_rate - bg_rates[name], 0.0)
                job_rates[name] = own * ratio + bg_rates[name]
            else:
                job_rates[name] = total_rate

        durations_b = [float(step_t[s]) for s in steps]
        collector.record_steps(steps, durations_b, job_rates)
        ldms_vals = env.sampler.sample_steps(
            ctx.routers,
            durations_b,
            [rng_for("ldms", task.job_id, s, seed=seed) for s in steps],
            ldms_rates,
            noise=COUNTER_NOISE,
        )
        for i, step in enumerate(steps):
            ldms_t[step] = [ldms_vals[i][n] for n in LDMS_FEATURES]
        start = end

    prof = profile_run(
        app, comp_t, mpi_t, rng=rng_for("mpip", task.job_id, seed=seed)
    )
    return RunResult(
        pi=task.pi,
        step_times=step_t,
        compute_times=comp_t,
        mpi_times=mpi_t,
        counters=collector.matrix(),
        ldms=ldms_t,
        routine_times=prof.routine_times,
    )
