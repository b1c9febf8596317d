"""Frozen per-step campaign solver, used as the batched solver's golden reference.

Verbatim copies of the per-step solve loop that generated every probe
run before the step-block solver (``_solve_one_run_reference`` in
``repro.campaign.parallel``) and of the per-step helpers it called:
``ProbeRunContext.solve_step`` with ``_SegMax.__call__``,
``AriesNCL.record_step`` with ``aggregate_counters``, and
``LDMSSampler.sample``.  The code is unchanged; the only edits are
that the methods became functions taking the object as their first
argument (still named ``self``), their callers call them as such, and
the docstrings are shorter.

``tests/campaign/test_batched_solver.py`` monkeypatches
:func:`solve_one_run_reference` in as the campaign's per-run solve
function and asserts byte-identical datasets.  Do not "modernise" this
module — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.parallel import RunResult, _get_context
from repro.campaign.runner import MID_HOP_DISCOUNT
from repro.config import rng_for
from repro.network.counters import counters_to_matrix, synthesize_router_counters
from repro.network.engine import BaseLoad, NetworkState, slowdown_curve
from repro.telemetry.ariesncl import AriesNCL, StepCounters
from repro.telemetry.mpip import profile_run


def seg_max(self, per_link: np.ndarray) -> np.ndarray:
    """``_SegMax.__call__``: per-flow maximum of one ``(links,)`` vector."""
    out = np.zeros(self.n_flows)
    if len(self.link):
        out[self.seg_flows] = np.maximum.reduceat(
            per_link[self.link], self.seg_starts
        )
    return out


def solve_step(
    self, base: BaseLoad, intensity: float
) -> tuple[NetworkState, float, float]:
    """Solve one step: returns (state, fabric_slowdown, endpoint_slowdown)."""
    topo = self.topology
    eng = self.engine
    cap = topo.link_capacity
    s = intensity
    a0 = eng.alpha0

    loads0 = base.link_loads + s * (a0 * self.load_min + (1 - a0) * self.load_val)
    util0 = loads0 / cap
    u_min = np.maximum(
        seg_max(self.seg_min_edge, util0),
        MID_HOP_DISCOUNT * seg_max(self.seg_min_mid, util0),
    )
    u_val = np.maximum(
        seg_max(self.seg_val_edge, util0),
        MID_HOP_DISCOUNT * seg_max(self.seg_val_mid, util0),
    )
    if eng.pinned:
        # Pinned policies fix the split exactly (the UGAL clip band
        # must not pull a pure-minimal/pure-Valiant split inward).
        alpha_f = np.full(len(u_min), a0)
    else:
        alpha_f = np.clip(a0 + eng.ugal_gain * (u_val - u_min), 0.25, 0.98)
    a = float(alpha_f @ self.vol_weights) if len(alpha_f) else a0

    loads = base.link_loads + s * (a * self.load_min + (1 - a) * self.load_val)
    state = NetworkState(
        topology=topo,
        link_loads=loads,
        inj=base.inj + s * self.inj_unit,
        ej=base.ej + s * self.ej_unit,
        vc4=base.vc4 + s * self.vc4_unit,
    )
    path_util = alpha_f * u_min + (1.0 - alpha_f) * u_val
    fabric = slowdown_curve(path_util)
    nic_util = state.nic_util
    if len(self.flows):
        ep_util = np.maximum(
            nic_util[self.flows.src], nic_util[self.flows.dst]
        )
    else:
        ep_util = np.empty(0)
    endpoint = slowdown_curve(ep_util)
    w = self.vol_weights
    return (
        state,
        float(fabric @ w) if len(w) else 1.0,
        float(endpoint @ w) if len(w) else 1.0,
    )


def aggregate_counters(
    router_rates: dict[str, np.ndarray],
    routers: np.ndarray,
    duration: float,
    rng: np.random.Generator | None = None,
    noise: float = 0.02,
) -> dict[str, float]:
    """Sum per-router rates over ``routers`` and integrate over ``duration``."""
    routers = np.asarray(routers)
    names = list(router_rates)
    matrix = counters_to_matrix(router_rates, names)
    out: dict[str, float] = {}
    for i, name in enumerate(names):
        # Per-row 1-D sums: identical accumulation order to summing the
        # per-name vectors directly.
        value = float(matrix[i][routers].sum()) * duration
        if rng is not None and noise > 0:
            value *= float(rng.lognormal(mean=0.0, sigma=noise))
        out[name] = value
    return out


def record_step(
    self,
    step: int,
    state: NetworkState,
    duration: float,
    router_rates: dict[str, np.ndarray] | None = None,
) -> StepCounters:
    """``AriesNCL.record_step``: read counters for one step."""
    if router_rates is None:
        router_rates = synthesize_router_counters(state)
    values = aggregate_counters(
        router_rates,
        self.job_routers,
        duration,
        rng=self.rng,
        noise=self.noise,
    )
    sc = StepCounters(step=step, duration=duration, values=values)
    self._steps.append(sc)
    return sc


def sample(
    self,
    state: NetworkState,
    job_routers: np.ndarray,
    duration: float,
    rng: np.random.Generator | None = None,
    noise: float = 0.02,
    router_rates: dict[str, np.ndarray] | None = None,
) -> dict[str, float]:
    """``LDMSSampler.sample``: io/sys counter deltas for one interval."""
    topo = self.topology
    if router_rates is None:
        router_rates = synthesize_router_counters(state)

    io_mask = topo.io_router_mask
    sys_mask = np.ones(topo.num_routers, dtype=bool)
    sys_mask[np.asarray(job_routers)] = False
    sys_mask &= ~io_mask  # io routers are reported in the io group

    out: dict[str, float] = {}
    for short in ("RT_FLIT_TOT", "RT_RB_STL", "PT_FLIT_TOT", "PT_PKT_TOT"):
        rates = router_rates[short]
        io_val = float(rates[io_mask].sum()) * duration
        sys_val = float(rates[sys_mask].sum()) * duration
        if rng is not None and noise > 0:
            io_val *= float(rng.lognormal(0.0, noise))
            sys_val *= float(rng.lognormal(0.0, noise))
        out[f"IO_{short}"] = io_val
        out[f"SYS_{short}"] = sys_val
    return out


def solve_one_run_reference(task, windows, env) -> RunResult:
    """The original per-step solve loop.

    Steps are solved in step order; every random draw comes from a
    ``(job_id[, step])``-labelled stream, so the result is independent of
    which worker runs this and of whatever ran before it.
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

    for step in range(n_steps):
        rng = rng_for("steps", task.job_id, step, seed=seed)
        b = float(burst[step])
        w = float(task.weather[step])
        comm, io = windows[int(task.window_ids[step])]
        # Background at the step midpoint: comm "breathing" scales the
        # steady part, the filesystem part follows its own weather; then
        # this probe's own mean contribution (folded into the timeline
        # when its start event crossed) is subtracted back out.
        base = BaseLoad(
            np.maximum(
                b * comm.link_loads + w * io.link_loads
                - b * self_comm.link_loads,
                0.0,
            ),
            np.maximum(b * comm.inj + w * io.inj - b * self_comm.inj, 0.0),
            np.maximum(b * comm.ej + w * io.ej - b * self_comm.ej, 0.0),
            np.maximum(b * comm.vc4 + w * io.vc4 - b * self_comm.vc4, 0.0),
        )
        vol_noise = float(rng.lognormal(0.0, app.intensity_sigma))
        intensity = sm.intensity[step] * vol_noise
        state, fabric_s, endpoint_s = solve_step(ctx, base, intensity)

        blended = app.blended_slowdown(fabric_s, endpoint_s)
        t_mpi = (
            sm.mpi[step]
            * vol_noise
            * blended
            * float(rng.lognormal(0.0, app.residual_sigma))
        )
        t_comp = sm.compute[step] * float(rng.lognormal(0.0, app.compute_sigma))
        t_step = t_comp + t_mpi

        rates = synthesize_router_counters(state)
        # Background-only rates, to split flit-family integration (see
        # the counter-attribution note in repro.campaign.runner).
        bg_state = NetworkState(
            topology=topo,
            link_loads=base.link_loads,
            inj=base.inj,
            ej=base.ej,
            vc4=base.vc4,
        )
        bg_rates = synthesize_router_counters(bg_state)
        # This step's nominal duration: its own flit volume is (rate x
        # nominal time), regardless of how long congestion stretched it.
        t_nominal = float(sm.compute[step] + sm.mpi[step])
        job_rates = {}
        for name, total_rate in rates.items():
            if name in _PT_FLIT_FAMILY:
                own = np.maximum(total_rate - bg_rates[name], 0.0)
                job_rates[name] = own * (t_nominal / t_step)
            elif name in _RT_FLIT_FAMILY:
                own = np.maximum(total_rate - bg_rates[name], 0.0)
                job_rates[name] = own * (t_nominal / t_step) + bg_rates[name]
            else:
                job_rates[name] = total_rate
        record_step(collector, step, state, t_step, router_rates=job_rates)
        ldms_vals = sample(
            env.sampler,
            state,
            ctx.routers,
            duration=t_step,
            rng=rng_for("ldms", task.job_id, step, seed=seed),
            noise=COUNTER_NOISE,
            router_rates=rates,
        )
        step_t[step] = t_step
        comp_t[step] = t_comp
        mpi_t[step] = t_mpi
        ldms_t[step] = [ldms_vals[n] for n in LDMS_FEATURES]

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
