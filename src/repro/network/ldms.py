"""LDMS-style system-wide counter sampling (paper §III-C).

Cori runs the Lightweight Distributed Metric Service, sampling every Aries
router once per second (~5 TB/day).  The paper derives two feature groups
from it for the forecasting ablations (§V-C):

``io``
    Counters aggregated over routers attached to I/O (LNET) nodes — a proxy
    for filesystem traffic on the network.
``sys``
    Counters aggregated over routers sharing *no* nodes with our job — a
    proxy for everything else happening on the machine.

This sampler produces exactly those aggregates from per-router counter rates.
"""

from __future__ import annotations

import numpy as np

from repro.network.counters import LDMS_COUNTERS
from repro.topology.dragonfly import DragonflyTopology


class LDMSSampler:
    """Aggregates system-wide router counters by node role."""

    def __init__(self, topology: DragonflyTopology) -> None:
        self.topology = topology

    def sample_steps(
        self,
        job_routers: np.ndarray,
        durations: list[float],
        rngs: list[np.random.Generator] | None,
        router_rates: dict[str, np.ndarray],
        noise: float = 0.02,
    ) -> list[dict[str, float]]:
        """io/sys counter deltas for a block of intervals.

        Parameters
        ----------
        job_routers:
            Routers attached to *our* job's nodes (excluded from ``sys``).
        durations:
            One interval length in seconds per step.
        rngs, noise:
            One generator per step (``rng_for("ldms", job, step)``), or
            ``None``, for an optional multiplicative measurement jitter.
        router_rates:
            Counter names mapped to ``(steps, routers)`` rate matrices on
            every router; only the
            :data:`~repro.network.counters.LDMS_COUNTERS` are read.

        Bit-identical to sampling step by step: the role masks depend
        only on the placement so they are computed once, each masked sum
        reduces the same row values in the same order with the same
        kernel, and each step's generator draws the same eight
        lognormals in the same order.
        """
        topo = self.topology
        io_mask = topo.io_router_mask
        sys_mask = np.ones(topo.num_routers, dtype=bool)
        sys_mask[np.asarray(job_routers)] = False
        sys_mask &= ~io_mask  # io routers are reported in the io group

        # One gather per role for the whole block, made C-contiguous so
        # one last-axis sum reduces each (counter, step) row with the
        # same pairwise kernel as that row's 1-D ``.sum()`` would; then
        # (steps, 4) Python floats per role.
        stacked = np.stack([router_rates[s] for s in LDMS_COUNTERS])
        io_sums = np.ascontiguousarray(stacked[:, :, io_mask]).sum(axis=-1)
        sys_sums = np.ascontiguousarray(stacked[:, :, sys_mask]).sum(axis=-1)
        io_rows = io_sums.T.tolist()
        sys_rows = sys_sums.T.tolist()
        out: list[dict[str, float]] = []
        for i, duration in enumerate(durations):
            rng = rngs[i] if rngs is not None else None
            vals: dict[str, float] = {}
            for j, short in enumerate(LDMS_COUNTERS):
                io_val = io_rows[i][j] * duration
                sys_val = sys_rows[i][j] * duration
                if rng is not None and noise > 0:
                    io_val *= float(rng.lognormal(0.0, noise))
                    sys_val *= float(rng.lognormal(0.0, noise))
                vals[f"IO_{short}"] = io_val
                vals[f"SYS_{short}"] = sys_val
            out.append(vals)
        return out
