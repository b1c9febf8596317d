"""The congestion engine: flows -> link loads -> stalls -> slowdowns.

Routing policies: the engine defaults to the Aries behaviour (UGAL-style
adaptive split between minimal and Valiant path sets), but can be pinned
to minimal-only or Valiant-only routing for ablations in the spirit of
the SDN-vs-adaptive comparison of Faizian et al. (SC'17).

This is the reproduction's substitute for the physical Aries fabric (see
DESIGN.md §4).  Given one or more routed flow sets (probe job + background
segments), it

1. solves a small UGAL fixed point for each flow's minimal/Valiant split,
2. produces per-link byte loads, utilisations, and stall-cycle rates from a
   queueing-style delay curve,
3. aggregates endpoint (NIC) loads per router with a request/response VC
   split, and
4. reports per-flow *fabric* and *endpoint* slowdown factors that the
   application models convert into MPI-time dilation.

Design for speed: routing geometry (``FlowRouting``) is computed once per
placement; per-timestep work is elementwise over the link vector
(~10^4–10^5 floats), so a full 1,200-run campaign solves in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import (
    FLIT_BYTES,
    MAX_UTILISATION,
    NIC_BW,
    ROUTER_CLOCK_HZ,
)
from repro.network.traffic import FlowSet
from repro.topology.base import Topology
from repro.topology.registry import routing_spec
from repro.topology.routing import FlowRouting, GroupRouter

#: Fraction of stall-capable cycles actually observed as stalls at u -> 1
#: (calibration constant for counter magnitudes, not behaviour).
STALL_SCALE = 0.05

#: Hard cap on any single slowdown factor (adaptive routing and MPI overlap
#: prevent unbounded blocking in practice; paper's worst observed was 3.76x
#: end-to-end).
SLOWDOWN_CAP = 6.0

#: Curvature of the utilisation -> slowdown map.
_SLOWDOWN_GAIN = 0.85


def stall_curve(util: np.ndarray) -> np.ndarray:
    """Stall-cycles-per-cycle as a function of link utilisation.

    M/M/1-flavoured: negligible when idle, superlinear towards saturation,
    clamped at :data:`~repro.config.MAX_UTILISATION` to keep the fixed
    point stable.
    """
    u = np.minimum(util, MAX_UTILISATION)
    # ``u * u / (1.0 - u)`` with the product written over ``u``: the same
    # operations on the same values, two buffers instead of four.
    den = 1.0 - u
    u *= u
    u /= den
    return u


def slowdown_curve(util: np.ndarray) -> np.ndarray:
    """Per-flow slowdown factor given the worst utilisation on its path."""
    u = np.minimum(util, MAX_UTILISATION)
    s = 1.0 + _SLOWDOWN_GAIN * u * u / (1.0 - u)
    return np.minimum(s, SLOWDOWN_CAP)


@dataclass
class RoutedTraffic:
    """A flow set bound to its routing geometry (placement-stable)."""

    flows: FlowSet
    routing: FlowRouting

    def scaled(self, factor: float) -> "RoutedTraffic":
        """Same geometry, volumes scaled (e.g. per-step intensity)."""
        return RoutedTraffic(self.flows.scaled(factor), self.routing)


@dataclass
class BaseLoad:
    """Pre-solved traffic folded in as a constant (cached background)."""

    link_loads: np.ndarray
    inj: np.ndarray
    ej: np.ndarray
    vc4: np.ndarray

    @staticmethod
    def zeros(topology: Topology) -> "BaseLoad":
        r = topology.num_routers
        return BaseLoad(
            link_loads=np.zeros(topology.num_links),
            inj=np.zeros(r),
            ej=np.zeros(r),
            vc4=np.zeros(r),
        )

    def __add__(self, other: "BaseLoad") -> "BaseLoad":
        return BaseLoad(
            self.link_loads + other.link_loads,
            self.inj + other.inj,
            self.ej + other.ej,
            self.vc4 + other.vc4,
        )

    def scaled(self, factor: float) -> "BaseLoad":
        return BaseLoad(
            self.link_loads * factor,
            self.inj * factor,
            self.ej * factor,
            self.vc4 * factor,
        )


@dataclass
class FlowMetrics:
    """Per-flow congestion exposure for one routed traffic item."""

    #: Effective worst path utilisation per flow (alpha-blended).
    path_util: np.ndarray
    #: Fabric slowdown factor per flow.
    fabric_slowdown: np.ndarray
    #: Endpoint (NIC) slowdown factor per flow.
    endpoint_slowdown: np.ndarray
    #: Solved minimal-routing fraction per flow.
    alpha: np.ndarray

    def volume_weighted(self, volumes: np.ndarray) -> tuple[float, float]:
        """(fabric, endpoint) slowdowns averaged by flow volume."""
        tot = volumes.sum()
        if tot <= 0 or len(volumes) == 0:
            return 1.0, 1.0
        w = volumes / tot
        return (
            float(self.fabric_slowdown @ w),
            float(self.endpoint_slowdown @ w),
        )


@dataclass
class NetworkState:
    """Solved network condition for one interval."""

    topology: Topology
    link_loads: np.ndarray
    inj: np.ndarray
    ej: np.ndarray
    vc4: np.ndarray
    metrics: list[FlowMetrics] = field(default_factory=list)

    # ---- link-level views --------------------------------------------- #

    @cached_property
    def link_util(self) -> np.ndarray:
        return self.link_loads / self.topology.link_capacity

    @cached_property
    def link_stall_rate(self) -> np.ndarray:
        """Stall cycles/second per link."""
        return ROUTER_CLOCK_HZ * STALL_SCALE * stall_curve(self.link_util)

    # ---- router-level aggregates (network/RT side) -------------------- #

    @cached_property
    def rt_flit_rate(self) -> np.ndarray:
        """Flits/second arriving on each router's network tiles."""
        return self.topology.router_link_sums(self.link_loads) / FLIT_BYTES

    @cached_property
    def rt_stall_rate(self) -> np.ndarray:
        """Stall cycles/second on each router's network input queues."""
        return self.topology.router_link_sums(self.link_stall_rate)

    @cached_property
    def rt_mean_util(self) -> np.ndarray:
        """Mean utilisation of links terminating at each router."""
        cnt = self.topology.link_dst_counts
        tot = self.topology.router_link_sums(self.link_util)
        return tot / np.maximum(cnt, 1)

    # ---- router-level aggregates (endpoint/PT side) ------------------- #

    @cached_property
    def nic_util(self) -> np.ndarray:
        """Aggregate NIC utilisation per router (inj + ej over NIC budget)."""
        cap = self.topology.nodes_per_router * NIC_BW
        return (self.inj + self.ej) / cap

    @cached_property
    def pt_stall_rate(self) -> np.ndarray:
        """Stall cycles/second on processor tiles (endpoint backpressure)."""
        return ROUTER_CLOCK_HZ * STALL_SCALE * stall_curve(self.nic_util)

    def as_base(self) -> BaseLoad:
        """Freeze this state as an additive base for later solves."""
        return BaseLoad(self.link_loads, self.inj, self.ej, self.vc4)


class CongestionEngine:
    """Routes and solves traffic over one registered topology."""

    def __init__(
        self,
        topology: Topology,
        router: GroupRouter | None = None,
        alpha0: float = 0.85,
        ugal_gain: float = 4.0,
        iterations: int = 2,
        policy: str = "ugal",
    ) -> None:
        """
        Parameters
        ----------
        topology:
            The network.
        router:
            Minimal/Valiant router; defaults to the topology's own
            (:meth:`~repro.topology.base.Topology.default_router`).
        alpha0:
            Initial minimal-routing fraction (UGAL biases minimal).
        ugal_gain:
            Sensitivity of the split to the utilisation gap between the
            minimal and Valiant path sets.
        iterations:
            Fixed-point iterations for the adaptive split.
        policy:
            Routing-policy registry name or alias (``ugal``/``adaptive``,
            ``minimal``, ``valiant``); stored canonical in
            :attr:`policy`.  Pinned policies fix the split and skip the
            adaptive iterations.
        """
        self.topology = topology
        self.router = router or topology.default_router()
        spec = routing_spec(policy)
        self.policy = spec.name
        self.pinned = spec.pinned
        if spec.pinned:
            alpha0 = spec.pinned_alpha
        self.alpha0 = alpha0
        self.ugal_gain = ugal_gain if not spec.pinned else 0.0
        self.iterations = iterations

    # ------------------------------------------------------------------ #

    def route(self, flows: FlowSet, rng: np.random.Generator | None = None) -> RoutedTraffic:
        """Expand a flow set into routed traffic (geometry reusable)."""
        routing = self.router.route(flows.src, flows.dst, rng=rng)
        return RoutedTraffic(flows, routing)

    def solve(
        self,
        items: list[RoutedTraffic],
        base: BaseLoad | None = None,
    ) -> NetworkState:
        """Solve the network state for concurrent traffic items.

        ``base`` contributes constant loads (cached background traffic whose
        own adaptive split was solved when it was created); the adaptive
        split of ``items`` reacts to the *total* load, as Aries' per-packet
        UGAL decision reacts to queue depths from all tenants.
        """
        topo = self.topology
        if base is None:
            base = BaseLoad.zeros(topo)
        cap = topo.link_capacity

        alphas = [np.full(it.routing.n_flows, self.alpha0) for it in items]

        for _ in range(max(1, self.iterations)):
            loads = base.link_loads.copy()
            for it, alpha in zip(items, alphas):
                loads += it.routing.link_loads(it.flows.volume, alpha, topo.num_links)
            util = loads / cap
            if self.pinned:
                break  # pinned split: nothing to iterate
            for i, it in enumerate(items):
                r = it.routing
                u_min = r.minimal.flow_max_metric(util, r.n_flows)
                u_val = r.valiant.flow_max_metric(util, r.n_flows)
                # UGAL: route minimally unless the minimal path is clearly
                # more congested than the non-minimal alternative.
                alphas[i] = np.clip(
                    self.alpha0 + self.ugal_gain * (u_val - u_min), 0.25, 0.98
                )

        # Final loads under the solved splits.
        loads = base.link_loads.copy()
        for it, alpha in zip(items, alphas):
            loads += it.routing.link_loads(it.flows.volume, alpha, topo.num_links)
        util = loads / cap

        # Endpoint accounting.
        inj = base.inj.copy()
        ej = base.ej.copy()
        vc4 = base.vc4.copy()
        for it in items:
            f = it.flows
            if len(f):
                inj += np.bincount(f.src, weights=f.volume, minlength=topo.num_routers)
                ej += np.bincount(f.dst, weights=f.volume, minlength=topo.num_routers)
                # Responses flow back to the sender's NIC on the response VC.
                vc4 += np.bincount(
                    f.src,
                    weights=f.volume * f.response_ratio,
                    minlength=topo.num_routers,
                )

        state = NetworkState(
            topology=topo, link_loads=loads, inj=inj, ej=ej, vc4=vc4
        )

        nic_util = state.nic_util
        for it, alpha in zip(items, alphas):
            r = it.routing
            u_min = r.minimal.flow_max_metric(util, r.n_flows)
            u_val = r.valiant.flow_max_metric(util, r.n_flows)
            path_util = alpha * u_min + (1.0 - alpha) * u_val
            ep_util = np.maximum(nic_util[it.flows.src], nic_util[it.flows.dst]) if len(
                it.flows
            ) else np.empty(0)
            state.metrics.append(
                FlowMetrics(
                    path_util=path_util,
                    fabric_slowdown=slowdown_curve(path_util),
                    endpoint_slowdown=slowdown_curve(ep_util),
                    alpha=alpha,
                )
            )
        return state
