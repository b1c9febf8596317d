"""Routing-policy ablation: does adaptive routing mitigate interference?

The paper targets dragonflies "in spite of adaptive routing" (§I) and its
related work compares routing policies on dragonflies (Faizian et al.,
SC'17; De Sensi et al., SC'19).  This ablation quantifies the substrate's
own behaviour: a probe job's slowdown under adaptive / minimal / Valiant
routing while an adversarial neighbour hammers one group pair — the
pattern minimal routing handles worst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.engine import CongestionEngine
from repro.network.traffic import FlowSet, router_alltoall_flows
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.placement import AllocationPolicy, allocate

#: Routing-policy registry names in table column order.
_POLICIES = ("adaptive", "minimal", "valiant")


@dataclass
class RoutingAblationResult:
    """Slowdowns per policy at one background intensity.

    Two perspectives matter and they can disagree:

    * ``adversary_slowdown`` — the hotspot traffic's own fabric slowdown;
      the textbook dragonfly result is that Valiant/adaptive routing
      rescues it from its saturated direct links;
    * ``probe_slowdown`` — an innocent bystander job; Valiant spreading
      *exports* the hotspot's congestion onto links the bystander uses,
      so minimal routing can contain the damage better.  This tension is
      exactly why production dragonflies still show interference despite
      adaptive routing (paper §I).
    """

    background_gbps: float
    #: policy name -> volume-weighted fabric slowdown of the probe job.
    probe_slowdown: dict[str, float]
    #: policy name -> the adversarial traffic's own fabric slowdown.
    adversary_slowdown: dict[str, float]

    def best_policy_for_probe(self) -> str:
        return min(self.probe_slowdown, key=self.probe_slowdown.get)

    def best_policy_for_adversary(self) -> str:
        return min(self.adversary_slowdown, key=self.adversary_slowdown.get)


def adversarial_background(
    topology: DragonflyTopology, total_bytes: float
) -> FlowSet:
    """Group-pair hotspot: every router of group 0 floods group 1."""
    rpg = topology.routers_per_group
    src = np.arange(rpg)
    dst = src + rpg
    vol = np.full(rpg, total_bytes / rpg)
    return FlowSet(src, dst, vol)


def routing_ablation(
    topology: DragonflyTopology,
    probe_nodes: int = 64,
    background_gbps: tuple[float, ...] = (0.0, 50.0, 200.0, 800.0),
    seed: int = 0,
) -> list[RoutingAblationResult]:
    """Sweep adversarial background intensity across routing policies.

    The probe is an all-to-all job placed randomly (so some of its flows
    share the contested group pair); its volume is fixed and modest.
    """
    rng = np.random.default_rng(seed)
    nodes = allocate(
        topology, topology.compute_nodes, probe_nodes, AllocationPolicy.RANDOM, rng
    )
    probe_flows = router_alltoall_flows(topology, nodes, total_bytes=20e9)

    out: list[RoutingAblationResult] = []
    for gbps in background_gbps:
        probe_s: dict[str, float] = {}
        adv_s: dict[str, float] = {}
        for policy in _POLICIES:
            engine = CongestionEngine(topology, policy=policy)
            items = [engine.route(probe_flows)]
            bg = adversarial_background(
                topology, max(gbps, 1e-3) * 1e9
            )
            items.append(engine.route(bg))
            state = engine.solve(items)
            fabric, _ = state.metrics[0].volume_weighted(probe_flows.volume)
            probe_s[policy] = fabric
            adv_fabric, _ = state.metrics[1].volume_weighted(bg.volume)
            adv_s[policy] = adv_fabric
        out.append(
            RoutingAblationResult(
                background_gbps=gbps,
                probe_slowdown=probe_s,
                adversary_slowdown=adv_s,
            )
        )
    return out


def render_ablation(results: list[RoutingAblationResult]) -> str:
    from repro.experiments.report import ascii_table

    rows = []
    for r in results:
        rows.append(
            [f"{r.background_gbps:.0f} GB/s", "probe"]
            + [f"{r.probe_slowdown[p]:.3f}" for p in _POLICIES]
            + [r.best_policy_for_probe()]
        )
        rows.append(
            ["", "adversary"]
            + [f"{r.adversary_slowdown[p]:.3f}" for p in _POLICIES]
            + [r.best_policy_for_adversary()]
        )
    return ascii_table(
        ["background", "view"] + list(_POLICIES) + ["best"],
        rows,
    )
