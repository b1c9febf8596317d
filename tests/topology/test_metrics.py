"""Dragonfly shape vs its theory: diameter, router radix, Valiant spreading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CORI
from repro.topology.dragonfly import DragonflyTopology, LinkKind
from tests.topology.test_dragonfly import router_digraph


def test_diameter_matches_theory(tiny_topo):
    """Minimal routes take at most 2 intra-group hops, the global hop and
    2 more intra-group hops, so no router is more than 5 hops away."""
    import networkx as nx

    g = router_digraph(tiny_topo)
    diameter = max(
        max(nx.single_source_shortest_path_length(g, s).values())
        for s in range(tiny_topo.num_routers)
    )
    assert 2 <= diameter <= 5


def test_cori_shape_radix():
    """Aries is a 48-port router: 15 green + 5 black + blue + 8 NIC."""
    t = DragonflyTopology.from_preset(CORI)
    src, _ = t.link_endpoints

    def ports_per_router(kind: LinkKind) -> float:
        out = src[t.link_kind == kind]
        return float(np.bincount(out, minlength=t.num_routers).mean())

    assert ports_per_router(LinkKind.GREEN) == pytest.approx(15.0)
    assert ports_per_router(LinkKind.BLACK) == pytest.approx(5.0)
    assert ports_per_router(LinkKind.BLUE) > 0
    assert t.nodes_per_router == 4


def test_valiant_spreads_adversarial_pattern(tiny_topo):
    """The Valiant rationale: for a group-pair hotspot (the dragonfly's
    adversarial pattern), non-minimal routing lowers the peak link
    utilisation that minimal routing concentrates on the few direct blue
    links."""
    from repro.network.traffic import FlowSet
    from repro.topology.routing import AdaptiveRouter

    # Scarce global links (multiplicity 2) make the direct channels the
    # bottleneck, as on real systems where group pairs share few cables.
    t = DragonflyTopology(6, 4, 3, nodes_per_router=2, global_multiplicity=2)
    router = AdaptiveRouter(t)
    # All routers of group 0 send to the matching routers of group 3.
    src = np.arange(t.routers_per_group)
    dst = src + 3 * t.routers_per_group
    flows = FlowSet(src, dst, np.full(len(src), 1e9))
    routing = router.route(flows.src, flows.dst, rng=np.random.default_rng(0))
    minimal_only = routing.link_loads(flows.volume, 1.0, t.num_links)
    valiant_only = routing.link_loads(flows.volume, 0.0, t.num_links)
    # The contested resource is the group-pair's blue links: minimal
    # routing funnels everything over the direct 0->3 channels; Valiant
    # detours over other groups' links.
    peak_min = (minimal_only / t.link_capacity)[t.blue_base :].max()
    peak_val = (valiant_only / t.link_capacity)[t.blue_base :].max()
    assert peak_val < peak_min
