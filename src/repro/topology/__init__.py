"""Network topology substrate: registered geometries + routing.

This subpackage models the networks campaigns run over.  The default is
the two-level dragonfly of Cray XC systems: groups of routers arranged in
a row x column grid, all-to-all *green* links along rows, all-to-all
*black* links along columns, and *blue* global links between groups
(paper §II-A, Fig. 2).  A Dragonfly+ geometry (leaf/spine fat groups) is
also registered, and ``(topology, routing)`` is addressable as a campaign
axis through :mod:`~repro.topology.registry`.

Public API
----------
:class:`~repro.topology.base.Topology`
    The protocol every geometry implements (canonical link ids,
    coordinates, compute/I-O pools, link bandwidth table).
:class:`~repro.topology.dragonfly.DragonflyTopology`
    The Cray XC dragonfly: routers, nodes, canonically indexed links.
:class:`~repro.topology.dragonfly_plus.DragonflyPlusTopology`
    Dragonfly+: two-level fat groups with a leaf/spine split.
:class:`~repro.topology.routing.GroupRouter`
    Minimal + Valiant path expansion producing per-flow link incidences;
    :class:`~repro.topology.routing.AdaptiveRouter` (dragonfly) and
    :class:`~repro.topology.dragonfly_plus.DragonflyPlusRouter` supply
    the geometry.
:mod:`~repro.topology.registry`
    Name -> implementation resolution for the campaign axis.
:mod:`~repro.topology.placement`
    Node-allocation policies and the NUM_ROUTERS / NUM_GROUPS features.
"""

from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology, LinkKind
from repro.topology.dragonfly_plus import (
    DragonflyPlusRouter,
    DragonflyPlusTopology,
    PlusLinkKind,
)
from repro.topology.placement import (
    AllocationPolicy,
    num_groups_feature,
    num_routers_feature,
    placement_features,
)
from repro.topology.registry import (
    DEFAULT_CELL,
    DEFAULT_ROUTING,
    DEFAULT_TOPOLOGY,
    ROUTING_POLICIES,
    TOPOLOGIES,
    RoutingSpec,
    build_topology,
    canonical_routing,
    canonical_topology,
    parse_cell,
    routing_spec,
)
from repro.topology.routing import AdaptiveRouter, FlowRouting, GroupRouter

__all__ = [
    "Topology",
    "DragonflyTopology",
    "LinkKind",
    "DragonflyPlusTopology",
    "DragonflyPlusRouter",
    "PlusLinkKind",
    "AdaptiveRouter",
    "FlowRouting",
    "GroupRouter",
    "TOPOLOGIES",
    "ROUTING_POLICIES",
    "RoutingSpec",
    "DEFAULT_TOPOLOGY",
    "DEFAULT_ROUTING",
    "DEFAULT_CELL",
    "build_topology",
    "canonical_topology",
    "canonical_routing",
    "routing_spec",
    "parse_cell",
    "AllocationPolicy",
    "placement_features",
    "num_routers_feature",
    "num_groups_feature",
]
