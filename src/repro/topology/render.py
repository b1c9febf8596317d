"""ASCII rendering of registered topologies (the paper's Fig. 2, in a
terminal).

For the dragonfly: one group's router grid with its green/black
all-to-all structure summarised.  For Dragonfly+: one group's leaf/spine
split.  Unknown geometries degrade gracefully with a "not supported"
message instead of crashing.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.dragonfly_plus import DragonflyPlusTopology


def _render_dragonfly_group(topology: DragonflyTopology, group: int) -> str:
    lines = [
        f"group {group}: {topology.col_size} rows x {topology.row_size} "
        f"routers, {topology.nodes_per_router} nodes each"
    ]
    for row in range(topology.col_size):
        cells = []
        for pos in range(topology.row_size):
            r = int(topology.router_id(group, row, pos))
            mark = "io" if topology.io_router_mask[r] else "r"
            cells.append(f"{mark}{r:04d}")
        lines.append("  " + " --g-- ".join(cells))
    lines.append(
        f"  rows all-to-all via green links ({topology.row_size - 1}/router); "
        f"columns via black links ({topology.col_size - 1}/router)"
    )
    lines.append(
        f"  blue links to each of {topology.groups - 1} peer groups "
        f"x{topology.global_multiplicity}"
    )
    return "\n".join(lines)


def _render_plus_group(topology: DragonflyPlusTopology, group: int) -> str:
    lines = [
        f"group {group}: {topology.leaf_size} leaves x {topology.spine_size} "
        f"spines, {topology.nodes_per_router} nodes per leaf"
    ]
    spines = [
        f"s{int(topology.spine_id(group, s)):04d}"
        for s in range(topology.spine_size)
    ]
    lines.append("  " + "  ".join(spines))
    lines.append("  " + " | " * max(1, min(topology.spine_size, 12)) + " (bipartite up/down)")
    leaves = []
    for leaf in range(topology.leaf_size):
        r = int(topology.leaf_id(group, leaf))
        mark = "io" if topology.io_router_mask[r] else "l"
        leaves.append(f"{mark}{r:04d}")
    lines.append("  " + "  ".join(leaves))
    lines.append(
        f"  every leaf links to every spine ({topology.spine_size} up + "
        f"{topology.spine_size} down per leaf)"
    )
    lines.append(
        f"  global links to each of {topology.groups - 1} peer groups "
        f"x{topology.global_multiplicity} (spine-owned)"
    )
    return "\n".join(lines)


def render_group(topology: Topology, group: int = 0) -> str:
    """One group's router structure with link-class annotations."""
    if not 0 <= group < topology.groups:
        raise ValueError("group out of range")
    if isinstance(topology, DragonflyTopology):
        return _render_dragonfly_group(topology, group)
    if isinstance(topology, DragonflyPlusTopology):
        return _render_plus_group(topology, group)
    return (
        f"group rendering not supported for this topology "
        f"({type(topology).__name__}); {topology.describe()}"
    )
