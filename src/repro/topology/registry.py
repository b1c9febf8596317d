"""Registry making ``(topology, routing)`` an addressable campaign axis.

Topologies register a :class:`~repro.topology.base.Topology` subclass
under a canonical name (plus aliases); routing policies register a
:class:`RoutingSpec` describing how the congestion engine should treat
the two path sets every :class:`~repro.topology.routing.GroupRouter`
produces.  Campaign configs, experiment cell ids (``fig09:df+/valiant``),
the campaign CLI's ``--topology``/``--routing`` flags and the congestion
engine's ``policy`` all resolve names through this module, so unknown
names fail early with the registered options listed instead of raising a
``KeyError`` deep inside the engine.

Adding a topology: subclass ``Topology``, implement its abstract surface
(including :meth:`default_router` returning a ``GroupRouter`` subclass
that supplies the geometry), and add it to :data:`TOPOLOGIES` with any
aliases.  Adding a routing policy:
append a :class:`RoutingSpec` to :data:`ROUTING_POLICIES` — ``pinned_alpha
= None`` means the engine solves the UGAL fixed point; a float pins the
minimal/Valiant split and skips the adaptive iterations entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ScalePreset, get_preset
from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.dragonfly_plus import DragonflyPlusTopology

# --------------------------------------------------------------------- #
# Topologies
# --------------------------------------------------------------------- #

#: Canonical topology name -> implementation class.
TOPOLOGIES: dict[str, type[Topology]] = {
    "dragonfly": DragonflyTopology,
    "df+": DragonflyPlusTopology,
}

_TOPOLOGY_ALIASES: dict[str, str] = {
    "dragonfly": "dragonfly",
    "df": "dragonfly",
    "xc": "dragonfly",
    "aries": "dragonfly",
    "df+": "df+",
    "dfplus": "df+",
    "dragonfly+": "df+",
    "dragonfly_plus": "df+",
}

#: The paper's system: Cray XC dragonfly with Aries UGAL routing.
DEFAULT_TOPOLOGY = "dragonfly"
DEFAULT_ROUTING = "ugal"
DEFAULT_CELL = (DEFAULT_TOPOLOGY, DEFAULT_ROUTING)


# --------------------------------------------------------------------- #
# Routing policies
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RoutingSpec:
    """How the engine splits each flow between its two path sets.

    ``pinned_alpha = None`` marks the adaptive (UGAL) policy: the engine
    iterates the fixed point for the per-flow minimal fraction.  A float
    pins every flow's minimal fraction to that value — 1.0 is pure
    minimal routing, 0.0 pure Valiant — and the solve runs one pass.
    """

    name: str
    pinned_alpha: float | None

    @property
    def pinned(self) -> bool:
        return self.pinned_alpha is not None


#: Canonical routing-policy name -> spec.
ROUTING_POLICIES: dict[str, RoutingSpec] = {
    "ugal": RoutingSpec("ugal", None),
    "minimal": RoutingSpec("minimal", 1.0),
    "valiant": RoutingSpec("valiant", 0.0),
}

_ROUTING_ALIASES: dict[str, str] = {
    "ugal": "ugal",
    "adaptive": "ugal",
    "minimal": "minimal",
    "min": "minimal",
    "valiant": "valiant",
    "val": "valiant",
}


# --------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------- #


def _describe_options(canon: dict[str, str]) -> str:
    by_target: dict[str, list[str]] = {}
    for alias, target in canon.items():
        if alias != target:
            by_target.setdefault(target, []).append(alias)
    parts = []
    for name in sorted(set(canon.values())):
        aliases = sorted(by_target.get(name, []))
        parts.append(f"{name} (aliases: {', '.join(aliases)})" if aliases else name)
    return ", ".join(parts)


def canonical_topology(name: str) -> str:
    """Resolve a topology name or alias; raise with options on failure."""
    key = str(name).strip().lower()
    if key not in _TOPOLOGY_ALIASES:
        raise ValueError(
            f"unknown topology {name!r}; registered topologies: "
            f"{_describe_options(_TOPOLOGY_ALIASES)}"
        )
    return _TOPOLOGY_ALIASES[key]


def canonical_routing(name: str) -> str:
    """Resolve a routing-policy name or alias; raise with options on failure."""
    key = str(name).strip().lower()
    if key not in _ROUTING_ALIASES:
        raise ValueError(
            f"unknown routing policy {name!r}; registered policies: "
            f"{_describe_options(_ROUTING_ALIASES)}"
        )
    return _ROUTING_ALIASES[key]


def routing_spec(name: str) -> RoutingSpec:
    """The :class:`RoutingSpec` for a policy name or alias."""
    return ROUTING_POLICIES[canonical_routing(name)]


def build_topology(
    name: str, preset: ScalePreset | str | None = None
) -> Topology:
    """Instantiate the named topology from a scale preset."""
    cls = TOPOLOGIES[canonical_topology(name)]
    if preset is None or isinstance(preset, str):
        preset = get_preset(preset)
    return cls.from_preset(preset)


def parse_cell(text: str) -> tuple[str, str]:
    """Parse a ``topology/routing`` cell id (e.g. ``df+/valiant``)."""
    topo, sep, policy = str(text).partition("/")
    if not sep or not topo or not policy:
        raise ValueError(
            f"malformed cell id {text!r}: expected 'topology/routing', "
            f"e.g. 'df+/valiant'"
        )
    return canonical_topology(topo), canonical_routing(policy)

