"""The (topology, routing) registry: names, aliases, cells, errors."""

from __future__ import annotations

import pytest

from repro.config import TINY
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.dragonfly_plus import DragonflyPlusTopology
from repro.topology.registry import (
    DEFAULT_CELL,
    DEFAULT_ROUTING,
    DEFAULT_TOPOLOGY,
    ROUTING_POLICIES,
    TOPOLOGIES,
    build_topology,
    canonical_routing,
    canonical_topology,
    parse_cell,
    routing_spec,
)


def test_registered_topologies():
    assert set(TOPOLOGIES) == {"dragonfly", "df+"}
    assert TOPOLOGIES["dragonfly"] is DragonflyTopology
    assert TOPOLOGIES["df+"] is DragonflyPlusTopology


def test_registered_routing_policies():
    assert set(ROUTING_POLICIES) == {"ugal", "minimal", "valiant"}
    assert routing_spec("ugal").pinned_alpha is None
    assert not routing_spec("ugal").pinned
    assert routing_spec("minimal").pinned_alpha == 1.0
    assert routing_spec("valiant").pinned_alpha == 0.0
    assert routing_spec("minimal").pinned and routing_spec("valiant").pinned


@pytest.mark.parametrize(
    "alias,canonical",
    [
        ("dragonfly", "dragonfly"),
        ("df", "dragonfly"),
        ("xc", "dragonfly"),
        ("aries", "dragonfly"),
        ("DF+", "df+"),
        ("dfplus", "df+"),
        ("dragonfly+", "df+"),
        ("dragonfly_plus", "df+"),
    ],
)
def test_topology_aliases(alias, canonical):
    assert canonical_topology(alias) == canonical


@pytest.mark.parametrize(
    "alias,canonical",
    [
        ("ugal", "ugal"),
        ("adaptive", "ugal"),
        ("min", "minimal"),
        ("Minimal", "minimal"),
        ("val", "valiant"),
        ("valiant", "valiant"),
    ],
)
def test_routing_aliases(alias, canonical):
    assert canonical_routing(alias) == canonical


def test_unknown_topology_lists_registered_options():
    with pytest.raises(ValueError) as exc:
        canonical_topology("torus")
    msg = str(exc.value)
    assert "torus" in msg
    assert "dragonfly" in msg and "df+" in msg
    assert "aliases" in msg


def test_unknown_routing_lists_registered_options():
    with pytest.raises(ValueError) as exc:
        canonical_routing("ecmp")
    msg = str(exc.value)
    assert "ecmp" in msg
    assert "ugal" in msg and "minimal" in msg and "valiant" in msg


def test_build_topology():
    t = build_topology("dragonfly", TINY)
    assert isinstance(t, DragonflyTopology)
    p = build_topology("dfplus", TINY)
    assert isinstance(p, DragonflyPlusTopology)
    # Both honour the preset's group count.
    assert t.groups == p.groups == TINY.groups


def test_cells():
    assert DEFAULT_CELL == (DEFAULT_TOPOLOGY, DEFAULT_ROUTING) == (
        "dragonfly",
        "ugal",
    )
    assert parse_cell("df/adaptive") == DEFAULT_CELL
    assert parse_cell("aries/ugal") == DEFAULT_CELL
    assert parse_cell("df+/ugal") != DEFAULT_CELL
    assert parse_cell("df+/valiant") == ("df+", "valiant")
    assert parse_cell("dfplus/val") == ("df+", "valiant")


@pytest.mark.parametrize("text", ["df+", "df+/valiant/x", "/valiant", "df+/"])
def test_parse_cell_malformed(text):
    with pytest.raises(ValueError):
        parse_cell(text)


def test_every_topology_builds_and_routes():
    """Registry contract: every entry builds and self-routes out of the box."""
    import numpy as np

    for name in TOPOLOGIES:
        topo = build_topology(name, TINY)
        router = topo.default_router()
        routing = router.route(
            np.array([0]), np.array([topo.num_routers - 1])
        )
        assert routing.n_flows == 1
        assert routing.minimal.nnz > 0
