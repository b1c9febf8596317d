"""ASCII topology rendering."""

from __future__ import annotations

import pytest

from repro.topology.render import render_group


def test_render_group(tiny_topo):
    text = render_group(tiny_topo, 0)
    assert "group 0" in text
    # Group 0 hosts io routers in column 0.
    assert "io" in text
    assert "blue links" in text
    with pytest.raises(ValueError):
        render_group(tiny_topo, 99)


def test_render_group_compute_only(tiny_topo):
    text = render_group(tiny_topo, 2)
    # Non-io groups have only compute routers.
    assert "io0" not in text


def test_render_plus_group():
    from repro.topology.dragonfly_plus import DragonflyPlusTopology

    t = DragonflyPlusTopology(groups=3, leaf_size=3, spine_size=2, nodes_per_router=2)
    text = render_group(t, 0)
    assert "3 leaves x 2 spines" in text
    assert "io" in text  # leaf 0 of group 0 hosts I/O
    assert "global links" in text
    assert "io" not in render_group(t, 2).split("\n", 1)[1]
    with pytest.raises(ValueError):
        render_group(t, 3)


def test_render_unknown_topology_degrades():
    class Weird:
        groups = 1

        def describe(self):
            return "weird(1)"

    text = render_group(Weird(), 0)
    assert "not supported" in text
    assert "weird(1)" in text
