"""Routing-policy ablation: adaptive routing mitigates interference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.routing_ablation import (
    adversarial_background,
    render_ablation,
    routing_ablation,
)
from repro.network.engine import CongestionEngine
from repro.network.traffic import FlowSet


def test_policy_pins_alpha(tiny_topo):
    src = np.array([0])
    dst = np.array([int(tiny_topo.router_id(3, 1, 1))])
    flows = FlowSet(src, dst, np.array([1e9]))
    for policy, expect in (
        ("minimal", 1.0),
        ("valiant", 0.0),
    ):
        engine = CongestionEngine(tiny_topo, policy=policy)
        state = engine.solve([engine.route(flows)])
        assert state.metrics[0].alpha[0] == pytest.approx(expect)


def test_adaptive_unchanged_default(tiny_topo):
    engine = CongestionEngine(tiny_topo)
    assert engine.policy == "ugal"
    assert engine.alpha0 == pytest.approx(0.85)


def test_adversarial_background_shape(tiny_topo):
    bg = adversarial_background(tiny_topo, 1e11)
    assert bg.total_volume == pytest.approx(1e11)
    sg = bg.src // tiny_topo.routers_per_group
    dg = bg.dst // tiny_topo.routers_per_group
    assert (sg == 0).all() and (dg == 1).all()


def test_ablation_adversary_rescued_by_nonminimal(tiny_topo):
    """The textbook dragonfly result: for the hotspot traffic itself,
    Valiant/adaptive routing beats minimal once the direct links
    saturate."""
    results = routing_ablation(
        tiny_topo,
        probe_nodes=24,
        background_gbps=(0.0, 400.0),
        seed=3,
    )
    assert len(results) == 2
    quiet, loud = results
    # Idle background: minimal is never worse for the probe (fewer hops).
    assert quiet.probe_slowdown["minimal"] <= quiet.probe_slowdown["valiant"] + 1e-6
    # Heavy hotspot: its own traffic prefers non-minimal routing.
    assert (
        min(loud.adversary_slowdown["adaptive"], loud.adversary_slowdown["valiant"])
        <= loud.adversary_slowdown["minimal"] + 1e-9
    )
    # And congestion hurts the bystander in absolute terms.
    assert loud.probe_slowdown["minimal"] >= quiet.probe_slowdown["minimal"]
    text = render_ablation(results)
    assert "adaptive" in text and "adversary" in text


def test_ablation_monotone_in_background(tiny_topo):
    results = routing_ablation(
        tiny_topo, probe_nodes=24, background_gbps=(0.0, 100.0, 600.0), seed=4
    )
    adaptive = [r.probe_slowdown["adaptive"] for r in results]
    assert adaptive[0] <= adaptive[-1] + 1e-9
