"""The (topology, routing) campaign axis: config, fingerprints, engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.runner import CampaignConfig
from repro.network.engine import CongestionEngine
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.registry import DEFAULT_CELL, canonical_routing, canonical_topology
from repro.topology.routing import AdaptiveRouter


def test_validate_axis_canonicalises():
    """The campaign CLI's --topology/--routing resolve through the registry."""
    assert (canonical_topology("df"), canonical_routing("adaptive")) == DEFAULT_CELL
    assert (canonical_topology("dfplus"), canonical_routing("val")) == (
        "df+",
        "valiant",
    )


def test_validate_axis_rejects_unknown_with_options():
    with pytest.raises(ValueError, match="registered topologies"):
        canonical_topology("torus")
    with pytest.raises(ValueError, match="registered policies"):
        canonical_routing("ecmp")
    # The engine takes the same vocabulary and raises the same error.
    with pytest.raises(ValueError, match="registered policies: .*valiant"):
        CongestionEngine(DragonflyTopology(2, 2, 2), policy="ecmp")


def test_config_canonicalises_cell():
    cfg = CampaignConfig.tiny(topology="XC", routing="Adaptive")
    assert cfg.cell == DEFAULT_CELL
    assert cfg.cell_id == "dragonfly/ugal"
    with pytest.raises(ValueError):
        CampaignConfig.tiny(topology="torus")
    with pytest.raises(ValueError):
        CampaignConfig.tiny(routing="ecmp")


def test_default_cell_fingerprint_unchanged_by_axis():
    """The axis must not invalidate pre-axis caches for the default cell."""
    base = CampaignConfig.tiny().fingerprint()
    assert CampaignConfig.tiny(topology="dragonfly", routing="ugal").fingerprint() == base
    assert CampaignConfig.tiny(topology="aries", routing="adaptive").fingerprint() == base


def test_non_default_cells_fingerprint_distinct():
    fps = {
        CampaignConfig.tiny(topology=t, routing=r).fingerprint()
        for t in ("dragonfly", "df+")
        for r in ("ugal", "minimal", "valiant")
    }
    assert len(fps) == 6
    # Aliases land on the canonical fingerprint.
    assert (
        CampaignConfig.tiny(topology="dfplus", routing="val").fingerprint()
        == CampaignConfig.tiny(topology="df+", routing="valiant").fingerprint()
    )


def test_engine_default_matches_legacy(tiny_topo):
    """Registry-driven construction reproduces the pre-axis engine."""
    eng = CongestionEngine(tiny_topo)
    assert eng.policy == "ugal"
    assert not eng.pinned
    assert isinstance(eng.router, AdaptiveRouter)
    legacy = CongestionEngine(tiny_topo, router=AdaptiveRouter(tiny_topo))
    assert eng.alpha0 == legacy.alpha0
    assert eng.ugal_gain == legacy.ugal_gain
    assert eng.iterations == legacy.iterations


def test_engine_accepts_enum_and_name(tiny_topo):
    by_name = CongestionEngine(tiny_topo, policy="minimal")
    by_alias = CongestionEngine(tiny_topo, policy="min")
    for eng in (by_name, by_alias):
        assert eng.policy == "minimal"
        assert eng.pinned and eng.alpha0 == 1.0 and eng.ugal_gain == 0.0


def test_runner_builds_cell_topology():
    from repro.campaign.runner import CampaignRunner
    from repro.topology.dragonfly_plus import DragonflyPlusTopology

    runner = CampaignRunner(CampaignConfig.tiny(topology="df+", routing="valiant"))
    assert isinstance(runner.topology, DragonflyPlusTopology)
    assert runner.engine.policy == "valiant"
    assert runner.engine.pinned and runner.engine.alpha0 == 0.0

    default = CampaignRunner(CampaignConfig.tiny())
    assert isinstance(default.topology, DragonflyTopology)
    assert default.engine.policy == "ugal"


def test_worker_env_rebuilds_cell():
    """Subprocess env reconstruction must route through the registry."""
    from repro.campaign.parallel import WorkerEnv
    from repro.topology.dragonfly_plus import DragonflyPlusTopology

    env = WorkerEnv(CampaignConfig.tiny(topology="df+", routing="minimal"))
    assert isinstance(env.topology, DragonflyPlusTopology)
    assert env.engine.policy == "minimal"
    assert env.engine.pinned and env.engine.alpha0 == 1.0


def test_pinned_alpha_not_clipped_into_ugal_band(tiny_topo):
    """A pinned solve uses alpha0 exactly (the UGAL clip band is
    [0.25, 0.98]; pure minimal/Valiant sit outside it)."""
    from repro.network.engine import RoutedTraffic
    from repro.network.traffic import FlowSet

    t = tiny_topo
    src = np.array([0, 1])
    dst = np.array([4 * t.routers_per_group, 5 * t.routers_per_group])
    flows = FlowSet(src=src, dst=dst, volume=np.array([2e8, 3e8]))
    routing = AdaptiveRouter(t).route(src, dst)
    for policy, a0 in (("minimal", 1.0), ("valiant", 0.0)):
        eng = CongestionEngine(t, policy=policy)
        state = eng.solve([RoutedTraffic(flows, routing)])
        expect = routing.link_loads(flows.volume, a0, t.num_links)
        np.testing.assert_allclose(state.link_loads, expect)
