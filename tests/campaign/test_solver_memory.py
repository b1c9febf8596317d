"""What the campaign solver keeps in memory, and that bounding it moves no bit.

Two bounds, neither of which may change a result:

* a probe's routing geometry (:class:`ProbeRunContext`) is built when the
  sweep's lookahead loader first needs the probe's contribution, and
  popped by its run's solve, so a serial generation builds exactly one
  context per probe run and holds only the started-but-unsolved probes
  plus the lookahead;
* each solver block holds at most :data:`repro.campaign.parallel
  ._BLOCK_BYTES` per ``(steps, links)`` array, which shortens blocks on
  machines with many links.
"""

from __future__ import annotations

import pytest

from repro.campaign import parallel as par
from repro.campaign import runner
from repro.campaign.runner import CampaignConfig, CampaignRunner
from repro.topology.registry import build_topology
from tests.campaign.legacy_solver import solve_one_run_reference
from tests.campaign.test_batched_solver import _assert_identical


def test_serial_generation_builds_one_context_per_run(monkeypatch):
    """More probe runs than the worker cache holds: still one build each."""
    cfg = CampaignConfig.tiny(use_cache=False, days=12.0, workers=1)
    builds = []
    resident = []
    init = runner.ProbeRunContext.__init__
    get_context = par._get_context

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def watching_get(*args, **kwargs):
        ctx = get_context(*args, **kwargs)
        resident.append(len(par._CTX_CACHE))
        return ctx

    monkeypatch.setattr(runner.ProbeRunContext, "__init__", counting_init)
    monkeypatch.setattr(par, "_get_context", watching_get)
    campaign = CampaignRunner(cfg).run()
    runs = sum(len(ds) for ds in campaign.datasets.values())
    assert runs > par._CTX_CACHE_CAP
    assert len(builds) == runs
    assert max(resident) < par._CTX_CACHE_CAP
    assert not par._CTX_CACHE


@pytest.mark.parametrize(
    "topology, preset, steps",
    [
        ("dragonfly", "tiny", par._STEP_BLOCK),
        ("df+", "tiny", par._STEP_BLOCK),
        ("dragonfly", "small", 28),
        ("df+", "small", 20),
    ],
)
def test_block_steps_fit_the_byte_budget(topology, preset, steps):
    topo = build_topology(topology, preset)
    assert par._block_steps(topo) == steps
    assert steps * 8 * topo.num_links <= par._BLOCK_BYTES


def test_byte_capped_blocks_match_reference_long_run(monkeypatch):
    """A budget of five steps on the tiny machine splits the 620-step
    long run into byte-capped blocks; the runs equal the per-step
    reference bit for bit."""
    cfg = CampaignConfig.tiny(
        use_cache=False, days=2.0, long_runs=(("MILC-128", 620),), workers=1
    )
    topo = build_topology(cfg.topology, cfg.preset)
    monkeypatch.setattr(par, "_BLOCK_BYTES", 5 * 8 * topo.num_links)
    assert par._block_steps(topo) == 5
    capped = CampaignRunner(cfg).run()
    monkeypatch.setattr(par, "_solve_one_run", solve_one_run_reference)
    reference = CampaignRunner(cfg).run()
    assert any(
        len(run.step_times) == 620 for run in capped["MILC-128-long620"].runs
    )
    _assert_identical(capped, reference)
