"""What the campaign solver keeps in memory, and that bounding it moves no bit.

Three bounds, none of which may change a result:

* a probe's routing geometry (:class:`ProbeRunContext`) is built when the
  sweep's lookahead loader first needs the probe's contribution, and
  popped by its run's solve, so a serial generation builds exactly one
  context per probe run and holds only the started-but-unsolved probes
  plus the lookahead;
* each solver block holds at most :data:`repro.campaign.parallel
  ._BLOCK_BYTES` per ``(steps, links)`` array, which shortens blocks on
  machines with many links;
* every job's contribution is stored as its nonzero entries
  (:class:`SparseLoad`), and background batches are routed straight into
  per-set link loads, so no dense per-job copy or batch incidence exists.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.campaign import parallel as par
from repro.campaign import runner
from repro.campaign.runner import CampaignConfig, CampaignRunner, SparseLoad
from repro.topology.registry import build_topology
from tests.campaign.legacy_solver import solve_one_run_reference
from tests.campaign.test_batched_solver import _assert_identical


def test_serial_generation_builds_one_context_per_run(monkeypatch):
    """More probe runs than the worker cache holds: still one build each."""
    monkeypatch.setenv("REPRO_WORKERS", "1")
    cfg = CampaignConfig.tiny(use_cache=False, days=12.0)
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
    monkeypatch.setenv("REPRO_WORKERS", "1")
    cfg = CampaignConfig.tiny(
        use_cache=False, days=2.0, long_runs=(("MILC-128", 620),)
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


def test_store_holds_background_jobs_sparse(monkeypatch):
    """Every stored contribution is index/value pairs over its nonzero
    entries, never a ``num_links``-long array."""
    monkeypatch.setenv("REPRO_WORKERS", "1")
    cfg = CampaignConfig.small(use_cache=False, days=1.5)
    num_links = build_topology(cfg.topology, cfg.preset).num_links
    seen = []
    insert = runner._ContributionStore.insert

    def checking_insert(self, job_id, comm, io=runner._NO_LOAD):
        for load in (comm, io):
            assert isinstance(load, SparseLoad)
            assert len(load.ix) == len(load.v) < num_links
            assert np.all(np.diff(load.ix) > 0) and np.all(load.v != 0)
        seen.append(len(comm.ix))
        insert(self, job_id, comm, io)

    monkeypatch.setattr(runner._ContributionStore, "insert", checking_insert)
    CampaignRunner(cfg).run()
    assert len(seen) > 100


#: Traced allocation peak of one serial 1.5-day ``small`` cell.  Dense
#: per-job loads and the batch incidences peaked at 44.7 MB (dragonfly)
#: and 46.1 MB (df+); sparse background traffic peaks near 28 and 26 MB.
_PEAK_MB = 36.0


@pytest.mark.parametrize(
    "topology, routing", [("dragonfly", "ugal"), ("df+", "valiant")]
)
def test_generation_traced_peak_bound(monkeypatch, topology, routing):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    cfg = CampaignConfig.small(
        use_cache=False, days=1.5, topology=topology, routing=routing
    )
    tracemalloc.start()
    try:
        CampaignRunner(cfg).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < _PEAK_MB
