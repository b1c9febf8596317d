"""The scheduling what-if extension: what the aggressor overlap costs."""

from __future__ import annotations

import numpy as np

from repro.analysis.whatif import scheduling_whatif
from repro.campaign.datasets import Campaign, RunDataset, RunRecord


def _mk_run(i, total, neighborhood, t=4):
    step = np.full(t, total / t)
    return RunRecord(
        run_index=i,
        start_time=500.0 * i,
        step_times=step,
        compute_times=step * 0.3,
        mpi_times=step * 0.7,
        counters=np.ones((t, 13)),
        ldms=np.ones((t, 8)),
        num_routers=8,
        num_groups=2,
        neighborhood=neighborhood,
        routine_times={"Wait": 1.0},
    )


def test_whatif_quantifies_aggressor_cost():
    rng = np.random.default_rng(2)
    datasets = {}
    for key in ("A-128", "B-128"):
        runs = []
        for i in range(60):
            hot = bool(rng.random() < 0.4)
            total = 100.0 + (50.0 if hot else 0.0) + rng.normal(0, 2)
            runs.append(_mk_run(i, total, ["User-2"] if hot else []))
        datasets[key] = RunDataset(key=key, runs=runs)
    camp = Campaign(datasets=datasets)
    results = scheduling_whatif(camp, dataset_keys=list(datasets))
    assert len(results) == 2
    for r in results:
        assert r.runs_overlapped + r.runs_clean == 60
        assert r.mean_time_overlapped > r.mean_time_clean
        assert 0.2 < r.saving_fraction < 0.5  # ~50/150
        assert 0.0 < r.net_saving_fraction < r.saving_fraction


def test_whatif_degenerate_partition():
    runs = [_mk_run(i, 100.0, []) for i in range(10)]
    camp = Campaign(datasets={"X-128": RunDataset(key="X-128", runs=runs)})
    results = scheduling_whatif(camp, dataset_keys=["X-128"])
    assert results[0].saving_fraction == 0.0
    assert results[0].net_saving_fraction == 0.0


def test_whatif_on_campaign(tiny_campaign):
    results = scheduling_whatif(tiny_campaign)
    assert len(results) >= 4
    for r in results:
        assert 0.0 <= r.net_saving_fraction <= 1.0
