"""Background traffic kept sparse equals the dense loads it replaces.

Each background job's contribution is routed straight into per-set link
loads and stored as its nonzero entries (:class:`SparseLoad`); the sweep
folds it in as ``acc[ix] ± v``.  Both halves must move no bit: a job's
stored entries are exactly the nonzeros of the dense load a solo solve
gives, and a timeline fed sparse contributions ends every window with
accumulators byte-equal to a dense fold of the same contributions.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign.runner import (
    BackgroundTrafficModel,
    CampaignConfig,
    SparseLoad,
    TrafficTimeline,
    _ContributionStore,
    _dense_view,
    _flat_width,
    _sparse_rows,
)
from repro.network.engine import CongestionEngine
from repro.network.traffic import io_flows
from repro.system.users import UserPopulation
from repro.topology.registry import build_topology


def _dense(load: SparseLoad, width: int) -> np.ndarray:
    out = np.zeros(width)
    out[load.ix] = load.v
    return out


def _solo_dense(model: BackgroundTrafficModel, fs) -> np.ndarray:
    """One flow set's static load, solved alone and kept dense."""
    topo, eng = model.topology, model.engine
    r = topo.num_routers
    routing = eng.router.route(fs.src, fs.dst)
    inj = np.bincount(fs.src, weights=fs.volume, minlength=r)
    return np.concatenate((
        routing.link_loads(fs.volume, eng.alpha0, topo.num_links),
        inj,
        np.bincount(fs.dst, weights=fs.volume, minlength=r),
        inj * fs.response_ratio,
    ))


@pytest.mark.parametrize(
    "topology, routing", [("dragonfly", "ugal"), ("df+", "valiant")]
)
def test_batch_contributions_equal_solo_dense_loads(topology, routing):
    cfg = CampaignConfig.tiny(topology=topology, routing=routing)
    topo = build_topology(cfg.topology, cfg.preset)
    engine = CongestionEngine(topo, policy=cfg.routing)
    population = UserPopulation.cori_like(node_scale=cfg.node_scale)
    # One I/O-free user, so the batch mixes jobs with and without I/O.
    population.archetypes[1] = replace(
        population.archetypes[1], io_intensity=0.0
    )
    model = BackgroundTrafficModel(topo, engine, population, 1.0, cfg.seed)
    rng = np.random.default_rng(3)
    users = [a.user for a in population.archetypes]
    specs = [
        (
            100 + i,
            users[i % len(users)],
            np.sort(rng.choice(topo.compute_nodes, size=n, replace=False)),
        )
        for i, n in enumerate([1, 4, 16, 64, 200, 9, 33, 120])
    ]
    width = _flat_width(topo)
    pairs = model.contributions_for_batch(specs)
    no_io = [io for (_, user, _), (_, io) in zip(specs, pairs)
             if population.by_name(user).io_intensity == 0]
    assert no_io and all(io is no_io[0] and not len(io.ix) for io in no_io)
    for (job_id, user, nodes), (comm, io) in zip(specs, pairs):
        want = _solo_dense(model, model.flows_for(job_id, user, nodes))
        assert np.array_equal(comm.ix, np.flatnonzero(want))
        assert _dense(comm, width).tobytes() == want.tobytes()
        arch = population.by_name(user)
        if arch.io_intensity > 0:
            fs = io_flows(topo, nodes, arch.io_intensity * len(nodes))
            assert _dense(io, width).tobytes() == _solo_dense(model, fs).tobytes()


def test_sparse_rows_keep_exactly_the_nonzeros():
    rng = np.random.default_rng(0)
    block = rng.lognormal(size=(5, 40)) * (rng.random((5, 40)) < 0.2)
    block[2] = 0.0
    rows = _sparse_rows(block)
    assert [len(s.ix) for s in rows] == list(np.count_nonzero(block, axis=1))
    for s, want in zip(rows, block):
        assert s.ix.base is None and s.v.base is None  # each row owns its data
        assert _dense(s, 40).tobytes() == want.tobytes()


def test_sparse_timeline_matches_dense_fold():
    """Overlapping jobs of very different magnitudes, so the running sums
    carry rounding residue after each end event."""
    topo = build_topology("dragonfly", "tiny")
    width = _flat_width(topo)
    rng = np.random.default_rng(11)
    n_jobs = 60
    dense = rng.lognormal(0.0, 6.0, size=(n_jobs, width))
    dense *= rng.random((n_jobs, width)) < rng.uniform(0.005, 0.3, (n_jobs, 1))
    dense[5] = 0.0  # a job with no traffic at all
    starts = np.sort(rng.uniform(0.0, 100.0, n_jobs))
    jobs = [
        SimpleNamespace(job_id=j, start_time=float(s),
                        end_time=float(s + rng.uniform(1.0, 40.0)))
        for j, s in enumerate(starts)
    ]
    comm_rows = _sparse_rows(dense)
    io_rows = _sparse_rows(dense[::-1].copy())

    def load(job):
        store.insert(job.job_id, comm_rows[job.job_id], io_rows[job.job_id])

    store = _ContributionStore(topo, load)
    timeline = TrafficTimeline(store, jobs)
    events = sorted(
        [(j.start_time, +1, j.job_id) for j in jobs]
        + [(j.end_time, -1, j.job_id) for j in jobs]
    )
    acc_comm = np.zeros(width)
    acc_io = np.zeros(width)
    checked = 0
    ptr = 0
    for t in np.linspace(0.0, 150.0, 400):
        changed = timeline.advance(t)
        while ptr < len(events) and events[ptr][0] <= t:
            _, sign, jid = events[ptr]
            op = np.add if sign > 0 else np.subtract
            op(acc_comm, dense[jid], out=acc_comm)
            op(acc_io, dense[n_jobs - 1 - jid], out=acc_io)
            ptr += 1
        if changed:
            comm, io = timeline.snapshot()
            for got, want in ((comm, acc_comm), (io, acc_io)):
                ref = _dense_view(want, topo)
                for name in ("link_loads", "inj", "ej", "vc4"):
                    assert (
                        getattr(got, name).tobytes()
                        == getattr(ref, name).tobytes()
                    )
            checked += 1
    assert ptr == len(events) and checked > 50
    # Every job ended and left the store.
    assert not store._cache
