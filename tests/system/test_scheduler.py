"""Scheduler: capacity invariants, FCFS/backfill behaviour, queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY, rng_for
from repro.system.jobs import JobRequest
from repro.system.scheduler import Scheduler
from repro.topology.dragonfly import DragonflyTopology


def _req(user, t, nodes, dur, probe=False):
    return JobRequest(
        user=user,
        name=f"{user}-job",
        submit_time=t,
        num_nodes=nodes,
        duration=dur,
        is_probe=probe,
    )


@pytest.fixture()
def sched(tiny_topo):
    return Scheduler(tiny_topo, rng=rng_for("sched-test"))


def test_job_request_validation():
    with pytest.raises(ValueError):
        _req("u", 0, 0, 10)
    with pytest.raises(ValueError):
        _req("u", 0, 4, 0)


def test_immediate_start_on_empty_machine(sched):
    res = sched.schedule([_req("u1", 100.0, 10, 500.0)])
    assert len(res.jobs) == 1
    job = res.jobs[0]
    assert job.start_time == 100.0
    assert job.end_time == 600.0
    assert job.queue_wait == 0.0
    assert len(job.nodes) == 10


def test_capacity_never_exceeded(tiny_topo, sched):
    rng = np.random.default_rng(1)
    reqs = [
        _req(f"u{i % 5}", float(rng.uniform(0, 1000)), int(rng.integers(4, 60)),
             float(rng.uniform(100, 800)))
        for i in range(60)
    ]
    res = sched.schedule(reqs)
    # At any event boundary, running nodes <= compute pool, no node reuse.
    times = sorted({j.start_time for j in res.jobs})
    for t in times:
        running = res.running_at(t)
        all_nodes = np.concatenate([j.nodes for j in running])
        assert len(all_nodes) == len(np.unique(all_nodes))
        assert len(all_nodes) <= len(tiny_topo.compute_nodes)
        # Never allocate an I/O node.
        assert not np.isin(all_nodes, tiny_topo.io_nodes).any()


def test_queueing_when_full(tiny_topo, sched):
    cap = len(tiny_topo.compute_nodes)
    res = sched.schedule(
        [_req("big", 0.0, cap, 100.0), _req("late", 1.0, cap, 50.0)]
    )
    assert len(res.jobs) == 2
    first, second = res.jobs
    assert second.start_time == pytest.approx(first.end_time)
    assert second.queue_wait == pytest.approx(99.0)


def test_backfill_small_job_jumps_queue(tiny_topo, sched):
    cap = len(tiny_topo.compute_nodes)
    res = sched.schedule(
        [
            _req("big1", 0.0, cap - 4, 100.0),
            _req("big2", 1.0, cap - 4, 100.0),  # must wait for big1
            _req("small", 2.0, 4, 10.0),  # fits the 4 leftover nodes now
        ]
    )
    by_user = {j.user: j for j in res.jobs}
    assert by_user["small"].start_time == pytest.approx(2.0)
    assert by_user["big2"].start_time >= by_user["big1"].end_time


def test_oversized_job_dropped(tiny_topo, sched):
    res = sched.schedule([_req("huge", 0.0, 10_000, 100.0)])
    assert len(res.jobs) == 0
    assert len(res.unscheduled) == 1


def test_horizon_cutoff(tiny_topo):
    sched = Scheduler(tiny_topo, rng=rng_for("hz"), horizon=50.0)
    cap = len(tiny_topo.compute_nodes)
    res = sched.schedule(
        [_req("a", 0.0, cap, 100.0), _req("b", 10.0, cap, 100.0)]
    )
    assert len(res.jobs) == 1
    assert len(res.unscheduled) == 1


def test_overlapping_and_running_queries(sched):
    res = sched.schedule(
        [
            _req("a", 0.0, 8, 100.0),
            _req("b", 50.0, 8, 100.0),
            _req("c", 200.0, 8, 50.0),
        ]
    )
    assert {j.user for j in res.running_at(60.0)} == {"a", "b"}
    assert {j.user for j in res.overlapping(90.0, 210.0)} == {"a", "b", "c"}
    assert res.overlapping(90.0, 210.0, min_nodes=9) == []
    assert {j.user for j in res.running_at(300.0)} == set()


def test_probe_flag_and_query(sched):
    res = sched.schedule(
        [_req("bg", 0.0, 8, 100.0), _req("User-8", 10.0, 8, 100.0, probe=True)]
    )
    probes = res.probes()
    assert len(probes) == 1
    assert probes[0].user == "User-8"


def test_utilisation(tiny_topo, sched):
    res = sched.schedule([_req("a", 0.0, 64, 100.0)])
    u = res.utilisation(50.0, len(tiny_topo.compute_nodes))
    assert u == pytest.approx(64 / len(tiny_topo.compute_nodes))


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_property_no_double_allocation(seed):
    topo = DragonflyTopology.from_preset(TINY)
    rng = np.random.default_rng(seed)
    sched = Scheduler(topo, rng=rng)
    reqs = [
        _req(
            f"u{int(rng.integers(0, 8))}",
            float(rng.uniform(0, 500)),
            int(rng.integers(1, 50)),
            float(rng.uniform(10, 300)),
        )
        for _ in range(40)
    ]
    res = sched.schedule(reqs)
    assert len(res.jobs) + len(res.unscheduled) == len(reqs)
    events = sorted(
        {j.start_time for j in res.jobs} | {j.end_time for j in res.jobs}
    )
    for t in events:
        running = res.running_at(t)
        if not running:
            continue
        nodes = np.concatenate([j.nodes for j in running])
        assert len(nodes) == len(np.unique(nodes))
