"""Telemetry layers: sacct queries, mpiP profiles, AriesNCL collection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.config import rng_for
from repro.network.counters import APP_COUNTERS, synthesize_router_counters
from repro.network.engine import CongestionEngine
from repro.network.traffic import router_alltoall_flows
from repro.system.jobs import JobRequest
from repro.system.scheduler import Scheduler
from repro.telemetry.ariesncl import AriesNCL
from repro.telemetry.mpip import BLOCKING_ROUTINES, profile_run
from repro.telemetry.sacct import SacctLog


def _req(user, t, nodes, dur, probe=False):
    return JobRequest(user, f"{user}-job", t, nodes, dur, is_probe=probe)


@pytest.fixture()
def log(tiny_topo):
    sched = Scheduler(tiny_topo, rng=rng_for("telemetry"))
    res = sched.schedule(
        [
            _req("User-8", 0.0, 16, 300.0, probe=True),
            _req("User-2", 0.0, 32, 1000.0),
            _req("User-5", 100.0, 8, 50.0),  # too small for min_nodes=16
            _req("User-9", 400.0, 32, 100.0),  # does not overlap the probe
        ]
    )
    return SacctLog(res, tiny_topo)


def test_neighborhood_users_filters(log):
    probe = log.result.probes()[0]
    # min_nodes filter excludes User-5's 8-node job; User-9 doesn't overlap.
    assert log.neighborhood_users(probe, min_nodes=16) == ["User-2"]
    assert log.neighborhood_users(probe, min_nodes=4) == ["User-2", "User-5"]


def test_neighborhood_excludes_self(log):
    probe = log.result.probes()[0]
    assert "User-8" not in log.neighborhood_users(probe, min_nodes=4)


def test_placement_features(log, tiny_topo):
    probe = log.result.probes()[0]
    feats = log.placement(probe)
    assert feats["NUM_ROUTERS"] >= 8  # 16 nodes at 2/router
    assert 1 <= feats["NUM_GROUPS"] <= tiny_topo.groups


# --------------------------------------------------------------------- #
# mpiP
# --------------------------------------------------------------------- #


def test_profile_run_baseline():
    app = get_application("MILC-128")
    sm = app.step_model()
    prof = profile_run(app, sm.compute, sm.mpi)
    assert prof.total_time == pytest.approx(sm.total_mean_time)
    assert prof.mpi_fraction == pytest.approx(sm.mpi_fraction, abs=0.01)
    # Routine times sum to MPI time.
    assert sum(prof.routine_times.values()) == pytest.approx(prof.mpi_time)


def test_profile_congestion_lands_on_blocking_routines():
    app = get_application("MILC-128")
    sm = app.step_model()
    base = profile_run(app, sm.compute, sm.mpi)
    slow = profile_run(app, sm.compute, sm.mpi * 1.8)
    for name in app.routine_mix():
        if name in BLOCKING_ROUTINES:
            assert slow.routine_times[name] > 1.5 * base.routine_times[name]
        else:
            # Posting routines grow at most marginally (renormalisation).
            assert slow.routine_times[name] <= 1.2 * base.routine_times[name]


def test_profile_jitter_reproducible():
    app = get_application("UMT-128")
    sm = app.step_model()
    a = profile_run(app, sm.compute, sm.mpi, rng=rng_for("mpip"), jitter=0.1)
    b = profile_run(app, sm.compute, sm.mpi, rng=rng_for("mpip"), jitter=0.1)
    assert a.routine_times == b.routine_times


# --------------------------------------------------------------------- #
# AriesNCL
# --------------------------------------------------------------------- #


def _record(ncl, step, state, duration):
    """One step through ``record_steps`` as a one-row block of the
    collector's own router columns."""
    rates = {
        k: v[None, ncl.job_routers]
        for k, v in synthesize_router_counters(state).items()
    }
    [sc] = ncl.record_steps([step], [duration], rates)
    return sc


def test_ariesncl_collection(tiny_topo):
    engine = CongestionEngine(tiny_topo)
    rng = np.random.default_rng(3)
    nodes = rng.choice(tiny_topo.compute_nodes, size=16, replace=False)
    routers = np.unique(tiny_topo.node_router(nodes))
    flows = router_alltoall_flows(tiny_topo, nodes, 5e9)
    state = engine.solve([engine.route(flows)])

    ncl = AriesNCL(tiny_topo, routers, rng=rng_for("ncl"))
    for step in range(4):
        sc = _record(ncl, step, state, duration=2.0)
        assert set(sc.values) == set(APP_COUNTERS)
        assert sc.duration == 2.0
    mat = ncl.matrix()
    assert mat.shape == (4, len(APP_COUNTERS))
    assert (mat >= 0).all()
    # Our own traffic shows up on processor tiles.
    pt_tot = mat[:, APP_COUNTERS.index("PT_FLIT_TOT")]
    assert (pt_tot > 0).all()


def test_ariesncl_only_sees_job_routers(tiny_topo):
    """The paper's limitation: counters only for directly attached routers."""
    engine = CongestionEngine(tiny_topo)
    rng = np.random.default_rng(8)
    ours = rng.choice(tiny_topo.compute_nodes, size=8, replace=False)
    our_routers = np.unique(tiny_topo.node_router(ours))
    other = np.setdiff1d(tiny_topo.compute_nodes, ours)[:40]
    # Traffic exists only among *other* nodes' routers.
    other_flows = router_alltoall_flows(tiny_topo, other, 1e10)
    state = engine.solve([engine.route(other_flows)])
    ncl = AriesNCL(tiny_topo, our_routers, rng=None, noise=0.0)
    sc = _record(ncl, 0, state, 1.0)
    # Other-job endpoint traffic lands on other routers' processor tiles,
    # except where jobs share a router.
    shared = np.intersect1d(our_routers, np.unique(tiny_topo.node_router(other)))
    if len(shared) == 0:
        assert sc.values["PT_FLIT_TOT"] == 0.0
    # Fabric traffic can still traverse our routers (RT side) — that is
    # exactly the signal the deviation models use.
    assert sc.values["RT_FLIT_TOT"] >= 0.0
