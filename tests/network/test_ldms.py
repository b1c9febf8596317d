"""LDMS sampler: io/sys partitions and aggregation identities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import rng_for
from repro.network.counters import synthesize_router_counters
from repro.network.engine import CongestionEngine
from repro.network.ldms import LDMSSampler
from repro.network.traffic import io_flows, router_alltoall_flows


@pytest.fixture(scope="module")
def setup(tiny_topo):
    engine = CongestionEngine(tiny_topo)
    rng = np.random.default_rng(2)
    ours = rng.choice(tiny_topo.compute_nodes, size=12, replace=False)
    others = np.setdiff1d(tiny_topo.compute_nodes, ours)[:40]
    flows = [
        engine.route(router_alltoall_flows(tiny_topo, ours, 5e9)),
        engine.route(router_alltoall_flows(tiny_topo, others, 2e10)),
        engine.route(io_flows(tiny_topo, others, 3e10)),
    ]
    state = engine.solve(flows)
    job_routers = np.unique(tiny_topo.node_router(ours))
    return state, job_routers


def _sample(sampler, state, job_routers, duration, rng=None, noise=0.02):
    """One interval through ``sample_steps`` as a one-row block."""
    rates = {k: v[None] for k, v in synthesize_router_counters(state).items()}
    rngs = None if rng is None else [rng]
    [out] = sampler.sample_steps(job_routers, [duration], rngs, rates, noise=noise)
    return out


def test_sample_keys(tiny_topo, setup):
    state, job_routers = setup
    sampler = LDMSSampler(tiny_topo)
    out = _sample(sampler, state, job_routers, duration=10.0)
    assert set(out) == {
        "IO_RT_FLIT_TOT",
        "IO_RT_RB_STL",
        "IO_PT_FLIT_TOT",
        "IO_PT_PKT_TOT",
        "SYS_RT_FLIT_TOT",
        "SYS_RT_RB_STL",
        "SYS_PT_FLIT_TOT",
        "SYS_PT_PKT_TOT",
    }
    assert all(v >= 0 for v in out.values())
    # I/O traffic exists, so io counters must be nonzero.
    assert out["IO_PT_FLIT_TOT"] > 0


def test_sys_excludes_job_and_io_routers(tiny_topo, setup):
    state, job_routers = setup
    sampler = LDMSSampler(tiny_topo)
    rates = synthesize_router_counters(state)
    out = _sample(sampler, state, job_routers, 1.0)
    # Manual recomputation of the sys partition.
    sys_mask = np.ones(tiny_topo.num_routers, dtype=bool)
    sys_mask[job_routers] = False
    sys_mask[tiny_topo.io_routers] = False
    expect = rates["RT_FLIT_TOT"][sys_mask].sum()
    assert out["SYS_RT_FLIT_TOT"] == pytest.approx(expect)
    # io partition is exactly the io routers.
    expect_io = rates["RT_FLIT_TOT"][tiny_topo.io_routers].sum()
    assert out["IO_RT_FLIT_TOT"] == pytest.approx(expect_io)


def test_duration_scaling_and_noise(tiny_topo, setup):
    state, job_routers = setup
    sampler = LDMSSampler(tiny_topo)
    one = _sample(sampler, state, job_routers, 1.0)
    five = _sample(sampler, state, job_routers, 5.0)
    for k in one:
        assert five[k] == pytest.approx(5 * one[k])
    noisy1 = _sample(sampler, state, job_routers, 1.0, rng=rng_for("ldms"), noise=0.1)
    noisy2 = _sample(sampler, state, job_routers, 1.0, rng=rng_for("ldms"), noise=0.1)
    assert noisy1 == noisy2


def test_more_io_traffic_raises_io_counters(tiny_topo):
    engine = CongestionEngine(tiny_topo)
    rng = np.random.default_rng(9)
    others = rng.choice(tiny_topo.compute_nodes, size=30, replace=False)
    sampler = LDMSSampler(tiny_topo)
    job_routers = np.array([0])
    lo = engine.solve([engine.route(io_flows(tiny_topo, others, 1e9))])
    hi = engine.solve([engine.route(io_flows(tiny_topo, others, 5e10))])
    s_lo = _sample(sampler, lo, job_routers, 1.0)
    s_hi = _sample(sampler, hi, job_routers, 1.0)
    assert s_hi["IO_PT_FLIT_TOT"] > s_lo["IO_PT_FLIT_TOT"]
    assert s_hi["IO_RT_RB_STL"] >= s_lo["IO_RT_RB_STL"]
