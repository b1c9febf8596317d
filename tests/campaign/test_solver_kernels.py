"""The campaign solver's exact kernels equal their frozen or per-step forms.

* ``_SegMax.block`` (per-flow max in passes) against the frozen sorted
  ``maximum.reduceat`` of ``tests/campaign/legacy_solver.py``;
* the job-router counter synthesis against per-state
  ``synthesize_router_counters`` columns, on both topologies;
* ``Topology.router_link_sums`` over a router subset against the full
  sum's columns;
* the collectors' one-reduction block sums against per-row 1-D
  ``.sum()`` calls, at every width from 1 to 720.

Every comparison is bitwise (``assert_array_equal``).
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.apps.registry import get_application
from repro.campaign.runner import CampaignConfig, ProbeRunContext, _SegMax
from repro.config import NIC_BW, SMALL
from repro.network.counters import (
    APP_COUNTERS,
    LDMS_COUNTERS,
    synthesize_router_counters,
    synthesize_router_counters_block,
)
from repro.network.engine import CongestionEngine, NetworkState
from repro.network.ldms import LDMSSampler
from repro.telemetry.ariesncl import AriesNCL
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.registry import build_topology
from repro.topology.routing import Incidence
from tests.campaign.legacy_solver import SegMax, seg_max_block, segments

CELLS = [("dragonfly", "ugal"), ("df+", "valiant")]

FLIT_COUNTERS = [
    "RT_FLIT_TOT", "RT_PKT_TOT",
    "PT_FLIT_VC0", "PT_FLIT_VC4", "PT_FLIT_TOT", "PT_PKT_TOT",
]


@pytest.fixture(scope="module")
def small_topo() -> DragonflyTopology:
    """The 720-router benchmark-scale dragonfly."""
    return DragonflyTopology.from_preset(SMALL)


def _topology(name: str):
    return build_topology(name, CampaignConfig.tiny().preset)


# --------------------------------------------------------------------------- #
# _SegMax.block against the frozen reduceat
# --------------------------------------------------------------------------- #


def _live(inc: Incidence, n_flows: int, mask: np.ndarray | None = None) -> _SegMax:
    """The live per-flow max over ``inc``'s entries selected by ``mask``,
    fed stably sorted by flow as ``ProbeRunContext`` feeds it."""
    flow, link = inc.flow, inc.link
    if mask is not None:
        flow, link = flow[mask], link[mask]
    order = np.argsort(flow, kind="stable")
    return _SegMax(flow[order], link[order], n_flows)


def _incidence(rng, n_flows: int, n_links: int, max_len: int) -> Incidence:
    """Random incidence, flows interleaved as a router emits them hop by
    hop; some flows have no entry at all."""
    lengths = rng.integers(1, max_len + 1, size=n_flows)
    lengths[rng.random(n_flows) < 0.1] = 0
    flow = np.repeat(np.arange(n_flows), lengths)[
        rng.permutation(int(lengths.sum()))
    ]
    link = rng.integers(0, n_links, size=len(flow))
    return Incidence(flow, link, np.ones(len(flow)))


@pytest.mark.parametrize("steps", [1, 64])
@pytest.mark.parametrize("max_len", [1, 4, 20])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segmax_block_matches_reduceat(steps, max_len, masked, seed):
    rng = np.random.default_rng(seed)
    n_flows, n_links = 300, 500
    inc = _incidence(rng, n_flows, n_links, max_len)
    mask = rng.random(inc.nnz) < 0.4 if masked else None
    live = _live(inc, n_flows, mask)
    frozen = SegMax(inc, n_flows, mask)
    if max_len == 20 and not masked:
        assert len(live.passes) == 20
    # Continuous values, then values from a four-element set (ties).
    for per_link in (
        rng.random((steps, n_links)),
        rng.integers(0, 4, size=(steps, n_links)) / 4.0,
    ):
        assert_array_equal(live.block(per_link), seg_max_block(frozen, per_link))


@pytest.mark.parametrize("steps", [1, 64])
def test_segmax_block_empty_incidence(steps):
    empty = np.empty(0, dtype=np.int64)
    inc = Incidence(empty, empty, np.empty(0))
    per_link = np.random.default_rng(0).random((steps, 10))
    live = _live(inc, 7)
    assert live.passes == []
    out = live.block(per_link)
    assert_array_equal(out, seg_max_block(SegMax(inc, 7), per_link))
    assert_array_equal(out, np.zeros((steps, 7)))


def test_segmax_block_mask_drops_every_entry():
    inc = _incidence(np.random.default_rng(3), 50, 80, 5)
    mask = np.zeros(inc.nnz, dtype=bool)
    per_link = np.random.default_rng(4).random((3, 80))
    assert_array_equal(
        _live(inc, 50, mask).block(per_link),
        seg_max_block(SegMax(inc, 50, mask), per_link),
    )


@pytest.mark.parametrize("cell", CELLS)
def test_context_segments_match_frozen(cell):
    """The four edge/mid sets a context builds equal the frozen ones."""
    topo = _topology(cell[0])
    engine = CongestionEngine(topo, policy=cell[1])
    app = get_application("MILC-128")
    rng = np.random.default_rng(5)
    nodes = np.sort(rng.choice(topo.compute_nodes, app.num_nodes, replace=False))
    ctx = ProbeRunContext(app, topo, engine, nodes, app.step_model())
    live = (ctx.seg_min_edge, ctx.seg_min_mid, ctx.seg_val_edge, ctx.seg_val_mid)
    for steps in (1, 64):
        per_link = rng.random((steps, topo.num_links))
        for seg, frozen in zip(live, segments(ctx)):
            assert_array_equal(seg.block(per_link), seg_max_block(frozen, per_link))


# --------------------------------------------------------------------------- #
# Job-router counter synthesis against per-state columns
# --------------------------------------------------------------------------- #


def _block(topo, rng, steps: int = 5):
    """Random step block: link loads up to 1.3x capacity, NIC loads up
    to 1.3x the NIC budget, and an all-zero step."""
    nic = topo.nodes_per_router * NIC_BW
    r = topo.num_routers
    link_loads = rng.random((steps, topo.num_links)) * 1.3 * topo.link_capacity
    inj, ej = (rng.random((steps, r)) * 0.65 * nic for _ in range(2))
    vc4 = rng.random((steps, r)) * 0.3 * nic
    for a in (link_loads, inj, ej, vc4):
        a[-1] = 0.0
    return link_loads, inj, ej, vc4


def _job_routers(topo, rng, n: int) -> np.ndarray:
    routers = rng.choice(topo.num_routers, n, replace=False)
    return np.unique(np.r_[routers, 0, topo.num_routers - 1])


@pytest.mark.parametrize("cell", CELLS)
def test_job_router_synthesis_matches_per_state(cell):
    topo = _topology(cell[0])
    rng = np.random.default_rng(6)
    link_loads, inj, ej, vc4 = _block(topo, rng)
    routers = _job_routers(topo, rng, 12)
    job = topo.router_links(routers)
    rates, ldms_rates = synthesize_router_counters_block(
        topo, link_loads, inj, ej, vc4, job
    )
    bg_rates, none = synthesize_router_counters_block(
        topo, link_loads, inj, ej, vc4, job, flits_only=True
    )
    assert list(rates) == APP_COUNTERS
    assert list(ldms_rates) == list(LDMS_COUNTERS)
    assert sorted(bg_rates) == sorted(FLIT_COUNTERS)
    assert none == {}
    for i in range(len(link_loads)):
        state = NetworkState(topo, link_loads[i], inj[i], ej[i], vc4[i])
        full = synthesize_router_counters(state)
        for name in APP_COUNTERS:
            assert rates[name].shape == (len(link_loads), len(routers))
            assert_array_equal(rates[name][i], full[name][routers], err_msg=name)
        for name in LDMS_COUNTERS:
            assert_array_equal(ldms_rates[name][i], full[name], err_msg=name)
        for name in FLIT_COUNTERS:
            assert_array_equal(bg_rates[name][i], full[name][routers], err_msg=name)


@pytest.mark.parametrize("cell", CELLS)
def test_router_link_sums_subset_matches_full_columns(cell):
    topo = _topology(cell[0])
    rng = np.random.default_rng(7)
    routers = _job_routers(topo, rng, 9)
    job = topo.router_links(routers)
    assert_array_equal(job.routers, routers)
    assert np.all(np.diff(job.links) > 0)
    assert_array_equal(routers[job.bins], topo.link_dst[job.links])
    per_link = rng.random((6, topo.num_links))
    assert_array_equal(
        topo.router_link_sums(per_link, job),
        topo.router_link_sums(per_link)[:, routers],
    )
    assert_array_equal(
        topo.router_link_sums(per_link[2], job),
        topo.router_link_sums(per_link[2])[routers],
    )


# --------------------------------------------------------------------------- #
# Collector block sums against per-row 1-D sums
# --------------------------------------------------------------------------- #


def test_last_axis_sum_matches_row_sums():
    """The reduction both collectors rely on, at the solver's shapes."""
    rng = np.random.default_rng(8)
    for _ in range(150):
        shape = (
            int(rng.integers(1, 14)),
            int(rng.integers(1, 65)),
            int(rng.integers(1, 721)),
        )
        block = rng.lognormal(0.0, 2.0, size=shape) * 1e6
        rows = np.array(
            [[block[j, i].sum() for i in range(shape[1])] for j in range(shape[0])]
        )
        assert_array_equal(block.sum(axis=-1), rows)


def test_record_steps_matches_row_sums(small_topo):
    rng = np.random.default_rng(9)
    steps, durations = [4, 5], [1.7, 0.3]
    for width in range(1, small_topo.num_routers + 1):
        ncl = AriesNCL(small_topo, np.arange(width), rng=None, noise=0.0)
        rates = {
            name: rng.lognormal(0.0, 2.0, size=(2, width)) * 1e6
            for name in APP_COUNTERS
        }
        got = [[sc.values[name] for name in APP_COUNTERS]
               for sc in ncl.record_steps(steps, durations, rates)]
        want = [[float(rates[name][i].sum()) * durations[i] for name in APP_COUNTERS]
                for i in range(2)]
        assert_array_equal(np.array(got), np.array(want), err_msg=str(width))


def test_record_steps_rejects_all_router_rates(small_topo):
    ncl = AriesNCL(small_topo, np.arange(3))
    rates = {name: np.ones((1, small_topo.num_routers)) for name in APP_COUNTERS}
    with pytest.raises(ValueError, match="3 job routers"):
        ncl.record_steps([0], [1.0], rates)


def test_sample_steps_matches_row_sums(small_topo):
    """sys widths from 716 down to 1 (the io group has 4 routers)."""
    rng = np.random.default_rng(10)
    sampler = LDMSSampler(small_topo)
    io_mask = small_topo.io_router_mask
    compute = np.flatnonzero(~io_mask)
    durations = [2.5, 0.7]
    for n_job in range(len(compute)):
        job = np.sort(rng.choice(compute, n_job, replace=False))
        sys_mask = ~io_mask
        sys_mask[job] = False
        rates = {
            name: rng.lognormal(0.0, 2.0, size=(2, small_topo.num_routers)) * 1e6
            for name in LDMS_COUNTERS
        }
        out = sampler.sample_steps(job, durations, None, rates)
        got, want = [], []
        for i, d in enumerate(durations):
            for name in LDMS_COUNTERS:
                got += [out[i][f"IO_{name}"], out[i][f"SYS_{name}"]]
                want += [
                    float(rates[name][i][io_mask].sum()) * d,
                    float(rates[name][i][sys_mask].sum()) * d,
                ]
        assert_array_equal(np.array(got), np.array(want), err_msg=str(n_job))
