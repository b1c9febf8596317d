"""The batched step-block solver is bit-identical to the per-step reference.

The campaign cold path solves each probe run's steps in memory-bounded
blocks (:data:`repro.campaign.parallel._STEP_BLOCK`).  The frozen
per-step loop it replaced lives in :mod:`tests.campaign.legacy_solver`;
these tests monkeypatch it in as the per-run solve function and enforce
the contract the refactor was built on: both solvers produce
*byte-identical* run arrays (``assert_array_equal``, not ``allclose``)
for every cell, worker count, and block size — including a long
(620-step) run whose steps span many background windows, and the
degenerate empty-flow placement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import Application, StepModel
from repro.campaign import parallel as par
from repro.campaign.runner import (
    CampaignConfig,
    CampaignRunner,
    ProbeRunContext,
)
from repro.network.engine import BaseLoad, CongestionEngine
from repro.network.traffic import FlowSet
from repro.topology.dragonfly import DragonflyTopology
from tests.campaign.legacy_solver import solve_one_run_reference, solve_step

#: Per-run arrays that must match bitwise between the two solvers.
RUN_ARRAYS = ("step_times", "compute_times", "mpi_times", "counters", "ldms")


def _cfg(**overrides) -> CampaignConfig:
    return CampaignConfig.tiny(
        use_cache=False, days=2.0, long_runs=(), **overrides
    )


def _assert_identical(a, b) -> None:
    assert set(a.keys()) == set(b.keys())
    for key in a.keys():
        da, db = a[key], b[key]
        assert len(da) == len(db)
        for ra, rb in zip(da.runs, db.runs):
            for name in RUN_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(ra, name), getattr(rb, name), err_msg=f"{key}.{name}"
                )
            assert ra.start_time == rb.start_time


@pytest.fixture(scope="module")
def batched_serial():
    """The default (batched) solver at workers=1 on the default cell."""
    return CampaignRunner(_cfg(workers=1)).run()


@pytest.fixture()
def reference_solver(monkeypatch):
    """Solve every run with the frozen per-step loop.

    Each campaign run forks a fresh worker pool, so subprocess workers
    inherit the patched module attribute too.
    """
    monkeypatch.setattr(par, "_solve_one_run", solve_one_run_reference)


def test_reference_solver_bit_identical(batched_serial, reference_solver):
    reference = CampaignRunner(_cfg(workers=1)).run()
    _assert_identical(batched_serial, reference)


def test_reference_solver_bit_identical_parallel(batched_serial, reference_solver):
    reference = CampaignRunner(_cfg(workers=4)).run()
    _assert_identical(batched_serial, reference)


def test_reference_solver_bit_identical_dfplus_cell(monkeypatch):
    """The non-default bench cell (Dragonfly+ geometry, pinned Valiant)."""
    cfg = _cfg(workers=1, topology="df+", routing="valiant")
    batched = CampaignRunner(cfg).run()
    monkeypatch.setattr(par, "_solve_one_run", solve_one_run_reference)
    reference = CampaignRunner(cfg).run()
    _assert_identical(batched, reference)


def test_block_size_invariance_long_run(monkeypatch):
    """A 620-step long run solved at block sizes 1/7/64 is bit-identical.

    Block size 1 degenerates to one step per block (the batched code on
    per-step shapes), 7 exercises ragged final blocks, 64 the default.
    The long run spans many background windows, so this also covers the
    window-grouped block splitting.
    """
    cfg = CampaignConfig.tiny(
        use_cache=False, days=2.0, long_runs=(("MILC-128", 620),), workers=1
    )
    results = {}
    for block in (1, 7, 64):
        monkeypatch.setattr(par, "_STEP_BLOCK", block)
        results[block] = CampaignRunner(cfg).run()
    assert any(
        len(run.step_times) == 620
        for run in results[1]["MILC-128-long620"].runs
    )
    _assert_identical(results[1], results[7])
    _assert_identical(results[1], results[64])


# --------------------------------------------------------------------------- #
# Unit surface: solve_steps on a degenerate placement, batched link sums.
# --------------------------------------------------------------------------- #


class _SilentApp(Application):
    """An app that never communicates: the empty-flow degenerate case."""

    name = "SILENT"
    version = "0"

    def step_model(self) -> StepModel:
        n = 4
        return StepModel(np.full(n, 1.0), np.full(n, 0.5), np.ones(n))

    def flow_geometry(self, topology, nodes) -> FlowSet:
        empty = np.empty(0, dtype=np.int64)
        return FlowSet(empty, empty, np.empty(0), 0.1)

    def routine_mix(self) -> dict[str, float]:
        return {"MPI_Wait": 1.0}

    def input_summary(self) -> str:
        return "silent"


def test_solve_steps_empty_flows():
    """solve_steps must handle a flowless placement and match the frozen
    per-step solve."""
    topo = DragonflyTopology.from_preset("tiny")
    engine = CongestionEngine(topo)
    app = _SilentApp(2)
    ctx = ProbeRunContext(
        app, topo, engine, np.array([0, 1]), app.step_model()
    )
    n, r = 3, topo.num_routers
    block_base = BaseLoad(
        link_loads=np.zeros((n, topo.num_links)),
        inj=np.zeros((n, r)),
        ej=np.zeros((n, r)),
        vc4=np.zeros((n, r)),
    )
    loads, inj, ej, vc4, fabric, endpoint = ctx.solve_steps(
        block_base, np.ones(n)
    )
    assert loads.shape == (n, topo.num_links)
    step_base = BaseLoad.zeros(topo)
    for i in range(n):
        state, fab, ep = solve_step(ctx, step_base, 1.0)
        np.testing.assert_array_equal(loads[i], state.link_loads)
        np.testing.assert_array_equal(inj[i], state.inj)
        assert fabric[i] == fab == 1.0  # no flows -> no slowdown
        assert endpoint[i] == ep == 1.0


def test_router_link_sums_batched_matches_per_row():
    """The (steps, links) form of router_link_sums equals per-row bincounts."""
    topo = DragonflyTopology.from_preset("tiny")
    rng = np.random.default_rng(42)
    per_link = rng.random((5, topo.num_links))
    batched = topo.router_link_sums(per_link)
    assert batched.shape == (5, topo.num_routers)
    for i in range(5):
        np.testing.assert_array_equal(
            batched[i], topo.router_link_sums(per_link[i])
        )
    # Non-contiguous input (a strided block view) must not change bits.
    view = per_link[::2]
    np.testing.assert_array_equal(
        topo.router_link_sums(view), batched[::2]
    )
