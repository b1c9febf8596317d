"""Parallel campaign generation is bit-identical to serial, and fails clean.

The whole point of the worker pool (`repro.campaign.parallel`) is that it
is *invisible* in the data: every random draw is tied to a
``(job_id[, step])``-labelled stream, so worker count, chunking, and
completion order cannot perturb anything.  These tests enforce that
contract exactly (``assert_array_equal``, not ``allclose``), plus the
failure mode: a dying worker must surface as a clean
:class:`CampaignWorkerError`, never a hang or a silently partial campaign.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.campaign import parallel as par
from repro.campaign.parallel import CampaignWorkerError
from repro.campaign.runner import CampaignConfig, CampaignRunner
from repro.config import resolve_workers
from repro.parallel import chunked

#: Per-run arrays that must match bitwise between worker counts.
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
            assert (ra.num_routers, ra.num_groups) == (rb.num_routers, rb.num_groups)
            assert ra.neighborhood == rb.neighborhood
            assert ra.routine_times == rb.routine_times
    assert a.ground_truth_aggressors == b.ground_truth_aggressors


@pytest.fixture(scope="module")
def serial_campaign():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_WORKERS", "1")
        return CampaignRunner(_cfg()).run()


def test_workers4_bit_identical(serial_campaign, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    parallel = CampaignRunner(_cfg()).run()
    _assert_identical(serial_campaign, parallel)


def test_env_override_bit_identical(serial_campaign, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    parallel = CampaignRunner(_cfg()).run()
    _assert_identical(serial_campaign, parallel)


def _crash_solve(tasks, windows):
    """Stand-in solve task: the worker process dies hard mid-solve.

    Top-level so it pickles by reference; workers fork after the patch,
    so they resolve it in the already-imported test module.
    """
    os._exit(17)


def test_worker_crash_is_clean_error(monkeypatch):
    """A worker dying mid-solve raises CampaignWorkerError, not a hang."""
    monkeypatch.setattr(par, "_task_solve_runs", _crash_solve)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    with pytest.raises(CampaignWorkerError):
        CampaignRunner(_cfg()).run()


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "")
    assert resolve_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert resolve_workers() == 5
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers() >= 1  # "all cores"
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    with pytest.raises(ValueError):
        resolve_workers()


def test_chunked():
    # The runner splits probe and background specs across workers with this.
    assert chunked([], 4) == []
    assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
    flat = [x for chunk in chunked(list(range(17)), 4) for x in chunk]
    assert flat == list(range(17))  # order preserved, nothing lost
    assert chunked([1], 0) == [[1]]
