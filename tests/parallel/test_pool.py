"""The generic worker-pool layer: ordering, guards, lifecycle, seeds."""

from __future__ import annotations

import os

import pytest

from repro.parallel import (
    WORKER_ENV,
    WorkerPool,
    WorkerPoolError,
    chunked,
    effective_workers,
    get_pool,
    in_worker,
    parallel_map,
    shutdown_pool,
)


def _square(v: int) -> int:
    return v * v


def _pid(_: int) -> int:
    return os.getpid()


def _worker_state(_: int) -> tuple[bool, int]:
    return in_worker(), effective_workers()


def _boom(v: int) -> int:
    raise ValueError(f"task {v} exploded")


def _die(_: int) -> None:
    os._exit(17)


@pytest.fixture(autouse=True)
def _no_env_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv(WORKER_ENV, raising=False)


def _workers(monkeypatch, n: int) -> None:
    monkeypatch.setenv("REPRO_WORKERS", str(n))


def test_map_is_ordered_and_worker_count_invariant(monkeypatch):
    tasks = [(v,) for v in range(20)]
    _workers(monkeypatch, 1)
    serial = parallel_map(_square, tasks)
    assert serial == [v * v for v in range(20)]
    _workers(monkeypatch, 3)
    with WorkerPool() as pool:
        assert pool.map(_square, tasks) == serial


def test_serial_mode_runs_in_process(monkeypatch):
    _workers(monkeypatch, 1)
    with WorkerPool() as pool:
        assert not pool.parallel
        assert pool.map(_pid, [(0,)]) == [os.getpid()]


def test_parallel_mode_forks(monkeypatch):
    _workers(monkeypatch, 2)
    with WorkerPool() as pool:
        assert pool.parallel
        pids = pool.map(_pid, [(i,) for i in range(6)])
    assert all(p != os.getpid() for p in pids)


def test_nested_parallelism_guard(monkeypatch):
    # Inside a pool worker, effective_workers() clamps to 1 whatever
    # REPRO_WORKERS says, so fan-out points nested in tasks go serial.
    _workers(monkeypatch, 2)
    with WorkerPool() as pool:
        states = pool.map(_worker_state, [(0,)])
    assert states == [(True, 1)]
    # The parent is not a worker and resolves normally.
    assert not in_worker()
    _workers(monkeypatch, 3)
    assert effective_workers() == 3


def test_env_var_wins(monkeypatch):
    # REPRO_WORKERS is the only surface: unset is serial, and every pool
    # resolves it itself.
    assert effective_workers() == 1
    _workers(monkeypatch, 5)
    assert effective_workers() == 5
    _workers(monkeypatch, 1)
    pool = WorkerPool()
    assert not pool.parallel


def test_task_exceptions_propagate_in_both_modes(monkeypatch):
    _workers(monkeypatch, 1)
    with pytest.raises(ValueError, match="task 3 exploded"):
        parallel_map(_boom, [(3,)])
    _workers(monkeypatch, 2)
    with WorkerPool() as pool:
        with pytest.raises(ValueError, match="task 3 exploded"):
            pool.map(_boom, [(3,)])


def test_worker_death_raises_pool_error(monkeypatch):
    _workers(monkeypatch, 2)
    with WorkerPool() as pool:
        with pytest.raises(WorkerPoolError):
            pool.map(_die, [(i,) for i in range(4)])
        assert pool.broken


def test_shared_pool_reuse_and_recreate(monkeypatch):
    shutdown_pool()
    try:
        _workers(monkeypatch, 1)
        serial = get_pool()
        assert not serial.parallel
        _workers(monkeypatch, 2)
        p2 = get_pool()
        assert p2 is get_pool()  # stable count -> same pool
        _workers(monkeypatch, 3)
        p3 = get_pool()
        assert p3 is not p2  # count change -> replaced
        assert p3.workers == 3
    finally:
        shutdown_pool()


def test_chunked():
    assert chunked([], 4) == []
    assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
    assert chunked([1, 2], 8) == [[1], [2]]
    assert [x for c in chunked(list(range(11)), 3) for x in c] == list(range(11))
    assert chunked([1], 0) == [[1]]
