"""Acceptance: the DAG runners reproduce the pre-refactor payloads.

Every experiment id is compared against its frozen legacy driver
(:mod:`tests.graph.legacy_drivers`) on the shared tiny campaign —
byte-identical ``ExperimentResult`` payloads cold, warm (served from the
artifact store, i.e. through a pickle roundtrip), and under a worker
pool.  The warm pass must execute zero stages.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.experiments import run_experiments
from repro.obs import METRICS
from tests.graph.legacy_drivers import LEGACY_DRIVERS

EXP_IDS = list(LEGACY_DRIVERS)

pytestmark = pytest.mark.artifact_cache


def deep_equal(a, b, path="") -> None:
    """Assert byte-identical payloads, recursing with a readable path."""
    assert type(a) is type(b) or (
        is_dataclass(a) and is_dataclass(b) and type(a).__name__ == type(b).__name__
    ), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), f"{path}: array bytes differ"
    elif is_dataclass(a) and not isinstance(a, type):
        for f in fields(a):
            deep_equal(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys/order differ"
        for k in a:
            deep_equal(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length differs"
        for i, (x, y) in enumerate(zip(a, b)):
            deep_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


@pytest.fixture(scope="module")
def graph_env(tmp_path_factory):
    """Module-scoped: artifact cache ON against a private cache dir."""
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_ARTIFACT_CACHE", "1")
    mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("graph_cache")))
    yield
    mp.undo()


@pytest.fixture(scope="module")
def legacy(graph_env, tiny_campaign):
    return {
        exp_id: fn(campaign=tiny_campaign, fast=True)
        for exp_id, fn in LEGACY_DRIVERS.items()
    }


@pytest.fixture(scope="module")
def cold(graph_env, tiny_campaign):
    return run_experiments(EXP_IDS, campaign=tiny_campaign, fast=True)


@pytest.mark.parametrize("exp_id", EXP_IDS)
def test_cold_run_matches_legacy_driver(cold, legacy, exp_id):
    deep_equal(cold[exp_id], legacy[exp_id], exp_id)


def test_warm_run_matches_and_executes_zero_stages(
    graph_env, tiny_campaign, cold, legacy
):
    ran_before = METRICS.counter("graph.stage.run").value
    warm = run_experiments(EXP_IDS, campaign=tiny_campaign, fast=True)
    assert METRICS.counter("graph.stage.run").value == ran_before, (
        "warm second pass recomputed a stage"
    )
    for exp_id in EXP_IDS:
        deep_equal(warm[exp_id], legacy[exp_id], f"warm:{exp_id}")


@pytest.mark.parametrize("workers", [0, 4])
def test_worker_pool_matches_legacy(
    graph_env, tiny_campaign, legacy, monkeypatch, workers
):
    """A forced parallel run (fresh compute, any fan-out) changes nothing."""
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    results = run_experiments(
        ["fig09", "fig08"],
        campaign=tiny_campaign,
        fast=True,
        force=True,
    )
    deep_equal(results["fig09"], legacy["fig09"], f"w{workers}:fig09")
    deep_equal(results["fig08"], legacy["fig08"], f"w{workers}:fig08")
