"""Shared fixtures: a tiny dragonfly and helpers used across test modules."""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest

from repro.config import TINY, rng_for
from repro.network.engine import CongestionEngine
from repro.obs import log as obs_log
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.routing import AdaptiveRouter


@pytest.fixture(scope="session")
def tiny_topo() -> DragonflyTopology:
    """6 groups x (4x3) routers x 2 nodes = 144 nodes."""
    return DragonflyTopology.from_preset(TINY)


@pytest.fixture(scope="session")
def tiny_router(tiny_topo) -> AdaptiveRouter:
    return AdaptiveRouter(tiny_topo)


@pytest.fixture(scope="session")
def tiny_engine(tiny_topo) -> CongestionEngine:
    return CongestionEngine(tiny_topo)


@pytest.fixture(autouse=True)
def _no_artifact_cache(request, monkeypatch):
    """Keep stage memoization out of tests that don't opt into it.

    Experiment drivers persist stage outputs to the artifact store; a
    test exercising computation must not silently read a prior test's
    (or a developer's) cache.  Graph/golden tests opt back in with the
    ``artifact_cache`` marker against a private REPRO_CACHE_DIR.
    """
    if request.node.get_closest_marker("artifact_cache"):
        return
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")


@pytest.fixture(autouse=True)
def _reset_logging():
    """Undo what a CLI's ``configure_logging()`` leaves behind.

    A test that calls a CLI ``main`` in-process attaches a ``repro``
    stream handler bound to pytest's captured stderr; once that capture
    closes, every later record from any test would fail to print.  The
    call also exports ``REPRO_LOG_LEVEL`` into the session environment.
    """
    level_env = os.environ.get(obs_log.LOG_LEVEL_ENV)
    yield
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True
    obs_log._CONFIGURED = False
    if level_env is None:
        os.environ.pop(obs_log.LOG_LEVEL_ENV, None)
    else:
        os.environ[obs_log.LOG_LEVEL_ENV] = level_env


@pytest.fixture()
def rng() -> np.random.Generator:
    return rng_for("tests")


@pytest.fixture(scope="session")
def tiny_campaign():
    """One shared test-scale campaign (a few seconds to generate)."""
    from repro.campaign.runner import CampaignConfig, CampaignRunner

    cfg = CampaignConfig.tiny(use_cache=False)
    return CampaignRunner(cfg).run()
