"""The claims' experiments, run once on the shared tiny campaign."""

from __future__ import annotations

import pytest

from benchmarks.claims import claim_ids
from repro.experiments import run_experiments


@pytest.fixture(scope="session")
def claim_results(tiny_campaign):
    """``{exp_id: ExperimentResult}`` for every experiment a claim reads,
    at fast scale.

    The claim cases and the mechanism tests of this package read these
    results instead of running each experiment again.  The autouse
    ``_no_artifact_cache`` fixture is function-scoped and runs after this
    one, so the artifact store is turned off here.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_ARTIFACT_CACHE", "0")
        return run_experiments(claim_ids(), campaign=tiny_campaign, fast=True)
