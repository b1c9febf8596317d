"""The committed perf baseline describes the program as it stands.

``repro.obs diff`` reports a stage present on only one side as
``new``/``gone`` and never fails on it, so a renamed or added stage
would silently drop out of the CI gate.  These checks fail instead and
ask for a re-baseline (``python -m benchmarks.perf_harness --fast --out
benchmarks/baselines``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import PAPER_EXPERIMENTS, build_experiment
from repro.experiments.context import ExperimentContext, experiment_config
from repro.graph import Graph

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "PROFILE_all_fast.json"
)


def _baseline() -> dict:
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def test_baseline_profiles_the_current_fast_campaign():
    assert _baseline()["dataset_fingerprint"] == experiment_config(True).fingerprint()


def test_baseline_stages_are_the_fast_all_graph(tiny_campaign):
    ctx = ExperimentContext(campaign=tiny_campaign, fast=True)
    g = Graph()
    for exp_id in PAPER_EXPERIMENTS:
        build_experiment(g, ctx, exp_id)
    assert set(_baseline()["stages"]) == set(g.stages)
