"""Smoke tests: examples run end to end on the public API.

The four domain examples actually *run* here under ``REPRO_FAST=1``,
sharing one cached test-scale campaign (generated once per session into
a shared cache directory), and each must print its headline result
within its wall-clock budget.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

#: Each domain example and the headline line it must print.
DOMAIN_EXAMPLES = {
    "neighborhood_blame.py": "recovery rate",
    "deviation_counters.py": "deviation-model prediction MAPE",
    "forecast_milc.py": "segment MAPE",
    "scheduling_whatif.py": "identified aggressors",
}

#: Wall-clock budget (seconds) per example under REPRO_FAST=1 with a warm
#: campaign cache — roughly 10x the local runtime, so only a genuine
#: regression (feature recomputation, an accidental benchmark-scale run)
#: trips it.  Scale with REPRO_TIME_BUDGET_FACTOR for slow machines.
TIME_BUDGETS = {
    "quickstart.py": 30.0,
    "neighborhood_blame.py": 20.0,
    "deviation_counters.py": 120.0,
    "forecast_milc.py": 30.0,
    "scheduling_whatif.py": 20.0,
    "streaming_drift.py": 120.0,
}


def _budget(name: str) -> float:
    factor = float(os.environ.get("REPRO_TIME_BUDGET_FACTOR", "1"))
    return TIME_BUDGETS[name] * factor


def test_examples_exist():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert set(DOMAIN_EXAMPLES) <= names


def _run_example(name: str, env: dict[str, str]) -> subprocess.CompletedProcess:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=str(REPO),
    )
    elapsed = time.monotonic() - start
    budget = _budget(name)
    assert elapsed < budget, (
        f"{name} took {elapsed:.1f}s, over its {budget:.0f}s fast-mode "
        "budget (set REPRO_TIME_BUDGET_FACTOR to scale on slow machines)"
    )
    return proc


@pytest.fixture(scope="session")
def example_env(tmp_path_factory):
    """Environment for fast example runs: one shared campaign cache.

    The examples all use ``CampaignConfig.tiny()`` under ``REPRO_FAST=1``
    (the same fingerprint), so the first subprocess generates the
    campaign and the rest load it from disk.  An externally supplied
    ``REPRO_CACHE_DIR`` (e.g. the CI cache) is honoured.
    """
    env = dict(os.environ)
    env["REPRO_FAST"] = "1"
    env.setdefault("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("excache")))
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Pre-generate the shared campaign in-process so the per-example
    # subprocess timeout never absorbs generation time.
    from repro.campaign.runner import CampaignConfig, run_campaign

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = env["REPRO_CACHE_DIR"]
    try:
        run_campaign(CampaignConfig.tiny())
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old
    return env


def test_quickstart_runs():
    proc = _run_example("quickstart.py", dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "topology:" in out
    assert "quiet" in out and "busy" in out
    assert "fabric slowdown" in out
    # The busy run must actually be slower than the quiet one.
    slows = [float(m) for m in re.findall(r"fabric slowdown\s+([\d.]+)x", out)]
    assert len(slows) == 2
    assert slows[1] > slows[0]


@pytest.mark.parametrize("name", sorted(DOMAIN_EXAMPLES))
def test_domain_example_runs(name, example_env):
    proc = _run_example(name, example_env)
    assert proc.returncode == 0, proc.stderr
    assert DOMAIN_EXAMPLES[name] in proc.stdout, proc.stdout


def test_streaming_example_runs(tmp_path_factory):
    """The streaming example generates windowed campaigns with their own
    fingerprints, so it runs against a private cache — the shared
    example cache must keep exactly one campaign entry."""
    env = dict(os.environ)
    env["REPRO_FAST"] = "1"
    env["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("streamcache"))
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = _run_example("streaming_drift.py", env)
    assert proc.returncode == 0, proc.stderr
    assert "stream fingerprint:" in proc.stdout
    assert "fresh MAPE" in proc.stdout
    assert "mean drift" in proc.stdout


def test_domain_examples_share_one_campaign(example_env):
    """Under REPRO_FAST=1 every domain example resolves to the same
    campaign fingerprint, so CI pays for exactly one generation."""
    cache = Path(example_env["REPRO_CACHE_DIR"])
    # Derived features stay in memory: the only directory is the campaign.
    assert not (cache / "features").exists()
    entries = [p for p in cache.iterdir() if p.is_dir()]
    assert len(entries) == 1, entries
