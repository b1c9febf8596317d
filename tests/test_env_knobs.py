"""Every ``REPRO_*`` environment knob the package reads is documented,
and the boolean ones all parse the same way.

``docs/development.md`` keeps one table of the knobs.  The first test
collects every ``REPRO_*`` name that appears under ``src/`` and requires
the two sets to be equal, so a new knob cannot land undocumented and a
removed one cannot linger in the table.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.context import fast_requested
from repro.features.store import feature_cache_enabled
from repro.graph.store import artifact_cache_enabled
from repro.obs import env_flag
from repro.obs.trace import profile_requested, trace_requested

ROOT = Path(__file__).resolve().parents[1]
KNOB = r"REPRO_[A-Z][A-Z_]*"


def _src_knobs() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in re.findall(KNOB, path.read_text())
    }


def _table_knobs() -> set[str]:
    doc = (ROOT / "docs" / "development.md").read_text()
    section = doc.split("\n## Environment knobs\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(rf"^\| `({KNOB})` \|", section, flags=re.M))


def test_knob_table_matches_src():
    assert _table_knobs() == _src_knobs()


#: Each boolean toggle, the function that reads it, and its default.
TOGGLES = [
    ("REPRO_FAST", fast_requested, False),
    ("REPRO_TRACE", trace_requested, False),
    ("REPRO_PROFILE", profile_requested, False),
    ("REPRO_ARTIFACT_CACHE", artifact_cache_enabled, True),
    ("REPRO_FEATURE_CACHE", feature_cache_enabled, True),
]


@pytest.mark.parametrize("knob, read, default", TOGGLES)
def test_boolean_toggles_share_one_parser(monkeypatch, knob, read, default):
    for other, _, _ in TOGGLES:
        monkeypatch.delenv(other, raising=False)
    assert read() is default
    for value, expected in [
        ("1", True), ("true", True), ("TRUE", True),
        ("0", False), ("false", False), ("False", False), ("", False),
    ]:
        monkeypatch.setenv(knob, value)
        assert read() is expected, value
    # Anything else fails naming the knob: a typo must not switch a feature on.
    for value in ["off", "no", "yes", "2"]:
        monkeypatch.setenv(knob, value)
        with pytest.raises(ValueError, match=f"{knob}='{value}'"):
            read()


def test_env_flag_default_applies_only_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_FAST", raising=False)
    assert env_flag("REPRO_FAST", True) is True
    monkeypatch.setenv("REPRO_FAST", "")
    assert env_flag("REPRO_FAST", True) is False
