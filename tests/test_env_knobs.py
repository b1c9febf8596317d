"""Every ``REPRO_*`` environment knob the package reads is documented,
the boolean ones all parse the same way, and the CLIs check them first.

``docs/development.md`` keeps one table of the knobs.  The first test
collects every ``REPRO_*`` name that appears under ``src/`` and requires
the two sets to be equal, so a new knob cannot land undocumented and a
removed one cannot linger in the table.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import resolve_workers
from repro.experiments.context import fast_requested
from repro.graph.store import artifact_cache_enabled
from repro.obs import env_flag
from repro.obs.trace import profile_requested, trace_requested
from repro.parallel import effective_workers

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


# --------------------------------------------------------------------------- #
# The CLI boundary: bad values and --workers
# --------------------------------------------------------------------------- #

SRC = ROOT / "src"

#: (CLI, its arguments, bad environment, the knob the error must name).
#: Both CLIs read REPRO_FAST; ``repro.campaign stream --drift`` also
#: reads the artifact-store toggle.
BAD_VALUES = [
    *(
        pytest.param(cli, args, env, knob, id=f"{cli}-{knob}")
        for cli, args in [
            ("repro.experiments", ["table01"]),
            ("repro.campaign", ["--fast"]),
        ]
        for env, knob in [
            ({"REPRO_TRACE": "maybe"}, "REPRO_TRACE"),
            ({"REPRO_LOG_LEVEL": "LOUD"}, "REPRO_LOG_LEVEL"),
            ({"REPRO_TRACE": "1", "REPRO_TRACE_MAX_MB": "abc"}, "REPRO_TRACE_MAX_MB"),
            ({"REPRO_WORKERS": "two"}, "REPRO_WORKERS"),
        ]
    ),
    # An explicit --fast still wins over a valid REPRO_FAST, but a
    # malformed one is an error with or without the flag.
    *(
        pytest.param(cli, args, {"REPRO_FAST": "off"}, "REPRO_FAST",
                     id=f"{cli}-REPRO_FAST{'-with-fast' if '--fast' in args else ''}")
        for cli, args in [
            ("repro.experiments", ["table01"]),
            ("repro.experiments", ["table01", "--fast"]),
            ("repro.campaign", []),
            ("repro.campaign", ["--fast"]),
        ]
    ),
    pytest.param(
        "repro.campaign", ["stream", "--fast", "--drift"],
        {"REPRO_ARTIFACT_CACHE": "maybe"}, "REPRO_ARTIFACT_CACHE",
        id="repro.campaign-stream-REPRO_ARTIFACT_CACHE",
    ),
]


@pytest.mark.parametrize("cli, args, bad, knob", BAD_VALUES)
def test_bad_knob_is_a_usage_error_before_any_work(tmp_path, cli, args, bad, knob):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cache = tmp_path / "cache"
    env.update(bad, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache))
    out = subprocess.run(
        [sys.executable, "-m", cli, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith(f"{cli}") and ": error: " in last and knob in last
    assert not cache.exists()


def test_campaign_stream_reads_repro_fast(monkeypatch, tmp_path, capsys):
    """``REPRO_FAST=1`` without ``--fast`` plans the same drift stages,
    with the same fingerprints, as ``--fast``: one resolved flag sets
    both the stream's scale and the drift DAG's."""
    import repro.campaign.__main__ as cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["stream", "--windows", "1", "--window-days", "1", "--explain",
            "--keys", "AMG-128"]
    outputs = []
    for env, flags in [({"REPRO_FAST": "1"}, []), ({}, ["--fast"])]:
        monkeypatch.delenv("REPRO_FAST", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cli.main(argv + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "sd-train:AMG-128:w0:" in outputs[0]


class _Stop(Exception):
    pass


def test_experiments_workers_flag_covers_all_work(monkeypatch):
    """``--workers 3`` beats an inherited REPRO_WORKERS=1 for the stage
    pool and for the campaign generation the run triggers."""
    import repro.experiments.__main__ as cli

    seen = {}

    def run(ids, campaign=None, fast=False, force=False):
        seen["stages"] = effective_workers()
        seen["generation"] = resolve_workers()
        raise _Stop

    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setattr(cli, "run_experiments", run)
    with pytest.raises(_Stop):
        cli.main(["table01", "--workers", "3"])
    assert seen == {"stages": 3, "generation": 3}


def test_campaign_workers_flag_covers_all_work(monkeypatch):
    import repro.campaign.__main__ as cli

    seen = {}

    def run(cfg, progress=False):
        seen["generation"] = resolve_workers()
        raise _Stop

    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setattr(cli, "run_campaign", run)
    with pytest.raises(_Stop):
        cli.main(["--fast", "--workers", "3"])
    assert seen == {"generation": 3}
