"""Regression sentinel: profile loading, comparison, and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.diff import (
    DEFAULT_MIN_WALL,
    DEFAULT_WALL_RATIO,
    compare_profiles,
    load_profile_stages,
    render_diff,
)


def _stages(**walls):
    return {name: {"wall": w, "cpu": w, "maxrss_kb": 1000, "status": "run"}
            for name, w in walls.items()}


# --------------------------------------------------------------------------- #
# Loading.
# --------------------------------------------------------------------------- #


def test_load_harness_baseline_prefers_normalized_wall(tmp_path):
    doc = {
        "name": "profile_all",
        "stages": {
            "a": {"wall_s": 9.0, "normalized_wall": 3.0,
                  "normalized_cpu": 2.5, "maxrss_kb": 42, "status": "run"},
        },
    }
    p = tmp_path / "PROFILE_all_fast.json"
    p.write_text(json.dumps(doc))
    stages = load_profile_stages(p)
    assert stages["a"]["wall"] == 3.0
    assert stages["a"]["cpu"] == 2.5
    assert stages["a"]["maxrss_kb"] == 42


def test_load_profile_json_sums_cpu_components(tmp_path):
    doc = {
        "format": 1,
        "stages": {
            "b": {"wall": 4.0, "cpu_user": 1.0, "cpu_sys": 0.5,
                  "maxrss_kb": 7, "status": "run"},
        },
    }
    p = tmp_path / "run.profile.json"
    p.write_text(json.dumps(doc))
    stages = load_profile_stages(p)
    assert stages["b"]["wall"] == 4.0
    assert stages["b"]["cpu"] == 1.5


def test_load_report_json_unwraps_profile_key(tmp_path):
    doc = {
        "format": 1,
        "trace": "t.jsonl",
        "profile": {
            "stages": {"c": {"wall": 2.0, "cpu_user": 1.0, "cpu_sys": 0.0,
                             "maxrss_kb": 3, "status": "run"}},
        },
    }
    p = tmp_path / "report.json"
    p.write_text(json.dumps(doc))
    assert load_profile_stages(p)["c"]["wall"] == 2.0


def test_load_rejects_unrecognized_document(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_profile_stages(p)


# --------------------------------------------------------------------------- #
# Comparison.
# --------------------------------------------------------------------------- #


def test_identical_profiles_pass():
    base = _stages(a=2.0, b=3.0)
    lines, failures = compare_profiles(
        base, dict(base), wall_ratio=DEFAULT_WALL_RATIO,
        min_wall=DEFAULT_MIN_WALL,
    )
    assert not failures
    assert {ln.kind for ln in lines} == {"ok"}


def test_wall_regression_fails():
    lines, failures = compare_profiles(
        _stages(a=2.0, b=3.0), _stages(a=2.0, b=9.0),
        wall_ratio=1.25, min_wall=0.5,
    )
    assert failures == ["b"]
    detail = next(ln.detail for ln in lines if ln.stage == "b")
    assert "3.00x" in detail


def test_min_wall_noise_floor_skips_fast_stages():
    # 10x regression, but both sides under the floor: noise, not signal.
    lines, failures = compare_profiles(
        _stages(tiny=0.01), _stages(tiny=0.1),
        wall_ratio=1.25, min_wall=0.5,
    )
    assert not failures
    assert lines[0].kind == "skipped"


def test_missing_and_new_stages_are_informational():
    lines, failures = compare_profiles(
        _stages(old=2.0), _stages(new=2.0),
        wall_ratio=1.25, min_wall=0.5,
    )
    assert not failures
    kinds = {ln.stage: ln.kind for ln in lines}
    assert kinds == {"old": "missing", "new": "new"}


def test_cpu_gate_only_when_enabled():
    base = _stages(a=2.0)
    cur = {"a": {"wall": 2.0, "cpu": 10.0, "maxrss_kb": 1000,
                 "status": "run"}}
    _, off = compare_profiles(base, cur, wall_ratio=1.25, min_wall=0.5)
    assert not off
    lines, on = compare_profiles(
        base, cur, wall_ratio=1.25, cpu_ratio=1.5, min_wall=0.5,
    )
    assert on == ["a"]
    assert any(ln.kind == "regressed" and "cpu" in ln.detail for ln in lines)


def test_render_diff_summarises():
    lines, failures = compare_profiles(
        _stages(a=2.0, tiny=0.01), _stages(a=9.0, tiny=0.01),
        wall_ratio=1.25, min_wall=0.5,
    )
    text = render_diff(lines, failures)
    assert "1 regression(s)" in text
    assert "1 under the noise floor" in text


# --------------------------------------------------------------------------- #
# CLI exit codes.
# --------------------------------------------------------------------------- #


def _write_profile(path, **walls):
    doc = {"format": 1, "stages": {
        name: {"wall": w, "cpu_user": w, "cpu_sys": 0.0,
               "maxrss_kb": 100, "status": "run"}
        for name, w in walls.items()
    }}
    path.write_text(json.dumps(doc))
    return path


def test_cli_diff_ok_exit_zero(tmp_path, capsys):
    base = _write_profile(tmp_path / "base.json", a=2.0)
    cur = _write_profile(tmp_path / "cur.json", a=2.0)
    assert obs_main(["diff", str(base), str(cur)]) == 0


def test_cli_diff_regression_exit_one(tmp_path, capsys):
    base = _write_profile(tmp_path / "base.json", a=2.0)
    cur = _write_profile(tmp_path / "cur.json", a=9.0)
    assert obs_main(["diff", str(base), str(cur)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_diff_warn_only_exit_zero(tmp_path, capsys):
    base = _write_profile(tmp_path / "base.json", a=2.0)
    cur = _write_profile(tmp_path / "cur.json", a=9.0)
    assert obs_main(["diff", str(base), str(cur), "--warn-only"]) == 0


def test_cli_diff_ignores_rss_high_water(tmp_path, capsys):
    # maxrss_kb is the process high-water at span exit, not the stage's
    # own peak: doubling it alone is no regression and prints no ratio.
    base = _write_profile(tmp_path / "base.json", a=2.0)
    doc = json.loads(base.read_text())
    doc["stages"]["a"]["maxrss_kb"] *= 2
    cur = tmp_path / "cur.json"
    cur.write_text(json.dumps(doc))
    assert obs_main(["diff", str(base), str(cur), "-v"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "rss" not in out


def test_cli_diff_rss_ratio_is_a_usage_error(tmp_path, capsys):
    base = _write_profile(tmp_path / "base.json", a=2.0)
    with pytest.raises(SystemExit) as exc:
        obs_main(["diff", str(base), str(base), "--rss-ratio", "1.5"])
    assert exc.value.code == 2
    assert "--rss-ratio" in capsys.readouterr().err


def test_cli_diff_unreadable_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    cur = _write_profile(tmp_path / "cur.json", a=2.0)
    assert obs_main(["diff", str(bad), str(cur)]) == 2


def _write_harness_profile(path, calibration=0.2, **walls):
    doc = {"name": "profile_all", "calibration_s": calibration, "stages": {
        name: {"wall_s": w, "normalized_wall": w / calibration,
               "cpu_s": w, "normalized_cpu": w / calibration,
               "maxrss_kb": 100, "status": "run"}
        for name, w in walls.items()
    }}
    path.write_text(json.dumps(doc))
    return path


def test_cli_diff_harness_profiles_compare_normalized_walls(tmp_path, capsys):
    # Same seconds on a machine twice as slow: normalized walls are equal.
    base = _write_harness_profile(tmp_path / "base.json", 0.1, a=2.0)
    cur = _write_harness_profile(tmp_path / "cur.json", 0.2, a=4.0)
    assert obs_main(["diff", str(base), str(cur), "-v"]) == 0
    assert "(1.00x)" in capsys.readouterr().out


@pytest.mark.parametrize("harness_first", [True, False])
def test_cli_diff_refuses_mixed_units(tmp_path, capsys, harness_first):
    harness = _write_harness_profile(tmp_path / "PROFILE_all_fast.json", a=2.0)
    raw = _write_profile(tmp_path / "run.profile.json", a=2.0)
    pair = [harness, raw] if harness_first else [raw, harness]
    assert obs_main(["diff", *map(str, pair)]) == 2
    assert obs_main(["diff", *map(str, pair), "--warn-only"]) == 2
    err = capsys.readouterr().err
    assert str(harness) in err and str(raw) in err
    assert "calibration-normalized" in err and "raw seconds" in err
