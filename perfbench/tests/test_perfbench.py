"""The benchmark's own tests: schema, wrappers, liveness, and smoke runs.

Run from the repo root::

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--smoke`` (reduced-size inputs).  The reproduce_cold
smoke keeps one RFE experiment, so this file takes about two minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """(context, result) of one reduced-size run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


# -- schema ------------------------------------------------------------------ #


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_end_to_end_names_and_units_match_the_runner():
    from perfbench.run import END_TO_END

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END


def test_per_layer_names_and_units_match_layers():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    for m in SPEC["per_layer"]:
        assert m["unit"] == layers.unit_of(m["name"])
    for layer in layers.LAYERS:
        assert f"{layer}.self_s" in layers.PER_LAYER


def test_each_hook_belongs_to_its_layer():
    for hook in layers.HOOKS:
        layer = hook.stem.split(".", 1)[0]
        module = hook.target.partition(":")[0]
        assert layer in layers.LAYERS
        assert module == f"repro.{layer}" or module.startswith(f"repro.{layer}."), hook


def test_workloads_match_the_runner():
    assert set(WORKLOADS) == {"reproduce_cold", "campaign_cold", "stream_append"}
    live = {w for h in layers.HOOKS for w in h.live}
    assert live == set(WORKLOADS)


# -- wrappers ---------------------------------------------------------------- #


def test_self_time_stack_partitions_wall():
    import time

    t = layers.Tracer()

    def leaf():
        time.sleep(0.02)

    w_leaf = t._wrap(layers.Hook("ml.leaf", "x:leaf"), leaf)

    def outer():
        time.sleep(0.01)
        w_leaf()
        w_leaf()

    w_outer = t._wrap(layers.Hook("graph.outer", "x:outer"), outer)
    w_outer()  # not recording: no stats
    assert t.stats["graph.outer"][0] == 0
    t.recording = True
    t0 = time.perf_counter()
    w_outer()
    wall = time.perf_counter() - t0
    calls, o_wall, o_self = t.stats["graph.outer"]
    l_calls, l_wall, l_self = t.stats["ml.leaf"]
    assert (calls, l_calls) == (1, 2)
    assert l_self == pytest.approx(l_wall)
    assert o_self + l_self == pytest.approx(o_wall)
    assert o_wall <= wall
    assert 0.005 < o_self < l_self


def test_hooks_install_and_restore():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.ml.rfe as rfe
    from repro.analysis import deviation
    from repro.ml.gbr import GradientBoostedRegressor

    before_fn = rfe.relevance_scores
    before_meth = vars(GradientBoostedRegressor)["fit_binned"]
    t = layers.Tracer()
    t.install()
    try:
        assert rfe.relevance_scores is not before_fn
        assert deviation.relevance_scores is rfe.relevance_scores
        assert rfe.relevance_scores.__wrapped__ is before_fn
        assert vars(GradientBoostedRegressor)["fit_binned"] is not before_meth
    finally:
        t.uninstall()
    assert rfe.relevance_scores is before_fn
    assert deviation.relevance_scores is before_fn
    assert vars(GradientBoostedRegressor)["fit_binned"] is before_meth


def test_missing_hook_target_fails_at_install():
    t = layers.Tracer()
    with pytest.raises(AttributeError):
        t.install([layers.Hook("ml.gone", "repro.ml.gbr:GradientBoostedRegressor.fit_gone")])
    with pytest.raises(AttributeError):
        t.install([layers.Hook("ml.gone", "repro.ml.rfe:relevance_scores_gone")])
    t.uninstall()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_liveness_fails_when_a_wrapper_never_fires(workload):
    t = layers.Tracer()
    for hook in layers.HOOKS:
        t.hook_calls[hook] = 1
    layers.check_liveness(t, workload)
    dead = next(h for h in layers.HOOKS if workload in h.live)
    t.hook_calls[dead] = 0
    with pytest.raises(RuntimeError, match=re.escape(dead.target)):
        layers.check_liveness(t, workload)


# -- smoke runs -------------------------------------------------------------- #


def _check_result(result: dict, names: list[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    context, result = smoke(workload, 0)
    _check_result(result, [m["name"] for m in SPEC["end_to_end"]])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    assert context["error_rate"] == 0
    assert context["cpu_count"] and context["python"] and context["numpy"]
    assert context["fingerprints"] and isinstance(context["digest"], str)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    context, result = smoke(workload, 1)
    _check_result(result, list(layers.PER_LAYER))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    rollup = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert rollup + values["trace.unattributed_s"] == pytest.approx(
        context["traced_wall_s"], abs=1e-9
    )
    assert values["trace.unattributed_s"] >= 0
    # Tracing must not change what the program computes.
    assert context["digest"] == smoke(workload, 0)[0]["digest"]


@pytest.mark.parametrize("workload", ["campaign_cold", "stream_append"])
def test_counts_repeat_for_one_seed(workload):
    counts = [
        "ml.gbr_fit_binned.calls", "ml.tree_fit_binned.calls",
        "campaign.solve_steps.calls", "graph.store_save.calls",
        "topology.route.calls",
    ]
    first_ctx, first = smoke(workload, 1)
    again_ctx, again = smoke.__wrapped__(workload, 1)  # a fresh process
    for name in counts:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"]
    assert again_ctx["digest"] == first_ctx["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
