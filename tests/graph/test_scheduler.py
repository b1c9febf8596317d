"""GraphRunner: memoization, invalidation, planning, and worker parity.

The stage bodies below log executions to an on-disk journal (not a
global, so pool workers are counted too), which is what the warm-run
"zero recompute" assertions read.
"""

from __future__ import annotations

import os

import pytest

from repro.graph import ArtifactStore, Graph, GraphRunner, render_plan, stage_fn
from repro.obs import METRICS
from repro.parallel import shutdown_pool

_JOURNAL_ENV = "REPRO_TEST_STAGE_JOURNAL"


def _journal(name: str) -> None:
    path = os.environ.get(_JOURNAL_ENV)
    if path:
        with open(path, "a") as fh:
            fh.write(name + "\n")


@stage_fn(version=1)
def source(ctx):
    _journal(f"source:{ctx.params['value']}")
    return ctx.params["value"]


@stage_fn(version=1)
def double(ctx):
    _journal("double")
    return ctx.inputs["up"] * 2


@stage_fn(version=1)
def add(ctx):
    _journal("add")
    return ctx.inputs["left"] + ctx.inputs["right"]


def _graph(value=10):
    g = Graph()
    g.add("src", source, params={"value": value})
    g.add("dbl", double, inputs=[("up", "src")])
    g.add("sum", add, inputs=[("left", "src"), ("right", "dbl")])
    return g


@pytest.fixture()
def env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "1")
    journal = tmp_path / "journal.txt"
    monkeypatch.setenv(_JOURNAL_ENV, str(journal))

    def runs():
        return journal.read_text().splitlines() if journal.exists() else []

    store = ArtifactStore(root=tmp_path / "artifacts")
    # A pool left over from an earlier test predates the journal env var,
    # so its workers would execute stages invisibly; spawn fresh both ways.
    shutdown_pool()
    yield store, runs
    shutdown_pool()


def test_cold_run_computes_and_stores(env):
    store, runs = env
    runner = GraphRunner(_graph(), store=store, campaign_fingerprint=None)
    values = runner.run(["sum"])
    assert values == {"sum": 30}
    assert sorted(runs()) == ["add", "double", "source:10"]
    assert all(p.status == "hit" for p in runner.plan())


def test_warm_run_executes_nothing(env):
    store, runs = env
    GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(["sum"])
    before = len(runs())
    run_counter = METRICS.counter("graph.stage.run").value

    values = GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(
        ["sum"]
    )
    assert values == {"sum": 30}
    assert len(runs()) == before, "warm run re-executed a stage"
    assert METRICS.counter("graph.stage.run").value == run_counter


def test_upstream_config_change_invalidates_exactly_the_cone(env):
    store, runs = env
    GraphRunner(_graph(10), store=store, campaign_fingerprint=None).run(["sum"])
    before = len(runs())

    values = GraphRunner(_graph(11), store=store, campaign_fingerprint=None).run(
        ["sum"]
    )
    assert values == {"sum": 33}
    assert sorted(runs()[before:]) == ["add", "double", "source:11"]

    # And the old cone is still warm: flipping back recomputes nothing.
    GraphRunner(_graph(10), store=store, campaign_fingerprint=None).run(["sum"])
    assert len(runs()) == before + 3


def test_hit_stops_the_upstream_walk(env):
    store, runs = env
    GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(["dbl"])
    os.remove(store.path("source", _fp(store, "src")))
    before = len(runs())
    # dbl is stored, so src's missing artifact must never be noticed.
    values = GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(
        ["dbl"]
    )
    assert values == {"dbl": 20}
    assert len(runs()) == before


def test_corrupt_artifact_recomputes_through_the_walk(env):
    store, runs = env
    GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(["sum"])
    path = store.path("add", _fp(store, "sum"))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    before = len(runs())

    with pytest.warns(RuntimeWarning, match="discarding corrupt artifact"):
        values = GraphRunner(
            _graph(), store=store, campaign_fingerprint=None
        ).run(["sum"])
    assert values == {"sum": 30}
    # Only the corrupted stage reran; its inputs were served from disk.
    assert runs()[before:] == ["add"]


def test_force_reruns_everything(env):
    store, runs = env
    GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(["sum"])
    before = len(runs())
    GraphRunner(
        _graph(), store=store, campaign_fingerprint=None, force=True
    ).run(["sum"])
    assert sorted(runs()[before:]) == ["add", "double", "source:10"]


def test_disabled_store_runs_everything_every_time(env, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")
    store, runs = env
    disabled = ArtifactStore(root=store.root)
    for _ in range(2):
        values = GraphRunner(
            _graph(), store=disabled, campaign_fingerprint=None
        ).run(["sum"])
        assert values == {"sum": 30}
    assert len(runs()) == 6
    assert all(p.status == "run" for p in _plan(disabled))


def test_unknown_target_rejected(env):
    store, _ = env
    runner = GraphRunner(_graph(), store=store, campaign_fingerprint=None)
    with pytest.raises(KeyError, match="unknown stage"):
        runner.run(["nope"])


def test_plan_rendering_shows_status_and_summary(env):
    store, _ = env
    runner = GraphRunner(_graph(), store=store, campaign_fingerprint=None)
    out = render_plan(runner.plan())
    assert "[miss]" in out
    assert "3 stages: 3 miss" in out

    runner.run(["sum"])
    out = render_plan(
        GraphRunner(_graph(), store=store, campaign_fingerprint=None).plan()
    )
    assert "[hit ]" in out
    assert "3 stages: 3 hit" in out


@pytest.mark.parametrize("workers", [1, 4])
def test_worker_count_never_changes_values(env, monkeypatch, workers):
    store, runs = env
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    values = GraphRunner(
        _graph(), store=store, campaign_fingerprint=None
    ).run(["sum", "dbl"])
    assert values == {"sum": 30, "dbl": 20}
    assert sorted(runs()) == ["add", "double", "source:10"]


def test_campaign_provider_only_called_when_needed(env):
    store, _ = env

    def provider():
        raise AssertionError("warm run materialised the campaign")

    g = _graph()
    GraphRunner(g, store=store, campaign_fingerprint="camp").run(["sum"])
    # Fully warm: the provider must never fire.
    values = GraphRunner(
        g, store=store, campaign_fingerprint="camp", campaign=provider
    ).run(["sum"])
    assert values == {"sum": 30}


def _fp(store, name):
    # Helper: recompute the graph's fingerprint table for path lookups.
    return _graph().fingerprints(None)[name]


def _plan(store):
    return GraphRunner(_graph(), store=store, campaign_fingerprint=None).plan()


def test_cell_qualified_counters(env):
    store, _ = env
    base_run = METRICS.counter("graph.stage.run").value
    cell_run = METRICS.counter("graph.stage.run[df+/valiant]").value
    GraphRunner(
        _graph(), store=store, campaign_fingerprint=None, cell="df+/valiant"
    ).run(["sum"])
    assert METRICS.counter("graph.stage.run").value == base_run + 3
    assert (
        METRICS.counter("graph.stage.run[df+/valiant]").value == cell_run + 3
    )

    # Warm: the target itself hits and stops the upstream walk.
    cell_hit = METRICS.counter("graph.stage.hit[df+/valiant]").value
    GraphRunner(
        _graph(), store=store, campaign_fingerprint=None, cell="df+/valiant"
    ).run(["sum"])
    assert (
        METRICS.counter("graph.stage.hit[df+/valiant]").value == cell_hit + 1
    )


def test_no_cell_counters_without_cell(env):
    store, _ = env
    before = {
        k: v for k, v in METRICS.snapshot().items() if "[" in k
    }
    GraphRunner(_graph(), store=store, campaign_fingerprint=None).run(["sum"])
    after = {k: v for k, v in METRICS.snapshot().items() if "[" in k}
    assert after == before
