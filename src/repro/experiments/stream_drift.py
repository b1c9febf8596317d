"""Rolling-retrain drift experiment over a streamed campaign.

The memoized, shard-addressed twin of :func:`repro.ml.drift.rolling_drift`:
for every dataset key present in all windows, one forecaster is trained
per (window, seed) shard, every window ``w >= 1`` is scored against the
model retrained on window ``w - 1`` (**fresh**) and the model trained
once on window 0 (**stale**), and the per-window MAPE trajectories are
reduced into :class:`~repro.ml.drift.DriftReport` tables.

Stage addressing is the whole point:

* ``sd-train`` / ``sd-eval`` stages are **shard-scoped** — their
  fingerprints carry the shard's content fingerprint instead of the
  stream fingerprint (see :class:`repro.graph.Stage`), so appending a
  window re-keys *nothing* in the existing windows;
* a forecaster is trained on **every** window, including the newest —
  that is what window ``N``'s fresh evaluation finds already stored when
  window ``N + 1`` arrives;
* the ``sd-drift`` / ``sd-render`` reduces are pure functions of their
  inputs — the only stages an append legitimately re-runs besides the
  fresh window's own cone.  :func:`incremental_violations` checks exactly
  that contract against a resolved plan (the CI ``stream-append`` job
  and ``--check-incremental`` both call it).
"""

from __future__ import annotations

from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_table
from repro.graph import Graph, GraphRunner, StagePlan, stage_fn
from repro.obs import ensure_run, span

#: Drift-grid coordinates per scale: (m, k, tier, seeds, model).
_FAST = {"m": 3, "k": 2, "tier": "app", "seeds": (0, 1), "model": "fast"}
_FULL = {"m": 8, "k": 5, "tier": "app", "seeds": (0, 1, 2), "model": "bench"}


def drift_params(fast: bool) -> dict:
    return dict(_FAST if fast else _FULL)


# --------------------------------------------------------------------------- #
# Stage bodies (top-level: pool workers resolve them by import path).
# --------------------------------------------------------------------------- #


@stage_fn(version=1)
def shard_forecaster(ctx):
    """One forecaster trained on one (window, seed) shard."""
    from repro.analysis.forecasting import fit_forecaster
    from repro.campaign.streaming import shard_view

    p = ctx.params
    return fit_forecaster(
        shard_view(ctx.ds, p["window"]),
        p["m"],
        p["k"],
        p["tier"],
        seed=p["seed"],
        model_factory=stages.model_factory(p["model"]),
    )


@stage_fn(version=1)
def shard_drift_eval(ctx):
    """Fresh-vs-stale MAPEs of one evaluation window, per seed."""
    from repro.campaign.streaming import shard_view
    from repro.ml.drift import score_on_shard

    p = ctx.params
    shard = shard_view(ctx.ds, p["window"])
    m, k, tier = p["m"], p["k"], p["tier"]
    return {
        "window": p["window"],
        "runs": len(shard),
        "fresh": [
            score_on_shard(ctx.inputs[f"fresh{s}"], shard, m, k, tier)
            for s in p["seeds"]
        ],
        "stale": [
            score_on_shard(ctx.inputs[f"stale{s}"], shard, m, k, tier)
            for s in p["seeds"]
        ],
    }


@stage_fn(version=1)
def drift_reduce(ctx):
    """Per-window evals -> one key's :class:`~repro.ml.drift.DriftReport`."""
    from repro.ml.drift import drift_report

    p = ctx.params
    return drift_report(
        p["key"], p["m"], p["k"], p["tier"], tuple(p["seeds"]),
        list(ctx.inputs.values()),
    )


@stage_fn(version=1)
def stream_drift_render(ctx):
    p = ctx.params
    reports = {key: ctx.inputs[key] for key in p["keys"]}
    blocks = []
    for key, rep in reports.items():
        table = ascii_table(
            ["window", "runs", "fresh MAPE", "stale MAPE", "drift"],
            rep.rows(),
        )
        blocks.append(
            f"{key} (m={rep.m}, k={rep.k}, tier={rep.tier}, "
            f"{len(rep.seeds)} seeds; fresh = retrained on previous "
            f"window, stale = window-0 model)\n{table}"
        )
    return ExperimentResult(
        exp_id="stream-drift",
        title=f"Rolling-retrain drift over {p['windows']} windows",
        data={
            "reports": reports,
            "mean_drift": {k: r.mean_drift for k, r in reports.items()},
        },
        text="\n\n".join(blocks) if blocks else "single window: no drift to evaluate",
    )


# --------------------------------------------------------------------------- #
# Graph builder and drivers.
# --------------------------------------------------------------------------- #


def stream_keys(campaign, keys: "list[str] | None" = None) -> list[str]:
    """The dataset keys spanning every window of a streamed campaign."""
    man = getattr(campaign, "stream", None)
    if man is None:
        raise ValueError(
            "stream drift needs a streamed campaign "
            "(repro.campaign.streaming.run_stream)"
        )
    common = [
        k
        for k in campaign.keys()
        if all(k in w["shards"] for w in man.windows)
    ]
    if keys is None:
        return common
    missing = [k for k in keys if k not in common]
    if missing:
        raise ValueError(
            f"keys {missing} do not span every stream window "
            f"(candidates: {common})"
        )
    return list(keys)


def build_stream_drift(
    g: Graph, campaign, keys: "list[str] | None" = None, fast: bool = False
) -> str:
    """Add the drift stages for a streamed campaign; returns the render."""
    man = campaign.stream
    keys = stream_keys(campaign, keys)
    p = drift_params(fast)
    m, k, tier = p["m"], p["k"], p["tier"]
    seeds, model = p["seeds"], p["model"]
    windows = len(man.windows)
    report_inputs = []
    for key in keys:
        for w in range(windows):
            for s in seeds:
                g.add(
                    f"sd-train:{key}:w{w}:s{s}",
                    shard_forecaster,
                    params={
                        "m": m, "k": k, "tier": tier, "seed": s,
                        "model": model, "window": w,
                    },
                    dataset=key,
                    shard=man.shard(key, w),
                )
        evals = []
        for w in range(1, windows):
            evals.append(
                g.add(
                    f"sd-eval:{key}:w{w}",
                    shard_drift_eval,
                    params={
                        "m": m, "k": k, "tier": tier,
                        "seeds": seeds, "window": w,
                    },
                    inputs=[
                        (f"fresh{s}", f"sd-train:{key}:w{w - 1}:s{s}")
                        for s in seeds
                    ]
                    + [(f"stale{s}", f"sd-train:{key}:w0:s{s}") for s in seeds],
                    dataset=key,
                    shard=man.shard(key, w),
                )
            )
        report_inputs.append(
            (
                key,
                g.add(
                    f"sd-drift:{key}",
                    drift_reduce,
                    params={
                        "key": key, "m": m, "k": k,
                        "tier": tier, "seeds": seeds,
                    },
                    inputs=[(f"w{w + 1}", name) for w, name in enumerate(evals)],
                ),
            )
        )
    return g.add(
        "sd-render",
        stream_drift_render,
        params={"keys": keys, "windows": windows},
        inputs=report_inputs,
        kind="render",
        local=True,
    )


def _make_runner(
    campaign,
    keys: "list[str] | None",
    fast: bool,
    force: bool,
) -> tuple[GraphRunner, list[str]]:
    from repro.experiments.context import ExperimentContext

    ctx = ExperimentContext(campaign=campaign, fast=fast)
    g = Graph()
    render = build_stream_drift(g, campaign, keys=keys, fast=ctx.fast)
    # The newest window's forecasters are nobody's input yet — they are
    # what the *next* append's fresh evaluation will consume — so they
    # are explicit targets: trained now, stored now, hit later.
    last = len(campaign.stream.windows) - 1
    targets = [render] + [
        name for name in g.stages if f":w{last}:" in name
    ]
    runner = GraphRunner(
        g,
        store=ctx.store,
        campaign_fingerprint=ctx.campaign_fingerprint,
        campaign=lambda: campaign,
        force=force,
    )
    return runner, targets


def stream_drift(
    campaign,
    keys: "list[str] | None" = None,
    fast: bool = False,
    force: bool = False,
) -> ExperimentResult:
    """Run the drift experiment over a streamed campaign."""
    ensure_run()
    runner, targets = _make_runner(campaign, keys, fast, force)
    with span("experiment.stream-drift", windows=len(campaign.stream.windows)):
        return runner.run(targets)[targets[0]]


def plan_stream_drift(
    campaign,
    keys: "list[str] | None" = None,
    fast: bool = False,
    force: bool = False,
) -> list[StagePlan]:
    """Resolve the drift DAG read-only (``--explain`` / append checks)."""
    runner, _ = _make_runner(campaign, keys, fast, force)
    return runner.plan()


def fresh_shard_fingerprints(campaign) -> set[str]:
    """Shard fingerprints of the stream's newest window."""
    man = campaign.stream
    last = man.windows[-1]
    return {s["fingerprint"] for s in last["shards"].values()}


def incremental_violations(
    plans: "list[StagePlan]", fresh: set[str]
) -> list[str]:
    """Misses a warm append must not contain.

    After appending one window to a previously-materialised stream, the
    only legitimate cold work is (a) stages scoped entirely to the fresh
    window's shards and (b) pure reduces over stage inputs.  Anything
    else — a stale-shard recompute, or a dataset-bound stage with no
    shard address at all — is a full-dataset recompute the streaming
    refactor exists to prevent.
    """
    bad = []
    for p in plans:
        if p.status not in ("miss", "force"):
            continue
        st = p.stage
        if st.shard:
            if set(st.shard) <= fresh:
                continue
            bad.append(
                f"stale-shard recompute: {st.name} "
                f"(shard {','.join(st.shard)})"
            )
        elif st.dataset is not None:
            bad.append(
                f"full-dataset recompute: {st.name} (dataset {st.dataset})"
            )
        # pure reduces are legitimate.
    return bad
