"""Fig. 12: forecasting a long-running MILC job in 40-step segments.

The paper ran MILC @128 for 620 steps (~1h45m), divided it into 40-step
segments, and predicted each segment's time from the preceding 30 steps
using a model trained only on the regular (80-step) dataset.  Shape
target: predictions track the observed segment times through the run's
variability, with occasional biased segments (irreducible uncertainty).

Stage graph: the trained ``forecaster:MILC-128:...`` stage (shared with
Fig. 11's MILC panel when the paper-scale (m=30, k=40) cell applies — a
combined fig11+fig12 run fits it once) feeding the ``longrun:...``
segment-forecast stage.
"""

from __future__ import annotations

from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_series, ascii_table
from repro.graph import Graph, stage_fn


@stage_fn(version=1)
def render(ctx):
    p = ctx.params
    res = ctx.inputs["res"]
    lkey, t, m, k = p["lkey"], p["t"], p["m"], p["k"]
    rows = [
        [int(s), f"{o:.1f}", f"{p_:.1f}", f"{100 * abs(o - p_) / o:.1f}%"]
        for s, o, p_ in zip(res.segment_starts, res.observed, res.predicted)
    ]
    mid = res.segment_starts + k / 2
    text = (
        f"long run: {lkey} ({t} steps), segments of k={k}, context m={m}\n"
        + ascii_table(["Segment start", "Observed (s)", "Predicted (s)", "APE"], rows)
        + f"\n\nSegment MAPE: {res.mape:.2f}%\n\n"
        + ascii_series(mid, res.observed, label="observed time per segment (s)")
        + "\n"
        + ascii_series(mid, res.predicted, label="predicted time per segment (s)")
    )
    return ExperimentResult(
        exp_id=p["exp_id"],
        title="Forecasting 40-step segments of a 620-step MILC run (Fig. 12)",
        data={
            "segment_starts": res.segment_starts,
            "observed": res.observed,
            "predicted": res.predicted,
            "mape": res.mape,
            "m": m,
            "k": k,
        },
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "fig12") -> str:
    man = ctx.manifest
    lkey = next(
        (key for key in man["keys"] if key.startswith("MILC-128-long")), None
    )
    if lkey is None:
        raise RuntimeError("campaign has no long MILC run")
    t = man["num_steps"][lkey]
    train_steps = man["num_steps"]["MILC-128"]
    # The paper's m=30 / k=40; clamp for the tiny campaign's shorter run.
    k = 40 if t >= 200 else max(10, t // 8)
    m = 30 if train_steps > 30 + k else max(5, train_steps - k - 1)
    tier = "app+placement+io+sys"
    model = stages.model_name(ctx.fast)
    fstage = stages.add_forecaster_stage(g, "MILC-128", m, k, tier, model)
    lstage = g.add(
        f"longrun:{lkey}:m{m}:k{k}:{tier}:{model}",
        stages.longrun_segments,
        params={"m": m, "k": k, "tier": tier, "train_key": "MILC-128"},
        inputs=[("model", fstage)],
        dataset=lkey,
    )
    return g.add(
        f"render:{exp_id}",
        render,
        params={"exp_id": exp_id, "lkey": lkey, "t": t, "m": m, "k": k},
        inputs=[("res", lstage)],
        kind="render",
        local=True,
    )
