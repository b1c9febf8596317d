"""Fig. 7: mean counter trends track the mean time-per-step trend (AMG).

The paper shows AMG's mean time/step alongside the mean RT_FLIT_TOT and
RT_RB_STL trends over all runs — the motivation for modelling *deviation*
rather than absolute time (§V-B).  We report the per-counter Pearson
correlation between the mean counter trend and the mean time trend.

The dataset is an experiment parameter: ``fig07`` analyses AMG-128 (the
paper's panel) and ``fig07:<dataset>`` (e.g. ``fig07:MILC-512``) any
other dataset, through the registry and CLI alike.  The underlying
``mean_trends:<key>`` stage is shared with Fig. 3.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_series, ascii_table
from repro.graph import Graph, stage_fn
from repro.network.counters import APP_COUNTERS

#: ``fig07:<value>`` parameterizes this experiment's dataset key.
PARAM = "key"


@stage_fn(version=1)
def render(ctx):
    key = ctx.params["key"]
    trends = ctx.inputs["trends"]
    xm, ym = trends["xm"], trends["ym"]
    rows = []
    corr = {}
    for i, name in enumerate(APP_COUNTERS):
        c = xm[:, i]
        if c.std() > 0 and ym.std() > 0:
            r = float(np.corrcoef(c, ym)[0, 1])
        else:
            r = 0.0
        corr[name] = r
        rows.append([name, f"{r:+.2f}", f"{c.mean():.3g}"])
    steps = np.arange(len(ym))
    blocks = [
        ascii_series(steps, ym, label=f"{key} mean time/step (s)"),
        ascii_series(
            steps,
            xm[:, APP_COUNTERS.index("RT_FLIT_TOT")],
            label="mean RT_FLIT_TOT per step",
        ),
        ascii_series(
            steps,
            xm[:, APP_COUNTERS.index("RT_RB_STL")],
            label="mean RT_RB_STL per step",
        ),
    ]
    text = (
        ascii_table(["Counter", "corr(mean trend, mean time)", "mean value"], rows)
        + "\n\n"
        + "\n\n".join(blocks)
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title=f"Mean counter trends vs mean time trend, {key} (Fig. 7)",
        data={"correlations": corr, "time_trend": ym, "counter_trends": xm},
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "fig07", key: str = "AMG-128") -> str:
    man = ctx.manifest
    if key not in man["keys"]:
        raise KeyError(
            f"unknown dataset {key!r} for fig07; campaign has {man['keys']}"
        )
    camp_stage = stages.add_campaign_stage(g)
    tstage = g.add(
        f"mean_trends:{key}",
        stages.mean_trends,
        inputs=[("manifest", camp_stage)],
        dataset=key,
    )
    return g.add(
        f"render:{exp_id}",
        render,
        params={"exp_id": exp_id, "key": key},
        inputs=[("trends", tstage)],
        kind="render",
        local=True,
    )
