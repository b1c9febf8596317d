"""Fig. 1: relative performance of the four 128-node apps over the campaign.

The paper plots each run's total time divided by the best observed run of
the same application, against the calendar date — up to ~3x for MILC/
miniVite/UMT.  We report the same series plus summary statistics.

One ``series:<key>`` stage per dataset (the shared
:func:`repro.experiments.stages.relative_series` body) plus the render.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.datasets import seconds_to_date
from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_series, ascii_table
from repro.graph import Graph, stage_fn

APPS = ["AMG-128", "MILC-128", "miniVite-128", "UMT-128"]


@stage_fn(version=1)
def render(ctx):
    runs = ctx.params["runs"]
    series: dict[str, dict[str, np.ndarray]] = {}
    rows = []
    blocks = []
    for key in ctx.params["keys"]:
        s = ctx.inputs[key]
        t, rel = s["time"], s["relative"]
        series[key] = s
        rows.append(
            [
                key,
                runs[key],
                f"{rel.max():.2f}x",
                f"{np.median(rel):.2f}x",
                seconds_to_date(t[int(np.argmax(rel))]).strftime("%b %d"),
            ]
        )
        blocks.append(ascii_series(t, rel, label=f"{key} relative performance"))
    text = (
        ascii_table(
            ["Dataset", "Runs", "Worst/best", "Median", "Worst run date"], rows
        )
        + "\n\n"
        + "\n\n".join(blocks)
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Relative performance vs best run over the campaign (Fig. 1)",
        data={"series": series, "rows": rows},
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "fig01") -> str:
    man = ctx.manifest
    keys = [k for k in APPS if man["runs"].get(k, 0) >= 2]
    camp_stage = stages.add_campaign_stage(g)
    inputs = []
    for key in keys:
        name = g.add(
            f"series:{key}",
            stages.relative_series,
            inputs=[("manifest", camp_stage)],
            dataset=key,
        )
        inputs.append((key, name))
    return g.add(
        f"render:{exp_id}",
        render,
        params={
            "exp_id": exp_id,
            "keys": keys,
            "runs": {k: man["runs"][k] for k in keys},
        },
        inputs=inputs,
        kind="render",
        local=True,
    )
