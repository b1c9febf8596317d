"""Fig. 3: mean time-per-step behaviour of each application across runs.

Shape targets: AMG 128 faster than 512 with similar trends; MILC's first
20 warmup steps much faster than the next 60; miniVite ~6 long steps; UMT
7 steps with a mild ramp.

One ``mean_trends:<key>`` stage per dataset, shared with Fig. 7's
AMG-128 panel.
"""

from __future__ import annotations

import numpy as np

from repro.apps.registry import DATASET_KEYS
from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_series, ascii_table
from repro.graph import Graph, stage_fn


@stage_fn(version=1)
def render(ctx):
    trends: dict[str, np.ndarray] = {}
    rows = []
    blocks = []
    for key in ctx.params["keys"]:
        ym = ctx.inputs[key]["ym"]
        trends[key] = ym
        rows.append(
            [
                key,
                len(ym),
                f"{ym.mean():.2f}",
                f"{ym.min():.2f}",
                f"{ym.max():.2f}",
            ]
        )
        blocks.append(
            ascii_series(np.arange(len(ym)), ym, label=f"{key} mean time/step (s)")
        )
    text = (
        ascii_table(["Dataset", "Steps", "Mean (s)", "Min (s)", "Max (s)"], rows)
        + "\n\n"
        + "\n\n".join(blocks)
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Mean time-per-step behaviour (Fig. 3)",
        data={"trends": trends},
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "fig03") -> str:
    man = ctx.manifest
    keys = [k for k in DATASET_KEYS if man["runs"].get(k, 0) > 0]
    camp_stage = stages.add_campaign_stage(g)
    inputs = []
    for key in keys:
        name = g.add(
            f"mean_trends:{key}",
            stages.mean_trends,
            inputs=[("manifest", camp_stage)],
            dataset=key,
        )
        inputs.append((key, name))
    return g.add(
        f"render:{exp_id}",
        render,
        params={"exp_id": exp_id, "keys": keys},
        inputs=inputs,
        kind="render",
        local=True,
    )
