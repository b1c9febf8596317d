"""Fig. 9: RFE relevance scores of each counter per dataset.

Shape targets (paper §V-B):

* RT_RB_STL highly relevant for both MILC datasets and AMG-512;
* PT_RB_STL_RQ / PT_RB_2X_USG relevant for AMG (endpoint congestion);
* PT_RB_STL_RQ the most significant counter for UMT;
* flit counters (PT_FLIT_VC0, RT_FLIT_TOT) most important for miniVite;
* prediction MAPE < 5% for every dataset.

Stage graph: one ``rfe:<key>`` stage per qualifying dataset (the shared
:func:`repro.experiments.stages.rfe_ranking` body — Table III and the
importance panels reuse nothing here, but the per-dataset rankings are
memoized in the artifact store so a warm rerun loads instead of
recomputing), plus the render stage assembling the heatmap and MAPE
table.  Datasets are independent stages, so they fan out over the
shared worker pool; inside a pool worker the nested RFE fold fan-out
degrades to serial automatically, so there is exactly one level of
processes.
"""

from __future__ import annotations

import numpy as np

from repro.apps.registry import DATASET_KEYS
from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_heatmap, ascii_table
from repro.graph import Graph, stage_fn
from repro.network.counters import APP_COUNTERS


@stage_fn(version=1)
def render(ctx):
    keys = ctx.params["keys"]
    matrix = []
    mape_rows = []
    results = {}
    for key in keys:
        res = ctx.inputs[key]
        results[key] = res
        matrix.append(res.relevance.scores)
        mape_rows.append(
            [key, f"{res.prediction_mape:.2f}%", ", ".join(res.top_counters(3))]
        )
    matrix = np.asarray(matrix)
    text = (
        ascii_heatmap(keys, APP_COUNTERS, matrix)
        + "\n\n"
        + ascii_table(["Dataset", "Prediction MAPE", "Top counters"], mape_rows)
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Counter relevance for deviation prediction (Fig. 9)",
        data={
            "keys": keys,
            "counters": APP_COUNTERS,
            "scores": matrix,
            "mape": {k: results[k].prediction_mape for k in keys},
            "top": {k: results[k].top_counters(4) for k in keys},
        },
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "fig09") -> str:
    man = ctx.manifest
    keys = [k for k in DATASET_KEYS if k in man["keys"] and man["runs"][k] >= 4]
    n_splits = 4 if ctx.fast else 10
    max_samples = 600 if ctx.fast else 2500
    camp_stage = stages.add_campaign_stage(g)
    inputs = []
    for key in keys:
        name = g.add(
            f"rfe:{key}",
            stages.rfe_ranking,
            params={
                "n_splits": min(n_splits, man["runs"][key]),
                "max_samples": max_samples,
            },
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
