"""Fig. 11: feature importances of the forecasting models.

Left: AMG 128/512 at (m=8, k=10) with app + placement features — stall
counters remain important, flit counters gain weight vs the deviation
analysis, PT_RB_STL_RS rises for AMG-512.

Right: MILC 128/512 at (m=30, k=40) with all 23 features — IO_PT_FLIT_TOT
(system-wide filesystem traffic towards I/O routers) carries the highest
relevance, dwarfing the job-local counters.

Stage graph: one trained ``forecaster:...`` stage per panel (shared with
Fig. 12 when the MILC cell coincides — one fit serves both figures) and
one ``importances:...`` stage consuming it.  Feature names and window
tensors both come from one FeatureSpec per panel inside the stage
bodies, so labels cannot drift from the matrix columns.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_bars
from repro.graph import Graph, stage_fn

#: (dataset, m, k, tier) per panel.
PANELS = [
    ("AMG-128", 8, 10, "app+placement"),
    ("AMG-512", 8, 10, "app+placement"),
    ("MILC-128", 30, 40, "app+placement+io+sys"),
    ("MILC-512", 30, 40, "app+placement+io+sys"),
]


@stage_fn(version=1)
def render(ctx):
    data = {}
    blocks = []
    for key, m, k, tier in ctx.params["panels"]:
        panel = ctx.inputs[key]
        names, imp = panel["names"], panel["importances"]
        data[key] = {"names": names, "importances": imp, "m": m, "k": k}
        top = names[int(np.argmax(imp))]
        blocks.append(
            f"{key} (m={m}, k={k}, {tier}; top: {top})\n"
            + ascii_bars(names, imp, fmt="{:.3f}")
        )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Forecasting-model feature importances (Fig. 11)",
        data=data,
        text="\n\n".join(blocks),
    )


def build(g: Graph, ctx, exp_id: str = "fig11") -> str:
    man = ctx.manifest
    model = stages.model_name(ctx.fast)
    panels = []
    inputs = []
    for key, m, k, tier in PANELS:
        if man["num_steps"].get(key, 0) <= m + k:
            continue
        fstage = stages.add_forecaster_stage(g, key, m, k, tier, model)
        pstage = g.add(
            f"importances:{key}:m{m}:k{k}:{tier}:{model}",
            stages.importance_panel,
            params={"m": m, "k": k, "tier": tier, "seed": 0},
            inputs=[("model", fstage)],
            dataset=key,
        )
        panels.append([key, m, k, tier])
        inputs.append((key, pstage))
    return g.add(
        f"render:{exp_id}",
        render,
        params={"exp_id": exp_id, "panels": panels},
        inputs=inputs,
        kind="render",
        local=True,
    )
