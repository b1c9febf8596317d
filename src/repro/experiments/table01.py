"""Table I: application versions and their inputs."""

from __future__ import annotations

from repro.apps.registry import DATASET_KEYS, get_application
from repro.experiments.report import ExperimentResult, ascii_table
from repro.graph import Graph, stage_fn


@stage_fn(version=1)
def render(ctx):
    rows = []
    for key in DATASET_KEYS:
        app = get_application(key)
        name, version, nodes, params = app.table1_row()
        rows.append([name, version, nodes, params])
    text = ascii_table(
        ["Application", "Version", "No. of Nodes", "Input Parameters"], rows
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Application versions and their inputs (Table I)",
        data={"rows": rows},
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "table01") -> str:
    return g.add(
        f"render:{exp_id}",
        render,
        params={"exp_id": exp_id},
        kind="render",
        local=True,
    )
