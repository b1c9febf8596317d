"""Table II: the network hardware performance counters of the study."""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, ascii_table
from repro.graph import Graph, stage_fn
from repro.network.counters import COUNTER_SPECS


@stage_fn(version=1)
def render(ctx):
    rows = [
        [s.name, s.abbreviation, s.description]
        for s in COUNTER_SPECS
    ]
    text = ascii_table(["Counter name", "Abbreviation", "Description"], rows)
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Network hardware performance counters (Table II)",
        data={"rows": rows},
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "table02") -> str:
    return g.add(
        f"render:{exp_id}",
        render,
        params={"exp_id": exp_id},
        kind="render",
        local=True,
    )
