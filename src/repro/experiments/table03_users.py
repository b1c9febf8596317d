"""Table III: users highly correlated with (non-)optimality per dataset.

The reproduction additionally scores itself against the campaign's
ground-truth aggressors (which the analysis never sees).  Stage graph:
one ``mi:<key>`` stage per dataset (the shared
:func:`repro.experiments.stages.mi_neighborhood` body) fanned out over
the worker pool, and a render stage doing the cross-dataset merge — the
table is identical for any worker count.
"""

from __future__ import annotations

from repro.analysis.neighborhood import merge_user_lists, recovery_rate
from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_table
from repro.graph import Graph, stage_fn


@stage_fn(version=1)
def render(ctx):
    keys = ctx.params["keys"]
    per_dataset = {key: ctx.inputs[key] for key in keys}
    table = merge_user_lists(per_dataset, min_lists=ctx.params["min_lists"])
    rows = []
    for key, users in table.items():
        app, nodes = key.rsplit("-", 1)
        pretty = ", ".join(u.replace("User-", "") for u in users)
        rows.append([app, nodes, f"User-[{pretty}]"])
    rate = recovery_rate(table, ctx.params["ground_truth"])
    counts: dict[str, int] = {}
    for users in table.values():
        for u in users:
            counts[u] = counts.get(u, 0) + 1
    multi = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    text = (
        ascii_table(["Application", "No. of nodes", "Highly correlated users"], rows)
        + "\n\nUsers in most lists: "
        + ", ".join(f"{u} ({c})" for u, c in multi[:6])
        + f"\nGround-truth aggressor recovery rate: {rate:.0%}"
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Highly correlated users per dataset (Table III)",
        data={"table": table, "recovery_rate": rate, "list_counts": counts},
        text=text,
    )


def build(g: Graph, ctx, exp_id: str = "table03") -> str:
    man = ctx.manifest
    keys = [k for k in man["keys"] if "-long" not in k]
    camp_stage = stages.add_campaign_stage(g)
    inputs = []
    for key in keys:
        name = g.add(
            f"mi:{key}",
            stages.mi_neighborhood,
            params={"top_k": 9, "tau": 1.0},
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
            "min_lists": 2,
            "ground_truth": list(man["ground_truth_aggressors"]),
        },
        inputs=inputs,
        kind="render",
        local=True,
    )
