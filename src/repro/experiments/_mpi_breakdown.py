"""Shared driver for the Fig. 4 / Fig. 5 MPI breakdowns."""

from __future__ import annotations

import numpy as np

from repro.campaign.datasets import RunDataset
from repro.experiments.report import ascii_table
from repro.graph import stage_fn


def mpi_breakdown(ds: RunDataset) -> dict:
    """Compute/MPI split and per-routine best/average/worst over runs.

    The paper's error bars span the fastest and slowest run of each code;
    here "best"/"worst" are the runs with the smallest/largest total MPI
    time.
    """
    if len(ds) == 0:
        raise ValueError(f"dataset {ds.key} is empty")
    mpi_totals = np.array([r.mpi_times.sum() for r in ds.runs])
    comp_totals = np.array([r.compute_times.sum() for r in ds.runs])
    best = int(np.argmin(mpi_totals))
    worst = int(np.argmax(mpi_totals))
    routines = sorted(ds.runs[0].routine_times)
    per_routine = {
        name: np.array([r.routine_times[name] for r in ds.runs])
        for name in routines
    }
    return {
        "key": ds.key,
        "compute": {
            "best": float(comp_totals[best]),
            "average": float(comp_totals.mean()),
            "worst": float(comp_totals[worst]),
        },
        "mpi": {
            "best": float(mpi_totals[best]),
            "average": float(mpi_totals.mean()),
            "worst": float(mpi_totals[worst]),
        },
        "mpi_fraction": float(mpi_totals.mean() / (mpi_totals + comp_totals).mean()),
        "routines": {
            name: {
                "best": float(v[best]),
                "average": float(v.mean()),
                "worst": float(v[worst]),
            }
            for name, v in per_routine.items()
        },
    }


def render_breakdown(stats: dict) -> str:
    rows = [
        [
            "Compute",
            f"{stats['compute']['best']:.1f}",
            f"{stats['compute']['average']:.1f}",
            f"{stats['compute']['worst']:.1f}",
        ],
        [
            "MPI",
            f"{stats['mpi']['best']:.1f}",
            f"{stats['mpi']['average']:.1f}",
            f"{stats['mpi']['worst']:.1f}",
        ],
    ]
    for name, v in sorted(
        stats["routines"].items(), key=lambda kv: -kv[1]["average"]
    ):
        rows.append(
            [
                f"  {name}",
                f"{v['best']:.1f}",
                f"{v['average']:.1f}",
                f"{v['worst']:.1f}",
            ]
        )
    table = ascii_table(["(seconds)", "Best", "Average", "Worst"], rows)
    return (
        f"{stats['key']}  (mean MPI fraction: {stats['mpi_fraction']:.0%})\n{table}"
    )


@stage_fn(version=1)
def render_mpi(ctx):
    from repro.experiments.report import ExperimentResult

    data = {}
    blocks = []
    for key in ctx.params["keys"]:
        stats = ctx.inputs[key]
        data[key] = stats
        blocks.append(render_breakdown(stats))
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title=ctx.params["title"],
        data=data,
        text="\n\n".join(blocks),
    )


def build_mpi(g, ctx, exp_id: str, title: str, keys: list[str]) -> str:
    """One ``mpi:<key>`` stage per dataset plus the figure's render."""
    from repro.experiments import stages

    camp_stage = stages.add_campaign_stage(g)
    inputs = []
    for key in keys:
        name = g.add(
            f"mpi:{key}",
            stages.mpi_stats,
            inputs=[("manifest", camp_stage)],
            dataset=key,
        )
        inputs.append((key, name))
    return g.add(
        f"render:{exp_id}",
        render_mpi,
        params={"exp_id": exp_id, "title": title, "keys": keys},
        inputs=inputs,
        kind="render",
        local=True,
    )
