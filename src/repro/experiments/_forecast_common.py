"""Shared grid builder for the Fig. 8 / Fig. 10 forecasting ablations.

Each (dataset, m, k, tier) cell is one ``cell:...`` stage (the shared
:func:`repro.experiments.stages.forecast_cell` body), so the two grid
figures fan their cells out over the worker pool and memoize each cell
in the artifact store independently — changing one tier list re-runs
only the affected cells.  Window tensors are served by each dataset's
:class:`~repro.features.FeatureStore` inside the stage body, exactly as
the pre-DAG drivers built them.
"""

from __future__ import annotations

from repro.experiments import stages
from repro.experiments.report import ExperimentResult, ascii_table
from repro.graph import Graph, stage_fn
from repro.ml.attention import AttentionForecaster


def fast_forecaster(seed: int = 0) -> AttentionForecaster:
    return AttentionForecaster(
        d_model=12, hidden=24, epochs=60, batch_size=128, seed=seed
    )


def bench_forecaster(seed: int = 0) -> AttentionForecaster:
    return AttentionForecaster(
        d_model=24, hidden=48, epochs=140, batch_size=192, lr=3e-3, seed=seed
    )


@stage_fn(version=2)
def render_grid(ctx):
    p = ctx.params
    tiers = p["tiers"]
    n_splits = p["n_splits"]
    data: dict[str, list] = {}
    blocks = []
    for key, ms_ok, ks_ok in p["grid"]:
        results = [
            ctx.inputs[f"{key}:{m}:{k}:{tier}"]
            for k in ks_ok
            for m in ms_ok
            for tier in tiers
        ]
        data[key] = results
        rows = []
        for k in ks_ok:
            for m in ms_ok:
                cells = [r for r in results if r.m == m and r.k == k]
                rows.append(
                    [f"k={k}", f"m={m}"]
                    + [f"{r.mape:.2f}" for r in cells]
                )
        blocks.append(
            f"{key} (MAPE %, grouped {n_splits}-fold CV)\n"
            + ascii_table(["", ""] + tiers, rows)
        )
    return ExperimentResult(
        exp_id=p["exp_id"],
        title=p["title"],
        data={"grid": data, "summary": grid_summary(data)},
        text="\n\n".join(blocks),
    )


def build_grid(
    g: Graph,
    ctx,
    exp_id: str,
    title: str,
    keys: list[str],
    ms: list[int],
    ks: list[int],
    tiers: list[str],
) -> str:
    """Add one figure's grid-cell stages plus its render stage.

    Grids are clamped to each dataset's step count using the campaign
    manifest, mirroring the pre-DAG driver's per-dataset clamping; cells
    are seeded from their coordinates alone, so results are
    bit-identical for any worker count.  Two grouped folds keep the full
    2x2xTiers grids tractable.
    """
    man = ctx.manifest
    model = stages.model_name(ctx.fast)
    n_splits = 2
    camp_stage = stages.add_campaign_stage(g)
    grid_spec = []
    inputs = []
    for key in keys:
        t = man["num_steps"].get(key, 0)
        ms_ok = [m for m in ms if m + min(ks) < t]
        ks_ok = [k for k in ks if min(ms_ok, default=t) + k < t] if ms_ok else []
        if not ms_ok or not ks_ok:
            continue
        align = max(ms_ok)
        grid_spec.append([key, ms_ok, ks_ok])
        for k in ks_ok:
            for m in ms_ok:
                for tier in tiers:
                    name = g.add(
                        f"cell:{key}:m{m}:k{k}:a{align}:{tier}:{model}",
                        stages.forecast_cell,
                        params={
                            "m": m,
                            "k": k,
                            "tier": tier,
                            "align_m": align,
                            "n_splits": n_splits,
                            "seed": 0,
                            "model": model,
                        },
                        inputs=[("manifest", camp_stage)],
                        dataset=key,
                    )
                    inputs.append((f"{key}:{m}:{k}:{tier}", name))
    return g.add(
        f"render:{exp_id}",
        render_grid,
        params={
            "exp_id": exp_id,
            "title": title,
            "grid": grid_spec,
            "tiers": tiers,
            "n_splits": n_splits,
        },
        inputs=inputs,
        kind="render",
        local=True,
    )


def grid_summary(data: dict) -> dict:
    """Aggregate shape checks: does more context/horizon/features help?"""
    out = {}
    for key, results in data.items():
        by = {(r.m, r.k, r.tier): r.mape for r in results}
        ms = sorted({r.m for r in results})
        ks = sorted({r.k for r in results})
        tiers = [r.tier for r in results[: len(set(r.tier for r in results))]]
        out[key] = {
            "m_effect": _mean_delta(by, ms, ks, tiers, axis="m"),
            "k_effect": _mean_delta(by, ms, ks, tiers, axis="k"),
            "best_mape": min(r.mape for r in results),
        }
    return out


def _mean_delta(by, ms, ks, tiers, axis: str) -> float:
    """Mean MAPE(larger) - MAPE(smaller) along one axis (negative = helps)."""
    import numpy as np

    deltas = []
    # Iterate the grid's own tier order: a set of strings iterates in a
    # per-process hash order, and the mean would add the deltas in it.
    for tier in tiers:
        for m in ms:
            for k in ks:
                if axis == "m" and len(ms) > 1:
                    lo, hi = (ms[0], k, tier), (ms[-1], k, tier)
                elif axis == "k" and len(ks) > 1:
                    lo, hi = (m, ks[0], tier), (m, ks[-1], tier)
                else:
                    continue
                if lo in by and hi in by:
                    deltas.append(by[hi] - by[lo])
    return float(np.mean(deltas)) if deltas else 0.0
