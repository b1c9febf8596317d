"""Frozen pre-DAG experiment drivers, used as the golden reference.

These are verbatim copies of the ``run(campaign, fast)`` bodies the
experiment modules had before the stage-graph refactor (with
``forecast_grid`` inlined, since the refactor replaced it).  They pin
the byte-identity acceptance criterion: the DAG runners must reproduce
these payloads exactly, cold or warm, at any worker count.  Do not
"modernise" this module — its value is that it does not change.

The three helpers above the drivers (``ablation_grid``,
``forecasting_feature_importances``, ``run_breakdowns``) have no caller
but these drivers; they moved here from ``repro`` with their bodies
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.deviation import deviation_analysis
from repro.analysis.forecasting import (
    ForecastResult,
    _score_windows,
    default_forecaster,
    fit_forecaster,
    long_run_forecast,
    model_importances,
)
from repro.analysis.neighborhood import correlated_users_table, recovery_rate
from repro.apps.registry import DATASET_KEYS, get_application
from repro.campaign.datasets import Campaign, RunDataset, seconds_to_date
from repro.experiments._forecast_common import (
    bench_forecaster,
    fast_forecaster,
    grid_summary,
)
from repro.experiments._mpi_breakdown import mpi_breakdown, render_breakdown
from repro.experiments.context import get_campaign, long_run_key
from repro.experiments.report import (
    ExperimentResult,
    ascii_bars,
    ascii_heatmap,
    ascii_series,
    ascii_table,
)
from repro.features import FeatureSpec, get_store
from repro.network.counters import APP_COUNTERS, COUNTER_SPECS
from repro.obs import span
from repro.parallel import effective_workers, parallel_map


def ablation_grid(
    ds: RunDataset,
    ms: list[int],
    ks: list[int],
    tiers: "list[str | FeatureSpec]",
    n_splits: int = 3,
    seed: int = 0,
    model_factory=default_forecaster,
) -> list[ForecastResult]:
    """The full Fig. 8 / Fig. 10 grid for one dataset.

    Context lengths are aligned (``align_m = max(ms)``) so every cell
    predicts the same instants from the same number of samples.

    The (m, k, tier) cells are independent and fan out over
    :mod:`repro.parallel` when ``REPRO_WORKERS`` asks for it.  Window tensors are built here in the parent — sequentially,
    against the dataset's memoized FeatureStore — and each cell seeds its
    models from the cell coordinates alone, so results are bit-identical
    for any worker count and arrive in grid order.  ``model_factory``
    must be picklable (a module-level callable) on more than one worker.
    """
    align = max(ms)
    specs = [FeatureSpec.resolve(t) for t in tiers]
    store = get_store(ds)
    tasks = []
    for k in ks:
        for m in ms:
            for spec in specs:
                x, y, groups = store.windows(spec, m, k, align_m=align)
                tasks.append(
                    (ds.key, m, k, spec.name, x, y, groups, n_splits, seed,
                     model_factory)
                )
    with span(
        "analysis.ablation_grid",
        dataset=ds.key,
        cells=len(tasks),
        workers=effective_workers(),
    ):
        return parallel_map(_score_windows, tasks)


def forecasting_feature_importances(
    ds: RunDataset,
    m: int,
    k: int,
    tier: "str | FeatureSpec",
    seed: int = 0,
    model_factory=default_forecaster,
) -> tuple[list[str], np.ndarray]:
    """Fig. 11: permutation importances of the forecasting model.

    Trained on all runs; importances are MAPE degradation when one feature
    channel is shuffled (normalised to sum to 1).
    """
    model = fit_forecaster(ds, m, k, tier, seed=seed, model_factory=model_factory)
    return model_importances(model, ds, m, k, tier, seed=seed)


def run_breakdowns(camp: Campaign, keys: list[str]) -> tuple[dict, str]:
    data = {}
    blocks = []
    for key in keys:
        stats = mpi_breakdown(camp[key])
        data[key] = stats
        blocks.append(render_breakdown(stats))
    return data, "\n\n".join(blocks)


def run_table01(campaign=None, fast: bool = False) -> ExperimentResult:
    rows = []
    for key in DATASET_KEYS:
        app = get_application(key)
        name, version, nodes, params = app.table1_row()
        rows.append([name, version, nodes, params])
    text = ascii_table(
        ["Application", "Version", "No. of Nodes", "Input Parameters"], rows
    )
    return ExperimentResult(
        exp_id="table01",
        title="Application versions and their inputs (Table I)",
        data={"rows": rows},
        text=text,
    )


def run_table02(campaign=None, fast: bool = False) -> ExperimentResult:
    rows = [
        [s.name, s.abbreviation, s.description]
        for s in COUNTER_SPECS
    ]
    text = ascii_table(["Counter name", "Abbreviation", "Description"], rows)
    return ExperimentResult(
        exp_id="table02",
        title="Network hardware performance counters (Table II)",
        data={"rows": rows},
        text=text,
    )


def run_table03(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    table = correlated_users_table(camp)
    rows = []
    for key, users in table.items():
        app, nodes = key.rsplit("-", 1)
        pretty = ", ".join(u.replace("User-", "") for u in users)
        rows.append([app, nodes, f"User-[{pretty}]"])
    rate = recovery_rate(table, camp.ground_truth_aggressors)
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
        exp_id="table03",
        title="Highly correlated users per dataset (Table III)",
        data={"table": table, "recovery_rate": rate, "list_counts": counts},
        text=text,
    )


def run_fig01(campaign=None, fast: bool = False) -> ExperimentResult:
    apps = ["AMG-128", "MILC-128", "miniVite-128", "UMT-128"]
    camp = get_campaign(campaign, fast)
    series: dict[str, dict[str, np.ndarray]] = {}
    rows = []
    blocks = []
    for key in apps:
        ds = camp[key]
        if len(ds) < 2:
            continue
        order = np.argsort(ds.start_times)
        t = ds.start_times[order]
        rel = ds.relative_performance()[order]
        series[key] = {"time": t, "relative": rel}
        rows.append(
            [
                key,
                len(ds),
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
        exp_id="fig01",
        title="Relative performance vs best run over the campaign (Fig. 1)",
        data={"series": series, "rows": rows},
        text=text,
    )


def run_fig03(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    trends: dict[str, np.ndarray] = {}
    rows = []
    blocks = []
    for key in DATASET_KEYS:
        ds = camp[key]
        if len(ds) == 0:
            continue
        _, ym = ds.mean_trends()
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
        exp_id="fig03",
        title="Mean time-per-step behaviour (Fig. 3)",
        data={"trends": trends},
        text=text,
    )


def run_fig04(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    data, text = run_breakdowns(camp, ["AMG-512", "MILC-512"])
    return ExperimentResult(
        exp_id="fig04",
        title="Compute/MPI split and routine breakdown, AMG & MILC @512 (Fig. 4)",
        data=data,
        text=text,
    )


def run_fig05(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    data, text = run_breakdowns(camp, ["miniVite-128", "UMT-128"])
    return ExperimentResult(
        exp_id="fig05",
        title="Compute/MPI split and routine breakdown, miniVite & UMT @128 (Fig. 5)",
        data=data,
        text=text,
    )


def run_fig07(campaign=None, fast: bool = False, key: str = "AMG-128") -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    ds = camp[key]
    xm, ym = ds.mean_trends()
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
        exp_id="fig07",
        title=f"Mean counter trends vs mean time trend, {key} (Fig. 7)",
        data={"correlations": corr, "time_trend": ym, "counter_trends": xm},
        text=text,
    )


def _dataset_relevance(ds, n_splits: int, max_samples: int):
    return deviation_analysis(ds, n_splits=n_splits, max_samples=max_samples)


def run_fig09(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    keys = [k for k in DATASET_KEYS if k in camp.keys() and len(camp[k]) >= 4]
    n_splits = 4 if fast else 10
    max_samples = 600 if fast else 2500
    tasks = [
        (camp[key], min(n_splits, len(camp[key])), max_samples) for key in keys
    ]
    analyses = parallel_map(_dataset_relevance, tasks)
    matrix = []
    mape_rows = []
    results = {}
    for key, res in zip(keys, analyses):
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
        exp_id="fig09",
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


def _forecast_grid(camp, keys, ms, ks, tiers, fast):
    factory = fast_forecaster if fast else bench_forecaster
    n_splits = 2
    tier_specs = [FeatureSpec.resolve(t) for t in tiers]
    data: dict[str, list] = {}
    blocks = []
    for key in keys:
        ds = camp[key]
        t = ds.num_steps
        ms_ok = [m for m in ms if m + min(ks) < t]
        ks_ok = [k for k in ks if min(ms_ok, default=t) + k < t] if ms_ok else []
        if not ms_ok or not ks_ok:
            continue
        results = ablation_grid(
            ds,
            ms_ok,
            ks_ok,
            tier_specs,
            n_splits=n_splits,
            model_factory=factory,
        )
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
    return data, "\n\n".join(blocks)


def run_fig08(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    data, text = _forecast_grid(
        camp,
        keys=["AMG-128", "AMG-512"],
        ms=[3, 8],
        ks=[5, 10],
        tiers=["app", "app+placement"],
        fast=fast,
    )
    summary = grid_summary(data)
    return ExperimentResult(
        exp_id="fig08",
        title="Forecasting MAPE for AMG datasets (Fig. 8)",
        data={"grid": data, "summary": summary},
        text=text,
    )


def run_fig10(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    data, text = _forecast_grid(
        camp,
        keys=["MILC-128", "MILC-512"],
        ms=[10, 30],
        ks=[20, 40],
        tiers=[
            "app",
            "app+placement",
            "app+placement+io",
            "app+placement+io+sys",
        ],
        fast=fast,
    )
    summary = grid_summary(data)
    return ExperimentResult(
        exp_id="fig10",
        title="Forecasting MAPE for MILC datasets (Fig. 10)",
        data={"grid": data, "summary": summary},
        text=text,
    )


def run_fig11(campaign=None, fast: bool = False) -> ExperimentResult:
    panels = [
        ("AMG-128", 8, 10, "app+placement"),
        ("AMG-512", 8, 10, "app+placement"),
        ("MILC-128", 30, 40, "app+placement+io+sys"),
        ("MILC-512", 30, 40, "app+placement+io+sys"),
    ]
    camp = get_campaign(campaign, fast)
    factory = fast_forecaster if fast else bench_forecaster
    data = {}
    blocks = []
    for key, m, k, tier in panels:
        ds = camp[key]
        if ds.num_steps <= m + k:
            continue
        names, imp = forecasting_feature_importances(
            ds, m=m, k=k, tier=tier, model_factory=factory
        )
        data[key] = {"names": names, "importances": imp, "m": m, "k": k}
        top = names[int(np.argmax(imp))]
        blocks.append(
            f"{key} (m={m}, k={k}, {tier}; top: {top})\n"
            + ascii_bars(names, imp, fmt="{:.3f}")
        )
    return ExperimentResult(
        exp_id="fig11",
        title="Forecasting-model feature importances (Fig. 11)",
        data=data,
        text="\n\n".join(blocks),
    )


def run_fig12(campaign=None, fast: bool = False) -> ExperimentResult:
    camp = get_campaign(campaign, fast)
    lkey = long_run_key(camp)
    if lkey is None:
        raise RuntimeError("campaign has no long MILC run")
    long_run = camp[lkey].runs[0]
    train = camp["MILC-128"]
    t = len(long_run.step_times)
    k = 40 if t >= 200 else max(10, t // 8)
    m = 30 if train.num_steps > 30 + k else max(5, train.num_steps - k - 1)
    tier = "app+placement+io+sys"
    factory = fast_forecaster if fast else bench_forecaster
    res = long_run_forecast(
        train, long_run, m=m, k=k, tier=tier, model_factory=factory
    )
    rows = [
        [int(s), f"{o:.1f}", f"{p:.1f}", f"{100 * abs(o - p) / o:.1f}%"]
        for s, o, p in zip(res.segment_starts, res.observed, res.predicted)
    ]
    mid = res.segment_starts + k / 2
    text = (
        f"long run: {lkey} ({t} steps), segments of k={k}, context m={m}\n"
        + ascii_table(["Segment start", "Observed (s)", "Predicted (s)", "APE"], rows)
        + f"\n\nSegment MAPE: {res.mape:.2f}%\n\n"
        + ascii_series(mid, res.observed, label="observed time per segment (s)")
        + "\n"
        + ascii_series(mid, res.predicted, label="predicted time per segment (s)")
    )
    return ExperimentResult(
        exp_id="fig12",
        title="Forecasting 40-step segments of a 620-step MILC run (Fig. 12)",
        data={
            "segment_starts": res.segment_starts,
            "observed": res.observed,
            "predicted": res.predicted,
            "mape": res.mape,
            "m": m,
            "k": k,
        },
        text=text,
    )


LEGACY_DRIVERS = {
    "table01": run_table01,
    "table02": run_table02,
    "table03": run_table03,
    "fig01": run_fig01,
    "fig03": run_fig03,
    "fig04": run_fig04,
    "fig05": run_fig05,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
}
