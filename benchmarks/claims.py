"""The paper's claims, each defined once, with a bound for each scale.

Every row of :data:`CLAIMS` names one quantity of one experiment's
result, says what the paper claims about it, and bounds it twice: at
fast (test) scale, on the tiny campaign, and at benchmark scale, on the
120-day ``small`` campaign.  A ``None`` bound prints the value without
checking it: some shapes only emerge once the campaign has enough runs.

Run::

    PYTHONPATH=src python -m benchmarks.claims [--fast] [--workers N]

The claims' experiments run through the stage graph and its artifact
store, so after ``python -m repro.experiments all`` this mostly reads
the cache.  It prints one row per claim under the campaign fingerprint
and exits 1 when a bound at that scale fails.  Tier-1 checks every fast
bound (``tests/experiments/test_claims.py``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.experiments import run_experiments
from repro.experiments.context import experiment_config, resolve_knobs
from repro.experiments.report import ascii_table
from repro.graph.store import artifact_cache_enabled
from repro.network.counters import APP_COUNTERS

# --------------------------------------------------------------------------- #
# Bounds and claims
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Bound:
    """A test a measured value must pass, shown as ``text`` (``> 0.8``)."""

    text: str
    check: Callable[[float], bool]


def gt(v: float) -> Bound:
    return Bound(f"> {v:g}", lambda x: x > v)


def ge(v: float) -> Bound:
    return Bound(f">= {v:g}", lambda x: x >= v)


def lt(v: float) -> Bound:
    return Bound(f"< {v:g}", lambda x: x < v)


def le(v: float) -> Bound:
    return Bound(f"<= {v:g}", lambda x: x <= v)


def eq(v: float) -> Bound:
    return Bound(f"== {v:g}", lambda x: x == v)


def between(lo: float, hi: float) -> Bound:
    return Bound(f"in ({lo:g}, {hi:g})", lambda x: lo < x < hi)


@dataclass(frozen=True)
class Claim:
    """One paper claim: a number measured from one experiment's result."""

    name: str
    exp: str
    paper: str
    #: ``result.data -> value``; ``None`` when the claim does not apply
    #: to this run (printed as ``n/a``, never checked).
    measure: Callable[[dict], float | None]
    fast: Bound | None
    bench: Bound | None

    def bound(self, fast: bool) -> Bound | None:
        return self.fast if fast else self.bench

    def verdict(self, data: dict, fast: bool) -> tuple[float | None, str]:
        """``(value, "holds" | "FAILS" | "-")`` at the given scale."""
        bound = self.bound(fast)
        value = self.measure(data)
        if bound is None or value is None:
            return value, "-"
        return value, "holds" if bound.check(value) else "FAILS"


def _both(bound: Bound) -> dict:
    return {"fast": bound, "bench": bound}


def _same(a, b) -> float:
    """1 when ``a == b``, else 0: shape and key-set claims as numbers."""
    return float(a == b)


def _present(expected: set[str], got) -> float:
    """How many of ``expected`` appear in ``got``."""
    return float(len(expected & set(got)))


def _cell(d: dict, key: str, m: int, k: int, tier: str) -> float:
    """One forecasting-grid cell's MAPE."""
    return next(r.mape for r in d["grid"][key] if (r.m, r.k, r.tier) == (m, k, tier))


def _mapes(d: dict) -> list[float]:
    return [r.mape for cells in d["grid"].values() for r in cells]


def _score(d: dict, key: str, counter: str) -> float:
    return float(d["scores"][d["keys"].index(key)][APP_COUNTERS.index(counter)])


def _rank(d: dict, key: str, counter: str) -> int:
    """0-based relevance rank; many collinear counters tie at 1.0, and the
    stable sort breaks ties in counter order."""
    row = d["scores"][d["keys"].index(key)]
    order = list(np.argsort(-row, kind="stable"))
    return order.index(APP_COUNTERS.index(counter))


def _io_gain(d: dict, key: str) -> float:
    """Best io tier minus app-only MAPE at the headline (m=30, k=40) cell."""
    best_io = min(
        _cell(d, key, 30, 40, "app+placement+io"),
        _cell(d, key, 30, 40, "app+placement+io+sys"),
    )
    return best_io - _cell(d, key, 30, 40, "app")


def _io_rank(d: dict) -> int:
    """Rank of the best system I/O (``IO_*``) feature by importance."""
    order = list(np.argsort(-d["importances"]))
    return min(order.index(i) for i, n in enumerate(d["names"]) if n.startswith("IO_"))


def _placement_share(d: dict) -> float:
    imp, names = d["importances"], d["names"]
    return float(imp[names.index("NUM_ROUTERS")] + imp[names.index("NUM_GROUPS")])


def _fig12_ratio(d: dict) -> np.ndarray:
    return np.asarray(d["predicted"]) / np.asarray(d["observed"])


def _fig12_tracking(d: dict) -> float | None:
    """Segment correlation, when the run varies enough (CoV > 5%) for
    correlation to be meaningful; the benchmark-scale long run is fairly
    steady (~3% CoV)."""
    obs, pred = np.asarray(d["observed"]), np.asarray(d["predicted"])
    if obs.std() <= 0.05 * obs.mean():
        return None
    return float(np.corrcoef(obs, pred)[0, 1])


def _fig04_claims(
    key: str, paper_mpi: str, routines: set[str], mpi_spread: dict
) -> list[Claim]:
    """Fig. 4's compute/MPI split and routine breakdown for one 512-node code."""
    return [
        Claim(f"fig04.{key}.mpi_fraction", "fig04", f"MPI dominates {key} ({paper_mpi})",
              lambda d: d[key]["mpi_fraction"], **_both(gt(0.75))),
        Claim(f"fig04.{key}.compute_spread", "fig04",
              "compute time is stable across runs, no OS noise: (worst - best) / average",
              lambda d: abs(d[key]["compute"]["worst"] - d[key]["compute"]["best"])
              / d[key]["compute"]["average"],
              **_both(lt(0.1))),
        Claim(f"fig04.{key}.mpi_worst_best", "fig04",
              "MPI time varies strongly from the best run to the worst",
              lambda d: d[key]["mpi"]["worst"] / d[key]["mpi"]["best"], **mpi_spread),
        Claim(f"fig04.{key}.paper_routines", "fig04",
              f"the paper's dominant routines {sorted(routines)} carry the MPI time",
              lambda d: _present(routines, d[key]["routines"]), **_both(eq(len(routines)))),
    ]


CLAIMS: list[Claim] = [
    # ---- Tables I-III ----------------------------------------------------- #
    Claim("table01.rows", "table01", "six application configurations",
          lambda d: len(d["rows"]), **_both(eq(6))),
    Claim("table02.rows", "table02", "thirteen Aries network counters",
          lambda d: len(d["rows"]), **_both(eq(13))),
    Claim("table03.datasets", "table03", "one high-MI user list per dataset",
          lambda d: len(d["table"]), **_both(eq(6))),
    Claim("table03.max_lists", "table03",
          "repeat offenders: users 2/8/11 appear in four datasets' lists",
          lambda d: max(d["list_counts"].values(), default=0),
          fast=ge(2), bench=ge(4)),
    Claim("table03.recovery_rate", "table03",
          "most blamed users are ground-truth aggressors",
          lambda d: d["recovery_rate"], fast=None, bench=ge(0.6)),
    # ---- Fig. 1 ----------------------------------------------------------- #
    Claim("fig01.apps", "fig01", "relative performance of the four 128-node codes",
          lambda d: len(d["series"]), **_both(eq(4))),
    Claim("fig01.min_worst", "fig01", "every code shows run-to-run spread (worst / best)",
          lambda d: min(float(s["relative"].max()) for s in d["series"].values()),
          **_both(ge(1.0))),
    Claim("fig01.max_worst", "fig01", "the worst run is up to 3.76x the best",
          lambda d: max(float(s["relative"].max()) for s in d["series"].values()),
          fast=None, bench=ge(1.5)),
    # ---- Fig. 3 ----------------------------------------------------------- #
    *(
        Claim(f"fig03.{key}.steps", "fig03", f"{key} runs {n} time steps",
              lambda d, key=key: len(d["trends"][key]), **_both(eq(n)))
        for key, n in [("AMG-128", 20), ("MILC-128", 80), ("miniVite-128", 6), ("UMT-128", 7)]
    ),
    Claim("fig03.MILC-128.warmup_ratio", "fig03",
          "MILC's 20 warmup steps are much faster than the next 60",
          lambda d: d["trends"]["MILC-128"][:20].mean() / d["trends"]["MILC-128"][20:].mean(),
          **_both(lt(0.6))),
    Claim("fig03.AMG.weak_scaling", "fig03",
          "AMG is slower per step at 512 nodes than at 128 (weak scaling)",
          lambda d: d["trends"]["AMG-512"].mean() / d["trends"]["AMG-128"].mean(),
          **_both(gt(1.0))),
    # ---- Figs. 4 and 5 ---------------------------------------------------- #
    *_fig04_claims(
        "AMG-512", "~82%", {"Iprobe", "Test", "Testall", "Waitall", "Allreduce"}, _both(gt(1.2))
    ),
    # The tiny campaign's MILC-512 MPI spread is ~1.15x.
    *_fig04_claims(
        "MILC-512", "~89%", {"Allreduce", "Wait", "Isend", "Irecv"},
        {"fast": ge(1.0), "bench": gt(1.2)},
    ),
    Claim("fig05.miniVite-128.mpi_fraction", "fig05", "miniVite spends >95% of its time in MPI",
          lambda d: d["miniVite-128"]["mpi_fraction"], **_both(gt(0.95))),
    Claim("fig05.miniVite-128.waitall_share", "fig05",
          "miniVite's MPI time is nearly all Waitall",
          lambda d: d["miniVite-128"]["routines"]["Waitall"]["average"]
          / d["miniVite-128"]["mpi"]["average"],
          **_both(gt(0.6))),
    Claim("fig05.UMT-128.mpi_fraction", "fig05",
          "UMT has the smallest MPI fraction of the four codes",
          lambda d: d["UMT-128"]["mpi_fraction"], fast=between(0.2, 0.55), bench=lt(0.6)),
    Claim("fig05.UMT-128.mpi_worst_best", "fig05", "UMT's MPI time still varies strongly",
          lambda d: d["UMT-128"]["mpi"]["worst"] / d["UMT-128"]["mpi"]["best"],
          **_both(gt(1.3))),
    Claim("fig05.UMT-128.paper_routines", "fig05",
          "Wait, Barrier and Allreduce carry UMT's MPI time",
          lambda d: _present({"Wait", "Barrier", "Allreduce"}, d["UMT-128"]["routines"]),
          **_both(eq(3))),
    # ---- Fig. 7 ----------------------------------------------------------- #
    Claim("fig07.RT_FLIT_TOT", "fig07",
          "mean counter trends mirror the mean time trend (correlation)",
          lambda d: d["correlations"]["RT_FLIT_TOT"], **_both(gt(0.8))),
    # The tiny campaign has few runs, so its stall-counter trend is noisy.
    Claim("fig07.RT_RB_STL", "fig07", "the router stall trend mirrors the time trend",
          lambda d: d["correlations"]["RT_RB_STL"], fast=gt(0.25), bench=gt(0.6)),
    Claim("fig07.PT_FLIT_TOT", "fig07", "the endpoint flit trend mirrors the time trend",
          lambda d: d["correlations"]["PT_FLIT_TOT"], **_both(gt(0.8))),
    # ---- Fig. 8 ----------------------------------------------------------- #
    Claim("fig08.datasets", "fig08", "forecasting grids for AMG-128 and AMG-512",
          lambda d: _same(set(d["grid"]), {"AMG-128", "AMG-512"}), **_both(eq(1))),
    *(
        Claim(f"fig08.{key}.cells", "fig08", "2 m x 2 k x 2 feature tiers",
              lambda d, key=key: len(d["grid"][key]), **_both(eq(8)))
        for key in ("AMG-128", "AMG-512")
    ),
    Claim("fig08.min_mape", "fig08", "every cell forecasts with a real error",
          lambda d: min(_mapes(d)), **_both(gt(0))),
    Claim("fig08.max_mape", "fig08", "MAPE in the paper's 2-12% band",
          lambda d: max(_mapes(d)), fast=None, bench=lt(15.0)),
    Claim("fig08.AMG-512.context_gain", "fig08",
          "more context and a longer horizon lower the error: "
          "MAPE(m=8, k=10) - MAPE(m=3, k=5)",
          lambda d: _cell(d, "AMG-512", 8, 10, "app") - _cell(d, "AMG-512", 3, 5, "app"),
          fast=None, bench=le(0.5)),
    Claim("fig08.placement_gap", "fig08",
          "placement features add little for AMG (§V-C): largest |app - app+placement|",
          lambda d: max(
              abs(_cell(d, key, 8, 10, "app") - _cell(d, key, 8, 10, "app+placement"))
              for key in d["grid"]
          ),
          fast=None, bench=lt(3.0)),
    # ---- Fig. 9 ----------------------------------------------------------- #
    Claim("fig09.scores_shape", "fig09", "one relevance score per (dataset, counter)",
          lambda d: _same(d["scores"].shape, (len(d["keys"]), len(APP_COUNTERS))),
          **_both(eq(1))),
    # miniVite's intrinsic workload variation puts it slightly above 5%
    # on this substrate (EXPERIMENTS.md).
    Claim("fig09.max_mape", "fig09", "deviation-model prediction MAPE < 5% on every dataset",
          lambda d: max(d["mape"].values()), fast=None, bench=lt(6.5)),
    *(
        Claim(f"fig09.{key}.router_stalls", "fig09",
              "the router-tile stall family is highly relevant for MILC "
              "(best of RT_RB_STL, RT_RB_2X_USG)",
              lambda d, key=key: max(_score(d, key, "RT_RB_STL"), _score(d, key, "RT_RB_2X_USG")),
              fast=None, bench=ge(0.8))
        for key in ("MILC-128", "MILC-512")
    ),
    Claim("fig09.MILC-512.RT_RB_STL_rank", "fig09", "RT_RB_STL ranks near the top for MILC",
          lambda d: _rank(d, "MILC-512", "RT_RB_STL"), fast=None, bench=lt(4)),
    Claim("fig09.AMG-128.endpoint_stalls", "fig09",
          "endpoint (processor-tile) stall counters are top-tier for AMG",
          lambda d: max(_score(d, "AMG-128", c)
                        for c in ("PT_RB_STL_RQ", "PT_RB_2X_USG", "PT_CB_STL_RQ")),
          fast=None, bench=ge(0.9)),
    Claim("fig09.UMT-128.PT_RB_STL_RQ", "fig09", "the endpoint stall counter is top-tier for UMT",
          lambda d: _score(d, "UMT-128", "PT_RB_STL_RQ"), fast=None, bench=ge(0.9)),
    Claim("fig09.miniVite-128.flit_rank", "fig09",
          "flit counters are among miniVite's top predictors (best rank)",
          lambda d: min(_rank(d, "miniVite-128", c)
                        for c in ("PT_FLIT_VC0", "RT_FLIT_TOT", "PT_FLIT_TOT", "PT_FLIT_VC4")),
          fast=None, bench=lt(4)),
    # ---- Fig. 10 ---------------------------------------------------------- #
    Claim("fig10.datasets", "fig10", "forecasting grids for MILC-128 and MILC-512",
          lambda d: _same(set(d["grid"]), {"MILC-128", "MILC-512"}), **_both(eq(1))),
    *(
        Claim(f"fig10.{key}.cells", "fig10", "2 m x 2 k x 4 feature tiers",
              lambda d, key=key: len(d["grid"][key]), **_both(eq(16)))
        for key in ("MILC-128", "MILC-512")
    ),
    Claim("fig10.min_mape", "fig10", "every cell forecasts with a real error",
          lambda d: min(_mapes(d)), **_both(gt(0))),
    Claim("fig10.max_mape", "fig10", "MAPE in the paper's band",
          lambda d: max(_mapes(d)), fast=None, bench=lt(15.0)),
    # The 512-node job spans ~1/3 of the reduced machine and its own
    # routers already observe most of the global state, so the LDMS
    # features are neutral there (EXPERIMENTS.md).
    *(
        Claim(f"fig10.{key}.io_gain", "fig10",
              "system I/O features help MILC forecasts: best io tier - app at (m=30, k=40)",
              lambda d, key=key: _io_gain(d, key), fast=None, bench=le(slack))
        for key, slack in [("MILC-128", 0.2), ("MILC-512", 1.0)]
    ),
    # ---- Fig. 11 ---------------------------------------------------------- #
    # The benchmark-scale bound is np.isclose's default tolerance.
    Claim("fig11.importance_sum_error", "fig11", "importances are a distribution: |sum - 1|",
          lambda d: max(abs(float(v["importances"].sum()) - 1.0) for v in d.values()),
          fast=le(1e-6), bench=le(1e-8 + 1e-5)),
    Claim("fig11.min_importance", "fig11", "importances are non-negative",
          lambda d: min(float(v["importances"].min()) for v in d.values()),
          **_both(ge(0.0))),
    # Our importance mass splits across the correlated IO_* channels (the
    # paper's concentrates on IO_PT_FLIT_TOT), so the family is claimed.
    *(
        Claim(f"fig11.{key}.io_rank", "fig11",
              "system-wide I/O traffic carries top-tier relevance for MILC",
              lambda d, key=key: _io_rank(d[key]), fast=None, bench=lt(5))
        for key in ("MILC-128", "MILC-512")
    ),
    *(
        Claim(f"fig11.{key}.placement_share", "fig11",
              "placement features are not AMG's headline signal",
              lambda d, key=key: _placement_share(d[key]), fast=None, bench=lt(0.5))
        for key in ("AMG-128", "AMG-512")
    ),
    # ---- Fig. 12 ---------------------------------------------------------- #
    Claim("fig12.segments", "fig12",
          "the 620-step MILC run is forecast in 40-step segments by a model "
          "trained on 80-step runs",
          lambda d: len(d["observed"]), fast=ge(3), bench=ge(10)),
    Claim("fig12.paired", "fig12", "one prediction per observed segment",
          lambda d: _same(len(d["observed"]), len(d["predicted"])), **_both(eq(1))),
    Claim("fig12.min_time", "fig12", "observed and predicted segment times are positive",
          lambda d: min(np.min(d["observed"]), np.min(d["predicted"])), **_both(gt(0))),
    Claim("fig12.min_ratio", "fig12",
          "predictions stay on the observed scale: smallest predicted / observed",
          lambda d: float(_fig12_ratio(d).min()), **_both(gt(0.5))),
    Claim("fig12.max_ratio", "fig12",
          "predictions stay on the observed scale: largest predicted / observed",
          lambda d: float(_fig12_ratio(d).max()), **_both(lt(2.0))),
    Claim("fig12.mape", "fig12", "errors stay bounded, with occasional biased segments",
          lambda d: d["mape"], fast=gt(0), bench=lt(15.0)),
    Claim("fig12.tracking", "fig12", "predictions track the observed segments",
          _fig12_tracking, fast=None, bench=gt(0.2)),
    # ---- Extension: scheduling what-if (DESIGN.md §7) --------------------- #
    Claim("extra-whatif.datasets", "extra-whatif", "§V-A's delay-aware scheduling, per dataset",
          lambda d: len(d["results"]), **_both(ge(4))),
    Claim("extra-whatif.costly", "extra-whatif",
          "aggressor overlap costs > 2% on at least half the datasets: "
          "costly datasets - half the datasets",
          lambda d: sum(r.saving_fraction > 0.02 for r in d["results"]) - len(d["results"]) // 2,
          fast=None, bench=ge(0)),
]


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #


def claim_ids() -> list[str]:
    """The experiments the claims read, in first-use order."""
    return list(dict.fromkeys(c.exp for c in CLAIMS))


def render(results: dict, fast: bool) -> tuple[str, int]:
    """The claims table over ``results`` and its number of failures."""
    rows = []
    for claim in CLAIMS:
        value, status = claim.verdict(results[claim.exp].data, fast)
        bound = claim.bound(fast)
        rows.append([
            claim.name,
            "n/a" if value is None else f"{value:.4g}",
            "-" if bound is None else bound.text,
            status,
        ])
    failed = sum(row[3] == "FAILS" for row in rows)
    held = sum(row[3] == "holds" for row in rows)
    table = ascii_table(["claim", "value", "bound", "status"], rows)
    unchecked = len(rows) - held - failed
    summary = f"{len(rows)} claims: {held} hold, {failed} fail, {unchecked} unchecked"
    return f"{table}\n{summary}", failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.claims",
        description="Check the paper's claims against the campaign at one scale.",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="check the fast bounds on the test-scale campaign; also "
        "honoured via REPRO_FAST=1",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for campaign generation and stage "
        "execution (0 = all cores; overrides REPRO_WORKERS)",
    )
    args = parser.parse_args(argv)
    fast = resolve_knobs(parser, args, artifact_cache_enabled)
    results = run_experiments(claim_ids(), fast=fast)
    scale = "fast" if fast else "benchmark"
    print(f"paper claims at {scale} scale, campaign {experiment_config(fast).fingerprint()}")
    table, failed = render(results, fast)
    print(table)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
