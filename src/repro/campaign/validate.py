"""Dataset quality validation — the campaign's data contract.

Before four months of (simulated or real) telemetry feed the ML
pipelines, an operator wants mechanical checks that the data is sane.
``validate_dataset`` codifies the invariants every analysis in this
repository relies on; the campaign CLI and tests run it, and it is the
first thing to run when a modified substrate produces surprising figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaign.datasets import LDMS_FEATURES, RunDataset
from repro.network.counters import APP_COUNTERS


@dataclass
class ValidationReport:
    """Outcome of validating one dataset."""

    key: str
    checks: dict[str, bool] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def validate_dataset(ds: RunDataset, min_runs: int = 3) -> ValidationReport:
    """Run the data-contract checks on one dataset."""
    rep = ValidationReport(key=ds.key)

    def check(name: str, passed: bool, msg: str = "") -> None:
        rep.checks[name] = bool(passed)
        if not passed and msg:
            rep.messages.append(f"{name}: {msg}")

    n = len(ds)
    check("has-runs", n >= min_runs, f"{n} runs < {min_runs}")
    if n == 0:
        return rep

    y = ds.Y
    x = ds.X
    ld = ds.ldms
    t = ds.num_steps

    check("consistent-steps", all(len(r.step_times) == t for r in ds.runs))
    check("positive-times", bool((y > 0).all()), "non-positive step time")
    check("finite-times", bool(np.isfinite(y).all()))
    check(
        "counter-shape",
        x.shape == (n, t, len(APP_COUNTERS)),
        f"got {x.shape}",
    )
    check("counters-nonnegative", bool((x >= 0).all()))
    check("counters-finite", bool(np.isfinite(x).all()))
    check(
        "ldms-shape", ld.shape == (n, t, len(LDMS_FEATURES)), f"got {ld.shape}"
    )
    check("ldms-nonnegative", bool((ld >= 0).all()))

    # Split consistency: compute + mpi == step time.
    comp = np.stack([r.compute_times for r in ds.runs])
    mpi = np.stack([r.mpi_times for r in ds.runs])
    check(
        "split-consistent",
        bool(np.allclose(comp + mpi, y, rtol=1e-6)),
        "compute + MPI != step time",
    )

    # Placement features within physical bounds.
    pl = ds.placement
    check("routers-positive", bool((pl[:, 0] >= 1).all()))
    check(
        "groups-le-routers",
        bool((pl[:, 1] <= pl[:, 0]).all()),
        "NUM_GROUPS exceeds NUM_ROUTERS",
    )

    # Counters must not be constant across runs (else deviation models
    # have nothing to learn from).  Needs a real population of runs.
    if n >= 3:
        stds = x.std(axis=0).sum(axis=0)  # per counter
        check(
            "counters-vary",
            bool((stds > 0).sum() >= len(APP_COUNTERS) - 1),
            "too many constant counters",
        )
        check("times-vary", bool(y.std(axis=0).sum() > 0))

    # Routine breakdown sums to the MPI time.
    sums_ok = all(
        abs(sum(r.routine_times.values()) - r.mpi_times.sum())
        <= 1e-6 * max(r.mpi_times.sum(), 1.0)
        for r in ds.runs
    )
    check("routines-sum-to-mpi", sums_ok)

    # Neighbourhoods are anonymised user ids.
    users_ok = all(
        u.startswith("User-") for r in ds.runs for u in r.neighborhood
    )
    check("neighborhood-anonymised", users_ok)
    return rep


def validate_campaign(campaign, min_runs: int = 3) -> dict[str, ValidationReport]:
    """Validate every dataset with runs; returns reports keyed by dataset."""
    out = {}
    for key in campaign.keys():
        ds = campaign[key]
        if len(ds):
            out[key] = validate_dataset(
                ds, min_runs=1 if "-long" in key else min_runs
            )
    return out
