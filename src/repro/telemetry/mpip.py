"""mpiP-style MPI profiling (paper §III-B, Figs. 4 and 5).

The paper links mpiP into every probe run to split time into compute vs
MPI and to break MPI time into routines.  Here a profile is derived from a
run's realised per-step times and the application's routine mix: the
congestion-dilated share of MPI time lands on the blocking routines
(Wait*, Test*, Iprobe, Barrier, Allreduce), because that is where delayed
messages surface, while Isend/Irecv posting costs stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import Application

#: Routines whose time inflates when the network is congested.
BLOCKING_ROUTINES = {
    "Wait",
    "Waitall",
    "Test",
    "Testall",
    "Iprobe",
    "Barrier",
    "Allreduce",
}


@dataclass
class MPIProfile:
    """One run's mpiP-equivalent report."""

    compute_time: float
    mpi_time: float
    routine_times: dict[str, float]

    @property
    def total_time(self) -> float:
        return self.compute_time + self.mpi_time

    @property
    def mpi_fraction(self) -> float:
        return self.mpi_time / self.total_time if self.total_time > 0 else 0.0


def profile_run(
    app: Application,
    compute_times: np.ndarray,
    mpi_times: np.ndarray,
    rng: np.random.Generator | None = None,
    jitter: float = 0.03,
) -> MPIProfile:
    """Build a profile from realised per-step compute/MPI times.

    The baseline (uncongested) MPI time follows the app's routine mix;
    any *excess* over baseline is attributed to the blocking routines in
    proportion to their mix share.
    """
    compute = float(np.sum(compute_times))
    mpi = float(np.sum(mpi_times))
    baseline = float(app.step_model().mpi.sum())
    excess = max(mpi - baseline, 0.0)
    base_part = mpi - excess

    mix = app.routine_mix()
    blocking_share = sum(v for k, v in mix.items() if k in BLOCKING_ROUTINES)
    routine_times: dict[str, float] = {}
    for name, share in mix.items():
        t = share * base_part
        if name in BLOCKING_ROUTINES and blocking_share > 0:
            t += excess * share / blocking_share
        if rng is not None and jitter > 0:
            t *= float(rng.lognormal(0.0, jitter))
        routine_times[name] = t
    # Renormalise the jitter so the routine times still sum to mpi.
    s = sum(routine_times.values())
    if s > 0:
        routine_times = {k: v * mpi / s for k, v in routine_times.items()}
    return MPIProfile(
        compute_time=compute, mpi_time=mpi, routine_times=routine_times
    )
