"""Job records: what Slurm's ``sacct`` would log (paper §III-C).

Times are seconds since the campaign epoch (the paper's campaign ran
December 2018 – April 2019; :mod:`repro.campaign` maps seconds to dates
for the Fig. 1 time axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class JobRequest:
    """A job as submitted to the queue."""

    user: str
    name: str
    submit_time: float
    num_nodes: int
    duration: float
    #: Opaque tag the workload layer uses to rebuild the job's traffic
    #: (archetype key for background jobs, dataset key for probe jobs).
    traffic_tag: str = ""
    #: True for our instrumented probe jobs.
    is_probe: bool = False

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass
class JobRecord:
    """A scheduled job: request plus the scheduler's decisions."""

    job_id: int
    request: JobRequest
    start_time: float
    end_time: float
    nodes: np.ndarray = field(repr=False)

    # Convenience pass-throughs -------------------------------------------------

    @property
    def user(self) -> str:
        return self.request.user

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def num_nodes(self) -> int:
        return self.request.num_nodes

    @property
    def is_probe(self) -> bool:
        return self.request.is_probe

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.request.submit_time
