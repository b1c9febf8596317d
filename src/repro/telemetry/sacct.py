"""Slurm accounting queries (the paper's ``sacct`` log mining, §III-C).

Wraps a :class:`~repro.system.scheduler.SchedulerResult` with the queries
the analyses need: which users had jobs running alongside a probe job
(its "neighbourhood", §V-A) and the probe's placement features.
"""

from __future__ import annotations

from repro.system.jobs import JobRecord
from repro.system.scheduler import SchedulerResult
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.placement import placement_features


class SacctLog:
    """Query layer over the scheduler's job log."""

    def __init__(self, result: SchedulerResult, topology: DragonflyTopology) -> None:
        self.result = result
        self.topology = topology

    def neighborhood_users(
        self, job: JobRecord, min_nodes: int = 128
    ) -> list[str]:
        """Users with a >= ``min_nodes`` job running during ``job``'s
        entire *or partial* execution window, excluding the job itself.

        The paper considers users "only if their job size is larger than a
        certain number of nodes (128 for this analysis)" (§V-A).
        """
        overlapping = self.result.overlapping(
            job.start_time, job.end_time, min_nodes=min_nodes
        )
        users = {j.user for j in overlapping if j.job_id != job.job_id}
        return sorted(users)

    def placement(self, job: JobRecord) -> dict[str, int]:
        """NUM_ROUTERS / NUM_GROUPS for a job (paper §III-C)."""
        return placement_features(self.topology, job.nodes)
