"""KBA-style transport sweep schedule (the UMT substrate).

UMT is a discrete-ordinates (S_n) radiation transport code (paper §III-A):
each time step sweeps the spatial domain once per angular octant, with a
wavefront of work propagating diagonally across the 3-D process grid.
Downstream ranks *wait* on upstream faces — which is why UMT's MPI time
concentrates in ``Wait``/``Barrier`` even though only ~30% of its runtime
is communication, and why its performance is highly sensitive to latency
inflation on a congested network (paper §III-B: 3.3x worst/best).

:class:`SweepSchedule` computes the wavefront structure exactly: stage
counts, per-stage sending ranks, and face-message sizes from the angular
and energy discretisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SweepSchedule:
    """Sweep structure for one time step of an S_n transport solve."""

    process_grid: tuple[int, int, int]
    local_zones: tuple[int, int, int]
    angles_per_octant: int
    energy_groups: int
    bytes_per_unknown: float = 8.0

    def __post_init__(self) -> None:
        if len(self.process_grid) != 3 or len(self.local_zones) != 3:
            raise ValueError("process_grid and local_zones must be 3-D")
        if any(p < 1 for p in self.process_grid) or any(z < 1 for z in self.local_zones):
            raise ValueError("dimensions must be positive")
        if self.angles_per_octant < 1 or self.energy_groups < 1:
            raise ValueError("angles and groups must be positive")

    # ------------------------------------------------------------------ #

    @property
    def num_ranks(self) -> int:
        return int(np.prod(self.process_grid))

    @property
    def octants(self) -> int:
        return 8

    @property
    def stages_per_octant(self) -> int:
        """Wavefront stages to cross the grid: px + py + pz - 2."""
        return sum(self.process_grid) - 2

    @property
    def critical_path_stages(self) -> int:
        """Pipeline length of a full step (all octants, pipelined)."""
        # Octant sweeps pipeline behind one another; the tail costs one
        # full traversal plus one stage per extra octant.
        return self.stages_per_octant + self.octants - 1

    def face_bytes(self) -> np.ndarray:
        """Bytes per downstream face message, per dimension."""
        zones = np.asarray(self.local_zones, dtype=np.float64)
        faces = zones.prod() / zones  # zones on the face orthogonal to dim
        return (
            faces
            * self.angles_per_octant
            * self.energy_groups
            * self.bytes_per_unknown
        )

    def bytes_per_rank_per_step(self) -> float:
        """Total bytes each interior rank sends during one time step."""
        # Each octant sweep sends up to 3 downstream faces per rank.
        return float(self.face_bytes().sum() * self.octants)

    def messages_per_rank_per_step(self) -> int:
        """Downstream face messages per rank per step."""
        return 3 * self.octants

    def mean_message_bytes(self) -> float:
        msgs = self.messages_per_rank_per_step()
        return self.bytes_per_rank_per_step() / msgs if msgs else 0.0

    def pipeline_efficiency(self) -> float:
        """Useful-work fraction of the sweep pipeline (idle-wait model).

        Ranks idle while the wavefront reaches them; deeper process grids
        wait longer.  This feeds UMT's Wait-dominated MPI profile.
        """
        work_stages = self.octants * max(self.process_grid)
        return work_stages / (work_stages + self.critical_path_stages)
