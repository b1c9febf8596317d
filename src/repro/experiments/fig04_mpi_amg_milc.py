"""Fig. 4: compute/MPI split and MPI routine breakdown, AMG & MILC @512.

Shape targets: AMG ~82% MPI at 512 nodes dominated by Iprobe/Test/
Testall/Waitall/Allreduce; MILC ~89% MPI dominated by Allreduce/Wait/
Isend/Irecv; large best-to-worst spread in MPI time, stable compute time.
"""

from __future__ import annotations

from repro.experiments._mpi_breakdown import build_mpi
from repro.graph import Graph


def build(g: Graph, ctx, exp_id: str = "fig04") -> str:
    return build_mpi(
        g,
        ctx,
        exp_id,
        title="Compute/MPI split and routine breakdown, AMG & MILC @512 (Fig. 4)",
        keys=["AMG-512", "MILC-512"],
    )
