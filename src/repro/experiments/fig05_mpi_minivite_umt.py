"""Fig. 5: compute/MPI split and routine breakdown, miniVite & UMT @128.

Shape targets: miniVite >98% MPI, almost all in Waitall; UMT ~30% MPI
concentrated in Wait/Barrier/Allreduce with high worst/best spread.
"""

from __future__ import annotations

from repro.experiments._mpi_breakdown import build_mpi
from repro.graph import Graph


def build(g: Graph, ctx, exp_id: str = "fig05") -> str:
    return build_mpi(
        g,
        ctx,
        exp_id,
        title="Compute/MPI split and routine breakdown, miniVite & UMT @128 (Fig. 5)",
        keys=["miniVite-128", "UMT-128"],
    )
