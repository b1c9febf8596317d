"""Fig. 8: forecasting MAPE for AMG, m = {3, 8}, k = {5, 10}.

Feature tiers: app counters only, and app + placement (the paper skips
io/sys for AMG — they caused overfitting, §V-C).

Shape targets: longer temporal context (m=8) lowers MAPE; larger horizon
(k=10) lowers MAPE (bursts amortise); placement features add little;
512-node errors slightly above 128-node ones.

Each grid cell is one memoized stage (see
:mod:`repro.experiments._forecast_common`).
"""

from __future__ import annotations

from repro.experiments._forecast_common import build_grid
from repro.graph import Graph


def build(g: Graph, ctx, exp_id: str = "fig08") -> str:
    return build_grid(
        g,
        ctx,
        exp_id,
        title="Forecasting MAPE for AMG datasets (Fig. 8)",
        keys=["AMG-128", "AMG-512"],
        ms=[3, 8],
        ks=[5, 10],
        tiers=["app", "app+placement"],
    )
