"""Fig. 10: forecasting MAPE for MILC, m = {10, 30}, k = {20, 40}.

All four feature tiers.  Shape targets: larger m and k lower MAPE; adding
io and then sys features successively improves MILC's forecasts
(bandwidth-bound code, sensitive to system-wide I/O traffic, §V-C).

Each grid cell is one memoized stage (see
:mod:`repro.experiments._forecast_common`); the (m=30, k=40,
all-features) windows are the same tensors Fig. 11 and Fig. 12 consume.
"""

from __future__ import annotations

from repro.experiments._forecast_common import build_grid
from repro.graph import Graph


def build(g: Graph, ctx, exp_id: str = "fig10") -> str:
    return build_grid(
        g,
        ctx,
        exp_id,
        title="Forecasting MAPE for MILC datasets (Fig. 10)",
        keys=["MILC-128", "MILC-512"],
        ms=[10, 30],
        ks=[20, 40],
        tiers=[
            "app",
            "app+placement",
            "app+placement+io",
            "app+placement+io+sys",
        ],
    )
