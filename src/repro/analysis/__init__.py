"""The paper's three analyses (§IV), applied to campaign datasets.

* :mod:`~repro.analysis.neighborhood` — MI between concurrent users and
  run optimality (§IV-A, Table III);
* :mod:`~repro.analysis.deviation` — GBR+RFE prediction of per-step
  deviation from mean behaviour (§IV-B, Fig. 9);
* :mod:`~repro.analysis.forecasting` — attention-based forecasting of the
  next k steps from the last m (§IV-C, Figs. 8/10/11/12).

All matrices, mean-centered views, and window tensors are obtained
through :mod:`repro.features` (one :class:`~repro.features.FeatureStore`
per dataset), so analyses that share a campaign never rebuild them.
"""

from repro.analysis.deviation import DeviationAnalysis, deviation_analysis
from repro.analysis.routing_ablation import routing_ablation
from repro.analysis.system_state import forecast_system_channel
from repro.analysis.whatif import scheduling_whatif
from repro.analysis.forecasting import (
    ForecastResult,
    build_windows,
    forecast_mape,
    long_run_forecast,
)
from repro.analysis.neighborhood import (
    NeighborhoodAnalysis,
    analyze_neighborhood,
    correlated_users_table,
)

__all__ = [
    "NeighborhoodAnalysis",
    "analyze_neighborhood",
    "correlated_users_table",
    "DeviationAnalysis",
    "deviation_analysis",
    "scheduling_whatif",
    "routing_ablation",
    "forecast_system_channel",
    "ForecastResult",
    "build_windows",
    "forecast_mape",
    "long_run_forecast",
]
