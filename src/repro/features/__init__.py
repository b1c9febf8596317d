"""Derived-data layer: one place that turns campaign datasets into model food.

Everything downstream of campaign generation — tier feature matrices,
the flat mean-centered view, and sliding-window tensors — is built here
once per dataset in a process:

* :mod:`~repro.features.spec` — :class:`FeatureSpec`, the single source
  of truth for which columns a feature view contains (the §V-C ablation
  tiers plus the LDMS system view), so matrices and names can never
  drift apart;
* :mod:`~repro.features.windows` — the pure sliding-window construction
  of the paper's Fig. 6 (:func:`build_windows`);
* :mod:`~repro.features.store` — :class:`FeatureStore`, which memoizes
  every derived view in process (it writes nothing to disk: a view is
  cheaper to rebuild than to load).
"""

from repro.features.spec import LDMS_SPEC, TIERS, FeatureSpec
from repro.features.store import FeatureStore, clear_feature_caches, get_store
from repro.features.windows import build_windows, validate_window_params

__all__ = [
    "FeatureSpec",
    "TIERS",
    "LDMS_SPEC",
    "FeatureStore",
    "get_store",
    "clear_feature_caches",
    "build_windows",
    "validate_window_params",
]
