"""Derived-data layer: one place that turns campaign datasets into model food.

Everything downstream of campaign generation — tier feature matrices,
mean trends / mean-centered views, and sliding-window tensors — is built
here exactly once per dataset:

* :mod:`~repro.features.spec` — :class:`FeatureSpec`, the single source
  of truth for which columns a feature view contains (the §V-C ablation
  tiers plus the LDMS system view), so matrices and names can never
  drift apart;
* :mod:`~repro.features.windows` — the pure sliding-window construction
  of the paper's Fig. 6 (:func:`build_windows`);
* :mod:`~repro.features.store` — :class:`FeatureStore`, which memoizes
  every derived view in process and persists the expensive ones under
  the campaign cache machinery (atomic writes, ``flock``, corruption =
  warned miss), keyed by (dataset fingerprint, feature spec, feature
  format version).
"""

from repro.features.spec import LDMS_SPEC, TIERS, FeatureSpec
from repro.features.store import (
    FEATURE_FORMAT_VERSION,
    FeatureStore,
    clear_feature_caches,
    get_store,
)
from repro.features.windows import build_windows, validate_window_params

__all__ = [
    "FeatureSpec",
    "TIERS",
    "LDMS_SPEC",
    "FeatureStore",
    "get_store",
    "clear_feature_caches",
    "FEATURE_FORMAT_VERSION",
    "build_windows",
    "validate_window_params",
]
