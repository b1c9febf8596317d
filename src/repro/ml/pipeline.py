"""The Estimator protocol and the instrumented model wrapper.

Every model in :mod:`repro.ml` exposes the same minimal surface —
``fit(x, y) -> self``, ``predict(x) -> np.ndarray`` and, for the tree
ensembles, ``feature_importances_``.  :class:`Estimator` names that
surface; RFE and ``deviation_analysis(estimator_factory=)`` accept any
model that has it.

:class:`Pipeline` wraps one estimator and delegates to it — the plain
``fit``/``predict`` and the pre-binned path RFE takes — inside
``ml.pipeline.fit`` / ``ml.pipeline.predict`` spans with an
``ml.pipeline.fits`` counter, so every deviation-model fit is observable
whichever door it came through.  It changes no number: a pipeline
predicts exactly what its estimator does.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.obs import METRICS, span


@runtime_checkable
class Estimator(Protocol):
    """What RFE and the deviation/forecasting drivers require."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Estimator": ...

    def predict(self, x: np.ndarray) -> np.ndarray: ...


class Pipeline:
    """One estimator behind the Estimator surface, with spans and counts."""

    def __init__(self, estimator: Estimator) -> None:
        self.estimator = estimator

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Pipeline":
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.fit", estimator=est_name, n=len(x)):
            self.estimator.fit(x, y)
            METRICS.counter("ml.pipeline.fits").inc()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.predict", estimator=est_name, n=len(x)):
            return self.estimator.predict(x)

    # -- pre-binned fast path (RFE subset fits) ------------------------- #

    @property
    def supports_binned(self) -> bool:
        """Can this pipeline fit/predict from pre-binned codes?"""
        return hasattr(self.estimator, "fit_binned")

    def fit_binned(self, binned: np.ndarray, y: np.ndarray, binner) -> "Pipeline":
        """Delegate a pre-binned fit to the estimator.

        Emits the same span/counter as :meth:`fit`, so observability
        counts every model fit no matter which door it came through.
        """
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.fit", estimator=est_name, n=len(binned), binned=True):
            self.estimator.fit_binned(binned, y, binner)
            METRICS.counter("ml.pipeline.fits").inc()
        return self

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        est_name = type(self.estimator).__name__
        with span("ml.pipeline.predict", estimator=est_name, n=len(binned), binned=True):
            return self.estimator.predict_binned(binned)

    @property
    def feature_importances_(self) -> np.ndarray:
        imp = getattr(self.estimator, "feature_importances_", None)
        if imp is None:
            raise AttributeError(
                f"{type(self.estimator).__name__} exposes no feature_importances_"
            )
        return imp
