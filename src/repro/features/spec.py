"""Feature-view specifications: which columns a model sees, in one object.

The paper's §V-C ablation works over four feature *tiers* (job-local
AriesNCL counters, + placement, + io, + sys).  A :class:`FeatureSpec`
owns both the matrix construction and the column names — the one
definition of tier column order — so they are guaranteed consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.counters import (
    APP_COUNTERS,
    IO_COUNTERS,
    PLACEMENT_FEATURES,
    SYS_COUNTERS,
)

#: Valid values of :attr:`FeatureSpec.source`.
_SOURCES = ("counters", "ldms")


@dataclass(frozen=True)
class FeatureSpec:
    """One derived feature view of a :class:`~repro.campaign.datasets.RunDataset`.

    ``source="counters"`` is a §V-C ablation tier: the 13 AriesNCL
    counters plus the optional placement / io / sys column blocks.
    ``source="ldms"`` is the raw (N, T, 8) LDMS io+sys stream used by the
    system-state forecasting extension.
    """

    name: str
    placement: bool = False
    io: bool = False
    sys: bool = False
    source: str = "counters"

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(
                f"unknown feature source {self.source!r}; expected one of {_SOURCES}"
            )

    # ---- identity ------------------------------------------------------- #

    @property
    def token(self) -> str:
        """Canonical cache token: derived from the column blocks, not the
        display name, so aliased specs share one cache entry."""
        if self.source == "ldms":
            return "ldms"
        parts = ["app"]
        if self.placement:
            parts.append("placement")
        if self.io:
            parts.append("io")
        if self.sys:
            parts.append("sys")
        return "+".join(parts)

    @classmethod
    def resolve(cls, tier: "str | FeatureSpec") -> "FeatureSpec":
        """A spec from a tier name (or a spec, passed through)."""
        if isinstance(tier, FeatureSpec):
            return tier
        if tier in TIERS:
            return TIERS[tier]
        raise ValueError(f"unknown tier {tier!r}; expected one of {list(TIERS)}")

    # ---- the two halves that must never drift --------------------------- #

    def feature_names(self) -> list[str]:
        """Column labels, in exactly the order :meth:`matrix` stacks them."""
        if self.source == "ldms":
            return IO_COUNTERS + SYS_COUNTERS
        names = list(APP_COUNTERS)
        if self.placement:
            names += PLACEMENT_FEATURES
        if self.io:
            names += IO_COUNTERS
        if self.sys:
            names += SYS_COUNTERS
        return names

    def matrix(self, ds) -> np.ndarray:
        """The (N, T, H) feature tensor of ``ds`` for this view."""
        if self.source == "ldms":
            return ds.ldms
        return ds.features(placement=self.placement, io=self.io, sys=self.sys)


#: The §V-C ablation tiers (name -> spec).  The single definition the
#: whole analysis stack shares.
TIERS: dict[str, FeatureSpec] = {
    "app": FeatureSpec("app"),
    "app+placement": FeatureSpec("app+placement", placement=True),
    "app+placement+io": FeatureSpec("app+placement+io", placement=True, io=True),
    "app+placement+io+sys": FeatureSpec(
        "app+placement+io+sys", placement=True, io=True, sys=True
    ),
}

#: The raw LDMS io+sys stream (system-state forecasting extension).
LDMS_SPEC = FeatureSpec("ldms", source="ldms")
