"""Network substrate: traffic, congestion, and Aries counter synthesis.

The congestion engine is the reproduction's stand-in for the physical Aries
network (see DESIGN.md §4): flows -> adaptive routing -> link loads ->
utilisation -> stalls -> per-flow slowdowns, with Table II counters
synthesised per router from the same state.
"""

from repro.network.counters import (
    APP_COUNTERS,
    COUNTER_SPECS,
    IO_COUNTERS,
    PLACEMENT_FEATURES,
    SYS_COUNTERS,
    CounterSpec,
)
from repro.network.engine import (
    CongestionEngine,
    NetworkState,
    RoutedTraffic,
)
from repro.network.ldms import LDMSSampler
from repro.network.traffic import FlowSet

__all__ = [
    "FlowSet",
    "CongestionEngine",
    "NetworkState",
    "RoutedTraffic",
    "LDMSSampler",
    "CounterSpec",
    "COUNTER_SPECS",
    "APP_COUNTERS",
    "IO_COUNTERS",
    "SYS_COUNTERS",
    "PLACEMENT_FEATURES",
]
