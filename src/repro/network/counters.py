"""Aries network hardware counter synthesis (paper Table II).

Every counter the study records is reproduced here, by its Cray name and
the paper's abbreviation.  Counter *rates* (per second) are synthesised per
router from a solved :class:`~repro.network.engine.NetworkState`; the
telemetry layer integrates rates over a timestep's duration to obtain the
per-step counter deltas AriesNCL would report.

Router-tile (``RT_``) counters describe traffic *between* routers; processor-
tile (``PT_``) counters describe endpoint traffic to/from the NICs attached
to a router (paper §III-C).  Request traffic travels on VC0 and responses on
VC4, matching the Aries virtual-channel assignment.

Note on paper typos (see DESIGN.md §6): Table II describes ``RT_PKT_TOT``
as "total cycles stalled" and ``PT_PKT_TOT`` as a stall sum; both are
packet totals and are synthesised as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import MEAN_PACKET_FLITS, ROUTER_CLOCK_HZ
from repro.network.engine import NetworkState

#: Fraction of processor-tile stall pressure attributed to request VCs; the
#: remainder hits response VCs.  Request flits dominate for data-heavy
#: traffic, responses for latency-bound request/response exchanges.
_RQ_STALL_SHARE = 0.62

#: Column-buffer stalls are a downstream echo of row-bus pressure plus local
#: fabric backpressure; this couples them without making them duplicates.
_CB_FABRIC_COUPLING = 0.35


@dataclass(frozen=True)
class CounterSpec:
    """One row of the paper's Table II."""

    name: str
    abbreviation: str
    description: str
    derived: bool
    tile: str  # "RT" or "PT"


#: Table II, in paper order.
COUNTER_SPECS: list[CounterSpec] = [
    CounterSpec(
        "AR_RTR_INQ_PRF_INCOMING_FLIT_TOTAL",
        "RT_FLIT_TOT",
        "(Derived) Total number of flits received on router tile",
        True,
        "RT",
    ),
    CounterSpec(
        "AR_RTR_INQ_PRF_INCOMING_PKT_TOTAL",
        "RT_PKT_TOT",
        "(Derived) Total number of packets received on router tile "
        "(paper table describes this row as a stall count; evident typo)",
        True,
        "RT",
    ),
    CounterSpec(
        "AR_RTR_INQ_PRF_ROWBUS_2X_USAGE_CNT",
        "RT_RB_2X_USG",
        "Number of cycles in which two stalls occur on a router tile",
        False,
        "RT",
    ),
    CounterSpec(
        "AR_RTR_INQ_PRF_ROWBUS_STALL_CNT",
        "RT_RB_STL",
        "Total number of cycles stalled on router tile",
        False,
        "RT",
    ),
    CounterSpec(
        "AR_RTR_PT_COLBUF_PERF_STALL_RQ",
        "PT_CB_STL_RQ",
        "Number of cycles a processor tile is stalled for request VCs",
        False,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_COLBUF_PERF_STALL_RS",
        "PT_CB_STL_RS",
        "Number of cycles a processor tile is stalled for response VCs",
        False,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_INCOMING_FLIT_VC0",
        "PT_FLIT_VC0",
        "Number of flits received on processor tile on VC0",
        False,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_INCOMING_FLIT_VC4",
        "PT_FLIT_VC4",
        "Number of flits received on processor tile on VC4",
        False,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_INCOMING_FLIT_TOTAL",
        "PT_FLIT_TOT",
        "(Derived) Total number of flits received on processor tile",
        True,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_INCOMING_PKT_TOTAL",
        "PT_PKT_TOT",
        "(Derived) Total number of packets received on processor tile "
        "(paper table describes this row as PT_RB_STL_RQ + PT_RB_STL_RS; "
        "evident typo)",
        True,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_REQ_ROWBUS_STALL_CNT",
        "PT_RB_STL_RQ",
        "Number of cycles stalled on processor tile request VCs",
        False,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_RSP_ROWBUS_STALL_CNT",
        "PT_RB_STL_RS",
        "Number of cycles stalled on processor tile response VCs",
        False,
        "PT",
    ),
    CounterSpec(
        "AR_RTR_PT_INQ_PRF_ROWBUS_2X_USAGE_CNT",
        "PT_RB_2X_USG",
        "Number of cycles in which two stalls occur on a processor tile",
        False,
        "PT",
    ),
]

#: The 13 per-job ("app") counter features, in Fig. 9 / Fig. 11 order.
APP_COUNTERS: list[str] = [
    "RT_FLIT_TOT",
    "RT_PKT_TOT",
    "RT_RB_2X_USG",
    "RT_RB_STL",
    "PT_CB_STL_RQ",
    "PT_CB_STL_RS",
    "PT_FLIT_VC0",
    "PT_FLIT_VC4",
    "PT_FLIT_TOT",
    "PT_PKT_TOT",
    "PT_RB_STL_RQ",
    "PT_RB_STL_RS",
    "PT_RB_2X_USG",
]

#: Placement features from Slurm logs (paper §III-C).
PLACEMENT_FEATURES: list[str] = ["NUM_ROUTERS", "NUM_GROUPS"]

#: LDMS-derived I/O-router features used in the forecasting ablation.
IO_COUNTERS: list[str] = [
    "IO_RT_FLIT_TOT",
    "IO_RT_RB_STL",
    "IO_PT_FLIT_TOT",
    "IO_PT_PKT_TOT",
]

#: LDMS-derived system-router features (routers sharing no nodes with the job).
SYS_COUNTERS: list[str] = [
    "SYS_RT_FLIT_TOT",
    "SYS_RT_RB_STL",
    "SYS_PT_FLIT_TOT",
    "SYS_PT_PKT_TOT",
]


def forecast_feature_names(
    placement: bool = False, io: bool = False, sys: bool = False
) -> list[str]:
    """Feature list for a forecasting ablation tier (Fig. 8/10 legends)."""
    names = list(APP_COUNTERS)
    if placement:
        names += PLACEMENT_FEATURES
    if io:
        names += IO_COUNTERS
    if sys:
        names += SYS_COUNTERS
    return names


def spec_by_abbreviation(abbrev: str) -> CounterSpec:
    """Look up a Table II row by its abbreviation."""
    for spec in COUNTER_SPECS:
        if spec.abbreviation == abbrev:
            return spec
    raise KeyError(abbrev)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _counter_rates(
    rt_flit: np.ndarray,
    rt_stall: np.ndarray,
    rt_mean_util: np.ndarray,
    nic_util: np.ndarray,
    pt_stall_total: np.ndarray,
    ej: np.ndarray,
    vc4: np.ndarray,
) -> dict[str, np.ndarray]:
    """The Table II rate formulas over router-aggregate inputs.

    Every operation is elementwise, so the same formulas serve the
    per-state ``(routers,)`` view and the batched ``(steps, routers)``
    view bit-identically.
    """
    from repro.config import FLIT_BYTES

    rt_pkt = rt_flit / MEAN_PACKET_FLITS
    # Two simultaneous stalls happen when multiple input queues back up;
    # quadratic in mean utilisation.
    rt_2x = rt_stall * np.minimum(rt_mean_util, 1.0)

    # Processor-tile side: endpoint traffic to/from this router's NICs.
    vc4_flit = vc4 / FLIT_BYTES
    vc0_flit = ej / FLIT_BYTES
    pt_flit = vc0_flit + vc4_flit
    pt_pkt = pt_flit / MEAN_PACKET_FLITS

    pt_rb_stl_rq = pt_stall_total * _RQ_STALL_SHARE
    pt_rb_stl_rs = pt_stall_total * (1.0 - _RQ_STALL_SHARE)
    # Column-buffer stalls: downstream of the row bus, plus a coupling from
    # fabric backpressure reaching the endpoint.
    fabric_echo = _CB_FABRIC_COUPLING * rt_stall * np.minimum(
        nic_util / np.maximum(rt_mean_util, 1e-9), 1.0
    )
    pt_cb_stl_rq = 0.7 * pt_rb_stl_rq + _RQ_STALL_SHARE * fabric_echo
    pt_cb_stl_rs = 0.7 * pt_rb_stl_rs + (1 - _RQ_STALL_SHARE) * fabric_echo
    pt_2x = pt_stall_total * np.minimum(nic_util, 1.0)

    return {
        "RT_FLIT_TOT": rt_flit,
        "RT_PKT_TOT": rt_pkt,
        "RT_RB_2X_USG": rt_2x,
        "RT_RB_STL": rt_stall,
        "PT_CB_STL_RQ": pt_cb_stl_rq,
        "PT_CB_STL_RS": pt_cb_stl_rs,
        "PT_FLIT_VC0": vc0_flit,
        "PT_FLIT_VC4": vc4_flit,
        "PT_FLIT_TOT": pt_flit,
        "PT_PKT_TOT": pt_pkt,
        "PT_RB_STL_RQ": pt_rb_stl_rq,
        "PT_RB_STL_RS": pt_rb_stl_rs,
        "PT_RB_2X_USG": pt_2x,
    }


def synthesize_router_counters(state: NetworkState) -> dict[str, np.ndarray]:
    """Per-router counter *rates* (events/second) from a network state.

    Returns a dict mapping each abbreviation in :data:`APP_COUNTERS` to a
    float vector of length ``num_routers``.  Integrate over an interval to
    get counter deltas.
    """
    return _counter_rates(
        rt_flit=state.rt_flit_rate,
        rt_stall=state.rt_stall_rate,
        rt_mean_util=state.rt_mean_util,
        nic_util=state.nic_util,
        pt_stall_total=state.pt_stall_rate,
        ej=state.ej,
        vc4=state.vc4,
    )


def synthesize_router_counters_block(
    topology,
    link_loads: np.ndarray,
    inj: np.ndarray,
    ej: np.ndarray,
    vc4: np.ndarray,
) -> dict[str, np.ndarray]:
    """Batched :func:`synthesize_router_counters` over a block of steps.

    ``link_loads`` is ``(steps, links)``; ``inj``/``ej``/``vc4`` are
    ``(steps, routers)``.  Returns each counter rate as a
    ``(steps, routers)`` matrix whose rows are bit-identical to building
    a :class:`NetworkState` per step and synthesising from it: the
    router aggregates use the same per-row ``bincount``
    (:meth:`~repro.topology.base.Topology.router_link_sums`) and every
    rate formula is elementwise, so batching cannot change FP order.
    """
    from repro.config import FLIT_BYTES, NIC_BW
    from repro.network.engine import STALL_SCALE, stall_curve

    link_util = link_loads / topology.link_capacity
    link_stall = ROUTER_CLOCK_HZ * STALL_SCALE * stall_curve(link_util)
    nic_util = (inj + ej) / (topology.nodes_per_router * NIC_BW)
    return _counter_rates(
        rt_flit=topology.router_link_sums(link_loads) / FLIT_BYTES,
        rt_stall=topology.router_link_sums(link_stall),
        rt_mean_util=(
            topology.router_link_sums(link_util)
            / np.maximum(topology.link_dst_counts, 1)
        ),
        nic_util=nic_util,
        pt_stall_total=ROUTER_CLOCK_HZ * STALL_SCALE * stall_curve(nic_util),
        ej=ej,
        vc4=vc4,
    )


def counters_to_matrix(
    router_rates: dict[str, np.ndarray],
    names: list[str] | None = None,
) -> np.ndarray:
    """Stack a counter dict into one array ordered by ``names``.

    For per-router rate vectors this yields the ``(len(names), routers)``
    matrix the batched collector consumes; per-step ``(steps, routers)``
    rate matrices stack to ``(len(names), steps, routers)``, and scalar
    counter values stack to a plain feature vector.  Rows are views
    copied in ``names`` order, so element values and ordering match the
    per-name dict lookups exactly.
    """
    if names is None:
        names = list(router_rates)
    return np.stack(
        [np.asarray(router_rates[n], dtype=np.float64) for n in names]
    )
