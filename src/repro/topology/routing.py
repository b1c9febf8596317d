"""UGAL-style adaptive routing over grouped topologies, fully vectorised.

The Aries network routes each packet either *minimally* (src group ->
destination group directly over a blue link) or *non-minimally* (Valiant:
via a random intermediate group), choosing per packet based on backpressure
(paper §II-A).  An aggregate-flow model cannot route individual packets, so
we reproduce the mechanism at flow granularity:

* every flow is expanded into **two** weighted link sets — its minimal path
  set and a Valiant path set over sampled intermediate groups;
* the congestion engine solves a small fixed point for the per-flow split
  ``alpha`` (fraction routed minimally), increasing Valiant usage when the
  minimal path is more congested, exactly the UGAL decision rule.

Path expansion uses only arithmetic on router coordinates plus the
topology's canonical link ids, so routing ``n`` flows costs a handful of
NumPy operations regardless of ``n``.  :class:`GroupRouter` holds the
expansion; :class:`AdaptiveRouter` (the dragonfly) and
:class:`~repro.topology.dragonfly_plus.DragonflyPlusRouter` supply only
their geometry.  The expansion writes its entries into a sink: an
incidence builder by default, or a :class:`LinkLoadSink` that folds them
straight into per-set link loads when only the loads are wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.topology.base import Topology


class _IncidenceBuilder:
    """Accumulates (flow, link, share) COO triplets from vectorised segments."""

    def __init__(self) -> None:
        self._flows: list[np.ndarray] = []
        self._links: list[np.ndarray] = []
        self._shares: list[np.ndarray] = []

    def add(self, flows: np.ndarray, links: np.ndarray, shares: np.ndarray) -> None:
        if len(flows) == 0:
            return
        self._flows.append(np.asarray(flows, dtype=np.int64))
        self._links.append(np.asarray(links, dtype=np.int64))
        self._shares.append(np.asarray(shares, dtype=np.float64))

    def build(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self._flows:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        return (
            np.concatenate(self._flows),
            np.concatenate(self._links),
            np.concatenate(self._shares),
        )


#: Incidence entries a :class:`LinkLoadSink` buffers before it scatters
#: them into its accumulator: its five buffers take 2.5 MB whatever the
#: size of the flow sets being routed.
_SINK_ENTRIES = 1 << 16


class LinkLoadSink:
    """Folds ``(flow, link, share)`` entries straight into per-set link loads.

    An expansion sink like :class:`_IncidenceBuilder`, for callers that
    want only the loads: entry ``(flow, link, share)`` adds
    ``vols[flow] * share`` at ``acc[set_of[flow] * stride + link]``.
    Entries are copied in arrival order into fixed buffers of
    :data:`_SINK_ENTRIES` and scattered with ``np.add.at`` each time the
    buffers fill, and by :meth:`flush`.  The buffers are reused, so a
    batch of any size allocates no per-flush temporaries: freed ones
    were trimmed from the heap and faulted in again at the next flush.

    ``np.add.at`` and ``np.bincount`` both add a bin's entries one at a
    time in entry order, so a zeroed accumulator ends byte-equal to
    :meth:`Incidence.link_loads` of each set's incidence.
    """

    def __init__(
        self, acc: np.ndarray, set_of: np.ndarray, vols: np.ndarray, stride: int
    ) -> None:
        """
        Parameters
        ----------
        acc:
            Flat float64 accumulator, written in place.
        set_of:
            Set index of each routed flow.
        vols:
            Volume of each routed flow.
        stride:
            Accumulator entries per set (at least the number of links).
        """
        self.acc = acc
        self.set_of = set_of
        self.vols = vols
        self.stride = stride
        self._flows = np.empty(_SINK_ENTRIES, dtype=np.int64)
        self._links = np.empty(_SINK_ENTRIES, dtype=np.int64)
        self._shares = np.empty(_SINK_ENTRIES, dtype=np.float64)
        self._key = np.empty(_SINK_ENTRIES, dtype=np.int64)
        self._weight = np.empty(_SINK_ENTRIES, dtype=np.float64)
        self._waiting = 0

    def add(self, flows: np.ndarray, links: np.ndarray, shares: np.ndarray) -> None:
        # Buffer assignment casts like ``np.asarray(x, dtype=...)``.
        done, n = 0, len(flows)
        while done < n:
            at = self._waiting
            take = min(n - done, _SINK_ENTRIES - at)
            self._flows[at:at + take] = flows[done:done + take]
            self._links[at:at + take] = links[done:done + take]
            self._shares[at:at + take] = shares[done:done + take]
            self._waiting += take
            done += take
            if self._waiting == _SINK_ENTRIES:
                self.flush()

    def flush(self) -> None:
        """Scatter every buffered entry into the accumulator, in order."""
        n = self._waiting
        if not n:
            return
        flows = self._flows[:n]
        key = np.take(self.set_of, flows, out=self._key[:n])
        key *= self.stride
        key += self._links[:n]
        weight = np.take(self.vols, flows, out=self._weight[:n])
        weight *= self._shares[:n]
        np.add.at(self.acc, key, weight)
        self._waiting = 0


@dataclass
class Incidence:
    """Sparse flow -> link incidence: ``share`` of the flow's volume crosses
    ``link`` (COO layout; a flow may appear many times)."""

    flow: np.ndarray
    link: np.ndarray
    share: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.flow)

    def link_loads(self, volumes: np.ndarray, num_links: int) -> np.ndarray:
        """Scatter-add flow volumes (bytes/s) into per-link loads.

        ``bincount`` and ``np.add.at`` both accumulate the weights in
        entry order, so their per-bin sums are byte-equal (the
        :class:`LinkLoadSink` relies on it).  Since NumPy 1.25 they also
        cost about the same: 4.1 and 3.5 ms for 1M entries into 436,800
        bins (NumPy 2.4, 2-vCPU VM).
        """
        if not self.nnz:
            return np.zeros(num_links, dtype=np.float64)
        return np.bincount(
            self.link,
            weights=volumes[self.flow] * self.share,
            minlength=num_links,
        )

    def flow_max_metric(self, per_link: np.ndarray, n_flows: int) -> np.ndarray:
        """Per-flow maximum of a per-link metric over the flow's links."""
        out = np.zeros(n_flows, dtype=np.float64)
        if self.nnz:
            np.maximum.at(out, self.flow, per_link[self.link])
        return out


@dataclass
class FlowRouting:
    """Routing of a flow set: minimal and Valiant incidences plus metadata.

    The per-flow adaptive split ``alpha`` (fraction of volume routed
    minimally) lives in the congestion engine; a ``FlowRouting`` is pure
    geometry and can be reused across timesteps as long as the placement
    and pattern are unchanged.
    """

    n_flows: int
    minimal: Incidence
    valiant: Incidence
    #: True for flows whose endpoints share a router (no fabric links used).
    local_mask: np.ndarray = field(repr=False)

    def link_loads(
        self, volumes: np.ndarray, alpha: np.ndarray | float, num_links: int
    ) -> np.ndarray:
        """Combined per-link byte/s loads under split ``alpha``."""
        alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), (self.n_flows,))
        loads = self.minimal.link_loads(volumes * alpha, num_links)
        loads += self.valiant.link_loads(volumes * (1.0 - alpha), num_links)
        return loads


class GroupRouter:
    """Flow -> minimal + Valiant link-incidence expansion over grouped routers.

    A group router owns the *geometry* of routing: it turns router-level
    flows into a :class:`FlowRouting` holding a minimal and a Valiant
    (non-minimal) :class:`Incidence`.  The *policy* — how much of each
    flow travels each set — lives in the congestion engine: pinned
    policies (``minimal``, ``valiant``) fix the split, while ``ugal``
    solves the adaptive fixed point.  Topologies return their router
    from :meth:`repro.topology.base.Topology.default_router`.

    The expansion is the same on every geometry whose groups are joined
    all-to-all by parallel global links; a subclass supplies only the
    geometry: :meth:`_intra_segment`, :meth:`_sample_intra_mid`,
    :meth:`_gateway` and :meth:`_global_link`.
    """

    def __init__(
        self,
        topology: Topology,
        global_channels: int = 2,
        valiant_samples: int = 2,
    ) -> None:
        """
        Parameters
        ----------
        topology:
            The network to route over.
        global_channels:
            Parallel global links used per (flow, group-pair); traffic is
            spread evenly over them (Aries stripes packets over parallel
            optical links).
        valiant_samples:
            Intermediate groups sampled per flow for the non-minimal set.
        """
        self.topology = topology
        self.global_channels = min(global_channels, topology.global_multiplicity)
        self.valiant_samples = valiant_samples

    # ------------------------------------------------------------------ #

    def route(
        self,
        src_router: np.ndarray,
        dst_router: np.ndarray,
        rng: np.random.Generator | None = None,
        flow_ids: np.ndarray | None = None,
        sinks: tuple[LinkLoadSink, LinkLoadSink] | None = None,
    ) -> FlowRouting | None:
        """Route flows from ``src_router[i]`` to ``dst_router[i]``.

        Returns a :class:`FlowRouting` with both path sets.  ``rng`` only
        affects Valiant intermediate sampling; pass a seeded generator
        for reproducibility (default: deterministic stride-based
        sampling).  ``flow_ids`` overrides the flow indices used for
        deterministic channel striping (default ``arange(n)``): a caller
        routing several concatenated flow sets in one call passes each
        set's own 0-based indices so every flow gets the exact links a
        solo call would pick.

        ``sinks``, a ``(minimal, valiant)`` pair of :class:`LinkLoadSink`,
        streams each path set's entries into link loads instead: no
        incidence is built, both sinks are flushed, and the call returns
        None.
        """
        src = np.asarray(src_router, dtype=np.int64)
        dst = np.asarray(dst_router, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src_router and dst_router must have equal length")
        n = len(src)
        rpg = self.topology.routers_per_group
        fid = (
            np.arange(n, dtype=np.int64)
            if flow_ids is None
            else np.asarray(flow_ids, dtype=np.int64)
        )

        local_mask = src == dst
        sg = src // rpg
        dg = dst // rpg
        same_group = (sg == dg) & ~local_mask
        inter = ~same_group & ~local_mask

        if sinks is not None:
            minimal, valiant = sinks
        else:
            minimal, valiant = _IncidenceBuilder(), _IncidenceBuilder()
        self._expand(minimal, valiant, src, dst, sg, dg, same_group, inter, rng, fid)
        if sinks is not None:
            minimal.flush()
            valiant.flush()
            return None

        mf, ml, ms = minimal.build()
        vf, vl, vs = valiant.build()
        return FlowRouting(
            n_flows=n,
            minimal=Incidence(mf, ml, ms),
            valiant=Incidence(vf, vl, vs),
            local_mask=local_mask,
        )

    def _expand(
        self, minimal, valiant, src, dst, sg, dg, same_group, inter, rng, fid
    ) -> None:
        """Add every flow's minimal and Valiant links, in a fixed order.

        Each sink receives its intra-group entries before its
        inter-group ones, and ``rng`` is drawn for the intra-group mids
        before the intermediate groups.  Entry order matters because
        ``Incidence.link_loads`` and :class:`LinkLoadSink` accumulate
        per-bin sums in entry order.
        """
        topo = self.topology

        # ---- intra-group ---------------------------------------------- #
        idx = np.flatnonzero(same_group)
        if len(idx):
            g, a, b = sg[idx], src[idx], dst[idx]
            self._intra_segment(minimal, idx, g, a, b, np.ones(len(idx)))
            # Valiant: via an intermediate router of the group; the flow
            # crosses both legs in full, so each leg gets share 1.
            mids = self._sample_intra_mid(a, b, g, rng)
            share = np.ones(len(idx))
            self._intra_segment(valiant, idx, g, a, mids, share)
            self._intra_segment(valiant, idx, g, mids, b, share)

        # ---- inter-group ---------------------------------------------- #
        idx = np.flatnonzero(inter)
        if not len(idx):
            return
        a, b, ga, gb, f = src[idx], dst[idx], sg[idx], dg[idx], fid[idx]
        mult = topo.global_multiplicity
        # With no third group the Valiant set degenerates to the minimal
        # route (keeps tiny test topologies from looping).
        direct = (minimal, valiant) if topo.groups <= 2 else (minimal,)
        share = np.full(len(idx), 1.0 / self.global_channels)
        for out in direct:
            for t in range(self.global_channels):
                chan = (f + t) % mult
                self._global_hop(out, idx, a, b, ga, gb, chan, share)
        if topo.groups <= 2:
            return

        # Valiant: two global hops through each sampled intermediate group.
        k = self.valiant_samples
        share = np.full(len(idx), 1.0 / k)
        for s in range(k):
            gi = self._sample_intermediate_group(ga, gb, s, rng)
            chan = (f + s) % mult
            # Leg 1 lands on the intermediate group's gateway from ``ga``.
            gw_in = self._gateway(gi, ga, chan)
            self._global_hop(valiant, idx, a, gw_in, ga, gi, chan, share)
            # Leg 2: intermediate group -> destination group.
            chan2 = (f + s + 1) % mult
            self._global_hop(valiant, idx, gw_in, b, gi, gb, chan2, share)

    def _global_hop(self, out, flow_idx, src, dst, sg, dg, chan, share) -> None:
        """Add links for src -> (gateway) -> global -> (gateway) -> dst."""
        gw_out = self._gateway(sg, dg, chan)
        gw_in = self._gateway(dg, sg, chan)
        self._intra_segment(out, flow_idx, sg, src, gw_out, share)
        out.add(flow_idx, self._global_link(sg, dg, chan), share)
        self._intra_segment(out, flow_idx, dg, gw_in, dst, share)

    def _sample_intermediate_group(self, sg, dg, salt: int, rng) -> np.ndarray:
        """Random intermediate group distinct from both endpoints."""
        topo = self.topology
        n = len(sg)
        if rng is None:
            raw = (sg * 31 + dg * 17 + salt * 101 + 13) % topo.groups
        else:
            raw = rng.integers(0, topo.groups, size=n)
        # Shift away from the endpoint groups deterministically.
        clash = (raw == sg) | (raw == dg)
        while clash.any():
            raw = np.where(clash, (raw + 1) % topo.groups, raw)
            clash = (raw == sg) | (raw == dg)
        return raw

    # ------------------------------------------------------------------ #
    # Geometry, supplied by each topology's router (vectorised over flows)
    # ------------------------------------------------------------------ #

    def _intra_segment(self, out, flow_idx, group, a, b, share) -> None:
        """Add links of the minimal intra-group route a -> b (same group)."""
        raise NotImplementedError

    def _sample_intra_mid(self, src, dst, group, rng) -> np.ndarray:
        """Intermediate router within the group (Valiant leg)."""
        raise NotImplementedError

    def _gateway(self, src_group, dst_group, chan) -> np.ndarray:
        """Router in ``src_group`` owning the ``chan``-th global link to
        ``dst_group``."""
        raise NotImplementedError

    def _global_link(self, src_group, dst_group, chan) -> np.ndarray:
        """Id of the ``chan``-th global link from src_group to dst_group."""
        raise NotImplementedError


class AdaptiveRouter(GroupRouter):
    """Minimal + Valiant expansion over the dragonfly's green/black/blue
    links."""

    # Defined in the class body (not only inherited) so that per-class
    # patching through ``vars(AdaptiveRouter)`` finds it.
    route = GroupRouter.route

    def _intra_segment(
        self,
        out: _IncidenceBuilder | LinkLoadSink,
        flow_idx: np.ndarray,
        group: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        share: np.ndarray,
    ) -> None:
        """Add links of the minimal intra-group route a -> b (same group).

        Same row: one green link.  Same column: one black link.  Otherwise
        two 2-hop corner routes, each carrying half the share (dimension-
        order spreading, as Aries' intra-group adaptive routing does).
        """
        topo = self.topology
        ra, pa = topo.router_row(a), topo.router_pos(a)
        rb, pb = topo.router_row(b), topo.router_pos(b)
        same = (ra == rb) & (pa == pb)

        row_case = (ra == rb) & ~same
        if row_case.any():
            m = row_case
            out.add(
                flow_idx[m],
                topo.green_link(group[m], ra[m], pa[m], pb[m]),
                share[m],
            )

        col_case = (pa == pb) & ~same
        if col_case.any():
            m = col_case
            out.add(
                flow_idx[m],
                topo.black_link(group[m], pa[m], ra[m], rb[m]),
                share[m],
            )

        two_hop = ~same & ~row_case & ~col_case
        if two_hop.any():
            m = two_hop
            g, fi, sh = group[m], flow_idx[m], share[m] * 0.5
            # Corner 1: green along source row to dst position, then black.
            out.add(fi, topo.green_link(g, ra[m], pa[m], pb[m]), sh)
            out.add(fi, topo.black_link(g, pb[m], ra[m], rb[m]), sh)
            # Corner 2: black along source column to dst row, then green.
            out.add(fi, topo.black_link(g, pa[m], ra[m], rb[m]), sh)
            out.add(fi, topo.green_link(g, rb[m], pa[m], pb[m]), sh)

    def _sample_intra_mid(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        group: np.ndarray,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Random intermediate router within the group (Valiant leg)."""
        topo = self.topology
        n = len(src)
        if rng is None:
            offs = (src * 7919 + dst * 104729) % (topo.routers_per_group - 1) + 1
        else:
            offs = rng.integers(1, topo.routers_per_group, size=n)
        return group * topo.routers_per_group + (
            (src % topo.routers_per_group + offs) % topo.routers_per_group
        )

    def _gateway(self, src_group, dst_group, chan) -> np.ndarray:
        return self.topology.blue_gateway(src_group, dst_group, chan)

    def _global_link(self, src_group, dst_group, chan) -> np.ndarray:
        return self.topology.blue_link(src_group, dst_group, chan)
