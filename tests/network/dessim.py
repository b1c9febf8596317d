"""Packet-level discrete-event simulator — validation of the flow engine.

The campaign's congestion engine is an *aggregate-flow* model (DESIGN.md
§4): fast enough for 40,000 step solves, but analytic.  This module is
its ground truth: a small discrete-event simulator that moves individual
packets over the same dragonfly, with

* FIFO output queues per directed link (service time = bytes/bandwidth),
* true per-packet UGAL routing — each packet compares the current
  backlog along its minimal route against a randomly chosen Valiant
  candidate, scaled by hop count (UGAL-G flavour; Kim et al., ISCA'08),
* per-link busy/queue statistics and per-flow latency stretch.

It is intentionally small-scale (tiny topologies, 10^4–10^5 packets): the
validation suite (``test_dessim.py``) checks that where the two models
overlap — link utilisation, stall ordering, slowdown direction — they
agree, which is what justifies using the fast engine for the full
campaign.  No program surface runs it, so it lives with its tests as a
reference, like ``tests/campaign/legacy_solver.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.network.traffic import FlowSet
from repro.topology.dragonfly import DragonflyTopology

#: Packet payload in bytes (Aries packets carry up to 64 B; we simulate
#: larger aggregates to keep event counts tractable).
PACKET_BYTES = 4096.0

#: UGAL-L threshold bias: minimal is preferred unless its queue is this
#: many packets deeper than the Valiant candidate's (scaled by hops).
UGAL_BIAS = 2.0


@dataclass
class _Packet:
    flow: int
    src: int
    dst: int
    route: list[int] | None = None  # decided at injection time
    hop: int = 0
    created: float = 0.0


@dataclass
class LinkStats:
    """Per-link outcome of a simulation."""

    busy_time: np.ndarray
    queue_time: np.ndarray
    packets: np.ndarray

    def utilisation(self, horizon: float) -> np.ndarray:
        return self.busy_time / horizon

    def mean_queue_delay(self) -> np.ndarray:
        return self.queue_time / np.maximum(self.packets, 1)


@dataclass
class DESResult:
    """Aggregate outcome of one discrete-event run."""

    horizon: float
    link_stats: LinkStats
    #: Mean end-to-end latency per flow (seconds).
    flow_latency: np.ndarray
    #: Mean unloaded (service-only) latency per flow.
    flow_latency_min: np.ndarray
    #: Packets delivered per flow.
    flow_packets: np.ndarray
    #: Fraction of packets routed minimally, per flow.
    minimal_fraction: np.ndarray

    def flow_stretch(self) -> np.ndarray:
        """Latency stretch (loaded / unloaded) per flow with traffic."""
        ok = self.flow_packets > 0
        out = np.ones(len(self.flow_latency))
        out[ok] = self.flow_latency[ok] / np.maximum(
            self.flow_latency_min[ok], 1e-12
        )
        return out


class PacketSimulator:
    """Event-driven packet simulation over one dragonfly."""

    def __init__(
        self,
        topology: DragonflyTopology,
        packet_bytes: float = PACKET_BYTES,
    ) -> None:
        self.topology = topology
        self.packet_bytes = packet_bytes
        self._service = packet_bytes / topology.link_capacity  # per link

    # ------------------------------------------------------------------ #
    # Route construction (single concrete path per option)
    # ------------------------------------------------------------------ #

    def _intra_links(self, a: int, b: int, rng: np.random.Generator) -> list[int]:
        """One concrete minimal intra-group route a -> b (same group)."""
        t = self.topology
        if a == b:
            return []
        g = a // t.routers_per_group
        ra, pa = int(t.router_row(a)), int(t.router_pos(a))
        rb, pb = int(t.router_row(b)), int(t.router_pos(b))
        if ra == rb:
            return [int(t.green_link(g, ra, pa, pb))]
        if pa == pb:
            return [int(t.black_link(g, pa, ra, rb))]
        if rng.random() < 0.5:  # corner via (ra, pb)
            return [
                int(t.green_link(g, ra, pa, pb)),
                int(t.black_link(g, pb, ra, rb)),
            ]
        return [
            int(t.black_link(g, pa, ra, rb)),
            int(t.green_link(g, rb, pa, pb)),
        ]

    def _global_route(
        self, src: int, dst: int, via: int | None, rng: np.random.Generator
    ) -> list[int]:
        """Concrete route src -> dst, optionally via intermediate group."""
        t = self.topology
        sg = src // t.routers_per_group
        dg = dst // t.routers_per_group
        if sg == dg:
            if via is None:
                return self._intra_links(src, dst, rng)
            mid = sg * t.routers_per_group + int(
                rng.integers(0, t.routers_per_group)
            )
            return self._intra_links(src, mid, rng) + self._intra_links(
                mid, dst, rng
            )
        legs: list[int] = []
        here = src
        groups = [sg] + ([via] if via is not None else []) + [dg]
        for a, b in zip(groups, groups[1:]):
            chan = int(rng.integers(0, t.global_multiplicity))
            gw_out = int(t.blue_gateway(a, b, chan))
            gw_in = int(t.blue_gateway(b, a, chan))
            legs += self._intra_links(here, gw_out, rng)
            legs.append(int(t.blue_link(a, b, chan)))
            here = gw_in
        legs += self._intra_links(here, dst, rng)
        return legs

    def minimal_route(self, src: int, dst: int, rng) -> list[int]:
        return self._global_route(src, dst, None, rng)

    def valiant_route(self, src: int, dst: int, rng) -> list[int]:
        t = self.topology
        sg = src // t.routers_per_group
        dg = dst // t.routers_per_group
        if sg == dg:
            # Valiant within a group: detour via a random router.
            return self._global_route(src, dst, via=sg, rng=rng)
        via = int(rng.integers(0, t.groups))
        while via == sg or via == dg:
            via = (via + 1) % t.groups
        return self._global_route(src, dst, via, rng)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #

    def run(
        self,
        flows: FlowSet,
        horizon: float = 0.05,
        rng: np.random.Generator | None = None,
        adaptive: bool = True,
        max_packets: int = 400_000,
    ) -> DESResult:
        """Simulate ``flows`` for ``horizon`` seconds of network time.

        Packets arrive per flow as a Poisson process with rate
        ``volume / packet_bytes``; each is routed at injection (UGAL-L
        when ``adaptive``) and then queues FIFO hop by hop.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        topo = self.topology
        n_links = topo.num_links
        nf = len(flows)

        # Guard BEFORE sampling: the arrival list is O(#packets) memory.
        expected = flows.volume.sum() * horizon / self.packet_bytes
        if expected > max_packets:
            raise ValueError(
                f"~{expected:.0f} packets exceed max_packets={max_packets}; "
                "shorten the horizon or shrink the flows"
            )
        # Pre-sample arrivals.
        arrivals: list[tuple[float, int]] = []
        for f in range(nf):
            rate = flows.volume[f] / self.packet_bytes
            if rate <= 0:
                continue
            n = rng.poisson(rate * horizon)
            if n:
                times = np.sort(rng.uniform(0.0, horizon, size=n))
                arrivals.extend((float(ti), f) for ti in times)
        arrivals.sort()
        if len(arrivals) > max_packets:  # Poisson tail above the estimate
            raise ValueError(
                f"{len(arrivals)} packets exceed max_packets={max_packets}; "
                "shorten the horizon or shrink the flows"
            )

        # Link state: next time each output becomes free.
        free_at = np.zeros(n_links)
        busy = np.zeros(n_links)
        qtime = np.zeros(n_links)
        pkts = np.zeros(n_links, dtype=np.int64)

        lat_sum = np.zeros(nf)
        lat_min_sum = np.zeros(nf)
        delivered = np.zeros(nf, dtype=np.int64)
        took_minimal = np.zeros(nf, dtype=np.int64)
        routed = np.zeros(nf, dtype=np.int64)

        # Event heap: (time, seq, packet, kind) — kind 0=inject, 1=hop done.
        heap: list[tuple[float, int, _Packet]] = []
        seq = 0

        def backlog(route: list[int], now: float) -> float:
            """Worst queueing delay (in service units) along a route."""
            worst = 0.0
            for link in route:
                wait = (free_at[link] - now) / max(self._service[link], 1e-12)
                if wait > worst:
                    worst = wait
            return worst

        for t0, f in arrivals:
            pkt = _Packet(
                flow=f, src=int(flows.src[f]), dst=int(flows.dst[f]), created=t0
            )
            heapq.heappush(heap, (t0, seq, pkt))
            seq += 1

        # Process: each pop either routes a fresh packet (injection) or
        # advances one hop.
        while heap:
            now, _, pkt = heapq.heappop(heap)
            if pkt.route is None:
                f = pkt.flow
                route_min = self.minimal_route(pkt.src, pkt.dst, rng)
                if adaptive and len(route_min) > 0:
                    route_val = self.valiant_route(pkt.src, pkt.dst, rng)
                    q_min = backlog(route_min, now)
                    q_val = backlog(route_val, now)
                    # UGAL: take the detour only if the minimal route's
                    # backlog clearly outweighs the Valiant candidate's,
                    # accounting for its extra hops.
                    if q_min + len(route_min) > q_val + len(route_val) + UGAL_BIAS:
                        pkt.route = route_val
                    else:
                        pkt.route = route_min
                        took_minimal[f] += 1
                else:
                    pkt.route = route_min
                    took_minimal[f] += 1
                routed[f] += 1
                lat_min_sum[f] += float(
                    sum(self._service[link] for link in pkt.route)
                )
            if pkt.hop >= len(pkt.route):
                lat_sum[pkt.flow] += now - pkt.created
                delivered[pkt.flow] += 1
                continue
            link = pkt.route[pkt.hop]
            start = max(now, free_at[link])
            finish = start + self._service[link]
            qtime[link] += start - now
            busy[link] += self._service[link]
            pkts[link] += 1
            free_at[link] = finish
            pkt.hop += 1
            heapq.heappush(heap, (finish, seq, pkt))
            seq += 1

        return DESResult(
            horizon=horizon,
            link_stats=LinkStats(busy_time=busy, queue_time=qtime, packets=pkts),
            flow_latency=lat_sum / np.maximum(delivered, 1),
            flow_latency_min=lat_min_sum / np.maximum(routed, 1),
            flow_packets=delivered,
            minimal_fraction=took_minimal / np.maximum(routed, 1),
        )
