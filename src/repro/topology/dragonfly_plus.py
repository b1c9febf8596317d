"""Dragonfly+ topology: two-level fat groups with a leaf/spine split.

Geometry (Kang et al., arXiv:2406.15097)
----------------------------------------
Each group is a two-level fat tree: ``leaf_size`` leaf routers hosting all
the group's compute nodes, connected bipartite all-to-all by **up** /
**down** links to ``spine_size`` spine routers.  Spine routers own the
**global** links that connect groups all-to-all, distributed round-robin
like dragonfly blue links.  Nodes never attach to spines.

Canonical link indexing
-----------------------
* up ids first, ordered by (group, leaf, spine);
* down ids next, same (group, leaf, spine) ordering with src/dst swapped;
* global ids last, ordered by (ordered group pair, parallel-link index).

Router numbering is group-major with leaves first: within group ``g``,
local ids ``[0, leaf_size)`` are leaves and ``[leaf_size,
routers_per_group)`` are spines, preserving the base-class contract that
``router // routers_per_group`` recovers the group.
"""

from __future__ import annotations

import enum
from functools import cached_property

import numpy as np

from repro.config import (
    BLUE_LINK_BW,
    GREEN_LINK_BW,
    ScalePreset,
    get_preset,
)
from repro.topology.base import Topology
from repro.topology.routing import GroupRouter


class PlusLinkKind(enum.IntEnum):
    """Dragonfly+ link classes, in canonical id order."""

    UP = 0  # leaf -> spine within a group
    DOWN = 1  # spine -> leaf within a group
    GLOBAL = 2  # inter-group links between spine routers


class DragonflyPlusTopology(Topology):
    """A Dragonfly+ network of two-level fat groups.

    Parameters
    ----------
    groups:
        Number of groups (>= 1; a single-group instance has no global
        links and is useful for routing edge-case tests).
    leaf_size:
        Leaf routers per group; all compute nodes attach here.
    spine_size:
        Spine routers per group; these own the global links.
    nodes_per_router:
        NICs per *leaf* router.
    global_multiplicity:
        Parallel global links per ordered group pair.  ``None`` derives a
        value from the spine optical-port budget (10 ports per spine).
    io_groups:
        Number of groups whose leaf 0 hosts I/O routers.
    """

    kind = "df+"
    link_kinds = PlusLinkKind

    def __init__(
        self,
        groups: int,
        leaf_size: int,
        spine_size: int,
        nodes_per_router: int = 4,
        global_multiplicity: int | None = None,
        io_groups: int = 1,
    ) -> None:
        if groups < 1:
            raise ValueError("dragonfly+ needs at least 1 group")
        if leaf_size < 1 or spine_size < 1:
            raise ValueError("leaf_size and spine_size must be positive")
        if nodes_per_router < 1:
            raise ValueError("nodes_per_router must be positive")
        if io_groups < 0 or io_groups > groups:
            raise ValueError("io_groups out of range")

        self.groups = groups
        self.leaf_size = leaf_size
        self.spine_size = spine_size
        self.nodes_per_router = nodes_per_router
        self.io_groups = io_groups
        self.routers_per_group = leaf_size + spine_size

        if global_multiplicity is None:
            # Spine budget: ~10 optical ports/spine shared by the
            # (groups-1) peer groups, at least 1.
            ports = spine_size * 10
            global_multiplicity = max(1, ports // max(1, (groups - 1)) // 2)
            global_multiplicity = min(global_multiplicity, spine_size)
        self.global_multiplicity = int(global_multiplicity)

        # --- canonical link-count bookkeeping -----------------------------
        self._updown_per_group = leaf_size * spine_size
        self.num_up = groups * self._updown_per_group
        self.num_down = self.num_up

        self._pairs = groups * (groups - 1)  # ordered pairs
        self.num_global = self._pairs * self.global_multiplicity

        self.up_base = 0
        self.down_base = self.num_up
        self.global_base = self.num_up + self.num_down
        self.num_links = self.num_up + self.num_down + self.num_global

        self.num_routers = groups * self.routers_per_group
        self.num_nodes = groups * leaf_size * nodes_per_router

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_preset(
        cls, preset: ScalePreset | str | None = None
    ) -> "DragonflyPlusTopology":
        """Build a topology from a :class:`~repro.config.ScalePreset`.

        The preset's ``rows x cols`` router grid is split into leaves and
        spines (leaves get the larger half), keeping router counts — and
        therefore campaign cost — comparable to the dragonfly cell.
        Endpoint capacity is preserved too: the nodes the full grid would
        host all attach to the leaves (fatter leaf switches, as deployed
        Dragonfly+ machines do), so a campaign's job mix — including its
        largest probes — schedules identically on either topology.
        """
        if preset is None or isinstance(preset, str):
            preset = get_preset(preset)
        total = preset.rows * preset.cols
        if total < 2:
            raise ValueError("dragonfly+ preset needs at least 2 routers/group")
        leaf = (total + 1) // 2
        nodes_per_leaf = -(-preset.nodes_per_router * total // leaf)  # ceil
        return cls(
            groups=preset.groups,
            leaf_size=leaf,
            spine_size=total - leaf,
            nodes_per_router=nodes_per_leaf,
            io_groups=preset.io_groups,
        )

    def default_router(self, **kwargs):
        """The minimal/Valiant router for this geometry."""
        return DragonflyPlusRouter(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Router coordinate arithmetic (all vectorised)
    # ------------------------------------------------------------------ #

    def router_local(self, router: np.ndarray | int):
        """Local id within the group (leaves first, then spines)."""
        return np.asarray(router) % self.routers_per_group

    def is_leaf(self, router: np.ndarray | int):
        """True for leaf routers (the ones hosting nodes)."""
        return self.router_local(router) < self.leaf_size

    def leaf_id(self, group, leaf):
        """Router id of the ``leaf``-th leaf of ``group``."""
        return np.asarray(group) * self.routers_per_group + np.asarray(leaf)

    def spine_id(self, group, spine):
        """Router id of the ``spine``-th spine of ``group``."""
        return (
            np.asarray(group) * self.routers_per_group
            + self.leaf_size
            + np.asarray(spine)
        )

    # ------------------------------------------------------------------ #
    # Node <-> router mapping (nodes only attach to leaves)
    # ------------------------------------------------------------------ #

    def node_router(self, node: np.ndarray | int):
        """Leaf router of each node (spines host no nodes)."""
        node = np.asarray(node)
        per_group = self.leaf_size * self.nodes_per_router
        group = node // per_group
        leaf = (node % per_group) // self.nodes_per_router
        out = group * self.routers_per_group + leaf
        return out if out.ndim else int(out)

    def router_nodes(self, router: int) -> np.ndarray:
        """Nodes attached to one router (empty for spines)."""
        group, local = divmod(router, self.routers_per_group)
        if local >= self.leaf_size:
            return np.empty(0, dtype=np.int64)
        base = (group * self.leaf_size + local) * self.nodes_per_router
        return np.arange(base, base + self.nodes_per_router)

    @cached_property
    def io_routers(self) -> np.ndarray:
        """Routers hosting I/O (LNET) nodes: leaf 0 of the io groups."""
        return np.asarray(
            [int(self.leaf_id(g, 0)) for g in range(self.io_groups)],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------ #
    # Canonical link-id arithmetic (vectorised)
    # ------------------------------------------------------------------ #

    def up_link(self, group, leaf, spine):
        """Id of the up link leaf -> spine within ``group``."""
        return (
            self.up_base
            + np.asarray(group) * self._updown_per_group
            + np.asarray(leaf) * self.spine_size
            + np.asarray(spine)
        )

    def down_link(self, group, spine, leaf):
        """Id of the down link spine -> leaf within ``group``."""
        return (
            self.down_base
            + np.asarray(group) * self._updown_per_group
            + np.asarray(leaf) * self.spine_size
            + np.asarray(spine)
        )

    @staticmethod
    def _pair_offset(i, j, n: int):
        """Index of ordered pair (i, j), i != j, within all-to-all of size n."""
        i = np.asarray(i)
        j = np.asarray(j)
        return i * (n - 1) + np.where(j < i, j, j - 1)

    def global_link(self, src_group, dst_group, channel=0):
        """Id of the ``channel``-th global link from src_group to dst_group."""
        return (
            self.global_base
            + self._pair_offset(src_group, dst_group, self.groups)
            * self.global_multiplicity
            + np.asarray(channel)
        )

    def global_gateway(self, src_group, dst_group, channel=0):
        """Spine router in ``src_group`` owning the given global link.

        Global links are spread round-robin over spines, mirroring the
        dragonfly blue-gateway rule.
        """
        src_group = np.asarray(src_group)
        dst_group = np.asarray(dst_group)
        peer_rank = np.where(dst_group < src_group, dst_group, dst_group - 1)
        local = (peer_rank * self.global_multiplicity + np.asarray(channel)) % (
            self.spine_size
        )
        return src_group * self.routers_per_group + self.leaf_size + local

    # ------------------------------------------------------------------ #
    # Link attribute vectors
    # ------------------------------------------------------------------ #

    @cached_property
    def link_kind(self) -> np.ndarray:
        """Per-link :class:`PlusLinkKind` value (int8 vector)."""
        kinds = np.empty(self.num_links, dtype=np.int8)
        kinds[: self.down_base] = PlusLinkKind.UP
        kinds[self.down_base : self.global_base] = PlusLinkKind.DOWN
        kinds[self.global_base :] = PlusLinkKind.GLOBAL
        return kinds

    @cached_property
    def link_capacity(self) -> np.ndarray:
        """Per-link capacity in bytes/second (up/down = electrical,
        global = optical)."""
        cap = np.empty(self.num_links, dtype=np.float64)
        cap[: self.global_base] = GREEN_LINK_BW
        cap[self.global_base :] = BLUE_LINK_BW
        return cap

    @cached_property
    def link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(src_router, dst_router) arrays for every directed link id."""
        src = np.empty(self.num_links, dtype=np.int64)
        dst = np.empty(self.num_links, dtype=np.int64)

        # Up and down links share the (group, leaf, spine) decomposition.
        ids = np.arange(self.num_up)
        group = ids // self._updown_per_group
        rem = ids % self._updown_per_group
        leaf = self.leaf_id(group, rem // self.spine_size)
        spine = self.spine_id(group, rem % self.spine_size)
        src[ids] = leaf
        dst[ids] = spine
        src[self.down_base + ids] = spine
        dst[self.down_base + ids] = leaf

        # Global links.
        if self.num_global:
            ids = np.arange(self.num_global)
            pair = ids // self.global_multiplicity
            chan = ids % self.global_multiplicity
            a = pair // (self.groups - 1)
            br = pair % (self.groups - 1)
            b = np.where(br < a, br, br + 1)
            src[self.global_base + ids] = self.global_gateway(a, b, chan)
            dst[self.global_base + ids] = self.global_gateway(b, a, chan)
        return src, dst

    def describe(self) -> str:
        """One-line summary of the topology."""
        return (
            f"dragonfly+(groups={self.groups}, "
            f"leaf/spine={self.leaf_size}/{self.spine_size}, "
            f"routers={self.num_routers}, nodes={self.num_nodes}, "
            f"links={self.num_links} [u{self.num_up}/d{self.num_down}/"
            f"G{self.num_global}], global_mult={self.global_multiplicity})"
        )


class DragonflyPlusRouter(GroupRouter):
    """Minimal + Valiant expansion over a Dragonfly+'s up/down/global
    links, with a fast path for flow sets whose endpoints are all leaves."""

    # Defined in the class body (not only inherited) so that per-class
    # patching through ``vars(DragonflyPlusRouter)`` finds it.
    route = GroupRouter.route

    def __init__(
        self,
        topology: DragonflyPlusTopology,
        spine_channels: int = 2,
        global_channels: int = 2,
        valiant_samples: int = 2,
    ) -> None:
        """
        Parameters
        ----------
        topology:
            The Dragonfly+ to route over.
        spine_channels:
            Spines used per intra-group (leaf, leaf) segment; traffic is
            spread evenly over them (ECMP over the fat-tree stage).
        global_channels:
            Parallel global links used per (flow, group-pair).
        valiant_samples:
            Intermediate groups sampled per flow for the non-minimal set.
        """
        super().__init__(topology, global_channels, valiant_samples)
        self.spine_channels = min(spine_channels, topology.spine_size)

    def _expand(
        self, minimal, valiant, src, dst, sg, dg, same_group, inter, rng, fid
    ) -> None:
        topo = self.topology
        ls = src % topo.routers_per_group
        ld = dst % topo.routers_per_group
        if bool((ls < topo.leaf_size).all()) and bool(
            (ld < topo.leaf_size).all()
        ):
            # Nodes only attach to leaves, so every flow set built from
            # node placements lands here; each segment then has a single
            # statically-known leaf/spine case and the general per-case
            # masking in _intra_segment is pure overhead.
            self._route_all_leaf(
                minimal, valiant, sg, dg, ls, ld, src, dst,
                same_group, inter, rng, fid,
            )
        else:
            super()._expand(
                minimal, valiant, src, dst, sg, dg, same_group, inter, rng, fid
            )

    def _route_all_leaf(
        self, minimal, valiant, sg, dg, ls, ld, src, dst, same_group, inter,
        rng, fid,
    ) -> None:
        """Specialised expansion for flow sets with only leaf endpoints.

        Emits bit-identical triplets to the general
        :meth:`~repro.topology.routing.GroupRouter._expand` (same link ids,
        same shares, same entry order — entry order matters because
        ``Incidence.link_loads`` and ``LinkLoadSink`` accumulate per-bin
        sums in entry order).
        Each general-path segment resolves to one fixed case here:

        * minimal intra       -> leaf-leaf ECMP bounce;
        * minimal inter       -> up + global + down;
        * Valiant intra legs  -> leaf-leaf bounces (mid may equal dst);
        * Valiant inter hop 1 -> up + global (the landing spine *is* the
          sampled gateway, so the general path's second segment is empty);
        * Valiant inter hop 2 -> spine-spine bounce + global + down.
        """
        topo = self.topology
        mult = topo.global_multiplicity
        leaf = topo.leaf_size
        spine = topo.spine_size
        updown = topo._updown_per_group
        up_base, down_base = topo.up_base, topo.down_base

        # ---- minimal + Valiant, intra-group --------------------------- #
        idx = np.flatnonzero(same_group)
        if len(idx):
            g, la, lb = sg[idx], ls[idx], ld[idx]
            self._leaf_leaf(minimal, idx, g, la, lb, np.ones(len(idx)))

            mids = self._sample_intra_mid(src[idx], dst[idx], g, rng)
            lm = mids % topo.routers_per_group
            share = np.full(len(idx), 1.0)
            self._leaf_leaf(valiant, idx, g, la, lm, share)
            m = lm != lb  # the sampled mid may coincide with dst
            if m.any():
                self._leaf_leaf(valiant, idx[m], g[m], lm[m], lb[m], share[m])

        # ---- minimal + Valiant, inter-group --------------------------- #
        idx = np.flatnonzero(inter)
        if not len(idx):
            return
        g_s, g_d, la, lb = sg[idx], dg[idx], ls[idx], ld[idx]
        f = fid[idx]
        up0 = up_base + g_s * updown + la * spine
        dn0 = down_base + g_d * updown + lb * spine

        peer_d = np.where(g_d < g_s, g_d, g_d - 1)
        peer_s = np.where(g_s < g_d, g_s, g_s - 1)
        pd_m = peer_d * mult
        ps_m = peer_s * mult
        glob0 = topo.global_base + (g_s * (topo.groups - 1) + peer_d) * mult

        share = np.full(len(idx), 1.0 / self.global_channels)
        for t in range(self.global_channels):
            chan = (f + t) % mult
            minimal.add(idx, up0 + (pd_m + chan) % spine, share)
            minimal.add(idx, glob0 + chan, share)
            minimal.add(idx, dn0 + (ps_m + chan) % spine, share)

        if topo.groups <= 2:
            # No third group: the Valiant set degenerates to minimal.
            for t in range(self.global_channels):
                chan = (f + t) % mult
                valiant.add(idx, up0 + (pd_m + chan) % spine, share)
                valiant.add(idx, glob0 + chan, share)
                valiant.add(idx, dn0 + (ps_m + chan) % spine, share)
            return

        k = self.valiant_samples
        share = np.full(len(idx), 1.0 / k)
        for s in range(k):
            g_i = self._sample_intermediate_group(g_s, g_d, s, rng)
            chan = (f + s) % mult
            chan2 = (f + s + 1) % mult
            # Hop 1: src leaf -> gateway spine of sg -> global to g_i.
            peer_i = np.where(g_i < g_s, g_i, g_i - 1)
            valiant.add(idx, up0 + (peer_i * mult + chan) % spine, share)
            valiant.add(
                idx,
                topo.global_base + (g_s * (topo.groups - 1) + peer_i) * mult + chan,
                share,
            )
            # Hop 2 inside g_i: landing spine -> departure spine (a
            # down+up bounce through a leaf unless they coincide).
            rank_s = np.where(g_s < g_i, g_s, g_s - 1)
            rank_d = np.where(g_d < g_i, g_d, g_d - 1)
            l_in = leaf + (rank_s * mult + chan) % spine
            l_out = leaf + (rank_d * mult + chan2) % spine
            m = l_in != l_out
            if m.any():
                mid = (l_in[m] + l_out[m]) % leaf
                base = g_i[m] * updown + mid * spine
                sh = share[m]
                valiant.add(idx[m], down_base + base + (l_in[m] - leaf), sh)
                valiant.add(idx[m], up_base + base + (l_out[m] - leaf), sh)
            valiant.add(
                idx,
                topo.global_base + (g_i * (topo.groups - 1) + rank_d) * mult + chan2,
                share,
            )
            # Landing spine of g_d -> dst leaf.
            peer_i2 = np.where(g_i < g_d, g_i, g_i - 1)
            valiant.add(idx, dn0 + (peer_i2 * mult + chan2) % spine, share)

    def _leaf_leaf(self, out, fi, g, la, lb, share) -> None:
        """Leaf -> leaf ECMP bounce over ``spine_channels`` spines."""
        topo = self.topology
        sh = share / self.spine_channels
        up0 = topo.up_base + g * topo._updown_per_group + la * topo.spine_size
        dn0 = topo.down_base + g * topo._updown_per_group + lb * topo.spine_size
        s0 = la + lb
        for c in range(self.spine_channels):
            sp = (s0 + c) % topo.spine_size
            out.add(fi, up0 + sp, sh)
            out.add(fi, dn0 + sp, sh)

    # ------------------------------------------------------------------ #
    # Segment expansion helpers (all vectorised over flow subsets)
    # ------------------------------------------------------------------ #

    def _intra_segment(self, out, flow_idx, group, a, b, share) -> None:
        """Add links of the minimal intra-group route a -> b (same group).

        leaf -> leaf crosses up + down via ``spine_channels`` spines
        (ECMP); segments touching a spine endpoint (gateway legs) use the
        single up or down link; spine -> spine bounces through one leaf.
        """
        topo = self.topology
        la = topo.router_local(a)
        lb = topo.router_local(b)
        same = la == lb
        a_leaf = la < topo.leaf_size
        b_leaf = lb < topo.leaf_size

        leaf_leaf = a_leaf & b_leaf & ~same
        if leaf_leaf.any():
            m = leaf_leaf
            self._leaf_leaf(out, flow_idx[m], group[m], la[m], lb[m], share[m])

        leaf_spine = a_leaf & ~b_leaf
        if leaf_spine.any():
            m = leaf_spine
            out.add(
                flow_idx[m],
                topo.up_link(group[m], la[m], lb[m] - topo.leaf_size),
                share[m],
            )

        spine_leaf = ~a_leaf & b_leaf
        if spine_leaf.any():
            m = spine_leaf
            out.add(
                flow_idx[m],
                topo.down_link(group[m], la[m] - topo.leaf_size, lb[m]),
                share[m],
            )

        spine_spine = ~a_leaf & ~b_leaf & ~same
        if spine_spine.any():
            m = spine_spine
            g, fi, sh = group[m], flow_idx[m], share[m]
            mid = (la[m] + lb[m]) % topo.leaf_size
            out.add(fi, topo.down_link(g, la[m] - topo.leaf_size, mid), sh)
            out.add(fi, topo.up_link(g, mid, lb[m] - topo.leaf_size), sh)

    def _sample_intra_mid(self, src, dst, group, rng) -> np.ndarray:
        """Intermediate leaf within the group (Valiant leg)."""
        topo = self.topology
        n = len(src)
        if topo.leaf_size == 1:
            # Single leaf per group: no distinct intermediate exists.
            return dst.copy()
        la = topo.router_local(src)
        if rng is None:
            offs = (src * 7919 + dst * 104729) % (topo.leaf_size - 1) + 1
        else:
            offs = rng.integers(1, topo.leaf_size, size=n)
        return topo.leaf_id(group, (la + offs) % topo.leaf_size)

    def _gateway(self, src_group, dst_group, chan) -> np.ndarray:
        return self.topology.global_gateway(src_group, dst_group, chan)

    def _global_link(self, src_group, dst_group, chan) -> np.ndarray:
        return self.topology.global_link(src_group, dst_group, chan)
