"""The Cray XC dragonfly topology with canonically indexed directed links.

Geometry (paper §II-A, Fig. 2)
------------------------------
Routers in a group form a ``row_size x col_size`` grid (16 x 6 on Cray XC,
96 routers).  The ``row_size`` routers sharing a grid row are connected
all-to-all by **green** (row) links; the ``col_size`` routers sharing a grid
column are connected all-to-all by **black** (column) links.  Groups are
connected by **blue** (global) links distributed round-robin over the
routers of each group.

Canonical link indexing
-----------------------
Every directed link has an integer id computed *arithmetically* from its
endpoints, which lets the routing layer translate millions of flow hops into
link ids with pure NumPy (no per-flow Python loops):

* green ids come first, ordered by (group, row, src position, dst position);
* black ids follow, ordered by (group, column, src row, dst row);
* blue ids last, ordered by (ordered group pair, parallel-link index).

Nodes
-----
``nodes_per_router`` compute nodes (NICs) attach to every router.  The first
``io_groups`` groups dedicate their grid column 0 to I/O (LNET) routers,
mirroring Cori's service blades; their nodes are I/O nodes and are excluded
from the compute pool.
"""

from __future__ import annotations

import enum
from functools import cached_property

import numpy as np

from repro.config import (
    BLACK_LINK_BW,
    BLUE_LINK_BW,
    GREEN_LINK_BW,
    ScalePreset,
    get_preset,
)
from repro.topology.base import Topology


class LinkKind(enum.IntEnum):
    """Dragonfly link classes, in canonical id order."""

    GREEN = 0  # intra-group, row (all-to-all within a grid row)
    BLACK = 1  # intra-group, column (all-to-all within a grid column)
    BLUE = 2  # inter-group global links


class DragonflyTopology(Topology):
    """A Cray-XC-style dragonfly network.

    Parameters
    ----------
    groups:
        Number of dragonfly groups.
    row_size:
        Routers per grid row (connected all-to-all with green links);
        16 on Cray XC.
    col_size:
        Routers per grid column (connected all-to-all with black links);
        6 on Cray XC.
    nodes_per_router:
        NICs per router (4 on Aries).
    global_multiplicity:
        Number of parallel blue links per ordered group pair.  ``None``
        derives a value that keeps per-router global-port counts close to
        the Aries budget (10 optical ports per router).
    io_groups:
        Number of groups whose grid column 0 hosts I/O routers.
    """

    kind = "dragonfly"
    link_kinds = LinkKind

    def __init__(
        self,
        groups: int,
        row_size: int,
        col_size: int,
        nodes_per_router: int = 4,
        global_multiplicity: int | None = None,
        io_groups: int = 1,
    ) -> None:
        if groups < 2:
            raise ValueError("a dragonfly needs at least 2 groups")
        if row_size < 2 or col_size < 2:
            raise ValueError("router grid must be at least 2 x 2")
        if nodes_per_router < 1:
            raise ValueError("nodes_per_router must be positive")
        if io_groups < 0 or io_groups > groups:
            raise ValueError("io_groups out of range")

        self.groups = groups
        self.row_size = row_size
        self.col_size = col_size
        self.nodes_per_router = nodes_per_router
        self.io_groups = io_groups
        self.routers_per_group = row_size * col_size

        if global_multiplicity is None:
            # Aries budget: ~10 optical ports/router => rpg*10 ports per
            # group shared by (groups-1) peers, at least 1.
            ports = self.routers_per_group * 10
            global_multiplicity = max(1, ports // max(1, (groups - 1)) // 2)
            global_multiplicity = min(global_multiplicity, self.routers_per_group)
        self.global_multiplicity = int(global_multiplicity)

        # --- canonical link-count bookkeeping -----------------------------
        self._green_per_row = row_size * (row_size - 1)  # directed
        self._green_per_group = col_size * self._green_per_row
        self.num_green = groups * self._green_per_group

        self._black_per_col = col_size * (col_size - 1)  # directed
        self._black_per_group = row_size * self._black_per_col
        self.num_black = groups * self._black_per_group

        self._pairs = groups * (groups - 1)  # ordered pairs
        self.num_blue = self._pairs * self.global_multiplicity

        self.green_base = 0
        self.black_base = self.num_green
        self.blue_base = self.num_green + self.num_black
        self.num_links = self.num_green + self.num_black + self.num_blue

        self.num_routers = groups * self.routers_per_group
        self.num_nodes = self.num_routers * nodes_per_router

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_preset(cls, preset: ScalePreset | str | None = None) -> "DragonflyTopology":
        """Build a topology from a :class:`~repro.config.ScalePreset`."""
        if preset is None or isinstance(preset, str):
            preset = get_preset(preset)
        return cls(
            groups=preset.groups,
            row_size=preset.rows,
            col_size=preset.cols,
            nodes_per_router=preset.nodes_per_router,
            io_groups=preset.io_groups,
        )

    def default_router(self, **kwargs):
        """The UGAL-style minimal/Valiant router for this geometry."""
        from repro.topology.routing import AdaptiveRouter

        return AdaptiveRouter(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Router coordinate arithmetic (all vectorised)
    # ------------------------------------------------------------------ #

    def router_row(self, router: np.ndarray | int):
        """Grid-row index (0..col_size-1) of each router."""
        local = np.asarray(router) % self.routers_per_group
        return local // self.row_size

    def router_pos(self, router: np.ndarray | int):
        """Position within the grid row (0..row_size-1) of each router."""
        local = np.asarray(router) % self.routers_per_group
        return local % self.row_size

    def router_id(self, group, row, pos):
        """Router id from (group, row, pos-in-row) coordinates."""
        return (
            np.asarray(group) * self.routers_per_group
            + np.asarray(row) * self.row_size
            + np.asarray(pos)
        )

    # ------------------------------------------------------------------ #
    # I/O pool
    # ------------------------------------------------------------------ #

    @cached_property
    def io_routers(self) -> np.ndarray:
        """Routers hosting I/O (LNET) nodes: grid column 0 of io groups."""
        out = []
        for g in range(self.io_groups):
            for row in range(self.col_size):
                out.append(int(self.router_id(g, row, 0)))
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Canonical link-id arithmetic (vectorised; the heart of fast routing)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _pair_offset(i, j, n: int):
        """Index of ordered pair (i, j), i != j, within all-to-all of size n."""
        i = np.asarray(i)
        j = np.asarray(j)
        return i * (n - 1) + np.where(j < i, j, j - 1)

    def green_link(self, group, row, src_pos, dst_pos):
        """Id of the green link (group, row): src_pos -> dst_pos."""
        base = (
            np.asarray(group) * self._green_per_group
            + np.asarray(row) * self._green_per_row
        )
        return self.green_base + base + self._pair_offset(src_pos, dst_pos, self.row_size)

    def black_link(self, group, pos, src_row, dst_row):
        """Id of the black link (group, column=pos): src_row -> dst_row."""
        base = (
            np.asarray(group) * self._black_per_group
            + np.asarray(pos) * self._black_per_col
        )
        return self.black_base + base + self._pair_offset(src_row, dst_row, self.col_size)

    def _group_pair_index(self, src_group, dst_group):
        return self._pair_offset(src_group, dst_group, self.groups)

    def blue_link(self, src_group, dst_group, channel=0):
        """Id of the ``channel``-th blue link from src_group to dst_group."""
        return (
            self.blue_base
            + self._group_pair_index(src_group, dst_group) * self.global_multiplicity
            + np.asarray(channel)
        )

    def blue_gateway(self, src_group, dst_group, channel=0):
        """Router in ``src_group`` that owns the given blue link.

        Blue links are spread round-robin: the links of group *g* towards
        its j-th peer (peers ordered by group id, skipping g) terminate on
        routers ``(j * multiplicity + channel) mod routers_per_group``.
        """
        src_group = np.asarray(src_group)
        dst_group = np.asarray(dst_group)
        peer_rank = np.where(dst_group < src_group, dst_group, dst_group - 1)
        local = (peer_rank * self.global_multiplicity + np.asarray(channel)) % (
            self.routers_per_group
        )
        return src_group * self.routers_per_group + local

    # ------------------------------------------------------------------ #
    # Link attribute vectors
    # ------------------------------------------------------------------ #

    @cached_property
    def link_kind(self) -> np.ndarray:
        """Per-link :class:`LinkKind` value (int8 vector)."""
        kinds = np.empty(self.num_links, dtype=np.int8)
        kinds[: self.black_base] = LinkKind.GREEN
        kinds[self.black_base : self.blue_base] = LinkKind.BLACK
        kinds[self.blue_base :] = LinkKind.BLUE
        return kinds

    @cached_property
    def link_capacity(self) -> np.ndarray:
        """Per-link capacity in bytes/second."""
        cap = np.empty(self.num_links, dtype=np.float64)
        cap[: self.black_base] = GREEN_LINK_BW
        cap[self.black_base : self.blue_base] = BLACK_LINK_BW
        cap[self.blue_base :] = BLUE_LINK_BW
        return cap

    @cached_property
    def link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(src_router, dst_router) arrays for every directed link id."""
        src = np.empty(self.num_links, dtype=np.int64)
        dst = np.empty(self.num_links, dtype=np.int64)

        # Green links.
        ids = np.arange(self.num_green)
        group = ids // self._green_per_group
        rem = ids % self._green_per_group
        row = rem // self._green_per_row
        pair = rem % self._green_per_row
        i = pair // (self.row_size - 1)
        jr = pair % (self.row_size - 1)
        j = np.where(jr < i, jr, jr + 1)
        src[ids] = self.router_id(group, row, i)
        dst[ids] = self.router_id(group, row, j)

        # Black links.
        ids = np.arange(self.num_black)
        group = ids // self._black_per_group
        rem = ids % self._black_per_group
        pos = rem // self._black_per_col
        pair = rem % self._black_per_col
        i = pair // (self.col_size - 1)
        jr = pair % (self.col_size - 1)
        j = np.where(jr < i, jr, jr + 1)
        src[self.black_base + ids] = self.router_id(group, i, pos)
        dst[self.black_base + ids] = self.router_id(group, j, pos)

        # Blue links.
        ids = np.arange(self.num_blue)
        pair = ids // self.global_multiplicity
        chan = ids % self.global_multiplicity
        a = pair // (self.groups - 1)
        br = pair % (self.groups - 1)
        b = np.where(br < a, br, br + 1)
        src[self.blue_base + ids] = self.blue_gateway(a, b, chan)
        dst[self.blue_base + ids] = self.blue_gateway(b, a, chan)
        return src, dst

    def describe(self) -> str:
        """One-line summary of the topology."""
        return (
            f"dragonfly(groups={self.groups}, grid={self.row_size}x{self.col_size}, "
            f"routers={self.num_routers}, nodes={self.num_nodes}, "
            f"links={self.num_links} [g{self.num_green}/b{self.num_black}/"
            f"B{self.num_blue}], blue_mult={self.global_multiplicity})"
        )
