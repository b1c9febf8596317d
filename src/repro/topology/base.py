"""The ``Topology`` protocol: what every network implementation provides.

The congestion engine, traffic builders, scheduler, LDMS sampler and
placement features never ask *which* network they run on — they consume
the surface defined here: canonically indexed directed links with
per-link capacities and kinds, router/node index arithmetic, and the
compute/I-O node pools.  A topology implementation supplies

* the link tables (:attr:`link_capacity`, :attr:`link_kind`,
  :attr:`link_endpoints`) over its own canonical link-id scheme;
* the node ↔ router mapping (:meth:`node_router`, :meth:`router_nodes`)
  and the I/O pool roots (:attr:`io_routers`);
* a :meth:`default_router` building the router that turns flows into
  weighted link incidences for this geometry.

Group-major router numbering is part of the contract: router ids within
group *g* occupy ``[g * routers_per_group, (g+1) * routers_per_group)``
so consumers can recover a router's group with one integer division.

Implementations register themselves in :mod:`repro.topology.registry`,
which makes ``(topology, routing)`` an addressable campaign axis.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ScalePreset
    from repro.topology.routing import GroupRouter


@dataclass(frozen=True)
class RouterLinks:
    """The links that end at a subset of routers (see
    :meth:`Topology.router_links`).

    ``links`` lists those link ids in ascending order and ``bins`` gives
    each one's destination as a position in ``routers``.
    """

    routers: np.ndarray
    links: np.ndarray
    bins: np.ndarray


class Topology(abc.ABC):
    """Abstract base of every network geometry (see module docstring).

    Subclass ``__init__`` must set the integer shape attributes
    (``groups``, ``routers_per_group``, ``nodes_per_router``,
    ``num_routers``, ``num_nodes``, ``num_links``, ``io_groups``) before
    any of the shared helpers below are used.
    """

    #: Registry name of the geometry family (``dragonfly``, ``df+``, ...).
    kind: ClassVar[str] = ""
    #: The link-class enum of this geometry, in canonical id order.
    link_kinds: ClassVar[type[enum.IntEnum]]

    groups: int
    routers_per_group: int
    nodes_per_router: int
    num_routers: int
    num_nodes: int
    num_links: int
    io_groups: int

    # ------------------------------------------------------------------ #
    # Abstract surface
    # ------------------------------------------------------------------ #

    @classmethod
    @abc.abstractmethod
    def from_preset(cls, preset: "ScalePreset | str | None" = None) -> "Topology":
        """Build this geometry from a :class:`~repro.config.ScalePreset`."""

    @abc.abstractmethod
    def default_router(self, **kwargs) -> GroupRouter:
        """The minimal/Valiant router for this geometry (a
        :class:`repro.topology.routing.GroupRouter` subclass)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human-readable summary of the topology."""

    @property
    @abc.abstractmethod
    def link_capacity(self) -> np.ndarray:
        """Per-link capacity in bytes/second (``num_links`` floats)."""

    @property
    @abc.abstractmethod
    def link_kind(self) -> np.ndarray:
        """Per-link :attr:`link_kinds` value (int8 vector)."""

    @property
    @abc.abstractmethod
    def link_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(src_router, dst_router) arrays for every directed link id."""

    @property
    @abc.abstractmethod
    def io_routers(self) -> np.ndarray:
        """Routers hosting I/O (LNET) nodes."""

    # ------------------------------------------------------------------ #
    # Shared arithmetic (identical across geometries by construction)
    # ------------------------------------------------------------------ #

    def router_group(self, router: np.ndarray | int) -> np.ndarray | int:
        """Group index of each router (group-major numbering)."""
        return np.asarray(router) // self.routers_per_group if isinstance(
            router, np.ndarray
        ) else router // self.routers_per_group

    def node_router(self, node: np.ndarray | int):
        """Router to which each node's NIC attaches.

        The default assumes every router hosts ``nodes_per_router``
        nodes; geometries whose nodes attach to a router subset (e.g.
        Dragonfly+ leaves) override this.
        """
        return np.asarray(node) // self.nodes_per_router if isinstance(
            node, np.ndarray
        ) else node // self.nodes_per_router

    def router_nodes(self, router: int) -> np.ndarray:
        """Nodes attached to one router."""
        base = router * self.nodes_per_router
        return np.arange(base, base + self.nodes_per_router)

    # ------------------------------------------------------------------ #
    # Cached link -> router incidence (router-tile aggregation)
    # ------------------------------------------------------------------ #

    @cached_property
    def link_dst(self) -> np.ndarray:
        """Destination router of every directed link (cached view of
        :attr:`link_endpoints`; the router-tile aggregation axis)."""
        return self.link_endpoints[1]

    @cached_property
    def link_dst_counts(self) -> np.ndarray:
        """Number of links terminating at each router (int64, cached).

        Integer-valued and deterministic, so caching it cannot perturb
        any floating-point result downstream.
        """
        return np.bincount(self.link_dst, minlength=self.num_routers)

    def router_links(self, routers: np.ndarray) -> RouterLinks:
        """The links ending at ``routers`` (unique router ids), for
        :meth:`router_link_sums` over that subset."""
        routers = np.asarray(routers)
        pos = np.full(self.num_routers, -1, dtype=np.int64)
        pos[routers] = np.arange(len(routers))
        bins = pos[self.link_dst]
        links = np.flatnonzero(bins >= 0)
        return RouterLinks(routers=routers, links=links, bins=bins[links])

    def router_link_sums(
        self, per_link: np.ndarray, subset: RouterLinks | None = None
    ) -> np.ndarray:
        """Sum a per-link metric into its destination router, batched.

        Accepts a ``(links,)`` vector or a ``(steps, links)`` matrix and
        returns ``(routers,)`` / ``(steps, routers)``.  Each row uses
        ``np.bincount``, which accumulates weights in element order —
        the same per-bin FP accumulation order as a per-state bincount,
        so batched and per-step results are bit-identical (unlike
        ``np.add.reduceat``, whose SIMD partial sums reorder the adds).

        With a ``subset`` (:meth:`router_links`) only the subset's links
        are read and the result has one column per subset router.  Each
        of those routers' bins sees the same links in the same (link id)
        order as in the full sum, so its column is bit-equal to the
        full result's.
        """
        if subset is None:
            dst = self.link_dst
            r = self.num_routers
        else:
            # ``take`` returns C order, so the ravel below copies nothing.
            per_link = np.take(per_link, subset.links, axis=-1)
            dst = subset.bins
            r = len(subset.routers)
        if per_link.ndim == 1:
            return np.bincount(dst, weights=per_link, minlength=r)
        # One flattened bincount over (step, router) keys: row-major
        # flattening visits entries row by row in link order, so every
        # (step, router) bin accumulates in the same element order as a
        # per-row bincount would.
        steps = per_link.shape[0]
        keys = (np.arange(steps, dtype=np.int64)[:, None] * r + dst).ravel()
        return np.bincount(
            keys, weights=per_link.ravel(), minlength=steps * r
        ).reshape(steps, r)

    @cached_property
    def io_router_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_routers, dtype=bool)
        mask[self.io_routers] = True
        return mask

    @cached_property
    def io_nodes(self) -> np.ndarray:
        """Nodes attached to I/O routers."""
        if len(self.io_routers) == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [self.router_nodes(int(r)) for r in self.io_routers]
        )

    @cached_property
    def compute_nodes(self) -> np.ndarray:
        """Nodes available to the batch scheduler (all minus I/O nodes)."""
        mask = np.ones(self.num_nodes, dtype=bool)
        mask[self.io_nodes] = False
        return np.flatnonzero(mask)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"
