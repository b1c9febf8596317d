"""Traffic descriptions: router-level flow sets and pattern builders.

A :class:`FlowSet` is the unit of traffic the congestion engine consumes:
arrays of (source router, destination router, bytes/second).  Application
models and the background-workload generator build flow sets from
communication patterns at *node* granularity; everything is aggregated to
router granularity immediately, which keeps flow counts bounded by the
square of a job's router span rather than its rank count (8,192–32,768
MPI ranks in the paper's runs).

Builders provided here cover the patterns the four paper codes and the
background archetypes need: d-dimensional halo exchanges, recursive-doubling
allreduce, router-level all-to-all, uniform-random background traffic, and
striped I/O traffic towards LNET routers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.dragonfly import DragonflyTopology


@dataclass
class FlowSet:
    """Router-level traffic: ``volume[i]`` bytes/s from ``src[i]`` to ``dst[i]``.

    Attributes
    ----------
    src, dst:
        Router ids (int64 arrays of equal length).
    volume:
        Bytes per second carried by each flow.
    response_ratio:
        Reverse (response-VC) traffic as a fraction of forward volume; used
        only for processor-tile VC4 counter synthesis, not routed over the
        fabric (responses are small compared with data flits).
    """

    src: np.ndarray
    dst: np.ndarray
    volume: np.ndarray
    response_ratio: float = 0.08

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.volume = np.asarray(self.volume, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.volume)):
            raise ValueError("src, dst, volume must have equal length")
        if len(self.volume) and self.volume.min() < 0:
            raise ValueError("flow volumes must be non-negative")

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.src)

    @property
    def total_volume(self) -> float:
        """Aggregate bytes/s over all flows."""
        return float(self.volume.sum())

    def scaled(self, factor: float) -> "FlowSet":
        """A copy with all volumes multiplied by ``factor``."""
        return FlowSet(self.src, self.dst, self.volume * factor, self.response_ratio)

    def aggregated(self, num_routers: int) -> "FlowSet":
        """Merge duplicate (src, dst) pairs, summing volumes.

        Both branches sum each pair's volumes in entry order (``bincount``
        accumulates sequentially), so they produce bit-identical totals;
        the dense branch merely replaces the sort behind ``np.unique``
        with a direct scatter when the key space is small enough to
        afford a routers^2 scratch vector.
        """
        if len(self) == 0:
            return self
        key = self.src * num_routers + self.dst
        n_keys = num_routers * num_routers
        if n_keys <= 4 * len(key) and n_keys <= 16_000_000:
            counts = np.bincount(key, minlength=n_keys)
            vol_sum = np.bincount(key, weights=self.volume, minlength=n_keys)
            uniq = np.flatnonzero(counts)
            vol = vol_sum[uniq]
        else:
            uniq, inv = np.unique(key, return_inverse=True)
            vol = np.bincount(inv, weights=self.volume, minlength=len(uniq))
        return FlowSet(
            uniq // num_routers, uniq % num_routers, vol, self.response_ratio
        )

    @staticmethod
    def concat(parts: list["FlowSet"]) -> "FlowSet":
        """Concatenate flow sets (volume-weighted mean response ratio)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return FlowSet.empty()
        tot = sum(p.total_volume for p in parts)
        rr = (
            sum(p.response_ratio * p.total_volume for p in parts) / tot
            if tot > 0
            else 0.0
        )
        return FlowSet(
            np.concatenate([p.src for p in parts]),
            np.concatenate([p.dst for p in parts]),
            np.concatenate([p.volume for p in parts]),
            rr,
        )

    @staticmethod
    def empty() -> "FlowSet":
        z = np.empty(0, dtype=np.int64)
        return FlowSet(z, z.copy(), np.empty(0, dtype=np.float64))


# ---------------------------------------------------------------------------
# Node-level -> router-level helpers
# ---------------------------------------------------------------------------


def node_flows_to_router_flows(
    topology: DragonflyTopology,
    src_nodes: np.ndarray,
    dst_nodes: np.ndarray,
    volumes: np.ndarray,
    response_ratio: float = 0.08,
    drop_local: bool = True,
) -> FlowSet:
    """Aggregate node-to-node traffic to router-to-router flows.

    Traffic between nodes on the *same* router never enters the fabric and
    is dropped by default (it still shows up in processor-tile counters via
    the engine's endpoint accounting when kept; the paper's codes place one
    rank set per node, so same-node traffic is already excluded upstream).
    """
    src_r = topology.node_router(np.asarray(src_nodes))
    dst_r = topology.node_router(np.asarray(dst_nodes))
    vol = np.asarray(volumes, dtype=np.float64)
    if drop_local:
        keep = src_r != dst_r
        src_r, dst_r, vol = src_r[keep], dst_r[keep], vol[keep]
    fs = FlowSet(src_r, dst_r, vol, response_ratio)
    return fs.aggregated(topology.num_routers)


# ---------------------------------------------------------------------------
# Pattern builders
# ---------------------------------------------------------------------------


def rank_to_node(ranks: np.ndarray, ranks_per_node: int) -> np.ndarray:
    """Block mapping of MPI ranks onto nodes (SLURM default)."""
    return np.asarray(ranks) // ranks_per_node


def halo_flows(
    topology: DragonflyTopology,
    nodes: np.ndarray,
    grid: tuple[int, ...],
    bytes_per_neighbor: float,
    ranks_per_node: int,
    periodic: bool = True,
    response_ratio: float = 0.08,
) -> FlowSet:
    """d-dimensional nearest-neighbour halo exchange (±1 per dimension).

    Ranks are laid out in row-major order over ``grid`` and mapped to
    ``nodes`` in blocks of ``ranks_per_node``.  Each rank sends
    ``bytes_per_neighbor`` bytes/s to each of its 2·d face neighbours
    (MILC's 4-D stencil, AMG/UMT's 3-D exchanges; paper §III-A).
    """
    nodes = np.asarray(nodes)
    nranks = int(np.prod(grid))
    if nranks != len(nodes) * ranks_per_node:
        raise ValueError(
            f"grid {grid} has {nranks} ranks but {len(nodes)} nodes x "
            f"{ranks_per_node} ranks/node = {len(nodes) * ranks_per_node}"
        )
    ranks = np.arange(nranks)
    # Row-major stride arithmetic: stepping dimension ``d`` moves the
    # rank id by ``strides[d]`` (with a wrap correction when periodic).
    # Integer-exact and far cheaper than materialising the (d, nranks)
    # coordinate matrix per direction.
    strides = np.ones(len(grid), dtype=np.int64)
    for d in range(len(grid) - 2, -1, -1):
        strides[d] = strides[d + 1] * grid[d + 1]
    src_list, dst_list = [], []
    for dim in range(len(grid)):
        c = (ranks // strides[dim]) % grid[dim]
        for step in (-1, +1):
            if periodic:
                wrapped = (c + step) % grid[dim]
                src_list.append(ranks)
                dst_list.append(ranks + (wrapped - c) * strides[dim])
            else:
                valid = ((c + step) >= 0) & ((c + step) < grid[dim])
                src_list.append(ranks[valid])
                dst_list.append(ranks[valid] + step * strides[dim])
    src_ranks = np.concatenate(src_list)
    dst_ranks = np.concatenate(dst_list)
    # Map the job's node list to routers once and gather per rank — the
    # same integers node_router() would produce entry for entry, without
    # running the coordinate arithmetic over every rank-level endpoint.
    node_r = topology.node_router(nodes)
    src_r = node_r[rank_to_node(src_ranks, ranks_per_node)]
    dst_r = node_r[rank_to_node(dst_ranks, ranks_per_node)]
    keep = src_r != dst_r
    src_r, dst_r = src_r[keep], dst_r[keep]
    vol = np.full(len(src_r), float(bytes_per_neighbor))
    fs = FlowSet(src_r, dst_r, vol, response_ratio)
    return fs.aggregated(topology.num_routers)


def allreduce_flows(
    topology: DragonflyTopology,
    nodes: np.ndarray,
    bytes_per_node: float,
    response_ratio: float = 0.3,
) -> FlowSet:
    """Recursive-doubling allreduce at node granularity.

    Stage ``k`` exchanges ``bytes_per_node`` between node ``i`` and node
    ``i XOR 2^k`` (within the job's node list); log2(n) stages.  Latency-
    sensitive small messages => higher response ratio (request/response
    round trips dominate)."""
    nodes = np.asarray(nodes)
    n = len(nodes)
    if n < 2:
        return FlowSet.empty()
    stages = int(np.ceil(np.log2(n)))
    idx = np.arange(n)
    src_list, dst_list = [], []
    for k in range(stages):
        peer = idx ^ (1 << k)
        valid = peer < n
        src_list.append(idx[valid])
        dst_list.append(peer[valid])
    src = nodes[np.concatenate(src_list)]
    dst = nodes[np.concatenate(dst_list)]
    vol = np.full(len(src), float(bytes_per_node))
    return node_flows_to_router_flows(topology, src, dst, vol, response_ratio)


def router_alltoall_flows(
    topology: DragonflyTopology,
    nodes: np.ndarray,
    total_bytes: float,
    response_ratio: float = 0.08,
    weights: np.ndarray | None = None,
) -> FlowSet:
    """All-to-all across the job's routers, ``total_bytes``/s in aggregate.

    ``weights`` (len = #routers of the job) skews per-router participation
    (miniVite's community-detection exchange is irregular; paper §III-A).
    """
    routers = np.unique(topology.node_router(np.asarray(nodes)))
    r = len(routers)
    if r < 2:
        return FlowSet.empty()
    if weights is None:
        weights = np.ones(r)
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    src = np.repeat(routers, r)
    dst = np.tile(routers, r)
    w = np.repeat(weights, r) * np.tile(weights, r)
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    w = w / w.sum()
    return FlowSet(src, dst, w * float(total_bytes), response_ratio)


def uniform_random_flows(
    topology: DragonflyTopology,
    nodes: np.ndarray,
    bytes_per_node: float,
    rng: np.random.Generator,
    fanout: int = 4,
    response_ratio: float = 0.08,
    node_weights: np.ndarray | None = None,
) -> FlowSet:
    """Each node sends to ``fanout`` random peers within the job.

    The workhorse pattern for background jobs whose real communication
    structure we do not model in detail.  ``node_weights`` skews per-node
    injection (master ranks / I/O aggregators move disproportionate
    volume); the total stays ``bytes_per_node * len(nodes)``.
    """
    nodes = np.asarray(nodes)
    n = len(nodes)
    if n < 2:
        return FlowSet.empty()
    if node_weights is None:
        node_weights = np.ones(n)
    node_weights = np.asarray(node_weights, dtype=np.float64)
    if len(node_weights) != n or (node_weights < 0).any():
        raise ValueError("node_weights must be non-negative, one per node")
    node_weights = node_weights * (n / node_weights.sum())
    fanout = min(fanout, n - 1)
    src = np.repeat(nodes, fanout)
    offs = rng.integers(1, n, size=n * fanout)
    dst = nodes[(np.repeat(np.arange(n), fanout) + offs) % n]
    vol = np.repeat(node_weights, fanout) * float(bytes_per_node) / fanout
    return node_flows_to_router_flows(topology, src, dst, vol, response_ratio)


def io_flows(
    topology: DragonflyTopology,
    nodes: np.ndarray,
    bytes_per_sec: float,
    read_fraction: float = 0.3,
    response_ratio: float = 0.05,
) -> FlowSet:
    """Filesystem traffic: job routers <-> LNET (I/O) routers, striped.

    Writes flow from compute routers to I/O routers, reads the other way;
    striping follows Lustre round-robin over the I/O routers (paper §III-C:
    LDMS organises counters by node role, compute vs I/O).
    """
    io_routers = topology.io_routers
    if len(io_routers) == 0 or bytes_per_sec <= 0:
        return FlowSet.empty()
    routers = np.unique(topology.node_router(np.asarray(nodes)))
    r = len(routers)
    stripe = io_routers[np.arange(r) % len(io_routers)]
    write_vol = bytes_per_sec * (1.0 - read_fraction) / r
    read_vol = bytes_per_sec * read_fraction / r
    src = np.concatenate([routers, stripe])
    dst = np.concatenate([stripe, routers])
    vol = np.concatenate([np.full(r, write_vol), np.full(r, read_vol)])
    fs = FlowSet(src, dst, vol, response_ratio)
    return fs.aggregated(topology.num_routers)
