"""A single distributed Louvain phase (the miniVite substrate).

miniVite performs one phase of Louvain community detection on a distributed
graph (paper §III-A; Ghosh et al., IPDPS 2018).  Its communication is
irregular and data-dependent: every iteration, vertices exchange community
membership with their neighbours across partition boundaries, and traffic
decays as the phase converges.

To ground the miniVite model in the real algorithm, this module *runs* a
Louvain phase on a synthetic stand-in graph (nlpkkt240 itself is a 28M-
vertex matrix we cannot ship): a 3-D-grid-plus-random-rewire graph with the
same flavour of locality.  The phase produces, per iteration,

* the modularity trajectory and vertices-moved counts, and
* a partition-to-partition traffic matrix (bytes), which the application
  model maps onto ranks/nodes/routers and rescales to nlpkkt240's edge
  count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes per cross-partition community update (vertex id + community id +
#: degree, as miniVite packs them).
UPDATE_BYTES = 24.0

#: nlpkkt240's published size (paper §III-A): ~28M vertices, ~373M edges.
NLPKKT240_VERTICES = 27_993_600
NLPKKT240_EDGES = 373_239_376


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph as a CSR adjacency.

    ``indices[indptr[v]:indptr[v + 1]]`` are ``v``'s neighbours in
    ascending order.  Every edge is stored in both directions, once
    each, and there are no self-loops.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2


def synthetic_kkt_graph(
    n: int, extra_degree: int = 6, rng: np.random.Generator | None = None
) -> Graph:
    """A 3-D-grid graph with random long-range edges (nlpkkt240 stand-in).

    nlpkkt240 arises from a PDE-constrained optimisation on a 3-D mesh, so
    it is locally grid-like with sparse global coupling.  ``n`` is rounded
    down to a perfect cube.  Duplicate random edges collapse into one.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    side = max(2, round(n ** (1 / 3)))
    n = side**3
    idx = np.arange(n)
    coords = np.array(np.unravel_index(idx, (side, side, side)))
    rows, cols = [], []
    for dim in range(3):
        nbr = coords.copy()
        valid = nbr[dim] + 1 < side
        nbr[dim] += 1
        j = np.ravel_multi_index(tuple(nbr[:, valid]), (side, side, side))
        rows.append(idx[valid])
        cols.append(j)
    # Random long-range edges (the KKT coupling blocks).
    m_extra = n * extra_degree // 2
    r = rng.integers(0, n, size=m_extra)
    c = rng.integers(0, n, size=m_extra)
    keep = r != c
    rows.append(r[keep])
    cols.append(c[keep])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    # Row-major keys of both directions; sorted and unique, they are the
    # CSR entries in order.
    keys = np.unique(np.concatenate([r * n + c, c * n + r]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return Graph(indptr=indptr, indices=keys % n)


@dataclass
class LouvainPhaseResult:
    """Outcome of one Louvain phase over a partitioned graph."""

    num_vertices: int
    num_edges: int
    num_partitions: int
    #: Modularity after each iteration.
    modularity: np.ndarray
    #: Vertices that changed community in each iteration.
    moved: np.ndarray
    #: (iterations, p, p) cross-partition bytes sent per iteration.
    partition_traffic: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.moved)

    def iteration_volumes(self) -> np.ndarray:
        """Total cross-partition bytes per iteration (decaying)."""
        return self.partition_traffic.sum(axis=(1, 2))

    def partition_weights(self) -> np.ndarray:
        """Relative per-partition traffic share over the whole phase."""
        tot = self.partition_traffic.sum(axis=0)
        w = tot.sum(axis=1) + tot.sum(axis=0)
        s = w.sum()
        return w / s if s > 0 else np.full(self.num_partitions, 1.0 / max(self.num_partitions, 1))

    def scale_to_graph(self, edges: int = NLPKKT240_EDGES) -> float:
        """Volume multiplier to rescale the stand-in to a larger graph."""
        return edges / max(self.num_edges, 1)


def _modularity(
    rows: np.ndarray, cols: np.ndarray, degrees: np.ndarray, communities: np.ndarray, two_m: float
) -> float:
    """Newman modularity of a partition over the edge list ``(rows, cols)``."""
    internal = np.count_nonzero(communities[rows] == communities[cols])
    comm_deg = np.bincount(communities, weights=degrees)
    return float(internal / two_m - ((comm_deg / two_m) ** 2).sum())


def run_louvain_phase(
    graph: Graph,
    num_partitions: int,
    max_iterations: int = 12,
    min_moved_fraction: float = 0.01,
    rng: np.random.Generator | None = None,
) -> LouvainPhaseResult:
    """Execute one Louvain phase and account its communication.

    Vertices are block-partitioned over ``num_partitions`` owners (miniVite
    distributes contiguous vertex ranges).  Each iteration scans vertices
    in random order and greedily moves each to the neighbouring community
    with the highest modularity gain; a vertex move generates one
    ``UPDATE_BYTES`` message to every remote partition that owns one of
    its neighbours.  Iteration 0 additionally pays a full ghost-community
    exchange over every cut edge.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = graph.num_vertices
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    indptr, indices = graph.indptr, graph.indices
    degrees = np.diff(indptr).astype(np.float64)
    two_m = float(degrees.sum())
    # The edge list (both directions, CSR order) is (rows, indices).
    rows = np.repeat(np.arange(n), np.diff(indptr))

    owner = np.minimum(
        (np.arange(n) * num_partitions) // n, num_partitions - 1
    )

    # The per-vertex scan runs over tiny neighbour lists, where numpy
    # array dispatch costs more than the arithmetic; plain Python
    # containers make the phase several times faster.  All gain/degree
    # arithmetic is IEEE double either way, performed operation for
    # operation in the same order as the vectorised formulas, so the
    # result is unchanged.  Per-vertex neighbour/owner structure is
    # loop-invariant and hoisted out of the iterations.
    nbrs_of = [indices[indptr[v]: indptr[v + 1]].tolist() for v in range(n)]
    owner_l = owner.tolist()
    remote_of = [
        sorted({owner_l[u] for u in nbrs_of[v]} - {owner_l[v]})
        for v in range(n)
    ]
    degrees_l = degrees.tolist()
    comm_l = list(range(n))
    comm_deg_l = degrees.tolist()  # sum of degrees per community
    two_m2 = two_m * two_m

    modularity: list[float] = []
    moved_counts: list[int] = []
    traffic: list[np.ndarray] = []

    for it in range(max_iterations):
        moved = 0
        tr = np.zeros((num_partitions, num_partitions))
        if it == 0:
            # Initial ghost exchange: every cut edge carries one update.
            cut = owner[rows] != owner[indices]
            np.add.at(tr, (owner[rows[cut]], owner[indices[cut]]), UPDATE_BYTES)
        tr_l = tr.tolist()
        order = rng.permutation(n)
        for v in order.tolist():
            nbrs = nbrs_of[v]
            if not nbrs:
                continue
            c_old = comm_l[v]
            # Edge weight towards each neighbouring community.
            counts: dict[int, int] = {}
            for u in nbrs:
                c = comm_l[u]
                counts[c] = counts.get(c, 0) + 1
            k_v = degrees_l[v]
            # Modularity gain of joining community c:
            #   w(v->c)/m - k_v * deg(c) / (2 m^2)   (constant terms drop)
            # Scanned in sorted community order with a strict ">" so the
            # winner is the first maximum, exactly like argmax over the
            # sorted-unique community vector.
            stay = 0.0
            best_c = -1
            best_gain = -np.inf
            for c in sorted(counts):
                deg_c = comm_deg_l[c] - k_v if c == c_old else comm_deg_l[c]
                g = counts[c] / two_m - k_v * deg_c / two_m2
                if c == c_old:
                    stay = g
                if g > best_gain:
                    best_gain = g
                    best_c = c
            if best_gain > stay + 1e-15 and best_c != c_old:
                comm_deg_l[c_old] -= k_v
                comm_deg_l[best_c] += k_v
                comm_l[v] = best_c
                moved += 1
                # Announce the move to remote owners of the neighbours.
                row = tr_l[owner_l[v]]
                for r in remote_of[v]:
                    row[r] += UPDATE_BYTES
        moved_counts.append(moved)
        traffic.append(np.array(tr_l))
        modularity.append(_modularity(rows, indices, degrees, np.asarray(comm_l), two_m))
        if moved < min_moved_fraction * n:
            break

    return LouvainPhaseResult(
        num_vertices=n,
        num_edges=graph.num_edges,
        num_partitions=num_partitions,
        modularity=np.asarray(modularity),
        moved=np.asarray(moved_counts),
        partition_traffic=np.asarray(traffic),
    )
