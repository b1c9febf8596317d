"""Campaign driver: four months of probe runs on the shared machine.

The runner reproduces the paper's data collection (§III):

1. generate the background job stream and our probe submissions
   (1–2 jobs per application per day, December 2018 – April 2019);
2. schedule everything through the Slurm-like queue — probes get whatever
   fragmented placement is free when they start;
3. execute every probe run step by step against the *evolving* background
   traffic, recording per-step times, AriesNCL counters, LDMS io/sys
   aggregates, placements, neighbourhoods and mpiP profiles;
4. assemble the six datasets (plus the long MILC run used for Fig. 12).

Performance design (the campaign solves ~40k network states):

* background link loads change only at job start/end events, so a single
  chronological sweep maintains an additive :class:`BaseLoad` accumulator
  (O(#links) per event);
* each probe run's routing geometry is built once; its steps are then
  solved in blocks — ``(steps, links)`` vector work plus per-flow
  ``maximum`` passes for the UGAL split — and its counters are
  synthesized only on the routers the datasets read;
* everything *outside* the chronological sweep — per-job traffic routing
  and every probe run's step solves — fans out over a process pool (see
  :mod:`repro.campaign.parallel`); ``REPRO_WORKERS`` (which a CLI's
  ``--workers`` sets) picks the worker count, and any count produces
  bit-identical datasets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.apps.base import Application, StepModel
from repro.apps.registry import DATASET_KEYS, get_application
from repro.campaign import parallel as par
from repro.campaign.datasets import (
    CACHE_FORMAT_VERSION,
    Campaign,
    RunDataset,
    RunRecord,
)
from repro.config import DEFAULT_SEED, ScalePreset, get_preset, rng_for
from repro.network.engine import (
    BaseLoad,
    CongestionEngine,
    slowdown_curve,
)
from repro.obs import METRICS, annotate, event, get_logger, span
from repro.network.traffic import (
    FlowSet,
    allreduce_flows,
    io_flows,
    router_alltoall_flows,
    uniform_random_flows,
)
from repro.parallel import WorkerPool, chunked
from repro.system.jobs import JobRecord, JobRequest
from repro.system.scheduler import Scheduler
from repro.system.users import UserPopulation
from repro.system.workload import DAY, BackgroundWorkloadGenerator
from repro.telemetry.sacct import SacctLog
from repro.topology.base import Topology
from repro.topology.placement import job_routers
from repro.topology.registry import (
    DEFAULT_CELL,
    canonical_routing,
    canonical_topology,
)
from repro.topology.routing import Incidence

#: Cori's KNL partition size; background job sizes scale relative to it.
CORI_KNL_NODES = 9688

_LOG = get_logger("campaign")

#: Fingerprint version: bump when the generation pipeline changes in a way
#: that invalidates cached campaigns.
_PIPELINE_VERSION = 12

#: Counter attribution (what a job's AriesNCL reading actually sees):
#:
#: * Processor-tile *flit* counters are per-NIC: the job reads the tiles of
#:   its own nodes, so it counts only its own endpoint traffic — and that
#:   volume is fixed by the step's workload (congestion stretches a
#:   transfer, it does not add flits), so it integrates over the *nominal*
#:   step work.
#: * Router-tile flit counters are shared per router: the job sees its own
#:   flits (nominal work) plus every tenant's fabric traffic crossing its
#:   routers, which accrues for the full realised step duration.
#: * All stall counters reflect shared backpressure (row/column buses and
#:   link queues) at the *congested* rate for the realised duration.
_PT_FLIT_FAMILY = {"PT_FLIT_VC0", "PT_FLIT_VC4", "PT_FLIT_TOT", "PT_PKT_TOT"}
_RT_FLIT_FAMILY = {"RT_FLIT_TOT", "RT_PKT_TOT"}

#: Short-timescale background "breathing": application phases (collectives
#: vs compute, checkpoint waves) make aggregate traffic fluctuate on
#: second-to-minute scales around the scheduler-determined level.
#: Modelled as a per-run lognormal Ornstein-Uhlenbeck multiplier on the
#: background load, correlation time BURST_TAU seconds.  This temporal
#: structure is what the forecasting models exploit: a longer context m
#: denoises the current level, and a larger horizon k amortises bursts
#: (the paper's Fig. 8/10 trends, §V-C).
BURST_SIGMA = 0.35
BURST_TAU = 45.0

#: Counter sampling jitter (AriesNCL reads are not perfectly aligned with
#: step boundaries; LDMS samples at 1 Hz).
COUNTER_NOISE = 0.05


def _burst_series(
    midpoints: np.ndarray, rng: np.random.Generator,
    sigma: float = BURST_SIGMA, tau: float = BURST_TAU,
) -> np.ndarray:
    """Lognormal OU multiplier sampled at a run's step midpoints."""
    n = len(midpoints)
    x = np.empty(n)
    x[0] = rng.normal()
    for i in range(1, n):
        rho = float(np.exp(-max(midpoints[i] - midpoints[i - 1], 0.0) / tau))
        x[i] = rho * x[i - 1] + np.sqrt(max(1 - rho * rho, 0.0)) * rng.normal()
    return np.exp(sigma * x - 0.5 * sigma * sigma)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign generation."""

    preset: ScalePreset
    days: float = 120.0
    seed: int = DEFAULT_SEED
    dataset_keys: tuple[str, ...] = tuple(DATASET_KEYS)
    #: Min/max probe submissions per (app, day) — paper: "one or two".
    probes_per_day: tuple[int, int] = (1, 2)
    #: Global multiplier on background traffic intensities (calibration).
    background_intensity: float = 1.0
    #: Fraction of compute nodes the background keeps busy on average
    #: (production systems run near-full; lower at tiny scale so the
    #: 512-node probes can still fit).
    target_utilization: float = 0.75
    #: Long probe runs for the Fig. 12 experiment: dataset key -> steps.
    long_runs: tuple[tuple[str, int], ...] = (("MILC-128", 620),)
    #: Cache generated datasets on disk.
    use_cache: bool = True
    #: The campaign's network cell on the (topology, routing) axis; names
    #: resolve through :mod:`repro.topology.registry` (aliases accepted).
    topology: str = DEFAULT_CELL[0]
    routing: str = DEFAULT_CELL[1]

    def __post_init__(self) -> None:
        # Canonicalise the cell so aliases ("df", "adaptive", ...) and the
        # canonical names fingerprint identically.
        object.__setattr__(self, "topology", canonical_topology(self.topology))
        object.__setattr__(self, "routing", canonical_routing(self.routing))

    # ------------------------------------------------------------------ #

    @classmethod
    def small(cls, **overrides) -> "CampaignConfig":
        """Benchmark-scale campaign (the default for all figures)."""
        return cls(preset=get_preset("small"), **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "CampaignConfig":
        """Test-scale campaign: a 960-node machine, a few days."""
        preset = ScalePreset(
            name="campaign-tiny", groups=10, rows=6, cols=4, nodes_per_router=4
        )
        defaults = dict(
            preset=preset,
            days=6.0,
            probes_per_day=(1, 1),
            long_runs=(("MILC-128", 160),),
            target_utilization=0.45,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @property
    def node_scale(self) -> float:
        """Background job-size scale relative to Cori's KNL partition."""
        return self.preset.num_nodes / CORI_KNL_NODES

    @property
    def min_neighbor_nodes(self) -> int:
        """Neighbourhood size filter, scaled like the background jobs
        (paper uses 128 nodes on Cori, §V-A)."""
        return max(8, int(round(128 * self.node_scale)))

    @property
    def cell(self) -> tuple[str, str]:
        """The canonical ``(topology, routing)`` pair."""
        return (self.topology, self.routing)

    @property
    def cell_id(self) -> str:
        """The cell rendered as an id string (``dragonfly/ugal``)."""
        return f"{self.topology}/{self.routing}"

    def fingerprint(self) -> str:
        payload = {
            "v": _PIPELINE_VERSION,
            "fmt": CACHE_FORMAT_VERSION,
            "preset": [
                self.preset.groups,
                self.preset.rows,
                self.preset.cols,
                self.preset.nodes_per_router,
                self.preset.io_groups,
            ],
            "days": self.days,
            "seed": self.seed,
            "keys": list(self.dataset_keys),
            "ppd": list(self.probes_per_day),
            "bg": self.background_intensity,
            "util": self.target_utilization,
            "long": [list(x) for x in self.long_runs],
        }
        # The default cell omits the key entirely so pre-axis fingerprints
        # (cached campaigns, CI caches, bench baselines) stay valid.
        if self.cell != DEFAULT_CELL:
            payload["cell"] = [self.topology, self.routing]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Batched probe solver
# --------------------------------------------------------------------------- #


#: Discount on middle-hop congestion in the per-flow slowdown.  UGAL-style
#: adaptive routing can steer around congested *intermediate* links by
#: picking other minimal/Valiant candidates, but the first and last hops —
#: the links adjacent to the flow's source and destination routers — are
#: unavoidable (Kim et al., ISCA'08).  This is what makes stall counters on
#: the job's *own* routers the dominant deviation signal (paper §V-B).
MID_HOP_DISCOUNT = 0.55


def _sort_key(values: np.ndarray) -> np.ndarray:
    """Non-negative ints in the narrowest unsigned dtype that holds them.

    A stable sort's output is unique, so the dtype only picks the
    algorithm: NumPy radix-sorts 8- and 16-bit keys.
    """
    if not len(values):
        return values
    return values.astype(np.min_scalar_type(values.max()), copy=False)


class _SegMax:
    """Per-flow maximum of a per-link metric, taken in passes.

    ``flow``/``link`` are the incidence entries to reduce over (e.g. only
    the endpoint-adjacent ones), stably sorted by flow so each flow's
    links form one segment in incidence order.

    Construction ranks the flows by segment length, longest first.  Pass
    ``p`` holds the ``p``-th link of every flow that has one, in rank
    order; those flows are a prefix of the ranking, so each pass updates
    a leading slice of the accumulator.  Only the per-pass link ids and
    the ranked flow ids are kept.
    """

    def __init__(self, flow: np.ndarray, link: np.ndarray, n_flows: int) -> None:
        self.n_flows = n_flows
        #: Accumulator column -> flow id, longest segment first.
        self.flows = np.empty(0, dtype=np.int64)
        #: Link ids of pass ``p``, for accumulator columns ``[0, len)``.
        self.passes: list[np.ndarray] = []
        if not len(flow):
            return
        starts = np.flatnonzero(np.r_[True, flow[1:] != flow[:-1]])
        counts = np.diff(np.r_[starts, len(flow)])
        rank = np.argsort(_sort_key(counts.max() - counts), kind="stable")
        head = starts[rank]
        self.flows = flow[head]
        # widths[p]: how many flows have more than p links.  Each pass is
        # one gather at its flows' segment heads, so building them all
        # touches every entry once.
        widths = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
        self.passes = [link[head[:w] + p] for p, w in enumerate(widths.tolist())]

    def block(self, per_link: np.ndarray) -> np.ndarray:
        """``(steps, links)`` -> ``(steps, flows)`` per-flow maxima.

        The first pass gathers each flow's first link; every later pass
        takes ``np.maximum`` with the next link of the flows that have
        one, in place on a leading slice of the accumulator.  Flows with
        no entry stay 0.  ``maximum`` is exact (no rounding) and each
        flow meets its links in their incidence order, so every value is
        bit-identical to a ``maximum.reduceat`` over the flow's segment.
        """
        out = np.zeros((per_link.shape[0], self.n_flows))
        if self.passes:
            acc = per_link[:, self.passes[0]]
            for links in self.passes[1:]:
                head = acc[:, : len(links)]
                np.maximum(head, per_link[:, links], out=head)
            out[:, self.flows] = acc
        return out


class ProbeRunContext:
    """Placement-bound solving state for one probe run.

    Construction is deterministic (no RNG), so any process can rebuild
    an identical context from ``(app, topology, engine, nodes)`` — the
    property the parallel executor relies on.
    """

    def __init__(
        self,
        app: Application,
        topology: Topology,
        engine: CongestionEngine,
        nodes: np.ndarray,
        step_model: StepModel,
    ) -> None:
        self.app = app
        self.topology = topology
        self.engine = engine
        self.nodes = nodes
        self.step_model = step_model
        self.routers = job_routers(topology, nodes)
        # The links ending at the job's routers: the only ones whose
        # router sums the job's counters need beyond the LDMS totals.
        self.job_links = topology.router_links(self.routers)

        flows = app.flow_geometry(topology, nodes)
        self.flows = flows
        # Only construction reads the routing incidences, so they stay
        # local instead of living on in every cached context.
        routing = engine.route(flows).routing
        n_links = topology.num_links
        vol = flows.volume
        self.load_min = routing.minimal.link_loads(vol, n_links)
        self.load_val = routing.valiant.link_loads(vol, n_links)
        # Split each path set into endpoint-adjacent ("edge") hops, which
        # adaptive routing cannot avoid, and middle hops, which it can
        # partially steer around (see MID_HOP_DISCOUNT).  One stable sort
        # per path set puts its edge entries first, each half grouped by
        # flow with a flow's entries in incidence order.
        ls, ld = topology.link_endpoints

        def _edge_mid(inc: Incidence) -> tuple[_SegMax, _SegMax]:
            mid = (ls[inc.link] != flows.src[inc.flow]) & (
                ld[inc.link] != flows.dst[inc.flow]
            )
            key = _sort_key(mid * len(flows) + inc.flow)
            order = np.argsort(key, kind="stable")
            flow, link = inc.flow[order], inc.link[order]
            n_edge = len(flow) - np.count_nonzero(mid)
            return (
                _SegMax(flow[:n_edge], link[:n_edge], len(flows)),
                _SegMax(flow[n_edge:], link[n_edge:], len(flows)),
            )

        self.seg_min_edge, self.seg_min_mid = _edge_mid(routing.minimal)
        self.seg_val_edge, self.seg_val_mid = _edge_mid(routing.valiant)
        r = topology.num_routers
        self.inj_unit = np.bincount(flows.src, weights=vol, minlength=r)
        self.ej_unit = np.bincount(flows.dst, weights=vol, minlength=r)
        self.vc4_unit = self.inj_unit * flows.response_ratio
        self.vol_weights = vol / vol.sum() if vol.sum() > 0 else vol

    def mean_contribution(self) -> BaseLoad:
        """This probe's average traffic, as seen by *other* jobs."""
        a0 = self.engine.alpha0
        return BaseLoad(
            link_loads=a0 * self.load_min + (1 - a0) * self.load_val,
            inj=self.inj_unit.copy(),
            ej=self.ej_unit.copy(),
            vc4=self.vc4_unit.copy(),
        )

    def solve_steps(
        self, base: BaseLoad, intensities: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Solve a block of steps in one pass.

        ``base`` carries the per-step background stacked as
        ``(steps, links)`` / ``(steps, routers)`` arrays; ``intensities``
        is one probe intensity per step.  Returns ``(link_loads, inj,
        ej, vc4, fabric, endpoint)``: the solved per-step state arrays
        plus the per-step volume-weighted slowdown scalars.

        Bit-identical to solving each step alone: every batched
        operation is either elementwise/broadcast (same scalar
        arithmetic per element), an exact ``maximum`` reduction
        (:meth:`_SegMax.block`), or an explicitly per-row 1-D dot —
        2-D matmul is avoided because BLAS gemv/gemm reorder the
        accumulation and would change low-order bits.
        """
        from repro.config import NIC_BW

        topo = self.topology
        eng = self.engine
        cap = topo.link_capacity
        s = np.asarray(intensities)[:, None]
        n = s.shape[0]
        a0 = eng.alpha0

        # a0 and the fixed path-set vectors are step-invariant, so the
        # first-pass mix is computed once for the block (same expression,
        # same value, as a one-step solve).  The (steps, links) results
        # are written into one buffer, operand by operand in the one-step
        # order (a single IEEE add or multiply is commutative).
        mix0 = a0 * self.load_min + (1 - a0) * self.load_val
        util0 = s * mix0
        util0 += base.link_loads
        util0 /= cap
        u_min = np.maximum(
            self.seg_min_edge.block(util0),
            MID_HOP_DISCOUNT * self.seg_min_mid.block(util0),
        )
        u_val = np.maximum(
            self.seg_val_edge.block(util0),
            MID_HOP_DISCOUNT * self.seg_val_mid.block(util0),
        )
        if eng.pinned:
            # Pinned policies fix the split exactly (the UGAL clip band
            # must not pull a pure-minimal/pure-Valiant split inward).
            alpha_f = np.full(u_min.shape, a0)
        else:
            alpha_f = np.clip(a0 + eng.ugal_gain * (u_val - u_min), 0.25, 0.98)
        w = self.vol_weights
        if len(w):
            a = np.empty(n)
            for i in range(n):
                a[i] = float(alpha_f[i] @ w)
        else:
            a = np.full(n, a0)

        # base + s * (a * load_min + (1 - a) * load_val), reusing util0's
        # buffer for the second product.
        loads = a[:, None] * self.load_min
        loads += np.multiply((1 - a)[:, None], self.load_val, out=util0)
        loads *= s
        loads += base.link_loads
        inj = s * self.inj_unit
        inj += base.inj
        ej = s * self.ej_unit
        ej += base.ej
        vc4 = s * self.vc4_unit
        vc4 += base.vc4

        path_util = alpha_f * u_min + (1.0 - alpha_f) * u_val
        fabric = slowdown_curve(path_util)
        nic_util = (inj + ej) / (topo.nodes_per_router * NIC_BW)
        if len(self.flows):
            # Axis-1 advanced indexing yields a Fortran-ordered array;
            # force C order so each row below is a contiguous vector —
            # the strided-row dot kernel rounds differently from the
            # contiguous one a one-step solve uses.
            ep_util = np.ascontiguousarray(
                np.maximum(
                    nic_util[:, self.flows.src], nic_util[:, self.flows.dst]
                )
            )
        else:
            ep_util = np.empty((n, 0))
        endpoint = slowdown_curve(ep_util)
        fabric_s = np.empty(n)
        endpoint_s = np.empty(n)
        if len(w):
            for i in range(n):
                fabric_s[i] = float(fabric[i] @ w)
                endpoint_s[i] = float(endpoint[i] @ w)
        else:
            fabric_s[:] = 1.0
            endpoint_s[:] = 1.0
        return loads, inj, ej, vc4, fabric_s, endpoint_s


# --------------------------------------------------------------------------- #
# Background traffic
# --------------------------------------------------------------------------- #


#: Lognormal sigma of per-node injection skew within background jobs.
#: Master ranks and I/O aggregators concentrate endpoint traffic, so the
#: NIC pressure a probe sees at a *shared* router is a local lottery —
#: largely decorrelated from the machine-wide fabric load.  This is what
#: separates the endpoint (PT-stall) deviation channel from the fabric
#: (RT-stall) channel in the datasets.
ENDPOINT_SKEW_SIGMA = 1.2


class BackgroundTrafficModel:
    """Builds each background job's additive BaseLoad contribution."""

    def __init__(
        self,
        topology: Topology,
        engine: CongestionEngine,
        population: UserPopulation,
        intensity: float,
        seed: int,
    ) -> None:
        self.topology = topology
        self.engine = engine
        self.population = population
        self.intensity = intensity
        self.seed = seed

    def flows_for(self, job_id: int, user: str, nodes: np.ndarray) -> FlowSet:
        arch = self.population.by_name(user)
        rng = rng_for("bgflows", job_id, seed=self.seed)
        n = len(nodes)
        comm_total = arch.comm_intensity * n * self.intensity
        node_weights = rng.lognormal(0.0, ENDPOINT_SKEW_SIGMA, size=n)
        parts: list[FlowSet] = []
        if arch.pattern == "alltoall":
            routers = np.unique(self.topology.node_router(nodes))
            router_w = np.bincount(
                np.searchsorted(routers, self.topology.node_router(nodes)),
                weights=node_weights,
                minlength=len(routers),
            )
            parts.append(
                router_alltoall_flows(
                    self.topology,
                    nodes,
                    comm_total,
                    arch.response_ratio,
                    weights=router_w + 1e-12,
                )
            )
        elif arch.pattern == "allreduce":
            parts.append(
                allreduce_flows(
                    self.topology,
                    nodes,
                    bytes_per_node=arch.comm_intensity * self.intensity,
                    response_ratio=arch.response_ratio,
                )
            )
        else:  # uniform
            parts.append(
                uniform_random_flows(
                    self.topology,
                    nodes,
                    bytes_per_node=arch.comm_intensity * self.intensity,
                    rng=rng,
                    fanout=3,
                    response_ratio=arch.response_ratio,
                    node_weights=node_weights,
                )
            )
        # Filesystem traffic is built separately (see
        # contributions_for_batch()) so the timeline can modulate it with
        # the bursty I/O weather.
        return FlowSet.concat(parts)

    def _solve_static_batch(self, flow_sets: list[FlowSet]) -> list[BaseLoad]:
        """Route and bin-sum many flow sets in one pass: one static
        ``BaseLoad`` (at the engine's base UGAL split) per set.

        Each set's result is bit-identical to solving that set alone: the
        router's deterministic samplers key on ``(src, dst)`` and the
        per-set flow index (restored via ``flow_ids``), never on position
        within the call, so the concatenated routing emits each flow's
        solo links.  Per-``(set, link)`` bincount keys then preserve each
        set's accumulation order — entries for different sets land in
        different bins, so every bin sums the exact solo sequence.
        """
        topo = self.topology
        n_sets = len(flow_sets)
        num_links = topo.num_links
        r = topo.num_routers
        sizes = np.array([len(fs) for fs in flow_sets], dtype=np.int64)
        if sizes.sum() == 0:
            return [BaseLoad.zeros(topo) for _ in flow_sets]
        src = np.concatenate([fs.src for fs in flow_sets])
        dst = np.concatenate([fs.dst for fs in flow_sets])
        vol = np.concatenate([fs.volume for fs in flow_sets])
        fid = np.concatenate([np.arange(s, dtype=np.int64) for s in sizes])
        routing = self.engine.router.route(src, dst, rng=None, flow_ids=fid)
        set_of = np.repeat(np.arange(n_sets, dtype=np.int64), sizes)
        a0 = self.engine.alpha0

        def loads2(inc, vols: np.ndarray) -> np.ndarray:
            if not inc.nnz:
                return np.zeros((n_sets, num_links))
            return np.bincount(
                set_of[inc.flow] * num_links + inc.link,
                weights=vols[inc.flow] * inc.share,
                minlength=n_sets * num_links,
            ).reshape(n_sets, num_links)

        link2 = loads2(routing.minimal, vol * a0)
        link2 += loads2(routing.valiant, vol * (1.0 - a0))
        inj2 = np.bincount(
            set_of * r + src, weights=vol, minlength=n_sets * r
        ).reshape(n_sets, r)
        ej2 = np.bincount(
            set_of * r + dst, weights=vol, minlength=n_sets * r
        ).reshape(n_sets, r)
        return [
            BaseLoad(
                link_loads=link2[j].copy(),
                inj=inj2[j].copy(),
                ej=ej2[j].copy(),
                vc4=inj2[j] * fs.response_ratio,
            )
            for j, fs in enumerate(flow_sets)
        ]

    def contributions_for_batch(
        self, specs: list[tuple[int, str, np.ndarray]]
    ) -> list[tuple[BaseLoad, BaseLoad]]:
        """(steady communication, filesystem) contributions per
        ``(job_id, user, nodes)`` spec.

        The I/O part is kept separate so the timeline can modulate it with
        the bursty filesystem "weather" (see :class:`IOWeather`).  Specs
        are plain fields rather than :class:`JobRecord` objects so worker
        processes receive slim, picklable tasks.  Builds every job's flow
        geometry, then routes and bin-sums all of them in two
        :meth:`_solve_static_batch` passes (communication and filesystem)
        — the cold campaign path hands each worker its whole chunk at once.
        """
        comm_sets = [
            self.flows_for(job_id, user, nodes)
            for job_id, user, nodes in specs
        ]
        comm = self._solve_static_batch(comm_sets)
        io: list[BaseLoad] = [BaseLoad.zeros(self.topology) for _ in specs]
        io_idx: list[int] = []
        io_sets: list[FlowSet] = []
        for i, (_, user, nodes) in enumerate(specs):
            arch = self.population.by_name(user)
            if arch.io_intensity > 0:
                io_idx.append(i)
                io_sets.append(
                    io_flows(
                        self.topology,
                        nodes,
                        bytes_per_sec=arch.io_intensity
                        * len(nodes)
                        * self.intensity,
                    )
                )
        if io_sets:
            for i, load in zip(io_idx, self._solve_static_batch(io_sets)):
                io[i] = load
        return list(zip(comm, io))


class IOWeather:
    """Bursty machine-wide filesystem activity multiplier.

    Filesystem load on production systems is famously bursty: checkpoint
    waves, staging campaigns and scrubbing drive order-of-magnitude swings
    on timescales of minutes to hours.  Modelled as a lognormal AR(1)
    (Ornstein-Uhlenbeck in log space) sampled on an hourly grid; mean 1.

    This burstiness matters twice for the reproduction: it decorrelates
    *fabric* congestion (I/O crosses global links) from *endpoint*
    congestion (I/O never lands on a compute job's NICs), and it is the
    signal behind the paper's finding that system-wide I/O counters are
    the top forecasting feature for bandwidth-bound MILC (§V-C).
    """

    def __init__(
        self,
        horizon: float,
        rng: np.random.Generator,
        step: float = 1800.0,
        sigma: float = 0.9,
        correlation: float = 0.92,
    ) -> None:
        n = max(2, int(np.ceil(horizon / step)) + 2)
        log_w = np.empty(n)
        log_w[0] = rng.normal(0.0, sigma)
        innov = rng.normal(0.0, sigma * np.sqrt(1 - correlation**2), size=n)
        for i in range(1, n):
            log_w[i] = correlation * log_w[i - 1] + innov[i]
        # Mean-one normalisation of the lognormal.
        self._w = np.exp(log_w - 0.5 * sigma**2)
        self._step = step

    def at(self, t: float) -> float:
        """Multiplier at time ``t`` (piecewise constant)."""
        i = min(int(max(t, 0.0) / self._step), len(self._w) - 1)
        return float(self._w[i])


class TrafficTimeline:
    """Chronological sweep over job start/end events with additive
    accumulators for steady (comm) and weather-modulated (io) traffic.

    The sweep is the campaign's one inherently serial pass: callers
    :meth:`advance` through non-decreasing sample times and
    :meth:`snapshot` the raw ``(comm, io)`` accumulators whenever events
    were folded in.  Scalar modulation (the per-run comm "breathing" and
    the filesystem weather) and the exclusion of a probe's own traffic
    are applied later, per step, by whichever process solves the run —
    that is what lets one snapshot be shared by every run in a window.
    """

    def __init__(
        self,
        contributions: "_ContributionStore",
        jobs: list[JobRecord],
    ):
        self._contrib = contributions
        events: list[tuple[float, int, int]] = []
        for j in jobs:
            events.append((j.start_time, +1, j.job_id))
            events.append((j.end_time, -1, j.job_id))
        events.sort()
        self._events = events
        self._ptr = 0
        self._comm: BaseLoad | None = None
        self._io: BaseLoad | None = None
        self._jobs_by_id = {j.job_id: j for j in jobs}

    @staticmethod
    def _iadd(acc: BaseLoad, c: BaseLoad, sign: float) -> None:
        # ``acc += -c`` is bit-equal to ``acc -= c`` (and ``1.0 * c`` is
        # ``c``), so no signed temporary is needed.
        op = np.add if sign > 0 else np.subtract
        op(acc.link_loads, c.link_loads, out=acc.link_loads)
        op(acc.inj, c.inj, out=acc.inj)
        op(acc.ej, c.ej, out=acc.ej)
        op(acc.vc4, c.vc4, out=acc.vc4)

    def advance(self, t: float) -> bool:
        """Fold in all events up to ``t``; True if the background changed.

        Must be called with non-decreasing ``t``.
        """
        if self._comm is None:
            self._comm = BaseLoad.zeros(self._contrib.topology)
            self._io = BaseLoad.zeros(self._contrib.topology)
        changed = False
        while self._ptr < len(self._events) and self._events[self._ptr][0] <= t:
            _, delta, jid = self._events[self._ptr]
            comm, io = self._contrib.get(self._jobs_by_id[jid])
            sign = 1.0 if delta > 0 else -1.0
            self._iadd(self._comm, comm, sign)
            self._iadd(self._io, io, sign)
            if delta < 0:
                self._contrib.drop(jid)
            self._ptr += 1
            changed = True
        return changed

    def snapshot(self) -> tuple[BaseLoad, BaseLoad]:
        """Copies of the (comm, io) accumulators for the current window."""
        return (
            BaseLoad(
                self._comm.link_loads.copy(),
                self._comm.inj.copy(),
                self._comm.ej.copy(),
                self._comm.vc4.copy(),
            ),
            BaseLoad(
                self._io.link_loads.copy(),
                self._io.inj.copy(),
                self._io.ej.copy(),
                self._io.vc4.copy(),
            ),
        )


class _ContributionStore:
    """Per-job BaseLoads feeding the timeline, dropped at job end.

    Every job's contribution arrives through ``loader``, which may batch
    lookahead work across worker processes; it must insert the requested
    job before returning.  Probes are registered with their mean traffic
    (from their own flow geometry) like any other job, so overlapping
    probes see each other — the paper observed exactly this
    self-interference (§V-A: User-8 appears in its own aggressor lists).
    """

    def __init__(self, topology: Topology, loader) -> None:
        self.topology = topology
        self._loader = loader
        self._cache: dict[int, tuple[BaseLoad, BaseLoad]] = {}
        # Probes generate negligible filesystem traffic (§III-A); one
        # shared zero BaseLoad serves them all (it is only ever read).
        self._zero_io = BaseLoad.zeros(topology)

    def register_probe(self, job_id: int, comm: BaseLoad) -> None:
        self._cache[job_id] = (comm, self._zero_io)

    def insert(self, job_id: int, comm: BaseLoad, io: BaseLoad) -> None:
        self._cache[job_id] = (comm, io)

    def has(self, job_id: int) -> bool:
        return job_id in self._cache

    def get(self, job: JobRecord) -> tuple[BaseLoad, BaseLoad]:
        c = self._cache.get(job.job_id)
        if c is None:
            self._loader(job)
            c = self._cache[job.job_id]
        return c

    def drop(self, job_id: int) -> None:
        self._cache.pop(job_id, None)


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #


def _long_step_model(app: Application, steps: int) -> StepModel:
    """Extend an app's step model to ``steps`` by tiling the steady phase."""
    sm = app.step_model()
    t = sm.num_steps
    if steps <= t:
        return StepModel(
            sm.compute[:steps], sm.mpi[:steps], sm.intensity[:steps]
        )
    # Keep the native prefix; repeat the last quarter (the steady phase).
    tail = slice(max(t - max(t // 4, 1), 0), t)
    reps = int(np.ceil((steps - t) / max(tail.stop - tail.start, 1)))
    compute = np.concatenate([sm.compute] + [sm.compute[tail]] * reps)[:steps]
    mpi = np.concatenate([sm.mpi] + [sm.mpi[tail]] * reps)[:steps]
    inten = np.concatenate([sm.intensity] + [sm.intensity[tail]] * reps)[:steps]
    return StepModel(compute, mpi, inten)


@dataclass
class _ProbePlan:
    """One probe submission before scheduling."""

    key: str
    long_steps: int | None = None  # None = regular dataset run


class CampaignRunner:
    """Generates a :class:`~repro.campaign.datasets.Campaign`."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        # The one solving environment of this process: a serial run
        # installs it for the task functions; pool workers build their
        # own from the config.
        self.env = par.WorkerEnv(config)
        self.topology = self.env.topology
        self.engine = self.env.engine
        self.population = self.env.population

    # ------------------------------------------------------------------ #

    def run(self) -> Campaign:
        cfg = self.config
        fingerprint = cfg.fingerprint()
        with span("campaign.run", fingerprint=fingerprint) as sp:
            campaign = Campaign.load(fingerprint) if cfg.use_cache else None
            cached = campaign is not None
            if campaign is None:
                METRICS.counter("campaign.cache.misses").inc()
                campaign = self._generate()
                if cfg.use_cache:
                    with span("campaign.save", fingerprint=fingerprint):
                        campaign.save(fingerprint)
            else:
                METRICS.counter("campaign.cache.hits").inc()
            sp.set(cached=cached)
            annotate(
                campaign_fingerprint=fingerprint,
                campaign_cached=cached,
                datasets=sorted(campaign.datasets),
            )
        # Provenance stamp: lets each dataset's FeatureStore key its
        # derived-data cache off the campaign fingerprint instead of
        # hashing array contents (generation is deterministic, so the
        # fingerprint identifies the data whether or not it was cached).
        for ds in campaign.datasets.values():
            ds.campaign_fingerprint = fingerprint
        return campaign

    # ------------------------------------------------------------------ #

    def _probe_requests(self) -> tuple[list[JobRequest], dict[tuple[str, float], _ProbePlan]]:
        """Probe submissions: 1-2 per app per day plus the long runs."""
        cfg = self.config
        rng = rng_for("probe-schedule", seed=cfg.seed)
        requests: list[JobRequest] = []
        plans: dict[tuple[str, float], _ProbePlan] = {}
        lo, hi = cfg.probes_per_day
        for day in range(int(cfg.days)):
            for key in cfg.dataset_keys:
                app = get_application(key)
                n = int(rng.integers(lo, hi + 1))
                for _ in range(n):
                    t = day * DAY + float(rng.uniform(0, DAY))
                    req = JobRequest(
                        user="User-8",
                        name=f"probe-{key}",
                        submit_time=t,
                        num_nodes=app.num_nodes,
                        duration=app.step_model().total_mean_time * 1.6 + 120.0,
                        traffic_tag=key,
                        is_probe=True,
                    )
                    requests.append(req)
                    plans[(key, t)] = _ProbePlan(key=key)
        # Long runs near the campaign end (unseen by earlier training data).
        for key, steps in cfg.long_runs:
            app = get_application(key)
            sm = _long_step_model(app, steps)
            t = (cfg.days - 1.5) * DAY
            req = JobRequest(
                user="User-8",
                name=f"probe-long-{key}",
                submit_time=t,
                num_nodes=app.num_nodes,
                duration=sm.total_mean_time * 1.6 + 120.0,
                traffic_tag=key,
                is_probe=True,
            )
            requests.append(req)
            plans[(key, t)] = _ProbePlan(key=key, long_steps=steps)
        return requests, plans

    def _generate(self) -> Campaign:
        cfg = self.config
        topo = self.topology
        horizon = cfg.days * DAY

        # 1. Jobs: background + probes, scheduled together.
        with span("campaign.schedule", days=cfg.days):
            bg_gen = BackgroundWorkloadGenerator.for_target_utilisation(
                self.population,
                rng_for("bg-workload", seed=cfg.seed),
                total_nodes=len(topo.compute_nodes),
                target_utilisation=cfg.target_utilization,
                max_job_nodes=max(len(topo.compute_nodes) // 3, 4),
            )
            bg_requests = bg_gen.generate(0.0, horizon)
            probe_requests, plans = self._probe_requests()
            scheduler = Scheduler(
                topo,
                rng=rng_for("scheduler", seed=cfg.seed),
                horizon=horizon * 1.2,
            )
            result = scheduler.schedule(bg_requests + probe_requests)
            sacct = SacctLog(result, topo)
            probes = result.probes()
        _LOG.info(
            "scheduled %d background jobs and %d probe runs over %.0f days",
            len(bg_requests), len(probes), cfg.days,
        )

        # 2. Probe sample plan: nominal step midpoints, in global time order.
        samples: list[tuple[float, int, int]] = []  # (t, probe idx, step)
        step_models: list[StepModel] = []
        plan_list: list[_ProbePlan] = []
        for pi, job in enumerate(probes):
            plan = plans[(job.request.traffic_tag, job.request.submit_time)]
            app = get_application(plan.key)
            sm = (
                _long_step_model(app, plan.long_steps)
                if plan.long_steps
                else app.step_model()
            )
            step_models.append(sm)
            plan_list.append(plan)
            durations = sm.compute + sm.mpi
            mids = job.start_time + np.cumsum(durations) - durations / 2
            for s in range(sm.num_steps):
                samples.append((float(mids[s]), pi, s))
        samples.sort()

        # 3. Fan contributions and solves out over the worker pool; the
        #    chronological sweep stays in this process.
        with WorkerPool(
            initializer=par._init_worker,
            initargs=(cfg,),
            error=par.CampaignWorkerError,
            name="campaign",
        ) as pool:
            if not pool.parallel:
                par._set_local_env(self.env)
            results = self._solve_probes(
                pool,
                result.jobs,
                probes,
                plan_list,
                step_models,
                samples,
                horizon,
            )

        # 4. Assemble datasets.
        from repro.topology.placement import placement_features

        with span("campaign.assemble", runs=len(probes)):
            datasets: dict[str, RunDataset] = {
                key: RunDataset(key=key) for key in cfg.dataset_keys
            }
            for key, steps in cfg.long_runs:
                datasets[f"{key}-long{steps}"] = RunDataset(
                    key=f"{key}-long{steps}"
                )

            for pi, job in enumerate(probes):
                plan = plan_list[pi]
                res = results[pi]
                feats = placement_features(topo, job.nodes)
                key = (
                    f"{plan.key}-long{plan.long_steps}"
                    if plan.long_steps
                    else plan.key
                )
                ds = datasets[key]
                ds.runs.append(
                    RunRecord(
                        run_index=len(ds.runs),
                        start_time=job.start_time,
                        step_times=res.step_times,
                        compute_times=res.compute_times,
                        mpi_times=res.mpi_times,
                        counters=res.counters,
                        ldms=res.ldms,
                        num_routers=feats["NUM_ROUTERS"],
                        num_groups=feats["NUM_GROUPS"],
                        neighborhood=sacct.neighborhood_users(
                            job, min_nodes=cfg.min_neighbor_nodes
                        ),
                        routine_times=res.routine_times,
                    )
                )

        return Campaign(
            datasets=datasets,
            ground_truth_aggressors=self.population.aggressors,
        )

    # ------------------------------------------------------------------ #

    def _solve_probes(
        self,
        pool,
        all_jobs: list[JobRecord],
        probes: list[JobRecord],
        plan_list: list[_ProbePlan],
        step_models: list[StepModel],
        samples: list[tuple[float, int, int]],
        horizon: float,
    ) -> dict[int, "object"]:
        """Solve every probe run; returns ``{probe idx: RunResult}``.

        Two interleaved parts, bit-deterministic for any worker count:

        1. the chronological sweep walks the samples, folding job
           contributions in and snapshotting the accumulators once per
           *window* (the span between two scheduler events).  Background
           jobs and probes reach it through one batched lookahead loader
           in start-event order; a probe's mean contribution builds its
           routing geometry on the pool, where its run's solve reuses it,
           so each context is built when the sweep first needs it;
        2. as runs complete their sweep, they are submitted to the pool
           in chunks that carry only the window snapshots their steps
           reference; windows are refcounted and freed once every
           referencing run has been dispatched.
        """
        from collections import deque

        cfg = self.config
        workers = pool.workers
        n_probes = len(probes)

        start = perf_counter()

        # -- contributions: batched lookahead loader --------------------- #
        probe_plan = {j.job_id: plan_list[pi] for pi, j in enumerate(probes)}
        pending = deque(sorted(all_jobs, key=lambda j: (j.start_time, j.job_id)))
        batch_size = max(32, workers * 16)

        def _load_batch(job: JobRecord) -> None:
            # The timeline requests jobs in start-event order, which is
            # exactly `pending` order — pull through the requested job,
            # then extend with lookahead so one pool trip covers many
            # upcoming start events.
            batch: list[JobRecord] = []
            while pending:
                nxt = pending.popleft()
                batch.append(nxt)
                if nxt.job_id == job.job_id:
                    break
            while pending and len(batch) < batch_size:
                batch.append(pending.popleft())
            probe_specs = [
                par.ProbeSpec(
                    job_id=j.job_id,
                    key=probe_plan[j.job_id].key,
                    long_steps=probe_plan[j.job_id].long_steps,
                    nodes=j.nodes,
                )
                for j in batch
                if j.job_id in probe_plan
            ]
            bg_specs = [
                par.BgJobSpec(job_id=j.job_id, user=j.user, nodes=j.nodes)
                for j in batch
                if j.job_id not in probe_plan
            ]
            probe_futs = [
                pool.submit(par._task_probe_contributions, chunk)
                for chunk in chunked(probe_specs, workers)
            ]
            bg_futs = [
                pool.submit(par._task_bg_contributions, chunk)
                for chunk in chunked(bg_specs, workers)
            ]
            for f in probe_futs:
                for job_id, comm in pool.result(f):
                    store.register_probe(job_id, comm)
            for f in bg_futs:
                for job_id, comm, io in pool.result(f):
                    store.insert(job_id, comm, io)
            if not store.has(job.job_id):  # pragma: no cover - defensive
                raise RuntimeError(
                    f"job {job.job_id} requested out of start-event order"
                )

        store = _ContributionStore(self.topology, _load_batch)
        timeline = TrafficTimeline(store, all_jobs)
        weather = IOWeather(horizon * 1.3, rng_for("io-weather", seed=cfg.seed))

        # -- the sweep: snapshot windows, dispatch run chunks ------------ #
        window_store: dict[int, tuple[BaseLoad, BaseLoad]] = {}
        wref: dict[int, int] = {}
        run_windows: list[set[int]] = [set() for _ in range(n_probes)]
        win_ids = [np.zeros(sm.num_steps, dtype=np.int64) for sm in step_models]
        weather_bufs = [np.zeros(sm.num_steps) for sm in step_models]
        remaining = [sm.num_steps for sm in step_models]

        results: dict[int, par.RunResult] = {}
        inflight: deque = deque()
        ready: list[int] = []
        done_runs = 0
        chunk_size = max(1, min(8, -(-n_probes // (workers * 4))))
        max_inflight = workers * 2

        # Per-dataset progress accounting: long runs land in their own
        # dataset (the same keying the assembly phase uses).
        ds_key = [
            f"{p.key}-long{p.long_steps}" if p.long_steps else p.key
            for p in plan_list
        ]
        ds_total: dict[str, int] = {}
        for key in ds_key:
            ds_total[key] = ds_total.get(key, 0) + 1
        ds_done: dict[str, int] = dict.fromkeys(ds_total, 0)
        runs_solved = METRICS.counter("campaign.runs_solved")

        def collect(fut) -> None:
            nonlocal done_runs
            chunk_results = pool.result(fut)
            for res in chunk_results:
                results[res.pi] = res
                ds_done[ds_key[res.pi]] += 1
            done_runs += len(chunk_results)
            runs_solved.inc(len(chunk_results))
            elapsed = perf_counter() - start
            event(
                "campaign.progress",
                n_done=done_runs,
                n_total=n_probes,
                elapsed=round(elapsed, 3),
                datasets={
                    k: [ds_done[k], ds_total[k]] for k in sorted(ds_total)
                },
            )
            _LOG.info(
                "%d/%d runs solved in %.1fs (%d worker%s; %s)",
                done_runs,
                n_probes,
                elapsed,
                workers,
                "s" if workers != 1 else "",
                ", ".join(
                    f"{k} {ds_done[k]}/{ds_total[k]}" for k in sorted(ds_total)
                ),
            )

        def flush() -> None:
            if not ready:
                return
            tasks = [
                par.RunTask(
                    pi=pi,
                    job_id=probes[pi].job_id,
                    key=plan_list[pi].key,
                    long_steps=plan_list[pi].long_steps,
                    start_time=probes[pi].start_time,
                    nodes=probes[pi].nodes,
                    window_ids=win_ids[pi],
                    weather=weather_bufs[pi],
                )
                for pi in ready
            ]
            payload = {
                w: window_store[w] for pi in ready for w in run_windows[pi]
            }
            inflight.append(pool.submit(par._task_solve_runs, tasks, payload))
            for pi in ready:
                for w in run_windows[pi]:
                    wref[w] -= 1
                    if wref[w] == 0 and w != current_wid:
                        del window_store[w]
                        del wref[w]
                run_windows[pi].clear()
            ready.clear()
            while len(inflight) > max_inflight:
                collect(inflight.popleft())

        with span(
            "campaign.sweep", samples=len(samples), runs=n_probes,
            workers=workers,
        ):
            current_wid = -1
            for t, pi, step in samples:
                if timeline.advance(t) or current_wid < 0:
                    prev = current_wid
                    current_wid += 1
                    window_store[current_wid] = timeline.snapshot()
                    wref[current_wid] = 0
                    if prev >= 0 and wref.get(prev) == 0:
                        del window_store[prev]
                        del wref[prev]
                win_ids[pi][step] = current_wid
                weather_bufs[pi][step] = weather.at(t)
                if current_wid not in run_windows[pi]:
                    run_windows[pi].add(current_wid)
                    wref[current_wid] += 1
                remaining[pi] -= 1
                if remaining[pi] == 0:
                    ready.append(pi)
                    if len(ready) >= chunk_size:
                        flush()
            flush()
            while inflight:
                collect(inflight.popleft())
        return results


def run_campaign(
    config: CampaignConfig | None = None, progress: bool = False
) -> Campaign:
    """Convenience wrapper: build (or load from cache) a campaign.

    ``progress=True`` makes the generation's INFO-level progress visible
    (configuring ``repro`` logging if the caller has not).
    """
    if progress:
        from repro.obs.log import configure_logging

        configure_logging()
    return CampaignRunner(config or CampaignConfig.small()).run()
