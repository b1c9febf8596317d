"""Global configuration: scale presets, RNG policy, and physical constants.

The reproduction runs the same pipelines at three scales:

``tiny``
    Unit-test scale.  A handful of dragonfly groups, a few background jobs,
    short campaigns.  Everything finishes in milliseconds.
``small``
    Benchmark scale (default).  A reduced-size system in which the 128- and
    512-node probe jobs occupy roughly the same *fraction* of the machine as
    they did on Cori, so the congestion regime is comparable.
``cori``
    The full Cray XC40 shape used in the paper: 34 groups of 96 Aries
    routers arranged 16 x 6, four NICs per router.  Slow; used for
    topology-level validation only.

All randomness in the library flows through :func:`rng_for`, which derives
independent, reproducible streams from a root seed using
``numpy.random.SeedSequence`` so that adding a consumer never perturbs the
streams of existing consumers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Physical constants of the modelled Aries network (Cray XC series).
# ---------------------------------------------------------------------------

#: Bytes per flit on the Aries network (24 B of payload per flit phit group).
FLIT_BYTES = 24.0

#: Mean packet length in flits used when deriving packet counters from flit
#: counters (Aries packets carry up to 64 B of payload; small MPI packets
#: dominate in practice).
MEAN_PACKET_FLITS = 3.0

#: Router clock frequency in Hz (Aries runs at ~875 MHz).
ROUTER_CLOCK_HZ = 875.0e6

#: Per-direction link bandwidths in bytes/second.  Aries: ~5.25 GB/s over
#: optical (blue/global) cables and ~4.7 GB/s electrical within a group.
GREEN_LINK_BW = 4.7e9
BLACK_LINK_BW = 4.7e9
BLUE_LINK_BW = 5.25e9

#: *Effective* per-NIC endpoint capacity in bytes/second.  Raw Aries
#: injection is ~10 GB/s, but for the small-message traffic that dominates
#: these workloads the binding resource is per-message processing on the
#: NIC/processor tiles; 2 GB/s of equivalent byte throughput reproduces the
#: endpoint-congestion regime the paper's PT stall counters capture.
NIC_BW = 2.0e9

#: Utilisation at which the stall model saturates (queueing model knee).
MAX_UTILISATION = 0.96


# ---------------------------------------------------------------------------
# Scale presets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalePreset:
    """Describes one system scale at which the reproduction can run.

    Attributes
    ----------
    name:
        Preset identifier (``tiny`` / ``small`` / ``cori`` / custom).
    groups:
        Number of dragonfly groups.
    rows, cols:
        Router-grid shape within a group.  Cray XC uses 16 x 6; reduced
        presets shrink the grid proportionally.
    nodes_per_router:
        Compute nodes (NICs) attached to each router.  Aries has four.
    io_groups:
        Number of groups whose first router column hosts I/O (LNET) nodes
        rather than compute nodes, mirroring Cori's service groups.
    cores_per_node:
        Cores available to applications per node (64 of KNL's 68 in the
        paper's runs).
    """

    name: str
    groups: int
    rows: int
    cols: int
    nodes_per_router: int
    io_groups: int = 1
    cores_per_node: int = 64

    @property
    def routers_per_group(self) -> int:
        return self.rows * self.cols

    @property
    def num_routers(self) -> int:
        return self.groups * self.routers_per_group

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.nodes_per_router


#: Unit-test scale: 6 groups x (4x3) routers x 2 nodes = 144 nodes.
TINY = ScalePreset(name="tiny", groups=6, rows=4, cols=3, nodes_per_router=2)

#: Benchmark scale: 15 groups x (12x4) routers x 4 nodes = 2,880 nodes.
#: A 128-node probe job is ~4.4% of the system and a 512-node probe job is
#: ~17.8%; on Cori (9,688 KNL nodes) the figures were 1.3% / 5.3%.  The
#: regime (job much smaller than machine, sharing global links with dozens
#: of neighbours) is preserved.
SMALL = ScalePreset(name="small", groups=15, rows=12, cols=4, nodes_per_router=4)

#: Full Cray XC40 Cori shape: 34 groups of 96 routers (16 x 6), 4 nodes each.
CORI = ScalePreset(name="cori", groups=34, rows=16, cols=6, nodes_per_router=4)

_PRESETS = {p.name: p for p in (TINY, SMALL, CORI)}


def get_preset(name: str | None = None) -> ScalePreset:
    """Look up a scale preset by name (``None`` is ``small``)."""
    if name is None:
        name = "small"
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scale preset {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# Reproducible random-stream derivation.
# ---------------------------------------------------------------------------

#: Root seed for the whole reproduction.  Experiments may override it but the
#: default keeps every figure deterministic.
DEFAULT_SEED = 20200518  # IPDPS 2020 main-conference start date


def rng_for(*stream: object, seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Derive an independent, reproducible RNG for a named stream.

    Parameters
    ----------
    stream:
        Any hashable labels identifying the consumer, e.g.
        ``rng_for("campaign", "milc", 128, run_index)``.  Streams with
        different labels are statistically independent.
    seed:
        Root seed; defaults to :data:`DEFAULT_SEED`.

    Returns
    -------
    numpy.random.Generator
    """
    entropy = [seed]
    for part in stream:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part) & 0xFFFFFFFF)
        else:
            key = str(part)
            h = _label_hash_cache.get(key)
            if h is None:
                # Stable 32-bit hash of the textual label (hash() is
                # salted per process, so it must not be used here).
                h = 2166136261
                for ch in key.encode():
                    h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
                _label_hash_cache[key] = h
            entropy.append(h)
    return np.random.default_rng(np.random.SeedSequence(entropy))


#: Memoised FNV-1a label hashes for :func:`rng_for` (labels are few and
#: reused thousands of times per campaign; values are unaffected).
_label_hash_cache: dict[str, int] = {}


def resolve_workers() -> int:
    """The worker-process count for every fan-out point: ``REPRO_WORKERS``.

    This is the one reader of the count, and the environment variable is
    its one surface: a CLI's ``--workers N`` writes it (see
    :func:`apply_workers_flag`).  Unset or empty means 1 (in-process
    serial execution); a value ``<= 0`` means "all cores".

    The worker count never changes generated data — parallel output is
    bit-identical to serial output — so it is deliberately *not* part of
    any cache fingerprint.
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return 1
    try:
        requested = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer, got {env!r}"
        ) from None
    if requested <= 0:
        return os.cpu_count() or 1
    return requested


def apply_workers_flag(flag: int | None) -> int:
    """Apply a CLI's ``--workers N`` to the whole invocation.

    The flag beats an inherited ``REPRO_WORKERS``: it is written into the
    environment, so campaign generation, the stage pool and every other
    fan-out point resolve the same count through :func:`resolve_workers`.
    Returns the resolved count; raises ``ValueError`` on a bad inherited
    ``REPRO_WORKERS`` when no flag is given.
    """
    if flag is not None:
        os.environ["REPRO_WORKERS"] = str(flag)
    return resolve_workers()
