"""Campaign datasets: the paper's X (N x T x H) and Y (N x T) matrices.

Each (application, node count) pair is an independent dataset of N runs
with T time steps and H recorded features per step (paper §IV-B).  Beyond
the 13 AriesNCL counters, every run carries its LDMS io/sys aggregates,
placement features, neighbourhood user list, and mpiP routine breakdown —
everything the three analyses consume.

Datasets cache to ``.npz`` + JSON under ``REPRO_CACHE_DIR`` (default
``./.repro_cache``) keyed by the campaign-config fingerprint, so figures
and benchmarks share one generation pass.  The cache layer is hardened
for concurrent users (parallel generation, pytest + a benchmark run
racing on the same fingerprint):

* every file is written to a temp name and atomically renamed into
  place, with the ``campaign.json`` manifest written last — readers see
  either a complete entry or no entry;
* the manifest carries :data:`CACHE_FORMAT_VERSION`; a mismatching or
  missing stamp is a cache miss, never a crash;
* corrupt or truncated entries (half-written ``.npz``, garbled JSON)
  trigger regeneration with a warning instead of an exception;
* savers serialise on an inter-process ``flock`` (:class:`FileLock`).
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: On-disk cache format version.  Bump when the file layout or manifest
#: schema changes; it is stamped into every manifest *and* folded into
#: ``CampaignConfig.fingerprint()``, so old-format entries are simply
#: never hit (and a manually tampered stamp is a miss, not a crash).
CACHE_FORMAT_VERSION = 2


class FileLock:
    """Advisory inter-process lock on a file (``flock``-based).

    Used to serialise concurrent savers of the same cache fingerprint
    (e.g. pytest and a benchmark run both generating the campaign).  On
    platforms without ``fcntl`` the lock degrades to a no-op — atomic
    renames still keep readers safe; only write-write races lose the
    duplicated work.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None

    def acquire(self, blocking: bool = True) -> bool:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            self._fd = fd
            return True
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)  # closing the fd drops the flock
            self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)

from repro.network.counters import IO_COUNTERS, SYS_COUNTERS

#: Campaign epoch: the first date on Fig. 1's time axis.
EPOCH = _dt.datetime(2018, 11, 29)

#: LDMS feature order as stored in the dataset arrays.
LDMS_FEATURES: list[str] = IO_COUNTERS + SYS_COUNTERS


def seconds_to_date(t: float) -> _dt.datetime:
    """Campaign seconds -> calendar timestamp (Fig. 1 axis)."""
    return EPOCH + _dt.timedelta(seconds=float(t))


@dataclass
class RunRecord:
    """One probe run: everything recorded for it."""

    run_index: int
    start_time: float
    #: Realised wall time per step (T,).
    step_times: np.ndarray
    #: Compute / MPI split per step (T,), (T,).
    compute_times: np.ndarray
    mpi_times: np.ndarray
    #: AriesNCL counters per step (T, 13) in APP_COUNTERS order.
    counters: np.ndarray
    #: LDMS io/sys aggregates per step (T, 8) in LDMS_FEATURES order.
    ldms: np.ndarray
    #: NUM_ROUTERS, NUM_GROUPS.
    num_routers: int
    num_groups: int
    #: Users with large jobs overlapping this run (anonymised ids).
    neighborhood: list[str]
    #: mpiP routine breakdown for the whole run.
    routine_times: dict[str, float]

    @property
    def total_time(self) -> float:
        return float(self.step_times.sum())

    @property
    def date(self) -> _dt.datetime:
        return seconds_to_date(self.start_time)


@dataclass
class RunDataset:
    """One of the six campaign datasets.

    ``campaign_fingerprint`` is the provenance stamp: the fingerprint of
    the campaign (or stream) this dataset came out of.  The stage graph
    addresses the artifacts of a supplied campaign by it
    (:class:`repro.experiments.context.ExperimentContext`), so it is
    persisted with the dataset and restored on load — a warm load must
    address the same artifacts as the run that generated it.

    Streamed datasets additionally carry ``shard_views`` (the ordered
    per-window :class:`RunDataset` shards, each stamped with its own
    window-campaign fingerprint) — set by :mod:`repro.campaign.streaming`,
    read by the shard-scoped graph stages
    (:func:`repro.campaign.streaming.shard_view`).  The stream manifest
    (``campaign.stream``) names each shard.
    """

    key: str
    runs: list[RunRecord] = field(default_factory=list)
    campaign_fingerprint: str | None = None

    # ---- basic shape ---------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def num_steps(self) -> int:
        return int(self.runs[0].step_times.shape[0]) if self.runs else 0

    # ---- assembled arrays ------------------------------------------------ #

    @property
    def Y(self) -> np.ndarray:
        """(N, T) per-step execution times."""
        return np.stack([r.step_times for r in self.runs])

    @property
    def X(self) -> np.ndarray:
        """(N, T, 13) AriesNCL counters."""
        return np.stack([r.counters for r in self.runs])

    @property
    def ldms(self) -> np.ndarray:
        """(N, T, 8) io/sys counters."""
        return np.stack([r.ldms for r in self.runs])

    @property
    def placement(self) -> np.ndarray:
        """(N, 2): NUM_ROUTERS, NUM_GROUPS."""
        return np.array(
            [[r.num_routers, r.num_groups] for r in self.runs], dtype=np.float64
        )

    @property
    def totals(self) -> np.ndarray:
        """(N,) total run times."""
        return np.array([r.total_time for r in self.runs])

    @property
    def start_times(self) -> np.ndarray:
        return np.array([r.start_time for r in self.runs])

    def features(
        self, placement: bool = False, io: bool = False, sys: bool = False
    ) -> np.ndarray:
        """(N, T, H') feature tensor for a forecasting ablation tier."""
        parts = [self.X]
        if placement:
            pl = self.placement  # (N, 2), constant over steps
            parts.append(np.repeat(pl[:, None, :], self.num_steps, axis=1))
        ld = self.ldms
        if io:
            parts.append(ld[:, :, : len(IO_COUNTERS)])
        if sys:
            parts.append(ld[:, :, len(IO_COUNTERS) :])
        return np.concatenate(parts, axis=2)

    # ---- paper §IV-B: mean-centering ------------------------------------- #

    def mean_trends(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step means over runs: (T, 13) counters, (T,) times (Fig. 7)."""
        return self.X.mean(axis=0), self.Y.mean(axis=0)

    def mean_centered(self) -> tuple[np.ndarray, np.ndarray]:
        """X̂, Ŷ with per-step mean trends removed (paper §IV-B)."""
        xm, ym = self.mean_trends()
        return self.X - xm[None, :, :], self.Y - ym[None, :]

    # ---- optimality labels (paper §IV-A) ---------------------------------- #

    def optimality(self, tau: float = 1.0) -> np.ndarray:
        """Binary vector p: run r is optimal iff t_r < tau * mean(t)."""
        totals = self.totals
        return (totals < tau * totals.mean()).astype(np.int8)

    def relative_performance(self) -> np.ndarray:
        """Per-run total time relative to the best run (Fig. 1 y-axis)."""
        totals = self.totals
        return totals / totals.min()

    # ---- serialisation ----------------------------------------------------- #

    def save(self, path: Path, campaign_fingerprint: str | None = None) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        npz_path = path.with_suffix(".npz")
        tmp = npz_path.with_name(f"{npz_path.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                step_times=self.Y,
                compute_times=np.stack([r.compute_times for r in self.runs]),
                mpi_times=np.stack([r.mpi_times for r in self.runs]),
                counters=self.X,
                ldms=self.ldms,
                placement=self.placement,
                start_times=self.start_times,
            )
        os.replace(tmp, npz_path)
        meta = {
            "key": self.key,
            "neighborhoods": [r.neighborhood for r in self.runs],
            "routine_times": [r.routine_times for r in self.runs],
        }
        # Provenance travels with the entry (an optional key, so the
        # schema — and therefore CACHE_FORMAT_VERSION and every existing
        # fingerprint — is unchanged): warm loads keep keying the feature
        # cache off the campaign fingerprint instead of array contents.
        fp = campaign_fingerprint or self.campaign_fingerprint
        if fp is not None:
            meta["campaign_fingerprint"] = fp
        _atomic_write_text(path.with_suffix(".json"), json.dumps(meta))

    @classmethod
    def load(cls, path: Path) -> "RunDataset":
        path = Path(path)
        meta = json.loads(path.with_suffix(".json").read_text())
        runs = []
        with np.load(path.with_suffix(".npz")) as npz:
            # Materialise every array once, inside the context, so a
            # truncated archive fails *here* (where Campaign.load catches
            # it) and each member is decompressed a single time.
            arrays = {name: npz[name] for name in npz.files}
        n = arrays["step_times"].shape[0]
        for i in range(n):
            runs.append(
                RunRecord(
                    run_index=i,
                    start_time=float(arrays["start_times"][i]),
                    step_times=arrays["step_times"][i],
                    compute_times=arrays["compute_times"][i],
                    mpi_times=arrays["mpi_times"][i],
                    counters=arrays["counters"][i],
                    ldms=arrays["ldms"][i],
                    num_routers=int(arrays["placement"][i, 0]),
                    num_groups=int(arrays["placement"][i, 1]),
                    neighborhood=meta["neighborhoods"][i],
                    routine_times=meta["routine_times"][i],
                )
            )
        return cls(
            key=meta["key"],
            runs=runs,
            campaign_fingerprint=meta.get("campaign_fingerprint"),
        )


@dataclass
class Campaign:
    """All datasets from one campaign plus shared context."""

    datasets: dict[str, RunDataset]
    #: Anonymised ground-truth aggressor users (for evaluation only; the
    #: analyses never see this).
    ground_truth_aggressors: list[str] = field(default_factory=list)

    def __getitem__(self, key: str) -> RunDataset:
        return self.datasets[key]

    def keys(self) -> list[str]:
        return list(self.datasets)

    # ---- cache ------------------------------------------------------------ #

    @staticmethod
    def cache_dir() -> Path:
        return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))

    @classmethod
    def cache_lock(cls, fingerprint: str) -> FileLock:
        """The inter-process lock serialising savers of ``fingerprint``."""
        return FileLock(cls.cache_dir() / f"{fingerprint}.lock")

    def save(self, fingerprint: str) -> Path:
        """Write this campaign into the cache, safely.

        Holds the fingerprint's :class:`FileLock` so two concurrent
        generators (e.g. pytest and a benchmark run) serialise instead of
        interleaving writes; every file lands via write-then-rename with
        the manifest last, so concurrent *readers* only ever observe a
        miss or a complete entry.
        """
        root = self.cache_dir() / fingerprint
        with self.cache_lock(fingerprint):
            root.mkdir(parents=True, exist_ok=True)
            for key, ds in self.datasets.items():
                ds.save(root / key, campaign_fingerprint=fingerprint)
            _atomic_write_text(
                root / "campaign.json",
                json.dumps(
                    {
                        "format": CACHE_FORMAT_VERSION,
                        "keys": list(self.datasets),
                        "ground_truth_aggressors": self.ground_truth_aggressors,
                    }
                ),
            )
        return root

    @classmethod
    def load(cls, fingerprint: str) -> "Campaign | None":
        """Load a cached campaign, or ``None`` on any kind of miss.

        A missing entry, a format-version mismatch, and a corrupt or
        truncated entry are all plain misses — the caller regenerates.
        Corruption additionally warns, since it usually means a writer
        died mid-save or the cache directory was hand-edited.
        """
        root = cls.cache_dir() / fingerprint
        manifest = root / "campaign.json"
        if not manifest.exists():
            return None
        try:
            meta = json.loads(manifest.read_text())
            if meta.get("format") != CACHE_FORMAT_VERSION:
                return None
            datasets = {k: RunDataset.load(root / k) for k in meta["keys"]}
        except FileNotFoundError:
            return None
        except Exception as exc:
            # Any other failure mode (truncated .npz, garbled JSON, bad
            # shapes) means a broken entry: regenerate rather than crash.
            warnings.warn(
                f"discarding corrupt campaign cache entry {root}: "
                f"{type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        # The entry is keyed by this fingerprint, so it is authoritative
        # provenance whether or not the per-dataset meta carried the
        # (newer, optional) stamp — pre-stamp cache entries load warm too.
        for ds in datasets.values():
            ds.campaign_fingerprint = fingerprint
        return cls(
            datasets=datasets,
            ground_truth_aggressors=meta.get("ground_truth_aggressors", []),
        )
