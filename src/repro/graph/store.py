"""Content-addressed artifact persistence for the experiment DAG.

Every stage result is stored under::

    <cache-dir>/artifacts/v<ARTIFACT_FORMAT_VERSION>/<group>/<fingerprint>.pkl

where ``group`` is derived from the stage function and ``fingerprint``
is the stage's input-addressed identity (:mod:`repro.graph.stage`).  The
entry format is a one-line header carrying the sha256 digest of the
pickled payload, then the payload itself — a truncated or bit-flipped
entry fails digest verification and is treated as a warned miss that
regenerates, exactly like the campaign cache (PR 1's
discipline: atomic write-then-rename, an advisory ``flock`` per group,
corruption never propagates).

The low-level helpers :func:`guarded_load` and :func:`atomic_write`
carry that discipline: corrupt entries are discarded with a warning,
and an unwritable directory degrades a write to a warning (the run
keeps its in-memory result).

``REPRO_ARTIFACT_CACHE=0`` disables the store (every stage recomputes).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from pathlib import Path
from typing import BinaryIO, Callable

from repro.campaign.datasets import Campaign, FileLock
from repro.obs import env_flag

#: On-disk artifact format version; folded into the root path so a
#: layout change is an automatic miss.
ARTIFACT_FORMAT_VERSION = 1

_MAGIC = b"repro-artifact/1\n"

#: Sentinel distinguishing "no entry" from a stored ``None``.
MISS = object()


def artifact_cache_enabled() -> bool:
    """Store toggle (``REPRO_ARTIFACT_CACHE=0`` disables)."""
    return env_flag("REPRO_ARTIFACT_CACHE", True)


# --------------------------------------------------------------------------- #
# Hardened-entry helpers.
# --------------------------------------------------------------------------- #


def guarded_load(path: Path, reader: Callable[[Path], object], describe: str):
    """Read one cache entry; corrupt entries are warned misses.

    Returns ``None`` when the entry is absent or unreadable.  Any
    exception from ``reader`` discards the entry (best effort) so the
    next writer replaces it.
    """
    if not path.exists():
        return None
    try:
        return reader(path)
    except Exception as exc:
        warnings.warn(
            f"discarding corrupt {describe} entry {path}: "
            f"{type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=4,
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None


def atomic_write(
    path: Path,
    writer: Callable[[BinaryIO], None],
    lock: FileLock | None = None,
    fail_msg: str = "cache write failed",
) -> bool:
    """Write one cache entry atomically (tmp file + ``os.replace``).

    Readers only ever observe a miss or a complete entry; an unwritable
    directory degrades to a warning (the caller keeps its in-memory
    copy).  Returns whether the entry landed.
    """

    def write() -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)

    try:
        if lock is not None:
            with lock:
                write()
        else:
            write()
        return True
    except OSError as exc:
        warnings.warn(f"{fail_msg}: {exc}", RuntimeWarning, stacklevel=4)
        return False


# --------------------------------------------------------------------------- #
# The artifact store.
# --------------------------------------------------------------------------- #


def _read_artifact(path: Path):
    data = path.read_bytes()
    if not data.startswith(_MAGIC):
        raise ValueError("bad artifact header")
    rest = data[len(_MAGIC):]
    digest, sep, payload = rest.partition(b"\n")
    if not sep:
        raise ValueError("truncated artifact header")
    if hashlib.sha256(payload).hexdigest().encode() != digest:
        raise ValueError("artifact digest mismatch")
    return pickle.loads(payload)


class ArtifactStore:
    """Content-addressed stage-result persistence.

    Parameters
    ----------
    root:
        Directory for the entries; defaults to
        ``<REPRO_CACHE_DIR>/artifacts/v<ARTIFACT_FORMAT_VERSION>``.
    enabled:
        Explicit toggle; ``None`` follows ``REPRO_ARTIFACT_CACHE``.
    """

    def __init__(self, root: Path | None = None, enabled: bool | None = None) -> None:
        self.root = Path(root) if root is not None else (
            Campaign.cache_dir() / "artifacts" / f"v{ARTIFACT_FORMAT_VERSION}"
        )
        self.enabled = artifact_cache_enabled() if enabled is None else enabled

    def path(self, group: str, fingerprint: str) -> Path:
        return self.root / group / f"{fingerprint}.pkl"

    def has(self, group: str, fingerprint: str) -> bool:
        return self.enabled and self.path(group, fingerprint).exists()

    def load(self, group: str, fingerprint: str):
        """The stored artifact, or :data:`MISS`.

        Digest-verified: a truncated or bit-flipped entry is discarded
        with a warning and reported as a miss.
        """
        if not self.enabled:
            return MISS
        # Box the payload so a stored ``None`` stays distinct from a miss.
        boxed = guarded_load(
            self.path(group, fingerprint),
            lambda path: (_read_artifact(path),),
            "artifact",
        )
        return MISS if boxed is None else boxed[0]

    def save(self, group: str, fingerprint: str, value: object) -> bool:
        """Persist one artifact (atomic, locked per group)."""
        if not self.enabled:
            return False
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode()

        def write(fh: BinaryIO) -> None:
            fh.write(_MAGIC)
            fh.write(digest)
            fh.write(b"\n")
            fh.write(payload)

        return atomic_write(
            self.path(group, fingerprint),
            write,
            lock=FileLock(self.root / f"{group}.lock"),
            fail_msg=f"artifact write failed for {group}/{fingerprint}",
        )
