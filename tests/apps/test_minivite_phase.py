"""The packaged miniVite Louvain phase matches a fresh kernel run.

``repro.apps.minivite`` ships a precomputed phase artifact for the
default ``(KERNEL_VERTICES, KERNEL_PARTITIONS)`` configuration so cold
campaign generation never pays the ~0.4 s kernel run per process.  The
artifact must stay bit-identical to what the kernel computes; when this
test fails after an intentional kernel change, bump
``_KERNEL_CACHE_VERSION`` and regenerate the ``.npz`` with
``np.savez_compressed`` and the fields ``_load_phase`` reads.
"""

from __future__ import annotations

import numpy as np

from repro.apps.kernels.louvain import run_louvain_phase, synthetic_kkt_graph
from repro.apps.minivite import (
    KERNEL_PARTITIONS,
    KERNEL_VERTICES,
    _load_phase,
    _phase_data_path,
)


def _fresh_phase():
    rng = np.random.default_rng(1_234_567)
    adj = synthetic_kkt_graph(KERNEL_VERTICES, rng=rng)
    return run_louvain_phase(adj, KERNEL_PARTITIONS, rng=rng)


def test_packaged_phase_exists_and_matches_fresh_compute():
    path = _phase_data_path(KERNEL_VERTICES, KERNEL_PARTITIONS)
    assert path.is_file(), (
        f"packaged phase artifact missing: {path} — regenerate it after "
        "kernel changes (see module docstring)"
    )
    packaged = _load_phase(path)
    assert packaged is not None, f"packaged phase artifact unreadable: {path}"
    fresh = _fresh_phase()
    assert packaged.num_vertices == fresh.num_vertices
    assert packaged.num_edges == fresh.num_edges
    assert packaged.num_partitions == fresh.num_partitions
    np.testing.assert_array_equal(packaged.modularity, fresh.modularity)
    np.testing.assert_array_equal(packaged.moved, fresh.moved)
    np.testing.assert_array_equal(
        packaged.partition_traffic, fresh.partition_traffic
    )


def test_load_phase_missing_or_corrupt_returns_none(tmp_path):
    assert _load_phase(tmp_path / "nope.npz") is None
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not an npz")
    assert _load_phase(bad) is None
