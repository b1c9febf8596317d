"""Kernel substrates: halo accounting, multigrid, Louvain, sweep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kernels.halo import halo_surface_bytes
from repro.apps.kernels.louvain import (
    run_louvain_phase,
    synthetic_kkt_graph,
)
from repro.apps.kernels.multigrid import MultigridHierarchy
from repro.apps.kernels.sweep import SweepSchedule

# --------------------------------------------------------------------- #
# halo
# --------------------------------------------------------------------- #


def test_halo_surface_bytes_3d():
    b = halo_surface_bytes((32, 32, 32), bytes_per_site=8.0)
    np.testing.assert_allclose(b, np.full(3, 32 * 32 * 8.0))


def test_halo_surface_bytes_anisotropic():
    b = halo_surface_bytes((8, 4, 2), bytes_per_site=1.0)
    np.testing.assert_allclose(b, [4 * 2, 8 * 2, 8 * 4])


def test_halo_surface_bytes_4d_milc():
    # MILC's 4^4 local lattice: every face has 4^3 = 64 sites.
    b = halo_surface_bytes((4, 4, 4, 4), bytes_per_site=96.0)
    np.testing.assert_allclose(b, np.full(4, 64 * 96.0))


def test_halo_ghost_width_clamped():
    b1 = halo_surface_bytes((4, 4), 1.0, ghost_width=1)
    b8 = halo_surface_bytes((4, 4), 1.0, ghost_width=8)  # > extent
    assert (b8 <= b1 * 4).all()


def test_halo_validation():
    with pytest.raises(ValueError):
        halo_surface_bytes((0, 4), 1.0)
    with pytest.raises(ValueError):
        halo_surface_bytes((4, 4), -1.0)
    with pytest.raises(ValueError):
        halo_surface_bytes((4, 4), 1.0, ghost_width=0)


# --------------------------------------------------------------------- #
# multigrid
# --------------------------------------------------------------------- #


def test_multigrid_levels_shrink():
    h = MultigridHierarchy.from_problem((32, 16, 16), (32, 32, 32))
    assert h.num_levels >= 4
    sizes = [np.prod(lv.local_shape) for lv in h.levels]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    # Messages get smaller with level, neighbour counts grow.
    assert h.levels[0].bytes_per_neighbor > h.levels[-1].bytes_per_neighbor
    assert h.levels[0].neighbors < h.levels[-1].neighbors <= 26


def test_multigrid_small_messages():
    """AMG's signature: many messages, small mean size (paper §III-B)."""
    h = MultigridHierarchy.from_problem((32, 32, 32), (32, 32, 32))
    assert h.messages_per_rank_per_step() > 50
    assert h.mean_message_bytes() < 16_384


def test_multigrid_totals_consistent():
    h = MultigridHierarchy.from_problem((4, 4, 4), (16, 16, 16))
    total = sum(
        lv.neighbors * lv.bytes_per_neighbor * lv.exchanges_per_cycle
        for lv in h.levels
    )
    assert h.bytes_per_rank_per_step() == pytest.approx(total)
    assert h.allreduces_per_step() == 2 * h.gmres_iterations + h.num_levels


def test_multigrid_validation():
    with pytest.raises(ValueError):
        MultigridHierarchy.from_problem((4, 4), (8, 8, 8))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        MultigridHierarchy.from_problem((4, 4, 0), (8, 8, 8))
    with pytest.raises(ValueError):
        MultigridHierarchy.from_problem((4, 4, 4), (1, 1, 1), min_local=4)


@given(exp=st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_property_multigrid_depth_tracks_problem_size(exp):
    size = 2**exp
    h = MultigridHierarchy.from_problem((2, 2, 2), (size, size, size))
    # Coarsening by 2 from size down to min_local=2: exp levels.
    assert h.num_levels == exp


# --------------------------------------------------------------------- #
# louvain
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def phase():
    rng = np.random.default_rng(42)
    adj = synthetic_kkt_graph(512, rng=rng)
    return run_louvain_phase(adj, num_partitions=8, rng=rng)


def test_louvain_graph_is_symmetric_no_selfloops():
    g = synthetic_kkt_graph(512)
    u = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    v = g.indices
    edges = set(zip(u.tolist(), v.tolist()))
    assert len(edges) == len(v)  # no duplicate entries
    assert edges == set(zip(v.tolist(), u.tolist()))
    assert not (u == v).any()


def test_louvain_modularity_improves(phase):
    assert phase.iterations >= 1
    assert phase.modularity[-1] > 0.0
    # Modularity is (weakly) increasing under greedy moves.
    assert (np.diff(phase.modularity) >= -1e-9).all()


def test_louvain_movement_decays(phase):
    if phase.iterations >= 3:
        assert phase.moved[-1] < phase.moved[0]


def test_louvain_traffic_shape_and_decay(phase):
    p = phase.num_partitions
    assert phase.partition_traffic.shape == (phase.iterations, p, p)
    vols = phase.iteration_volumes()
    assert vols[0] == vols.max()  # the initial ghost exchange dominates
    assert (vols >= 0).all()
    # No self-partition traffic.
    for it in range(phase.iterations):
        assert np.trace(phase.partition_traffic[it]) == 0.0


def test_louvain_partition_weights_normalised(phase):
    w = phase.partition_weights()
    assert w.shape == (phase.num_partitions,)
    assert w.sum() == pytest.approx(1.0)
    assert (w >= 0).all()


def test_louvain_scale_to_graph(phase):
    assert phase.scale_to_graph(phase.num_edges) == pytest.approx(1.0)
    assert phase.scale_to_graph() > 1.0  # nlpkkt240 is much larger


def test_louvain_validation():
    adj = synthetic_kkt_graph(64)
    with pytest.raises(ValueError):
        run_louvain_phase(adj, num_partitions=0)


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #


def test_sweep_stage_count():
    s = SweepSchedule((4, 4, 2), (8, 8, 8), angles_per_octant=8, energy_groups=4)
    assert s.stages_per_octant == 4 + 4 + 2 - 2
    assert s.critical_path_stages == s.stages_per_octant + 7
    assert s.num_ranks == 32
    assert s.octants == 8


def test_sweep_face_bytes():
    s = SweepSchedule((2, 2, 2), (4, 8, 16), angles_per_octant=2, energy_groups=3)
    fb = s.face_bytes()
    np.testing.assert_allclose(
        fb, np.array([8 * 16, 4 * 16, 4 * 8]) * 2 * 3 * 8.0
    )
    assert s.bytes_per_rank_per_step() == pytest.approx(fb.sum() * 8)
    assert s.messages_per_rank_per_step() == 24
    assert s.mean_message_bytes() == pytest.approx(fb.sum() / 3)


def test_sweep_pipeline_efficiency_bounds():
    shallow = SweepSchedule((2, 2, 2), (8, 8, 8), 8, 4)
    deep = SweepSchedule((32, 16, 16), (8, 8, 8), 8, 4)
    for s in (shallow, deep):
        assert 0 < s.pipeline_efficiency() < 1
    # Deeper grids waste more of the pipeline.
    assert deep.pipeline_efficiency() < 1.0


def test_sweep_validation():
    with pytest.raises(ValueError):
        SweepSchedule((2, 2), (4, 4, 4), 8, 4)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        SweepSchedule((2, 2, 0), (4, 4, 4), 8, 4)
    with pytest.raises(ValueError):
        SweepSchedule((2, 2, 2), (4, 4, 4), 0, 4)
