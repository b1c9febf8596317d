"""Exact halo-exchange accounting for block-decomposed grid codes.

Given a per-rank local grid and the width/byte-size of the exchanged ghost
layers, computes the bytes each rank sends to each face neighbour per
exchange.  Used by the MILC (4-D stencil) and AMG/UMT (3-D) models to get
message sizes from the actual decomposition rather than hand-tuned
constants.
"""

from __future__ import annotations

import numpy as np


def halo_surface_bytes(
    local_shape: tuple[int, ...],
    bytes_per_site: float,
    ghost_width: int = 1,
) -> np.ndarray:
    """Bytes sent per face neighbour for one halo exchange.

    Parameters
    ----------
    local_shape:
        The per-rank local grid, e.g. ``(4, 4, 4, 4)`` for MILC's 4-D
        per-process lattice or ``(32, 32, 32)`` for AMG (Table I).
    bytes_per_site:
        Payload bytes per grid site in the ghost layer (e.g. an SU(3)
        colour matrix is 72 bytes, a double-precision scalar 8).
    ghost_width:
        Ghost-layer depth in sites.

    Returns
    -------
    numpy.ndarray
        Per-dimension message size in bytes; the exchange sends this to
        both the + and - neighbour of each dimension.
    """
    shape = np.asarray(local_shape, dtype=np.int64)
    if (shape <= 0).any():
        raise ValueError("local grid dimensions must be positive")
    if ghost_width < 1:
        raise ValueError("ghost_width must be >= 1")
    if bytes_per_site <= 0:
        raise ValueError("bytes_per_site must be positive")
    total = shape.prod()
    surfaces = total // shape  # sites on the face orthogonal to each dim
    width = np.minimum(ghost_width, shape)
    return surfaces.astype(np.float64) * width * bytes_per_site
