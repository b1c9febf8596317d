"""Mutual information (paper §IV-A, Eq. 1).

    I(X; Y) = sum_{x,y} P(x,y) log( P(x,y) / (P(x) P(y)) )

computed from empirical joint distributions.  The neighbourhood analysis
uses the binary/binary case: X = "user u had a job running alongside run
r", Y = "run r was optimal".  Natural log (nats) throughout.
"""

from __future__ import annotations

import numpy as np


def mutual_information_discrete(x: np.ndarray, y: np.ndarray) -> float:
    """MI between two discrete variables sampled jointly."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    n = len(x)
    if n == 0:
        raise ValueError("empty input")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    nx = xi.max() + 1
    ny = yi.max() + 1
    joint = np.bincount(xi * ny + yi, minlength=nx * ny).reshape(nx, ny) / n
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.where(mask, joint / np.where(mask, px * py, 1.0), 1.0)
    return float(np.sum(joint[mask] * np.log(ratio[mask])))


def mutual_information_binary(x: np.ndarray, y: np.ndarray) -> float:
    """MI between two binary variables (fast path of the general case)."""
    x = np.asarray(x).astype(bool)
    y = np.asarray(y).astype(bool)
    return mutual_information_discrete(x.astype(np.int8), y.astype(np.int8))


def columnwise_mi(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """MI of each column of binary matrix ``m`` with binary vector ``p``.

    This is the paper's user-vs-optimality computation: ``m`` is the
    N x |U| co-occurrence matrix, ``p`` the optimality vector (§IV-A).
    """
    m = np.asarray(m)
    p = np.asarray(p)
    if m.ndim != 2 or len(p) != m.shape[0]:
        raise ValueError("m must be (N, U) and p length-N")
    return np.array(
        [mutual_information_binary(m[:, j], p) for j in range(m.shape[1])]
    )
