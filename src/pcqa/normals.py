"""Per-point surface normal estimation via neighborhood PCA."""

from __future__ import annotations

import warnings

import numpy as np

from .cloud import PointCloud
from .neighbors import NeighborIndex

DEFAULT_NORMAL_K = 10
BLOCK_ROWS = 65536  # rows per block in the per-point kernels, which bounds their temporaries
_EIGH_GAP = 1e-6  # relative gap of the two smallest eigenvalues below which eigh takes over


def _smallest_eigenvectors(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest-eigenvalue unit eigenvectors of symmetric PSD 3x3 matrices, as
    (vectors, fallback, zero); ``fallback`` marks rows whose two smallest
    eigenvalues lie within ``_EIGH_GAP * lambda_max`` or whose vector is not
    finite.  lambda_min is closed form (Kopp, arXiv:physics/0610206); the
    vector is the largest column of adj(A - lambda_min*I) (the largest cross
    product of two rows) times that adjugate again, an inverse-iteration step."""
    a, b, c = cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2]
    d, e, f = cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]
    trace = a + b + c
    zero = trace == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = trace / 3.0
        aq, bq, cq = a - q, b - q, c - q
        p = np.sqrt((aq * aq + bq * bq + cq * cq + 2.0 * (d * d + e * e + f * f)) / 6.0)
        det = aq * (bq * cq - f * f) - d * (d * cq - f * e) + e * (d * f - bq * e)
        phi = np.arccos(np.clip(det / (2.0 * p**3), -1.0, 1.0)) / 3.0
        lam_max = q + 2.0 * p * np.cos(phi)
        lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        lam_mid = 3.0 * q - lam_max - lam_min
        a, b, c = a - lam_min, b - lam_min, c - lam_min
        adj = np.stack([b * c - f * f, e * f - d * c, d * f - e * b,
                        a * c - e * e, d * e - a * f, a * b - d * d], axis=1)
        adj = adj[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
        # elementwise: matmul and einsum may sum in another order for one row
        best = (adj[:, 0] ** 2 + adj[:, 1] ** 2 + adj[:, 2] ** 2).argmax(axis=1)
        column = adj[np.arange(len(adj)), :, best]
        vectors = sum(adj[:, :, j] * column[:, j, None] for j in range(3))
        vectors /= np.sqrt(vectors[:, 0] ** 2 + vectors[:, 1] ** 2 + vectors[:, 2] ** 2)[:, None]
    fallback = (lam_mid - lam_min <= _EIGH_GAP * lam_max) | ~np.isfinite(vectors).all(axis=1)
    return vectors, fallback & ~zero, zero


def normal_vectors(
    cloud: PointCloud, k: int = DEFAULT_NORMAL_K, *, neighbors: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate unit normals for every point; returns (normals, degenerate mask).

    The normal at a point is the eigenvector of smallest eigenvalue of the
    covariance of its k nearest neighbors (self excluded, centered at the
    neighborhood mean).  Sign carries no meaning and is canonicalized so the
    largest-magnitude component is positive.  A neighborhood of coincident
    points has no defined normal; those points get (0, 0, 1) and are flagged
    in the returned mask, and a ``RuntimeWarning`` names how many of the
    estimated points there are.  ``neighbors`` may pass the (M, k) indices
    of ``NeighborIndex.self_excluded_neighbors(k, rows)`` for M of the
    cloud's points; then only those points are estimated, one row each.
    A normal depends on its own neighborhood only, so it does not change
    with the other points estimated.
    """
    if k < 3:
        raise ValueError(f"normal estimation needs k >= 3, got {k}")
    index = NeighborIndex(cloud) if neighbors is None else None
    n = len(cloud) if neighbors is None else len(neighbors)

    normals = np.empty((n, 3))
    degenerate = np.empty(n, dtype=bool)
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        if neighbors is not None:
            idx = neighbors[rows]
        else:  # queried block by block, so no (N, k) array is held
            idx = index.self_excluded_neighbors(k, np.arange(start, min(start + BLOCK_ROWS, n)))[0]
        centered = cloud.points[idx]  # (B, k, 3)
        centered -= centered.mean(axis=1, keepdims=True)
        cov = np.matmul(np.ascontiguousarray(centered.transpose(0, 2, 1)), centered) / k
        vectors, fallback, degenerate[rows] = _smallest_eigenvectors(cov)
        if fallback.any():
            # einsum's sums: on a repeated eigenvalue eigh's pick turns on the last bit
            c = centered[fallback]
            vectors[fallback] = np.linalg.eigh(np.einsum("nki,nkj->nij", c, c) / k)[1][:, :, 0]
        normals[rows] = vectors
    normals[degenerate] = (0.0, 0.0, 1.0)  # all-coincident neighborhoods have zero covariance
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} of {n} points have degenerate "
            "(coincident) neighborhoods; their normals were set to (0, 0, 1)",
            RuntimeWarning,
            stacklevel=2,
        )

    norms = np.linalg.norm(normals, axis=1)
    normals /= norms[:, None]
    # deterministic sign: flip so the largest-|component| entry is positive
    lead = np.take_along_axis(normals, np.abs(normals).argmax(axis=1)[:, None], axis=1)[:, 0]
    normals[lead < 0.0] *= -1.0
    return normals, degenerate


def estimate_normals(cloud: PointCloud, k: int = DEFAULT_NORMAL_K) -> PointCloud:
    """Return a copy of the cloud with PCA-estimated unit normals attached;
    ``normal_vectors`` also returns the degeneracy mask."""
    return cloud.with_normals(normal_vectors(cloud, k)[0])
