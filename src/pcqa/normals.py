"""Per-point surface normal estimation via neighborhood PCA."""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .spec import DEFAULT_NORMAL_K

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
    """Estimate unit normals; returns (normals, degenerate mask).

    The normal at a point is the eigenvector of smallest eigenvalue of the
    covariance of its k nearest neighbors (self excluded, centered at the
    neighborhood mean).  Sign carries no meaning and is canonicalized so the
    largest-magnitude component is positive.  A neighborhood of coincident
    points has no defined normal; those points get (0, 0, 1) and are flagged
    in the returned mask.

    Without ``neighbors`` this is one ``metrics.PreparedCloud`` pass over
    every point of a new cloud of the same points, so the cloud's own normals
    are ignored, nothing is kept with it and the caller owns (and may write)
    the returned arrays: it needs k >= 3 and warns once with the count of
    degenerate points.  ``neighbors``, the
    (M, k) ``NeighborIndex.self_excluded_neighbors(k, rows)`` of one block,
    makes this that pass's kernel: those M rows only, unchecked, unwarned.
    A normal depends on its own neighborhood only, not on the rows beside it.
    """
    if neighbors is None:
        from .metrics import PreparedCloud  # here, not at the top: metrics imports this module

        return PreparedCloud(PointCloud(cloud.points), k).estimate_normals()
    centered = cloud.points[neighbors]  # (M, k, 3)
    centered -= centered.mean(axis=1, keepdims=True)
    cov = np.matmul(np.ascontiguousarray(centered.transpose(0, 2, 1)), centered) / k
    normals, fallback, degenerate = _smallest_eigenvectors(cov)
    if fallback.any():
        # einsum's sums: on a repeated eigenvalue eigh's pick turns on the last bit
        c = centered[fallback]
        normals[fallback] = np.linalg.eigh(np.einsum("nki,nkj->nij", c, c) / k)[1][:, :, 0]
    normals[degenerate] = (0.0, 0.0, 1.0)  # all-coincident neighborhoods have zero covariance
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    # deterministic sign: flip so the largest-|component| entry is positive
    lead = np.take_along_axis(normals, np.abs(normals).argmax(axis=1)[:, None], axis=1)[:, 0]
    normals[lead < 0.0] *= -1.0
    return normals, degenerate


def estimate_normals(cloud: PointCloud, k: int = DEFAULT_NORMAL_K) -> PointCloud:
    """Return a copy of the cloud with PCA-estimated unit normals attached;
    ``normal_vectors`` also returns the degeneracy mask."""
    normals = normal_vectors(cloud, k)[0]
    normals.setflags(write=False)  # fresh and ours, so the new cloud keeps it uncopied
    return cloud.with_normals(normals)
