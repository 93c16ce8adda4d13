"""Brute-force reference implementations the fast library paths are tested
against.

Everything here works from raw coordinate arrays and full pairwise distance
matrices — no spatial index, no code shared with the package — so agreement
between the two is evidence, not tautology.  Blockwise evaluation keeps the
distance matrices within memory bounds.  Every entry is
sqrt(dx*dx + dy*dy + dz*dz), summed coordinate by coordinate in that order,
exactly as a double loop over the point pairs would compute it; the
|a|^2 + |b|^2 - 2 a.b expansion is avoided because it rounds differently
and breaks exact ties.
"""

import math

import numpy as np

_BLOCK = 512


def pairwise_distances(a, b) -> np.ndarray:
    """Full |a| x |b| Euclidean distance matrix."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty((len(a), len(b)))
    b_cols = [np.ascontiguousarray(b[:, c]) for c in range(3)]
    scratch = np.empty((min(_BLOCK, len(a)), len(b)))
    for start in range(0, len(a), _BLOCK):
        block = a[start : start + _BLOCK]
        acc = out[start : start + _BLOCK]
        tmp = scratch[: len(block)]
        np.subtract(block[:, 0:1], b_cols[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for c in (1, 2):
            np.subtract(block[:, c : c + 1], b_cols[c], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(acc, tmp, out=acc)
        np.sqrt(acc, out=acc)
    return out


def nn_brute(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbor in ``b`` of every point of ``a``: (indices, distances).

    ``argmin`` keeps the first hit, so exact distance ties resolve to the
    lowest index.
    """
    d = pairwise_distances(a, b)
    idx = d.argmin(axis=1)
    return idx, d[np.arange(len(a)), idx]


def knn_self_excluded_brute(pts, k) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest other points: (indices, distances), both (N, k).

    Ordered as a stable sort of each distance row, so ties resolve to
    ascending index order.  ``np.partition`` only narrows the candidates to
    the entries ``<=`` each row's k-th smallest distance; those are then
    stably sorted in full, so ties at the k-th cut still resolve to ascending
    index.
    """
    d = pairwise_distances(pts, pts)
    np.fill_diagonal(d, np.inf)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(d <= kth)
    # by row, then distance, then column: a stable per-row sort
    order = np.lexsort((cols, d[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(len(d)))
    idx = cols[order[first[:, None] + np.arange(k)]]
    return idx, d[np.arange(len(d))[:, None], idx]


def mnn_brute(pts) -> float:
    _, d = knn_self_excluded_brute(pts, 1)
    return float(d.max())


def ann_brute(pts) -> float:
    _, d = knn_self_excluded_brute(pts, 1)
    return math.sqrt(float((d * d).mean()))


def ann_k_brute(pts, k) -> float:
    _, d = knn_self_excluded_brute(pts, k)
    return math.sqrt(float((d * d).mean()))


def apd_k_brute(pts, normals, k) -> float:
    """RMS in-tangent-plane neighbor distance, via |o|^2 - (o.n)^2 per pair
    (a different formula than the library's explicit projection vector)."""
    pts = np.asarray(pts, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    idx, _ = knn_self_excluded_brute(pts, k)
    total = 0.0
    count = 0
    for i in range(len(pts)):
        n = normals[i]
        for j in idx[i]:
            o = pts[j] - pts[i]
            planar_sq = float(o @ o) - float(o @ n) ** 2
            total += max(planar_sq, 0.0)
            count += 1
    return math.sqrt(total / count)


def mse_brute(a, b, kind="po2po", b_normals=None) -> float:
    """Directional mean squared NN error from ``a`` into ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    idx, dist = nn_brute(a, b)
    if kind == "po2po":
        return float((dist * dist).mean())
    if kind != "po2pl":
        raise ValueError(f"unknown error kind {kind!r}")
    e = a - b[idx]
    proj = (e * np.asarray(b_normals, dtype=np.float64)[idx]).sum(axis=1)
    return float((proj * proj).mean())


def octree_quantize_unique(points, bits_dropped) -> np.ndarray:
    """Coordinates floored to multiples of 2**bits_dropped, with the first
    occurrence of each cell kept in input order, found by ``np.unique``'s
    stable row sort (``axis=0``) rather than by a sort of the columns."""
    step = float(2**bits_dropped)
    snapped = np.floor(np.asarray(points, dtype=np.float64) / step) * step
    _, first = np.unique(snapped, axis=0, return_index=True)
    return snapped[np.sort(first)]
