"""Exact k-nearest-neighbor search over an immutable point cloud.

Backed by ``scipy.spatial.cKDTree``, which is imported when the first index
is built, so importing pcqa loads numpy only.  All queries are exact, so
results match an exhaustive scan up to the ordering of equidistant
neighbors.  Single nearest-neighbor lookups additionally break distance ties
toward the lowest point index, which keeps downstream metrics deterministic
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud


@dataclass(frozen=True)
class Neighborhood:
    """The k nearest neighbors of one cloud point, excluding the point itself."""

    center_index: int
    neighbor_indices: np.ndarray  # (k,) int, ordered by non-decreasing distance
    distances: np.ndarray  # (k,) float

    def __post_init__(self):
        object.__setattr__(self, "neighbor_indices", np.asarray(self.neighbor_indices, dtype=np.intp))
        object.__setattr__(self, "distances", np.asarray(self.distances, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.neighbor_indices)


class NeighborIndex:
    """Spatial index answering exact nearest-neighbor queries."""

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty cloud")
        from scipy.spatial import cKDTree

        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def __len__(self) -> int:
        return len(self.cloud)

    def query(self, q, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k points nearest to ``q`` (ascending);
        ``q`` is one point or an (M, 3) array of them."""
        if not 1 <= k <= len(self):
            raise ValueError(f"k must be in [1, {len(self)}], got {k}")
        dists, idx = self._tree.query(np.asarray(q, dtype=np.float64), k=k, workers=-1)
        return np.atleast_1d(idx), np.atleast_1d(dists)

    def self_excluded_neighbors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of every member point, self excluded.

        Returns (indices, distances), each (N, k), rows ordered by
        non-decreasing distance.  Duplicate points are legitimate neighbors
        of each other at distance 0; only the queried index itself is
        removed from its row.
        """
        n = len(self)
        if not 1 <= k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}] for self-excluded queries, got {k}")
        dists, idx = self._tree.query(self.cloud.points, k=k + 1, workers=-1)
        # Column 0, usually the point itself, is dropped; rows where a duplicate
        # precedes it are shifted first.  A row of k+1 coincident duplicates may
        # lack the point; its farthest entry goes instead (a tie at the cut).
        rows = np.flatnonzero(idx[:, 0] != np.arange(n))
        self_pos = idx[rows] == rows[:, None]
        drop = np.where(self_pos.any(axis=1), self_pos.argmax(axis=1), k)
        keep = np.arange(k + 1) != drop[:, None]
        idx[rows, 1:] = idx[rows][keep].reshape(-1, k)
        dists[rows, 1:] = dists[rows][keep].reshape(-1, k)
        return idx[:, 1:], dists[:, 1:]

    def nearest(self, q, exclude_index: int | None = None) -> tuple[int, float]:
        """Nearest point to ``q``; ties broken toward the lowest index.

        ``exclude_index`` removes one member point (by index) from the
        candidate set, for self-excluded lookups.
        """
        n = len(self)
        if exclude_index is not None and n < 2:
            raise ValueError("no candidates remain after excluding the query point")
        q = np.asarray(q, dtype=np.float64)
        k = 1 if exclude_index is None else 2
        idx, dists = self.query(q, k=k)
        if exclude_index is not None:
            keep = idx != exclude_index
            if not keep.any():  # both hits were the excluded point (impossible) — safety net
                raise ValueError("no candidates remain after exclusion")
            idx, dists = idx[keep], dists[keep]
        d_best = float(dists[0])
        # collect the full tie class so 'lowest index wins' holds exactly
        candidates = self._tree.query_ball_point(q, r=d_best * (1.0 + 1e-12) + 5e-324)
        best_i, best_d = int(idx[0]), d_best
        for i in candidates:
            if i == exclude_index:
                continue
            d = float(np.sqrt(((self.cloud.points[i] - q) ** 2).sum()))
            if d < best_d or (d == best_d and i < best_i):
                best_i, best_d = i, d
        return best_i, best_d


def build_index(cloud: PointCloud) -> NeighborIndex:
    """Build a nearest-neighbor index over the cloud (cloud is not mutated)."""
    return NeighborIndex(cloud)


def nearest_neighbor(index: NeighborIndex, q, exclude_self: bool = False) -> tuple[int, float]:
    """Index and distance of the point nearest to ``q``.

    With ``exclude_self`` the member point coinciding with ``q`` (lowest
    index, if several coincide) is removed from the candidates, so querying
    a cloud point finds its nearest *other* point.
    """
    exclude = None
    if exclude_self:
        coincident = index._tree.query_ball_point(np.asarray(q, dtype=np.float64), r=0.0)
        if coincident:
            exclude = min(coincident)
    return index.nearest(q, exclude_index=exclude)


def k_neighborhood(index: NeighborIndex, i: int, k: int) -> Neighborhood:
    """The k nearest neighbors of member point ``i``, self excluded."""
    n = len(index)
    if not 0 <= i < n:
        raise ValueError(f"point index {i} out of range for cloud of {n} points")
    if not 1 <= k <= n - 1:
        raise ValueError(f"cloud of {n} points is too small for k={k} (need k+1 points)")
    dists, idx = index._tree.query(index.cloud.points[i], k=k + 1)
    idx = np.atleast_1d(idx)
    dists = np.atleast_1d(dists)
    keep = idx != i
    if keep.all():  # self not returned: >= k+1 coincident duplicates; drop the farthest
        keep[-1] = False
    idx, dists = idx[keep][:k], dists[keep][:k]
    return Neighborhood(center_index=i, neighbor_indices=idx, distances=dists)
