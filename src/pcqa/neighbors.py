"""Exact k-nearest-neighbor search over an immutable point cloud.

Backed by ``scipy.spatial.cKDTree``, which is imported when the first index
is built, so importing this module loads numpy only.  All queries are exact, so
results match an exhaustive scan up to the ordering of equidistant
neighbors.  Every lookup is one batch query on the cloud's one tree, and it
keeps ``cKDTree``'s pick among equidistant points; a documented tie rule is
still open.  This class holds the only size checks of a kNN query: k
against the cloud's size, and the empty cloud.
"""

from __future__ import annotations

import os

import numpy as np

from .cloud import PointCloud


def _workers() -> int:
    """Query threads: the cores this process may run on, read at query time.
    (scipy's ``workers=-1`` takes ``os.cpu_count()``, which ignores affinity.)"""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class NeighborIndex:
    """Spatial index answering exact nearest-neighbor queries.  It keeps the
    cloud's read-only points, not the cloud, so it never keeps a cloud alive."""

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty cloud")
        from scipy.spatial import cKDTree

        self.points = cloud.points
        self._tree = cKDTree(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def query(self, q, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k points nearest to ``q`` (ascending);
        ``q`` is one point or an (M, 3) array of them."""
        if not 1 <= k <= len(self):
            raise ValueError(f"k must be in [1, {len(self)}], got {k}")
        dists, idx = self._tree.query(np.asarray(q, dtype=np.float64), k=k, workers=_workers())
        return np.atleast_1d(idx), np.atleast_1d(dists)

    def self_excluded_neighbors(self, k: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of the member points at ``rows`` (an index
        array, default every point), self excluded.

        Returns (indices, distances), each (len(rows), k), rows ordered by
        non-decreasing distance.  Duplicate points are legitimate neighbors
        of each other at distance 0; only the queried index itself is
        removed from its row.  A row does not depend on which other rows are
        queried with it.
        """
        n = len(self)
        if k < 1:
            raise ValueError(f"self-excluded queries need k >= 1, got {k}")
        if n < k + 1:
            raise ValueError(f"cloud of {n} points is too small for k={k} (need k+1 points)")
        if rows is None:
            rows, queries = np.arange(n), self.points
        else:
            rows = np.asarray(rows)
            queries = self.points[rows]
        dists, idx = self._tree.query(queries, k=k + 1, workers=_workers())
        # Column 0, usually the point itself, is dropped; rows where a duplicate
        # precedes it are shifted first.  A row of k+1 coincident duplicates may
        # lack the point; its farthest entry goes instead (a tie at the cut).
        bad = np.flatnonzero(idx[:, 0] != rows)
        self_pos = idx[bad] == rows[bad, None]
        drop = np.where(self_pos.any(axis=1), self_pos.argmax(axis=1), k)
        keep = np.arange(k + 1) != drop[:, None]
        idx[bad, 1:] = idx[bad][keep].reshape(-1, k)
        dists[bad, 1:] = dists[bad][keep].reshape(-1, k)
        return idx[:, 1:], dists[:, 1:]
