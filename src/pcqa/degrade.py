"""Synthetic geometry degradations for building test ladders.

Two distortion families: additive Gaussian jitter (sensor-noise-like) and
octree quantization (coarsening voxelized coordinates by dropping low bits,
the signature artifact of octree-pruning codecs).  Both are deterministic
given their parameters, so repeated runs produce identical clouds.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud, infer_bit_depth


def gaussian_jitter(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    """Add i.i.d. zero-mean Gaussian noise to every coordinate.

    Normals are dropped (they no longer describe the jittered surface) and
    so is the bit depth (coordinates leave the integer grid).
    """
    if not 0.0 < sigma < np.inf:  # nan too
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if len(cloud) == 0:
        raise ValueError("cannot degrade an empty cloud")
    rng = np.random.default_rng(seed)
    noisy = cloud.points + rng.normal(0.0, sigma, size=cloud.points.shape)
    return PointCloud(noisy)


def octree_quantize(cloud: PointCloud, bits_dropped: int) -> PointCloud:
    """Snap coordinates to the grid that keeps the top (b - bits_dropped) bits.

    Coordinates are floored to multiples of 2**bits_dropped (the voxel
    origin an octree prune would report) and points collapsing onto the
    same cell are deduplicated by one sort of the snapped cells: the first
    occurrence of each cell is kept, in input order.  Normals are dropped
    (they no longer describe the coarsened surface).  The cloud's bit depth
    is preserved: the grid coarsens but the coordinate range does not
    shrink.  ``bits_dropped`` must be an integer (1.0 is one; 1.5 is not).
    """
    if len(cloud) == 0:
        raise ValueError("cannot degrade an empty cloud")
    bit_depth = cloud.bit_depth if cloud.bit_depth is not None else infer_bit_depth(cloud)
    if bits_dropped not in range(1, bit_depth):  # integers only, as a bit depth
        raise ValueError(
            f"bits_dropped must be in [1, {bit_depth - 1}] for a {bit_depth}-bit cloud, "
            f"got {bits_dropped}"
        )
    step = 2.0**bits_dropped
    snapped = np.floor(cloud.points / step) * step
    # rows sorted by cell, cut where the cell changes, the smallest input
    # index of each run kept; a packed integer key would overflow past 21
    # bits per axis, and b goes up to 53
    order = np.lexsort(snapped.T)
    cells = snapped[order]
    starts = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)])
    keep = np.sort(np.minimum.reduceat(order, starts))
    return PointCloud(snapped[keep], bit_depth=bit_depth)
