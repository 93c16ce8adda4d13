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
    same cell are deduplicated, keeping first occurrences in order.  The
    cloud's bit depth is preserved: the grid coarsens but the coordinate
    range does not shrink.
    """
    if len(cloud) == 0:
        raise ValueError("cannot degrade an empty cloud")
    bit_depth = cloud.bit_depth if cloud.bit_depth is not None else infer_bit_depth(cloud)
    if not 1 <= bits_dropped < bit_depth:
        raise ValueError(
            f"bits_dropped must be in [1, {bit_depth - 1}] for a {bit_depth}-bit cloud, "
            f"got {bits_dropped}"
        )
    step = float(2**bits_dropped)
    snapped = np.floor(cloud.points / step) * step
    _, first = np.unique(snapped, axis=0, return_index=True)
    keep = np.sort(first)
    return PointCloud(snapped[keep], bit_depth=bit_depth)
