import math

import numpy as np
import pytest

from pcqa import PointCloud, estimate_normals, gaussian_jitter, octree_quantize
from shapes import integer_grid, random_voxel_cloud


def test_jitter_rejects_nonpositive_sigma():
    cloud = integer_grid(3)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_jitter(cloud, 0.0, seed=1)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_jitter(cloud, -0.5, seed=1)
    for sigma in (math.nan, math.inf):  # not the cloud's "coordinates must be finite"
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            gaussian_jitter(cloud, sigma, seed=1)


def test_jitter_is_deterministic_per_seed():
    cloud = integer_grid(4)
    a = gaussian_jitter(cloud, 0.7, seed=42)
    b = gaussian_jitter(cloud, 0.7, seed=42)
    c = gaussian_jitter(cloud, 0.7, seed=43)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_jitter_perturbs_every_coordinate_on_average():
    cloud = integer_grid(6)
    noisy = gaussian_jitter(cloud, 0.5, seed=0)
    deltas = noisy.points - cloud.points
    assert (deltas != 0.0).all()
    assert abs(float(deltas.std()) - 0.5) < 0.05


def test_jitter_drops_normals_and_bit_depth():
    cloud = estimate_normals(integer_grid(4, bit_depth=3), k=5)
    noisy = gaussian_jitter(cloud, 0.1, seed=7)
    assert noisy.normals is None
    assert noisy.bit_depth is None


def test_jitter_rejects_empty_cloud():
    with pytest.raises(ValueError, match="empty"):
        gaussian_jitter(PointCloud(np.empty((0, 3))), 0.5, seed=0)


def test_quantize_snaps_to_coarse_grid():
    cloud = PointCloud([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 6.0]], bit_depth=3)
    coarse = octree_quantize(cloud, 1)
    assert np.array_equal(coarse.points, [[0, 0, 2], [2, 4, 4], [6, 6, 6]])
    assert coarse.bit_depth == 3


def test_quantize_keeps_already_coarse_cloud_identical():
    even = integer_grid(4, spacing=2.0, bit_depth=3)  # coordinates 0, 2, 4, 6
    out = octree_quantize(even, 1)
    assert np.array_equal(out.points, even.points)  # same points, same order
    assert out.bit_depth == 3


def test_quantize_deduplicates_collapsed_points_keeping_first_occurrences():
    pts = np.array([[5.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    out = octree_quantize(PointCloud(pts, bit_depth=3), 2)
    # cells: [4,0,0], [0,0,0], [0,0,0] (dup), [4,0,0] (dup) -> first of each, in order
    assert np.array_equal(out.points, [[4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_quantize_validates_bits_dropped():
    cloud = integer_grid(4, bit_depth=3)
    with pytest.raises(ValueError, match="bits_dropped"):
        octree_quantize(cloud, 0)
    with pytest.raises(ValueError, match="bits_dropped"):
        octree_quantize(cloud, 3)  # would erase the whole depth


def test_quantize_infers_missing_bit_depth():
    cloud = PointCloud([[0.0, 0.0, 0.0], [0.0, 0.0, 9.0]])  # inferred depth 4
    out = octree_quantize(cloud, 3)
    assert out.bit_depth == 4
    assert np.array_equal(out.points, [[0, 0, 0], [0, 0, 8]])
    with pytest.raises(ValueError, match="negative"):
        octree_quantize(PointCloud([[-1.0, 0.0, 0.0]]), 1)


def test_quantize_is_idempotent(rng):
    cloud = random_voxel_cloud(rng, n=300, bit_depth=7)
    once = octree_quantize(cloud, 3)
    twice = octree_quantize(once, 3)
    assert np.array_equal(once.points, twice.points)


def test_quantize_displacement_is_bounded(rng):
    cloud = random_voxel_cloud(rng, n=300, bit_depth=7)
    for bits in (1, 2, 4):
        out = octree_quantize(cloud, bits)
        # every original point is within one coarse cell of some kept point
        step = 2.0**bits
        from oracles import nn_brute

        _, d = nn_brute(cloud.points, out.points)
        assert d.max() < step * np.sqrt(3.0)
