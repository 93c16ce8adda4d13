import math

import numpy as np
import pytest

from pcqa import PointCloud, estimate_normals, gaussian_jitter, octree_quantize
from oracles import octree_quantize_unique
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
    for bits in (1.5, 2.5):  # the rule a bit depth follows: integral values only
        with pytest.raises(ValueError, match=f"bits_dropped must be in \\[1, 2\\] for a 3-bit cloud, got {bits}"):
            octree_quantize(cloud, bits)
    for bits in (1.0, np.int64(1)):
        assert octree_quantize(cloud, bits).points.tobytes() == octree_quantize(cloud, 1).points.tobytes()


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


def _assert_matches_unique_oracle(points, bit_depth, bits):
    out = octree_quantize(PointCloud(points, bit_depth=bit_depth), bits)
    expected = octree_quantize_unique(points, bits)
    assert out.points.tobytes() == expected.tobytes()  # same points, order and signs of zero
    assert out.bit_depth == bit_depth


def test_quantize_matches_the_unique_oracle(rng):
    for bit_depth in (3, 7, 12):  # integral cells with repeated rows, in two orders
        base = rng.integers(0, 2**bit_depth, size=(200, 3)).astype(np.float64)
        points = np.concatenate([base, base[rng.integers(0, len(base), 100)]])
        for shuffled in (points, points[rng.permutation(len(points))]):
            for bits in range(1, bit_depth):
                _assert_matches_unique_oracle(shuffled, bit_depth, bits)
    for bit_depth in (4, 10):  # non-integral coordinates inside the range
        points = rng.uniform(0.0, 2.0**bit_depth - 1.0, size=(300, 3))
        for bits in (1, 2, bit_depth - 1):
            _assert_matches_unique_oracle(points, bit_depth, bits)
    _assert_matches_unique_oracle(np.array([[5.0, 6.0, 7.0]]), 3, 2)  # one point


def test_quantize_keeps_the_first_of_a_signed_zero_cell():
    # -0.0 and 0.0 are one cell; the row that comes first is kept, sign and all
    points = np.array([[-0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 4.0, 2.0], [-0.0, 4.0, 3.0]])
    for rows in (points, points[::-1].copy()):
        _assert_matches_unique_oracle(rows, 3, 1)
        out = octree_quantize(PointCloud(rows, bit_depth=3), 1).points
        assert np.signbit(out[:, 0]).tolist() == [True, False]  # rows 0 and 2 of either order


def test_quantize_matches_the_unique_oracle_past_21_bits_per_axis(rng):
    # more cell bits per axis than a packed 64-bit key could hold, so cells
    # that differ only in their high bits must stay apart
    for bit_depth, bits in ((30, 4), (53, 8), (53, 30)):
        top = 2.0**bit_depth - 2.0**bits
        centres = np.floor(rng.uniform(0.0, top, size=(60, 3)))
        spread = rng.integers(0, 2**(bits + 1), size=(240, 3))
        points = np.minimum(centres[rng.integers(0, 60, 240)] + spread, 2.0**bit_depth - 1.0)
        high = np.array([[0.0, 0.0, 0.0], [2.0**(bit_depth - 1), 0.0, 0.0], [0.0, 2.0**(bits + 22), 0.0]])
        points = np.concatenate([points, high])
        _assert_matches_unique_oracle(points, bit_depth, bits)
        assert len(octree_quantize(PointCloud(high, bit_depth=bit_depth), bits)) == 3

