import numpy as np
import pytest

from oracles import knn_self_excluded_brute, nn_brute, pairwise_distances
from pcqa import NeighborIndex, PointCloud
from shapes import integer_grid, random_cloud, random_voxel_cloud


def test_empty_cloud_cannot_be_indexed():
    with pytest.raises(ValueError):
        NeighborIndex(PointCloud(np.empty((0, 3))))


def test_query_returns_neighbors_in_ascending_order():
    index = NeighborIndex(PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    idx, dists = index.query([1.9, 0.0, 0.0], k=2)
    assert list(idx) == [1, 0]
    assert dists == pytest.approx([0.1, 1.9])


def test_query_k_bounds():
    index = NeighborIndex(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        index.query([0.0, 0.0, 0.0], k=0)
    with pytest.raises(ValueError):
        index.query([0.0, 0.0, 0.0], k=3)
    for k in (1.5, np.float64(1.5), "1"):  # checked before the bounds, like a bit depth
        with pytest.raises(ValueError, match="^a kNN query needs an integer k, got"):
            index.query([0.0, 0.0, 0.0], k=k)


def test_query_matches_brute_force(rng):
    cloud = random_cloud(rng, n=200)
    queries = rng.uniform(-2.0, 12.0, size=(40, 3))
    idx, dists = NeighborIndex(cloud).query(queries)
    want_idx, want_d = nn_brute(queries, cloud.points)
    assert np.array_equal(idx, want_idx)  # random coordinates: no ties
    np.testing.assert_allclose(dists, want_d, rtol=1e-12)


def test_query_distances_match_brute_force_on_voxel_ties(rng):
    cloud = random_voxel_cloud(rng, n=400, bit_depth=5)
    queries = cloud.points + 0.5  # half-voxel shift: several voxels equidistant
    d = pairwise_distances(queries, cloud.points)
    assert ((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()  # ties occur
    idx, dists = NeighborIndex(cloud).query(queries)
    _, want_d = nn_brute(queries, cloud.points)
    assert np.array_equal(dists, want_d)
    # whichever equidistant point the tree picked, it is at that distance
    assert np.array_equal(d[np.arange(len(queries)), idx], want_d)


def test_self_excluded_neighbors_matches_brute_force(rng):
    cloud = random_cloud(rng, n=120)
    idx, dists = NeighborIndex(cloud).self_excluded_neighbors(5)
    want_idx, want_d = knn_self_excluded_brute(cloud.points, 5)
    assert np.array_equal(idx, want_idx)  # random coordinates: no ties
    np.testing.assert_allclose(dists, want_d, rtol=1e-12)


def test_self_excluded_neighbors_with_coincident_duplicates():
    # five copies of the origin plus one outlier; k exceeds the duplicate count
    pts = np.zeros((6, 3))
    pts[5] = (2.0, 0.0, 0.0)
    idx, dists = NeighborIndex(PointCloud(pts)).self_excluded_neighbors(5)
    rows = np.arange(6)
    assert not (idx == rows[:, None]).any()  # never lists itself
    # each origin copy sees the four other copies then the outlier
    np.testing.assert_array_equal(dists[:5], [[0, 0, 0, 0, 2.0]] * 5)
    np.testing.assert_array_equal(dists[5], [2.0] * 5)

    # k smaller than the duplicate count: all-zero rows, self still excluded
    idx, dists = NeighborIndex(PointCloud(pts)).self_excluded_neighbors(3)
    assert not (idx == rows[:, None]).any()
    assert (dists[:5] == 0.0).all()


def test_self_excluded_neighbors_all_coincident():
    # every point coincident: each row still leaves out its own index
    idx, dists = NeighborIndex(PointCloud(np.zeros((5, 3)))).self_excluded_neighbors(3)
    assert 2 not in idx[2]
    assert not (idx == np.arange(5)[:, None]).any()
    np.testing.assert_array_equal(dists, np.zeros((5, 3)))


def test_self_excluded_neighbors_k_bounds():
    index = NeighborIndex(PointCloud(np.zeros((4, 3))))
    with pytest.raises(ValueError):
        index.self_excluded_neighbors(0)
    with pytest.raises(ValueError):
        index.self_excluded_neighbors(4)  # needs k + 1 <= n
    for k in (1.5, np.float64(1.5), "1"):
        with pytest.raises(ValueError, match="^a self-excluded query needs an integer k, got"):
            index.self_excluded_neighbors(k)


def test_a_k_equal_to_an_integer_reads_as_that_integer():
    index = NeighborIndex(integer_grid(3))
    for k in (4.0, np.int64(4)):
        for got, want in ((index.query([0.5, 1.0, 1.0], k), index.query([0.5, 1.0, 1.0], 4)),
                          (index.self_excluded_neighbors(k), index.self_excluded_neighbors(4))):
            assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


def test_grid_centre_row_sits_one_spacing_away():
    cloud = integer_grid(5)
    center = len(cloud) // 2  # (2, 2, 2), the exact middle of the 5-cube
    idx, dists = NeighborIndex(cloud).self_excluded_neighbors(6)
    assert center not in idx[center]
    np.testing.assert_array_equal(dists[center], np.ones(6))
