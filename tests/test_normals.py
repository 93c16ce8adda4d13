import warnings

import numpy as np
import pytest

import pcqa.metrics
import pcqa.normals
from pcqa import (
    ErrorKind,
    NeighborIndex,
    PeakSpec,
    PointCloud,
    estimate_normals,
    gaussian_jitter,
    normal_vectors,
    psnr,
)
from pcqa.metrics import PreparedCloud
from shapes import fibonacci_sphere, planar_grid, voxelized_sphere


def test_plane_recovers_exact_normal():
    cloud = planar_grid(10, with_normals=False)
    normals, degenerate = normal_vectors(cloud, k=8)
    assert not degenerate.any()
    np.testing.assert_allclose(normals, np.tile([0.0, 0.0, 1.0], (len(cloud), 1)), atol=1e-12)


def test_sphere_normals_align_with_radial_direction():
    cloud = fibonacci_sphere(n=600, radius=30.0)
    normals, degenerate = normal_vectors(cloud, k=10)
    assert not degenerate.any()
    radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
    alignment = np.abs(np.einsum("ij,ij->i", normals, radial))
    assert alignment.min() > 0.995  # sign-free: PCA normals have no orientation


def test_normals_are_unit_and_sign_canonical(rng):
    cloud = PointCloud(rng.uniform(0.0, 5.0, size=(80, 3)))
    normals, _ = normal_vectors(cloud, k=6)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=1e-12)
    lead = np.take_along_axis(normals, np.abs(normals).argmax(axis=1)[:, None], axis=1)
    assert (lead > 0).all()


def test_estimation_is_deterministic(rng):
    cloud = PointCloud(rng.uniform(0.0, 5.0, size=(60, 3)))
    a, _ = normal_vectors(cloud, k=6)
    b, _ = normal_vectors(cloud, k=6)
    assert np.array_equal(a, b)


def test_degenerate_neighborhoods_are_flagged_and_warned():
    pts = np.zeros((8, 3))
    pts[6:] = [[5.0, 0.0, 0.0], [5.0, 1.0, 0.0]]
    # the six coincident points see only each other for k=3
    with pytest.warns(RuntimeWarning, match="degenerate"):
        normals, degenerate = normal_vectors(PointCloud(pts), k=3)
    assert degenerate[:6].all()
    np.testing.assert_array_equal(normals[:6], np.tile([0.0, 0.0, 1.0], (6, 1)))

    with pytest.warns(RuntimeWarning, match="degenerate"):
        cloud = estimate_normals(PointCloud(pts), k=3)
    assert cloud.has_normals

    # po2pl scoring estimates the same normals, and the warning names the scorer
    with pytest.warns(RuntimeWarning, match="degenerate") as caught:
        psnr(PointCloud(pts), PointCloud(pts + 0.5), ErrorKind.PO2PL, PeakSpec.largest_diagonal(),
             normal_k=3)
    assert caught[0].filename.endswith("metrics.py")


def test_degenerate_warning_counts_the_pass_once(monkeypatch):
    # 8 sites, each repeated 12 times: every k=10 neighborhood is coincident
    cloud = PointCloud(np.repeat(np.arange(24.0).reshape(8, 3), 12, axis=0))
    n = len(cloud)
    monkeypatch.setattr(pcqa.metrics, "BLOCK_ROWS", 7)  # 14 blocks, each all degenerate
    rows = np.arange(0, n, 3)
    # matched rows first: they are not kept, while the whole cloud's normals are
    for estimate, count in ((lambda: list(PreparedCloud(cloud).normals_at(rows)), len(rows)),
                            (lambda: PreparedCloud(cloud).normals, n),
                            (lambda: normal_vectors(cloud), n)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate()
        assert [str(w.message).split(" have ")[0] for w in caught] == [f"{count} of {count} points"]
        assert caught[0].category is RuntimeWarning


def test_a_cloud_estimates_and_warns_once_for_its_normals(rng):
    # the reference's normals are kept with it, so a second call on the same
    # cloud estimates none and warns nothing; the degraded cloud is not degenerate
    ref = PointCloud(np.repeat(np.arange(24.0).reshape(8, 3), 12, axis=0))
    deg = PointCloud(rng.uniform(0.0, 24.0, (60, 3)))
    for expected in (["96 of 96 points"], []):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            psnr(ref, deg, ErrorKind.PO2PL, PeakSpec.largest_diagonal())
        assert [str(w.message).split(" have ")[0] for w in caught] == expected


def test_the_k_rule_is_reported_before_the_index_checks():
    # two points are too few for k=2, and k=0 is no kNN query at all; the
    # normal estimator's own rule is named first
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^normal estimation needs k >= 3, got 2$"):
        normal_vectors(cloud, k=2)
    with pytest.raises(ValueError, match=r"^normal estimation needs k >= 3, got 0$"):
        psnr(cloud, PointCloud(np.ones((2, 3))), ErrorKind.PO2PL, PeakSpec.largest_diagonal(),
             normal_k=0)


def test_collinear_points_get_a_perpendicular_normal():
    pts = np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)])
    normals, degenerate = normal_vectors(PointCloud(pts), k=4)
    assert not degenerate.any()  # rank-1, not rank-0: a normal direction exists
    assert np.abs(normals[:, 0]).max() < 1e-9  # perpendicular to the line


def test_normal_vectors_returns_arrays_the_caller_may_write(rng):
    # the arrays are the caller's own: flipping them in place works, and
    # neither the next call nor a scored cloud of the same points sees it
    cloud = PointCloud(rng.uniform(0.0, 1.0, (200, 3)))
    expected = PreparedCloud(cloud).normals.copy()
    normals, degenerate = normal_vectors(cloud)
    normals *= -1.0
    degenerate[:] = True
    again, mask = normal_vectors(cloud)
    assert np.array_equal(again, expected) and not mask.any()
    assert np.array_equal(PreparedCloud(cloud).normals, expected)


def test_estimate_normals_returns_new_cloud():
    cloud = planar_grid(6, with_normals=False)
    estimated = estimate_normals(cloud, k=5)
    assert estimated.has_normals and not cloud.has_normals
    assert estimated.bit_depth is None


def test_argument_validation():
    cloud = planar_grid(4, with_normals=False)
    with pytest.raises(ValueError):
        normal_vectors(cloud, k=2)
    with pytest.raises(ValueError):
        normal_vectors(PointCloud(np.zeros((4, 3))), k=4)  # needs k + 1 points


# ------------------------------------------- closed form against eigh


def _traced_normals(monkeypatch, cloud, k):
    """normal_vectors, plus the rows its closed form left to eigh and the
    einsum covariance of every neighborhood."""
    fallback = []
    closed_form = pcqa.normals._smallest_eigenvectors

    def spy(cov):
        vectors, rows, zero = closed_form(cov)
        fallback.append(rows)
        return vectors, rows, zero

    monkeypatch.setattr(pcqa.normals, "_smallest_eigenvectors", spy)
    normals, degenerate = normal_vectors(cloud, k=k)
    idx, _ = NeighborIndex(cloud).self_excluded_neighbors(k)
    neighbors = cloud.points[idx]
    centered = neighbors - neighbors.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    return normals, degenerate, np.concatenate(fallback), cov


def _isotropic_blobs(rng, count=40, jitter=1e-12):
    """Far-apart octahedra with their centers, randomly rotated: with k=6 a
    center sees a covariance that is a multiple of I up to ``jitter``."""
    rotations, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    shape = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    blobs = np.einsum("bij,pj->bpi", rotations, shape) + 100.0 * np.arange(count)[:, None, None]
    return PointCloud(blobs.reshape(-1, 3) + rng.normal(0.0, jitter, size=(count * 7, 3)))


def _collinear(rng):
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    return PointCloud(np.outer(np.sort(rng.uniform(0.0, 50.0, 60)), direction) + 7.0)


@pytest.mark.parametrize("name", ["voxel sphere", "jittered sphere", "random", "blobs",
                                  "collinear", "coincident"])
def test_closed_form_normals_match_eigh(monkeypatch, rng, name):
    k = 6 if name == "blobs" else 4 if name == "coincident" else 10
    clouds = {
        "voxel sphere": lambda: voxelized_sphere(n=3000, radius=40.0, bit_depth=7),
        "jittered sphere": lambda: gaussian_jitter(voxelized_sphere(n=3000, radius=40.0), 0.5, 7),
        "random": lambda: PointCloud(rng.uniform(0.0, 10.0, size=(2000, 3))),
        "blobs": lambda: _isotropic_blobs(rng),
        "collinear": lambda: _collinear(rng),
        "coincident": lambda: PointCloud(np.repeat(rng.uniform(0.0, 9.0, (6, 3)), 5, axis=0)),
    }
    cloud = clouds[name]()
    normals, degenerate, fallback, cov = _traced_normals(monkeypatch, cloud, k)
    eigvals, eigvecs = np.linalg.eigh(cov)

    assert np.array_equal(degenerate, eigvals[:, 2] <= 0.0)
    closed = ~fallback & ~degenerate
    want = eigvecs[closed, :, 0]
    sign = np.sign(np.einsum("ni,ni->n", normals[closed], want))[:, None]
    assert np.abs(normals[closed] - sign * want).max(initial=0.0) <= 1e-9
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=1e-12)
    # rows left to eigh get exactly eigh's vector of the einsum covariance
    solved = fallback & ~degenerate
    want = eigvecs[solved, :, 0] / np.linalg.norm(eigvecs[solved, :, 0], axis=1)[:, None]
    sign = np.sign(np.einsum("ni,ni->n", normals[solved], want))[:, None]
    assert np.array_equal(normals[solved], sign * want)

    if name in ("blobs", "collinear"):
        assert fallback.any()  # the eigh branch really ran
    if name == "blobs":
        assert fallback[::7].all() and not fallback[np.arange(len(cloud)) % 7 != 0].any()
    if name == "collinear":
        assert fallback.all()
        assert np.abs(normals @ (np.array([1.0, 2.0, 2.0]) / 3.0)).max() <= 1e-9
    if name == "coincident":
        assert degenerate.all()
    if name in ("voxel sphere", "jittered sphere", "random"):
        assert closed.mean() > 0.99


@pytest.mark.parametrize("gap", [2.5e-6, 1e-5, 1e-4, 1e-2])
def test_closed_form_holds_1e9_just_above_the_eigh_threshold(rng, gap):
    # eigenvalues (1, 1 + gap, 2) in random frames: the closed-form eigenvalue
    # is least accurate when the two smallest nearly coincide
    rotations, _ = np.linalg.qr(rng.normal(size=(5000, 3, 3)))
    cov = np.einsum("nij,j,nkj->nik", rotations, [1.0, 1.0 + gap, 2.0], rotations) * 300.0
    vectors, fallback, zero = pcqa.normals._smallest_eigenvectors(cov)
    want = np.linalg.eigh(cov)[1][:, :, 0]
    sign = np.sign(np.einsum("ni,ni->n", vectors, want))[:, None]
    assert not zero.any()
    assert fallback.mean() < 0.5
    assert np.abs(vectors - sign * want)[~fallback].max() <= 1e-9
