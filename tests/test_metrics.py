import math

import numpy as np
import pytest

import oracles
from pcqa import (
    ErrorKind,
    PeakKind,
    PeakSpec,
    PointCloud,
    ResolutionEstimator,
    ZeroPeakError,
    ann,
    ann_k,
    apd_k,
    density_coefficient,
    directional_mse,
    estimate_normals,
    largest_diagonal,
    mnn,
    planar_distance,
    planar_offset,
    psnr,
    ra_psnr,
    resolution,
)
from pcqa.metrics import nn_squared_errors
from shapes import (
    integer_grid,
    planar_grid,
    planar_interior_mask,
    random_cloud,
    random_voxel_cloud,
)

# ---------------------------------------------------------------- error terms


def test_345_single_point_pair():
    a = PointCloud([[0.0, 0.0, 0.0]])
    b = PointCloud([[3.0, 4.0, 0.0]])
    assert directional_mse(a, b, ErrorKind.PO2PO) == 25.0
    assert directional_mse(b, a, ErrorKind.PO2PO) == 25.0


def test_nn_squared_errors_basics():
    a = PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    sq, idx = nn_squared_errors(a, a)
    assert np.array_equal(sq, [0.0, 0.0])
    assert np.array_equal(idx, [0, 1])

    b = PointCloud([[1.0, 0.0, 0.0]])
    sq, idx = nn_squared_errors(a, b)
    assert sq == pytest.approx([1.0, 81.0])
    assert np.array_equal(idx, [0, 0])


def test_directional_mse_matches_brute_force(rng):
    a = random_cloud(rng, n=150)
    b = PointCloud(random_cloud(rng, n=180).points + 0.1)
    b = estimate_normals(b, k=8)
    got = directional_mse(a, b, ErrorKind.PO2PO)
    assert got == pytest.approx(oracles.mse_brute(a.points, b.points), rel=1e-12)
    got_pl = directional_mse(a, b, ErrorKind.PO2PL)
    want_pl = oracles.mse_brute(a.points, b.points, "po2pl", b.normals)
    assert got_pl == pytest.approx(want_pl, rel=1e-12)


def test_plane_error_projects_out_tangential_component():
    # degraded copy shifted by (0.3, 0.4, 0.5): only the 0.5 survives projection
    ref = planar_grid(12)  # exact +z normals
    deg = PointCloud(ref.points + np.array([0.3, 0.4, 0.5]))
    assert directional_mse(deg, ref, ErrorKind.PO2PL) == 0.25
    assert directional_mse(deg, ref, ErrorKind.PO2PO) == pytest.approx(0.5, rel=1e-12)


def test_plane_error_requires_target_normals():
    a = planar_grid(4, with_normals=False)
    with pytest.raises(ValueError, match="normals"):
        directional_mse(a, a, ErrorKind.PO2PL)
    # the source cloud does not need them
    assert directional_mse(planar_grid(4, with_normals=False), planar_grid(4),
                           ErrorKind.PO2PL) == 0.0


def test_plane_error_never_exceeds_point_error(rng):
    a = random_cloud(rng, n=100)
    b = estimate_normals(PointCloud(random_cloud(rng, n=100).points + 0.2), k=8)
    assert directional_mse(a, b, ErrorKind.PO2PL) <= directional_mse(a, b, ErrorKind.PO2PO)


def test_empty_clouds_rejected():
    empty = PointCloud(np.empty((0, 3)))
    single = PointCloud([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="empty"):
        directional_mse(empty, single, ErrorKind.PO2PO)
    with pytest.raises(ValueError, match="empty"):
        directional_mse(single, empty, ErrorKind.PO2PO)
    with pytest.raises(ValueError, match="empty"):
        largest_diagonal(empty)
    with pytest.raises(ValueError, match="empty"):
        mnn(empty)


# ------------------------------------------------------------------ the peaks


def test_largest_diagonal():
    cube = PointCloud([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert largest_diagonal(cube) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert largest_diagonal(PointCloud([[7.0, 7.0, 7.0]])) == 0.0


def test_grid_resolution_estimators_are_exact():
    for spacing in (1.0, 0.5):
        grid = integer_grid(4, spacing=spacing)
        assert mnn(grid) == spacing
        assert ann(grid) == spacing
        assert ann_k(grid, 1) == spacing


def test_ann_k_with_k1_equals_ann(rng):
    cloud = random_cloud(rng, n=90)
    assert ann_k(cloud, 1) == ann(cloud)


def test_mnn_dominated_by_isolated_point():
    grid = integer_grid(4)
    lonely = np.vstack([grid.points, [[10.0, 0.0, 0.0]]])  # 7 units past the corner
    assert mnn(PointCloud(lonely)) == 7.0
    assert ann(PointCloud(lonely)) < 7.0


def test_estimators_match_brute_force(rng):
    cloud = random_cloud(rng, n=130)
    assert mnn(cloud) == pytest.approx(oracles.mnn_brute(cloud.points), rel=1e-12)
    assert ann(cloud) == pytest.approx(oracles.ann_brute(cloud.points), rel=1e-12)
    assert ann_k(cloud, 7) == pytest.approx(oracles.ann_k_brute(cloud.points, 7), rel=1e-12)


def test_estimator_size_requirements():
    tiny = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="too small"):
        ann_k(tiny, 3)
    with pytest.raises(ValueError, match="too small"):
        apd_k(tiny, 3)
    assert ann_k(tiny, 2) == 0.0  # coincident points are valid neighbors


def test_planar_offset_and_distance():
    off = planar_offset([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [3.0, 4.0, 5.0])
    assert np.array_equal(off, [3.0, 4.0, 0.0])
    assert planar_distance([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [3.0, 4.0, 5.0]) == 5.0
    with pytest.raises(ValueError, match="unit length"):
        planar_offset([0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.0, 1.0, 1.0])


def test_planar_offset_is_orthogonal_contraction(rng):
    for _ in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = rng.normal(size=3)
        off = planar_offset([0.0, 0.0, 0.0], n, p)
        assert abs(off @ n) < 1e-12
        assert np.linalg.norm(off) <= np.linalg.norm(p) + 1e-12


def test_interior_planar_neighbors_sit_at_grid_spacing():
    # on a plane the 4 nearest neighbors of an interior point lie in-plane,
    # so their tangent-plane distances equal the grid spacing exactly
    from pcqa import build_index, k_neighborhood

    n = 9
    cloud = planar_grid(n)
    index = build_index(cloud)
    interior = np.flatnonzero(planar_interior_mask(n))
    for i in interior[:: max(1, len(interior) // 12)]:
        hood = k_neighborhood(index, int(i), 4)
        for j in hood.neighbor_indices:
            d = planar_distance(cloud.points[i], cloud.normals[i], cloud.points[j])
            assert d == pytest.approx(1.0, abs=1e-9)


def test_apd_matches_brute_force_with_shared_normals(rng):
    cloud = estimate_normals(random_cloud(rng, n=140), k=10)
    got = apd_k(cloud, 6)
    want = oracles.apd_k_brute(cloud.points, cloud.normals, 6)
    assert got == pytest.approx(want, rel=1e-9)


def test_apd_estimates_normals_when_absent():
    bare = planar_grid(8, with_normals=False)
    exact = planar_grid(8)
    # PCA recovers the plane normal exactly here, so the two agree
    assert apd_k(bare, 4, normal_k=8) == pytest.approx(apd_k(exact, 4), rel=1e-12)


def test_apd_uses_file_normals_when_present():
    plane = planar_grid(8)
    in_plane = plane.with_normals(np.tile([1.0, 0.0, 0.0], (len(plane), 1)))
    # projecting along an in-plane direction removes the x-spacing component
    assert apd_k(in_plane, 4) < apd_k(plane, 4)


def test_apd_never_exceeds_distance_rms(rng):
    cloud = estimate_normals(random_cloud(rng, n=120), k=8)
    for k in (1, 4, 9):
        assert apd_k(cloud, k) <= ann_k(cloud, k) + 1e-15


def test_apd_root_switch():
    cloud = planar_grid(8)
    rooted = apd_k(cloud, 4)
    raw = apd_k(cloud, 4, root=False)
    assert raw == pytest.approx(rooted**2, rel=1e-12)


def test_resolution_dispatch(rng):
    cloud = estimate_normals(random_cloud(rng, n=80), k=8)
    assert resolution(cloud, ResolutionEstimator.MNN) == mnn(cloud)
    assert resolution(cloud, ResolutionEstimator.ANN) == ann(cloud)
    assert resolution(cloud, ResolutionEstimator.ANN_K, 5) == ann_k(cloud, 5)
    assert resolution(cloud, ResolutionEstimator.APD_K, 5) == apd_k(cloud, 5)
    assert resolution(cloud, ResolutionEstimator.ANN_K) == ann_k(cloud, 10)


def test_density_coefficient():
    assert density_coefficient(10, 2.0) == 1023.0 / 2.0
    with pytest.raises(ZeroPeakError):
        density_coefficient(10, 0.0)
    with pytest.raises(ZeroPeakError):
        density_coefficient(10, -1.0)


# ------------------------------------------------------------------- PeakSpec


def test_peak_spec_validation():
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.PRECISION, estimator=ResolutionEstimator.ANN)
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.PRECISION, density_adaptive=True)
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.LARGEST_DIAGONAL, k=4)
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.INTRINSIC, estimator=ResolutionEstimator.APD_K, k=10)
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.RENDERING, estimator=ResolutionEstimator.ANN)
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.INTRINSIC, estimator=ResolutionEstimator.ANN_K)  # k missing
    with pytest.raises(ValueError):
        PeakSpec(PeakKind.INTRINSIC, estimator=ResolutionEstimator.ANN, k=5)


def test_peak_spec_constructors_and_defaults():
    assert PeakSpec.intrinsic(ResolutionEstimator.ANN_K).k == 10
    assert PeakSpec.intrinsic(ResolutionEstimator.ANN).k is None
    assert PeakSpec.rendering().k == 10
    assert PeakSpec.rendering(4, density_adaptive=True).density_adaptive


@pytest.mark.parametrize(
    "label,k",
    [("precision", None), ("ld", None), ("mnn", None), ("ann", None),
     ("annk", 6), ("apdk", 6), ("ra-ann", None), ("ra-annk", 6), ("ra-apdk", 6),
     ("ra-mnn", None)],
)
def test_peak_spec_label_round_trip(label, k):
    spec = PeakSpec.parse(label, k)
    assert spec.label == label
    assert PeakSpec.parse(spec.label, spec.k) == spec


def test_peak_spec_parse_rejects_unknown():
    with pytest.raises(ValueError, match="unknown peak"):
        PeakSpec.parse("diag")


# ------------------------------------------------------------- symmetric PSNR


def two_point_fixture():
    ref = PointCloud([[0.0, 0.0, 0.0], [0.0, 0.0, 7.0]], bit_depth=3)
    deg = PointCloud([[1.0, 0.0, 0.0], [1.0, 0.0, 7.0]])
    return ref, deg


def test_precision_peak_psnr_value():
    ref, deg = two_point_fixture()
    result = psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.precision())
    # both directional MSEs are 1, numerator is 3 * 7**2
    assert result.mse_ab == 1.0 and result.mse_ba == 1.0
    assert result.peak_value == 7.0
    assert result.psnr_pooled == pytest.approx(10.0 * math.log10(147.0), rel=1e-15)
    assert result.pooling == "max"
    assert result.normals_a == result.normals_b == "unused"
    assert result.normal_k is None


def test_largest_diagonal_peak_psnr_value():
    ref, deg = two_point_fixture()
    result = psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.largest_diagonal())
    assert result.peak_value == 7.0
    assert result.psnr_pooled == pytest.approx(10.0 * math.log10(49.0), rel=1e-15)


def test_resolution_peak_uses_reference_side(rng):
    ref = random_voxel_cloud(rng, n=300, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.4, size=ref.points.shape))
    spec = PeakSpec.intrinsic(ResolutionEstimator.ANN)
    result = psnr(ref, deg, ErrorKind.PO2PO, spec)
    assert result.peak_value == ann(ref)  # never the degraded side
    expected = 10.0 * math.log10(result.peak_value**2 / result.mse_ab)
    assert result.psnr_ab == pytest.approx(expected, rel=1e-12)


def test_density_adaptive_numerator(rng):
    ref = random_voxel_cloud(rng, n=250, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.3, size=ref.points.shape))
    spec = PeakSpec.intrinsic(ResolutionEstimator.ANN, density_adaptive=True)
    result = psnr(ref, deg, ErrorKind.PO2PO, spec)
    expected = 10.0 * math.log10(3.0 * result.peak_value * 63.0 / result.mse_ab)
    assert result.psnr_ab == pytest.approx(expected, rel=1e-12)
    assert result.bit_depth == 6


def test_pooling_modes(rng):
    ref = random_voxel_cloud(rng, n=200, bit_depth=6)
    deg = PointCloud(np.vstack([ref.points, [[0.0, 0.0, 0.0], [63.0, 63.0, 63.0]]]))
    hi = psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.precision())
    lo = psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.precision(), pooling="min")
    assert hi.psnr_pooled == max(hi.psnr_ab, hi.psnr_ba)
    assert lo.psnr_pooled == min(lo.psnr_ab, lo.psnr_ba)
    assert hi.psnr_ab == lo.psnr_ab  # pooling only changes the summary
    with pytest.raises(ValueError, match="pooling"):
        psnr(ref, deg, pooling="mean")


def test_identical_clouds_have_infinite_quality(rng):
    cloud = random_voxel_cloud(rng, n=150, bit_depth=6)
    result = psnr(cloud, cloud, ErrorKind.PO2PO, PeakSpec.precision())
    assert math.isinf(result.psnr_pooled)
    assert result.infinite_ab and result.infinite_ba and result.infinite_quality
    record = result.to_dict()
    assert record["psnr_db"] is None and record["infinite_quality"] is True


def test_metric_result_dict_round_trip(rng):
    ref = random_voxel_cloud(rng, n=150, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.4, size=ref.points.shape))
    for result in (
        psnr(ref, deg, ErrorKind.PO2PL, PeakSpec.rendering(10, density_adaptive=True)),
        psnr(ref, ref, ErrorKind.PO2PO, PeakSpec.precision()),  # infinite case
    ):
        from pcqa import MetricResult

        assert MetricResult.from_dict(result.to_dict()) == result


def test_zero_peak_raises():
    coincident = PointCloud(np.zeros((2, 3)), bit_depth=4)
    other = PointCloud([[1.0, 0.0, 0.0]])
    with pytest.raises(ZeroPeakError):
        psnr(coincident, other, ErrorKind.PO2PO, PeakSpec.largest_diagonal())


def test_missing_bit_depth_is_an_error(rng):
    ref = random_cloud(rng, n=60)  # no declared depth
    with pytest.raises(ValueError, match="bit depth"):
        psnr(ref, ref, ErrorKind.PO2PO, PeakSpec.precision())
    with pytest.raises(ValueError, match="bit depth"):
        psnr(ref, ref, ErrorKind.PO2PO,
             PeakSpec.intrinsic(ResolutionEstimator.ANN, density_adaptive=True))
    # non-adaptive resolution peaks are fine without one
    assert math.isinf(psnr(ref, ref, ErrorKind.PO2PO,
                           PeakSpec.intrinsic(ResolutionEstimator.ANN)).psnr_pooled)


def test_normal_provenance_tracking(rng):
    ref = random_voxel_cloud(rng, n=200, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.3, size=ref.points.shape))

    r = psnr(ref, deg, ErrorKind.PO2PL, PeakSpec.precision(), normal_k=8)
    assert r.normals_a == r.normals_b == "estimated"
    assert r.normal_k == 8

    ref_n = estimate_normals(ref, k=12)
    r = psnr(ref_n, deg, ErrorKind.PO2PL, PeakSpec.precision(), normal_k=8)
    assert r.normals_a == "file" and r.normals_b == "estimated"

    r = psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.rendering(5))
    assert r.normals_a == "estimated" and r.normals_b == "unused"


def test_po2pl_uses_file_normals_for_the_target(rng):
    # deliberately wrong file normals must change the answer: proof they are used
    ref = planar_grid(10)
    deg = PointCloud(ref.points + np.array([0.0, 0.0, 0.5]))
    sideways = ref.with_normals(np.tile([1.0, 0.0, 0.0], (len(ref), 1)))
    straight = directional_mse(deg, ref, ErrorKind.PO2PL)
    skewed = directional_mse(deg, sideways, ErrorKind.PO2PL)
    assert straight == 0.25 and skewed == 0.0


def test_ra_psnr_wrapper_matches_explicit_peak(rng):
    ref = random_voxel_cloud(rng, n=250, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.3, size=ref.points.shape))
    via_wrapper = ra_psnr(ref, deg, ErrorKind.PO2PO, ResolutionEstimator.ANN_K, k=5)
    via_peak = psnr(ref, deg, ErrorKind.PO2PO,
                    PeakSpec.intrinsic(ResolutionEstimator.ANN_K, 5, density_adaptive=True))
    assert via_wrapper == via_peak


def test_ra_psnr_two_evaluation_routes_agree(rng):
    ref = random_voxel_cloud(rng, n=250, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.3, size=ref.points.shape))
    direct = ra_psnr(ref, deg, ErrorKind.PO2PO, ResolutionEstimator.APD_K, k=6)
    scaled = ra_psnr(ref, deg, ErrorKind.PO2PO, ResolutionEstimator.APD_K, k=6,
                     via_density_coefficient=True)
    assert scaled.psnr_pooled == pytest.approx(direct.psnr_pooled, abs=1e-12)
    assert scaled.mse_ab == direct.mse_ab  # the raw MSE is reported unscaled


def test_ra_psnr_rejects_mnn(rng):
    ref = random_voxel_cloud(rng, n=100, bit_depth=6)
    with pytest.raises(ValueError, match="mnn|MNN"):
        ra_psnr(ref, ref, ErrorKind.PO2PO, ResolutionEstimator.MNN)
