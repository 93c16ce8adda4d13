import re
import warnings

import numpy as np
import pytest

from pcqa import PointCloud, infer_bit_depth, precision_peak
from pcqa.cloud import require_bit_depth


def test_points_are_copied_and_read_only():
    src = np.zeros((4, 3))
    cloud = PointCloud(src)
    src[0, 0] = 99.0
    assert cloud.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_read_only_float64_arrays_are_shared_not_copied():
    cloud = PointCloud(np.arange(12.0).reshape(4, 3), normals=np.tile([0.0, 0.0, 1.0], (4, 1)))
    assert np.shares_memory(cloud.with_bit_depth(10).points, cloud.points)
    assert np.shares_memory(require_bit_depth(cloud, None, "ref").points, cloud.points)
    renormaled = cloud.with_normals(cloud.normals)
    assert np.shares_memory(renormaled.points, cloud.points)
    assert np.shares_memory(renormaled.normals, cloud.normals)
    frozen = np.arange(12.0).reshape(4, 3).copy()  # owns its memory: no writable base
    frozen.setflags(write=False)
    kept = PointCloud(frozen)
    assert kept.points.base is frozen
    assert PointCloud(frozen[1:]).points.base is frozen  # a read-only view of it is kept too
    frozen.setflags(write=True)  # the owner may; the cloud's own view stays read-only
    assert not kept.points.flags.writeable


def _handed_over(kind: str, values: np.ndarray):
    """(the array a caller hands to a cloud, the caller's object that can still write it)"""
    if kind == "writable":
        return values, values
    if kind == "read-only view of a writable array":
        owner, view = values, values.view()
    else:
        owner = bytearray(values.tobytes())
        view = np.frombuffer(owner).reshape(values.shape)
    view.setflags(write=False)
    return view, owner


@pytest.mark.parametrize(
    "kind", ["writable", "read-only view of a writable array", "read-only view of a bytearray"])
def test_arrays_the_caller_can_still_write_are_copied(kind):
    points, point_owner = _handed_over(kind, np.arange(12.0).reshape(4, 3))
    normals, normal_owner = _handed_over(kind, np.tile([0.0, 0.0, 1.0], (4, 1)))
    cloud = PointCloud(points, normals=normals)
    assert not np.shares_memory(cloud.points, points)
    assert not np.shares_memory(cloud.normals, normals)
    for owner in (point_owner, normal_owner):
        (np.frombuffer(owner) if isinstance(owner, bytearray) else owner.reshape(-1))[:3] = (0.0, 1.0, 0.0)
    assert points[0].tolist() == normals[0].tolist() == [0.0, 1.0, 0.0]  # the caller's arrays moved
    assert cloud.points[0].tolist() == [0.0, 1.0, 2.0]
    assert cloud.normals[0].tolist() == [0.0, 0.0, 1.0]


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3, 1)))


def test_empty_cloud_allowed():
    assert len(PointCloud(np.empty((0, 3)))) == 0
    assert len(PointCloud([])) == 0


def test_rejects_non_finite_coordinates():
    with pytest.raises(ValueError):
        PointCloud([[0.0, 0.0, np.nan]])
    with pytest.raises(ValueError):
        PointCloud([[np.inf, 0.0, 0.0]])


def test_normals_must_be_unit_and_match_shape():
    pts = np.zeros((2, 3))
    unit_z = np.tile([0.0, 0.0, 1.0], (2, 1))
    assert PointCloud(pts, normals=unit_z).has_normals
    with pytest.raises(ValueError):
        PointCloud(pts, normals=unit_z * 2.0)
    with pytest.raises(ValueError):
        PointCloud(pts, normals=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PointCloud(pts, normals=unit_z[:1])


def test_rejects_non_finite_normals():
    pts = np.zeros((2, 3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="normals must be finite"):
            PointCloud(pts, normals=[[0.0, 0.0, 1.0], [bad, 0.0, 0.0]])


def test_overflowing_normal_length_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"unit length within 1e-09 \(worst \|err\|=inf\)"):
            PointCloud([[0.0, 0.0, 0.0]], normals=[[1e200, 0.0, 0.0]])


def test_normals_unit_tolerance_is_tight_but_not_exact():
    pts = np.zeros((1, 3))
    almost = np.array([[0.0, 0.0, 1.0 + 5e-10]])
    assert PointCloud(pts, normals=almost).has_normals
    with pytest.raises(ValueError):
        PointCloud(pts, normals=np.array([[0.0, 0.0, 1.0 + 5e-9]]))


def test_bit_depth_validates_coordinate_range():
    pts = np.array([[0.0, 3.0, 7.0]])
    assert PointCloud(pts, bit_depth=3).bit_depth == 3
    with pytest.raises(ValueError):
        PointCloud(pts, bit_depth=2)  # 7 > 2**2 - 1
    with pytest.raises(ValueError):
        PointCloud([[-1.0, 0.0, 0.0]], bit_depth=3)
    with pytest.raises(ValueError):
        PointCloud(pts, bit_depth=0)


def test_with_methods_return_new_objects():
    cloud = PointCloud([[0.0, 0.0, 1.0]])
    deeper = cloud.with_bit_depth(4)
    assert cloud.bit_depth is None and deeper.bit_depth == 4
    with_n = cloud.with_normals([[0.0, 1.0, 0.0]])
    assert not cloud.has_normals and with_n.has_normals
    assert with_n.bit_depth is None
    # bit depth survives a normals attach
    assert deeper.with_normals([[0.0, 1.0, 0.0]]).bit_depth == 4


@pytest.mark.parametrize(
    "hi,expected",
    [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (255, 8), (256, 9),
     (1023, 10), (255.5, 9)],
)
def test_infer_bit_depth(hi, expected):
    cloud = PointCloud([[0.0, 0.0, float(hi)]])
    assert infer_bit_depth(cloud) == expected


@pytest.mark.parametrize("depth", [10.7, "10"])
def test_a_bit_depth_must_be_an_integer_at_every_entry_point(depth):
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    message = re.escape(f"bit depth must be an integer in [1, 53], got {depth}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        PointCloud(cloud.points, bit_depth=depth)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cloud.with_bit_depth(depth)
    with pytest.raises(ValueError, match=f"^ref\\.ply: --bitdepth {depth}: {message}$"):
        require_bit_depth(cloud, depth, "ref.ply")


@pytest.mark.parametrize("depth", [10, 10.0, np.int64(10)])
def test_an_integral_bit_depth_is_kept_as_an_int(depth):
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    for declared in (PointCloud(cloud.points, bit_depth=depth), cloud.with_bit_depth(depth),
                     require_bit_depth(cloud, depth, "ref.ply")):
        assert type(declared.bit_depth) is int and declared.bit_depth == 10


def test_infer_bit_depth_exact_at_power_boundaries():
    # log2 rounding must not flip the answer right at 2**b - 1 vs 2**b
    for b in range(1, 53):
        at_peak = PointCloud([[0.0, 0.0, 2.0**b - 1.0]])
        over_peak = PointCloud([[0.0, 0.0, 2.0**b]])
        assert infer_bit_depth(at_peak) == b
        assert infer_bit_depth(over_peak) == b + 1


def test_bit_depths_stop_where_float64_stops_being_exact():
    # 2**53 - 1 is the last odd integer a float64 holds, so 53 bits is the deepest grid
    top = PointCloud([[0.0, 0.0, 2.0**53 - 1.0]])
    assert infer_bit_depth(top) == 53
    assert top.with_bit_depth(53).bit_depth == 53
    assert precision_peak(53) == 2**53 - 1
    with pytest.raises(ValueError, match="needs 54 bits"):
        infer_bit_depth(PointCloud([[0.0, 0.0, 2.0**53]]))
    with pytest.raises(ValueError, match="needs 1024 bits"):
        infer_bit_depth(PointCloud([[0.0, 0.0, 1e308]]))
    for b in (54, 511, 1024):
        with pytest.raises(ValueError, match=r"bit depth must be an integer in \[1, 53\]"):
            top.with_bit_depth(b)
        with pytest.raises(ValueError, match=r"bit depth must be an integer in \[1, 53\]"):
            precision_peak(b)


def test_infer_bit_depth_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        infer_bit_depth(PointCloud([[-0.5, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        infer_bit_depth(PointCloud(np.empty((0, 3))))


def test_inferred_depth_is_consistent_with_declaration(rng):
    pts = rng.integers(0, 500, size=(50, 3)).astype(float)
    cloud = PointCloud(pts)
    b = infer_bit_depth(cloud)
    assert cloud.with_bit_depth(b).bit_depth == b  # declaration accepts it
    if b > 1:
        with pytest.raises(ValueError):
            cloud.with_bit_depth(b - 1)  # minimality


def test_precision_peak():
    assert precision_peak(1) == 1.0
    assert precision_peak(8) == 255.0
    assert precision_peak(10) == 1023.0
    with pytest.raises(ValueError):
        precision_peak(0)
