"""Property-based checks for the invariants the library is built around."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.spatial
from hypothesis import assume, given, settings, strategies as st

from pcqa import (
    ErrorKind,
    MetricResult,
    PeakSpec,
    PointCloud,
    ann,
    ann_k,
    directional_mse,
    estimate_normals,
    gaussian_jitter,
    infer_bit_depth,
    mnn,
    octree_quantize,
    planar_offset,
    read_ply,
    write_ply,
)
from pcqa.evaluation import full_variant_matrix, plcc, srocc, variant_from_string
from pcqa.metrics import score_variants

finite_coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=64)
point3 = st.tuples(finite_coord, finite_coord, finite_coord)


def clouds(min_points=2, max_points=30, unique=False):
    pts = st.lists(point3, min_size=min_points, max_size=max_points, unique=unique)
    return pts.map(lambda rows: PointCloud(np.array(rows, dtype=np.float64)))


@st.composite
def voxel_clouds(draw, min_bits=1, max_bits=10):
    bits = draw(st.integers(min_bits, max_bits))
    coord = st.integers(0, 2**bits - 1)
    rows = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=25))
    cloud = PointCloud(np.array(rows, dtype=np.float64))
    assume(cloud.points.max() >= 1.0)
    return cloud


# ---------------------------------------------------------------- projection


@given(point3, point3, st.tuples(finite_coord, finite_coord, finite_coord))
def test_tangent_projection_contracts_and_is_orthogonal(center, neighbor, raw_normal):
    raw = np.asarray(raw_normal)
    norm = np.linalg.norm(raw)
    assume(norm > 1e-3)
    normal = raw / norm
    planar = planar_offset(center, normal, neighbor)
    offset = np.asarray(neighbor, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    assert np.linalg.norm(planar) <= np.linalg.norm(offset) * (1.0 + 1e-12) + 1e-12
    assert abs(planar @ normal) <= 1e-9 * max(1.0, np.linalg.norm(offset))


@settings(max_examples=40, deadline=None)
@given(clouds(min_points=2, max_points=25), clouds(min_points=4, max_points=25))
def test_plane_projected_error_never_exceeds_point_error(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        b = estimate_normals(b, k=min(10, len(b) - 1))
    assert directional_mse(a, b, ErrorKind.PO2PL) <= directional_mse(a, b, ErrorKind.PO2PO) + 1e-12


# ------------------------------------------------------ resolution estimators


@settings(max_examples=40, deadline=None)
@given(clouds(min_points=2, max_points=30))
def test_max_spacing_dominates_rms_spacing(cloud):
    assert mnn(cloud) >= ann(cloud) - 1e-12


@settings(max_examples=40, deadline=None)
@given(clouds(min_points=2, max_points=30))
def test_one_neighbor_rms_matches_the_plain_estimator(cloud):
    assert ann_k(cloud, 1) == ann(cloud)


# ----------------------------------------------------------------- bit depth


@given(voxel_clouds())
def test_inferred_bit_depth_is_minimal(cloud):
    b = infer_bit_depth(cloud)
    top = cloud.points.max()
    assert top <= 2.0**b - 1.0
    assert b == 1 or top > 2.0 ** (b - 1) - 1.0


@given(voxel_clouds())
def test_doubling_coordinates_raises_bit_depth_by_one(cloud):
    b = infer_bit_depth(cloud)
    doubled = PointCloud(cloud.points * 2.0)
    assert infer_bit_depth(doubled) == b + 1


# ------------------------------------------------------------------ degrade


@given(voxel_clouds(min_bits=2), st.data())
def test_grid_snapping_is_idempotent(cloud, data):
    assume(infer_bit_depth(cloud) >= 2)
    bits = data.draw(st.integers(1, infer_bit_depth(cloud) - 1), label="bits")
    once = octree_quantize(cloud, bits)
    twice = octree_quantize(once, bits)
    assert np.array_equal(once.points, twice.points)
    assert once.points.max() <= cloud.points.max()
    assert once.points.min() >= 0.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_jitter_is_deterministic_per_seed(seed):
    cloud = PointCloud(np.arange(30.0).reshape(10, 3))
    a = gaussian_jitter(cloud, 0.5, seed=seed)
    b = gaussian_jitter(cloud, 0.5, seed=seed)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, cloud.points)


# -------------------------------------------------------------- correlations


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40, unique=True),
    st.sampled_from(["affine", "cube", "exp"]),
)
def test_rank_correlation_is_exactly_one_under_monotone_maps(x, name):
    transform = {
        "affine": lambda v: 3.0 * v + 7.0,
        "cube": lambda v: v**3,
        "exp": lambda v: math.exp(v / 1e6),
    }[name]
    y = [transform(v) for v in x]
    assume(len(set(y)) == len(y))
    assert srocc(x, y) == 1.0
    assert srocc(x, [-v for v in y]) == -1.0


@given(
    st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=3, max_size=40),
    st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=3, max_size=40),
    st.floats(1e-3, 1e3),
    st.floats(-1e4, 1e4),
)
def test_linear_correlation_is_affine_invariant(x, y, a, b):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assume(max(x) > min(x) and max(y) > min(y))
    scaled = [a * v + b for v in y]
    assume(max(scaled) > min(scaled))
    np.testing.assert_allclose(plcc(x, scaled), plcc(x, y), rtol=1e-6, atol=1e-9)


# ------------------------------------------------------------- serialization


@st.composite
def peak_specs(draw):
    label = draw(
        st.sampled_from(
            ["precision", "ld", "mnn", "ann", "annk", "apdk", "ra-ann", "ra-annk", "ra-apdk"]
        )
    )
    k = draw(st.integers(1, 64)) if label.endswith(("annk", "apdk")) else None
    return PeakSpec.parse(label, k)


@given(peak_specs())
def test_peak_spec_label_round_trip(spec):
    assert PeakSpec.parse(spec.label, spec.k) == spec


@given(st.sampled_from(list(ErrorKind)), peak_specs())
def test_variant_string_round_trip(kind, peak):
    fields = [kind.value, peak.label.removeprefix("ra-")]
    fields += [] if peak.k is None else [str(peak.k)]
    fields += ["ra"] if peak.density_adaptive else []
    assert variant_from_string(":".join(fields)) == (kind, peak)


finite64 = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def metric_results(draw):
    db = finite64 | st.just(math.inf)
    return MetricResult(
        psnr_ab=draw(db),
        psnr_ba=draw(db),
        psnr_pooled=draw(db),
        mse_ab=draw(st.floats(0.0, 1e12, allow_nan=False)),
        mse_ba=draw(st.floats(0.0, 1e12, allow_nan=False)),
        peak_value=draw(st.floats(1e-9, 1e9, allow_nan=False)),
        error_kind=draw(st.sampled_from(list(ErrorKind))),
        peak=draw(peak_specs()),
        pooling=draw(st.sampled_from(["max", "min"])),
        bit_depth=draw(st.none() | st.integers(1, 32)),
        normal_k=draw(st.none() | st.integers(1, 64)),
        normals_a=draw(st.sampled_from(["file", "estimated", "unused"])),
        normals_b=draw(st.sampled_from(["file", "estimated", "unused"])),
    )


@given(metric_results())
def test_metric_result_survives_json(result):
    assert json.loads(json.dumps(result.to_dict())) == result.to_dict()


# ---------------------------------------------------------------------- PLY


@st.composite
def clouds_with_normals(draw):
    rows = draw(st.lists(point3, min_size=1, max_size=20))
    raw = draw(
        st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    normals = np.array(raw, dtype=np.float64)
    lengths = np.linalg.norm(normals, axis=1)
    assume(lengths.min() > 1e-3)
    return PointCloud(np.array(rows, dtype=np.float64), normals / lengths[:, None])


@settings(max_examples=30, deadline=None)
@given(clouds_with_normals(), st.sampled_from(["ascii", "binary-le"]))
def test_ply_round_trip(tmp_path_factory, cloud, format):
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    write_ply(cloud, path, format=format)
    back = read_ply(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.normals is not None
    np.testing.assert_allclose(back.normals, cloud.normals, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- point order

ORDER_K = 10  # the default k of the normals, APD_k and ANN_k


def _tie_free(a: np.ndarray, b: np.ndarray) -> bool:
    """No point has two equally distant points among its nearest: ORDER_K + 1
    of its own cloud besides itself (normals, APD_k and ANN_k read ORDER_K
    and sum them in distance order), and 2 of the other cloud (the match)."""
    rows = []
    for points, other in ((a, a), (b, b), (a, b), (b, a)):
        k = ORDER_K + 2 if points is other else 2
        rows.append(scipy.spatial.cKDTree(other).query(points, k=k)[0])
    return all(np.all(np.diff(d, axis=1) > 0.0) for d in rows)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(ORDER_K + 2, 120), st.integers(ORDER_K + 2, 120),
       st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_scores_depend_on_the_point_sets_only(n_a, n_b, seed, order_seed):
    # float coordinates on a 7-bit range: a degraded cloud of jittered reference points
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 127.0, (n_a, 3))
    b = np.clip(a[rng.integers(0, n_a, n_b)] + rng.normal(0.0, 0.7, (n_b, 3)), 0.0, 127.0)
    assume(_tie_free(a, b))
    order = np.random.default_rng(order_seed)
    perm_a, perm_b = order.permutation(n_a), order.permutation(n_b)

    def scores(a, b):  # repr, so every bit counts
        results = score_variants(PointCloud(a, bit_depth=7), PointCloud(b, bit_depth=7), full_variant_matrix())
        return repr([result.to_dict() for result in results])

    assert scores(a[perm_a], b[perm_b]) == scores(a, b)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_property(x):
    assert x < 0

def test_plain():
    pass
"""


def test_a_failing_property_is_one_failure_under_the_repository_settings(tmp_path):
    # every warning is an error there, yet Hypothesis's own report of a
    # failure must not abort the run before the next test
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    settings_file = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(settings_file), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr  # 3 is an internal error
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "PASSED test_failing.py::test_plain" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
