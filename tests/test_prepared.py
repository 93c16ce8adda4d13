"""The prepared-cloud pipeline: one kd-tree per cloud, one streamed kNN pass
per k, built lazily, and results that do not depend on how the work is
shared."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial

import pcqa.normals
from pcqa import (
    ErrorKind,
    NeighborIndex,
    PeakSpec,
    ResolutionEstimator,
    ann,
    ann_k,
    apd_k,
    estimate_normals,
    gaussian_jitter,
    mnn,
    normal_vectors,
    psnr,
    ra_psnr,
    resolution,
    score_pair,
    write_ply,
)
from pcqa.evaluation import benchmark_scores, full_variant_matrix, read_manifest
from pcqa.metrics import PreparedCloud
from shapes import random_cloud, voxelized_sphere


@pytest.fixture
def kdtree_calls(monkeypatch):
    """Count cKDTree builds and record the k of every query."""
    calls = {"builds": 0, "query_k": []}

    class CountingKDTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            calls["builds"] += 1
            super().__init__(*args, **kwargs)

        def query(self, x, k=1, **kwargs):
            calls["query_k"].append(k)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingKDTree)
    return calls


@pytest.fixture
def pair():
    ref = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    return ref, gaussian_jitter(ref, 0.4, seed=3)


# ----------------------------------------------------- trees and queries


def test_ra_psnr_po2pl_builds_one_tree_and_one_graph_per_cloud(kdtree_calls, pair):
    ra_psnr(*pair, ErrorKind.PO2PL)
    assert kdtree_calls["builds"] == 2
    assert sorted(kdtree_calls["query_k"]) == [1, 1, 11, 11]  # two k=10 graphs, two NN


def test_d1_builds_no_graph(kdtree_calls, pair):
    psnr(*pair, ErrorKind.PO2PO, PeakSpec.precision())
    assert kdtree_calls["builds"] == 2
    assert kdtree_calls["query_k"] == [1, 1]


def test_full_variant_matrix_shares_one_graph_per_cloud(kdtree_calls, pair):
    score_pair(*pair, full_variant_matrix())
    assert kdtree_calls["builds"] == 2
    assert sorted(kdtree_calls["query_k"]) == [1, 1, 11, 11]


def test_benchmark_builds_one_tree_per_distinct_cloud(kdtree_calls, tmp_path):
    rows = []
    for r, radius in enumerate((20.0, 26.0)):
        ref = voxelized_sphere(n=900, radius=radius, bit_depth=6)
        write_ply(ref, tmp_path / f"r{r}.ply")
        for s in range(3):
            write_ply(gaussian_jitter(ref, 0.3 * (s + 1), seed=s), tmp_path / f"r{r}s{s}.ply")
            rows.append(f"r{r}s{s},g{r},r{r}.ply,r{r}s{s}.ply,{4.5 - s}")
    (tmp_path / "m.csv").write_text("stimulus_id,group,reference,degraded,mos\n" + "\n".join(rows))
    benchmark_scores(read_manifest(tmp_path / "m.csv"), full_variant_matrix())
    assert kdtree_calls["builds"] == 2 + 6  # R references + S stimuli
    # one k=10 graph per cloud, two NN queries per stimulus
    assert sorted(kdtree_calls["query_k"]) == [1] * 12 + [11] * 8


def test_resolution_queries_only_at_its_own_k(kdtree_calls, pair):
    ref, _ = pair
    resolution(ref, ResolutionEstimator.APD_K)  # normals and apd_k share the k=10 graph
    assert kdtree_calls["builds"] == 1
    assert kdtree_calls["query_k"] == [11]

    kdtree_calls["builds"], kdtree_calls["query_k"] = 0, []
    resolution(ref, ResolutionEstimator.MNN)
    assert kdtree_calls["builds"] == 1
    assert kdtree_calls["query_k"] == [2]  # one self-excluded k=1 query


def test_normals_are_estimated_through_the_module_attribute(monkeypatch, pair):
    calls = []
    inner = pcqa.normals.normal_vectors

    def counted(*args, **kwargs):
        calls.append(kwargs.get("neighbors") is not None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(pcqa.normals, "normal_vectors", counted)
    ra_psnr(*pair, ErrorKind.PO2PL)
    assert calls == [True, True]  # once per cloud, from the shared graph


# ------------------------------------------------------- same results


def test_distance_estimators_cut_from_a_larger_graph_are_exact(kdtree_calls):
    # voxel content: equidistant neighbors everywhere, so tie choices vary by k
    cloud = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    prepared = PreparedCloud(cloud)
    prepared.peak_numerators(PeakSpec.parse(label, k)
                             for label, k in (("annk", 10), ("mnn", None), ("ann", None), ("annk", 4)))
    cut = [prepared.resolution(ResolutionEstimator.MNN),
           prepared.resolution(ResolutionEstimator.ANN),
           prepared.resolution(ResolutionEstimator.ANN_K, 4)]
    assert kdtree_calls["query_k"] == [11]  # one k=10 pass serves all four
    assert cut == [mnn(cloud), ann(cloud), ann_k(cloud, 4)]


def test_prepared_values_equal_the_standalone_functions(rng):
    cloud = random_cloud(rng, n=400)
    prepared = PreparedCloud(cloud, normal_k=8)
    assert prepared.resolution(ResolutionEstimator.APD_K, 6) == apd_k(cloud, 6, normal_k=8)
    assert apd_k(cloud, 6, normal_k=8) == math.sqrt(prepared.apd_mean_square(6))
    assert np.array_equal(prepared.normals, estimate_normals(cloud, k=8).normals)


def _values(cloud):
    prepared = PreparedCloud(cloud)
    return [prepared.resolution(ResolutionEstimator.MNN), prepared.resolution(ResolutionEstimator.ANN),
            prepared.resolution(ResolutionEstimator.ANN_K, 3), prepared.resolution(ResolutionEstimator.ANN_K),
            prepared.apd_mean_square(10)]


@pytest.mark.parametrize("block_rows", [7, 1])
def test_block_size_does_not_change_any_bit(monkeypatch, block_rows):
    cloud = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    jittered = gaussian_jitter(cloud, 0.4, seed=1)
    assert len(cloud) % 7 and len(jittered) % 7
    clouds = (cloud, jittered)
    matched = [PreparedCloud(c).nearest(other.points)[1] for c, other in zip(clouds, clouds[::-1])]
    want = [normal_vectors(c, k=10) for c in clouds]
    want_values = [_values(c) for c in clouds]
    want_at = [PreparedCloud(c).normals_at(rows) for c, rows in zip(clouds, matched)]

    monkeypatch.setattr(pcqa.normals, "BLOCK_ROWS", block_rows)
    for c, (normals, degenerate), values, rows, at in zip(clouds, want, want_values, matched, want_at):
        got, got_degenerate = normal_vectors(c, k=10)
        assert np.array_equal(got, normals)
        assert np.array_equal(got_degenerate, degenerate)
        assert _values(c) == values  # MNN, ANN, ANN_k (3 and 10) and the APD_k mean square
        assert np.array_equal(PreparedCloud(c).normals_at(rows), at)


def test_matched_row_normals_equal_the_whole_cloud_normals(kdtree_calls):
    cloud = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    jittered = gaussian_jitter(cloud, 0.4, seed=1)
    for c, other in ((cloud, jittered), (jittered, cloud)):
        whole = normal_vectors(c, k=10)[0]
        prepared = PreparedCloud(c)
        rows = prepared.nearest(other.points)[1]  # repeats, and not every row
        assert 0 < len(np.unique(rows)) < len(c)
        kdtree_calls["query_k"] = []
        assert np.array_equal(prepared.normals_at(rows), whole[rows])
        assert kdtree_calls["query_k"] == [11]  # one pass over the matched rows
        distinct = np.unique(rows)
        subset = NeighborIndex(c).self_excluded_neighbors(10, distinct)[0]
        assert np.array_equal(normal_vectors(c, k=10, neighbors=subset)[0], whole[distinct])


def test_po2pl_keeps_no_neighbor_array_beyond_a_block(monkeypatch):
    # 2048-row blocks: a whole (N, k+1) query would dwarf every per-row array
    ref = voxelized_sphere(n=150_000, radius=60.0, bit_depth=8)
    deg = gaussian_jitter(ref, 0.4, seed=1)
    monkeypatch.setattr(pcqa.normals, "BLOCK_ROWS", 2048)
    ra_psnr(ref, deg, ErrorKind.PO2PL)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        ra_psnr(ref, deg, ErrorKind.PO2PL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_graph = len(ref) * (10 + 1) * (8 + 8)  # int64 indices plus float64 distances
    assert len(ref) > 50_000
    assert peak < one_graph
