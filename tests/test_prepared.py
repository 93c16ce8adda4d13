"""The prepared-cloud pipeline: one kd-tree per cloud, one streamed kNN pass
per k, built lazily and kept for the cloud's lifetime, and results that do
not depend on how the work is shared or on what ran before."""

import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.spatial

import pcqa.metrics
import pcqa.neighbors
import pcqa.normals
from pcqa import (
    ErrorKind,
    NeighborIndex,
    PeakSpec,
    PointCloud,
    ResolutionEstimator,
    ann,
    ann_k,
    apd_k,
    estimate_normals,
    gaussian_jitter,
    mnn,
    normal_vectors,
    octree_quantize,
    psnr,
    ra_psnr,
    resolution,
    score_pair,
    write_ply,
)
from pcqa.evaluation import benchmark_scores, full_variant_matrix, read_manifest
from pcqa.metrics import PreparedCloud, score_variants
from shapes import random_cloud, random_voxel_cloud, voxelized_sphere


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


def fresh(cloud):
    """A new cloud sharing ``cloud``'s arrays: it keeps nothing computed on ``cloud``."""
    return cloud.with_bit_depth(cloud.bit_depth)


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
    assert kdtree_calls["builds"] == 0  # the cloud keeps its tree
    assert kdtree_calls["query_k"] == [2]  # one self-excluded k=1 query


def test_d1_d2_d1_builds_two_trees_and_one_reference_pass(kdtree_calls, pair):
    d1 = (ErrorKind.PO2PO, PeakSpec.precision())
    psnr(*pair, *d1)
    ra_psnr(*pair, ErrorKind.PO2PL)
    psnr(*pair, *d1)
    assert kdtree_calls["builds"] == 2
    # two NN queries per call, the reference's k=10 pass and the degraded cloud's matched rows
    assert sorted(kdtree_calls["query_k"]) == [1] * 6 + [11, 11]
    kdtree_calls["query_k"] = []
    ra_psnr(*pair, ErrorKind.PO2PL)  # the reference's normals and apd_k are kept
    assert kdtree_calls["builds"] == 2
    assert sorted(kdtree_calls["query_k"]) == [1, 1, 11]  # the matched rows are not kept


def test_a_cloud_frees_what_it_keeps_when_it_goes():
    ref = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    deg = gaussian_jitter(ref, 0.4, seed=3)
    gc.disable()  # reference counting alone frees the kept state: there is no cycle
    try:
        ra_psnr(ref, deg, ErrorKind.PO2PL)
        kept = [weakref.ref(x) for x in (ref, PreparedCloud(ref).index, PreparedCloud(ref).normals)]
        assert all(r() is not None for r in kept)
        del ref
        assert [r() for r in kept] == [None, None, None]
    finally:
        gc.enable()
    assert PreparedCloud(deg).index is not None  # the other cloud keeps its own


def _history_calls() -> dict:
    """Named calls on a (reference, degraded) pair, each returning plain values."""
    calls = {
        "d1": lambda r, d: psnr(r, d, ErrorKind.PO2PO, PeakSpec.precision()).to_dict(),
        "d2-reversed": lambda r, d: psnr(d, r, ErrorKind.PO2PL, PeakSpec.rendering()).to_dict(),
        "annk-4": lambda r, d: resolution(r, ResolutionEstimator.ANN_K, 4),
        "apdk-normal-k-6": lambda r, d: resolution(r, ResolutionEstimator.APD_K, normal_k=6),
        "matrix": lambda r, d: score_pair(r, d, full_variant_matrix()),
    }
    for estimator in (ResolutionEstimator.ANN, ResolutionEstimator.ANN_K, ResolutionEstimator.APD_K):
        calls[f"d2-ra-{estimator.value}"] = (
            lambda r, d, e=estimator: ra_psnr(r, d, ErrorKind.PO2PL, e).to_dict())
    for estimator in ResolutionEstimator:
        for which in (0, 1):
            calls[f"{estimator.value}-{which}"] = (
                lambda r, d, e=estimator, w=which: resolution((r, d)[w], e))
    return calls


@pytest.mark.parametrize("content", ["voxel", "float"])
def test_results_do_not_depend_on_what_ran_before_on_the_same_clouds(content):
    if content == "voxel":  # equidistant neighbors everywhere, in both clouds
        ref = random_voxel_cloud(np.random.default_rng(5), n=900, bit_depth=5)
        deg = octree_quantize(ref, 1)
    else:
        ref = PointCloud(np.random.default_rng(5).uniform(0.0, 127.0, (900, 3)), bit_depth=7)
        deg = gaussian_jitter(ref, 0.5, seed=2)
    calls = _history_calls()
    want = {name: call(fresh(ref), fresh(deg)) for name, call in calls.items()}
    for order in (list(calls), list(calls)[::-1]):
        shared = fresh(ref), fresh(deg)
        got = {name: calls[name](*shared) for name in order}
        assert got == want


def test_threads_sharing_clouds_get_the_serial_results():
    # more threads than cores, switching often: each fills whatever the
    # clouds have not kept yet, racing the others to store it
    ref = voxelized_sphere(n=600, radius=20.0, bit_depth=6)
    deg = gaussian_jitter(ref, 0.4, seed=4)
    calls = _history_calls()
    want = {name: call(fresh(ref), fresh(deg)) for name, call in calls.items()}
    shared = fresh(ref), fresh(deg)
    got, errors = [], []

    def work(order):
        try:
            got.append({name: calls[name](*shared) for name in order})
        except Exception as exc:  # re-raised below, in the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(list(calls)[i:] + list(calls)[:i],))
               for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [want] * len(threads)


def test_normals_are_estimated_through_the_module_attribute(monkeypatch, kdtree_calls, pair):
    calls = []
    inner = pcqa.normals.normal_vectors

    def counted(*args, **kwargs):
        calls.append(kwargs.get("neighbors") is not None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(pcqa.normals, "normal_vectors", counted)
    ra_psnr(*pair, ErrorKind.PO2PL)
    assert calls == [True, True]  # once per cloud, from the shared graph

    # the public call is one PreparedCloud pass: one tree, the kernel once per block
    ref, _ = pair
    monkeypatch.setattr(pcqa.metrics, "BLOCK_ROWS", 512)
    calls.clear()
    kdtree_calls["builds"], kdtree_calls["query_k"] = 0, []
    normal_vectors(ref)
    blocks = math.ceil(len(ref) / 512)
    assert blocks >= 3
    assert calls == [True] * blocks
    assert kdtree_calls["builds"] == 1 and kdtree_calls["query_k"] == [11] * blocks


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
    assert cut == [mnn(fresh(cloud)), ann(fresh(cloud)), ann_k(fresh(cloud), 4)]


def test_a_mixed_request_runs_one_pass_per_normal_or_apd_k_plus_the_widest(kdtree_calls):
    # normals at 6 and APD_k at 8 take their own passes; ANN_k 4 and MNN fit
    # in either, but ANN_k 12 does not, so one pass at 12 serves all three
    cloud = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    peaks = [PeakSpec.parse(label, k)
             for label, k in (("annk", 4), ("mnn", None), ("apdk", 8), ("annk", 12))]
    got = PreparedCloud(cloud, normal_k=6).peak_numerators(peaks)
    assert sorted(kdtree_calls["query_k"]) == [7, 9, 13]
    assert got == {peak: PreparedCloud(fresh(cloud), normal_k=6).peak_numerators([peak])[peak]
                   for peak in peaks}


def test_prepared_values_equal_the_standalone_functions(rng):
    cloud = random_cloud(rng, n=400)
    prepared = PreparedCloud(cloud, normal_k=8)
    assert prepared.resolution(ResolutionEstimator.APD_K, 6) == apd_k(fresh(cloud), 6, normal_k=8)
    assert np.array_equal(prepared.normals, estimate_normals(cloud, k=8).normals)


def _values(cloud):
    prepared = PreparedCloud(cloud)
    return [prepared.resolution(ResolutionEstimator.MNN), prepared.resolution(ResolutionEstimator.ANN),
            prepared.resolution(ResolutionEstimator.ANN_K, 3), prepared.resolution(ResolutionEstimator.ANN_K),
            prepared.resolution(ResolutionEstimator.APD_K, 10)]


@pytest.mark.parametrize("block_rows", [7, 1])
def test_block_size_does_not_change_any_bit(monkeypatch, block_rows):
    cloud = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    jittered = gaussian_jitter(cloud, 0.4, seed=1)
    assert len(cloud) % 7 and len(jittered) % 7
    clouds = (cloud, jittered)
    matched = [PreparedCloud(c).nearest(other.points)[1] for c, other in zip(clouds, clouds[::-1])]
    want = [normal_vectors(c, k=10) for c in clouds]
    want_values = [_values(c) for c in clouds]
    want_errors = [PreparedCloud(fresh(c)).plane_errors(other.points, rows)
                   for c, other, rows in zip(clouds, clouds[::-1], matched)]
    want_po2pl = [psnr(a, b, ErrorKind.PO2PL, PeakSpec.rendering()).to_dict()
                  for a, b in zip(clouds, clouds[::-1])]  # both directions

    monkeypatch.setattr(pcqa.metrics, "BLOCK_ROWS", block_rows)
    clouds = [fresh(c) for c in clouds]  # nothing computed at the default block size is kept
    for c, other, (normals, degenerate), values, rows, errors in zip(
            clouds, clouds[::-1], want, want_values, matched, want_errors):
        got, got_degenerate = normal_vectors(c, k=10)
        assert np.array_equal(got, normals)
        assert np.array_equal(got_degenerate, degenerate)
        assert _values(c) == values  # MNN, ANN, ANN_k (3 and 10) and APD_k
        # a matched-row pass and the projection, both blocked
        assert np.array_equal(PreparedCloud(fresh(c)).plane_errors(other.points, rows), errors)
    assert [psnr(a, b, ErrorKind.PO2PL, PeakSpec.rendering()).to_dict()
            for a, b in zip(clouds, clouds[::-1])] == want_po2pl


def test_thread_count_does_not_change_any_bit(monkeypatch):
    # voxel content, where most rows have two or more equidistant nearest points
    ref = voxelized_sphere(n=3000, radius=30.0, bit_depth=7)
    deg = octree_quantize(ref, 1)
    nearest_two = scipy.spatial.cKDTree(deg.points).query(ref.points, k=2)[0]
    assert (nearest_two[:, 0] == nearest_two[:, 1]).mean() > 0.5
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(pcqa.neighbors, "_workers", lambda workers=workers: workers)
        scores = score_variants(fresh(ref), fresh(deg), full_variant_matrix())  # nothing kept is reused
        results.append(repr([result.to_dict() for result in scores]))
    assert results[0] == results[1]


def test_matched_row_normals_equal_the_whole_cloud_normals(kdtree_calls):
    cloud = voxelized_sphere(n=1500, radius=30.0, bit_depth=7)
    jittered = gaussian_jitter(cloud, 0.4, seed=1)
    for c, other in ((cloud, jittered), (jittered, cloud)):
        whole = normal_vectors(c, k=10)[0]
        prepared = PreparedCloud(c)
        rows = prepared.nearest(other.points)[1]  # repeats, and not every row
        assert 0 < len(np.unique(rows)) < len(c)
        kdtree_calls["query_k"] = []
        errors = prepared.plane_errors(other.points, rows)
        assert kdtree_calls["query_k"] == [11]  # one pass over the matched rows
        assert np.array_equal(errors, PreparedCloud(c.with_normals(whole)).plane_errors(other.points, rows))
        distinct = np.unique(rows)
        subset = NeighborIndex(c).self_excluded_neighbors(10, distinct)[0]
        assert np.array_equal(normal_vectors(c, k=10, neighbors=subset)[0], whole[distinct])


def test_po2pl_keeps_no_neighbor_array_beyond_a_block(monkeypatch):
    # 2048-row blocks: a whole (N, k+1) query would dwarf every per-row array
    ref = voxelized_sphere(n=150_000, radius=60.0, bit_depth=8)
    deg = gaussian_jitter(ref, 0.4, seed=1)
    monkeypatch.setattr(pcqa.metrics, "BLOCK_ROWS", 2048)
    ra_psnr(fresh(ref), fresh(deg), ErrorKind.PO2PL)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        ra_psnr(ref, deg, ErrorKind.PO2PL)  # the whole call: these clouds have kept nothing yet
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_graph = len(ref) * (10 + 1) * (8 + 8)  # int64 indices plus float64 distances
    assert len(ref) > 50_000
    assert peak < one_graph


def test_po2pl_error_makes_no_per_point_vector_array(monkeypatch):
    # trees, normals and peaks are ready before the trace, which then holds
    # the po2pl error of both directions: per-row outputs and one block
    ref = voxelized_sphere(n=150_000, radius=60.0, bit_depth=8)
    deg = gaussian_jitter(ref, 0.4, seed=1)
    monkeypatch.setattr(pcqa.metrics, "BLOCK_ROWS", 2048)
    for c in (ref, deg):
        PreparedCloud(c).normals  # every normal kept with its cloud, so the traced stage estimates none
    variant = [(ErrorKind.PO2PL, PeakSpec.largest_diagonal())]
    want = score_variants(ref, deg, variant)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        got = score_variants(ref, deg, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    n = max(len(ref), len(deg))
    assert n > 50_000
    per_row = 3 * n * 8  # squared distances, matched rows and po2pl errors
    assert peak < per_row + 3 * n * 8  # one (N, 3) float64 array would fill the margin
