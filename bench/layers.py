"""Spans and per-layer probes for traced runs.

A layer is a module of ``src/pcqa``.  Each probe times calls into that
module's public functions on the workload's own clouds; spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from pcqa import (
    NeighborIndex,
    PointCloud,
    ann,
    ann_k,
    apd_k,
    fit_regression,
    gaussian_jitter,
    mnn,
    normal_vectors,
    octree_quantize,
    plcc,
    predict_mos,
    read_ply,
    score_pair,
    srocc,
    write_ply,
)
from pcqa.evaluation import fit_is_monotone, full_variant_matrix
from pcqa.metrics import nn_squared_errors

PROBE_BUDGET_S = 2.0  # repeat a probe up to 3 times while it stays within this


class Tracer:
    """In-memory spans: name, start, end and the enclosing span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": start, "end": end})

    def add(self, name: str, seconds: float) -> None:
        """Record a span measured elsewhere (in a child process)."""
        end = time.perf_counter()
        self.spans.append({"id": self._next_id, "parent": self._open[-1] if self._open else None,
                           "name": name, "start": end - seconds, "end": end})
        self._next_id += 1

    def median(self, name: str) -> float:
        return statistics.median(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def _repeat(tracer: Tracer, name: str, call) -> None:
    spent = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        with tracer.span(name):
            call()
        spent += time.perf_counter() - t0
        if spent > PROBE_BUDGET_S:
            break


def _import_seconds(module: str, env: dict) -> float:
    """Time ``import module`` inside a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out.strip())


def correlation_inputs(seed: int):
    """Seeded scores, MOS and groups shaped like the full study: 20 Gaussian,
    20 octree and 16 twin stimuli, 16 variants."""
    levels = np.concatenate([np.tile(np.arange(5), 8), np.tile(np.arange(1, 5), 4)])
    groups = np.repeat(["gaussian", "octree", "twin"], [20, 20, 16])
    mos = 4.6 - 0.8 * levels
    rng = np.random.default_rng([seed, 4])
    scores = 30.0 + 6.0 * mos[:, None] + rng.normal(0.0, 1.5, (len(mos), 16))
    return scores, mos, groups


def correlate(scores: np.ndarray, mos: np.ndarray, groups: np.ndarray) -> None:
    """The correlation step of a benchmark: fit, PLCC, SROCC and the
    monotonicity check for every variant and group, plus the pooled group."""
    sets = [groups == g for g in np.unique(groups)] + [np.ones(len(mos), dtype=bool)]
    for col in range(scores.shape[1]):
        for members in sets:
            x, y = scores[members, col], mos[members]
            beta = fit_regression(x, y)
            predicted = predict_mos(beta, x)
            plcc(predicted, y)
            srocc(predicted, y)
            fit_is_monotone(beta, float(x.min()), float(x.max()))


def probe_layers(tracer: Tracer, ref: PointCloud, deg: PointCloud, workdir: str,
                 seed: int, env: dict) -> None:
    """Time each module's public functions on one reference/degraded pair.

    ``ref`` carries its bit depth and no normals.  ``env`` is the
    environment of the fresh interpreters that time the imports.
    """
    ascii_path, binary_path = f"{workdir}/probe-ascii.ply", f"{workdir}/probe-binary.ply"
    _repeat(tracer, "ply.write_ascii_s", lambda: write_ply(ref, ascii_path, format="ascii"))
    _repeat(tracer, "ply.read_ascii_s", lambda: read_ply(ascii_path))
    _repeat(tracer, "ply.write_binary_s", lambda: write_ply(ref, binary_path))
    _repeat(tracer, "ply.read_binary_s", lambda: read_ply(binary_path))
    _repeat(tracer, "cloud.construct_s", lambda: PointCloud(ref.points, bit_depth=ref.bit_depth))

    _repeat(tracer, "neighbors.index_build_s", lambda: NeighborIndex(ref))
    index = NeighborIndex(ref)
    _repeat(tracer, "neighbors.knn_k1_s", lambda: index.self_excluded_neighbors(1))
    _repeat(tracer, "neighbors.knn_k10_s", lambda: index.self_excluded_neighbors(10))

    _repeat(tracer, "normals.estimate_s", lambda: normal_vectors(ref, 10))
    with_normals = ref.with_normals(normal_vectors(ref, 10)[0])

    _repeat(tracer, "metrics.correspondence_s", lambda: nn_squared_errors(deg, ref))
    _repeat(tracer, "metrics.mnn_s", lambda: mnn(ref))
    _repeat(tracer, "metrics.ann_s", lambda: ann(ref))
    _repeat(tracer, "metrics.annk_s", lambda: ann_k(ref, 10))
    _repeat(tracer, "metrics.apdk_s", lambda: apd_k(with_normals, 10))

    _repeat(tracer, "degrade.gaussian_s", lambda: gaussian_jitter(ref, 0.7, seed=seed))
    _repeat(tracer, "degrade.octree_s", lambda: octree_quantize(ref, 2))

    variants = full_variant_matrix()
    _repeat(tracer, "evaluation.score_pair_s", lambda: score_pair(ref, deg, variants))
    scores, mos, groups = correlation_inputs(seed)
    _repeat(tracer, "evaluation.correlate_s", lambda: correlate(scores, mos, groups))

    for module, name in (("pcqa.evaluation", "evaluation.import_s"), ("pcqa.cli", "cli.import_s")):
        for _ in range(3):
            tracer.add(name, _import_seconds(module, env))
