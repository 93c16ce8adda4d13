"""Geometry distortion metrics for point cloud pairs.

Implements the PSNR family used to score a degraded cloud against a
reference: point-to-point (D1) and point-to-plane (D2) mean squared errors,
peak normalizers based on coordinate precision, bounding-box diagonal,
intrinsic resolution (MNN / ANN / ANN_k) or rendering resolution (APD_k),
and the density-adaptive RA-PSNR combination of resolution and precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .cloud import PointCloud, precision_peak
from . import normals as _normals
from .neighbors import NeighborIndex
from .normals import DEFAULT_NORMAL_K

DEFAULT_ESTIMATOR_K = 10

POOLING_MODES = ("max", "min")  # "max" follows the metric definition; "min" matches MPEG tooling


class ZeroPeakError(ValueError):
    """The peak normalizer is zero (degenerate cloud), so no PSNR exists."""


class ErrorKind(Enum):
    """How the per-point error against the nearest neighbor is measured."""

    PO2PO = "po2po"  # squared Euclidean distance (D1)
    PO2PL = "po2pl"  # squared projection onto the neighbor's normal (D2)


class ResolutionEstimator(Enum):
    MNN = "mnn"  # maximum nearest-neighbor distance
    ANN = "ann"  # RMS nearest-neighbor distance
    ANN_K = "annk"  # RMS distance over k-neighborhoods
    APD_K = "apdk"  # RMS tangent-plane-projected distance over k-neighborhoods


class PeakKind(Enum):
    PRECISION = "precision"
    LARGEST_DIAGONAL = "ld"
    INTRINSIC = "intrinsic"
    RENDERING = "rendering"


_INTRINSIC_ESTIMATORS = (ResolutionEstimator.MNN, ResolutionEstimator.ANN, ResolutionEstimator.ANN_K)


@dataclass(frozen=True)
class PeakSpec:
    """Which normalizer feeds the PSNR numerator.

    ``density_adaptive`` selects RA-PSNR, which additionally scales the
    resolution by the coordinate precision; it is only meaningful for
    resolution-based peaks and requires a known bit depth.
    """

    kind: PeakKind
    estimator: ResolutionEstimator | None = None
    k: int | None = None
    density_adaptive: bool = False

    def __post_init__(self):
        if self.kind in (PeakKind.PRECISION, PeakKind.LARGEST_DIAGONAL):
            if self.estimator is not None or self.k is not None:
                raise ValueError(f"{self.kind.value} peak takes no estimator or k")
            if self.density_adaptive:
                raise ValueError("density-adaptive scaling requires a resolution-based peak")
            return
        if self.kind is PeakKind.INTRINSIC:
            if self.estimator not in _INTRINSIC_ESTIMATORS:
                raise ValueError(f"intrinsic peak needs MNN, ANN or ANN_K, got {self.estimator}")
        else:  # RENDERING
            if self.estimator is not ResolutionEstimator.APD_K:
                raise ValueError(f"rendering peak needs APD_K, got {self.estimator}")
        if self.estimator in (ResolutionEstimator.ANN_K, ResolutionEstimator.APD_K):
            if self.k is None or self.k < 1:
                raise ValueError(f"estimator {self.estimator.value} needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"estimator {self.estimator.value} takes no k")

    @classmethod
    def precision(cls) -> "PeakSpec":
        return cls(PeakKind.PRECISION)

    @classmethod
    def largest_diagonal(cls) -> "PeakSpec":
        return cls(PeakKind.LARGEST_DIAGONAL)

    @classmethod
    def intrinsic(
        cls,
        estimator: ResolutionEstimator = ResolutionEstimator.ANN_K,
        k: int | None = None,
        density_adaptive: bool = False,
    ) -> "PeakSpec":
        if estimator is ResolutionEstimator.ANN_K and k is None:
            k = DEFAULT_ESTIMATOR_K
        return cls(PeakKind.INTRINSIC, estimator, k, density_adaptive)

    @classmethod
    def rendering(cls, k: int = DEFAULT_ESTIMATOR_K, density_adaptive: bool = False) -> "PeakSpec":
        return cls(PeakKind.RENDERING, ResolutionEstimator.APD_K, k, density_adaptive)

    @property
    def needs_bit_depth(self) -> bool:
        """Whether the peak reads the reference's coordinate precision."""
        return self.kind is PeakKind.PRECISION or self.density_adaptive

    @property
    def label(self) -> str:
        """Short flag-style name, e.g. 'precision', 'annk', 'ra-apdk'."""
        if self.kind in (PeakKind.PRECISION, PeakKind.LARGEST_DIAGONAL):
            return self.kind.value
        base = self.estimator.value
        return f"ra-{base}" if self.density_adaptive else base

    @classmethod
    def parse(cls, label: str, k: int | None = None) -> "PeakSpec":
        """Inverse of ``label``; ``k`` applies to the annk/apdk estimators."""
        ra = label.startswith("ra-")
        base = label[3:] if ra else label
        if base == "precision":
            spec = cls.precision()
        elif base == "ld":
            spec = cls.largest_diagonal()
        elif base in ("mnn", "ann", "annk"):
            est = ResolutionEstimator(base)
            spec = cls.intrinsic(est, k if est is ResolutionEstimator.ANN_K else None)
        elif base == "apdk":
            spec = cls.rendering(k if k is not None else DEFAULT_ESTIMATOR_K)
        else:
            raise ValueError(f"unknown peak {label!r}")
        if ra:
            spec = replace(spec, density_adaptive=True)
        return spec


@dataclass(frozen=True)
class MetricResult:
    """Directional and pooled PSNR with the underlying MSEs and provenance.

    ``peak_value`` is the characteristic peak length: the precision peak
    2**b - 1, the reference bounding-box diagonal, or the resolution
    estimate, depending on ``peak``.  Directional dB values are ``inf``
    when the corresponding MSE is zero (identical geometry); serialization
    turns those into null plus an infinite-quality flag.
    """

    psnr_ab: float
    psnr_ba: float
    psnr_pooled: float
    mse_ab: float
    mse_ba: float
    peak_value: float
    error_kind: ErrorKind
    peak: PeakSpec
    pooling: str = "max"
    bit_depth: int | None = None
    normal_k: int | None = None
    normals_a: str = "unused"  # "file" | "estimated" | "unused"
    normals_b: str = "unused"

    @property
    def infinite_quality(self) -> bool:
        return math.isinf(self.psnr_pooled)

    def to_dict(self) -> dict:
        """JSON-safe dict; infinite dB becomes null with a flag set."""

        def db(value: float):
            return None if math.isinf(value) else value

        return {
            "error": self.error_kind.value,
            "peak": self.peak.label,
            "k": self.peak.k,
            "pooling": self.pooling,
            "bit_depth": self.bit_depth,
            "normal_k": self.normal_k,
            "normals_a": self.normals_a,
            "normals_b": self.normals_b,
            "peak_value": self.peak_value,
            "mse_ab": self.mse_ab,
            "mse_ba": self.mse_ba,
            "psnr_ab_db": db(self.psnr_ab),
            "psnr_ba_db": db(self.psnr_ba),
            "psnr_db": db(self.psnr_pooled),
            "infinite_quality": self.infinite_quality,
        }


def _require_points(cloud: PointCloud, what: str) -> None:
    if len(cloud) == 0:
        raise ValueError(f"{what} cloud is empty")


class PreparedCloud:
    """A cloud plus its kd-tree, self-excluded kNN graph per k, normals and
    resolution values, each built on first use and at most once; it serves
    one scoring call or one benchmark run.  Normals and APD_k read neighbor
    indices, so they use the graph at exactly their own k.  MNN, ANN and
    ANN_k read only sorted distances, which do not depend on how ties are
    broken, so they cut the first k columns of a graph built at a larger k.
    """

    def __init__(self, cloud: PointCloud, normal_k: int = DEFAULT_NORMAL_K):
        self.cloud = cloud
        self.normal_k = normal_k
        self._graphs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._resolutions: dict[tuple[ResolutionEstimator, int | None], float] = {}

    @cached_property
    def index(self) -> NeighborIndex:
        return NeighborIndex(self.cloud)

    def graph(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Self-excluded k nearest neighbors of every point: (indices, distances)."""
        if k not in self._graphs:
            self._graphs[k] = self.index.self_excluded_neighbors(k)
        return self._graphs[k]

    @cached_property
    def normals(self) -> np.ndarray:
        """The cloud's own normals, or PCA normals from ``graph(normal_k)``."""
        if self.cloud.has_normals:
            return self.cloud.normals
        k = self.normal_k  # a k below 3 is left to the estimator to report
        idx = self.graph(k)[0] if k >= 3 else None
        return _normals.normal_vectors(self.cloud, k, neighbors=idx)[0]

    def apd_mean_square(self, k: int) -> float:
        """Mean over all pairs of max(d**2 - (o . n)**2, 0): d the graph
        distance, o the neighbor offset, n the center's normal."""
        idx, dists = self.graph(k)
        normals, points = self.normals, self.cloud.points
        row_sums = np.empty(len(points))
        for start in range(0, len(points), _normals.BLOCK_ROWS):
            rows = slice(start, start + _normals.BLOCK_ROWS)
            offsets = points[idx[rows]] - points[rows, None, :]  # (B, k, 3)
            # elementwise: einsum may sum in another order for a one-row block
            along = sum(offsets[:, :, j] * normals[rows, j, None] for j in range(3))
            row_sums[rows] = np.maximum(dists[rows] ** 2 - along * along, 0.0).sum(axis=1)
        return float(np.mean(row_sums)) / k

    def resolution(self, estimator: ResolutionEstimator, k: int | None = None) -> float:
        """One resolution estimate, memoized; ``k`` applies to ANN_K and APD_K only."""
        if estimator in (ResolutionEstimator.MNN, ResolutionEstimator.ANN):
            k = None
        elif k is None:
            k = DEFAULT_ESTIMATOR_K
        if (estimator, k) not in self._resolutions:
            if estimator is ResolutionEstimator.APD_K:
                value = math.sqrt(self.apd_mean_square(k))
            else:  # distances only: cut from the smallest graph built at k or more
                have = min((h for h in self._graphs if h >= (k or 1)), default=k or 1)
                d = self.graph(have)[1][:, : k or 1]
                value = d.max() if estimator is ResolutionEstimator.MNN else np.sqrt(np.mean(d * d))
            self._resolutions[estimator, k] = float(value)
        return self._resolutions[estimator, k]

    def nearest(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For every query point: (squared distance to, index of) its nearest
        point of this cloud.  Every correspondence in pcqa comes from here."""
        idx, dists = self.index.query(points)
        return dists * dists, idx

    def peak_numerators(self, peaks) -> dict[PeakSpec, tuple[float, float]]:
        """``_peak_numerator`` of each peak.  Larger k go first, so that the
        distance-only estimators cut an existing graph; the graphs are dropped
        afterwards, while the normals and resolution values stay."""
        specs = sorted(dict.fromkeys(peaks), key=lambda p: -(p.k or 1))
        out = {peak: self._peak_numerator(peak) for peak in specs}
        self._graphs.clear()
        return out

    def _peak_numerator(self, peak: PeakSpec) -> tuple[float, float]:
        """Peak value and PSNR numerator with this cloud as the reference.

        Numerators by peak: 3*p_c**2 for precision, the squared diagonal for
        LD, r**2 for a plain resolution peak, and 3*r*p_c for the
        density-adaptive form.  Raises ``ZeroPeakError`` when the peak
        degenerates to zero and ``ValueError`` when a required bit depth is
        missing.
        """
        bit_depth = self.cloud.bit_depth
        if peak.needs_bit_depth and bit_depth is None:
            raise ValueError(
                f"{'precision peak' if peak.kind is PeakKind.PRECISION else 'RA-PSNR'} "
                "requires a known bit depth on the reference cloud"
            )

        if peak.kind is PeakKind.PRECISION:
            peak_value = precision_peak(bit_depth)
            numerator = 3.0 * peak_value * peak_value
        elif peak.kind is PeakKind.LARGEST_DIAGONAL:
            peak_value = largest_diagonal(self.cloud)
            numerator = peak_value * peak_value
        else:
            peak_value = self.resolution(peak.estimator, peak.k)
            if peak.density_adaptive:
                numerator = 3.0 * peak_value * precision_peak(bit_depth)
            else:
                numerator = peak_value * peak_value
        if peak_value <= 0.0:
            raise ZeroPeakError(f"peak {peak.label} evaluated to {peak_value} on the reference cloud")
        return peak_value, numerator


def nn_squared_errors(a: PointCloud, b: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """For every point of ``a``: (squared distance to, index of) its nearest
    neighbor in ``b``.  The query point is never excluded, so identical
    clouds yield all-zero errors."""
    _require_points(a, "source")
    _require_points(b, "target")
    return PreparedCloud(b).nearest(a.points)


def _mean_squared_errors(a: PointCloud, b: PreparedCloud, po2pl: bool) -> dict[ErrorKind, float]:
    sq, idx = b.nearest(a.points)
    out = {ErrorKind.PO2PO: float(sq.mean())}
    if po2pl:
        errors = a.points - b.cloud.points[idx]
        proj = np.einsum("ij,ij->i", errors, b.normals[idx])
        out[ErrorKind.PO2PL] = float((proj * proj).mean())
    return out


def directional_mse(a: PointCloud, b: PointCloud, kind: ErrorKind) -> float:
    """Mean squared nearest-neighbor error from every point of ``a`` into ``b``.

    PO2PO squares the Euclidean distance; PO2PL squares its projection onto
    the matched neighbor's normal (``b`` must carry normals).  The PO2PL
    value never exceeds the PO2PO value for the same pair.
    """
    _require_points(a, "source")
    _require_points(b, "target")
    if kind is ErrorKind.PO2PL and b.normals is None:
        raise ValueError("point-to-plane error needs normals on the target cloud")
    return _mean_squared_errors(a, PreparedCloud(b), kind is ErrorKind.PO2PL)[kind]


def largest_diagonal(cloud: PointCloud) -> float:
    """Euclidean length of the cloud's axis-aligned bounding-box diagonal."""
    _require_points(cloud, "input")
    extent = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    return float(np.linalg.norm(extent))


def mnn(cloud: PointCloud) -> float:
    """Maximum over all points of the self-excluded nearest-neighbor distance.

    Sensitive to holes and locally sparse regions: a single isolated point
    dominates the estimate.
    """
    return PreparedCloud(cloud).resolution(ResolutionEstimator.MNN)


def ann(cloud: PointCloud) -> float:
    """Root mean square of the self-excluded nearest-neighbor distances."""
    return PreparedCloud(cloud).resolution(ResolutionEstimator.ANN)


def ann_k(cloud: PointCloud, k: int = DEFAULT_ESTIMATOR_K) -> float:
    """RMS distance over every point's k nearest neighbors (self excluded).

    ``ann_k(cloud, 1)`` equals ``ann(cloud)`` exactly.
    """
    return PreparedCloud(cloud).resolution(ResolutionEstimator.ANN_K, k)


def planar_offset(center, normal, neighbor) -> np.ndarray:
    """Component of (neighbor - center) orthogonal to the unit normal.

    This is the planar distance vector: the neighbor offset as seen on the
    tangent plane at ``center``.  It is orthogonal to ``normal`` and never
    longer than the offset itself.
    """
    normal = np.asarray(normal, dtype=np.float64)
    if abs(float(np.linalg.norm(normal)) - 1.0) > 1e-9:
        raise ValueError("normal must be unit length within 1e-9")
    offset = np.asarray(neighbor, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return offset - (offset @ normal) * normal


def planar_distance(center, normal, neighbor) -> float:
    """Length of the tangent-plane component of (neighbor - center)."""
    return float(np.linalg.norm(planar_offset(center, normal, neighbor)))


def apd_k(
    cloud: PointCloud,
    k: int = DEFAULT_ESTIMATOR_K,
    *,
    normal_k: int = DEFAULT_NORMAL_K,
) -> float:
    """Rendering resolution: RMS tangent-plane distance to k nearest neighbors.

    Each neighbor offset is projected onto the tangent plane at its center
    point before squaring, modeling the spacing an observer sees after
    point-based rendering.  Normals are taken from the cloud or estimated
    with ``normal_k`` neighbors when absent.  The outer square root makes it
    dimensionally consistent with the plain k-neighborhood RMS estimator.
    """
    return PreparedCloud(cloud, normal_k).resolution(ResolutionEstimator.APD_K, k)


def density_coefficient(bit_depth: int, r: float) -> float:
    """Precision peak divided by resolution: how many resolution units span
    the coordinate range."""
    if r <= 0.0:
        raise ZeroPeakError(f"resolution must be positive, got {r}")
    return precision_peak(bit_depth) / r


def resolution(
    cloud: PointCloud,
    estimator: ResolutionEstimator,
    k: int | None = None,
    *,
    normal_k: int = DEFAULT_NORMAL_K,
) -> float:
    """Evaluate one of the resolution estimators on a cloud."""
    return PreparedCloud(cloud, normal_k).resolution(estimator, k)


def _db(numerator: float, mse: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(numerator / mse)


def _pool(psnr_ab: float, psnr_ba: float, pooling: str) -> float:
    return max(psnr_ab, psnr_ba) if pooling == "max" else min(psnr_ab, psnr_ba)


def _normals_source(cloud: PointCloud, used: bool) -> str:
    return ("file" if cloud.has_normals else "estimated") if used else "unused"


def score_variants(
    ref: PreparedCloud,
    deg: PreparedCloud,
    variants: list[tuple[ErrorKind, PeakSpec]],
    *,
    pooling: str = "max",
) -> list[MetricResult]:
    """PSNR of degraded ``deg`` against reference ``ref`` (prepared with the
    same ``normal_k``) for every (error kind, peak) variant.  Correspondences
    and peaks are computed once and shared; ``ref`` keeps its normals and
    peaks, not its graphs.  Each result equals a ``psnr`` call for it alone."""
    if pooling not in POOLING_MODES:
        raise ValueError(f"pooling must be one of {POOLING_MODES}, got {pooling!r}")
    _require_points(ref.cloud, "reference")
    _require_points(deg.cloud, "degraded")

    # normals first, as their errors come first; then the peaks
    po2pl = any(kind is ErrorKind.PO2PL for kind, _ in variants)
    if po2pl or any(peak.estimator is ResolutionEstimator.APD_K for _, peak in variants):
        _ = ref.normals
    if po2pl:
        _ = deg.normals
    peaks = ref.peak_numerators(peak for _, peak in variants)
    mse_ab = _mean_squared_errors(ref.cloud, deg, po2pl)
    mse_ba = _mean_squared_errors(deg.cloud, ref, po2pl)

    results = []
    for kind, peak in variants:
        peak_value, numerator = peaks[peak]
        uses_ref = kind is ErrorKind.PO2PL or peak.estimator is ResolutionEstimator.APD_K
        normals_a = _normals_source(ref.cloud, uses_ref)
        normals_b = _normals_source(deg.cloud, kind is ErrorKind.PO2PL)
        normal_k = ref.normal_k if "estimated" in (normals_a, normals_b) else None
        psnr_ab = _db(numerator, mse_ab[kind])
        psnr_ba = _db(numerator, mse_ba[kind])
        results.append(MetricResult(
            psnr_ab=psnr_ab, psnr_ba=psnr_ba, psnr_pooled=_pool(psnr_ab, psnr_ba, pooling),
            mse_ab=mse_ab[kind], mse_ba=mse_ba[kind], peak_value=peak_value,
            error_kind=kind, peak=peak, pooling=pooling, bit_depth=ref.cloud.bit_depth,
            normal_k=normal_k, normals_a=normals_a, normals_b=normals_b,
        ))
    return results


def psnr(
    a: PointCloud,
    b: PointCloud,
    kind: ErrorKind = ErrorKind.PO2PO,
    peak: PeakSpec | None = None,
    *,
    pooling: str = "max",
    normal_k: int = DEFAULT_NORMAL_K,
) -> MetricResult:
    """Symmetric PSNR between reference cloud ``a`` and degraded cloud ``b``.

    Both directional PSNRs share a single peak value evaluated on the
    reference: the precision peak 2**b - 1, the bounding-box diagonal, or a
    resolution estimate.  The directional values are pooled with ``max`` by
    default ("min" gives the MPEG-tool convention of pooling the larger
    error).  Numerators by peak: 3*p_c**2 for precision, the squared
    diagonal for LD (identical to normalizing both clouds by the reference
    diagonal), r**2 for a plain resolution peak, and 3*r*p_c when
    ``peak.density_adaptive`` selects RA-PSNR.

    Zero MSE in a direction yields ``inf`` dB there, flagged as infinite
    quality rather than raising.  A zero peak (degenerate reference) raises
    ``ZeroPeakError``.  This is ``score_variants`` with one variant.
    """
    variant = (kind, PeakSpec.precision() if peak is None else peak)
    ref, deg = PreparedCloud(a, normal_k), PreparedCloud(b, normal_k)
    return score_variants(ref, deg, [variant], pooling=pooling)[0]


_RA_ESTIMATORS = (ResolutionEstimator.ANN, ResolutionEstimator.ANN_K, ResolutionEstimator.APD_K)


def ra_psnr(
    a: PointCloud,
    b: PointCloud,
    kind: ErrorKind = ErrorKind.PO2PO,
    estimator: ResolutionEstimator = ResolutionEstimator.APD_K,
    k: int = DEFAULT_ESTIMATOR_K,
    *,
    pooling: str = "max",
    normal_k: int = DEFAULT_NORMAL_K,
    via_density_coefficient: bool = False,
) -> MetricResult:
    """Resolution-adaptive PSNR: convenience wrapper over ``psnr``.

    ``estimator`` picks the resolution feeding the peak (ANN, ANN_K or
    APD_K).  The default evaluation computes 10*log10(3*r*p_c / MSE);
    ``via_density_coefficient`` instead scales the MSE by the density
    coefficient p_c / r under a 3*p_c**2 numerator.  The two forms are
    algebraically identical and agree to floating-point rounding.
    """
    if estimator not in _RA_ESTIMATORS:
        raise ValueError(
            f"RA-PSNR estimator must be one of {[e.value for e in _RA_ESTIMATORS]}; "
            "for MNN build a PeakSpec directly"
        )
    peak = PeakSpec.parse(f"ra-{estimator.value}", k)
    result = psnr(a, b, kind, peak, pooling=pooling, normal_k=normal_k)
    if not via_density_coefficient:
        return result

    p_c = precision_peak(result.bit_depth)
    mu = density_coefficient(result.bit_depth, result.peak_value)
    numerator = 3.0 * p_c * p_c
    psnr_ab = _db(numerator, mu * result.mse_ab)
    psnr_ba = _db(numerator, mu * result.mse_ba)
    return replace(
        result,
        psnr_ab=psnr_ab,
        psnr_ba=psnr_ba,
        psnr_pooled=_pool(psnr_ab, psnr_ba, pooling),
    )
