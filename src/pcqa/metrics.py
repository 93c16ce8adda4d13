"""Geometry distortion metrics for point cloud pairs.

Implements the PSNR family used to score a degraded cloud against a
reference: point-to-point (D1) and point-to-plane (D2) mean squared errors,
peak normalizers based on coordinate precision, bounding-box diagonal,
intrinsic resolution (MNN / ANN / ANN_k) or rendering resolution (APD_k),
and the density-adaptive RA-PSNR combination of resolution and precision.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud import UNIT_NORMAL_TOL, PointCloud, precision_peak
from . import normals as _normals
from .neighbors import NeighborIndex
from .spec import (
    DEFAULT_ESTIMATOR_K,
    DEFAULT_NORMAL_K,
    POOLING_MODES,
    ErrorKind,
    PeakKind,
    PeakSpec,
    ResolutionEstimator,
    reads_normals,
    require_normal_k,
)

BLOCK_ROWS = 4096  # rows per block in every per-point loop, which bounds their temporaries


class ZeroPeakError(ValueError):
    """The peak normalizer is zero (degenerate cloud), so no PSNR exists."""


@dataclass(frozen=True)
class MetricResult:
    """Directional and pooled PSNR with the underlying MSEs and provenance.

    ``peak_value`` is the characteristic peak length: the precision peak
    2**b - 1, the reference bounding-box diagonal, or the resolution
    estimate, depending on ``peak``.  Directional dB values are ``inf``
    when the corresponding MSE is zero (identical geometry); serialization
    turns those into null plus an infinite-quality flag.  ``psnr_pooled``
    is derived from the two directions, so it cannot disagree with them.
    """

    psnr_ab: float
    psnr_ba: float
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
    def psnr_pooled(self) -> float:
        """The larger directional dB under "max" pooling, the smaller under "min"."""
        return (max if self.pooling == "max" else min)(self.psnr_ab, self.psnr_ba)

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


def _mean(values: np.ndarray) -> float:
    """The mean over points: every MSE and every resolution value is one.
    It sums in sorted order, so it depends on the values and not on the
    point order, which would otherwise move the last bits of the sum."""
    return float(np.sort(values).sum()) / len(values)


@dataclass
class _CloudState:
    """What pcqa keeps about one cloud while the cloud lives.  It holds the
    cloud's read-only arrays (through the index) but never the cloud."""

    index: NeighborIndex | None = None
    normals: dict = field(default_factory=dict)  # normal_k -> estimated normals
    values: dict = field(default_factory=dict)  # _value_key -> resolution value


# Keyed by the cloud itself (PointCloud hashes by identity), so each entry
# goes when its cloud does.
_STATES: weakref.WeakKeyDictionary[PointCloud, _CloudState] = weakref.WeakKeyDictionary()


class PreparedCloud:
    """A cloud plus its kd-tree, normals and resolution values, each computed
    on first use and kept in a store that lives exactly as long as the
    cloud: every ``PreparedCloud`` of the same cloud shares them.  Whatever
    reads self-excluded k-neighborhoods comes from ``_stream``, one blocked
    pass over the cloud per k that keeps per-row results only.  Normals and
    APD_k read neighbor indices, so they take the pass at exactly their own
    k.  MNN, ANN and ANN_k read only sorted distances, which do not depend
    on how ties are broken, so they all ride along on the widest pass.  The
    one other per-point loop is the po2pl error, ``plane_errors``.
    """

    def __init__(self, cloud: PointCloud, normal_k: int = DEFAULT_NORMAL_K):
        self.cloud = cloud
        self.normal_k = normal_k
        self._state = _STATES.setdefault(cloud, _CloudState())

    @property
    def index(self) -> NeighborIndex:
        if self._state.index is None:
            self._state.index = NeighborIndex(self.cloud)
        return self._state.index

    @property
    def _normals(self) -> np.ndarray | None:
        """The cloud's own normals, those estimated at ``normal_k``, or None."""
        if self.cloud.has_normals:
            return self.cloud.normals
        return self._state.normals.get(self.normal_k)

    @property
    def normals(self) -> np.ndarray:
        """The cloud's own normals, or PCA normals estimated at ``normal_k``."""
        self._fill(normals=True)
        return self._normals

    def estimate_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """PCA normals at ``normal_k`` and their degenerate mask from a pass
        of their own, as new writable arrays that nothing keeps (``normals``
        is the kept, read-only result)."""
        return self._stream(self.normal_k, normals=True)[:2]

    def _value_key(self, estimator: ResolutionEstimator, k: int | None) -> tuple:
        """Store key of a value: APD_k reads the normals, so also ``normal_k``."""
        return estimator, k, self.normal_k if estimator is ResolutionEstimator.APD_K else None

    def resolution(self, estimator: ResolutionEstimator, k: int | None = None) -> float:
        """One resolution estimate, memoized; ``k`` as ``ResolutionEstimator.read_k`` reads it."""
        k = estimator.read_k(k)
        self._fill([(estimator, k)])
        return self._state.values[self._value_key(estimator, k)]

    def _fill(self, wanted=(), normals: bool = False) -> None:
        """Compute the ``wanted`` (estimator, k) values not yet known, and the
        normals when ``normals`` is set or an APD_k needs them.  Normals and
        each APD_k take the pass at their own k, the normals' first.  Every
        distance-only value rides on the widest pass, which is added at the
        widest distance-only width when no pass is that wide.  Each value is
        sqrt(reduce(row sums) / width): the maximum for MNN, else ``_mean``."""
        values = self._state.values
        todo = [key for key in dict.fromkeys(wanted) if self._value_key(*key) not in values]
        apd = {k for estimator, k in todo if estimator is ResolutionEstimator.APD_K}
        estimate = self._normals is None and (normals or bool(apd))
        widths = {k or 1 for estimator, k in todo if estimator is not ResolutionEstimator.APD_K}
        passes = apd | ({self.normal_k} if estimate else set())
        widest = max(passes | widths, default=0)
        passes |= {widest} if widths else set()

        sums = {}
        for k in sorted(passes, key=lambda k: (k != self.normal_k, -k)):
            with_normals = estimate and k == self.normal_k
            normals_, _, pass_sums = self._stream(
                k, normals=with_normals, apd=k in apd, widths=widths if k == widest else ())
            if with_normals:
                normals_.setflags(write=False)  # shared by every later call on this cloud
                self._state.normals[self.normal_k] = normals_
            sums.update(pass_sums)
        for estimator, k in todo:  # ANN is ANN_k at k=1; max(d**2) is max(d)**2, d >= 0
            reduce, width = np.max if estimator is ResolutionEstimator.MNN else _mean, k or 1
            values[self._value_key(estimator, k)] = math.sqrt(
                reduce(sums[estimator is ResolutionEstimator.APD_K, width]) / width)

    def _stream(self, k: int, rows: np.ndarray | None = None, *, normals: bool = False,
                apd: bool = False, widths=()) -> tuple:
        """One pass at ``k`` over ``rows`` (an index array, default all points)
        in blocks of ``BLOCK_ROWS``; each block's self-excluded k-NN query
        fills per-row arrays: normals and degenerate mask (if ``normals``),
        APD_k's tangent-plane row sums in ``sums[True, k]`` (if ``apd``), and
        sums of squared distances to the w nearest in ``sums[False, w]`` for
        each w in ``widths``.  Returns (normals, degenerate, sums): the first
        two are None where not asked for, and sums is empty.  No (rows, k)
        array outlives its block; one warning counts the degenerate rows."""
        if normals:
            k = require_normal_k(k)
        index, points = self.index, self.cloud.points  # the index rejects an empty cloud
        rows = np.arange(len(points)) if rows is None else rows
        n = len(rows)
        out_normals = np.empty((n, 3)) if normals else None
        degenerate = np.empty(n, dtype=bool) if normals else None
        sums = {(False, w): np.empty(n) for w in widths} | ({(True, k): np.empty(n)} if apd else {})
        for start in range(0, n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            centers = rows[block]
            idx, dists = index.self_excluded_neighbors(k, centers)
            if normals:
                out_normals[block], degenerate[block] = _normals.normal_vectors(self.cloud, k, neighbors=idx)
            if apd:
                center_normals = out_normals[block] if normals else self._normals[centers]
                offsets = points[idx] - points[centers, None, :]  # (B, k, 3)
                # elementwise: einsum may sum in another order for a one-row block
                along = sum(offsets[:, :, j] * center_normals[:, j, None] for j in range(3))
                sums[True, k][block] = np.maximum(dists**2 - along * along, 0.0).sum(axis=1)
            for w in widths:
                sums[False, w][block] = (dists[:, :w] ** 2).sum(axis=1)
        if normals and degenerate.any():
            warnings.warn(f"{int(degenerate.sum())} of {n} points have degenerate (coincident) "
                          "neighborhoods; their normals were set to (0, 0, 1)", RuntimeWarning, stacklevel=2)
        return out_normals, degenerate, sums

    def nearest(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For every query point: (squared distance to, index of) its nearest
        point of this cloud.  Every correspondence in pcqa comes from here."""
        idx, dists = self.index.query(points)
        return dists * dists, idx

    def plane_errors(self, points: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The po2pl error of each query point: the squared projection of
        ``points[i] - cloud.points[rows[i]]`` onto the normal at ``rows[i]``
        (repeats allowed), block by block, so no (N, 3) array is made.
        Unless all of the cloud's normals are known, only its distinct
        ``rows`` are estimated, by one pass over them alone, and nothing is kept."""
        normals, distinct = self._normals, None
        if normals is None:  # the matched normals first, to keep the peak memory low
            matched = np.zeros(len(self.cloud), dtype=bool)
            matched[rows] = True
            distinct = np.flatnonzero(matched)
            normals = self._stream(self.normal_k, distinct, normals=True)[0]
        errors = np.empty(len(rows))
        for start in range(0, len(rows), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            at = rows[block] if distinct is None else np.searchsorted(distinct, rows[block])
            proj = np.einsum("ij,ij->i", points[block] - self.cloud.points[rows[block]], normals[at])
            errors[block] = proj * proj
        return errors

    def peak_numerators(self, peaks, *, normals: bool = False) -> dict[PeakSpec, tuple[float, float]]:
        """Peak value and PSNR numerator of each peak, with this cloud as the
        reference.  The resolution values they read, and the normals when
        ``normals`` is set, are computed together first by one ``_fill``.

        Numerators by peak: 3*p_c**2 for precision, the squared diagonal for
        LD, r**2 for a plain resolution peak, and 3*r*p_c for the
        density-adaptive form.  Raises ``ZeroPeakError`` when a peak
        degenerates to zero and ``ValueError`` when a required bit depth is
        missing.
        """
        specs = list(dict.fromkeys(peaks))
        self._fill([(peak.estimator, peak.k) for peak in specs if peak.estimator is not None], normals)
        bit_depth, out = self.cloud.bit_depth, {}
        for peak in specs:
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
            out[peak] = peak_value, numerator
        return out


def nn_squared_errors(a: PointCloud, b: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """For every point of ``a``: (squared distance to, index of) its nearest
    neighbor in ``b``.  The query point is never excluded, so identical
    clouds yield all-zero errors."""
    _require_points(a, "source")
    _require_points(b, "target")
    return PreparedCloud(b).nearest(a.points)


def _mean_squared_errors(a: PointCloud, b: PreparedCloud, po2pl: bool) -> dict[ErrorKind, float]:
    sq, idx = b.nearest(a.points)
    out = {ErrorKind.PO2PO: _mean(sq)}
    del sq  # only its mean is read: freed before the matched-row pass
    if po2pl:
        out[ErrorKind.PO2PL] = _mean(b.plane_errors(a.points, idx))
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
    if abs(float(np.linalg.norm(normal)) - 1.0) > UNIT_NORMAL_TOL:
        raise ValueError(f"normal must be unit length within {UNIT_NORMAL_TOL}")
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


def _normals_source(cloud: PointCloud, used: bool) -> str:
    return ("file" if cloud.has_normals else "estimated") if used else "unused"


def score_variants(
    a: PointCloud,
    b: PointCloud,
    variants: list[tuple[ErrorKind, PeakSpec]],
    *,
    pooling: str = "max",
    normal_k: int = DEFAULT_NORMAL_K,
) -> list[MetricResult]:
    """PSNR of degraded cloud ``b`` against reference ``a`` for every (error
    kind, peak) variant.  Correspondences and peaks are computed once and
    shared; the reference's normals and resolution values, and both trees,
    are kept with the clouds for later calls.  ``b``'s normals are
    estimated only at the rows that ``a``'s points match, the only ones the
    po2pl error reads, unless all of them are known already.  Each result
    equals a ``psnr`` call for it alone."""
    if pooling not in POOLING_MODES:
        raise ValueError(f"pooling must be one of {POOLING_MODES}, got {pooling!r}")
    _require_points(a, "reference")
    _require_points(b, "degraded")
    ref, deg = PreparedCloud(a, normal_k), PreparedCloud(b, normal_k)

    po2pl = any(kind is ErrorKind.PO2PL for kind, _ in variants)
    peaks = ref.peak_numerators((peak for _, peak in variants), normals=po2pl)
    mse_ab = _mean_squared_errors(a, deg, po2pl)
    mse_ba = _mean_squared_errors(b, ref, po2pl)

    results = []
    for kind, peak in variants:
        peak_value, numerator = peaks[peak]
        normals_a = _normals_source(a, reads_normals(kind, peak))
        normals_b = _normals_source(b, kind is ErrorKind.PO2PL)
        results.append(MetricResult(
            psnr_ab=_db(numerator, mse_ab[kind]), psnr_ba=_db(numerator, mse_ba[kind]),
            mse_ab=mse_ab[kind], mse_ba=mse_ba[kind], peak_value=peak_value,
            error_kind=kind, peak=peak, pooling=pooling, bit_depth=a.bit_depth,
            normal_k=require_normal_k(normal_k) if "estimated" in (normals_a, normals_b) else None,
            normals_a=normals_a, normals_b=normals_b,
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
    return score_variants(a, b, [variant], pooling=pooling, normal_k=normal_k)[0]


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
    """Resolution-adaptive PSNR: ``psnr`` on the density-adaptive peak of
    ``estimator``, which may be any estimator that ``PeakSpec`` takes (MNN,
    ANN, ANN_K or APD_K), with ``k`` as ``ResolutionEstimator.read_k`` reads
    it.  The default evaluation computes 10*log10(3*r*p_c / MSE);
    ``via_density_coefficient`` instead scales the MSE by the density
    coefficient p_c / r under a 3*p_c**2 numerator.  The two forms are
    algebraically identical and agree to floating-point rounding."""
    if not isinstance(estimator, ResolutionEstimator):
        raise ValueError(f"RA-PSNR needs a ResolutionEstimator, got {estimator!r}")
    peak = PeakSpec(estimator.peak_kind, estimator, estimator.read_k(k), density_adaptive=True)
    result = psnr(a, b, kind, peak, pooling=pooling, normal_k=normal_k)
    if not via_density_coefficient:
        return result

    p_c = precision_peak(result.bit_depth)
    mu = density_coefficient(result.bit_depth, result.peak_value)
    numerator = 3.0 * p_c * p_c
    return replace(result, psnr_ab=_db(numerator, mu * result.mse_ab),
                   psnr_ba=_db(numerator, mu * result.mse_ba))
