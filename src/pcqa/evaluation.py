"""Subjective-correlation benchmark harness.

Scores reference/degraded cloud pairs with a set of metric variants, maps
the objective scores onto the MOS scale with a least-squares cubic (the
third-order form of ITU-T P.1401) in the objective centred and scaled to
[-1, 1] per group, and reports Pearson (PLCC) and Spearman (SROCC)
correlation of predicted versus actual MOS, per stimulus group and pooled
over all groups.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .cloud import PointCloud, require_bit_depth
from .metrics import score_variants
from .ply import read_ply
from .spec import DEFAULT_ESTIMATOR_K, DEFAULT_NORMAL_K, ErrorKind, PeakSpec, ResolutionEstimator

POOLED_GROUP = "All"
MIN_GROUP_SIZE = 5  # a 4-parameter fit needs at least 5 samples

MANIFEST_COLUMNS = ("stimulus_id", "group", "reference", "degraded", "mos")

MOS_RANGE = (1.0, 5.0)

MetricVariant = tuple[ErrorKind, PeakSpec]


@dataclass(frozen=True)
class StimulusRecord:
    """One manifest row: a degraded cloud, its reference, and its MOS."""

    stimulus_id: str
    group: str
    reference: str
    degraded: str
    mos: float

    def __post_init__(self):
        if not MOS_RANGE[0] <= self.mos <= MOS_RANGE[1]:
            raise ValueError(
                f"stimulus {self.stimulus_id!r}: MOS {self.mos} outside {list(MOS_RANGE)}"
            )


class CubicFit(NamedTuple):
    """MOS = b1 + b2*t + b3*t**2 + b4*t**3 in t = (x - center) / scale; the
    defaults make t the raw objective x."""

    b1: float
    b2: float
    b3: float
    b4: float
    center: float = 0.0
    scale: float = 1.0


@dataclass(frozen=True)
class CorrelationReport:
    """Fit and correlation of one metric variant on one stimulus group."""

    group: str
    error_kind: ErrorKind
    peak: PeakSpec
    n: int
    coefficients: CubicFit  # the fit of MOS onto the objective, with its basis
    stimulus_ids: tuple[str, ...]
    objective: tuple[float, ...]
    mos: tuple[float, ...]
    predicted_mos: tuple[float, ...]
    plcc: float
    srocc: float
    monotone_fit: bool
    excluded_infinite: int = 0

    def __post_init__(self):
        if not isinstance(self.coefficients, CubicFit):
            raise TypeError("coefficients must be a CubicFit, which carries the fit's basis")
        vectors = (self.stimulus_ids, self.objective, self.mos, self.predicted_mos)
        if any(len(vector) != self.n for vector in vectors):
            raise ValueError("per-stimulus vectors must have length n")
        if abs(self.plcc) > 1.0 or abs(self.srocc) > 1.0:
            raise ValueError("correlation coefficients must lie in [-1, 1]")

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "error_kind": self.error_kind.value,
            "peak": self.peak.label,
            "k": self.peak.k,
            "n": self.n,
            "excluded_infinite": self.excluded_infinite,
            "coefficients": list(self.coefficients[:4]),
            "center": self.coefficients.center,
            "scale": self.coefficients.scale,
            "plcc": self.plcc,
            "srocc": self.srocc,
            "monotone_fit": self.monotone_fit,
            "stimulus_ids": list(self.stimulus_ids),
            "objective": list(self.objective),
            "mos": list(self.mos),
            "predicted_mos": list(self.predicted_mos),
        }


def _design_matrix(t: np.ndarray) -> np.ndarray:
    return np.vander(t, 4, increasing=True)


def fit_regression(objective, mos) -> CubicFit:
    """Least-squares cubic of MOS in t = (x - c) / s, where c and s are the
    midpoint and half-range of the objectives x: the design [1, t, t**2, t**3]
    stays well conditioned, where the raw powers of dB values reach a condition
    number of 2e9.  Raises on fewer than 5 samples, non-finite values, or a
    rank-deficient design (e.g. all objective values equal)."""
    x = np.asarray(objective, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("objective and mos must be 1-D sequences of equal length")
    if len(x) < MIN_GROUP_SIZE:
        raise ValueError(f"need at least {MIN_GROUP_SIZE} samples for a 4-parameter fit, got {len(x)}")
    if not np.isfinite(x).all():
        raise ValueError("objective values must be finite (exclude infinite-quality stimuli)")
    if not np.isfinite(y).all():
        raise ValueError("mos values must be finite")
    lo, hi = float(x.min()), float(x.max())
    # equal objectives keep scale 1, and their design fails the rank check below
    center, scale = (lo + hi) / 2.0, (hi - lo) / 2.0 or 1.0
    design = _design_matrix((x - center) / scale)
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient design: objective values do not span a 4-parameter fit")
    return CubicFit(*map(float, beta), center=center, scale=scale)


def predict_mos(fit: CubicFit, objective) -> np.ndarray:
    """Evaluate a fitted regression at the given objective values."""
    x = np.asarray(objective, dtype=np.float64)
    return _design_matrix((x - fit.center) / fit.scale) @ np.asarray(fit[:4])


def fit_is_monotone(fit: CubicFit, lo: float, hi: float) -> bool:
    """Whether the fitted polynomial is monotone over [lo, hi].

    [lo, hi] is mapped into t, where the derivative's real roots split it into
    segments of constant sign; the fit is monotone when every segment
    midpoint agrees in sign.
    """
    lo, hi = sorted(((lo - fit.center) / fit.scale, (hi - fit.center) / fit.scale))
    deriv = np.polynomial.polynomial.polyder(fit[:4])
    breaks = [lo, hi]
    if np.any(deriv[1:] != 0.0):
        roots = np.polynomial.polynomial.polyroots(deriv)
        breaks.extend(
            float(r.real) for r in np.atleast_1d(roots) if abs(r.imag) < 1e-12 and lo < r.real < hi
        )
    breaks.sort()
    probes = np.array([(a + b) / 2.0 for a, b in zip(breaks, breaks[1:])] or [lo])
    values = np.polynomial.polynomial.polyval(probes, deriv)
    tol = 1e-12 * max(1.0, float(np.abs(values).max()))
    return bool(np.all(values >= -tol) or np.all(values <= tol))


def _correlation_samples(x, y, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``x``, ``y`` as float64 samples of the correlation ``name``: 1-D, equal length, 2+, not constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if len(x) < 2:
        raise ValueError("correlation needs at least 2 samples")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError(f"{name} undefined for a constant sequence")
    return x, y


def plcc(x, y) -> float:
    """Pearson linear correlation coefficient."""
    x, y = _correlation_samples(x, y, "correlation")
    r = float(np.clip(np.dot(_unit_deviations(x), _unit_deviations(y)), -1.0, 1.0))
    return float(np.round(r)) if len(x) == 2 else r


def _unit_deviations(v: np.ndarray) -> np.ndarray:
    """``v`` minus its mean, scaled to unit Euclidean norm with the same
    rounding as ``scipy.stats.pearsonr`` (max-abs prescaling of the norm)."""
    d = v - v.mean()
    peak = np.abs(d).max()
    s = d / peak
    return d / (peak * np.sqrt(np.sum(s * s)))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts + 1
    return (first + (counts - 1) / 2.0)[inverse]


def srocc(x, y) -> float:
    """Spearman rank-order correlation (average ranks for ties).

    Tie-free inputs use the rank-difference form 1 - 6*sum(d^2)/(n(n^2-1)),
    which is algebraically the same as Pearson on ranks but exact in
    floating point: identical orderings give 1.0, reversed give -1.0, at
    any n.  Inputs with ties fall back to the general form.
    """
    x, y = _correlation_samples(x, y, "rank correlation")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.unique(rx).size == rx.size and np.unique(ry).size == ry.size:
        d = rx - ry
        n = len(x)
        return float(1.0 - 6.0 * float(d @ d) / (n * (n * n - 1.0)))
    return float(np.corrcoef(rx, ry)[1, 0])


def read_manifest(path) -> list[StimulusRecord]:
    """Read a benchmark manifest CSV.

    Expected header: ``stimulus_id,group,reference,degraded,mos`` (extra columns
    and a leading byte order mark are ignored), each of these named once.  A row of
    another width than the header is an error, and so is the group ``POOLED_GROUP``,
    the pooled report's name.
    Relative cloud paths are resolved against the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    records: list[StimulusRecord] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"manifest {path} line {line}: not UTF-8 "
                         f"(byte 0x{raw[exc.start]:02x} at offset {exc.start})") from None
    with io.StringIO(text.removeprefix("\ufeff"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in MANIFEST_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"manifest {path} is missing column(s): {', '.join(missing)}")
        repeated = [c for c in MANIFEST_COLUMNS if header.count(c) > 1]
        if repeated:
            raise ValueError(f"manifest {path} line {reader.line_num}: column {repeated[0]!r} appears twice")
        for fields in filter(None, reader):  # blank lines are skipped, as by csv.DictReader
            if len(fields) != len(header):
                raise ValueError(f"manifest {path} line {reader.line_num}: "
                                 f"expected {len(header)} fields, got {len(fields)}")
            row = dict(zip(header, fields))
            sid = row["stimulus_id"].strip()
            if not sid:
                raise ValueError(f"manifest {path} line {reader.line_num}: empty stimulus_id")
            if sid in seen:
                raise ValueError(f"manifest {path} line {reader.line_num}: duplicate stimulus_id {sid!r}")
            seen.add(sid)
            group = row["group"].strip()
            if group == POOLED_GROUP:
                raise ValueError(f"manifest {path} line {reader.line_num}: "
                                 f"group {group!r} is reserved for the pooled report")
            try:
                mos = float(row["mos"])
            except ValueError:
                raise ValueError(
                    f"manifest {path} line {reader.line_num}: MOS {row['mos']!r} is not a number"
                ) from None
            try:  # StimulusRecord states the MOS range
                records.append(StimulusRecord(
                    stimulus_id=sid,
                    group=group,
                    reference=os.path.join(base, row["reference"].strip()),
                    degraded=os.path.join(base, row["degraded"].strip()),
                    mos=mos,
                ))
            except ValueError as exc:
                raise ValueError(f"manifest {path} line {reader.line_num}: {exc}") from None
    if not records:
        raise ValueError(f"manifest {path} contains no stimuli")
    return records


def score_pair(
    ref: PointCloud,
    deg: PointCloud,
    variants: list[MetricVariant],
    *,
    pooling: str = "max",
    normal_k: int = DEFAULT_NORMAL_K,
) -> list[float]:
    """Pooled PSNR of one cloud pair for every metric variant.

    Computes nearest-neighbor correspondences once per direction and reuses
    them across variants, so results equal per-variant ``metrics.psnr``
    calls exactly at a fraction of the cost.
    """
    return [r.psnr_pooled for r in score_variants(ref, deg, variants, pooling=pooling, normal_k=normal_k)]


def _load_cloud(path: str, stimulus_id: str) -> PointCloud:
    try:
        return read_ply(path)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise FileNotFoundError(f"stimulus {stimulus_id!r}: file not found: {path}") from None
    except ValueError as exc:
        exc.args = (f"stimulus {stimulus_id!r}: {exc}",)  # a PlyParseError keeps .line and .byte
        raise


def benchmark_scores(
    manifest: list[StimulusRecord],
    metrics: list[MetricVariant],
    *,
    pooling: str = "max",
    normal_k: int = DEFAULT_NORMAL_K,
    bit_depth: int | None = None,
) -> np.ndarray:
    """Objective scores for every stimulus (rows) and metric variant (columns).

    References recurring across stimuli are loaded once, so each keeps one
    kd-tree, one streamed kNN pass per k, one set of normals and one value
    per resolution estimate for the whole run.  Each reference takes
    ``bit_depth`` when one is given, and otherwise its inferred depth when a
    variant reads the coordinate precision (``cloud.require_bit_depth``).
    """
    if not manifest:
        raise ValueError("manifest is empty")
    if not metrics:
        raise ValueError("no metric variants given")
    needs_bits = any(peak.needs_bit_depth for _, peak in metrics)

    references: dict[str, PointCloud] = {}
    scores = np.empty((len(manifest), len(metrics)), dtype=np.float64)
    for row, stim in enumerate(manifest):
        ref = references.get(stim.reference)
        if ref is None:
            ref = references[stim.reference] = require_bit_depth(
                _load_cloud(stim.reference, stim.stimulus_id), bit_depth, stim.reference, needs_bits)
        deg = _load_cloud(stim.degraded, stim.stimulus_id)
        try:
            scores[row] = score_pair(ref, deg, metrics, pooling=pooling, normal_k=normal_k)
        except ValueError as exc:
            exc.args = (f"stimulus {stim.stimulus_id!r}: {exc}",)  # a ZeroPeakError stays one
            raise
    return scores


def run_benchmark(
    manifest: list[StimulusRecord],
    metrics: list[MetricVariant],
    *,
    pooling: str = "max",
    normal_k: int = DEFAULT_NORMAL_K,
    bit_depth: int | None = None,
) -> list[CorrelationReport]:
    """Score every stimulus once per variant, then correlate per group.

    For each variant and each group (plus the pooled ``All`` set) the
    objective scores are regressed onto MOS and the report carries PLCC and
    SROCC of predicted versus actual MOS.  Stimuli with infinite quality
    (zero error) are excluded from the fit and counted.  A group the fit or a
    correlation rejects is skipped with a warning that names the reason.
    """
    scores = benchmark_scores(
        manifest, metrics, pooling=pooling, normal_k=normal_k, bit_depth=bit_depth
    )
    groups = sorted({s.group for s in manifest})
    group_sets: list[tuple[str, np.ndarray]] = [
        (g, np.array([s.group == g for s in manifest])) for g in groups
    ]
    group_sets.append((POOLED_GROUP, np.ones(len(manifest), dtype=bool)))

    mos_all = np.array([s.mos for s in manifest])
    ids_all = np.array([s.stimulus_id for s in manifest])

    reports: list[CorrelationReport] = []
    for col, (kind, peak) in enumerate(metrics):
        objective_all = scores[:, col]
        for group, members in group_sets:
            finite = members & np.isfinite(objective_all)
            excluded = int(members.sum() - finite.sum())
            x = objective_all[finite]
            y = mos_all[finite]
            try:
                fit = fit_regression(x, y)
                predicted = predict_mos(fit, x)
                pearson, spearman = plcc(predicted, y), srocc(predicted, y)
            except ValueError as exc:
                warnings.warn(f"group {group!r}: {variant_to_string((kind, peak))}: {exc}; skipping",
                              RuntimeWarning, stacklevel=2)
                continue
            reports.append(
                CorrelationReport(
                    group=group,
                    error_kind=kind,
                    peak=peak,
                    n=int(finite.sum()),
                    coefficients=fit,
                    stimulus_ids=tuple(ids_all[finite]),
                    objective=tuple(float(v) for v in x),
                    mos=tuple(float(v) for v in y),
                    predicted_mos=tuple(float(v) for v in predicted),
                    plcc=pearson,
                    srocc=spearman,
                    monotone_fit=fit_is_monotone(fit, float(x.min()), float(x.max())),
                    excluded_infinite=excluded,
                )
            )
    return reports


def variant_from_string(text: str, k: int | None = None) -> MetricVariant:
    """Parse a metric variant like ``po2pl:apdk:10:ra`` or ``po2po:ld``.

    Fields are colon-separated: error kind, peak name, then optionally a
    neighborhood size for annk/apdk and the ``ra`` marker for the
    density-adaptive form.  An annk/apdk spec without a size of its own
    reads ``k`` (the ``--k`` flag) as ``ResolutionEstimator.read_k`` does;
    a size on any other peak is an error, since that peak reads none.
    """
    parts = text.strip().lower().split(":")
    if len(parts) < 2:
        raise ValueError(f"metric {text!r}: expected at least error:peak")
    try:
        kind = ErrorKind(parts[0])
    except ValueError:
        raise ValueError(f"metric {text!r}: unknown error kind {parts[0]!r}") from None
    ra = len(parts) > 2 and parts[-1] == "ra"
    rest = parts[2:-1] if ra else parts[2:]
    if rest:
        if len(rest) > 1:
            raise ValueError(f"metric {text!r}: too many fields")
        try:
            k = int(rest[0])
        except ValueError:
            raise ValueError(f"metric {text!r}: k {rest[0]!r} is not an integer") from None
    try:
        peak = PeakSpec.parse(parts[1], k)
        if ra and peak.density_adaptive:
            raise ValueError(f"peak {parts[1]!r} is density-adaptive already")
        if ra:
            peak = replace(peak, density_adaptive=True)
    except ValueError as exc:
        raise ValueError(f"metric {text!r}: {exc}") from None
    if rest and peak.k is None:
        raise ValueError(f"metric {text!r}: peak {parts[1]!r} reads no k, got {rest[0]!r}")
    return kind, peak


def variant_to_string(variant: MetricVariant) -> str:
    """Inverse of ``variant_from_string``: ``po2po:precision``, ``po2pl:ra-apdk:10``."""
    kind, peak = variant
    return f"{kind.value}:{peak.label}" + ("" if peak.k is None else f":{peak.k}")


def full_variant_matrix(k: int = DEFAULT_ESTIMATOR_K) -> list[MetricVariant]:
    """All 16 benchmark variants: precision and diagonal peaks, intrinsic
    resolution peaks (MNN/ANN/ANN_k), and the density-adaptive forms with
    ANN/ANN_k/APD_k, each for both error kinds."""
    peaks = [
        PeakSpec.precision(),
        PeakSpec.largest_diagonal(),
        PeakSpec.intrinsic(ResolutionEstimator.MNN),
        PeakSpec.intrinsic(ResolutionEstimator.ANN),
        PeakSpec.intrinsic(ResolutionEstimator.ANN_K, k),
        PeakSpec.intrinsic(ResolutionEstimator.ANN, density_adaptive=True),
        PeakSpec.intrinsic(ResolutionEstimator.ANN_K, k, density_adaptive=True),
        PeakSpec.rendering(k, density_adaptive=True),
    ]
    return [(kind, peak) for peak in peaks for kind in (ErrorKind.PO2PO, ErrorKind.PO2PL)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_report_csv(reports: list[CorrelationReport], path) -> None:
    """Write reports as CSV with 6-significant-digit reals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["group", "error_kind", "peak_spec", "k", "n", "plcc", "srocc", "monotone_fit",
             "beta1", "beta2", "beta3", "beta4", "center", "scale"]
        )
        for r in reports:
            writer.writerow(
                [
                    r.group,
                    r.error_kind.value,
                    r.peak.label,
                    "" if r.peak.k is None else r.peak.k,
                    r.n,
                    _fmt(r.plcc),
                    _fmt(r.srocc),
                    str(r.monotone_fit).lower(),
                    *(_fmt(b) for b in r.coefficients),
                ]
            )


def write_report_json(reports: list[CorrelationReport], path, *, config: dict | None = None) -> None:
    """Write the structured report: run configuration plus full-precision results."""
    payload = {"config": config or {}, "reports": [r.to_dict() for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
