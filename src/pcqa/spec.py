"""The metric vocabulary: error kinds, peaks, resolution estimators and
their default neighborhood sizes.

This module imports no numpy, so the command line builds its parser, and
``import pcqa`` finishes, without loading the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

DEFAULT_ESTIMATOR_K = 10
DEFAULT_NORMAL_K = 10

POOLING_MODES = ("max", "min")  # "max" follows the metric definition; "min" matches MPEG tooling


class ErrorKind(Enum):
    """How the per-point error against the nearest neighbor is measured."""

    PO2PO = "po2po"  # squared Euclidean distance (D1)
    PO2PL = "po2pl"  # squared projection onto the neighbor's normal (D2)


class PeakKind(Enum):
    PRECISION = "precision"
    LARGEST_DIAGONAL = "ld"
    INTRINSIC = "intrinsic"
    RENDERING = "rendering"


class ResolutionEstimator(Enum):
    MNN = "mnn"  # maximum nearest-neighbor distance
    ANN = "ann"  # RMS nearest-neighbor distance
    ANN_K = "annk"  # RMS distance over k-neighborhoods
    APD_K = "apdk"  # RMS tangent-plane-projected distance over k-neighborhoods

    def read_k(self, k: int | None) -> int | None:
        """The neighborhood size this estimator reads when passed ``k``.
        ANN_K and APD_K read ``k``, ``DEFAULT_ESTIMATOR_K`` when it is None, and
        need an integer k >= 1; MNN and ANN read none and ignore ``k``."""
        if self in (ResolutionEstimator.MNN, ResolutionEstimator.ANN):
            return None
        return DEFAULT_ESTIMATOR_K if k is None else integer_k(k, f"estimator {self.value}", 1)

    @property
    def peak_kind(self) -> PeakKind:
        """APD_K is the rendering resolution; the others are intrinsic."""
        return PeakKind.RENDERING if self is ResolutionEstimator.APD_K else PeakKind.INTRINSIC


def integer_k(k, reader: str, least: int | None = None) -> int:
    """``k`` as an ``int`` if it equals one (4.0 and np.int64(4) do; 2.5, nan and "4"
    do not, as for a bit depth), and not below ``least``; ``reader`` names who asks."""
    try:
        whole = int(k)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != k:
        raise ValueError(f"{reader} needs an integer k, got {k}")
    if least is not None and whole < least:
        raise ValueError(f"{reader} needs k >= {least}, got {whole}")
    return whole


def require_normal_k(k: int) -> int:
    """The normal estimator's rule on its neighborhood size, returned as an
    ``int``: a plane fit needs an integer k >= 3."""
    return integer_k(k, "normal estimation", 3)


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
        if self.estimator is None or self.estimator.peak_kind is not self.kind:
            raise ValueError(f"{self.kind.value} peak cannot use estimator {self.estimator}")
        k = self.estimator.read_k(self.k)
        if k != self.k:  # the spec holds the k that is read
            raise ValueError(f"estimator {self.estimator.value} reads k={k}, got {self.k}")
        object.__setattr__(self, "k", k)  # an int, also when given as 4.0

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
        return cls(PeakKind.INTRINSIC, estimator, estimator.read_k(k), density_adaptive)

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
        base = self.kind.value if self.estimator is None else self.estimator.value
        return f"ra-{base}" if self.density_adaptive else base

    @classmethod
    def parse(cls, label: str, k: int | None = None) -> "PeakSpec":
        """Inverse of ``label``; ``k`` as ``ResolutionEstimator.read_k`` reads it."""
        base = label.removeprefix("ra-")
        if base in (PeakKind.PRECISION.value, PeakKind.LARGEST_DIAGONAL.value):
            spec = cls(PeakKind(base))
        else:
            try:
                est = ResolutionEstimator(base)
            except ValueError:
                raise ValueError(f"unknown peak {label!r}") from None
            spec = cls(est.peak_kind, est, est.read_k(k))
        return replace(spec, density_adaptive=base != label)


def reads_normals(kind: ErrorKind, peak: PeakSpec) -> bool:
    """Whether a variant reads the reference's normals: the po2pl error and
    the APD_k peak do."""
    return kind is ErrorKind.PO2PL or peak.estimator is ResolutionEstimator.APD_K
