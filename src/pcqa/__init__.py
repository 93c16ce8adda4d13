"""Point cloud geometry quality assessment.

PSNR-family metrics for degraded point clouds: point-to-point and
point-to-plane errors normalized by coordinate precision, bounding-box
diagonal, intrinsic resolution (MNN / ANN / ANN_k) or rendering resolution
(APD_k), including the density-adaptive RA-PSNR, plus a benchmark harness
correlating metric output with subjective scores.
"""

from .cloud import PointCloud, infer_bit_depth, precision_peak
from .degrade import gaussian_jitter, octree_quantize
from .evaluation import (
    CorrelationReport,
    StimulusRecord,
    fit_regression,
    plcc,
    predict_mos,
    read_manifest,
    run_benchmark,
    score_pair,
    srocc,
    write_report_csv,
    write_report_json,
)
from .metrics import (
    DEFAULT_ESTIMATOR_K,
    ErrorKind,
    MetricResult,
    PeakKind,
    PeakSpec,
    ResolutionEstimator,
    ZeroPeakError,
    ann,
    ann_k,
    apd_k,
    density_coefficient,
    directional_mse,
    largest_diagonal,
    mnn,
    planar_distance,
    planar_offset,
    psnr,
    ra_psnr,
    resolution,
)
from .neighbors import NeighborIndex
from .normals import DEFAULT_NORMAL_K, estimate_normals, normal_vectors
from .ply import PlyParseError, read_ply, write_ply

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ESTIMATOR_K",
    "DEFAULT_NORMAL_K",
    "CorrelationReport",
    "ErrorKind",
    "MetricResult",
    "NeighborIndex",
    "PeakKind",
    "PeakSpec",
    "PlyParseError",
    "PointCloud",
    "ResolutionEstimator",
    "StimulusRecord",
    "ZeroPeakError",
    "ann",
    "ann_k",
    "apd_k",
    "density_coefficient",
    "directional_mse",
    "estimate_normals",
    "fit_regression",
    "gaussian_jitter",
    "infer_bit_depth",
    "largest_diagonal",
    "mnn",
    "normal_vectors",
    "octree_quantize",
    "planar_distance",
    "planar_offset",
    "plcc",
    "precision_peak",
    "predict_mos",
    "psnr",
    "ra_psnr",
    "read_manifest",
    "read_ply",
    "resolution",
    "run_benchmark",
    "score_pair",
    "srocc",
    "write_ply",
    "write_report_csv",
    "write_report_json",
]
