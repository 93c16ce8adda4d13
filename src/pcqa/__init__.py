"""Point cloud geometry quality assessment.

PSNR-family metrics for degraded point clouds: point-to-point and
point-to-plane errors normalized by coordinate precision, bounding-box
diagonal, intrinsic resolution (MNN / ANN / ANN_k) or rendering resolution
(APD_k), including the density-adaptive RA-PSNR, plus a benchmark harness
correlating metric output with subjective scores.

Importing the package loads no module of it: each exported name imports
its module on first use, so ``import pcqa`` loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "spec": "DEFAULT_ESTIMATOR_K DEFAULT_NORMAL_K ErrorKind PeakKind PeakSpec ResolutionEstimator",
    "cloud": "PointCloud infer_bit_depth precision_peak",
    "degrade": "gaussian_jitter octree_quantize",
    "evaluation": "CorrelationReport CubicFit StimulusRecord fit_regression plcc predict_mos "
                  "read_manifest run_benchmark score_pair srocc write_report_csv write_report_json",
    "metrics": "MetricResult ZeroPeakError ann ann_k apd_k density_coefficient directional_mse "
               "largest_diagonal mnn planar_distance planar_offset psnr ra_psnr resolution",
    "neighbors": "NeighborIndex",
    "normals": "estimate_normals normal_vectors",
    "ply": "PlyParseError read_ply write_ply",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
