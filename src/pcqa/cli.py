"""Command-line interface.

Four subcommands: ``compare`` scores a degraded cloud against a reference,
``resolution`` prints a resolution estimate, ``degrade`` produces synthetic
distortions, and ``benchmark`` runs the subjective-correlation harness over
a manifest.  Every command is deterministic given its flags (plus ``--seed``
for the stochastic degradation), and error causes map to distinct exit
codes:

    0  success
    2  usage error / invalid flag combination
    3  input file not found
    4  file or manifest parse failure
    5  degenerate (zero) peak value
    6  invalid data for the requested computation

An error is one ``pcqa: error[category]: ...`` line on stderr, and each
warning a command shows one ``pcqa: warning: ...`` line.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import warnings
from dataclasses import replace

from .spec import (DEFAULT_ESTIMATOR_K, DEFAULT_NORMAL_K, ErrorKind, PeakKind, PeakSpec, ResolutionEstimator,
                   reads_normals, require_normal_k)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_PARSE = 4
EXIT_ZERO_PEAK = 5
EXIT_INVALID_DATA = 6

POOLING_FLAGS = {"paper-max": "max", "mpeg-min": "min"}

ESTIMATOR_CHOICES = tuple(e.value for e in ResolutionEstimator)
PEAK_CHOICES = (PeakKind.PRECISION.value, PeakKind.LARGEST_DIAGONAL.value, *ESTIMATOR_CHOICES)


class UsageError(Exception):
    """Invalid flag combination detected after argparse."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _peak_from_flags(peak: str, ra: bool | None, k: int) -> PeakSpec:
    """Build the peak spec; ``--ra`` defaults to on for the rendering peak
    (bare ``compare``) and to off for every other peak."""
    try:
        spec = PeakSpec.parse(peak, k)
        if ra or (ra is None and spec.kind is PeakKind.RENDERING):
            spec = replace(spec, density_adaptive=True)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec


def _check_normal_k(normal_k: int, read: bool) -> None:
    """``--normal-k`` is checked, before any file is read, when a variant
    reads normals; the others ignore it, as peaks that read no k ignore ``--k``."""
    if read:
        try:
            require_normal_k(normal_k)
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _db_str(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def cmd_compare(args) -> int:
    from .cloud import require_bit_depth
    from .metrics import psnr
    from .ply import read_ply

    kind = ErrorKind(args.error)
    peak = _peak_from_flags(args.peak, args.ra, args.k)
    _check_normal_k(args.normal_k, reads_normals(kind, peak))
    pooling = POOLING_FLAGS[args.pooling]

    ref = read_ply(args.ref)
    deg = read_ply(args.deg)
    ref = require_bit_depth(ref, args.bitdepth, args.ref, peak.needs_bit_depth)

    result = psnr(ref, deg, kind, peak, pooling=pooling, normal_k=args.normal_k)

    if args.format == "jsonl":
        _emit(json.dumps(result.to_dict()) + "\n", args.out)
        return EXIT_OK

    k_note = "" if result.peak.k is None else f" (k={result.peak.k})"
    normal_note = ""
    if "estimated" in (result.normals_a, result.normals_b):
        normal_note = f" (normal-k={result.normal_k})"
    lines = [
        f"pair:      {args.ref} -> {args.deg}",
        f"metric:    {result.error_kind.value} / {result.peak.label}{k_note}",
        f"pooling:   {result.pooling}",
        f"bit depth: {result.bit_depth if result.bit_depth is not None else '-'}",
        f"peak:      {result.peak_value:.9f}",
        f"normals:   reference={result.normals_a} degraded={result.normals_b}{normal_note}",
        f"mse:       ref->deg {result.mse_ab:.9g}  deg->ref {result.mse_ba:.9g}",
        f"psnr (dB): ref->deg {_db_str(result.psnr_ab)}  deg->ref {_db_str(result.psnr_ba)}",
        f"result:    {_db_str(result.psnr_pooled)} dB"
        + (" (infinite quality: zero error)" if result.infinite_quality else ""),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_resolution(args) -> int:
    from .metrics import resolution
    from .ply import read_ply

    peak = _peak_from_flags(args.peak, False, args.k)
    _check_normal_k(args.normal_k, peak.estimator is ResolutionEstimator.APD_K)
    cloud = read_ply(args.ref)
    value = resolution(cloud, peak.estimator, peak.k, normal_k=args.normal_k)
    label = peak.label if peak.k is None else f"{peak.label}(k={peak.k})"
    note = ""
    if peak.estimator is ResolutionEstimator.APD_K:
        source = "file" if cloud.has_normals else f"estimated, normal-k={args.normal_k}"
        note = f"  [normals: {source}]"
    _emit(f"{label} = {value:.9f}{note}\n", args.out)
    return EXIT_OK


def cmd_degrade(args) -> int:
    from .cloud import require_bit_depth
    from .degrade import gaussian_jitter, octree_quantize
    from .ply import BINARY_LE, read_ply, write_ply

    quantize = args.octree_quantize is not None
    if not quantize and not 0.0 < args.gaussian < math.inf:  # nan too
        raise UsageError(f"--gaussian sigma must be positive and finite, got {args.gaussian}")
    if quantize and args.octree_quantize < 1:
        raise UsageError(f"--octree-quantize needs at least 1 bit, got {args.octree_quantize}")
    if not quantize and args.seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    cloud = require_bit_depth(read_ply(args.ref), args.bitdepth, args.ref, quantize)
    try:
        if quantize:
            degraded = octree_quantize(cloud, args.octree_quantize)
        else:
            degraded = gaussian_jitter(cloud, args.gaussian, seed=args.seed)
    except ValueError as exc:  # the source's data is at fault, so name it as read_ply does
        raise ValueError(f"{args.ref}: {exc}") from None
    write_ply(degraded, args.out, format=BINARY_LE)
    return EXIT_OK


def _parse_variants(tokens: list[str] | None, k: int):
    from .evaluation import full_variant_matrix, variant_from_string

    variants = []
    for token in tokens or ["all"]:
        token = token.strip()
        try:
            variants += full_variant_matrix(k) if token.lower() == "all" else [variant_from_string(token, k)]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return variants


def cmd_benchmark(args) -> int:
    from .evaluation import read_manifest, run_benchmark, variant_to_string, write_report_csv, write_report_json
    from .ply import PlyParseError

    variants = _parse_variants(args.metric, args.k)
    _check_normal_k(args.normal_k, any(reads_normals(kind, peak) for kind, peak in variants))
    pooling = POOLING_FLAGS[args.pooling]
    try:
        manifest = read_manifest(args.manifest)
    except ValueError as exc:
        raise PlyParseError(str(exc)) from None
    try:
        os.makedirs(args.out, exist_ok=True)  # before scoring, so a bad --out fails fast
    except FileExistsError:  # a file of that name
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), args.out) from None

    reports = run_benchmark(manifest, variants, pooling=pooling, normal_k=args.normal_k,
                            bit_depth=args.bitdepth)
    if not reports:
        raise ValueError("no group could be fitted; nothing to report")

    csv_path = os.path.join(args.out, "report.csv")
    json_path = os.path.join(args.out, "report.json")
    config = {
        "manifest": args.manifest,
        "metrics": [variant_to_string(v) for v in variants],
        "pooling": pooling,
        "normal_k": args.normal_k,
        "bit_depth": args.bitdepth,
        "stimuli": len(manifest),
    }
    write_report_csv(reports, csv_path)
    write_report_json(reports, json_path, config=config)

    if args.format == "jsonl":
        for report in reports:
            sys.stdout.write(json.dumps(report.to_dict()) + "\n")
    else:
        header = f"{'group':<12} {'error':<6} {'peak':<9} {'k':>3} {'n':>4} {'plcc':>8} {'srocc':>8}  fit"
        sys.stdout.write(header + "\n")
        for r in reports:
            k_txt = "-" if r.peak.k is None else str(r.peak.k)
            fit = "monotone" if r.monotone_fit else "NON-MONOTONE"
            sys.stdout.write(
                f"{r.group:<12} {r.error_kind.value:<6} {r.peak.label:<9} {k_txt:>3} "
                f"{r.n:>4} {r.plcc:>8.4f} {r.srocc:>8.4f}  {fit}\n"
            )
        sys.stdout.write(f"reports written to {csv_path} and {json_path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqa",
        description="Point cloud geometry quality: PSNR metrics with "
        "precision, diagonal, intrinsic-resolution and rendering-resolution peaks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, k_help="neighborhood size for annk/apdk"):
        p.add_argument("--k", type=int, default=DEFAULT_ESTIMATOR_K, help=f"{k_help} (default %(default)s)")
        p.add_argument("--normal-k", type=int, default=DEFAULT_NORMAL_K,
                       help="neighbors for normal estimation (default %(default)s)")

    p = sub.add_parser("compare", help="score a degraded cloud against a reference")
    p.add_argument("--ref", required=True, help="reference point cloud (PLY)")
    p.add_argument("--deg", required=True, help="degraded point cloud (PLY)")
    p.add_argument("--error", choices=[e.value for e in ErrorKind], default="po2pl")
    p.add_argument("--peak", choices=PEAK_CHOICES, default=ResolutionEstimator.APD_K.value)
    p.add_argument("--ra", action=argparse.BooleanOptionalAction, default=None,
                   help="density-adaptive peak (default: on for apdk, off otherwise)")
    add_common(p)
    p.add_argument("--bitdepth", type=int, help="coordinate bit depth of the reference")
    p.add_argument("--pooling", choices=sorted(POOLING_FLAGS), default="paper-max")
    p.add_argument("--format", choices=("human", "jsonl"), default="human")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("resolution", help="print a resolution estimate for a cloud")
    p.add_argument("--ref", required=True, help="point cloud (PLY)")
    p.add_argument("--peak", choices=ESTIMATOR_CHOICES, default=ResolutionEstimator.ANN.value,
                   help="resolution estimator (default %(default)s)")
    add_common(p)
    p.add_argument("--out", help="write the value here instead of stdout")
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("degrade", help="write a synthetically degraded copy of a cloud")
    p.add_argument("--ref", required=True, help="source point cloud (PLY)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gaussian", type=float, metavar="SIGMA",
                       help="add zero-mean Gaussian jitter with this sigma")
    group.add_argument("--octree-quantize", type=int, metavar="BITS",
                       help="drop this many low-order coordinate bits and deduplicate")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --gaussian (default 0)")
    p.add_argument("--bitdepth", type=int, help="coordinate bit depth of the source")
    p.add_argument("--out", required=True, help="output PLY path")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("benchmark", help="correlate metric variants against MOS")
    p.add_argument("--manifest", required=True,
                   help="CSV with columns stimulus_id,group,reference,degraded,mos")
    p.add_argument("--metric", action="append", metavar="SPEC",
                   help="error:peak[:k][:ra] (e.g. po2pl:apdk:10:ra) or 'all'; repeatable "
                   "(default: all)")
    add_common(p, "k of 'all' and of each annk/apdk spec that names no k")
    p.add_argument("--bitdepth", type=int,
                   help="bit depth of every reference (default: inferred where a variant needs it)")
    p.add_argument("--pooling", choices=sorted(POOLING_FLAGS), default="paper-max")
    p.add_argument("--format", choices=("human", "jsonl"), default="human")
    p.add_argument("--out", required=True, help="directory for report.csv / report.json")
    p.set_defaults(func=cmd_benchmark)

    return parser


def _fail(category: str, message: str, code: int) -> int:
    sys.stderr.write(f"pcqa: error[{category}]: {message}\n")
    return code


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"pcqa: warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .cloud import UnknownBitDepth  # the kernels load only once a command runs
    from .metrics import ZeroPeakError
    from .ply import PlyParseError

    with warnings.catch_warnings():
        warnings.showwarning = _warn  # one line each, without the source path and line
        try:
            return args.func(args)
        except UsageError as exc:
            return _fail("usage", str(exc), EXIT_USAGE)
        except UnknownBitDepth as exc:
            return _fail("usage", f"--bitdepth required: {exc}", EXIT_USAGE)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
            return _fail("not-found", str(exc), EXIT_NOT_FOUND)
        except PlyParseError as exc:
            return _fail("parse", str(exc), EXIT_PARSE)
        except ZeroPeakError as exc:
            return _fail("zero-peak", str(exc), EXIT_ZERO_PEAK)
        except ValueError as exc:
            return _fail("invalid-data", str(exc), EXIT_INVALID_DATA)


if __name__ == "__main__":
    sys.exit(main())
