"""Correctness checks, run outside the timed region.

Each check compares the program's output with a computation made apart from
it (plain numpy, no spatial index) or with a property the method must have.
Checks return a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import inputs
from pcqa import (
    ErrorKind,
    PeakSpec,
    ann_k,
    gaussian_jitter,
    infer_bit_depth,
    psnr,
    read_ply,
)
from pcqa.metrics import nn_squared_errors

D1 = ("po2po", "precision", None)  # report key of the D1 variant
TWIN_TOLERANCE_DB = 1e-9
BRUTE_FORCE_SAMPLE = 128  # points per direction checked against an exhaustive scan
STUDY_PSNR_SAMPLE = 1  # stimuli per run re-scored by one-variant psnr calls


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def brute_force_nn_sq(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distance from each query to its nearest target, by exhaustive scan."""
    out = np.empty(len(queries))
    for i in range(0, len(queries), 8):
        diff = queries[i:i + 8, None, :] - targets[None, :, :]
        out[i:i + 8] = np.einsum("qnj,qnj->qn", diff, diff).min(axis=1)
    return out


def check_pair(ref, deg, results: dict, seed: int) -> list[str]:
    problems = []
    d1, d2 = results["d1"], results["d2"]
    b = inputs.PAIR_BIT_DEPTH
    p = 2.0**b - 1.0
    partner = float(np.mean(np.sum((deg.points - ref.points) ** 2, axis=1)))
    for direction in ("mse_ab", "mse_ba"):
        if not d1[direction] <= partner * (1.0 + 1e-12):
            problems.append(f"pair-large: D1 {direction} {d1[direction]} exceeds the jitter "
                            f"partner MSE {partner}")
        if not d2[direction] <= d1[direction] * (1.0 + 1e-12):
            problems.append(f"pair-large: po2pl {direction} {d2[direction]} exceeds po2po "
                            f"{d1[direction]}")
    for name, result, numerator in (("D1", d1, 3.0 * p * p),
                                    ("D2", d2, 3.0 * d2["peak_value"] * p)):
        ab = 10.0 * math.log10(numerator / result["mse_ab"])
        ba = 10.0 * math.log10(numerator / result["mse_ba"])
        if not (_close(ab, result["psnr_ab_db"]) and _close(ba, result["psnr_ba_db"])):
            problems.append(f"pair-large: {name} dB values do not follow from the closed-form peak")
        if result["psnr_db"] != max(result["psnr_ab_db"], result["psnr_ba_db"]):
            problems.append(f"pair-large: {name} pooled score is not the max of both directions")
    annk = ann_k(ref, 10)
    if not d2["peak_value"] <= annk:
        problems.append(f"pair-large: apd_k {d2['peak_value']} exceeds ann_k {annk}")

    rng = np.random.default_rng([seed, 5])
    for src, dst, label in ((ref, deg, "ref->deg"), (deg, ref, "deg->ref")):
        sq, _ = nn_squared_errors(src, dst)
        sample = rng.choice(len(src), size=min(BRUTE_FORCE_SAMPLE, len(src)), replace=False)
        oracle = brute_force_nn_sq(src.points[sample], dst.points)
        if not np.allclose(sq[sample], oracle, rtol=1e-9, atol=1e-12):
            problems.append(f"pair-large: nn_squared_errors {label} differs from the exhaustive scan")
    return problems


def _scores(reports: list[dict], group: str) -> dict[tuple, dict[str, float]]:
    """(error, peak label, k) -> stimulus id -> objective score, for one group."""
    return {(r["error_kind"], r["peak"], r["k"]): dict(zip(r["stimulus_ids"], r["objective"]))
            for r in reports if r["group"] == group}


def failed_twins(reports: list[dict], twins: dict[str, str]) -> list[str]:
    """Twins whose score differs from their original's in any variant.

    A twin holds its original's points in another order, so any difference
    means the score depends on point order."""
    scores = _scores(reports, "All")
    return [twin for twin, original in twins.items()
            if any(abs(s[twin] - s[original]) > TWIN_TOLERANCE_DB for s in scores.values())]


def average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc, yc = x - x.mean(), y - y.mean()
    return float(xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)))


def check_study(data: dict, full: list[dict], light: list[dict], seed: int) -> list[str]:
    problems = []
    rows = data["rows"]
    members = {"All": {r[0] for r in rows}}
    for sid, group, *_ in rows:
        members.setdefault(group, set()).add(sid)
    if len(full) != 16 * len(members):
        problems.append(f"study: {len(full)} reports, expected 16 variants x {len(members)} groups")
    for r in full + light:
        if set(r["stimulus_ids"]) != members[r["group"]] or r["n"] != len(members[r["group"]]):
            problems.append(f"study: group {r['group']} size differs from the manifest")
        if r["excluded_infinite"] != 0:
            problems.append(f"study: group {r['group']} excluded {r['excluded_infinite']} stimuli")
        predicted, mos = np.array(r["predicted_mos"]), np.array(r["mos"])
        if not _close(pearson(predicted, mos), r["plcc"]):
            problems.append(f"study: PLCC of {r['group']}/{r['error_kind']}:{r['peak']} differs")
        if not _close(pearson(average_ranks(predicted), average_ranks(mos)), r["srocc"]):
            problems.append(f"study: SROCC of {r['group']}/{r['error_kind']}:{r['peak']} differs")

    scores = _scores(full, "All")
    d1 = scores[D1]
    if _scores(light, "All")[D1] != d1:
        problems.append("study: the D1-only run scored differently from the full run")
    for (name, group), ladder in data["ladders"].items():
        values = [d1[sid] for sid in ladder]
        if not all(a > b for a, b in zip(values, values[1:])):
            problems.append(f"study: D1 scores of the {name} {group} ladder do not fall: {values}")

    base = os.path.dirname(data["manifest"])
    rng = np.random.default_rng([seed, 6])
    picks = rng.choice(len(rows), size=STUDY_PSNR_SAMPLE, replace=False)
    for row in (rows[i] for i in picks):
        sid, _, ref_file, deg_file, _ = row
        ref = read_ply(os.path.join(base, ref_file))
        ref = ref.with_bit_depth(infer_bit_depth(ref))
        deg = read_ply(os.path.join(base, deg_file))
        for variant, by_stimulus in scores.items():
            error, label, k = variant
            expected = psnr(ref, deg, ErrorKind(error), PeakSpec.parse(label, k)).psnr_pooled
            if by_stimulus[sid] != expected:
                problems.append(f"study: {sid} {variant} scored {by_stimulus[sid]}, "
                                f"psnr gives {expected}")
    return problems


def check_cli(data: dict, outputs: dict[str, str], seed: int, workdir: str) -> list[str]:
    """Check the output of every call in ``outputs`` (calls that failed are
    counted as failed operations instead)."""
    problems = []
    ref, deg = data["ref"], data["deg"]
    for name, cloud in (("ref", ref), ("deg", deg)):
        back = read_ply(data["paths"][name]).points
        if back.shape != cloud.points.shape or not np.array_equal(back, cloud.points):
            problems.append(f"cli-ascii: ASCII {name} does not read back bit-exactly")
    if "help" in outputs and "usage:" not in outputs["help"]:
        problems.append("cli-ascii: --help printed no usage")
    for estimator in ("mnn", "ann"):
        text = outputs.get(f"resolution-{estimator}")
        if text is not None and text.strip() != f"{estimator} = {inputs.LATTICE_SPACING:.9f}":
            problems.append(f"cli-ascii: resolution {estimator} on the lattice printed {text!r}, "
                            f"expected spacing {inputs.LATTICE_SPACING}")
    if "compare" in outputs:
        expected = psnr(ref.with_bit_depth(infer_bit_depth(ref)), deg, ErrorKind.PO2PO,
                        PeakSpec.precision()).to_dict()
        if json.loads(outputs["compare"]) != expected:
            problems.append("cli-ascii: compare output differs from the library result")
    if "degrade-gaussian" in outputs:
        out = read_ply(os.path.join(workdir, "gaussian.ply")).points
        if not np.array_equal(out, gaussian_jitter(ref, inputs.CLI_SIGMA, seed=seed).points):
            problems.append("cli-ascii: degrade --gaussian differs from gaussian_jitter")
    if "degrade-octree" in outputs:
        step = 2.0**inputs.CLI_OCTREE_BITS
        expected = np.unique(np.floor(ref.points / step) * step, axis=0)
        out = read_ply(os.path.join(workdir, "octree.ply")).points
        if len(out) != len(expected) or not np.array_equal(np.unique(out, axis=0), expected):
            problems.append("cli-ascii: degrade --octree-quantize is not the floored, "
                            "deduplicated source set")
    return problems
