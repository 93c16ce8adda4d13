import csv
import json
import math

import numpy as np
import pytest

from pcqa import (
    CorrelationReport,
    CubicFit,
    ErrorKind,
    PeakSpec,
    PointCloud,
    ResolutionEstimator,
    StimulusRecord,
    estimate_normals,
    fit_regression,
    gaussian_jitter,
    plcc,
    predict_mos,
    psnr,
    read_manifest,
    run_benchmark,
    score_pair,
    srocc,
    write_ply,
    write_report_csv,
    write_report_json,
)
from pcqa.evaluation import (
    fit_is_monotone,
    full_variant_matrix,
    variant_from_string,
    variant_to_string,
)
from shapes import random_voxel_cloud

# ------------------------------------------------------------ regression fits


def test_cubic_fit_recovers_exact_coefficients():
    x = np.linspace(30.0, 70.0, 25)
    truth = CubicFit(1.2, -0.05, 0.002, 1e-5)  # raw powers of x
    y = predict_mos(truth, x)
    fit = fit_regression(x, y)
    # the fit's own coefficients are in its scaled basis, so compare the curves
    probe = np.linspace(25.0, 75.0, 101)
    np.testing.assert_allclose(predict_mos(fit, probe), predict_mos(truth, probe), rtol=1e-6)
    np.testing.assert_allclose(predict_mos(fit, x), y, atol=1e-8)


def test_linear_data_fits_with_vanishing_high_order_terms():
    x = np.linspace(20.0, 60.0, 15)
    y = 0.08 * x + 1.0
    beta = fit_regression(x, y)
    assert abs(beta[2]) < 1e-8 and abs(beta[3]) < 1e-8
    assert plcc(predict_mos(beta, x), y) == 1.0


def test_fit_basis_is_the_midpoint_and_half_range_of_the_objectives():
    fit = fit_regression([31.0, 35.0, 38.0, 47.0, 40.0, 33.0], np.arange(6.0))
    assert (fit.center, fit.scale) == (39.0, 8.0)


def test_last_bits_of_the_objectives_stay_in_the_last_bits_of_the_prediction():
    # shaped like one group of the study: 5 severities x 4 contents, dB scores
    mos = np.tile(4.6 - 0.8 * np.arange(5), 4)
    x = 30.0 + 6.0 * mos + np.random.default_rng(7).normal(0.0, 1.5, mos.size)
    baseline = predict_mos(fit_regression(x, mos), x)
    for ulps in (1, 5, 35):
        moved = x
        for _ in range(ulps):
            moved = np.nextafter(moved, np.inf)
        predicted = predict_mos(fit_regression(moved, mos), moved)
        np.testing.assert_allclose(predicted, baseline, rtol=1e-12, atol=0.0, err_msg=f"{ulps} ulps")


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least 5"):
        fit_regression([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_regression(np.full(8, 2.0), np.arange(8.0))
    with pytest.raises(ValueError, match="finite"):
        fit_regression([1.0, 2.0, 3.0, 4.0, math.inf], np.arange(5.0))
    with pytest.raises(ValueError, match="mos values must be finite"):
        fit_regression(np.arange(6.0), [1.0, 2.0, math.nan, 4.0, 5.0, 3.0])
    with pytest.raises(ValueError, match="equal length"):
        fit_regression(np.arange(6.0), np.arange(5.0))


def test_monotone_detection():
    up = CubicFit(0.0, 1.0, 0.0, 0.0)
    assert fit_is_monotone(up, 0.0, 10.0)
    humped = CubicFit(0.0, 0.0, 1.0, -0.1)  # derivative 2x - 0.3x^2 changes sign at ~6.7
    assert not fit_is_monotone(humped, 0.0, 10.0)
    assert fit_is_monotone(humped, 0.0, 5.0)  # extremum outside the range
    flat = CubicFit(3.0, 0.0, 0.0, 0.0)
    assert fit_is_monotone(flat, 0.0, 1.0)
    down = CubicFit(5.0, -0.5, 0.0, 0.0)
    assert fit_is_monotone(down, -3.0, 3.0)
    # the same hump in t = (x - 10) / 2: extrema at x = 10 and x = 10 + 2 * 6.7
    shifted = CubicFit(0.0, 0.0, 1.0, -0.1, center=10.0, scale=2.0)
    assert fit_is_monotone(shifted, 10.0, 20.0)
    assert not fit_is_monotone(shifted, 12.0, 30.0)
    assert not fit_is_monotone(shifted, 5.0, 15.0)


# ------------------------------------------------------- correlation measures


def test_plcc_exact_on_linear_data():
    x = np.linspace(20.0, 60.0, 15)
    assert plcc(x, 0.08 * x + 1.0) == 1.0
    short = np.arange(1.0, 6.0)
    assert plcc(short, -4.0 * short + 30.0) == -1.0
    # exactness is a property of the rounding, not of linearity in general
    wide = np.arange(1.0, 11.0)
    assert plcc(wide, 3.0 * wide + 2.0) == pytest.approx(1.0, abs=1e-15)


def test_srocc_exact_on_monotone_transforms():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    assert srocc(x, np.exp(x)) == 1.0
    assert srocc(x, -(x**3)) == -1.0


def test_srocc_tie_handling_matches_hand_computed_average_ranks():
    # x ranks with the tie averaged: [1, 2.5, 2.5, 4, 5]; Pearson of the rank
    # vectors is 0.95 / sqrt(0.95) = sqrt(0.95)
    x = [1.0, 2.0, 2.0, 3.0, 4.0]
    y = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert srocc(x, y) == math.sqrt(0.95)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _scipy_srocc(x, y) -> float:
    """srocc computed with scipy: the exact rank-difference form on
    ``rankdata`` ranks when neither input has ties, ``spearmanr`` otherwise."""
    from scipy import stats

    rx, ry = stats.rankdata(x), stats.rankdata(y)
    if np.unique(x).size == x.size and np.unique(y).size == y.size:
        d = rx - ry
        n = len(x)
        return float(1.0 - 6.0 * float(d @ d) / (n * (n * n - 1.0)))
    return float(stats.spearmanr(x, y).statistic)


def _correlation_cases():
    """(label, x, y, which inputs hold ties) for the scipy comparison."""
    # two points whose centred, normalised dot product is 0.9999999999999999
    # before scipy's n == 2 rounding
    two_x = np.array([20.628651105466968, 19.33947568354349])
    two_y = np.array([23.20211325221641, 20.5245005857652])
    yield "two-points", two_x, two_y, ""
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 56, 1000):
        x = rng.normal(20.0, 5.0, n)
        noise = rng.normal(0.0, 3.0, n)
        yield f"random-{n}", x, 0.5 * x + noise, ""
        yield f"negative-{n}", x, -2.0 * x + noise, ""
    for n in (5, 56, 1000):
        x = rng.normal(20.0, 5.0, n)
        y = 0.5 * x + rng.normal(0.0, 3.0, n)
        tied_x, tied_y = np.floor(x / 4.0), np.floor(y / 4.0)
        yield f"ties-x-{n}", tied_x, y, "x"
        yield f"ties-y-{n}", x, tied_y, "y"
        yield f"ties-both-{n}", tied_x, tied_y, "xy"


@pytest.mark.parametrize("label, x, y, ties", list(_correlation_cases()))
def test_plcc_and_srocc_match_scipy_bit_for_bit(label, x, y, ties):
    from scipy import stats

    assert (np.unique(x).size < x.size) == ("x" in ties), label
    assert (np.unique(y).size < y.size) == ("y" in ties), label
    assert _bits(plcc(x, y)) == _bits(stats.pearsonr(x, y).statistic)
    assert _bits(srocc(x, y)) == _bits(_scipy_srocc(x, y))
    if ties:
        assert _bits(srocc(x, y)) == _bits(stats.spearmanr(x, y).statistic)


def test_correlations_propagate_nan_like_scipy():
    assert math.isnan(plcc([1.0, math.nan, 3.0], [1.0, 2.0, 4.0]))
    assert math.isnan(srocc([1.0, math.nan, 3.0], [1.0, 2.0, 4.0]))


def test_correlation_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        plcc([1.0], [1.0])
    with pytest.raises(ValueError, match="constant"):
        plcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="constant"):
        srocc([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    with pytest.raises(ValueError, match="equal length"):
        srocc([1.0, 2.0], [1.0])


@pytest.mark.parametrize("x, y, message", [
    ([1.0, 2.0, 3.0], [1.0, 2.0], "inputs must be 1-D sequences of equal length"),
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 5.0]], "inputs must be 1-D sequences of equal length"),
    ([1.0], [2.0], "correlation needs at least 2 samples"),
    ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "{}correlation undefined for a constant sequence"),
])
@pytest.mark.parametrize("correlate, name", [(plcc, ""), (srocc, "rank ")])
def test_plcc_and_srocc_check_their_samples_alike(correlate, name, x, y, message):
    with pytest.raises(ValueError, match=f"^{message.format(name)}$"):
        correlate(x, y)


# --------------------------------------------------------------- the manifest


def write_manifest(path, rows, header="stimulus_id,group,reference,degraded,mos"):
    text = header + "\n" + "\n".join(rows) + ("\n" if rows else "")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" writes byte 0xff


def test_read_manifest_resolves_paths_and_parses_mos(tmp_path):
    write_manifest(tmp_path / "m.csv", ["s1,codecA,ref.ply,deg.ply,3.5"])
    records = read_manifest(tmp_path / "m.csv")
    assert len(records) == 1
    rec = records[0]
    assert rec.stimulus_id == "s1" and rec.group == "codecA" and rec.mos == 3.5
    assert rec.reference == str(tmp_path / "ref.ply")
    assert rec.degraded == str(tmp_path / "deg.ply")


def test_read_manifest_accepts_extra_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "stimulus_id,group,reference,degraded,mos,codec_rate\n"
        "s1,g,a.ply,b.ply,2.0,r01\n"
    )
    assert read_manifest(path)[0].mos == 2.0


@pytest.mark.parametrize(
    "rows,header,match",
    [
        (["s1,g,a.ply,b.ply,nan?"], None, "not a number"),
        (["s1,g,a.ply,b.ply,0.5"], None, "outside"),
        (["s1,g,a.ply,b.ply,2", "s1,g,a.ply,b.ply,3"], None, "duplicate stimulus_id"),
        ([",g,a.ply,b.ply,2"], None, "empty stimulus_id"),
        ([], None, "no stimuli"),
        (["s1,g,b.ply,2"], "stimulus_id,group,degraded,mos", "missing column"),
        (["s1,g,a.ply,b.ply,2", "s4,noise,ref.plyd4.ply,1.9"], None, "line 3: expected 5 fields, got 4"),
        (["", "s1,g,a.ply,b.ply,x"], None, "line 3: MOS 'x' is not a number"),
        (["s1,g,a.ply,b.ply,2", "s2,g,a.ply,b.ply,3\udcff"], None,
         r"manifest \S+m\.csv line 3: not UTF-8 \(byte 0xff at offset 78\)"),
        # the pooled report is named "All", so no group of the manifest may be
        (["s1,B,a.ply,b.ply,2", "s2, All ,a.ply,b.ply,3"], None, "line 3: group 'All' is reserved"),
        # an unquoted decimal comma: a long row is as wrong as a short one
        (["s1,g,a.ply,b.ply,3,5"], None, "line 2: expected 5 fields, got 6"),
        # a column named twice would be read from whichever copy comes last
        (["s1,g,a.ply,b.ply,2,4"], "stimulus_id,group,reference,degraded,mos,mos",
         "line 1: column 'mos' appears twice"),
        # StimulusRecord states the range; the manifest names the line
        (["s1,g,a.ply,b.ply,2", "s2,g,a.ply,c.ply,7"], None,
         r"manifest \S+m\.csv line 3: stimulus 's2': MOS 7\.0 outside"),
    ],
)
def test_read_manifest_rejects_bad_rows(tmp_path, rows, header, match):
    path = tmp_path / "m.csv"
    if header:
        write_manifest(path, rows, header=header)
    else:
        write_manifest(path, rows)
    with pytest.raises(ValueError, match=match):
        read_manifest(path)


def test_read_manifest_drops_a_leading_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with EF BB BF
    write_manifest(tmp_path / "plain.csv", ["s1,g,a.ply,b.ply,2", "s2,g,a.ply,c.ply,3"])
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    assert read_manifest(marked) == read_manifest(tmp_path / "plain.csv")


def test_stimulus_record_validates_mos_range():
    with pytest.raises(ValueError, match="MOS"):
        StimulusRecord("s", "g", "a", "b", 5.5)
    assert StimulusRecord("s", "g", "a", "b", 5.0).mos == 5.0


# ------------------------------------------------------------- variant specs


def test_variant_string_round_trip():
    expected = {
        "po2po:precision": (ErrorKind.PO2PO, PeakSpec.precision()),
        "po2pl:ld": (ErrorKind.PO2PL, PeakSpec.largest_diagonal()),
        "po2po:mnn": (ErrorKind.PO2PO, PeakSpec.intrinsic(ResolutionEstimator.MNN)),
        "po2pl:annk:5": (ErrorKind.PO2PL, PeakSpec.intrinsic(ResolutionEstimator.ANN_K, 5)),
        "po2pl:apdk:10:ra": (ErrorKind.PO2PL, PeakSpec.rendering(10, density_adaptive=True)),
        "po2po:ann:ra": (ErrorKind.PO2PO,
                         PeakSpec.intrinsic(ResolutionEstimator.ANN, density_adaptive=True)),
    }
    for text, variant in expected.items():
        assert variant_from_string(text) == variant


@pytest.mark.parametrize("k", [1, 10, 12])
def test_variant_to_string_is_read_back_by_variant_from_string(k):
    for variant in full_variant_matrix(k):
        assert variant_from_string(variant_to_string(variant)) == variant
    assert variant_to_string((ErrorKind.PO2PO, PeakSpec.precision())) == "po2po:precision"
    assert (variant_to_string((ErrorKind.PO2PL, PeakSpec.rendering(k, density_adaptive=True)))
            == f"po2pl:ra-apdk:{k}")


def test_variant_string_errors():
    for bad in ("po2po", "sideways:ld", "po2pl:diag", "po2pl:annk:x", "po2pl:annk:5:6:ra"):
        with pytest.raises(ValueError):
            variant_from_string(bad)


def test_full_variant_matrix_covers_both_error_kinds():
    matrix = full_variant_matrix()
    assert len(matrix) == 16
    kinds = {kind for kind, _ in matrix}
    assert kinds == {ErrorKind.PO2PO, ErrorKind.PO2PL}
    labels = {peak.label for _, peak in matrix}
    assert labels == {"precision", "ld", "mnn", "ann", "annk",
                      "ra-ann", "ra-annk", "ra-apdk"}


# ------------------------------------------------------------- pair scoring


def test_score_pair_equals_individual_psnr_calls(rng):
    ref = random_voxel_cloud(rng, n=260, bit_depth=6)
    deg = PointCloud(ref.points + rng.normal(0.0, 0.35, size=ref.points.shape))
    variants = full_variant_matrix(k=6)
    scores = score_pair(ref, deg, variants, normal_k=8)
    # the shared-correspondence fast path must match the one-at-a-time API
    # exactly, not approximately
    ref_n = estimate_normals(ref, k=8)
    deg_n = estimate_normals(deg, k=8)
    for (kind, peak), got in zip(variants, scores):
        want = psnr(ref_n, deg_n, kind, peak, normal_k=8).psnr_pooled
        assert got == want, (kind, peak.label)


def test_score_pair_min_pooling(rng):
    ref = random_voxel_cloud(rng, n=150, bit_depth=6)
    deg = PointCloud(ref.points[:-30] + 0.25)
    variants = [(ErrorKind.PO2PO, PeakSpec.precision())]
    hi = score_pair(ref, deg, variants)[0]
    lo = score_pair(ref, deg, variants, pooling="min")[0]
    assert lo < hi


# ------------------------------------------------------------- the benchmark


@pytest.fixture
def ladder(tmp_path, rng):
    """Two references, two groups, five severities each, MOS tracking severity."""
    paths = {}
    for name, bits in (("boxes", 6), ("shell", 6)):
        ref = random_voxel_cloud(rng, n=420, bit_depth=bits)
        p = tmp_path / f"{name}.ply"
        write_ply(ref, p)
        paths[name] = (ref, p)

    rows = []
    for name, (ref, _) in paths.items():
        for level, sigma in enumerate([0.2, 0.45, 0.9, 1.8, 3.6], start=1):
            deg = gaussian_jitter(ref, sigma, seed=level)
            dp = tmp_path / f"{name}_l{level}.ply"
            write_ply(deg, dp)
            rows.append(
                f"{name}-l{level},{name},{name}.ply,{name}_l{level}.ply,{5.5 - 0.9 * level}"
            )
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest


def test_run_benchmark_on_monotone_ladder(ladder):
    variants = [
        (ErrorKind.PO2PO, PeakSpec.precision()),
        (ErrorKind.PO2PL, PeakSpec.rendering(10, density_adaptive=True)),
    ]
    reports = run_benchmark(read_manifest(ladder), variants, normal_k=10)
    # per variant: two content groups plus the pooled set
    assert len(reports) == len(variants) * 3
    groups = [r.group for r in reports[:3]]
    assert groups == ["boxes", "shell", "All"]
    for r in reports:
        assert r.n == (10 if r.group == "All" else 5)
        assert r.excluded_infinite == 0
        if r.group == "All":
            # pooled scores mix two PSNR scales and repeated MOS values, so
            # rank agreement is high but not perfect by construction
            assert r.srocc > 0.9
        else:
            assert r.srocc == 1.0  # scores strictly track severity per ladder
        assert 0.8 < r.plcc <= 1.0
        assert len(r.predicted_mos) == r.n
        assert r.coefficients != ()


def test_benchmark_excludes_infinite_and_warns_on_small_groups(tmp_path, rng):
    ref = random_voxel_cloud(rng, n=300, bit_depth=6)
    write_ply(ref, tmp_path / "ref.ply")
    rows = []
    for level, sigma in enumerate([0.2, 0.4, 0.8, 1.6, 3.2], start=1):
        write_ply(gaussian_jitter(ref, sigma, seed=level), tmp_path / f"d{level}.ply")
        rows.append(f"s{level},main,ref.ply,d{level}.ply,{5.2 - 0.8 * level}")
    # a perfect copy: infinite quality, must be dropped from the fit
    rows.append("perfect,main,ref.ply,ref.ply,5.0")
    # a lone group with too few stimuli to fit
    rows.append("lonely,tiny,ref.ply,d1.ply,3.0")
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, rows)

    variants = [(ErrorKind.PO2PO, PeakSpec.precision())]
    with pytest.warns(RuntimeWarning, match="tiny"):
        reports = run_benchmark(read_manifest(manifest), variants)
    by_group = {r.group: r for r in reports}
    assert set(by_group) == {"main", "All"}
    assert by_group["main"].n == 5 and by_group["main"].excluded_infinite == 1
    assert by_group["All"].n == 6 and by_group["All"].excluded_infinite == 1
    assert "perfect" not in by_group["All"].stimulus_ids


def test_benchmark_skips_each_group_the_fit_or_a_correlation_rejects(tmp_path, rng):
    ref = random_voxel_cloud(rng, n=300, bit_depth=6)
    write_ply(ref, tmp_path / "ref.ply")
    rows = []
    for level, sigma in enumerate([0.2, 0.4, 0.8, 1.6, 3.2], start=1):
        write_ply(gaussian_jitter(ref, sigma, seed=level), tmp_path / f"d{level}.ply")
        rows.append(f"h{level},healthy,ref.ply,d{level}.ply,{5.2 - 0.8 * level}")
        # one shared degraded file: five equal scores, so no cubic spans them
        rows.append(f"f{level},flat,ref.ply,d1.ply,{5.2 - 0.8 * level}")
        # one MOS for five scores: no correlation with a constant exists
        rows.append(f"c{level},constant,ref.ply,d{level}.ply,3.0")
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, rows)

    with pytest.warns(RuntimeWarning) as caught:
        reports = run_benchmark(read_manifest(manifest), [(ErrorKind.PO2PO, PeakSpec.precision())])
    assert sorted(str(w.message) for w in caught) == [
        "group 'constant': po2po:precision: correlation undefined for a constant sequence; skipping",
        "group 'flat': po2po:precision: rank-deficient design: "
        "objective values do not span a 4-parameter fit; skipping",
    ]
    assert [(r.group, r.n) for r in reports] == [("healthy", 5), ("All", 15)]


def test_benchmark_fails_fast_on_missing_file(tmp_path, rng):
    ref = random_voxel_cloud(rng, n=120, bit_depth=6)
    write_ply(ref, tmp_path / "ref.ply")
    rows = [f"s{i},g,ref.ply,gone_{i}.ply,3.0" for i in range(5)]
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, rows)
    with pytest.raises(FileNotFoundError, match="stimulus 's0'"):
        run_benchmark(read_manifest(manifest), [(ErrorKind.PO2PO, PeakSpec.precision())])


def test_benchmark_requires_inputs(ladder):
    with pytest.raises(ValueError, match="manifest"):
        run_benchmark([], [(ErrorKind.PO2PO, PeakSpec.precision())])
    with pytest.raises(ValueError, match="variants"):
        run_benchmark(read_manifest(ladder), [])


def test_benchmark_bit_depth_override(ladder):
    variants = [(ErrorKind.PO2PO, PeakSpec.precision())]
    default = run_benchmark(read_manifest(ladder), variants)
    forced = run_benchmark(read_manifest(ladder), variants, bit_depth=10)
    # a deeper declared grid raises every PSNR by the same amount
    shift = 20.0 * math.log10(1023.0 / 63.0)
    for d, f in zip(default, forced):
        np.testing.assert_allclose(
            np.asarray(f.objective) - np.asarray(d.objective), shift, rtol=1e-12
        )


# ---------------------------------------------------------------- the reports


def test_report_files(tmp_path, ladder):
    variants = [(ErrorKind.PO2PL, PeakSpec.rendering(10, density_adaptive=True))]
    reports = run_benchmark(read_manifest(ladder), variants)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv(reports, csv_path)
    write_report_json(reports, json_path, config={"pooling": "max"})

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "error_kind", "peak_spec", "k", "n", "plcc", "srocc",
                       "monotone_fit", "beta1", "beta2", "beta3", "beta4", "center", "scale"]
    assert len(rows) == 1 + len(reports)
    assert rows[1][1] == "po2pl" and rows[1][2] == "ra-apdk" and rows[1][3] == "10"
    for cell in rows[1][5:7]:
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) <= 6

    payload = json.loads(json_path.read_text())
    assert payload["config"] == {"pooling": "max"}
    assert payload["reports"] == [json.loads(json.dumps(r.to_dict())) for r in reports]


def test_csv_uses_six_significant_digits(tmp_path):
    report = CorrelationReport(
        group="g", error_kind=ErrorKind.PO2PO, peak=PeakSpec.precision(), n=5,
        coefficients=CubicFit(1.2345678, -0.000123456789, 3.0, 4.0),
        stimulus_ids=("a", "b", "c", "d", "e"),
        objective=(1.0, 2.0, 3.0, 4.0, 5.0),
        mos=(1.0, 2.0, 3.0, 4.0, 5.0),
        predicted_mos=(1.0, 2.0, 3.0, 4.0, 5.0),
        plcc=0.98765432, srocc=-0.123456789, monotone_fit=True,
    )
    path = tmp_path / "r.csv"
    write_report_csv([report], path)
    line = path.read_text().splitlines()[1]
    assert "0.987654" in line and "-0.123457" in line
    assert "1.23457" in line and "-0.000123457" in line


def test_correlation_report_validates_shapes():
    with pytest.raises(ValueError, match="length n"):
        CorrelationReport(
            group="g", error_kind=ErrorKind.PO2PO, peak=PeakSpec.precision(), n=3,
            coefficients=CubicFit(0.0, 1.0, 0.0, 0.0), stimulus_ids=("a",), objective=(1.0,),
            mos=(1.0,), predicted_mos=(1.0,), plcc=0.5, srocc=0.5, monotone_fit=True,
        )
    for objective, mos in [((1.0,), (1.0, 2.0)), ((1.0, 2.0), (1.0, 2.0, 3.0))]:  # n=2
        with pytest.raises(ValueError, match="length n"):
            CorrelationReport(
                group="g", error_kind=ErrorKind.PO2PO, peak=PeakSpec.precision(), n=2,
                coefficients=CubicFit(0.0, 1.0, 0.0, 0.0), stimulus_ids=("a", "b"), objective=objective,
                mos=mos, predicted_mos=(1.0, 2.0), plcc=0.5, srocc=0.5, monotone_fit=True,
            )
    with pytest.raises(TypeError, match="CubicFit"):  # a bare tuple would drop center and scale
        CorrelationReport(
            group="g", error_kind=ErrorKind.PO2PO, peak=PeakSpec.precision(), n=1,
            coefficients=(0.0, 1.0, 0.0, 0.0), stimulus_ids=("a",), objective=(1.0,),
            mos=(1.0,), predicted_mos=(1.0,), plcc=0.5, srocc=0.5, monotone_fit=True,
        )
