"""End-to-end command-line checks, run through the real console entry point."""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from pcqa import (ErrorKind, PeakSpec, PointCloud, ResolutionEstimator, ann_k, apd_k, cli, psnr,
                  read_ply, resolution, run_benchmark, write_ply)
from pcqa.evaluation import read_manifest, variant_from_string
from shapes import integer_grid, random_voxel_cloud
from test_ply import NON_FINITE_NORMALS, UNDERFLOWING_NORMAL, ascii_ply


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "pcqa", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def pair(tmp_path, rng):
    ref = random_voxel_cloud(rng, n=350, bit_depth=6)
    deg = PointCloud(np.clip(ref.points + rng.normal(0.0, 0.5, ref.points.shape), 0, 63))
    ref_path, deg_path = tmp_path / "ref.ply", tmp_path / "deg.ply"
    write_ply(ref, ref_path)
    write_ply(deg, deg_path)
    return ref_path, deg_path


def test_compare_default_metric_is_density_adaptive_rendering_po2pl(pair):
    ref, deg = pair
    proc = run_cli("compare", "--ref", ref, "--deg", deg)
    assert proc.returncode == 0, proc.stderr
    assert "metric:    po2pl / ra-apdk (k=10)" in proc.stdout
    assert "result:" in proc.stdout


def test_compare_jsonl_round_trips_to_the_library_result(pair):
    ref, deg = pair
    proc = run_cli("compare", "--ref", ref, "--deg", deg, "--error", "po2po",
                   "--peak", "precision", "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    direct = psnr(read_ply(ref).with_bit_depth(6), read_ply(deg),
                  ErrorKind.PO2PO, PeakSpec.precision())
    assert record == json.loads(json.dumps(direct.to_dict()))


DAMAGED = {
    **NON_FINITE_NORMALS,
    "normal-1e-160": UNDERFLOWING_NORMAL,
    "vertex-count-1e11": ascii_ply(["0 0 0", "1 0 0"], count=10**11),
}


@pytest.mark.parametrize("name", sorted(DAMAGED))
def test_damaged_ply_exits_4_with_one_error_line(tmp_path, name):
    path = tmp_path / "damaged.ply"
    path.write_bytes(DAMAGED[name])
    proc = run_cli("resolution", "--ref", path)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(f"pcqa: error[parse]: {path}: ")


def test_compare_parse_error_names_the_file(tmp_path, pair):
    ref, _ = pair
    bad = tmp_path / "bad.ply"
    bad.write_bytes(ascii_ply(["0 0 0", "1 x 0"]))
    proc = run_cli("compare", "--ref", ref, "--deg", bad)
    assert proc.returncode == 4
    assert proc.stderr == f"pcqa: error[parse]: {bad}: non-numeric value 'x' in vertex 1 (line 9)\n"


def test_compare_self_is_infinite_quality_and_exit_zero(pair):
    ref, _ = pair
    proc = run_cli("compare", "--ref", ref, "--deg", ref, "--format", "jsonl",
                   "--error", "po2po", "--peak", "precision")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["infinite_quality"] is True and record["psnr_db"] is None


def test_compare_flag_validation_runs_before_compute(tmp_path):
    # negative coordinates: precision peak needs an explicit --bitdepth
    cloud = PointCloud([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    path = tmp_path / "neg.ply"
    write_ply(cloud, path)
    proc = run_cli("compare", "--ref", path, "--deg", path, "--peak", "precision",
                   "--error", "po2po")
    assert proc.returncode == 2
    assert "error[usage]" in proc.stderr and "--bitdepth" in proc.stderr


def test_compare_invalid_flag_combination(pair):
    ref, deg = pair
    proc = run_cli("compare", "--ref", ref, "--deg", deg, "--peak", "precision", "--ra")
    assert proc.returncode == 2
    assert "error[usage]" in proc.stderr


def test_exit_code_for_missing_file(tmp_path):
    proc = run_cli("compare", "--ref", tmp_path / "nope.ply", "--deg", tmp_path / "nada.ply")
    assert proc.returncode == 3
    assert "error[not-found]" in proc.stderr


def test_exit_code_for_parse_failure(tmp_path, pair):
    _, deg = pair
    bad = tmp_path / "bad.ply"
    bad.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                    b"property float y\nproperty float z\nend_header\n0 0 0\n")
    proc = run_cli("compare", "--ref", bad, "--deg", deg)
    assert proc.returncode == 4
    assert "error[parse]" in proc.stderr


def test_exit_code_for_zero_peak(tmp_path):
    single = tmp_path / "single.ply"
    write_ply(PointCloud([[1.0, 1.0, 1.0]]), single)
    proc = run_cli("compare", "--ref", single, "--deg", single, "--peak", "ld",
                   "--error", "po2po")
    assert proc.returncode == 5
    assert "error[zero-peak]" in proc.stderr


def test_exit_code_for_invalid_data(tmp_path):
    # k larger than the cloud allows
    tiny = tmp_path / "tiny.ply"
    write_ply(PointCloud(np.eye(3)), tiny)
    proc = run_cli("resolution", "--ref", tiny, "--peak", "annk", "--k", "10")
    assert proc.returncode == 6
    assert "error[invalid-data]" in proc.stderr


def test_usage_error_from_argparse(pair):
    ref, deg = pair
    proc = run_cli("compare", "--ref", ref, "--deg", deg, "--peak", "sphere")
    assert proc.returncode == 2


def test_resolution_grid_value_and_provenance(tmp_path):
    grid_path = tmp_path / "grid.ply"
    write_ply(integer_grid(4, bit_depth=2), grid_path)
    proc = run_cli("resolution", "--ref", grid_path, "--peak", "ann")
    assert proc.returncode == 0
    assert proc.stdout == "ann = 1.000000000\n"

    proc = run_cli("resolution", "--ref", grid_path, "--peak", "apdk", "--k", "4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("apdk(k=4) = ")
    assert "[normals: estimated, normal-k=10]" in proc.stdout


def test_resolution_ordering_mnn_vs_ann(pair):
    ref, _ = pair
    values = {}
    for est in ("mnn", "ann"):
        proc = run_cli("resolution", "--ref", ref, "--peak", est)
        assert proc.returncode == 0
        values[est] = float(proc.stdout.split("=")[1].split()[0])
    assert values["mnn"] >= values["ann"]


def test_degrade_gaussian_determinism(tmp_path, pair):
    ref, _ = pair
    out1, out2 = tmp_path / "a.ply", tmp_path / "b.ply"
    for out in (out1, out2):
        proc = run_cli("degrade", "--ref", ref, "--gaussian", "0.8", "--seed", "11",
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    other = tmp_path / "c.ply"
    run_cli("degrade", "--ref", ref, "--gaussian", "0.8", "--seed", "12", "--out", other)
    assert out1.read_bytes() != other.read_bytes()


def test_degrade_octree_identity_on_coarse_grid(tmp_path):
    src = tmp_path / "even.ply"
    even = integer_grid(4, spacing=2.0, bit_depth=3)
    write_ply(even, src)
    out = tmp_path / "out.ply"
    proc = run_cli("degrade", "--ref", src, "--octree-quantize", "1", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert np.array_equal(read_ply(out).points, even.points)


def test_degrade_parameter_validation(tmp_path, pair):
    ref, _ = pair
    out = tmp_path / "x.ply"
    proc = run_cli("degrade", "--ref", ref, "--gaussian", "0", "--out", out)
    assert proc.returncode == 2 and "error[usage]" in proc.stderr
    proc = run_cli("degrade", "--ref", ref, "--octree-quantize", "0", "--out", out)
    assert proc.returncode == 2
    proc = run_cli("degrade", "--ref", ref, "--octree-quantize", "9", "--out", out)
    assert proc.returncode == 6  # depends on the data's bit depth: invalid data
    proc = run_cli("degrade", "--ref", ref, "--gaussian", "1", "--octree-quantize", "1",
                   "--out", out)
    assert proc.returncode == 2  # mutually exclusive


@pytest.fixture
def manifest(tmp_path, rng):
    ref = random_voxel_cloud(rng, n=300, bit_depth=6)
    write_ply(ref, tmp_path / "ref.ply")
    rows = ["stimulus_id,group,reference,degraded,mos"]
    for level, sigma in enumerate([0.25, 0.5, 1.0, 2.0, 4.0], start=1):
        deg_path = tmp_path / f"d{level}.ply"
        run_cli("degrade", "--ref", tmp_path / "ref.ply", "--gaussian", sigma,
                "--seed", level, "--out", deg_path)
        rows.append(f"s{level},noise,ref.ply,d{level}.ply,{5.5 - 0.9 * level}")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_benchmark_end_to_end(tmp_path, manifest):
    out_dir = tmp_path / "reports"
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:precision",
                   "--metric", "po2pl:apdk:10:ra", "--out", out_dir)
    assert proc.returncode == 0, proc.stderr
    assert "reports written" in proc.stdout
    csv_text = (out_dir / "report.csv").read_text()
    header, *rows = csv_text.splitlines()
    assert header == ("group,error_kind,peak_spec,k,n,plcc,srocc,monotone_fit,"
                      "beta1,beta2,beta3,beta4")
    assert len(rows) == 4  # 2 variants x (noise, All)
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["config"]["stimuli"] == 5
    assert len(payload["reports"]) == 4
    # a clean ladder ranks perfectly
    assert all(r["srocc"] == 1.0 for r in payload["reports"])


def test_benchmark_jsonl_output(tmp_path, manifest):
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:ld",
                   "--out", tmp_path / "r", "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["group"] for r in lines] == ["noise", "All"]
    direct = run_benchmark(read_manifest(manifest), [variant_from_string("po2po:ld")])
    assert lines == [json.loads(json.dumps(r.to_dict())) for r in direct]
    assert lines[0]["peak"] == "ld" and lines[0]["n"] == 5


def test_benchmark_default_metric_set_is_the_full_matrix(tmp_path, manifest):
    out_dir = tmp_path / "r"
    proc = run_cli("benchmark", "--manifest", manifest, "--out", out_dir)
    assert proc.returncode == 0, proc.stderr
    rows = (out_dir / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 16 * 2


def test_benchmark_empty_metric_is_usage_error(tmp_path, manifest):
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "", "--out", tmp_path / "r")
    assert proc.returncode == 2
    assert "error[usage]" in proc.stderr


def test_benchmark_missing_stimulus_file_names_it(tmp_path, manifest):
    text = manifest.read_text().replace("d3.ply", "vanished.ply")
    manifest.write_text(text)
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:precision",
                   "--out", tmp_path / "r")
    assert proc.returncode == 3
    assert "s3" in proc.stderr and "error[not-found]" in proc.stderr


def test_benchmark_damaged_stimulus_names_it(tmp_path, manifest):
    bad = tmp_path / "d3.ply"
    bad.write_bytes(ascii_ply(["0 0 0", "1 x 0"]))
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:precision",
                   "--out", tmp_path / "r")
    assert proc.returncode == 4
    assert proc.stderr == (f"pcqa: error[parse]: stimulus 's3': {bad}: "
                           "non-numeric value 'x' in vertex 1 (line 9)\n")


def test_unknown_bit_depth_is_a_usage_error_naming_the_reference(tmp_path):
    neg = tmp_path / "neg.ply"
    write_ply(PointCloud([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), neg)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("stimulus_id,group,reference,degraded,mos\n"
                        + "".join(f"s{i},g,neg.ply,neg.ply,3\n" for i in range(5)))
    expected = (f"pcqa: error[usage]: --bitdepth required: {neg}: "
                "cannot infer bit depth: negative coordinate present\n")
    compare = run_cli("compare", "--ref", neg, "--deg", neg, "--error", "po2po", "--peak", "precision")
    benchmark = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:precision",
                        "--out", tmp_path / "r")
    degrade = run_cli("degrade", "--ref", neg, "--octree-quantize", 1, "--out", tmp_path / "o.ply")
    for proc in (compare, benchmark, degrade):
        assert proc.returncode == 2
        assert proc.stderr == expected
    assert not (tmp_path / "o.ply").exists()


def test_benchmark_manifest_schema_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,group,reference,degraded,mos\na,b,c,d,3\n")
    proc = run_cli("benchmark", "--manifest", bad, "--metric", "po2po:ld",
                   "--out", tmp_path / "r")
    assert proc.returncode == 4
    assert "error[parse]" in proc.stderr


def test_short_manifest_row_is_a_parse_error_naming_its_line(tmp_path, manifest):
    manifest.write_text(manifest.read_text().replace("ref.ply,d4.ply", "ref.plyd4.ply"))
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:ld",
                   "--out", tmp_path / "r")
    assert proc.returncode == 4
    assert proc.stderr == f"pcqa: error[parse]: manifest {manifest} line 5: expected 5 fields, got 4\n"


def test_a_directory_in_place_of_a_file_is_not_found(tmp_path, pair, manifest):
    _, deg = pair
    folder = tmp_path / "folder"
    folder.mkdir()
    compare = run_cli("compare", "--ref", folder, "--deg", deg)
    as_manifest = run_cli("benchmark", "--manifest", folder, "--out", tmp_path / "r")
    manifest.write_text(manifest.read_text().replace("d3.ply", "folder"))
    in_manifest = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:ld",
                          "--out", tmp_path / "r")
    for proc in (compare, as_manifest, in_manifest):
        assert proc.returncode == 3
        assert proc.stderr.startswith("pcqa: error[not-found]: ") and proc.stderr.count("\n") == 1
        assert str(folder) in proc.stderr
    assert "stimulus 's3'" in in_manifest.stderr


def test_a_file_in_place_of_the_out_directory_is_not_found_before_scoring(tmp_path, manifest):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    (tmp_path / "d3.ply").unlink()  # scoring would fail on s3 first
    proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:ld", "--out", taken)
    assert proc.returncode == 3
    assert proc.stderr == f"pcqa: error[not-found]: [Errno 20] Not a directory: '{taken}'\n"
    assert taken.read_text() == "keep"


def test_a_bit_depth_below_the_coordinates_names_the_file_and_flag(tmp_path, pair, manifest):
    ref, deg = pair
    outside = "--bitdepth 3: coordinates outside [0, 2**3 - 1] for the declared bit depth"
    compare = run_cli("compare", "--ref", ref, "--deg", deg, "--bitdepth", 3)
    degrade = run_cli("degrade", "--ref", ref, "--octree-quantize", 1, "--bitdepth", 3,
                      "--out", tmp_path / "o.ply")
    benchmark = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:precision",
                        "--bitdepth", 3, "--out", tmp_path / "r")
    # a depth is applied and checked when given, also where no peak reads it
    jitter = run_cli("degrade", "--ref", ref, "--gaussian", 1, "--bitdepth", 3,
                     "--out", tmp_path / "g.ply")
    diagonal = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:ld",
                       "--bitdepth", 3, "--out", tmp_path / "r")
    for proc, path in ((compare, ref), (degrade, ref), (benchmark, tmp_path / "ref.ply"),
                       (jitter, ref), (diagonal, tmp_path / "ref.ply")):
        assert proc.returncode == 6
        assert proc.stderr == f"pcqa: error[invalid-data]: {path}: {outside}\n"
    assert not (tmp_path / "g.ply").exists()


def test_invalid_data_in_a_ply_names_the_file(tmp_path, manifest):
    bad = tmp_path / "d3.ply"
    bad.write_bytes(ascii_ply(["0 0 0", "1 1e400 0"]))
    alone = run_cli("resolution", "--ref", bad)
    in_manifest = run_cli("benchmark", "--manifest", manifest, "--metric", "po2po:ld",
                          "--out", tmp_path / "r")
    assert alone.returncode == in_manifest.returncode == 6
    assert alone.stderr == f"pcqa: error[invalid-data]: {bad}: coordinates must be finite\n"
    assert in_manifest.stderr == (f"pcqa: error[invalid-data]: stimulus 's3': {bad}: "
                                  "coordinates must be finite\n")


@pytest.fixture(scope="module")
def voxel_pair(tmp_path_factory):
    """A 6-bit reference, a shifted copy, and a manifest of five shifted copies."""
    root = tmp_path_factory.mktemp("voxel_pair")
    ref = random_voxel_cloud(np.random.default_rng(3), n=40, bit_depth=6)
    write_ply(ref, root / "ref.ply")
    write_ply(PointCloud(ref.points + 0.25), root / "deg.ply")
    rows = ["stimulus_id,group,reference,degraded,mos"]
    for i in range(1, 6):
        write_ply(PointCloud(ref.points + 0.1 * i), root / f"d{i}.ply")
        rows.append(f"s{i},g,ref.ply,d{i}.ply,{5 - 0.5 * i}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return root / "ref.ply", root / "deg.ply", root / "manifest.csv"


def run_main(*args) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(arg) for arg in args])
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.filterwarnings("default")  # the warning must be shown, not raised
def test_a_warning_is_one_pcqa_line_on_stderr(tmp_path):
    # 32 sites, each repeated 12 times: every normal's neighborhood is coincident
    path = tmp_path / "coincident.ply"
    write_ply(PointCloud(np.repeat(np.arange(96.0).reshape(32, 3), 12, axis=0)), path)
    code, out, err = run_main("resolution", "--ref", path, "--peak", "apdk")
    assert (code, out) == (0, "apdk(k=10) = 0.000000000  [normals: estimated, normal-k=10]\n")
    assert err == ("pcqa: warning: 384 of 384 points have degenerate (coincident) neighborhoods; "
                   "their normals were set to (0, 0, 1)\n")


D1_PRECISION = (["--error", "po2po", "--peak", "precision"], ["--metric", "po2po:precision"])
# reference points, compare flags and benchmark flags (none: the default
# metric, all), --bitdepth, and the exit code with its error category
EXIT_CASES = {
    "coincident-reference-zero-mnn": (np.ones((12, 3)), ["--error", "po2po", "--peak", "mnn"],
                                      ["--metric", "po2po:mnn"], None, 5, "zero-peak"),
    "outside-bitdepth": (integer_grid(4).points * 5, *D1_PRECISION, 3, 6, "invalid-data"),
    "three-points-default-k": (np.eye(3) * 4, [], [], None, 6, "invalid-data"),
    "bitdepth-1024": (integer_grid(4).points, *D1_PRECISION, 1024, 6, "invalid-data"),
    "1e308-inferred-precision": ([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 2.0, 1.0]], *D1_PRECISION,
                                 None, 2, "usage"),
}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_compare_and_benchmark_exit_with_the_same_code_and_one_line(tmp_path, case):
    points, compare_flags, benchmark_flags, bit_depth, code, category = EXIT_CASES[case]
    ref = tmp_path / "ref.ply"
    write_ply(PointCloud(points), ref)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("stimulus_id,group,reference,degraded,mos\n"
                        + "".join(f"s{i},g,ref.ply,ref.ply,{i}\n" for i in range(1, 6)))
    depth = [] if bit_depth is None else ["--bitdepth", bit_depth]
    compare = run_main("compare", "--ref", ref, "--deg", ref, *compare_flags, *depth)
    benchmark = run_main("benchmark", "--manifest", manifest, *benchmark_flags, *depth, "--out", tmp_path / "r")
    for got, out, err in (compare, benchmark):
        assert (got, out) == (code, "")
        assert err.startswith(f"pcqa: error[{category}]: ") and err.count("\n") == 1, err


def test_degrading_a_cloud_past_the_bit_depth_range_is_a_usage_error(tmp_path):
    ref = tmp_path / "ref.ply"
    write_ply(PointCloud([[0.0, 0.0, 0.0], [1e308, 1.0, 2.0]]), ref)
    code, out, err = run_main("degrade", "--ref", ref, "--octree-quantize", 1, "--out", tmp_path / "o.ply")
    assert (code, out) == (2, "")
    assert err == (f"pcqa: error[usage]: --bitdepth required: {ref}: cannot infer bit depth: "
                   "coordinate 1e+308 needs 1024 bits, more than 53\n")
    assert not (tmp_path / "o.ply").exists()


def test_degrade_errors_about_the_data_name_the_source(tmp_path):
    empty, seven_bit = tmp_path / "empty.ply", tmp_path / "seven.ply"
    empty.write_bytes(ascii_ply([]))
    write_ply(PointCloud([[0.0, 0.0, 0.0], [127.0, 1.0, 2.0]]), seven_bit)
    for ref, flags, message in (
        (empty, ("--gaussian", 1), "cannot degrade an empty cloud"),
        (seven_bit, ("--octree-quantize", 9), "bits_dropped must be in [1, 6] for a 7-bit cloud, got 9"),
    ):
        code, out, err = run_main("degrade", "--ref", ref, *flags, "--out", tmp_path / "o.ply")
        assert (code, out, err) == (6, "", f"pcqa: error[invalid-data]: {ref}: {message}\n")
    assert not (tmp_path / "o.ply").exists()


def test_degrade_checks_its_flags_before_reading_the_file(tmp_path):
    missing = tmp_path / "missing.ply"
    for flags in (("--gaussian", 0), ("--gaussian", "nan"), ("--gaussian", "inf"), ("--octree-quantize", 0)):
        code, out, err = run_main("degrade", "--ref", missing, *flags, "--out", tmp_path / "o.ply")
        assert (code, out) == (2, "")
        assert err.startswith("pcqa: error[usage]: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("k", [None, -1, 0, 1, 5])
@pytest.mark.parametrize("estimator", list(ResolutionEstimator), ids=lambda e: e.value)
def test_estimator_k_rule_is_the_same_at_every_entry_point(voxel_pair, estimator, k):
    """annk and apdk read k (10 when not given) and reject k < 1; mnn and ann ignore it."""
    ref, deg, manifest = voxel_pair
    cloud = read_ply(ref)
    reads_k = estimator in (ResolutionEstimator.ANN_K, ResolutionEstimator.APD_K)
    rejected = (f"estimator {estimator.value} needs k >= 1, got {k}"
                if reads_k and k is not None and k < 1 else None)

    def outcome(call):
        try:
            call()
        except ValueError as exc:
            return str(exc)
        return None

    calls = [lambda: PeakSpec.parse(estimator.value, k), lambda: resolution(cloud, estimator, k)]
    if reads_k:
        function = ann_k if estimator is ResolutionEstimator.ANN_K else apd_k
        calls.append(lambda: function(cloud) if k is None else function(cloud, k))
    assert [outcome(call) for call in calls] == [rejected] * len(calls)

    k_flag = () if k is None else ("--k", k)
    shown = run_main("resolution", "--ref", ref, "--peak", estimator.value, *k_flag)
    scored = run_main("compare", "--ref", ref, "--deg", deg, "--error", "po2po",
                      "--peak", estimator.value, *k_flag)
    out = manifest.parent / f"r-{estimator.value}-{k}"
    metric = f"po2po:{estimator.value}"
    benchmark = run_main("benchmark", "--manifest", manifest, "--metric", metric, *k_flag, "--out", out)
    for code, _, stderr in (shown, scored):
        assert (code, stderr) == ((2, f"pcqa: error[usage]: {rejected}\n") if rejected else (0, ""))
    # a spec without a k of its own reads --k; the error names the spec
    assert (benchmark[0], benchmark[2]) == (
        (2, f"pcqa: error[usage]: metric {metric!r}: {rejected}\n") if rejected else (0, ""))
    if not rejected:
        read = (10 if k is None else k) if reads_k else None
        label = estimator.value if read is None else f"{estimator.value}(k={read})"
        assert shown[1].startswith(f"{label} = {resolution(cloud, estimator, k):.9f}")
        reports = json.loads((out / "report.json").read_text())["reports"]
        assert [r["k"] for r in reports] == [read, read]  # group g, then All


def test_benchmark_rejects_a_bad_k_as_a_usage_error(tmp_path):
    # flags are checked before the manifest is read; a peak that reads no k
    # takes none in its spec, whatever --k says
    no_k = [(("--metric", f"{kind}:{peak}:{k}{ra}"),
             f"metric '{kind}:{peak}:{k}{ra}': peak {peak!r} reads no k, got '{k}'")
            for kind, peak, k, ra in (("po2po", "precision", 5, ""), ("po2pl", "ld", 3, ""),
                                      ("po2po", "mnn", 3, ""), ("po2pl", "ann", 4, ""),
                                      ("po2po", "ann", 4, ":ra"))]
    for metric, message in ((("--metric", "all"), "estimator annk needs k >= 1, got 0"),
                            (("--metric", "po2po:annk:0"),
                             "metric 'po2po:annk:0': estimator annk needs k >= 1, got 0"), *no_k):
        code, _, stderr = run_main("benchmark", "--manifest", tmp_path / "none.csv", *metric,
                                   "--k", "0", "--out", tmp_path / "r")
        assert (code, stderr) == (2, f"pcqa: error[usage]: {message}\n")


def test_every_command_is_byte_deterministic(tmp_path, pair, manifest):
    ref, deg = pair

    def stdout_of(*args):
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    compare_args = ("compare", "--ref", ref, "--deg", deg)
    assert stdout_of(*compare_args) == stdout_of(*compare_args)

    res_args = ("resolution", "--ref", ref, "--peak", "apdk")
    assert stdout_of(*res_args) == stdout_of(*res_args)

    for i, out_dir in enumerate((tmp_path / "r1", tmp_path / "r2")):
        proc = run_cli("benchmark", "--manifest", manifest, "--metric", "po2pl:apdk:10:ra",
                       "--out", out_dir)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "r1/report.csv").read_bytes() == (tmp_path / "r2/report.csv").read_bytes()
    assert (tmp_path / "r1/report.json").read_bytes() == (tmp_path / "r2/report.json").read_bytes()


def test_compare_out_file(tmp_path, pair):
    ref, deg = pair
    out = tmp_path / "result.jsonl"
    proc = run_cli("compare", "--ref", ref, "--deg", deg, "--format", "jsonl", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text())["error"] == "po2pl"


SCIPY_MODULES_AFTER = """
import sys
import pcqa
import pcqa.cli
try:
    pcqa.cli.main(sys.argv[1:])
except SystemExit:
    pass
print("scipy.stats" in sys.modules, "scipy.spatial" in sys.modules)
"""


def scipy_loaded_by(*args):
    """(scipy.stats loaded, scipy.spatial loaded) after ``import pcqa`` and
    one ``pcqa.cli.main(args)`` call in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_MODULES_AFTER, *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    stats, spatial = proc.stdout.splitlines()[-1].split()
    return stats == "True", spatial == "True"


def test_scipy_loads_only_when_a_tree_is_built(tmp_path, pair):
    ref, _ = pair
    assert scipy_loaded_by() == (False, False)
    assert scipy_loaded_by("--help") == (False, False)
    assert scipy_loaded_by("degrade", "--ref", ref, "--gaussian", 0.5,
                           "--out", tmp_path / "noisy.ply") == (False, False)
    assert scipy_loaded_by("resolution", "--ref", ref) == (False, True)


NUMPY_LOADED_AFTER = """
import sys
import pcqa
imported = "numpy" in sys.modules
code = None
if sys.argv[1:]:
    import pcqa.cli
    try:
        code = pcqa.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(imported, code, "numpy" in sys.modules)
"""


def numpy_loaded_by(*args) -> tuple[bool, int | None, bool]:
    """(numpy loaded after ``import pcqa``, the exit code of one
    ``pcqa.cli.main(args)`` call when args are given, numpy loaded after
    it) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_LOADED_AFTER, *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported, code, loaded = proc.stdout.splitlines()[-1].split()
    return imported == "True", None if code == "None" else int(code), loaded == "True"


def test_numpy_loads_only_when_a_command_runs():
    assert numpy_loaded_by() == (False, None, False)
    for command in ((), ("compare",), ("resolution",), ("degrade",), ("benchmark",)):
        assert numpy_loaded_by(*command, "--help") == (False, 0, False)
    assert numpy_loaded_by("compare", "--ref", "x") == (False, 2, False)  # an argparse error
    assert numpy_loaded_by("resolution", "--ref", "missing.ply") == (False, 3, True)


PACKAGE_NAMESPACE = """
import pcqa
listed = set(dir(pcqa)) >= set(pcqa.__all__)
try:
    pcqa.nope
except AttributeError as exc:
    unknown = str(exc)
namespace = {}
exec("from pcqa import *", namespace)
print(listed, [name for name in pcqa.__all__ if name not in namespace], repr(unknown))
"""


def test_the_lazy_namespace_binds_and_lists_every_export():
    proc = subprocess.run([sys.executable, "-c", PACKAGE_NAMESPACE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True [] \"module 'pcqa' has no attribute 'nope'\"\n"
