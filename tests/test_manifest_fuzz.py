"""Byte mutations of a small valid benchmark manifest: ``pcqa benchmark``
returns a documented exit code for every one of them and never raises, and
a failure prints exactly one error line."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from pcqa import PointCloud, cli, write_ply
from test_ply_fuzz import edits, mutate

EXIT_CODES = (0, 2, 3, 4, 5, 6)  # cli's module docstring

MANIFEST = (
    "stimulus_id,group,reference,degraded,mos\n"
    + "".join(f"s{i},noise,ref.ply,d{i}.ply,{5.5 - 0.9 * i:.1f}\n" for i in range(1, 6))
).encode("ascii")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A directory with a 12-point voxel reference and five jittered copies."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    rng = np.random.default_rng(7)
    ref = np.unique(rng.integers(0, 16, (12, 3)), axis=0).astype(np.float64)
    write_ply(PointCloud(ref), root / "ref.ply")
    for i in range(1, 6):
        write_ply(PointCloud(ref + rng.normal(0.0, 0.3 * i, ref.shape)), root / f"d{i}.ply")
    return root


def run_benchmark_cli(study, manifest: bytes) -> tuple[int, str]:
    path = study / "manifest.csv"
    path.write_bytes(manifest)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["benchmark", "--manifest", str(path), "--metric", "po2po:ld",
                         "--out", str(study / "reports")])
    return code, stderr.getvalue()


def test_seed_manifest_scores(study):
    assert run_benchmark_cli(study, MANIFEST) == (0, "")


@pytest.mark.filterwarnings("ignore:group .* skipping:RuntimeWarning")
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits)
def test_mutated_manifest_exits_with_a_documented_code(study, ops):
    code, stderr = run_benchmark_cli(study, mutate(MANIFEST, ops))
    assert code in EXIT_CODES
    errors = [line for line in stderr.splitlines() if line.startswith("pcqa: error[")]
    assert len(errors) == (1 if code else 0), stderr
