"""Byte mutations of a two-point ASCII reference scored by ``pcqa compare``
against a fixed valid degraded cloud: every mutation exits with a documented
code, and a failure prints exactly one error line."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pcqa import PointCloud, cli, write_ply
from test_ply import ascii_ply
from test_ply_fuzz import edits, mutate

# no flag of this call is wrong and no file is missing: what is left is a
# parse error (4), a zero peak (5) or invalid data (6)
EXIT_CODES = (0, 4, 5, 6)

REFERENCE = ascii_ply(["0 0 0", "1 0 0"])
BODY = REFERENCE.index(b"end_header\n") + len(b"end_header\n")
SECOND = REFERENCE.index(b"1 0 0\n")
# the second point's x becomes 0: both points coincide and the diagonal is zero
COINCIDE = [("replace", SECOND, ord("0"))]
# the second point's x becomes 1e999, which reads as infinite
OVERFLOW = [("insert", SECOND + 1 + i, byte) for i, byte in enumerate(b"e999")]

# nearly every edit of any byte anywhere stops the parser; edits of the vertex
# rows in their own alphabet also reach the scorer
body_edits = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(BODY, len(REFERENCE) - 1), st.sampled_from(b"0123456789 .-e\n")),
    min_size=1, max_size=4,
)


@pytest.fixture(scope="module")
def degraded(tmp_path_factory):
    path = tmp_path_factory.mktemp("compare_fuzz") / "deg.ply"
    write_ply(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.5, 0.0, 0.25]]), path)
    return path


def run_compare_cli(degraded, reference: bytes) -> tuple[int, str]:
    path = degraded.parent / "ref.ply"
    path.write_bytes(reference)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["compare", "--ref", str(path), "--deg", str(degraded),
                         "--error", "po2po", "--peak", "ld"])
    return code, stderr.getvalue()


@pytest.mark.parametrize("ops, code, category", [([], 0, None), (COINCIDE, 5, "zero-peak"),
                                                 (OVERFLOW, 6, "invalid-data")],
                         ids=["seed", "coincide", "overflow"])
def test_the_seed_scores_and_each_example_reaches_its_code(degraded, ops, code, category):
    got, stderr = run_compare_cli(degraded, mutate(REFERENCE, ops))
    errors = stderr.splitlines()
    assert got == code and len(errors) == (1 if category else 0), stderr
    assert all(line.startswith(f"pcqa: error[{category}]: ") for line in errors)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(edits, body_edits))
@example(COINCIDE)
@example(OVERFLOW)
def test_mutated_reference_exits_with_a_documented_code(degraded, ops):
    code, stderr = run_compare_cli(degraded, mutate(REFERENCE, ops))
    assert code in EXIT_CODES
    errors = [line for line in stderr.splitlines() if line.startswith("pcqa: error[")]
    assert len(errors) == (1 if code else 0), stderr
