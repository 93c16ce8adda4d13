"""Byte mutations of a two-point ASCII cloud scored by ``pcqa compare``,
once as the reference against a fixed valid degraded cloud and once as the
degraded cloud against that valid cloud as reference: every mutation exits
with a documented code, and a failure prints exactly one error line."""

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
# the peak is read off the valid reference, so it is never zero
DEGRADED_EXIT_CODES = (0, 4, 6)

REFERENCE = ascii_ply(["0 0 0", "1 0 0"])
BODY = REFERENCE.index(b"end_header\n") + len(b"end_header\n")
SECOND = REFERENCE.index(b"1 0 0\n")
# the second point's x becomes 0: both points coincide and the diagonal is zero
COINCIDE = [("replace", SECOND, ord("0"))]
# the second point's x becomes 1e999, which reads as infinite
OVERFLOW = [("insert", SECOND + 1 + i, byte) for i, byte in enumerate(b"e999")]

# nearly every edit of any byte anywhere stops the parser; edits of the vertex
# rows in their own alphabet also reach the scorer, and so does a whole exponent
# token after a digit, which can make a coordinate overflow or underflow
byte_edit = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                      st.integers(BODY, len(REFERENCE) - 1), st.sampled_from(b"0123456789 .-e\n"))
AFTER_DIGITS = [i + 1 for i in range(BODY, len(REFERENCE)) if REFERENCE[i:i + 1].isdigit()]
exponent_insert = st.tuples(st.sampled_from(AFTER_DIGITS), st.sampled_from([b"e999", b"e-999"])).map(
    lambda at: [("insert", at[0] + i, byte) for i, byte in enumerate(at[1])])
body_edits = st.lists(st.one_of(byte_edit.map(lambda op: [op]), exponent_insert),
                      min_size=1, max_size=4).map(lambda groups: [op for group in groups for op in group])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    path = tmp_path_factory.mktemp("compare_fuzz") / "valid.ply"
    write_ply(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.5, 0.0, 0.25]]), path)
    return path


def run_compare_cli(valid, mutated: bytes, role: str = "--ref") -> tuple[int, str]:
    """Score ``mutated`` as the reference (``role="--ref"``) or as the
    degraded cloud (``"--deg"``), with ``valid`` in the other role."""
    path = valid.parent / "mutated.ply"
    path.write_bytes(mutated)
    other = "--deg" if role == "--ref" else "--ref"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["compare", role, str(path), other, str(valid), "--error", "po2po", "--peak", "ld"])
    return code, stderr.getvalue()


def assert_exit(got, stderr, code, category):
    errors = stderr.splitlines()
    assert got == code and len(errors) == (1 if category else 0), stderr
    assert all(line.startswith(f"pcqa: error[{category}]: ") for line in errors)


def assert_documented_exit(got, stderr, codes):
    assert got in codes
    errors = [line for line in stderr.splitlines() if line.startswith("pcqa: error[")]
    assert len(errors) == (1 if got else 0), stderr


@pytest.mark.parametrize("ops, code, category", [([], 0, None), (COINCIDE, 5, "zero-peak"),
                                                 (OVERFLOW, 6, "invalid-data")],
                         ids=["seed", "coincide", "overflow"])
def test_the_seed_scores_and_each_example_reaches_its_code(valid, ops, code, category):
    assert_exit(*run_compare_cli(valid, mutate(REFERENCE, ops)), code, category)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(edits, body_edits))
@example(COINCIDE)
@example(OVERFLOW)
def test_mutated_reference_exits_with_a_documented_code(valid, ops):
    assert_documented_exit(*run_compare_cli(valid, mutate(REFERENCE, ops)), EXIT_CODES)


# as the degraded cloud, two coincident points score like any other pair
@pytest.mark.parametrize("ops, code, category", [([], 0, None), (COINCIDE, 0, None),
                                                 (OVERFLOW, 6, "invalid-data")],
                         ids=["seed", "coincide", "overflow"])
def test_the_degraded_seed_and_each_example_reach_their_code(valid, ops, code, category):
    assert_exit(*run_compare_cli(valid, mutate(REFERENCE, ops), "--deg"), code, category)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(edits, body_edits))
@example(COINCIDE)
@example(OVERFLOW)
def test_mutated_degraded_cloud_exits_with_a_documented_code(valid, ops):
    assert_documented_exit(*run_compare_cli(valid, mutate(REFERENCE, ops), "--deg"), DEGRADED_EXIT_CODES)
