"""Byte mutations of small valid PLY files, single- and multi-element: the
reader either returns a valid cloud or raises PlyParseError/ValueError, lets
no warning out, and ``pcqa resolution`` maps every failure to one error line
and exit 4 or 6."""

import contextlib
import io
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from pcqa import PlyParseError, PointCloud, cli, read_ply, write_ply
from pcqa.ply import ASCII, BINARY_LE


def _seed_files() -> list[bytes]:
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.5]])
    normals = np.tile([0.0, 0.0, 1.0], (4, 1))
    files = []
    for cloud in (PointCloud(points), PointCloud(points, normals=normals)):
        for fmt in (ASCII, BINARY_LE):
            out = io.BytesIO()
            write_ply(cloud, out, format=fmt)
            files.append(out.getvalue())
    # ASCII bodies whose vertex rows follow or precede another element's rows
    vertex = b"element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
    face = b"element face 2\nproperty int a\nproperty int b\n"
    vertex_rows, face_rows = b"0 0 0\n1 0 0\n0 1 0.5\n", b"0 1\n1 2\n"
    head = b"ply\nformat ascii 1.0\n"
    files.append(head + vertex + face + b"end_header\n" + vertex_rows + face_rows)
    files.append(head + face + vertex + b"end_header\n" + face_rows + vertex_rows)
    return files


SEEDS = _seed_files()

edits = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in ops:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and op == "replace":
            buf[pos % len(buf)] = byte
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, len(SEEDS) - 1), edits)
def test_mutated_ply_parses_or_fails_cleanly(tmp_path_factory, seed, ops):
    data = mutate(SEEDS[seed], ops)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cloud = read_ply(data)
        except (PlyParseError, ValueError):
            pass
        else:
            assert isinstance(cloud, PointCloud)

        path = tmp_path_factory.getbasetemp() / "mutated.ply"
        path.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["resolution", "--ref", str(path)])
    assert code in (0, 4, 6)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("pcqa: error["), lines
    else:
        assert stderr.getvalue() == ""
