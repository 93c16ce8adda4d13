import io
import tracemalloc
import warnings

import numpy as np
import pytest

from pcqa import PlyParseError, PointCloud, read_ply, write_ply
from pcqa import ply
from pcqa.ply import ASCII, BINARY_LE


def ascii_ply(body_rows, props=("x", "y", "z"), count=None, extra_header=()):
    lines = ["ply", "format ascii 1.0"]
    lines.extend(extra_header)
    lines.append(f"element vertex {len(body_rows) if count is None else count}")
    lines.extend(f"property float {p}" for p in props)
    lines.append("end_header")
    lines.extend(body_rows)
    return ("\n".join(lines) + "\n").encode("ascii")


SIMPLE = ascii_ply(["0 0 0", "1 0 0", "0 1 0"])


def test_reads_ascii_from_bytes_path_and_stream(tmp_path):
    from_bytes = read_ply(SIMPLE)
    path = tmp_path / "tri.ply"
    path.write_bytes(SIMPLE)
    from_path = read_ply(path)
    from_stream = read_ply(io.BytesIO(SIMPLE))
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    for cloud in (from_bytes, from_path, from_stream):
        assert np.array_equal(cloud.points, expected)
        assert cloud.normals is None
        assert cloud.bit_depth is None


def test_normals_consumed_when_all_three_present():
    data = ascii_ply(
        ["0 0 0 0 0 1", "1 0 0 0 1 0"],
        props=("x", "y", "z", "nx", "ny", "nz"),
    )
    cloud = read_ply(data)
    assert np.array_equal(cloud.normals, [[0, 0, 1], [0, 1, 0]])


def test_partial_normal_columns_are_ignored():
    data = ascii_ply(["0 0 0 1", "1 0 0 1"], props=("x", "y", "z", "nx"))
    assert read_ply(data).normals is None


def test_file_normals_are_renormalized():
    data = ascii_ply(["0 0 0 0 0 2"], props=("x", "y", "z", "nx", "ny", "nz"))
    assert np.array_equal(read_ply(data).normals, [[0.0, 0.0, 1.0]])


NORMAL_PROPS = ("x", "y", "z", "nx", "ny", "nz")

# a length whose square underflows: renormalizing it would give a visibly non-unit normal
UNDERFLOWING_NORMAL = ascii_ply(["0 0 0 0 0 1", "1 0 0 1e-160 0 0"], props=NORMAL_PROPS)


def test_zero_length_normal_is_an_error():
    data = ascii_ply(["0 0 0 0 0 0"], props=("x", "y", "z", "nx", "ny", "nz"))
    with pytest.raises(PlyParseError, match="zero-length normal"):
        read_ply(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlyParseError, match="zero-length normal on vertex 1;"):
            read_ply(UNDERFLOWING_NORMAL)


def binary_float32_ply(rows, props=NORMAL_PROPS):
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(rows)}"]
    header += [f"property float {p}" for p in props] + ["end_header"]
    return ("\n".join(header) + "\n").encode("ascii") + np.array(rows, dtype="<f4").tobytes()


# one file per way a normal can have no length: past the float64 range, NaN,
# inf in float32, and finite components whose length overflows
NON_FINITE_NORMALS = {
    "ascii-1e400": ascii_ply(["0 0 0 0 0 1", "1 0 0 1e400 0 0"], props=NORMAL_PROPS),
    "ascii-nan": ascii_ply(["0 0 0 0 0 1", "1 0 0 nan 0 0"], props=NORMAL_PROPS),
    "binary-f32-inf": binary_float32_ply([[0, 0, 0, 0, 0, 1], [1, 0, 0, np.inf, 0, 0]]),
    "ascii-1e200-overflow": ascii_ply(["0 0 0 0 0 1", "1 0 0 1e200 1e200 0"], props=NORMAL_PROPS),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_NORMALS))
def test_non_finite_normal_is_a_parse_error_naming_the_vertex(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape the reader
        with pytest.raises(PlyParseError, match="non-finite-length normal on vertex 1;"):
            read_ply(NON_FINITE_NORMALS[name])


def test_extra_properties_and_elements_are_skipped():
    lines = [
        "ply",
        "format ascii 1.0",
        "comment colors and a face element, all ignored",
        "element vertex 2",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "element face 1",
        "property int a",
        "end_header",
        "1 2 3 255",
        "4 5 6 0",
        "7",
    ]
    cloud = read_ply(("\n".join(lines) + "\n").encode())
    assert np.array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_column_order_does_not_matter():
    data = ascii_ply(["9 1 2 3", "8 4 5 6"], props=("index", "z", "x", "y"))
    # index column first; x/y/z picked out by name
    cloud = read_ply(data.replace(b"property float index", b"property int index"))
    assert np.array_equal(cloud.points, [[2, 3, 1], [5, 6, 4]])


def test_binary_little_endian_round_trip(tmp_path):
    pts = np.array([[0.1, 1 / 3, -2.5], [1e-300, 16777216.1, 3.0]])
    normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    cloud = PointCloud(pts, normals=normals)
    path = tmp_path / "bin.ply"
    write_ply(cloud, path, format=BINARY_LE)
    back = read_ply(path)
    assert np.array_equal(back.points, pts)  # bit-exact
    assert np.array_equal(back.normals, normals)


def test_ascii_round_trip_is_exact(tmp_path):
    # repr() emits shortest round-trip decimals, so ASCII is lossless too
    pts = np.array([[0.1, 0.2, 0.30000000000000004], [-1e-17, 2**52 + 1.0, 5.5]])
    path = tmp_path / "ascii.ply"
    write_ply(PointCloud(pts), path, format=ASCII)
    assert b"format ascii 1.0" in path.read_bytes()
    assert np.array_equal(read_ply(path).points, pts)


def test_write_empty_cloud_round_trips(tmp_path):
    for fmt in (ASCII, BINARY_LE):
        path = tmp_path / f"empty-{fmt}.ply"
        write_ply(PointCloud(np.empty((0, 3))), path, format=fmt)
        assert len(read_ply(path)) == 0


def test_write_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_ply(PointCloud([[0.0, 0.0, 0.0]]), tmp_path / "x.ply", format="big-endian")


def test_a_rejected_format_leaves_an_existing_file_as_it_was(tmp_path):
    path = tmp_path / "keep.ply"
    write_ply(PointCloud([[1.0, 2.0, 3.0]]), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="format"):
        write_ply(PointCloud([[4.0, 5.0, 6.0]]), path, format="binary_big_endian")
    assert path.read_bytes() == before


def test_binary_vertices_parse_mixed_property_types():
    header = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element vertex 2\n"
        b"property double x\nproperty double y\nproperty double z\n"
        b"property uchar red\n"
        b"end_header\n"
    )
    row = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("red", "u1")])
    body = np.array([(1.5, 2.5, 3.5, 7), (4.0, 5.0, 6.0, 9)], dtype=row).tobytes()
    cloud = read_ply(header + body)
    assert np.array_equal(cloud.points, [[1.5, 2.5, 3.5], [4.0, 5.0, 6.0]])

    # coordinates of three types, converted exactly into float64
    header = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element vertex 3\n"
        b"property float x\nproperty int y\nproperty uchar z\n"
        b"property double nx\nproperty float ny\nproperty float nz\n"
        b"end_header\n"
    )
    row = np.dtype([("x", "<f4"), ("y", "<i4"), ("z", "u1"), ("nx", "<f8"), ("ny", "<f4"), ("nz", "<f4")])
    rows = np.array([(0.1, -2**31, 255, 1.0, 0.0, 0.0), (16777217.0, 2**31 - 1, 0, 0.0, 0.6, 0.8),
                     (-1e-30, 7, 9, 0.0, 0.0, 1.0)], dtype=row)
    cloud = read_ply(header + rows.tobytes())
    assert cloud.points.dtype == np.float64
    assert np.array_equal(cloud.points, np.column_stack([rows[name].astype(np.float64) for name in "xyz"]))


def test_binary_vertices_are_copied_once(tmp_path):
    cloud = PointCloud(np.random.default_rng(0).uniform(0.0, 1023.0, (100_000, 3)))
    path = tmp_path / "big.ply"
    write_ply(cloud, path, format=BINARY_LE)
    read_ply(path)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        back = read_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.points, cloud.points)
    # the body and one float64 copy of its rows, then those rows and the
    # cloud's own points: two copies at a time, where a second copy beside
    # the body makes three
    assert peak < 2.5 * cloud.points.nbytes


@pytest.mark.parametrize("fmt", [BINARY_LE, ASCII])
def test_the_cloud_keeps_the_array_the_reader_filled(tmp_path, monkeypatch, fmt):
    cloud = PointCloud(np.random.default_rng(0).uniform(0.0, 1023.0, (50_000, 3)))
    path = tmp_path / "big.ply"
    write_ply(cloud, path, format=fmt)
    read_ply(path)  # imports and caches outside the traced call
    marks = []

    def construct(*args, **kwargs):  # the peak from here on is what building the cloud adds
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])
        return PointCloud(*args, **kwargs)

    monkeypatch.setattr(ply, "PointCloud", construct)
    tracemalloc.start()
    try:
        back = read_ply(path)
        added = tracemalloc.get_traced_memory()[1] - marks[0]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.points, cloud.points)
    assert added < cloud.points.nbytes / 4  # a copy of the points would be four times this


@pytest.mark.parametrize(
    "mutate,match,line",
    [
        (lambda t: t.replace("ply", "npy", 1), "not a PLY file", 1),
        (lambda t: t.replace("format ascii 1.0", "format ascii 2.0"), "unsupported PLY format", 2),
        (lambda t: t.replace("format ascii 1.0", "fmt ascii 1.0"), "unknown header keyword", 2),
        (lambda t: t.replace("element vertex 3", "element vertex three"), "not an integer", 3),
        (lambda t: t.replace("element vertex 3", "element vertex -1"), "negative element count", 3),
        (lambda t: t.replace("property float y", "property list uchar int y"), "'list'", 5),
        (lambda t: t.replace("property float y", "property quad y"), "unsupported property type", 5),
        (lambda t: t.replace("property float y", "property float x"), "duplicate property", 5),
        (lambda t: t.replace("element vertex 3", "element vertex 0_3"), "'0_3' is not an integer", 3),
        (lambda t: t.replace("end_header", "element vertex 1\nend_header"), "duplicate element 'vertex'", 7),
    ],
)
def test_header_errors_carry_line_numbers(mutate, match, line):
    text = SIMPLE.decode()
    with pytest.raises(PlyParseError, match=match) as exc_info:
        read_ply(mutate(text).encode())
    assert exc_info.value.line == line


def test_duplicate_format_and_missing_format():
    text = SIMPLE.decode().replace("format ascii 1.0", "format ascii 1.0\nformat ascii 1.0")
    with pytest.raises(PlyParseError, match="duplicate format"):
        read_ply(text.encode())
    text = SIMPLE.decode().replace("format ascii 1.0\n", "")
    with pytest.raises(PlyParseError, match="no format line"):
        read_ply(text.encode())


def test_property_before_element_rejected():
    lines = ["ply", "format ascii 1.0", "property float x", "end_header"]
    with pytest.raises(PlyParseError, match="before any element"):
        read_ply("\n".join(lines).encode())


def test_missing_vertex_element_or_coordinates():
    lines = ["ply", "format ascii 1.0", "element face 0", "property int a", "end_header"]
    with pytest.raises(PlyParseError, match="no vertex element"):
        read_ply("\n".join(lines).encode())
    data = ascii_ply(["0 0", "1 0", "0 1"], props=("x", "y"))
    with pytest.raises(PlyParseError, match="missing required property z"):
        read_ply(data)


def test_header_truncation():
    with pytest.raises(PlyParseError, match="end of file inside header"):
        read_ply(b"ply\nformat ascii 1.0\n")


def test_ascii_body_errors_carry_line_numbers():
    short = ascii_ply(["0 0 0", "1 0 0"], count=3)
    with pytest.raises(PlyParseError, match="truncated body") as exc_info:
        read_ply(short)
    assert exc_info.value.line == 10  # 7 header lines, rows on 8-9, miss at 10

    bad_token = ascii_ply(["0 0 0", "1 zero 0", "0 1 0"])
    with pytest.raises(PlyParseError, match="non-numeric value 'zero'") as exc_info:
        read_ply(bad_token)
    assert exc_info.value.line == 9

    wrong_arity = ascii_ply(["0 0 0", "1 0", "0 1 0"])
    with pytest.raises(PlyParseError, match="expected 3 values") as exc_info:
        read_ply(wrong_arity)
    assert exc_info.value.line == 9


def test_header_vertex_count_allocates_nothing_before_the_rows_exist():
    data = ascii_ply(["0 0 0", "1 0 0"], count=20_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(PlyParseError, match=r"truncated body: missing vertex 2 \(line 10\)"):
            read_ply(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(PlyParseError, match=r"truncated body: missing vertex 2 \(line 10\)"):
        read_ply(ascii_ply(["0 0 0", "1 0 0"], count=10**11))


def test_binary_truncation_reports_byte_offset():
    header = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element vertex 2\n"
        b"property double x\nproperty double y\nproperty double z\n"
        b"end_header\n"
    )
    body = np.zeros((2, 3), dtype="<f8").tobytes()[:-8]  # one double short
    with pytest.raises(PlyParseError, match="truncated body") as exc_info:
        read_ply(header + body)
    assert exc_info.value.byte == 0  # vertex element starts at body offset 0
    assert "48 bytes" in str(exc_info.value)


def test_non_ascii_header_byte():
    with pytest.raises(PlyParseError, match="non-ASCII"):
        read_ply(b"ply\nform\xffat ascii 1.0\nend_header\n")


def test_blank_line_in_header_rejected():
    with pytest.raises(PlyParseError, match="blank line"):
        read_ply(b"ply\n\nformat ascii 1.0\nend_header\n")


def test_crlf_line_endings_accepted():
    data = SIMPLE.decode().replace("\n", "\r\n").encode()
    assert len(read_ply(data)) == 3


def test_parse_error_from_a_path_names_the_file(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(ascii_ply(["0 0 0", "1 zero 0"]))
    with pytest.raises(PlyParseError) as exc_info:
        read_ply(path)
    assert str(exc_info.value) == f"{path}: non-numeric value 'zero' in vertex 1 (line 9)"
    assert exc_info.value.line == 9


# --------------------------------------------- ASCII body: elements in file order

VERTEX_THEN_FACE = (
    b"ply\nformat ascii 1.0\nelement vertex 3\n"
    b"property float x\nproperty float y\nproperty float z\n"
    b"element face 2\nproperty int a\nproperty int b\nend_header\n"
    b"0.5 -0 1e-320\n\n1E3 +1.5 .5\n7 8 9\n0 1\n\n1 2\nextra lines are ignored\n"
)
FACE_PROPS = ("element face 2", "property int a", "property int b")
FACE_THEN_VERTEX = ascii_ply(
    ["0 1", "   ", "1 2", "0.5 -0 1e-320", "1E3 +1.5 .5", "", "7 8 9"], count=3, extra_header=FACE_PROPS
)


def per_value_oracle(data: bytes) -> np.ndarray:
    """The wanted vertex columns by one ``float()`` per value: the body's
    non-empty lines are the rows of each element in turn."""
    stream = io.BytesIO(data)
    _, elements, _ = ply._parse_header(stream)
    cols = ply._wanted_columns(ply._vertex_element(elements))
    rows = [line.split() for line in stream.read().decode("ascii").splitlines() if line.strip()]
    start = 0
    for element in elements:
        if element.name == "vertex":
            values = [[float(row[c]) for c in cols] for row in rows[start:start + element.count]]
            return np.array(values, dtype=np.float64).reshape(-1, len(cols))
        start += element.count


@pytest.mark.parametrize("block_rows", [2, ply._ASCII_BLOCK_ROWS])
@pytest.mark.parametrize(
    "data",
    [
        ascii_ply(["nan -0 1e-320", "1E3 +1.5 .5", "1e400 -1e400 0"]),
        SIMPLE.replace(b"\n", b"\r\n") + b"\r\n  \r\n",
        ascii_ply(
            ["0 0 1 7 1.25 2.5 -3.75 9", "0.6 0.8 0 8 1e-3 2e3 3 1", "1 0 0 9 -0 5e-324 7 2"],
            props=("nx", "ny", "nz", "label", "x", "y", "z", "weight"),
        ),
        VERTEX_THEN_FACE,
        FACE_THEN_VERTEX,
        ascii_ply(["0 0 1 1.25 2.5 -3.75", "0.6 0.8 0 1e-3 2e3 3", "1 0 0 -0 5e-324 7"],
                  props=("nx", "ny", "nz", "x", "y", "z")),
    ],
    ids=["special-tokens", "crlf-trailing-blank", "skipped-columns-normals-first",
         "vertex-then-face", "face-then-vertex", "every-column-normals-first"],
)
def test_block_parse_matches_the_per_line_parser_bit_for_bit(monkeypatch, data, block_rows):
    # the body parser itself: read_ply would reject the non-finite coordinates
    monkeypatch.setattr(ply, "_ASCII_BLOCK_ROWS", block_rows)
    stream = io.BytesIO(data)
    _, elements, header_lines = ply._parse_header(stream)
    cols = ply._wanted_columns(ply._vertex_element(elements))
    lines = stream.read().decode("ascii").splitlines()
    parsed = ply._ascii_vertices(lines, elements, header_lines, cols)
    expected = per_value_oracle(data)
    assert parsed.shape == expected.shape
    assert parsed.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_rows", [2, ply._ASCII_BLOCK_ROWS])
@pytest.mark.parametrize(
    "data,match,line",
    [
        # the value fault on vertex 1 comes before the width fault on vertex 2
        (ascii_ply(["0 0 0", "1 x 0", "1 0"]), "non-numeric value 'x' in vertex 1", 9),
        # the face element comes first in the body, so its bad row is reported
        (ascii_ply(["0 1", "1 2 3", "0 y 0", "1 0 0", "0 1 0"], count=3, extra_header=FACE_PROPS),
         "expected 2 values for face row 1, got 3", 12),
        (VERTEX_THEN_FACE.replace(b"\n\n1 2\nextra lines are ignored\n", b"\n"),
         "truncated body: missing face row 1", 16),
        (ascii_ply(["0 0 0 red", "1 0 0 green"], props=("x", "y", "z", "label")), None, None),
        # a digit separator, which float() would read as 10.0; in a skipped column it stays text
        (ascii_ply(["0 0 0 1_0", "1_0 0 0 2", "1 0"], props=("x", "y", "z", "label")),
         "non-numeric value '1_0' in vertex 1", 10),
        # lines end at "\n" only: a form feed ends no line, so the next lines keep their numbers
        (ascii_ply(["0 0 0\f", "1 0 0", "7 8 x"]), "non-numeric value 'x' in vertex 2", 10),
        # and a vertical tab or carriage return inside a row separates values, as C's isspace says
        (ascii_ply(["0\v0 0", "1 0\r0"]), None, None),
    ],
    ids=["value-before-width", "face-before-vertex", "missing-face-rows", "skipped-column-text",
         "digit-separator", "form-feed-ends-no-line", "inner-whitespace"],
)
def test_ascii_body_reports_the_first_fault_in_file_order(monkeypatch, data, match, line, block_rows):
    monkeypatch.setattr(ply, "_ASCII_BLOCK_ROWS", block_rows)
    if match is None:
        assert np.array_equal(read_ply(data).points, [[0, 0, 0], [1, 0, 0]])
        return
    with pytest.raises(PlyParseError, match=match) as exc_info:
        read_ply(data)
    assert exc_info.value.line == line


VERTEX_ROWS = ["0 0 0", "1 0 0", "0 1 0", "1 1 0", "0 0 1", "1 0 1"]


@pytest.mark.parametrize(
    "rows,message",
    [
        (VERTEX_ROWS[:1] + ["1 0"] + VERTEX_ROWS[2:], "expected 3 values for vertex 1, got 2 (line 9)"),
        (VERTEX_ROWS[:5] + ["1 0"], "expected 3 values for vertex 5, got 2 (line 13)"),
        # a second block one value too wide throughout: its rows agree with each other
        (VERTEX_ROWS[:4] + ["0 0 1 2", "1 0 1 2"], "expected 3 values for vertex 4, got 4 (line 12)"),
        (VERTEX_ROWS[:1] + ["1 x 0"] + VERTEX_ROWS[2:5] + ["1 0"], "non-numeric value 'x' in vertex 1 (line 9)"),
        # a blank line: rows and lines part ways
        (VERTEX_ROWS[:1] + [""] + VERTEX_ROWS[1:5] + ["1 0"], "expected 3 values for vertex 5, got 2 (line 14)"),
    ],
    ids=["short-row-in-first-block", "short-row-past-first-block", "wide-second-block",
         "value-before-width", "blank-line-then-short-row"],
)
def test_vertex_only_body_names_the_first_fault_in_any_block(monkeypatch, rows, message):
    # every column of the only element is read, so numpy checks the widths
    monkeypatch.setattr(ply, "_ASCII_BLOCK_ROWS", 4)
    with pytest.raises(PlyParseError) as exc_info:
        read_ply(ascii_ply(rows, count=6))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("block_rows", [100, ply._ASCII_BLOCK_ROWS])
def test_ascii_writer_matches_per_value_repr_bytes(monkeypatch, block_rows):
    monkeypatch.setattr(ply, "_ASCII_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(11)
    pts = rng.normal(0.0, 1e3, (257, 3))
    normals = rng.normal(size=(257, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(pts, normals=normals)
    out = io.BytesIO()
    write_ply(cloud, out, format=ASCII)
    header = (
        "ply\nformat ascii 1.0\nelement vertex 257\n"
        + "".join(f"property double {n}\n" for n in ("x", "y", "z", "nx", "ny", "nz"))
        + "end_header\n"
    )
    rows = np.column_stack([cloud.points, cloud.normals])
    body = "\n".join(" ".join(repr(float(v)) for v in row) for row in rows) + "\n"
    assert out.getvalue() == (header + body).encode("ascii")
