"""PLY reader and writer for point clouds.

Supports ASCII and binary little-endian PLY files.  The vertex element must
carry numeric x, y, z properties; nx, ny, nz are consumed as normals when all
three are present.  Other properties and elements are skipped, though ASCII
rows are still width-checked: a parse error names the first faulty row in file
order, and the file when read from a path.  Only fixed-size scalar properties
(float, double, uchar, int and their float32/float64/uint8/int32 aliases) are
understood; list properties make an element unskippable and are rejected.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud

ASCII = "ascii"
BINARY_LE = "binary-le"

_FORMAT_LINES = {
    "ascii 1.0": ASCII,
    "binary_little_endian 1.0": BINARY_LE,
}

# PLY type name -> numpy dtype; little-endian for binary bodies
_SCALAR_TYPES = {
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
    "uchar": "u1",
    "uint8": "u1",
    "int": "<i4",
    "int32": "<i4",
}

_ASCII_BLOCK_ROWS = 1 << 16  # rows parsed or formatted per call


class PlyParseError(ValueError):
    """Malformed or unsupported PLY content, with the offending position.

    ``line`` is the 1-based header/ASCII line number; ``byte`` is the file
    offset for binary-body failures.  Whichever applies is embedded in the
    message as well.
    """

    def __init__(self, message: str, *, line: int | None = None, byte: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif byte is not None:
            where = f" (byte {byte})"
        super().__init__(message + where)
        self.line = line
        self.byte = byte


@dataclass
class _Property:
    name: str
    ply_type: str


@dataclass
class _Element:
    name: str
    count: int
    properties: list[_Property]
    line: int  # header line that declared the element


def _number(token: str, kind=float):
    """``kind(token)`` for a PLY number, which is C's (strtol, strtod): the
    digit separators that int() and float() accept ("1_000") are rejected."""
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    return kind(token)


def _read_header_line(stream, lineno: int) -> str:
    raw = stream.readline()
    if not raw:
        raise PlyParseError("unexpected end of file inside header", line=lineno)
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise PlyParseError(f"non-ASCII byte in header: {exc}", line=lineno) from None
    return text.rstrip("\r\n")


def _parse_header(stream) -> tuple[str, list[_Element], int]:
    """Parse the header; returns (format, elements, lines consumed)."""
    lineno = 1
    magic = _read_header_line(stream, lineno)
    if magic != "ply":
        raise PlyParseError(f"not a PLY file: first line is {magic!r}, expected 'ply'", line=1)

    fmt: str | None = None
    elements: list[_Element] = []
    while True:
        lineno += 1
        line = _read_header_line(stream, lineno)
        if line == "end_header":
            break
        tokens = line.split()
        if not tokens:
            raise PlyParseError("blank line inside header", line=lineno)
        keyword = tokens[0]
        if keyword == "format":
            if fmt is not None:
                raise PlyParseError("duplicate format line", line=lineno)
            spec = " ".join(tokens[1:])
            if spec not in _FORMAT_LINES:
                raise PlyParseError(f"unsupported PLY format {spec!r}", line=lineno)
            fmt = _FORMAT_LINES[spec]
        elif keyword in ("comment", "obj_info"):
            continue
        elif keyword == "element":
            if len(tokens) != 3:
                raise PlyParseError(f"malformed element line {line!r}", line=lineno)
            name = tokens[1]
            try:
                count = _number(tokens[2], int)
            except ValueError:
                raise PlyParseError(f"element count {tokens[2]!r} is not an integer", line=lineno) from None
            if count < 0:
                raise PlyParseError(f"negative element count {count}", line=lineno)
            if any(e.name == name for e in elements):
                raise PlyParseError(f"duplicate element {name!r}", line=lineno)
            elements.append(_Element(name, count, [], lineno))
        elif keyword == "property":
            if not elements:
                raise PlyParseError("property declared before any element", line=lineno)
            if len(tokens) >= 2 and tokens[1] == "list":
                raise PlyParseError(
                    f"unsupported property type 'list' for {tokens[-1]!r}", line=lineno
                )
            if len(tokens) != 3:
                raise PlyParseError(f"malformed property line {line!r}", line=lineno)
            ply_type, name = tokens[1], tokens[2]
            if ply_type not in _SCALAR_TYPES:
                raise PlyParseError(f"unsupported property type {ply_type!r}", line=lineno)
            if any(p.name == name for p in elements[-1].properties):
                raise PlyParseError(
                    f"duplicate property {name!r} in element {elements[-1].name!r}", line=lineno
                )
            elements[-1].properties.append(_Property(name, ply_type))
        else:
            raise PlyParseError(f"unknown header keyword {keyword!r}", line=lineno)

    if fmt is None:
        raise PlyParseError("header has no format line", line=lineno)
    return fmt, elements, lineno


def _vertex_element(elements: list[_Element]) -> _Element:
    for element in elements:
        if element.name == "vertex":
            return element
    raise PlyParseError("no vertex element in header")


def _wanted_columns(vertex: _Element) -> list[int]:
    """Property positions of x, y, z, then nx, ny, nz when all three exist."""
    index = {p.name: i for i, p in enumerate(vertex.properties)}
    missing = [c for c in ("x", "y", "z") if c not in index]
    if missing:
        raise PlyParseError(
            f"vertex element is missing required propert{'y' if len(missing) == 1 else 'ies'} "
            + ", ".join(missing),
            line=vertex.line,
        )
    names = ["x", "y", "z"]
    if all(c in index for c in ("nx", "ny", "nz")):
        names += ["nx", "ny", "nz"]
    return [index[name] for name in names]


def _renormalize(normals: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a length past the float64 range reads as inf
        norms = np.linalg.norm(normals, axis=1)
    # below sqrt(tiny) the sum of squares has underflowed and the length is inexact
    bad = ~(np.isfinite(norms) & (norms >= np.sqrt(np.finfo(np.float64).tiny)))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        what = "zero" if np.isfinite(norms[i]) else "non-finite"
        raise PlyParseError(f"{what}-length normal on vertex {i}; cannot renormalize")
    return normals / norms[:, None]


def _whole_rows(lines: list[str], count: int, cols) -> np.ndarray | None:
    """The ``cols`` of the first ``count`` lines, parsed by numpy one block at a
    time, when each of them holds exactly ``len(cols)`` numbers, else None.
    Without ``usecols`` numpy rejects a row whose width differs from its
    block's first row, and the block's shape shows a blank line or a first row
    of another width."""
    if len(lines) < count:
        return None
    data = np.empty((count, len(cols)), dtype=np.float64)
    for first in range(0, count, _ASCII_BLOCK_ROWS):
        block = lines[first:min(first + _ASCII_BLOCK_ROWS, count)]
        if not block[0].strip():  # numpy would warn on a block of blank lines
            return None
        try:
            rows = np.loadtxt(block, ndmin=2, comments=None)
        except ValueError:
            return None
        if rows.shape != (len(block), len(cols)):
            return None
        data[first:first + len(block)] = rows[:, cols]
    return data


def _ascii_vertices(lines: list[str], elements, header_lines: int, cols) -> np.ndarray:
    """The wanted vertex columns of an ASCII body, whose non-empty lines are the
    rows of each element in turn.  Vertex rows are parsed by numpy one block at
    a time, wanted columns only.  An error names the first faulty row in file order.
    When the vertex element is the only one and every column is read, numpy's
    own width check stands in for a count of every line's tokens, which is
    made only if numpy rejects the rows.
    """
    if len(elements) == 1 and len(cols) == len(elements[0].properties):
        data = _whole_rows(lines, elements[0].count, cols)
        if data is not None:
            return data
    widths = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
    row_lines = np.flatnonzero(widths)  # index into lines of each row
    start = 0  # first row of the current element
    for element in elements:
        ncols = len(element.properties)
        label = "vertex" if element.name == "vertex" else f"{element.name} row"
        stop = min(start + element.count, len(row_lines))  # a header count alone allocates nothing
        wrong = np.flatnonzero(widths[row_lines[start:stop]] != ncols)
        end = start + int(wrong[0]) if wrong.size else stop  # rows before the first bad width
        if element.name == "vertex":
            data = np.empty((end - start, len(cols)), dtype=np.float64)
            for first in range(start, end, _ASCII_BLOCK_ROWS):
                last = min(first + _ASCII_BLOCK_ROWS, end)
                block = lines[row_lines[first]:row_lines[last - 1] + 1]  # numpy skips its blank lines
                try:
                    data[first - start:last - start] = np.loadtxt(block, usecols=cols, ndmin=2, comments=None)
                except ValueError:  # find the first token rejected
                    for i, c in itertools.product(range(first, last), cols):
                        token = lines[row_lines[i]].split()[c]
                        try:
                            _number(token)
                        except ValueError:
                            raise PlyParseError(f"non-numeric value {token!r} in vertex {i - start}",
                                                line=header_lines + int(row_lines[i]) + 1) from None
                    raise
        if end < stop:
            raise PlyParseError(f"expected {ncols} values for {label} {end - start}, "
                                f"got {widths[row_lines[end]]}", line=header_lines + int(row_lines[end]) + 1)
        if stop < start + element.count:
            raise PlyParseError(f"truncated body: missing {label} {stop - start}",
                                line=header_lines + len(lines) + 1)
        start = stop
    return data


def _read_binary_body(stream, elements, cols) -> np.ndarray:
    body = stream.read()
    offset = 0
    for element in elements:
        dtype = np.dtype([(p.name, _SCALAR_TYPES[p.ply_type]) for p in element.properties])
        nbytes = dtype.itemsize * element.count
        if offset + nbytes > len(body):
            raise PlyParseError(
                f"truncated body: element {element.name!r} needs {nbytes} bytes, "
                f"{len(body) - offset} remain",
                byte=offset,
            )
        if element.name == "vertex":
            rows = np.frombuffer(body, dtype=dtype, count=element.count, offset=offset)
            data = np.empty((element.count, len(cols)))  # one copy, filled column by column
            for j, c in enumerate(cols):
                data[:, j] = rows[element.properties[c].name]
        offset += nbytes
    return data


def read_ply(source) -> PointCloud:
    """Read a point cloud from a PLY file.

    ``source`` may be a path, bytes, or a binary file object; a parse or
    data error from a path starts with it.  The returned cloud has
    ``bit_depth`` unset; callers supply or infer it.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            try:
                return read_ply(fh)
            except ValueError as exc:
                exc.args = (f"{os.fspath(source)}: {exc}",)  # a PlyParseError keeps .line and .byte
                raise
    if isinstance(source, (bytes, bytearray)):
        return read_ply(io.BytesIO(source))

    fmt, elements, header_lines = _parse_header(source)
    vertex = _vertex_element(elements)
    cols = _wanted_columns(vertex)  # validates x/y/z presence before touching the body

    if fmt == ASCII:
        # lines end at "\n" only; a carriage return is whitespace, as for C's isspace
        lines = source.read().decode("ascii", errors="replace").replace("\r", " ").split("\n")
        if not lines[-1]:  # the text after the last newline, or an empty body
            lines.pop()
        data = _ascii_vertices(lines, elements, header_lines, cols)
    else:
        data = _read_binary_body(source, elements, cols)
    data.setflags(write=False)  # a fresh array, so without normals the cloud keeps it uncopied
    normals = _renormalize(data[:, 3:]) if len(cols) == 6 else None
    return PointCloud(data[:, :3], normals=normals)


def write_ply(cloud: PointCloud, dest, format: str = BINARY_LE) -> None:
    """Write a point cloud as PLY with double-precision coordinates.

    Binary little-endian output round-trips coordinates bit-exactly; ASCII
    uses shortest round-trip decimal formatting, which is also exact for
    float64.  Normals are written when present; bit depth is not stored
    (PLY has no standard slot for it).
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "wb") as fh:
            write_ply(cloud, fh, format=format)
            return
    if format not in (ASCII, BINARY_LE):
        raise ValueError(f"format must be {ASCII!r} or {BINARY_LE!r}, got {format!r}")

    names = ["x", "y", "z"]
    columns = [cloud.points]
    if cloud.has_normals:
        names += ["nx", "ny", "nz"]
        columns.append(cloud.normals)
    data = np.column_stack(columns)

    header = ["ply"]
    header.append("format ascii 1.0" if format == ASCII else "format binary_little_endian 1.0")
    header.append(f"element vertex {len(cloud)}")
    header.extend(f"property double {name}" for name in names)
    header.append("end_header")
    dest.write(("\n".join(header) + "\n").encode("ascii"))

    if format == ASCII:
        row = " ".join(["%r"] * data.shape[1]) + "\n"
        for start in range(0, len(data), _ASCII_BLOCK_ROWS):
            block = data[start:start + _ASCII_BLOCK_ROWS]
            dest.write(((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii"))
    else:
        dest.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
