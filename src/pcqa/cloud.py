"""Point cloud container and coordinate bit-depth handling."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

UNIT_NORMAL_TOL = 1e-9
# Bit depths b for which 2**b - 1, and every integer coordinate up to it, is
# an exact float64: a precision peak, a grid and an inferred depth stay exact.
BIT_DEPTHS = range(1, 54)


def _check_bit_depth(bit_depth) -> int:
    """``bit_depth`` as an ``int`` if it equals one in ``BIT_DEPTHS`` (10.0 does; 10.7 and "10" do not)."""
    if bit_depth not in BIT_DEPTHS:
        raise ValueError(f"bit depth must be an integer in [{BIT_DEPTHS[0]}, {BIT_DEPTHS[-1]}], "
                         f"got {bit_depth}")
    return int(bit_depth)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float64 array: a view of it when it is a
    C-contiguous one that no writable array beneath it (its ``.base`` chain)
    can change, else a copy."""
    base = values
    while type(base) is np.ndarray and not base.flags.writeable:
        base = base.base
    if base is None and getattr(values, "dtype", None) == np.float64 and values.flags.c_contiguous:
        return values.view()  # a read-only flag of its own, which the owner cannot turn back on
    values = np.array(values, dtype=np.float64, copy=True)
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable set of 3D points with optional unit normals and bit depth.

    ``points`` is an (N, 3) float64 array kept in source units and source
    order.  ``normals``, when present, is an (N, 3) array of unit vectors.
    ``bit_depth`` declares that every coordinate lies on the integer grid
    [0, 2**bit_depth - 1] (voxelized content); it is None for free-range
    clouds.  Arrays are read-only, so clouds and threads share them: an input
    that is already a read-only float64 array is kept, not copied.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    bit_depth: int | None = None

    def __post_init__(self):
        points = _read_only(self.points)
        if points.ndim == 1 and points.size == 0:
            points = points.reshape(0, 3)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) array of coordinates, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "points", points)
        if self.normals is not None:
            normals = _read_only(self.normals)
            if normals.shape != self.points.shape:
                raise ValueError(
                    f"normals shape {normals.shape} does not match points shape {self.points.shape}"
                )
            if not np.isfinite(normals).all():
                raise ValueError("normals must be finite")
            with np.errstate(over="ignore"):  # an overflowing length reads as inf and fails below
                norms = np.linalg.norm(normals, axis=1)
            if not np.all(np.abs(norms - 1.0) <= UNIT_NORMAL_TOL):
                worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
                raise ValueError(f"normals must be unit length within {UNIT_NORMAL_TOL} (worst |err|={worst:g})")
            object.__setattr__(self, "normals", normals)
        if self.bit_depth is not None:
            b = _check_bit_depth(self.bit_depth)
            object.__setattr__(self, "bit_depth", b)
            if len(self) and (self.points.min() < 0.0 or self.points.max() > precision_peak(b)):
                raise ValueError(
                    f"coordinates outside [0, 2**{b} - 1] for the declared bit depth"
                )

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def with_normals(self, normals: np.ndarray) -> "PointCloud":
        """This cloud, its points shared, carrying the given unit normals."""
        return PointCloud(self.points, normals=normals, bit_depth=self.bit_depth)

    def with_bit_depth(self, bit_depth: int | None) -> "PointCloud":
        """This cloud, its arrays shared, with the coordinate bit depth replaced."""
        return replace(self, bit_depth=bit_depth)


def infer_bit_depth(cloud: PointCloud) -> int:
    """Smallest positive ``b`` such that every coordinate fits in [0, 2**b - 1].

    Raises ValueError on empty clouds, when any coordinate is negative (such
    clouds have no voxel-grid interpretation), or when ``b`` would lie past
    ``BIT_DEPTHS``.
    """
    if len(cloud) == 0:
        raise ValueError("cannot infer bit depth of an empty cloud")
    lo = float(cloud.points.min())
    if lo < 0.0:
        raise ValueError("cannot infer bit depth: negative coordinate present")
    hi = float(cloud.points.max())
    b = max(1, math.ceil(hi).bit_length())  # exact: hi <= 2**b - 1 iff ceil(hi) < 2**b
    if b not in BIT_DEPTHS:
        raise ValueError(f"cannot infer bit depth: coordinate {hi!r} needs {b} bits, "
                         f"more than {BIT_DEPTHS[-1]}")
    return b


class UnknownBitDepth(ValueError):
    """A bit depth is needed, none was given, and none can be inferred."""


def require_bit_depth(cloud: PointCloud, bit_depth: int | None, name: str, needed: bool = True) -> PointCloud:
    """The one ``--bitdepth`` rule: ``cloud`` with ``bit_depth`` whenever
    one is given, else with its inferred depth when one is ``needed``, else
    as it is.  A given depth the coordinates do not fit is a ValueError
    naming the cloud and the flag; a needed depth that cannot be inferred is
    UnknownBitDepth naming the cloud by ``name``."""
    if bit_depth is not None:
        try:
            return cloud.with_bit_depth(bit_depth)
        except ValueError as exc:
            raise ValueError(f"{name}: --bitdepth {bit_depth}: {exc}") from None
    if not needed:
        return cloud
    try:
        return cloud.with_bit_depth(infer_bit_depth(cloud))
    except ValueError as exc:
        raise UnknownBitDepth(f"{name}: {exc}") from None


def precision_peak(bit_depth: int) -> float:
    """Largest representable coordinate for a given bit depth, 2**b - 1."""
    return 2.0 ** _check_bit_depth(bit_depth) - 1.0
