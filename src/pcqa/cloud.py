"""Point cloud container and coordinate bit-depth handling."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

UNIT_NORMAL_TOL = 1e-9


def _as_points_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of coordinates, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable set of 3D points with optional unit normals and bit depth.

    ``points`` is an (N, 3) float64 array kept in source units and source
    order.  ``normals``, when present, is an (N, 3) array of unit vectors.
    ``bit_depth`` declares that every coordinate lies on the integer grid
    [0, 2**bit_depth - 1] (voxelized content); it is None for free-range
    clouds.  Arrays are marked read-only so a cloud can be shared across
    threads without copies.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    bit_depth: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points_array(self.points))
        if self.normals is not None:
            normals = np.array(self.normals, dtype=np.float64, copy=True)
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
            normals.setflags(write=False)
            object.__setattr__(self, "normals", normals)
        if self.bit_depth is not None:
            b = int(self.bit_depth)
            if b < 1:
                raise ValueError(f"bit depth must be a positive integer, got {self.bit_depth}")
            object.__setattr__(self, "bit_depth", b)
            if len(self) and (self.points.min() < 0.0 or self.points.max() > 2.0**b - 1.0):
                raise ValueError(
                    f"coordinates outside [0, 2**{b} - 1] for the declared bit depth"
                )

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def with_normals(self, normals: np.ndarray) -> "PointCloud":
        """Return a copy of this cloud carrying the given unit normals."""
        return PointCloud(self.points, normals=normals, bit_depth=self.bit_depth)

    def with_bit_depth(self, bit_depth: int | None) -> "PointCloud":
        """Return a copy of this cloud with the coordinate bit depth replaced."""
        return replace(self, bit_depth=bit_depth)


def infer_bit_depth(cloud: PointCloud) -> int:
    """Smallest positive ``b`` such that every coordinate fits in [0, 2**b - 1].

    Raises ValueError on empty clouds or when any coordinate is negative
    (such clouds have no voxel-grid interpretation).
    """
    if len(cloud) == 0:
        raise ValueError("cannot infer bit depth of an empty cloud")
    lo = float(cloud.points.min())
    if lo < 0.0:
        raise ValueError("cannot infer bit depth: negative coordinate present")
    hi = float(cloud.points.max())
    b = max(1, math.ceil(math.log2(hi + 1.0))) if hi > 0 else 1
    # guard against log2 rounding at power-of-two boundaries
    while 2.0**b - 1.0 < hi:
        b += 1
    while b > 1 and 2.0 ** (b - 1) - 1.0 >= hi:
        b -= 1
    return b


class UnknownBitDepth(ValueError):
    """A bit depth is needed, none was given, and none can be inferred."""


def require_bit_depth(cloud: PointCloud, bit_depth: int | None, name: str) -> PointCloud:
    """``cloud`` with ``bit_depth`` (the ``--bitdepth`` flag), or with the
    depth inferred from it.  When neither is possible, UnknownBitDepth names
    the cloud by ``name``; a given depth the coordinates do not fit is a
    ValueError naming the cloud and the flag."""
    if bit_depth is None:
        try:
            bit_depth = infer_bit_depth(cloud)
        except ValueError as exc:
            raise UnknownBitDepth(f"{name}: {exc}") from None
        return cloud.with_bit_depth(bit_depth)
    try:
        return cloud.with_bit_depth(bit_depth)
    except ValueError as exc:
        raise ValueError(f"{name}: --bitdepth {bit_depth}: {exc}") from None


def precision_peak(bit_depth: int) -> float:
    """Largest representable coordinate for a given bit depth, 2**b - 1."""
    if bit_depth < 1:
        raise ValueError(f"bit depth must be >= 1, got {bit_depth}")
    return 2.0**bit_depth - 1.0
