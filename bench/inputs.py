"""Seeded synthetic inputs for the three benchmark workloads.

Every function here is deterministic in its arguments.  The program under
test never sees the seed, only the files written by ``setup_*``.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from pcqa import PointCloud, gaussian_jitter, octree_quantize, write_ply

# Full and toy sizes per workload.  Toy sizes exist for the self-test only.
SIZES = {
    "full": {
        "sphere_radius": 140.0,  # ~294k points on a 10-bit grid
        "study_scale": 1.0,  # four 9-bit shells of 34k-40k voxels ...
        "study_keep_every": 4,  # ... of which every 4th is kept: 8.5k-10k points
        "octree_bits": (1, 2, 3, 4, 5),
        "lattice_side": 59,  # 59**3 = 205379 points
    },
    "toy": {
        "sphere_radius": 20.0,
        "study_scale": 0.4,
        "study_keep_every": 1,
        "octree_bits": (1, 2, 3, 4),  # 5 bits would leave too few points for k=10
        "lattice_side": 12,
    },
}

PAIR_BIT_DEPTH = 10
PAIR_SIGMA = 0.7

STUDY_BIT_DEPTH = 9
STUDY_SIGMAS = (0.3, 0.6, 1.0, 1.6, 2.5)
TWIN_MIN_BITS = 2  # octree stimuli dropping at least this many bits get a permuted twin
TWIN_PERMUTATION_SEED = 20060371  # fixed: twins must not depend on the workload seed

LATTICE_SPACING = 2.0
CLI_SIGMA = 0.7
CLI_OCTREE_BITS = 2


def ladder_mos(level: int) -> float:
    """MOS of ladder level 0..4: a fixed decreasing function of the level."""
    return 4.6 - 0.8 * level


def _voxelize(points: np.ndarray, bit_depth: int) -> np.ndarray:
    """Round onto the integer grid and deduplicate, ordered by packed key."""
    grid = np.round(points).astype(np.int64)
    shift = bit_depth
    keys = np.unique((grid[:, 0] << (2 * shift)) | (grid[:, 1] << shift) | grid[:, 2])
    mask = (1 << shift) - 1
    return np.column_stack([keys >> (2 * shift), (keys >> shift) & mask, keys & mask]).astype(np.float64)


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0**0.5) * i
    return np.column_stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)])


def voxel_ellipsoid(radii, bit_depth: int, center_offset=(0.0, 0.0, 0.0)) -> PointCloud:
    """Voxelized ellipsoid surface centred on the grid, sampled densely
    enough that the voxel shell has no holes."""
    n = int(12.0 * np.pi * max(radii) ** 2) + 64
    center = (2**bit_depth - 1) / 2.0 + np.asarray(center_offset, dtype=np.float64)
    pts = _voxelize(center + _fibonacci_directions(n) * np.asarray(radii), bit_depth)
    return PointCloud(pts, bit_depth=bit_depth)


def _voxel_torus(major: float, minor: float, bit_depth: int) -> PointCloud:
    nu = int(4.0 * np.pi * (major + minor)) + 8
    nv = int(4.0 * np.pi * minor) + 8
    u, v = np.meshgrid(np.linspace(0, 2 * np.pi, nu, endpoint=False),
                       np.linspace(0, 2 * np.pi, nv, endpoint=False), indexing="ij")
    ring = major + minor * np.cos(v)
    pts = np.column_stack([(ring * np.cos(u)).ravel(), (ring * np.sin(u)).ravel(),
                           (minor * np.sin(v)).ravel()])
    center = (2**bit_depth - 1) / 2.0
    return PointCloud(_voxelize(center + pts, bit_depth), bit_depth=bit_depth)


def _voxel_wave(half: float, amplitude: float, bit_depth: int) -> PointCloud:
    n = int(4.0 * half) + 1
    x, y = np.meshgrid(np.linspace(-half, half, n), np.linspace(-half, half, n), indexing="ij")
    z = amplitude * np.sin(x / 9.0) * np.cos(y / 13.0)
    center = (2**bit_depth - 1) / 2.0
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    return PointCloud(_voxelize(center + pts, bit_depth), bit_depth=bit_depth)


def study_references(scale: float, keep_every: int) -> dict[str, PointCloud]:
    """Four fixed 9-bit references; ``scale`` shrinks every length for toy runs.

    ``keep_every`` thins each voxel shell to every n-th voxel in packed-key
    order.  That makes the clouds smaller without shrinking them in space,
    so the coarsest octree level (5 bits dropped) still keeps enough points
    for normal estimation with k=10."""
    s = scale
    shells = {
        "sphere": voxel_ellipsoid((50.0 * s,) * 3, STUDY_BIT_DEPTH),
        "ellipsoid": voxel_ellipsoid((70.0 * s, 48.0 * s, 34.0 * s), STUDY_BIT_DEPTH),
        "torus": _voxel_torus(48.0 * s, 15.0 * s, STUDY_BIT_DEPTH),
        "wave": _voxel_wave(71.0 * s, 18.0 * s, STUDY_BIT_DEPTH),
    }
    return {name: PointCloud(cloud.points[::keep_every], bit_depth=STUDY_BIT_DEPTH)
            for name, cloud in shells.items()}


def lattice(side: int, seed: int) -> PointCloud:
    """Cubic lattice of side**3 points with spacing ``LATTICE_SPACING`` and a
    seeded integer origin.  Its nearest-neighbour spacing is exactly the
    lattice spacing, so ``mnn`` and ``ann`` are known in closed form."""
    origin = np.random.default_rng([seed, 3]).integers(0, 8, size=3)
    axis = np.arange(side) * LATTICE_SPACING
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3) + origin
    return PointCloud(pts)


def setup_pair(workdir: str, seed: int, size: str) -> dict:
    """pair-large: one voxelized sphere and a seeded jittered copy, binary PLY."""
    rng = np.random.default_rng([seed, 1])
    radius = SIZES[size]["sphere_radius"]
    ref = voxel_ellipsoid((radius,) * 3, PAIR_BIT_DEPTH, rng.uniform(-0.5, 0.5, 3))
    deg = gaussian_jitter(ref, PAIR_SIGMA, seed=seed)
    paths = {"ref": os.path.join(workdir, "ref.ply"), "deg": os.path.join(workdir, "deg.ply")}
    write_ply(ref, paths["ref"])
    write_ply(deg, paths["deg"])
    return {"ref": ref, "deg": deg, "paths": paths}


def setup_study(workdir: str, seed: int, size: str) -> dict:
    """study: four references, a five-level Gaussian ladder and an octree
    ladder on each, and a permuted twin of every octree stimulus that drops at least
    ``TWIN_MIN_BITS`` bits.  Only the Gaussian noise depends on ``seed``."""
    refs = study_references(SIZES[size]["study_scale"], SIZES[size]["study_keep_every"])
    octree_bits = SIZES[size]["octree_bits"]
    twin_rng = np.random.default_rng(TWIN_PERMUTATION_SEED)
    rows = []  # stimulus_id, group, reference, degraded, mos
    ladders: dict[tuple[str, str], list[str]] = {}
    twins: dict[str, str] = {}  # twin id -> original id
    for r, (name, ref) in enumerate(refs.items()):
        write_ply(ref, os.path.join(workdir, f"{name}.ply"))
        stimuli = []
        for level, sigma in enumerate(STUDY_SIGMAS):
            stimuli.append(("gaussian", level, gaussian_jitter(ref, sigma, seed=int(
                np.random.default_rng([seed, 2, r, level]).integers(2**31)))))
        for level, bits in enumerate(octree_bits):
            stimuli.append(("octree", level, octree_quantize(ref, bits)))
        for group, level, deg in stimuli:
            sid = f"{name}-{group}{level}"
            write_ply(deg, os.path.join(workdir, f"{sid}.ply"))
            rows.append((sid, group, f"{name}.ply", f"{sid}.ply", ladder_mos(level)))
            ladders.setdefault((name, group), []).append(sid)
            if group == "octree" and octree_bits[level] >= TWIN_MIN_BITS:
                twin = PointCloud(deg.points[twin_rng.permutation(len(deg))])
                tid = f"{sid}-twin"
                write_ply(twin, os.path.join(workdir, f"{tid}.ply"))
                rows.append((tid, "twin", f"{name}.ply", f"{tid}.ply", ladder_mos(level)))
                twins[tid] = sid
    manifest = os.path.join(workdir, "manifest.csv")
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stimulus_id", "group", "reference", "degraded", "mos"])
        writer.writerows(rows)
    return {"manifest": manifest, "rows": rows, "ladders": ladders, "twins": twins,
            "references": refs}


def setup_cli(workdir: str, seed: int, size: str) -> dict:
    """cli-ascii: a seeded lattice and a jittered copy of it, ASCII PLY."""
    ref = lattice(SIZES[size]["lattice_side"], seed)
    deg = gaussian_jitter(ref, CLI_SIGMA, seed=seed)
    paths = {"ref": os.path.join(workdir, "ref.ply"), "deg": os.path.join(workdir, "deg.ply")}
    write_ply(ref, paths["ref"], format="ascii")
    write_ply(deg, paths["deg"], format="ascii")
    return {"ref": ref, "deg": deg, "paths": paths}


if __name__ == "__main__":
    import sys

    setups = {"pair-large": setup_pair, "study": setup_study, "cli-ascii": setup_cli}
    if len(sys.argv) != 4 or sys.argv[1] not in setups:
        sys.exit("usage: PYTHONPATH=src python3 bench/inputs.py "
                 "{pair-large,study,cli-ascii} SEED OUTDIR")
    os.makedirs(sys.argv[3], exist_ok=True)
    setups[sys.argv[1]](sys.argv[3], int(sys.argv[2]), "full")
