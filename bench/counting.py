"""Work counters for traced runs.

``install`` must run before ``pcqa`` is imported: the program binds
``scipy.spatial.cKDTree`` by name at import time, so only a class swapped in
first sees every tree the program builds.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


class Counts:
    """kd-tree builds and queries, distinct clouds indexed, normal estimations."""

    def __init__(self):
        self.kdtree_builds = 0
        self.kdtree_queries = 0
        self.clouds: set[str] = set()
        self.normal_calls = 0
        self.degenerate_points = 0

    def dump(self, path: str) -> None:
        """Append this process's counts to ``path`` as one JSON line."""
        record = dict(vars(self), clouds=sorted(self.clouds))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


def install(counts: Counts) -> None:
    """Replace ``scipy.spatial.cKDTree`` with a subclass that counts into ``counts``."""
    import scipy.spatial

    base = scipy.spatial.cKDTree

    class CountingKDTree(base):
        def __init__(self, data, *args, **kwargs):
            counts.kdtree_builds += 1
            raw = np.ascontiguousarray(data, dtype=np.float64).tobytes()
            counts.clouds.add(hashlib.blake2b(raw, digest_size=16).hexdigest())
            super().__init__(data, *args, **kwargs)

        def query(self, *args, **kwargs):
            counts.kdtree_queries += 1
            return super().query(*args, **kwargs)

    scipy.spatial.cKDTree = CountingKDTree


def wrap_normals(counts: Counts) -> None:
    """Count calls of ``pcqa.normals.normal_vectors`` and the degenerate
    neighbourhoods they report.  Call after ``install`` and after import."""
    import pcqa.normals

    inner = pcqa.normals.normal_vectors

    def counted(*args, **kwargs):
        normals, degenerate = inner(*args, **kwargs)
        counts.normal_calls += 1
        counts.degenerate_points += int(degenerate.sum())
        return normals, degenerate

    pcqa.normals.normal_vectors = counted


def total(path: str) -> Counts:
    """Sum the records that processes appended to ``path``; clouds seen by
    several processes count once."""
    out = Counts()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            out.clouds.update(record.pop("clouds"))
            for key, value in record.items():
                setattr(out, key, getattr(out, key) + value)
    return out
