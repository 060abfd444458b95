"""Scalar reference of the rare-set rule, for the tests only.

The package applies the rule once, over arrays, in
``sevastyanov._rare_mask``: a tuple of term indices is rare when two of
its indices are within the proximity threshold, directly or through a
chain of indices (a proximity cluster with more than one element), or when
its least index is at most the cutoff.  This module spells the same rule
out one tuple at a time, with the proximity metric ``rho``, a union-find
over the tuple and its cluster partition, so the tests can check the
vectorized rule against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from nonconv.errors import ValidationError
from nonconv.schedules import QSchedule


def rho(schedule: QSchedule, l: int, l2: int) -> int:
    """min over i, j of |q_i(l) - q_j(l2)|; symmetric, rho(l, l) = 0."""
    a = schedule.evaluate(l)
    b = schedule.evaluate(l2)
    return min(abs(x - y) for x in a for y in b)


class _UnionFind:
    """Minimal disjoint-set over arbitrary hashables (path compression)."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        if x not in self.parent:
            self.parent[x] = x
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        px, py = self.find(x), self.find(y)
        if px != py:
            self.parent[max(px, py)] = min(px, py)


@dataclass(frozen=True)
class ClusterPartition:
    """Partition of an index tuple into maximal proximity clusters.

    Two indices are linked when rho <= threshold; clusters are the connected
    components of that graph, so distinct clusters are pairwise farther than
    the threshold.
    """

    tuple_: tuple[int, ...]
    threshold: int
    clusters: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.clusters)


def cluster_partition(schedule: QSchedule, indices, threshold: int) -> ClusterPartition:
    """Split ``indices`` into maximal clusters at the given rho threshold."""
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValidationError(f"duplicate entries in index tuple {idx}")
    if any(i < 1 for i in idx):
        raise ValidationError(f"index tuple entries must be positive: {idx}")
    uf = _UnionFind()
    for i in idx:
        uf.find(i)
    for a, b in combinations(idx, 2):
        if rho(schedule, a, b) <= threshold:
            uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for i in idx:
        groups.setdefault(uf.find(i), []).append(i)
    clusters = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    return ClusterPartition(idx, int(threshold), clusters)


@dataclass(frozen=True)
class RareSetClass:
    """Class label of an r-tuple: cluster count k, low-index cluster count, cutoff."""

    k: int
    l_flag: int
    cutoff: int

    def __post_init__(self):
        if not 0 <= self.l_flag <= self.k:
            raise ValidationError(f"need 0 <= l_flag <= k, got {self}")


def classify_tuple(schedule: QSchedule, indices, threshold: int, cutoff: int):
    """Classify a tuple and decide whether it is rare.

    Returns ``(RareSetClass, rare)``.  A tuple is rare when some cluster has
    more than one element or its minimal index is <= cutoff.
    """
    part = cluster_partition(schedule, indices, threshold)
    l_flag = sum(1 for c in part.clusters if min(c) <= cutoff)
    rare = any(len(c) > 1 for c in part.clusters) or min(part.tuple_) <= cutoff
    return RareSetClass(part.k, l_flag, int(cutoff)), rare
