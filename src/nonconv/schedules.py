"""Index schedules q_1(l) < ... < q_ell(l) and their combinatorics.

A schedule drives every nonconventional sum in the package: the l-th term
of a sum looks at positions q_1(l), ..., q_ell(l).  This module also holds
the proximity metric ``rho``, the decomposition of index tuples into
proximity clusters, and the classification of tuples into "rare" classes
used by the Poisson-factorization checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import ScheduleError, ValidationError


@dataclass(frozen=True)
class QSchedule:
    """Family of strictly increasing index functions.

    ``q_fn(j, l)`` evaluates the j-th function (1-based, j <= ell) at l >= 1.
    ``gap_params = (c, gamma)``, when present, declares the lower bound
    q_{j+1}(l) - q_j(l) >= c * (ln l)^(1+gamma); it is verified on
    construction up to ``validation_horizon``.
    """

    ell: int
    q_fn: Callable[[int, int], int]
    name: str = "custom"
    gap_params: tuple[float, float] | None = None
    validation_horizon: int = 128

    def __post_init__(self):
        if self.ell < 1:
            raise ScheduleError(f"ell must be >= 1, got {self.ell}")
        prev = None
        for l in range(1, self.validation_horizon + 1):
            vals = self._raw(l)
            self._check_row(l, vals, prev)
            prev = vals

    def _raw(self, l: int) -> tuple[int, ...]:
        return tuple(int(self.q_fn(j, l)) for j in range(1, self.ell + 1))

    def _check_row(self, l, vals, prev):
        if vals[0] < l:
            raise ScheduleError(f"schedule {self.name!r}: q_1({l})={vals[0]} < l")
        for j in range(1, self.ell):
            if vals[j] <= vals[j - 1]:
                raise ScheduleError(
                    f"schedule {self.name!r}: q_{j + 1}({l})={vals[j]} <= q_{j}({l})={vals[j - 1]}"
                )
        if prev is not None:
            for j in range(self.ell):
                if vals[j] <= prev[j]:
                    raise ScheduleError(
                        f"schedule {self.name!r}: q_{j + 1} not strictly increasing at l={l}"
                    )
        if self.gap_params is not None:
            c, gamma = self.gap_params
            need = c * math.log(l) ** (1.0 + gamma) if l > 1 else 0.0
            for j in range(self.ell - 1):
                if vals[j + 1] - vals[j] < need - 1e-9:
                    raise ScheduleError(
                        f"schedule {self.name!r}: gap q_{j + 2}({l})-q_{j + 1}({l})="
                        f"{vals[j + 1] - vals[j]} below declared c(ln l)^(1+gamma)={need:.6g}"
                    )

    def evaluate(self, l: int) -> tuple[int, ...]:
        """Return (q_1(l), ..., q_ell(l))."""
        if l < 1:
            raise ValidationError(f"l must be >= 1, got {l}")
        vals = self._raw(l)
        if l > self.validation_horizon:
            self._check_row(l, vals, None)
        return vals

    def max_index(self, n: int) -> int:
        """Largest position any term l <= n looks at, i.e. q_ell(n)."""
        return self.evaluate(n)[-1]


# ---------------------------------------------------------------------------
# Built-in schedule families
# ---------------------------------------------------------------------------

def linear_schedule(ell: int) -> QSchedule:
    """q_j(l) = j * l.

    Gaps equal l, which dominates (ln l)^1.5 for every l >= 1, so the
    log-power growth condition holds with (c, gamma) = (1, 0.5).
    """
    return QSchedule(ell, lambda j, l: j * l, name=f"linear(ell={ell})", gap_params=(1.0, 0.5))


def _loggap(l: int, c: float, gamma: float) -> int:
    if l <= 1:
        return 1
    return max(1, math.ceil(c * math.log(l) ** (1.0 + gamma)))


def arithmetic_gap_schedule(ell: int, c: float, gamma: float) -> QSchedule:
    """q_j(l) = l + (j-1) * g(l) with g(l) = max(1, ceil(c (ln l)^(1+gamma)))."""
    return QSchedule(
        ell,
        lambda j, l: l + (j - 1) * _loggap(l, c, gamma),
        name=f"arithmetic_gap(ell={ell},c={c},gamma={gamma})",
        gap_params=(c, gamma),
    )


def polynomial_schedule(ell: int, degree: int) -> QSchedule:
    """q_j(l) = j * l**degree."""
    if degree < 1:
        raise ScheduleError("degree must be >= 1")
    return QSchedule(
        ell,
        lambda j, l: j * l**degree,
        name=f"polynomial(ell={ell},degree={degree})",
        gap_params=(1.0, 0.5),
    )


def exponential_gap_schedule(ell: int) -> QSchedule:
    """q_j(l) = l * 2**(j-1)."""
    return QSchedule(
        ell,
        lambda j, l: l * 2 ** (j - 1),
        name=f"exponential_gap(ell={ell})",
        gap_params=(1.0, 0.5),
    )


def table_schedule(rows: Mapping[int, Iterable[int]] | list) -> QSchedule:
    """Explicit table of q values; rows[l] = (q_1(l), ..., q_ell(l)).

    A list input is interpreted as rows for l = 1, 2, ....
    """
    if isinstance(rows, list):
        table = {l + 1: tuple(int(v) for v in row) for l, row in enumerate(rows)}
    else:
        table = {int(l): tuple(int(v) for v in row) for l, row in rows.items()}
    if not table:
        raise ValidationError("empty schedule table")
    ells = {len(v) for v in table.values()}
    if len(ells) != 1:
        raise ScheduleError("schedule table rows have inconsistent lengths")
    ell = ells.pop()
    horizon = max(table)
    if set(table) != set(range(1, horizon + 1)):
        raise ScheduleError("schedule table must cover l = 1..max contiguously")

    def q_fn(j, l):
        try:
            return table[l][j - 1]
        except KeyError:
            raise ValidationError(f"schedule table has no row for l={l}") from None

    return QSchedule(ell, q_fn, name="table", validation_horizon=horizon)


SCHEDULE_FAMILIES = {
    "linear": linear_schedule,
    "arithmetic_gap": arithmetic_gap_schedule,
    "polynomial": polynomial_schedule,
    "exponential_gap": exponential_gap_schedule,
}


# ---------------------------------------------------------------------------
# Proximity metric and clusters
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Cutoffs used by the arrival-statistics experiments
# ---------------------------------------------------------------------------

def logpow_cutoff(n: int, eps: float) -> int:
    """Cutoff floor((ln n)^(1+eps))."""
    if n <= 1:
        return 0
    return int(math.log(n) ** (1.0 + eps))


def ratio_cutoff_index(c: float, gamma: float, bound: float) -> int:
    """Smallest k with c (ln k)^(1+gamma) > bound.

    Used as the low-index cutoff when the schedule carries (c, gamma) gap
    growth and proximity is measured at threshold ``bound``.
    """
    if bound <= 0:
        return 1
    k = int(math.exp((bound / c) ** (1.0 / (1.0 + gamma)))) + 1
    while k > 1 and c * math.log(k - 1) ** (1.0 + gamma) > bound:
        k -= 1
    while c * math.log(k) ** (1.0 + gamma) <= bound:
        k += 1
    return k
