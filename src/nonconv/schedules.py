"""Index schedules q_1(l) < ... < q_ell(l) and their combinatorics.

A schedule drives every nonconventional sum in the package: the l-th term
of a sum looks at positions q_1(l), ..., q_ell(l).  This module also holds
the proximity metric ``rho``, the decomposition of index tuples into
proximity clusters, and the classification of tuples into "rare" classes
used by the Poisson-factorization checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ResourceError, ScheduleError, ValidationError

_INT64_MAX = np.iinfo(np.int64).max
# most int64 cells of one ``QSchedule.columns`` table (256 MiB): the n = 12
# factorization stage of an ell = 2 arithmetic-gap schedule has N = 2^24
COLUMN_CELL_BUDGET = 1 << 25
# Vectorized checks flag a row for the scalar check within this margin of the
# gap bound, so that np.log and math.log rounding apart cannot change a verdict.
_GAP_SCREEN_SLACK = 1e-6
_CHECK_CHUNK = 1 << 16  # rows per chunk of the vectorized column screen


@dataclass(frozen=True)
class QSchedule:
    """Family of strictly increasing index functions.

    ``q_fn(j, l)`` evaluates the j-th function (1-based, j <= ell) at l >= 1.
    ``gap_params = (c, gamma)``, when present, declares the lower bound
    q_{j+1}(l) - q_j(l) >= c * (ln l)^(1+gamma); it is verified on
    construction up to ``validation_horizon``.

    ``_columns(N)``, set by the built-in family constructors, is a
    vectorized form of ``q_fn`` over l = 1..N; see ``columns``.
    """

    ell: int
    q_fn: Callable[[int, int], int]
    name: str = "custom"
    gap_params: tuple[float, float] | None = None
    validation_horizon: int = 128
    _columns: Callable[[int], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

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

    def columns(self, N: int) -> np.ndarray:
        """(N, ell) int64 array whose row l - 1 is ``evaluate(l)``, l = 1..N.

        Built-in families are computed in closed form and checked like
        ``evaluate`` checks rows past ``validation_horizon``; other
        schedules evaluate row by row.  Raises ``ResourceError`` when
        q_ell(N) does not fit in int64, or before any O(N) array is
        allocated when the table has more than ``COLUMN_CELL_BUDGET`` cells.
        """
        if N * self.ell > COLUMN_CELL_BUDGET:
            raise ResourceError(
                f"schedule {self.name!r}: {N} x {self.ell} columns exceed the budget "
                f"of {COLUMN_CELL_BUDGET} cells"
            )
        top = self.evaluate(N)[-1]
        if top > _INT64_MAX:
            raise ResourceError(
                f"schedule {self.name!r}: q_{self.ell}({N})={top} does not fit in int64"
            )
        if self._columns is None:
            return np.array([self.evaluate(l) for l in range(1, N + 1)], dtype=np.int64)
        q = self._columns(N)
        self._check_columns(q)
        return q

    def _check_columns(self, q: np.ndarray):
        # Vectorized screen for the rows evaluate() would check, past the
        # validation horizon, in chunks of _CHECK_CHUNK rows; each flagged
        # row goes through the scalar check, which raises with its message.
        for a in range(self.validation_horizon, len(q), _CHECK_CHUNK):
            rows = q[a : a + _CHECK_CHUNK]
            l = np.arange(a + 1, a + 1 + len(rows))
            suspect = rows[:, 0] < l
            if self.ell > 1:
                gaps = np.diff(rows, axis=1).min(axis=1)
                suspect |= gaps <= 0
                if self.gap_params is not None:
                    c, gamma = self.gap_params
                    need = c * np.log(l) ** (1.0 + gamma)
                    suspect |= gaps < need - 1e-9 + _GAP_SCREEN_SLACK
            for row in np.flatnonzero(suspect):
                self._check_row(a + int(row) + 1, tuple(rows[row].tolist()), None)


# ---------------------------------------------------------------------------
# Built-in schedule families
# ---------------------------------------------------------------------------

def _terms(N: int) -> np.ndarray:
    """The column l = 1..N as an (N, 1) int64 array."""
    return np.arange(1, N + 1, dtype=np.int64)[:, None]


def linear_schedule(ell: int) -> QSchedule:
    """q_j(l) = j * l.

    Gaps equal l, which dominates (ln l)^1.5 for every l >= 1, so the
    log-power growth condition holds with (c, gamma) = (1, 0.5).
    """
    return QSchedule(
        ell,
        lambda j, l: j * l,
        name=f"linear(ell={ell})",
        gap_params=(1.0, 0.5),
        _columns=lambda N: _terms(N) * np.arange(1, ell + 1, dtype=np.int64),
    )


def _loggap(l: int, c: float, gamma: float) -> int:
    if l <= 1:
        return 1
    try:
        return max(1, math.ceil(c * math.log(l) ** (1.0 + gamma)))
    except OverflowError:  # the power, or ceil of an infinite product
        raise ScheduleError(
            f"schedule arithmetic_gap: gap c (ln l)^(1+gamma) overflows a float "
            f"at l={l}, c={c}, gamma={gamma}"
        ) from None


def _loggap_runs(N: int, c: float, gamma: float) -> np.ndarray:
    """g(l) = _loggap(l, c, gamma) for l = 1..N, as an int64 array.

    g is nondecreasing in l, so it is constant on O(g(N)) runs.  The run
    after value v starts at the least l with c (ln l)^(1+gamma) > v, which
    is floor(exp((v / c)^(1 / (1 + gamma)))) + 1 in exact arithmetic.  That
    guess and the l before it are checked with the scalar ``_loggap``, and
    bisection on the scalar finishes the search when rounding put the guess
    off, so every value equals the scalar one.
    """
    starts, values = [1], [_loggap(1, c, gamma)]
    last = _loggap(N, c, gamma)
    while values[-1] != last:
        lo, hi, at_hi = starts[-1], N, last  # g(lo) == values[-1] < g(hi)
        try:
            x = (values[-1] / c) ** (1.0 / (1.0 + gamma))
            guess = int(math.exp(min(x, 700.0))) + 1
        except (ArithmeticError, ValueError):
            guess = lo
        for probe in (guess - 1, guess):
            if lo < probe < hi:
                at = _loggap(probe, c, gamma)
                if at == values[-1]:
                    lo = probe
                else:
                    hi, at_hi = probe, at
        while hi - lo > 1:
            mid = (lo + hi) // 2
            at = _loggap(mid, c, gamma)
            if at == values[-1]:
                lo = mid
            else:
                hi, at_hi = mid, at
        starts.append(hi)
        values.append(at_hi)
    lengths = np.diff(np.array(starts + [N + 1], dtype=np.int64))
    return np.repeat(np.array(values, dtype=np.int64), lengths)


def arithmetic_gap_schedule(ell: int, c: float, gamma: float) -> QSchedule:
    """q_j(l) = l + (j-1) * g(l) with g(l) = max(1, ceil(c (ln l)^(1+gamma)))."""

    def columns(N: int) -> np.ndarray:
        # filled in place, column by column: no (N, ell) temporaries
        q = np.empty((N, ell), dtype=np.int64)
        q[:, 0] = np.arange(1, N + 1)
        g = _loggap_runs(N, c, gamma)
        for j in range(1, ell):
            np.add(q[:, j - 1], g, out=q[:, j])
        return q

    return QSchedule(
        ell,
        lambda j, l: l + (j - 1) * _loggap(l, c, gamma),
        name=f"arithmetic_gap(ell={ell},c={c},gamma={gamma})",
        gap_params=(c, gamma),
        _columns=columns,
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
        _columns=lambda N: _terms(N) ** degree * np.arange(1, ell + 1, dtype=np.int64),
    )


def exponential_gap_schedule(ell: int) -> QSchedule:
    """q_j(l) = l * 2**(j-1)."""
    return QSchedule(
        ell,
        lambda j, l: l * 2 ** (j - 1),
        name=f"exponential_gap(ell={ell})",
        gap_params=(1.0, 0.5),
        _columns=lambda N: _terms(N) << np.arange(ell, dtype=np.int64),
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
