"""Index schedules q_1(l) < ... < q_ell(l) and the cutoffs built on them.

A schedule drives every nonconventional sum in the package: the l-th term
of a sum looks at positions q_1(l), ..., q_ell(l).  This module also holds
the low-index cutoffs of the arrival-statistics experiments; the rare-set
rule of the Poisson-factorization checker is ``sevastyanov._rare_mask``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ResourceError, ScheduleError, ValidationError

_INT64_MAX = np.iinfo(np.int64).max
# most int64 cells of one ``QSchedule.columns`` table (256 MiB): the n = 12
# factorization stage of an ell = 2 arithmetic-gap schedule has N = 2^24
COLUMN_CELL_BUDGET = 1 << 25


@dataclass(frozen=True)
class QSchedule:
    """Family of strictly increasing index functions.

    ``q_fn(j, l)`` evaluates the j-th function (1-based, j <= ell) at l >= 1.
    Each row has l <= q_1(l) < ... < q_ell(l), and each q_j increases
    strictly in l.  ``gap_params = (c, gamma)``, when present, declares the
    lower bound q_{j+1}(l) - q_j(l) >= c * (ln l)^(1+gamma).  ``_check_row``
    applies these rules; it checks rows l <= ``validation_horizon`` on
    construction.

    ``_columns(N)``, set by the family constructors, is a vectorized form
    of ``q_fn`` over l = 1..N whose rows obey the rules by construction, so
    no row of such a schedule is checked again.  A schedule without it (a
    custom ``q_fn``) has each row past the horizon checked against the row
    before it by ``evaluate``, which ``columns`` calls for every row.
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
        """Return (q_1(l), ..., q_ell(l)), checking a custom row past the horizon."""
        if l < 1:
            raise ValidationError(f"l must be >= 1, got {l}")
        vals = self._raw(l)
        if l > self.validation_horizon and self._columns is None:
            self._check_row(l, vals, self._raw(l - 1) if l > 1 else None)
        return vals

    def max_index(self, n: int) -> int:
        """Largest position any term l <= n looks at, i.e. q_ell(n)."""
        return self.evaluate(n)[-1]

    def columns(self, N: int) -> np.ndarray:
        """(N, ell) int64 array whose row l - 1 is ``evaluate(l)``, l = 1..N.

        A schedule with ``_columns`` takes its table from it; other
        schedules evaluate, and so check, row by row.  Raises
        ``ResourceError`` when q_ell(N) does not fit in int64, or before any
        O(N) array is allocated when the table has more than
        ``COLUMN_CELL_BUDGET`` cells.
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
        return self._columns(N)


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

    g is nondecreasing in l for gamma >= -1, which ``arithmetic_gap_schedule``
    requires, so it is constant on O(g(N)) runs.  The run after value v
    starts at the least l with c (ln l)^(1+gamma) > v, which is
    floor(exp((v / c)^(1 / (1 + gamma)))) + 1 in exact arithmetic.  That
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
    """q_j(l) = l + (j-1) * g(l) with g(l) = max(1, ceil(c (ln l)^(1+gamma))).

    Raises ``ScheduleError`` for gamma < -1: there g can fall as l grows,
    so q_2 can stop increasing.  For gamma >= -1, g is nondecreasing, and
    every row meets the schedule rules and the declared gap by construction.
    """
    if not gamma >= -1.0:
        raise ScheduleError(f"schedule arithmetic_gap: gamma must be >= -1, got {gamma}")

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

    A list input is interpreted as rows for l = 1, 2, ....  Every row is
    checked on construction: the validation horizon is the table's length.
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

    def columns(N: int) -> np.ndarray:
        return np.array([table[l] for l in range(1, N + 1)], dtype=np.int64)

    return QSchedule(ell, q_fn, name="table", validation_horizon=horizon, _columns=columns)


SCHEDULE_FAMILIES = {
    "linear": linear_schedule,
    "arithmetic_gap": arithmetic_gap_schedule,
    "polynomial": polynomial_schedule,
    "exponential_gap": exponential_gap_schedule,
    "table": table_schedule,
}


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
