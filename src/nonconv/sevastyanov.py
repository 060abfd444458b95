"""Numerical verification of the Poisson-factorization hypotheses.

A model exposes one stage oracle per grid point (``StageOracle``): the
exact joint-arrival probabilities ``b_at(rows)`` at the rows of a (K, T)
array of sorted schedule positions.  Every model here is stationary, so b of
an index tuple depends only on its signature (its sorted positions minus
their minimum), and the checker makes one ``b_at`` call per tuple block.
The checker evaluates, along an n-grid,

  (i)   max_i b_i -> 0 and sum_i b_i -> lambda,
  (ii)  sums of b over the rare index tuples -> 0 (jointly and as products),
  (iii) b_{i1..ir} / (b_{i1} ... b_{ir}) -> 1 uniformly off the rare sets,

where the rare r-tuples are those containing a proximity cluster or an
index at most the low-index cutoff.  Full enumeration is exact; above the
budget a stratified subsampler covers each stratum separately (rare strata
are never skipped) and reports its coverage.

A schedule run is a maximal interval of term indices over which every q
column steps by 1, so the positions of a pair (i, j) shift together while
i and j stay in their runs.  The singles are therefore evaluated once per
run.  Sampled mode reads every clustered pair from one pass of
``_pair_classes`` over the run starts and every index up to cutoff + 1 as
breakpoints: each low index is its own segment, so its classes are single
pairs, and stratum A (min index <= cutoff) sends them with its sampled far
pairs to one oracle call; stratum B sums each class above the cutoff from
one oracle row weighted by its pair count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResourceError, ValidationError
from .rng import STREAM_SEVASTYANOV, derive_rng
from .schedules import QSchedule

DEFAULT_ENUMERATION_BUDGET = 200_000
_CHUNK = 65_536  # tuple rows per vectorized block


@dataclass(frozen=True)
class StageOracle:
    """Exact b-oracle for one grid point.

    ``b_at(rows)`` maps a (K, T) int64 array of sorted schedule positions
    >= 0, repeats allowed, to the K joint arrival probabilities of its rows.
    It must be shift-invariant (adding one integer to a row leaves its b
    unchanged), so the checker evaluates each signature once, from 0, and
    reuses the value for every shifted copy.  ``term_count`` is the number
    of summands and ``schedule`` maps term indices to positions.

    ``b(indices)`` is the index front end: b of the given term indices
    (1-based, distinct, in any order), a float, from ``b_at`` on the row of
    their merged positions.  The checker calls ``b_at`` only; ``b`` is a
    field so that ``dataclasses.replace`` can swap in another front end.
    """

    b_at: Callable
    term_count: int
    schedule: QSchedule
    b: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.b is None:
            object.__setattr__(self, "b", self._b_of_indices)

    def _b_of_indices(self, indices) -> float:
        idx = tuple(int(i) for i in indices)
        if len(set(idx)) != len(idx):
            raise ValidationError(f"duplicate entries in {idx}")
        times = sorted({t for i in idx for t in self.schedule.evaluate(i)})
        return float(self.b_at(np.array([times], dtype=np.int64))[0])


@dataclass(frozen=True)
class StageResult:
    n: int
    term_count: int
    threshold: int
    cutoff: int
    max_b: float
    sum_b: float
    rare_sum_joint: float
    rare_sum_product: float
    ratio_band: tuple[float, float] | None
    zero_denominators: int
    mode: str  # "exact" or "sampled"
    coverage: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ConditionReport:
    r: int
    n_grid: tuple[int, ...]
    stages: tuple[StageResult, ...]

    def stage(self, n: int) -> StageResult:
        for s in self.stages:
            if s.n == n:
                return s
        raise ValidationError(f"no stage for n={n}")

    @property
    def max_b(self) -> tuple[float, ...]:
        return tuple(s.max_b for s in self.stages)

    @property
    def sum_b(self) -> tuple[float, ...]:
        return tuple(s.sum_b for s in self.stages)

    @property
    def rare_sum_joint(self) -> tuple[float, ...]:
        return tuple(s.rare_sum_joint for s in self.stages)

    @property
    def rare_sum_product(self) -> tuple[float, ...]:
        return tuple(s.rare_sum_product for s in self.stages)

    @property
    def ratio_band(self) -> tuple:
        return tuple(s.ratio_band for s in self.stages)


def _resolve_rare_params(rare_params, n: int) -> tuple[int, int]:
    if callable(rare_params):
        thr, cut = rare_params(n)
    else:
        thr, cut = rare_params
    if thr < 0 or cut < 0:
        raise ValidationError(f"rare params must be nonnegative, got ({thr}, {cut})")
    return int(thr), int(cut)


def _group_rows(rows: np.ndarray):
    """(first, inverse) over the distinct rows of a nonnegative int array.

    Groups come in lexicographic row order; ``first`` holds the first row of
    each group and ``inverse`` the group of each row.  Rows are packed into
    scalar keys when they fit in 62 bits.
    """
    span = int(rows.max()) + 1 if rows.size else 1
    if span ** rows.shape[1] >= 2**62:
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        return first, inverse.reshape(-1)
    keys = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        keys = keys * span + col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


class _BCache:
    """Stage oracle front end over arrays of index tuples.

    A tuple's signature is its sorted positions, repeats kept, minus their
    minimum.  By the oracle's shift invariance every tuple with one
    signature has the same b, so each call passes ``b_at`` the distinct
    signatures of its rows, evaluated from 0, in one (K, T) array.  Sampled
    mode passes one row per schedule run (singles) or per pair class
    (stratum B), since every row of a run or class has the same signature.
    """

    def __init__(self, stage: StageOracle, q: np.ndarray):
        self.stage = stage
        self.q = q

    def __call__(self, tups: np.ndarray) -> np.ndarray:
        """b for each row of a (K, r) array of 1-based index tuples."""
        # positions minus each row's minimum; rows with equal unsorted
        # relative positions share a signature, so only each group's first
        # row is sorted, and the sorted rows grouped again
        pos = self.q[tups - 1].reshape(len(tups), tups.shape[1] * self.q.shape[1])
        pos -= pos.min(axis=1, keepdims=True)
        first, inverse = _group_rows(pos)
        sigs = np.sort(pos[first], axis=1)
        distinct, sig_of = _group_rows(sigs)
        return np.asarray(self.stage.b_at(sigs[distinct]), dtype=float)[sig_of[inverse]]


def _runs(q: np.ndarray) -> np.ndarray:
    """First indices (1-based) of the schedule runs of q over 1..N.

    A run is a maximal interval of term indices over which every column of
    q steps by exactly 1.
    """
    steps_by_one = np.ones(max(0, len(q) - 1), dtype=bool)
    for j in range(q.shape[1]):  # one column's diff at a time
        steps_by_one &= np.diff(q[:, j]) == 1
    return np.concatenate([[1], np.flatnonzero(~steps_by_one) + 2]).astype(np.int64)


def _singles(cache: _BCache, starts: np.ndarray, N: int) -> np.ndarray:
    # the positions of a single index shift together along its run
    return np.repeat(cache(starts[:, None]), np.diff(np.append(starts, N + 1)))


def _rare_mask(q: np.ndarray, tups: np.ndarray, threshold: int, cutoff: int) -> np.ndarray:
    """Rare rows of a (K, r) array of 1-based index tuples.

    A tuple is rare when its smallest index is at most the cutoff or two of
    its indices l, l' are close: rho(l, l') = min over i, j of
    |q_i(l) - q_j(l')| is at most the threshold.  Two close indices make a
    proximity cluster of more than one index, so this is the rare-set rule
    of the factorization conditions: a proximity cluster or a low index.
    """
    rare = tups.min(axis=1) <= cutoff
    pos = q[tups - 1]  # (K, r, ell)
    for a, b in itertools.combinations(range(tups.shape[1]), 2):
        gap = np.abs(pos[:, a, :, None] - pos[:, b, None, :]).min(axis=(1, 2))
        rare |= gap <= threshold
    return rare


def _tuple_terms(cache: _BCache, b1, tups: np.ndarray, rare: np.ndarray):
    """Stage terms over the rows of a (K, r) tuple array.

    Returns the sums of b and of prod(b1) over the rare rows, the ratios
    b / prod(b1) over the other rows, and how many of those other rows have
    prod(b1) = 0; such rows get no ratio and no oracle call.
    """
    den = b1[tups - 1].prod(axis=1)
    ratio_rows = ~rare & (den != 0.0)
    need = rare | ratio_rows
    b = np.zeros(len(tups))
    b[need] = cache(tups[need])
    zero_den = int(np.count_nonzero(~rare)) - int(np.count_nonzero(ratio_rows))
    ratios = b[ratio_rows] / den[ratio_rows]
    return float(b[rare].sum()), float(den[rare].sum()), ratios, zero_den


# ---------------------------------------------------------------------------
# Exact mode
# ---------------------------------------------------------------------------

def _tuple_chunks(N: int, r: int):
    """Every r-subset of 1..N in lexicographic order, as (K, r) arrays.

    Each block extends a batch of (r-1)-prefixes by all their larger last
    indices, so a block holds at most max(_CHUNK, N) rows.
    """
    heads = itertools.combinations(range(1, N + 1), r - 1)
    batch = max(1, _CHUNK // N)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(heads, batch))
        head = np.fromiter(flat, dtype=np.int64).reshape(-1, r - 1)
        if not head.size:
            return
        counts = N - head[:, -1]
        last = np.repeat(head[:, -1], counts) + _ranges(counts) + 1
        yield np.column_stack([np.repeat(head, counts, axis=0), last])


def _stage_exact(cache, q, n, N, r, threshold, cutoff, b1) -> StageResult:
    joint = 0.0
    product = 0.0
    lo, hi = math.inf, -math.inf
    zero_den = 0
    for tups in _tuple_chunks(N, r):
        rare = _rare_mask(q, tups, threshold, cutoff)
        j, p, ratios, z = _tuple_terms(cache, b1, tups, rare)
        joint += j
        product += p
        zero_den += z
        if ratios.size:
            lo = min(lo, float(ratios.min()))
            hi = max(hi, float(ratios.max()))
    return StageResult(
        n=n, term_count=N, threshold=threshold, cutoff=cutoff,
        max_b=float(b1.max()), sum_b=float(b1.sum()),
        rare_sum_joint=joint, rare_sum_product=product,
        ratio_band=None if lo > hi else (lo, hi),
        zero_denominators=zero_den, mode="exact",
        coverage={"rare": 1.0, "ratio": 1.0},
    )


# ---------------------------------------------------------------------------
# Sampled mode (pairs only)
# ---------------------------------------------------------------------------

def _partner_windows(q: np.ndarray, i_arr: np.ndarray, threshold: int):
    """Merged 0-based j-windows [start, hi) of the clustered partners of i_arr.

    Every q column is strictly increasing, so each (a, b) function pair
    contributes one contiguous window of j with |q_a(i) - q_b(j)| <=
    threshold.  Row by row the windows are sorted by their left end and
    clipped against the ones before, so the nonempty ones (start < hi) are
    disjoint and increasing; i itself lies in them.
    """
    ell = q.shape[1]
    los, his = [], []
    for a in range(ell):
        qa = q[i_arr - 1, a]
        for b in range(ell):
            col = q[:, b]
            los.append(np.searchsorted(col, qa - threshold, side="left"))
            his.append(np.searchsorted(col, qa + threshold, side="right"))
    lo = np.stack(los, axis=1)
    hi = np.stack(his, axis=1)
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    prev_end = np.zeros_like(hi)
    prev_end[:, 1:] = np.maximum.accumulate(hi, axis=1)[:, :-1]
    return np.maximum(lo, prev_end), hi


def _clustered_partners(q: np.ndarray, i_arr: np.ndarray, threshold: int):
    """All pairs (i, j), j != i, with some |q_a(i) - q_b(j)| <= threshold.

    Vectorized over i_arr; every partner j of an i appears exactly once,
    in increasing order.
    """
    start, hi = _partner_windows(q, i_arr, threshold)
    flat_cnt = np.maximum(0, hi - start).ravel()
    j = np.repeat(start.ravel(), flat_cnt) + _ranges(flat_cnt) + 1  # 1-based
    i = np.repeat(np.repeat(i_arr, start.shape[1]), flat_cnt)
    mask = i != j
    return i[mask], j[mask]


def _pair_classes(q: np.ndarray, breaks: np.ndarray, threshold: int):
    """Every clustered pair of q, as classes in blocks.

    ``breaks``, sorted 1-based indices holding every run start (1 among
    them), cut 1..N into segments on which every q column steps by 1.  While
    i + k stays in the segment of i and j + k in that of j, the pair
    (i + k, j + k) has the positions of (i, j) shifted by k: it is clustered
    with (i, j) and has its signature.  Each class is listed once, by its
    first pair, in which i or j is a breakpoint; an index that is its own
    segment heads one single-pair class per clustered partner j > i, in
    increasing j.  Yields (pairs, w) in breakpoint order: a (K, 2) array of
    first pairs (i < j) and the number of pairs in each class.
    """
    ends = np.append(breaks[1:] - 1, len(q))  # last index of each segment
    for lo in range(0, breaks.size, _CHUNK):
        pi, pj = _clustered_partners(q, breaks[lo:lo + _CHUNK], threshold)
        # a partner below its breakpoint heads the class unless it is a
        # breakpoint itself, whose own partners list the class
        hit = np.searchsorted(breaks, pj)
        is_break = breaks[np.minimum(hit, breaks.size - 1)] == pj
        keep = (pj > pi) | ~is_break
        i, j = np.minimum(pi, pj)[keep], np.maximum(pi, pj)[keep]
        end_i, end_j = (ends[np.searchsorted(breaks, x, side="right") - 1] for x in (i, j))
        w = np.minimum(end_i - i, end_j - j) + 1
        yield np.stack([i, j], axis=1), w


def _ranges(counts: np.ndarray) -> np.ndarray:
    # concatenation of arange(c) for c in counts
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _ratio_pairs(q, N, threshold, cutoff, rng, ratio_samples) -> list[tuple[int, int]]:
    """Non-rare pairs for the ratio band: for a probe set of indices above
    the cutoff, the nearest non-rare partner (where the ratio is most
    extreme), then uniform non-rare draws until there are ``ratio_samples``
    pairs in all, or 20 ``ratio_samples`` draws were tried.  Needs a
    non-rare pair to exist, so cutoff < N - 1."""
    probes = np.unique(rng.integers(cutoff + 1, N, size=min(64, max(1, N - cutoff - 1))))
    # a probe's nearest non-rare partner is the first j > i outside its
    # partner windows; start at j = i + 1 (0-based i) and hop over them
    start, hi = _partner_windows(q, probes, threshold)
    nearest = probes.copy()
    for k in range(start.shape[1]):
        inside = (start[:, k] <= nearest) & (nearest < hi[:, k])
        nearest = np.where(inside, hi[:, k], nearest)
    pairs = [(int(i), int(j) + 1) for i, j in zip(probes, nearest) if j < N]
    tries = 0
    while len(pairs) < ratio_samples and tries < 20 * ratio_samples:
        # as many tries (i, j) as pairs still wanted: each adds at most one,
        # so the rng is drawn as by one try at a time
        k = min(ratio_samples - len(pairs), 20 * ratio_samples - tries)
        tries += k
        draws = [(rng.integers(1, N + 1), rng.integers(1, N + 1)) for _ in range(k)]
        tups = np.sort(draws, axis=1)
        keep = (tups[:, 0] != tups[:, 1]) & ~_rare_mask(q, tups, threshold, cutoff)
        pairs += [(int(i), int(j)) for i, j in tups[keep]]
    return pairs


def _suffix_sums(b: np.ndarray, count: int) -> np.ndarray:
    """sum_{j > i} b_j for i = 1..count, equal bit for bit to
    ``np.cumsum(b[::-1])[::-1][1:]`` (the empty sum at i = N is 0.0).

    The sums are accumulated from the end in chunks of ``_CHUNK`` terms,
    each chunk's cumsum starting from the running total as its first
    element, so that the additions are those of one cumsum while only a
    chunk's floats are held.
    """
    out = np.zeros(count)
    total = -0.0  # x + -0.0 is x for every float x, so the first sum is b_N's
    hi = b.size
    while hi > 1:
        lo = max(1, hi - _CHUNK)
        acc = np.cumsum(np.concatenate(([total], b[lo:hi][::-1])))
        # acc[m] is the sum over j >= hi - m (0-based); out[k - 1] takes
        # the one with hi - m = k, for lo <= k <= min(hi - 1, count)
        top = min(hi - 1, count)
        if lo <= top:
            out[lo - 1 : top] = acc[hi - lo : hi - top - 1 : -1]
        total = acc[-1]
        hi = lo
    return out


def _stage_sampled(
    cache, q, starts, n, N, threshold, cutoff, b1, rng, pair_samples, ratio_samples
) -> StageResult:
    # one pass over the clustered pair classes.  Each index up to the cutoff
    # is its own segment, so its classes are its clustered partners j > i
    # (stratum A); the classes above it are stratum B, summed exactly from
    # each class's first pair times its size, one oracle call per block.
    low = min(cutoff, N)
    breaks = np.union1d(starts, np.arange(1, min(low + 1, N) + 1))
    clustered, sums_b, count_b = [], [], 0
    for pairs, w in _pair_classes(q, breaks, threshold):
        above = pairs[:, 0] > cutoff
        clustered.append(pairs[~above])
        pairs, w = pairs[above], w[above]
        if w.size:
            count_b += int(w.sum())
            product_b = float((w * b1[pairs[:, 0] - 1] * b1[pairs[:, 1] - 1]).sum())
            sums_b.append((product_b, float((w * cache(pairs)).sum())))
    clustered = np.concatenate(clustered)
    bounds = np.searchsorted(clustered[:, 0], np.arange(1, low + 2))
    # stratum A: min index <= cutoff.  Each low i sums its clustered partners
    # exactly and subsamples the other js, drawn in index order; every row of
    # the stratum goes to one oracle call.
    far, sizes = [], []
    for i in range(1, low + 1):
        skip = set(clustered[bounds[i - 1]:bounds[i], 1].tolist())
        rest = N - i - len(skip)
        k = min(rest, max(8, pair_samples // max(1, cutoff)))
        js = []
        while len(js) < k:
            j = int(rng.integers(i + 1, N + 1))
            if j not in skip:
                js.append(j)
        far += [(i, j) for j in js]
        sizes.append((rest, k))
    rows = np.concatenate([clustered, np.array(far, dtype=np.int64).reshape(-1, 2)])
    b_a = cache(rows) if sizes else np.zeros(0)
    b_near, b_far = b_a[:len(clustered)], b_a[len(clustered):]
    suffix = _suffix_sums(b1, len(sizes))
    joint, product, offset = 0.0, 0.0, 0
    for i, (rest, k) in enumerate(sizes, start=1):
        product += b1[i - 1] * suffix[i - 1]
        joint += float(b_near[bounds[i - 1]:bounds[i]].sum())
        if k:
            joint += rest * float(b_far[offset:offset + k].sum()) / k
            offset += k
    for product_b, joint_b in sums_b:
        product += product_b
        joint += joint_b
    count_a = low * (2 * N - low - 1) // 2  # sum of N - i over i <= low
    coverage = {"low_index": min(1.0, offset / count_a) if count_a else 1.0, "cluster": 1.0}
    # ratio band over the non-rare pairs, if there are any
    non_rare = N * (N - 1) // 2 - count_a - count_b
    pairs = _ratio_pairs(q, N, threshold, cutoff, rng, ratio_samples) if non_rare else []
    tups = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    _, _, ratios, zero_den = _tuple_terms(cache, b1, tups, np.zeros(len(tups), bool))
    coverage["ratio"] = len(pairs) / non_rare if non_rare else 1.0
    return StageResult(
        n=n, term_count=N, threshold=threshold, cutoff=cutoff,
        max_b=float(b1.max()), sum_b=float(b1.sum()),
        rare_sum_joint=joint, rare_sum_product=product,
        ratio_band=(float(ratios.min()), float(ratios.max())) if ratios.size else None,
        zero_denominators=zero_den, mode="sampled", coverage=coverage,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_conditions(
    model_oracle: Callable[[int], StageOracle],
    schedule: QSchedule,
    r: int,
    n_grid,
    rare_params,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    pair_samples: int = 512,
    ratio_samples: int = 512,
    seed: int = 0,
) -> ConditionReport:
    """Evaluate the three conditions along the grid.

    ``model_oracle(n)`` yields the stage's ``StageOracle``;
    ``rare_params`` is a (threshold, cutoff) pair or a callable of n.
    Grids whose r-subset count exceeds the budget fall back to stratified
    subsampling, which is implemented for r = 2 only.
    """
    if r < 2:
        raise ValidationError(f"tuple order r must be >= 2, got {r}")
    grid = tuple(int(v) for v in n_grid)
    if not grid:
        raise ValidationError("empty n_grid")
    rng = derive_rng(seed, STREAM_SEVASTYANOV)
    stages = []
    for n in grid:
        stage = model_oracle(n)
        N = stage.term_count
        if N < r:
            raise ValidationError(f"stage n={n} has {N} terms, fewer than r={r}")
        threshold, cutoff = _resolve_rare_params(rare_params, n)
        q = schedule.columns(N)
        starts = _runs(q)
        cache = _BCache(stage, q)
        b1 = _singles(cache, starts, N)
        if math.comb(N, r) <= budget:
            stages.append(_stage_exact(cache, q, n, N, r, threshold, cutoff, b1))
        elif r == 2:
            stages.append(
                _stage_sampled(
                    cache, q, starts, n, N, threshold, cutoff, b1, rng,
                    pair_samples, ratio_samples,
                )
            )
        else:
            raise ResourceError(
                f"C({N},{r}) exceeds budget {budget} and subsampling covers r=2 only"
            )
    return ConditionReport(r=r, n_grid=grid, stages=tuple(stages))


@dataclass(frozen=True)
class Tolerances:
    max_b: float = 0.05
    sum_b: float = 0.05
    rare_sum: float = 0.05
    ratio: float = 0.05


@dataclass(frozen=True)
class Verdict:
    passed: bool
    margins: dict[str, float]
    failures: tuple[str, ...]


def poisson_limit_verdict(
    report: ConditionReport, lam: float, tolerances: Tolerances = Tolerances()
) -> Verdict:
    """Pass/fail at the largest grid point with per-condition margins.

    A numerical surrogate for asymptotic hypotheses: pass means every
    condition is within its tolerance at the largest n, not a proof.
    """
    s = report.stage(max(report.n_grid))
    margins = {
        "max_b": tolerances.max_b - s.max_b,
        "sum_b": tolerances.sum_b - abs(s.sum_b - lam),
        "rare_sum_joint": tolerances.rare_sum - s.rare_sum_joint,
        "rare_sum_product": tolerances.rare_sum - s.rare_sum_product,
    }
    if s.ratio_band is None:
        margins["ratio_band"] = -math.inf
    else:
        dev = max(abs(s.ratio_band[0] - 1.0), abs(s.ratio_band[1] - 1.0))
        margins["ratio_band"] = tolerances.ratio - dev
    failures = tuple(k for k, v in margins.items() if v < 0)
    return Verdict(passed=not failures, margins=margins, failures=failures)


def report_rows(report: ConditionReport, lam: float, tolerances: Tolerances = Tolerances()):
    """Rows (n, condition, value, envelope, margin) for CSV emission."""
    rows = []
    for s in report.stages:
        ratio_dev = (
            float("nan")
            if s.ratio_band is None
            else max(abs(s.ratio_band[0] - 1.0), abs(s.ratio_band[1] - 1.0))
        )
        entries = [
            ("max_b", s.max_b, tolerances.max_b),
            ("sum_b_error", abs(s.sum_b - lam), tolerances.sum_b),
            ("rare_sum_joint", s.rare_sum_joint, tolerances.rare_sum),
            ("rare_sum_product", s.rare_sum_product, tolerances.rare_sum),
            ("ratio_band_deviation", ratio_dev, tolerances.ratio),
        ]
        for name, value, env in entries:
            rows.append((s.n, name, value, env, env - value))
    return rows


# ---------------------------------------------------------------------------
# Model adapters
# ---------------------------------------------------------------------------

def bernoulli_model_oracle(lam: float, schedule: QSchedule):
    """Stage factory for the i.i.d. 0-1 array with p = (lam/n)^(1/ell).

    b is p to the number of distinct sites the terms touch.
    """
    from .bernoulli import BernoulliScheme

    def factory(n: int) -> StageOracle:
        p = BernoulliScheme.from_lambda(n, lam, schedule).p

        def b_at(pos):  # p to the number of distinct positions in each row
            return p ** (1 + np.count_nonzero(np.diff(pos, axis=1), axis=1))

        return StageOracle(b_at=b_at, term_count=n, schedule=schedule)

    return factory


def pattern_chain_oracle(schedule: QSchedule, stage):
    """Stage factory of the Markov and subshift models: ``stage(n)`` gives
    (pattern chain, accept states, term count).  A pattern chain starts
    stationary, so b = ``markov.exact_b`` on it is shift-invariant."""
    from .markov import exact_b

    def factory(n: int) -> StageOracle:
        chain, accept, term_count = stage(n)
        return StageOracle(
            b_at=lambda rows: exact_b(chain, accept, rows),
            term_count=term_count,
            schedule=schedule,
        )

    return factory


def subshift_model_oracle(measure, schedule: QSchedule, lam: float, target_fn):
    """Stage factory for the cylinder targets ``target_fn(n)``, with the N
    summands whose N * P(B_n)^ell is closest to lam.  A stage raises
    ``ValidationError`` when ``measure`` is not its target's."""
    from .subshift import replicate_count

    def stage(n):
        target = target_fn(n)
        target.check_measure(measure)
        return (*target.chain, replicate_count(target, schedule.ell, lam))

    return pattern_chain_oracle(schedule, stage)
