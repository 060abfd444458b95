"""Finite Markov chains under a Doeblin condition.

Provides the invariant measure, a Doeblin certificate against the uniform
reference measure, geometric mixing-rate fits, seeded simulation of the
nonconventional arrival sum sum_l prod_j 1_Gamma(X_{q_j(l)}), and exact
joint-arrival probabilities (b-coefficients) via restricted matrix products.

The hit engine here (``_HitEngine``, with the batch loops ``sample_counts``
and ``sample_first``) samples all three models: the i.i.d. Bernoulli sites
as the chain whose rows are all (1 - p, p), and a Markov word set or a
subshift target through its pattern chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .distributions import CountDistribution
from .errors import CertificationError, ResourceError, ValidationError
from .rng import STREAM_MARKOV, derive_rng

ROW_SUM_TOL = 1e-12
DEFAULT_PATH_BUDGET = 10**7
LIFT_STATE_BUDGET = 1 << 12  # most lifted states: a dense S-by-S P of 128 MiB
EXACT_B_TIME_BUDGET = 4096  # most restriction times per exact_b row
_GATHER_CELLS = 1 << 20  # most gathered block cells per batched exact_b product (8 MiB)
_PROJECTION_TOL = 1e-15


class FiniteMarkovChain:
    """Row-stochastic transition matrix with an initial distribution.

    The chain is certified on construction: the smallest power n0 with a
    strictly positive n0-step matrix gives the Doeblin certificate
    (n0, C) against the uniform reference measure.
    """

    def __init__(self, P, nu=None, n0_max: int = 64):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValidationError(f"transition matrix must be square, got {P.shape}")
        if np.any(P < 0):
            raise ValidationError("transition matrix has negative entries")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValidationError("transition matrix rows must sum to 1 within 1e-12")
        self.P = P
        self.M = P.shape[0]
        if nu is None:
            nu = np.full(self.M, 1.0 / self.M)
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (self.M,) or np.any(nu < 0) or abs(nu.sum() - 1.0) > 1e-9:
            raise ValidationError("initial distribution must be a probability vector")
        self.nu = nu
        self.n0, self.C = doeblin_certificate(P, n0_max)
        self.mu = invariant_measure(self)
        # the level test compares with mu, which is known to about the
        # solve's residual
        resid = float(np.max(np.abs(self.mu @ P - self.mu)))
        if np.max(np.abs(nu @ P - nu)) <= resid:
            # a start law that is invariant to within the solve's residual
            # is the better mu: a pattern chain's nu is exact
            self.mu = nu / nu.sum()
        self._projection_tol = max(_PROJECTION_TOL, 8.0 * resid)
        # P^(2^k) for k = 0, 1, ..., ended by None at the first power that
        # is the stationary projection
        self._powers: list[np.ndarray | None] = [P]
        self._blocks: dict[tuple[int, ...], dict[int, np.ndarray]] = {}

    # -- exact linear algebra ------------------------------------------------

    @property
    def _projection_level(self) -> int | None:
        """The first binary power of P found to be the stationary projection."""
        return 1 << (len(self._powers) - 1) if self._powers[-1] is None else None

    def _power(self, bit: int) -> np.ndarray | None:
        # P^(2^bit), or None at and past the projection level: a power is the
        # projection once every row is proportional to mu to machine
        # precision.  Row sums are left out of the test: rounding leaves P's
        # rows 1e-16 off 1, and the powers' row sums drift as
        # (1 + defect)^(2^bit), which is not mixing.
        powers = self._powers
        while len(powers) <= bit and powers[-1] is not None:
            mat = powers[-1] @ powers[-1]
            shape = mat - mat.sum(axis=1, keepdims=True) * self.mu
            powers.append(None if np.max(np.abs(shape)) < self._projection_tol else mat)
        return powers[min(bit, len(powers) - 1)]

    def propagate(self, v: np.ndarray, steps: int) -> np.ndarray:
        """Row vector v P^steps, or each row of a (k, M) block, using cached
        binary powers."""
        if steps < 0:
            raise ValidationError("steps must be >= 0")
        out = v
        for bit in range(int(steps).bit_length()):
            if steps >> bit & 1:
                mat = self._power(bit)
                if mat is None:
                    # v's mass times mu, whether or not an earlier call found the level
                    return v.sum(axis=-1, keepdims=True) * self.mu
                out = out @ mat
        return out

    def restricted_block(self, gamma: tuple[int, ...], steps: int) -> np.ndarray:
        """P^steps[gamma, gamma] for sorted distinct states gamma, memoized.

        One |gamma|-row propagate builds a block; every step count at or
        past the projection level shares one block.
        """
        memo = self._blocks.setdefault(gamma, {})
        block = memo.get(self._block_key(steps))
        if block is None:
            block = self.propagate(np.eye(self.M)[list(gamma)], steps)[:, gamma]
            # keyed after propagating, which may have found the level
            memo[self._block_key(steps)] = block
        return block

    def _block_key(self, steps: int) -> int:
        lvl = self._projection_level
        return steps if lvl is None or steps < lvl else lvl


def doeblin_certificate(P, n0_max: int = 64) -> tuple[int, float]:
    """Smallest n0 with P^n0 entrywise positive, and the matching constant.

    With the uniform reference measure m, C = max(M * max P, 1 / (M * min P^n0))
    satisfies P(x, .) <= C m and P(n0, x, .) >= m / C.
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    Pk = np.eye(M)
    for n0 in range(1, n0_max + 1):
        Pk = Pk @ P
        mn = Pk.min()
        if mn > 0.0:
            C = max(M * P.max(), 1.0 / (M * mn))
            return n0, float(C)
    raise CertificationError(
        f"no positive power P^n0 for n0 <= {n0_max}; chain is reducible or periodic"
    )


def invariant_measure(chain: FiniteMarkovChain) -> np.ndarray:
    """Left fixed vector of P, solved directly and normalized."""
    M = chain.M
    A = chain.P.T - np.eye(M)
    A[-1, :] = 1.0
    b = np.zeros(M)
    b[-1] = 1.0
    mu = np.linalg.solve(A, b)
    if np.any(mu <= 0):
        raise CertificationError("invariant measure has nonpositive entries")
    resid = np.max(np.abs(mu @ chain.P - mu))
    if resid > 1e-10:
        raise CertificationError(f"invariant-measure residual {resid} above 1e-10")
    return mu


@dataclass(frozen=True)
class MixingCertificate:
    C1: float
    beta: float
    distances: tuple[float, ...]  # d(n) for n = 1..horizon


def envelope_fit(d) -> tuple[float, float]:
    """Tightest envelope C e^{-beta g} over distances d(g), g = 1..len(d).

    beta comes from a least-squares fit of log d(g) over the usable points
    (d(g) > 1e-12; smaller values are float noise near the stationary
    projection) in the tail g > len(d) // 2, or over every usable point when
    the tail has fewer than two.  C is then raised until C e^{-beta g}
    dominates every d(g).  Fewer than two usable points mean exact mixing:
    (0, inf).
    """
    usable = [g for g in range(1, len(d) + 1) if d[g - 1] > 1e-12]
    if len(usable) < 2:
        return 0.0, math.inf
    tail = [g for g in usable if g > len(d) // 2]
    fit = tail if len(tail) >= 2 else usable
    slope, _ = np.polyfit(fit, [math.log(d[g - 1]) for g in fit], 1)
    beta = -float(slope)
    if beta <= 0:
        raise CertificationError("mixing distances are not geometrically decaying")
    # the scalar exp: np.exp moves C in the last bit
    C = max(d[g - 1] * math.exp(beta * g) for g in range(1, len(d) + 1))
    return float(C), beta


def mixing_rate(chain: FiniteMarkovChain, horizon: int = 64) -> MixingCertificate:
    """Tightest exponential envelope on density discrepancies.

    d(n) = max_{x,y} |M * P^n(x,y) - M * mu(y)| (densities against uniform),
    for n = 1..horizon, fit by ``envelope_fit``.  Chains that mix exactly
    report C1 = 0 and beta = inf.
    """
    M = chain.M
    target = np.tile(chain.mu, (M, 1))
    Pk = np.eye(M)
    d = []
    for _ in range(horizon):
        Pk = Pk @ chain.P
        d.append(float(M * np.max(np.abs(Pk - target))))
    C1, beta = envelope_fit(d)
    return MixingCertificate(C1=C1, beta=beta, distances=tuple(d))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_arrival_sum(chain, schedule, gamma, n: int, seed: int) -> int:
    """One draw of the arrival count over terms l = 1..n."""
    return int(simulate_arrival_batch(chain, schedule, gamma, n, seed, 1)[0])


def simulate_arrival_batch(chain, schedule, gamma, n, seed, replicates) -> np.ndarray:
    """Arrival-count draws across replicates.

    Counts the l <= n whose q_j(l)-positions all land in gamma along a path
    X_0..X_{q_ell(n)} started from nu, by sampling the chain's entries into
    gamma with ``_HitEngine``.
    """
    gamma = sorted({int(g) for g in gamma})
    if any(g < 0 or g >= chain.M for g in gamma):
        raise ValidationError("gamma contains out-of-range states")
    if not gamma:
        return np.zeros(replicates, dtype=np.int64)
    q_cols = schedule.columns(n)
    expected_hits = max(1.0, (q_cols[-1, -1] + 1) * float(chain.mu[gamma].sum()))
    return sample_counts(
        chain, gamma, q_cols, derive_rng(seed, STREAM_MARKOV), replicates, expected_hits
    )


# ---------------------------------------------------------------------------
# Sparse hit engine
# ---------------------------------------------------------------------------

_GAP_TAIL_TOL = 1e-15
_GAP_BLOCK = 512  # most steps of the killed chain per blocked power (a power of two)
# most 8-byte cells held in the blocked powers, again in the event tables
# and again in the guide tables: 128 MiB each
_ENGINE_CELL_BUDGET = 1 << 24
_FIRST_ARRIVAL_STAGES = 8  # equal term stages of sample_first


class _HitEngine:
    """Exact sampler for the times at which a chain enters its accept states.

    On a pattern chain (see ``subshift.pattern_chain``) these are the
    positions where the sliding window lands in B_n; on a Markov chain they
    are the times X_t lies in gamma.  Built once per (chain, accept,
    horizon); replicates then draw i.i.d. first-passage gaps, since after
    an entry the chain sits in a known accept state.

    The tables are the joint laws of (first entry time, accept state):
    ``init_*`` from ``chain.nu`` at times >= 0, and ``gap_tables[j]`` from
    accept state j at times >= 1.  They come from blocked powers of the
    chain killed on the accept states: K^k H for k < B and K^B, one matrix
    product per block of B steps for all tables.  B is the smallest power
    of two that covers the horizon, at most ``_GAP_BLOCK``, halved until
    the B x live x accept cells of the blocked powers fit in
    ``_ENGINE_CELL_BUDGET``.  The dense event tables, (1 + accept) x steps
    x accept cells, must fit in the same budget.  Either overrun raises
    ``ResourceError`` before the array is allocated.

    Draws use indexed search (Chen & Asau 1974; Devroye 1986, III.2.4).
    The tables are also stored flat, in the order gap table 0, ..., gap
    table A - 1, initial table, so that an entry's accept state is the
    flat index of the table of the next gap.  Each table is followed by a
    sentinel slot, the draw of "no further hit", whose time lies past the
    horizon.  A table of L entries has a guide of G + 1 cells, G the
    smallest power of two >= 2 L: guide[k] = searchsorted(cdf, k / G,
    "right").  A uniform u in bucket k = floor(u G) draws guide[k] when
    guide[k + 1] equals it, and otherwise bisects between the two; k / G
    and u G are exact in float64, so every draw equals
    ``searchsorted(cdf, u, "right")``.  The guides' cells are checked by
    ``_check_cells`` before they are allocated.

    A table stops at the first time t whose survival mass (no entry in
    [t0, t]) is below ``_GAP_TAIL_TOL``, or at the horizon.  The mass left
    off the cdf is a draw of "no further hit".  ``tail_mass[k]`` is the
    survival mass that the tolerance cut drops from table k (0 when the
    table reaches the horizon first); it is below ``_GAP_TAIL_TOL``, and it
    bounds the probability that one draw from that table misses a hit
    within the horizon, so a replicate's hit set differs from an exact one
    with probability at most ``_GAP_TAIL_TOL`` times its expected number of
    hits plus one.  ``horizon_mass[k]`` is the survival mass at the horizon
    (0 when the tolerance cut comes first): hits past the horizon, which
    the sampler discards anyway.  Table 0 is ``init_*``, table k >= 1 is
    ``gap_tables[k - 1]``.
    """

    def __init__(self, chain: FiniteMarkovChain, accept, horizon: int):
        self.horizon = horizon
        accept = np.asarray(accept, dtype=np.int64)
        live = np.setdiff1d(np.arange(chain.M), accept)
        A = accept.size
        B = min(_GAP_BLOCK, 1 << max(0, horizon - 1).bit_length())
        while B > 1 and B * live.size * A > _ENGINE_CELL_BUDGET:
            B //= 2
        _check_cells("blocked powers", B * live.size * A)
        _check_cells("event tables", (1 + A) * (1 + B) * A)
        K = chain.P[np.ix_(live, live)]
        H = chain.P[np.ix_(live, accept)]
        # the initial table starts at time 0 from nu, gap tables at time 1
        # from one step out of each accept state
        first = np.vstack([chain.nu[accept], chain.P[np.ix_(accept, accept)]])
        U = np.vstack([chain.nu[live], chain.P[np.ix_(accept, live)]])
        t0 = np.array([0] + [1] * A)
        # E[:, k*A:(k+1)*A] = K^k H (entries at step k + 1), R[:, k] = K^(k+1) 1;
        # E is filled in place, in the layout the block products read
        E = np.empty((live.size, B, A))
        R = np.empty((live.size, B))
        E[:, 0], R[:, 0] = H, K.sum(axis=1)
        for k in range(1, B):
            E[:, k], R[:, k] = K @ E[:, k - 1], K @ R[:, k - 1]
        E = E.reshape(live.size, B * A)
        KB = None  # K^B, squared out only when a second block is needed
        events, survival = [first[:, None, :]], [U.sum(axis=1)[:, None]]
        steps = 0  # steps taken past each table's t0
        cut = self._cuts(survival[0], t0, 0)
        while np.any(cut < 0):
            if steps:
                _check_cells("event tables", (1 + A) * (steps + 1 + B) * A)
                if KB is None:
                    KB = K
                    for _ in range(B.bit_length() - 1):
                        KB = KB @ KB
                U = U @ KB
            events.append((U @ E).reshape(-1, B, A))
            survival.append(U @ R)
            cut = np.where(cut < 0, self._cuts(survival[-1], t0, steps + 1), cut)
            steps += B
        del E, KB
        survival = np.concatenate(survival, axis=1)
        left = survival[np.arange(t0.size), cut]
        at_horizon = t0 + cut >= horizon
        self.tail_mass = np.where(at_horizon, 0.0, left)
        self.horizon_mass = np.where(at_horizon, left, 0.0)
        tables = []
        for k in range(t0.size):
            # table k's events, one block at a time, so that the blocks are
            # never copied whole
            ev = np.concatenate([blk[k] for blk in events])[: cut[k] + 1]
            steps_k, states = np.nonzero(ev > 0)
            tables.append((steps_k + t0[k], states, np.cumsum(ev[steps_k, states])))
        del events, ev
        self._store(tables[1:] + tables[:1])

    def _store(self, tables):
        """Lay the tables out flat in the given order, each followed by a
        sentinel slot, and build their guides; the last is the initial
        table."""
        sizes = np.array([cdf.size for _, _, cdf in tables])
        # G: the smallest power of two >= 2 L
        G = np.array([1 << max(1, (2 * L - 1).bit_length()) for L in sizes.tolist()])
        _check_cells("guide tables", int(G.sum()) + G.size)
        start = np.cumsum(sizes + 1) - (sizes + 1)
        self._gstart = np.cumsum(G + 1) - (G + 1)
        self._buckets = G.astype(float)
        self._init = len(tables) - 1
        total = int(sizes.sum()) + sizes.size
        # a sentinel's time is past any horizon, so drawing it ends the replicate
        self._time = np.full(total, self.horizon + 1, dtype=np.int64)
        self._next = np.zeros(total, dtype=np.int64)
        self._cdf = np.full(total, np.inf)
        self._guide = np.empty(int(G.sum()) + G.size, dtype=np.int64)
        views = []
        for (times, blocks, cdf), a, g, n in zip(tables, start, self._gstart, G):
            b = a + cdf.size
            self._time[a:b], self._next[a:b], self._cdf[a:b] = times, blocks, cdf
            edges = np.arange(n + 1) / n
            self._guide[g : g + n + 1] = a + np.searchsorted(cdf, edges, side="right")
            views.append((self._time[a:b], self._next[a:b], self._cdf[a:b]))
        *self.gap_tables, (self.init_times, self.init_blocks, self.init_cdf) = views

    def _cuts(self, survival, t0, start):
        """Per table, the first column j of ``survival`` (step start + j)
        where the table stops, or -1."""
        j = np.arange(survival.shape[1])
        stop = (survival < _GAP_TAIL_TOL) | (t0[:, None] + start + j >= self.horizon)
        return np.where(stop.any(axis=1), start + stop.argmax(axis=1), -1)

    def _draw(self, table, u):
        """Flat index of the entry that each uniform ``u`` draws from its
        table, or of the table's sentinel: ``searchsorted(cdf, u, "right")``
        by the guide.  u G is exact in float64, so u's bucket k holds
        k/G <= u < (k+1)/G and its index lies in [guide[k], guide[k+1]]."""
        g = self._gstart[table] + (u * self._buckets[table]).astype(np.int64)
        idx, hi = self._guide[g], self._guide[g + 1]
        open_ = np.flatnonzero(idx < hi)
        if open_.size:
            # bisect [lo, lo + n) for the first cdf value above u; lo + n
            # is at most the sentinel, whose cdf is inf
            lo, n, uo = idx[open_], hi[open_] - idx[open_], u[open_]
            while n.any():
                half = n >> 1
                right = (self._cdf[lo + half] <= uo) & (n > 0)
                lo = np.where(right, lo + half + 1, lo)
                n = np.where(right, n - half - 1, half)
            idx[open_] = lo
        return idx

    def start(self, rng, replicates: int) -> _Pending:
        """A fresh batch for ``sample_hits``: every replicate's first hit,
        drawn from the initial table."""
        shift = _key_shift(self.horizon, replicates)
        base = np.arange(replicates, dtype=np.int64)
        return _Pending(*self._step(rng, base, np.full(replicates, self._init), shift), shift)

    def sample_hits(self, rng, pending: _Pending, limit: int) -> np.ndarray:
        """Packed hit keys (position << s) | replicate of the ``pending``
        batch's hits at positions <= ``limit``, unsorted; s is
        ``pending.shift``.

        Each round emits the pending hits at or below the limit and draws
        the next hit of each of their replicates.  A replicate's first hit
        past the limit stays pending with its next table, to be emitted by
        a later call with a larger limit: it is never redrawn, so a batch
        advanced over several limits draws the same renewal process as one
        call at the horizon.  A replicate with no hit left within the
        horizon leaves the batch.
        """
        cut = (limit + 1) << pending.shift  # keys of positions past the limit
        key, table = pending.key, pending.table
        # One buffer, doubled when full: a list of the rounds' arrays
        # (hundreds, of up to 160 KB each) fills the malloc heap, and how much
        # of it stays resident once they are freed varies from run to run by
        # up to 20 MB.
        out, n = np.empty(16 * key.size, dtype=np.int64), 0
        parked = []
        while key.size:
            late = key >= cut
            if late.any():
                parked.append((key[late], table[late]))
                key, table = key[~late], table[~late]
            if n + key.size > out.size:
                grown = np.empty(2 * (n + key.size), dtype=np.int64)
                grown[:n] = out[:n]
                out = grown
            out[n : n + key.size] = key
            n += key.size
            key, table = self._step(rng, key, table, pending.shift)
        pending.key = np.concatenate([key] + [k for k, _ in parked])
        pending.table = np.concatenate([table] + [t for _, t in parked])
        return out[:n]

    def _step(self, rng, key, table, shift: int):
        """The hit after each key, drawn from its table by one
        ``rng.random`` call handed out in table order, and in array order
        within a table; keys past the horizon are dropped.  Returns the new
        (key, table)."""
        u = rng.random(key.size)
        if len(self.gap_tables) > 1:  # with one gap table, array order is table order
            by_table = np.empty_like(u)
            by_table[np.argsort(table, kind="stable")] = u
            u = by_table
        idx = self._draw(table, u)
        step = self._time[idx] << shift
        ok = step < ((self.horizon + 1) << shift) - key
        return key[ok] + step[ok], self._next[idx[ok]]


@dataclass
class _Pending:
    """A batch between ``_HitEngine.sample_hits`` calls: per live
    replicate, its next hit, drawn but not yet emitted, as a packed key
    (position << shift) | replicate (see ``_key_shift``), and the table of
    the gap after it."""

    key: np.ndarray
    table: np.ndarray
    shift: int

    def retire(self, done: np.ndarray):
        """Drop the replicates whose entry of the boolean ``done`` is set."""
        keep = ~done[self.key & ((1 << self.shift) - 1)]
        self.key, self.table = self.key[keep], self.table[keep]


def _check_cells(what: str, cells: int):
    if cells > _ENGINE_CELL_BUDGET:
        raise ResourceError(
            f"hit engine {what} need {cells} cells, over the budget of {_ENGINE_CELL_BUDGET}"
        )


def _key_shift(horizon: int, replicates: int) -> int:
    """Bits s of the replicate field of the packed hit keys (position << s)
    | replicate: the bit length of the largest replicate id.  Raises
    ``ResourceError`` when (horizon + 1) << s does not fit in int64."""
    shift = max(0, replicates - 1).bit_length()
    if (horizon + 1) << shift > np.iinfo(np.int64).max:
        raise ResourceError(
            f"hit keys of horizon {horizon} and {replicates} replicates overflow int64"
        )
    return shift


def _counts_and_first(q_cols, keys, replicates):
    """Per-replicate arrival count and first arriving term l (0 = none),
    from packed hit keys (position << s) | replicate (see ``_key_shift``).

    The keys are sorted once, in place, so each distinct position is a
    run.  Each q_j is inverted on the distinct positions only, and turns
    the hits at q_j-positions into the sorted list of (l << s) | replicate.
    A term arrives in a replicate when its key is in all ell lists: one
    sort of the lists side by side puts its ell copies together.  Sorted
    by (l, replicate), each replicate's first arrival is its first term.
    Memory is O(hits + N), whatever the horizon.
    """
    N, ell = q_cols.shape
    shift = _key_shift(int(q_cols[-1, -1]), replicates)
    keys.sort()
    pos = keys >> shift
    new = np.empty(pos.size, dtype=bool)
    new[:1] = True
    np.not_equal(pos[1:], pos[:-1], out=new[1:])
    run_start = np.flatnonzero(new)
    del new
    at = pos[run_start]
    del pos
    runs = np.diff(run_start, append=keys.size)
    mask = (1 << shift) - 1
    terms, on = [], []
    for j in range(ell):
        li = np.minimum(np.searchsorted(q_cols[:, j], at), N - 1)
        on.append(q_cols[li, j] == at)
        terms.append(li[on[j]] + 1)
    lists = np.empty(sum(int(runs[o].sum()) for o in on), dtype=np.int64)
    end = 0
    for term, o in zip(terms, on):
        seg = lists[end : end + int(runs[o].sum())]
        np.bitwise_and(keys[np.repeat(o, runs)], mask, out=seg)
        seg |= np.repeat(term << shift, runs[o])
        end += seg.size
    lists.sort(kind="stable")  # ell sorted runs: a merge
    m = max(0, lists.size - ell + 1)
    arrivals = lists[:m][lists[ell - 1 :] == lists[:m]]
    reps = arrivals & mask
    counts = np.bincount(reps, minlength=replicates)
    first = np.zeros(replicates, dtype=np.int64)
    arrived, lead = np.unique(reps, return_index=True)
    first[arrived] = arrivals[lead] >> shift
    return counts, first


def _first_arrivals(q_cols, replicates: int, hits, stages: int) -> np.ndarray:
    """Per-replicate first arriving term l (0 = none), counted over the
    terms 1..N split into ``stages`` equal stages (N_(k-1), N_k].

    Stage k takes ``hits(q_ell(N_k), done)``: the hits at positions up to
    q_ell(N_k) that earlier stages did not take, of the replicates whose
    ``done`` entry is unset.  ``_counts_and_first`` counts the stage's
    terms over those hits and the carried earlier ones at positions >=
    q_1(N_(k-1) + 1), the least position a stage-k term reads.  The
    replicates that arrived are then done, and their hits leave the carry.
    """
    N = len(q_cols)
    shift = _key_shift(int(q_cols[-1, -1]), replicates)
    first = np.zeros(replicates, dtype=np.int64)
    done = np.zeros(replicates, dtype=bool)
    carry = np.empty(0, dtype=np.int64)
    lo = 0
    for hi in sorted({N * k // stages for k in range(1, stages + 1)} - {0}):
        keys = np.concatenate([carry, hits(int(q_cols[hi - 1, -1]), done)])
        _, stage_first = _counts_and_first(q_cols[lo:hi], keys, replicates)  # sorts keys
        arrived = stage_first > 0
        first[arrived] = stage_first[arrived] + lo
        done |= arrived
        if hi < N:
            carry = keys[np.searchsorted(keys, int(q_cols[hi, 0]) << shift) :]
            carry = carry[~done[carry & ((1 << shift) - 1)]]
        lo = hi
    return first


def _batches(chain, accept, q_cols, replicates: int, expected_hits: float):
    """(engine, replicate slice) of each batch of about 2e7 expected hits,
    all drawn from one ``_HitEngine`` over the horizon q_ell(N).  Raises
    ``ResourceError`` before building the engine when a batch's keys would
    overflow int64 (see ``_key_shift``)."""
    horizon = int(q_cols[-1, -1])
    batch = max(64, min(replicates, int(2e7 / expected_hits)))
    _key_shift(horizon, min(batch, replicates))
    engine = _HitEngine(chain, accept, horizon)
    for done in range(0, replicates, batch):
        yield engine, slice(done, min(done + batch, replicates))


def sample_counts(chain, accept, q_cols, rng, replicates: int, expected_hits: float):
    """Per-replicate arrival count of the terms whose positions ``q_cols``
    all fall where ``chain`` sits in ``accept``, started from ``chain.nu``.

    Each batch (see ``_batches``) draws all its hits up to the horizon as
    packed int64 keys, which ``_counts_and_first`` counts.  A batch peaks
    near 35 B per hit under ``tracemalloc`` (634 MiB for the 2.0e7 hits of
    the A4 target at n = 8).  First arrivals come from ``sample_first``,
    which stops each replicate at its first arrival and leaves their law
    unchanged.
    """
    counts = np.empty(replicates, dtype=np.int64)
    for engine, part in _batches(chain, accept, q_cols, replicates, expected_hits):
        r = part.stop - part.start
        hits = engine.sample_hits(rng, engine.start(rng, r), engine.horizon)
        counts[part] = _counts_and_first(q_cols, hits, r)[0]
    return counts


def sample_first(chain, accept, q_cols, rng, replicates: int, expected_hits: float):
    """Per-replicate first arriving term l (0 = none) of the terms that
    ``sample_counts`` counts, with the same law.

    Each batch advances over ``_FIRST_ARRIVAL_STAGES`` term stages (see
    ``_first_arrivals``), and a replicate stops drawing hits at the stage
    of its first arrival.
    """
    first = np.empty(replicates, dtype=np.int64)
    for engine, part in _batches(chain, accept, q_cols, replicates, expected_hits):
        r = part.stop - part.start
        pending = engine.start(rng, r)

        def hits(limit, done):
            pending.retire(done)
            return engine.sample_hits(rng, pending, limit)

        first[part] = _first_arrivals(q_cols, r, hits, _FIRST_ARRIVAL_STAGES)
    return first


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def exact_b(chain, gamma, times):
    """P(X_t in gamma at every t in a row of ``times``), exact: K floats for
    a (K, T) int array of nondecreasing times >= 0, a float for one 1-D row.

    A row's b is (nu P^{t1})[gamma] B(t2 - t1) ... B(tT - t(T-1)) 1 with the
    memoized blocks B(d) = P^d[gamma, gamma] of ``chain.restricted_block``
    (B(0) = I).  All rows advance together, one batched product per column
    over at most ``_GATHER_CELLS`` gathered block cells.  Raises
    ``ResourceError`` on more than ``EXACT_B_TIME_BUDGET`` times per row.
    """
    gamma = tuple(sorted({int(g) for g in gamma}))
    if any(g < 0 or g >= chain.M for g in gamma):
        raise ValidationError("gamma contains out-of-range states")
    rows = np.atleast_2d(np.asarray(times, dtype=np.int64))
    if rows.shape[1] > EXACT_B_TIME_BUDGET:
        raise ResourceError(
            f"{rows.shape[1]} restriction times exceed budget {EXACT_B_TIME_BUDGET}"
        )
    out = np.full(len(rows), float(chain.nu.sum()))
    if rows.size:  # propagate refuses a negative first time or gap
        t0, start_of = np.unique(rows[:, 0], return_inverse=True)
        starts = np.stack([chain.propagate(chain.nu, int(t)) for t in t0])[:, list(gamma)]
        d, block_of = np.unique(np.diff(rows, axis=1), return_inverse=True)
        blocks = np.array([chain.restricted_block(gamma, int(x)) for x in d])
        step = max(1, _GATHER_CELLS // max(1, len(gamma)) ** 2)
        for lo in range(0, len(rows), step):
            v = starts[start_of[lo : lo + step]]
            for col in block_of.reshape(len(rows), -1)[lo : lo + step].T:
                v = (v[:, None, :] @ blocks[col])[:, 0, :]
            out[lo : lo + step] = v.sum(axis=1)
    return float(out[0]) if np.ndim(times) == 1 else out


def exact_sum_distribution(
    chain, schedule, gamma, n: int, path_budget: int = DEFAULT_PATH_BUDGET
) -> CountDistribution:
    """Exact law of the arrival count by weighted full-path enumeration.

    Only feasible for tiny horizons: M^(q_ell(n)+1) paths are enumerated.
    """
    gamma = frozenset(int(g) for g in gamma)
    horizon = schedule.max_index(n)
    n_paths = chain.M ** (horizon + 1)
    if n_paths > path_budget:
        raise ResourceError(
            f"{chain.M}^{horizon + 1} = {n_paths} paths exceed budget {path_budget}"
        )
    times = schedule.columns(n).tolist()
    pmf = np.zeros(n + 1)
    for path in iter_product(range(chain.M), repeat=horizon + 1):
        w = chain.nu[path[0]]
        if w == 0.0:
            continue
        for a, b in zip(path, path[1:]):
            w *= chain.P[a, b]
            if w == 0.0:
                break
        if w == 0.0:
            continue
        count = sum(1 for tup in times if all(path[t] in gamma for t in tup))
        pmf[count] += w
    out = {k: float(v) for k, v in enumerate(pmf) if v > 0.0}
    return CountDistribution(pmf=out, kind="exact")


# ---------------------------------------------------------------------------
# Target sets with prescribed invariant mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetSet:
    words: tuple[tuple[int, ...], ...]  # Gamma_n: k-words, in lexicographic order
    mass: float  # mu(Gamma_n), the sum of the words' cylinder masses
    realized_lambda: float


@dataclass(frozen=True)
class TargetSetSequence:
    lam: float
    ell: int
    measure: object  # the chain's MarkovGibbsMeasure, whose cylinders the words are
    entries: dict[int, TargetSet]


def lex_words(adjacency, starts, length: int):
    """Yield, in lexicographic order, the words of ``length`` symbols that
    begin with a symbol in ``starts`` and step only along nonzero entries
    of ``adjacency``."""
    succ = [np.flatnonzero(row).tolist() for row in np.asarray(adjacency)]
    stack = [(int(a),) for a in reversed(starts)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
            continue
        stack.extend(w + (a,) for a in reversed(succ[w[-1]]))


def word_lift(chain: FiniteMarkovChain, k: int):
    """Lift to the chain of sliding k-words: the tests' reference embedding.

    States are admissible words (w_0..w_{k-1}) with positive path weight;
    transitions shift by one symbol.  Returns (lifted chain, word list).
    The lifted initial distribution is the stationary word law, matching a
    base chain started from its invariant measure.  Raises ``ResourceError``
    before enumerating when there are more than ``LIFT_STATE_BUDGET`` words,
    which bounds the dense lifted matrix at ``8 * LIFT_STATE_BUDGET**2`` bytes.
    """
    if k < 1:
        raise ValidationError("lift order must be >= 1")
    # words ending in each state, from the adjacency's powers; saturating
    # at budget + 1 keeps the counts in int64 and the verdict unchanged
    adjacency = (chain.P > 0).astype(np.int64)
    ending = (chain.mu > 0).astype(np.int64)
    for _ in range(k - 1):
        ending = np.minimum(ending @ adjacency, LIFT_STATE_BUDGET + 1)
    if ending.sum() > LIFT_STATE_BUDGET:
        raise ResourceError(
            f"lift of order {k} has more than {LIFT_STATE_BUDGET} admissible words"
        )
    words = list(lex_words(chain.P > 0, np.flatnonzero(chain.mu > 0), k))
    pos = {w: i for i, w in enumerate(words)}
    S = len(words)
    P = np.zeros((S, S))
    nu = np.zeros(S)
    for i, w in enumerate(words):
        weight = chain.mu[w[0]]
        for a, b in zip(w, w[1:]):
            weight *= chain.P[a, b]
        nu[i] = weight
        for s in range(chain.M):
            if chain.P[w[-1], s] > 0:
                P[i, pos[w[1:] + (s,)]] = chain.P[w[-1], s]
    nu /= nu.sum()
    return FiniteMarkovChain(P, nu), words


def choose_target_sets(
    chain: FiniteMarkovChain,
    ell: int,
    lam: float,
    n_grid,
    tolerance: float = 0.2,
    max_lift: int = 12,
) -> TargetSetSequence:
    """Pick sets Gamma_n of k-words with n * mu(Gamma_n)^ell close to lam.

    A small alphabet cannot realize arbitrarily small masses, so Gamma_n is
    assembled greedily from the k-word cylinders, raising k up to
    ``max_lift`` until the realized lambda is within tolerance: by
    descending mass, ties colexicographic (from the last symbol), a word
    joins while the total stays within target + 1e-15.  The masses of the
    M^k words form one array; an array over ``_ENGINE_CELL_BUDGET`` cells
    raises ``ResourceError`` before it is allocated.
    """
    from .subshift import MarkovGibbsMeasure, SubshiftSFT

    M = chain.M
    if M < 2:
        raise ValidationError("need at least 2 states")
    measure = MarkovGibbsMeasure(SubshiftSFT.from_matrix(chain.P > 0), chain.P)
    entries = {}
    for n in sorted(set(int(v) for v in n_grid)):
        target_mass = (lam / n) ** (1.0 / ell)
        if target_mass >= 1.0:
            raise ValidationError(
                f"target mass {target_mass:.4g} >= 1 at n={n}; lam too large for this n"
            )
        best = None
        for k in range(1, max_lift + 1):
            if M**k > _ENGINE_CELL_BUDGET:
                raise ResourceError(f"{M}^{k} words exceed the cell budget {_ENGINE_CELL_BUDGET}")
            # pi(w_0) Q(w_0, w_1) ... left to right; w_(k-1) is the top digit
            mass = measure.pi
            for _ in range(k - 1):
                mass = (measure.Q.T[:, :, None] * mass.reshape(M, -1)).reshape(-1)
            total, chosen = 0.0, []
            for i in np.argsort(-mass, kind="stable")[: np.count_nonzero(mass)]:
                if total + mass[i] <= target_mass + 1e-15:
                    chosen.append(i)
                    total += mass[i]
                    if total >= target_mass:
                        break
            if not chosen:
                continue
            realized = n * total**ell
            err = abs(realized - lam) / lam
            if best is None or err < best[0]:
                best = (err, k, chosen, total, realized)
            if err <= tolerance:
                break
        if best is None or best[0] > tolerance:
            raise ValidationError(
                f"cannot reach lambda tolerance {tolerance} at n={n}; raise max_lift"
            )
        _, k, chosen, total, realized = best
        # unravel_index reads the most significant digit, w_(k-1), first
        words = sorted(tuple(int(a) for a in np.unravel_index(i, (M,) * k)[::-1]) for i in chosen)
        entries[n] = TargetSet(tuple(words), float(total), float(realized))
    return TargetSetSequence(lam=lam, ell=ell, measure=measure, entries=entries)
