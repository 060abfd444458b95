"""Finite Markov chains under a Doeblin condition.

Provides the invariant measure, a Doeblin certificate against the uniform
reference measure, geometric mixing-rate fits, seeded simulation of the
nonconventional arrival sum sum_l prod_j 1_Gamma(X_{q_j(l)}), and exact
joint-arrival probabilities (b-coefficients) via restricted matrix products.
The frontier DP ``_frontier_law`` gives the exact count law of all three
models: of a Markov state set here, of a subshift target on its pattern
chain, and of each Bernoulli incidence class on a one-state chain.

The hit engine here (``_HitEngine``, with the batch loops ``sample_counts``
and ``sample_first``) samples all three models: the i.i.d. Bernoulli sites
as the chain whose rows are all (1 - p, p), and a Markov word set or a
subshift target through its pattern chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import CountDistribution
from .errors import CertificationError, ResourceError, ValidationError
from .rng import STREAM_MARKOV, derive_rng

ROW_SUM_TOL = 1e-12
LAW_CELL_BUDGET = 2**22  # most floats in one frontier DP state array; the DP peaks near 3x
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

def _states(chain, gamma) -> list[int]:
    """The distinct states of ``gamma``, sorted; a state outside 0..M-1
    raises ``ValidationError``."""
    gamma = sorted({int(g) for g in gamma})
    if any(g < 0 or g >= chain.M for g in gamma):
        raise ValidationError("gamma contains out-of-range states")
    return gamma


def simulate_arrival_sum(chain, schedule, gamma, n: int, seed: int) -> int:
    """One draw of the arrival count over terms l = 1..n."""
    return int(simulate_arrival_batch(chain, schedule, gamma, n, seed, 1)[0])


def simulate_arrival_batch(chain, schedule, gamma, n, seed, replicates) -> np.ndarray:
    """Arrival-count draws across replicates.

    Counts the l <= n whose q_j(l)-positions all land in gamma along a path
    X_0..X_{q_ell(n)} started from nu, by sampling the chain's entries into
    gamma with ``_HitEngine``.
    """
    gamma = _states(chain, gamma)
    if not gamma:
        return np.zeros(replicates, dtype=np.int64)
    return sample_counts(
        chain, gamma, schedule.columns(n), derive_rng(seed, STREAM_MARKOV), replicates
    )


# ---------------------------------------------------------------------------
# Sparse hit engine
# ---------------------------------------------------------------------------

_GAP_TAIL_TOL = 1e-15
_GAP_BLOCK = 512  # most steps of the killed chain per blocked power (a power of two)
# most 8-byte cells held in the blocked powers, again in the event tables
# and again in the bucket words: 128 MiB each
_ENGINE_CELL_BUDGET = 1 << 24
_FIRST_ARRIVAL_STAGES = 8  # equal term stages of sample_first
# most keys in a counted term block's slices, and most rows; at 2^18 the
# blocks' temporaries left the subshift benchmark's peak RSS at one of two
# levels 6 MB apart, by heap layout
_COUNT_BLOCK = 1 << 17


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
    horizon.  A draw comes out as the slot's word (time << b) | next
    table, b the bits of a table index.  A table of L entries has G
    buckets, G the smallest power of two >= 2 L; a uniform u falls in
    bucket k = floor(u G), and k / G <= u < (k + 1) / G is exact in
    float64.  Bucket k is closed when searchsorted(cdf, k / G, "right")
    and searchsorted(cdf, (k + 1) / G, "right") agree: every u in it
    draws that slot, and the bucket holds the slot's word, one gather a
    draw.  An open bucket holds -1, and the open draws of a round are
    searched in one call: each slot has the key (table, cdf), a complex
    number with the table as real part and the cdf as imaginary part (inf
    for a sentinel), so the flat keys are sorted, and the right-side
    search for (table, u) finds the first slot of that table whose cdf
    exceeds u.  Every draw is the slot of ``searchsorted(cdf, u,
    "right")``.  The bucket words are checked by ``_check_cells`` before
    they are allocated.

    On the benchmark's A4 targets about 4.5% of the draws land in open
    buckets.  In process (2-core VM, numpy 2.4), sampling the 5.1e6 hits
    of 20,000 replicates at n = 8 takes about 0.145 s of CPU, against
    0.184 s when a draw read two guide cells and then the slot's time and
    next table.

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
        self.rate = float(chain.mu[accept].sum())  # stationary hits per position
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
        sentinel slot, and fill their bucket words; the last is the initial
        table."""
        sizes = np.array([cdf.size for _, _, cdf in tables])
        # G: the smallest power of two >= 2 L
        G = np.array([1 << max(1, (2 * L - 1).bit_length()) for L in sizes.tolist()])
        _check_cells("bucket words", int(G.sum()))
        self._bits = max(1, (len(tables) - 1).bit_length())
        if (self.horizon + 1) << self._bits > np.iinfo(np.int64).max:
            raise ResourceError(
                f"hit engine words of horizon {self.horizon} and {len(tables)} tables "
                f"overflow int64"
            )
        start = np.cumsum(sizes + 1) - (sizes + 1)
        self._gstart = np.cumsum(G) - G
        self._buckets = G.astype(float)
        self._init = len(tables) - 1
        total = int(sizes.sum()) + sizes.size
        # a sentinel's time is past any horizon, so drawing it ends the replicate
        self._time = np.full(total, self.horizon + 1, dtype=np.int64)
        self._next = np.zeros(total, dtype=np.int64)
        # slot keys (table, cdf), sorted lexicographically as complex numbers;
        # set part by part, since table + 1j * inf has a NaN real part
        self._key = np.empty(total, dtype=complex)
        self._key.real = np.repeat(np.arange(sizes.size), sizes + 1)
        self._key.imag = np.inf
        cdfs = self._key.imag
        self._word = np.empty(int(G.sum()), dtype=np.int64)
        views = []
        for (times, blocks, cdf), a, g, n in zip(tables, start, self._gstart, G):
            b = a + cdf.size
            self._time[a:b], self._next[a:b], cdfs[a:b] = times, blocks, cdf
            edges = a + np.searchsorted(cdf, np.arange(n + 1) / n, side="right")
            lo = edges[:-1]
            self._word[g : g + n] = np.where(lo == edges[1:], self._slot_word(lo), -1)
            views.append((self._time[a:b], self._next[a:b], cdfs[a:b]))
        *self.gap_tables, (self.init_times, self.init_blocks, self.init_cdf) = views

    def _cuts(self, survival, t0, start):
        """Per table, the first column j of ``survival`` (step start + j)
        where the table stops, or -1."""
        j = np.arange(survival.shape[1])
        stop = (survival < _GAP_TAIL_TOL) | (t0[:, None] + start + j >= self.horizon)
        return np.where(stop.any(axis=1), start + stop.argmax(axis=1), -1)

    def _slot_word(self, idx):
        """The words (time << b) | next table of the flat slots ``idx``."""
        return (self._time[idx] << self._bits) | self._next[idx]

    def _draw(self, table, u):
        """The word of the slot that each uniform ``u`` draws from its table
        (the slot of ``searchsorted(cdf, u, "right")``, a sentinel when u >=
        cdf[-1]): its bucket's word when the bucket is closed; the open
        buckets search the slot keys for (table, u) in one call."""
        # take: about twice as fast as fancy indexing on these arrays
        g = self._gstart.take(table) + (u * self._buckets.take(table)).astype(np.int64)
        word = self._word.take(g)
        open_ = np.flatnonzero(word < 0)
        if open_.size:
            query = np.empty(open_.size, dtype=complex)
            query.real = table if np.ndim(table) == 0 else table[open_]
            query.imag = u[open_]
            word[open_] = self._slot_word(np.searchsorted(self._key, query, side="right"))
        return word

    def start(self, rng, replicates: int) -> _Pending:
        """A fresh batch for ``sample_hits``: every replicate's first hit,
        drawn from the initial table."""
        shift = _key_shift(self.horizon, replicates)
        base = np.arange(replicates, dtype=np.int64)
        return _Pending(*self._step(rng, base, np.full(replicates, self._init), shift), shift)

    def sample_hits(self, rng, pending: _Pending, limit: int) -> np.ndarray:
        """Packed hit keys (position << s) | replicate of the ``pending``
        batch's hits at positions <= ``limit``, unsorted, in the dtype of
        ``_key_dtype``; s is ``pending.shift``.

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
        # One buffer, sized from the stationary hit rate over the positions
        # after the last limit and grown by a quarter when full: a list of
        # the rounds' arrays (hundreds, of up to 160 KB each) fills the
        # malloc heap, and how much of it stays resident once they are freed
        # varies from run to run by up to 20 MB.
        dtype = _key_dtype(self.horizon, pending.shift)
        top = min(limit, self.horizon)
        expected = key.size * max(0, top - pending.limit) * self.rate
        out = np.empty(int(expected + 8 * math.sqrt(expected)) + key.size, dtype=dtype)
        n = 0
        pending.limit = max(pending.limit, top)
        parked = []
        while key.size:
            if limit < self.horizon:  # _step drops every key past the horizon
                late = key >= cut
                if late.any():
                    parked.append((key[late], table[late]))
                    key, table = key[~late], table[~late]
            if n + key.size > out.size:
                grown = np.empty(out.size + max(key.size, out.size // 4), dtype=dtype)
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
        word = self._draw(table, u)
        step = (word >> self._bits) << shift
        ok = step < ((self.horizon + 1) << shift) - key
        step += key  # a sum past the horizon may wrap; it is dropped
        return step[ok], word[ok] & ((1 << self._bits) - 1)


@dataclass
class _Pending:
    """A batch between ``_HitEngine.sample_hits`` calls: per live
    replicate, its next hit, drawn but not yet emitted, as a packed key
    (position << shift) | replicate (see ``_key_shift``), and the table of
    the gap after it; ``limit`` is the largest limit sampled so far."""

    key: np.ndarray
    table: np.ndarray
    shift: int
    limit: int = -1

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


def _key_dtype(horizon: int, shift: int):
    """The dtype of stored hit keys: uint32 when every key (position << s)
    | replicate at positions <= ``horizon`` fits in 32 bits, else int64."""
    return np.uint32 if (horizon + 1) << shift <= 1 << 32 else np.int64


def _counts_and_first(q_cols, keys, replicates):
    """Per-replicate arrival count and first arriving term l (0 = none),
    from packed hit keys (position << s) | replicate (see ``_key_shift``),
    worked on in the keys' dtype.

    The keys are sorted once, in place, so each distinct position is a
    run.  The terms 1..N are then counted in consecutive blocks [l0, l1)
    (see ``_term_blocks``) in q_1 coordinates: term list j holds
    (q_1(l) << s) | replicate for the hits at q_j(l).  List 1 is the
    block's sorted key slice for q_1 as it stands; lists 2..ell invert q_j
    against the block's rows only, on the distinct positions of the slice
    for q_j (see ``_relabel``).  A term arrives in a replicate when its key
    is in all ell lists: one sort of the lists side by side puts its ell
    copies together, and a key at a position outside q_1's image is in no
    other list.  Only the arrivals are then turned into (l << s) |
    replicate, by inverting q_1 (for ell = 1 this drops the hits outside
    q_1's image).  The arrivals of the blocks, in block order, are sorted
    by (l, replicate), so each replicate's first arrival is its first term.
    Beside the keys, memory is O(``_COUNT_BLOCK`` + arrivals +
    replicates), whatever the horizon.

    In process (2-core VM, numpy 2.4) the benchmark's arrivals calls count
    their 5.1e6 keys at n = 8 in about 0.129 s of CPU and their 1.0e6 keys
    at n = 10 in about 0.068 s, against 0.169 s and 0.116 s when every list
    was inverted to l and merged by a stable sort.
    """
    ell = q_cols.shape[1]
    shift = _key_shift(int(q_cols[-1, -1]), replicates)
    keys.sort()
    found = [np.empty(0, dtype=keys.dtype)]
    for l0, l1, lo, hi in _term_blocks(q_cols, keys, shift):
        q1 = q_cols[l0:l1, 0]
        lists = keys[lo[0] : hi[0]]
        if ell > 1:
            lists = np.concatenate([lists] + [
                _relabel(q_cols[l0:l1, j], keys[lo[j] : hi[j]], shift, q1)
                for j in range(1, ell)
            ])
            # equal keys meet in any sort; numpy's quicksort beats the
            # stable sort's merge of the ell runs
            lists.sort()
            m = max(0, lists.size - ell + 1)
            lists = lists[:m][lists[ell - 1 :] == lists[:m]]
        found.append(_relabel(q1, lists, shift, l0 + 1))
    arrivals = np.concatenate(found)
    reps = arrivals & ((1 << shift) - 1)
    counts = np.bincount(reps, minlength=replicates)
    first = np.zeros(replicates, dtype=np.int64)
    arrived, lead = np.unique(reps, return_index=True)
    first[arrived] = arrivals[lead] >> shift
    return counts, first


def _term_blocks(q_cols, keys, shift: int):
    """Consecutive blocks [l0, l1) of the rows of ``q_cols`` (terms l0 + 1
    .. l1), each with the bounds ``lo``, ``hi`` (ell ints each) of its key
    slices: slice j, ``keys[lo[j]:hi[j]]`` of the sorted ``keys``, holds
    the hits at positions q_j(l0 + 1) .. q_j(l1).

    From l0, the block takes the most of 1, 2, 4, ... rows, at most
    ``_COUNT_BLOCK`` of them, whose slices hold at most ``_COUNT_BLOCK``
    keys in all, and at least one row.  The bounds of all the candidate
    ends come from two searches per block.  Blocks whose slices are all
    empty are skipped.
    """
    N = len(q_cols)
    fill = (1 << shift) - 1
    l0 = 0
    while l0 < N:
        span = min(N - l0, _COUNT_BLOCK)
        ends = l0 + np.minimum(1 << np.arange((span - 1).bit_length() + 1), span)
        # needles in the keys' dtype: numpy 1.x would copy uint32 keys to
        # int64 to search them for int64 needles
        lo = np.searchsorted(keys, (q_cols[l0] << shift).astype(keys.dtype))
        hi = np.searchsorted(
            keys, ((q_cols[ends - 1] << shift) | fill).astype(keys.dtype), side="right"
        )
        size = (hi - lo).sum(axis=1)
        k = max(0, int(np.searchsorted(size, _COUNT_BLOCK, side="right")) - 1)
        if size[k]:
            yield l0, int(ends[k]), lo, hi[k]
        l0 = int(ends[k])


def _relabel(col, keys, shift: int, labels):
    """The hits among the sorted ``keys`` at the increasing positions
    ``col``, as sorted (label << s) | replicate, where every key's position
    lies in [col[0], col[-1]].  A hit at col[i] takes the label labels[i]
    when ``labels`` is an increasing array like ``col``, and labels + i
    when it is an int.

    ``col`` is searched for the keys' distinct positions only: each is a
    run of the sorted keys."""
    if not keys.size:
        return keys
    pos = keys >> shift
    new = np.empty(pos.size, dtype=bool)
    new[:1] = True
    np.not_equal(pos[1:], pos[:-1], out=new[1:])
    run_start = np.flatnonzero(new)
    at = pos[run_start]
    runs = np.diff(run_start, append=keys.size)
    li = np.searchsorted(col, at)  # < len(col): at <= col[-1]
    on = col[li] == at
    out = keys[np.repeat(on, runs)] & ((1 << shift) - 1)
    li = li[on]
    label = labels[li] if isinstance(labels, np.ndarray) else li + labels
    out |= np.repeat(label.astype(keys.dtype) << shift, runs[on])
    return out


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
    carry = np.empty(0, dtype=_key_dtype(int(q_cols[-1, -1]), shift))
    lo = 0
    for hi in sorted({N * k // stages for k in range(1, stages + 1)} - {0}):
        keys = np.concatenate([carry, hits(int(q_cols[hi - 1, -1]), done)])
        _, stage_first = _counts_and_first(q_cols[lo:hi], keys, replicates)  # sorts keys
        arrived = stage_first > 0
        first[arrived] = stage_first[arrived] + lo
        done |= arrived
        if hi < N:
            # in the keys' type: numpy 1.x searches a uint32 array for a
            # Python int by first copying the array to int64
            least = keys.dtype.type(int(q_cols[hi, 0]) << shift)
            carry = keys[np.searchsorted(keys, least) :]
            carry = carry[~done[carry & ((1 << shift) - 1)]]
        lo = hi
    return first


def _batches(chain, accept, q_cols, replicates: int):
    """(engine, replicate slice) of each batch of about 2e7 expected hits,
    all drawn from one ``_HitEngine`` over the horizon q_ell(N).  A
    replicate expects about horizon * mu(accept) hits (at least 1).  Raises
    ``ResourceError`` before building the engine when a batch's keys would
    overflow int64 (see ``_key_shift``)."""
    horizon = int(q_cols[-1, -1])
    expected_hits = max(1.0, horizon * float(chain.mu[accept].sum()))
    batch = max(64, min(replicates, int(2e7 / expected_hits)))
    _key_shift(horizon, min(batch, replicates))
    engine = _HitEngine(chain, accept, horizon)
    for done in range(0, replicates, batch):
        yield engine, slice(done, min(done + batch, replicates))


def sample_counts(chain, accept, q_cols, rng, replicates: int):
    """Per-replicate arrival count of the terms whose positions ``q_cols``
    all fall where ``chain`` sits in ``accept``, started from ``chain.nu``.

    Each batch (see ``_batches``) draws all its hits up to the horizon as
    packed keys, 32-bit when they fit (see ``_key_dtype``), which
    ``_counts_and_first`` counts.  Under ``tracemalloc`` a batch of the A4
    target at n = 8 peaks near 4.8 B per hit with 32-bit keys (23.5 MiB
    for the 5.1e6 hits of 20,000 replicates) and near 8.4 B per hit with
    int64 keys (160.7 MiB for the 2.0e7 hits of one 77,948-replicate
    batch, whose keys need 34 bits).  The peak is the sampler's one key
    buffer, sized from the expected hits; the counter adds 1.0 MiB (5.6 MiB
    with int64 keys) to the keys.  First arrivals come from
    ``sample_first``, which stops each replicate at its first arrival and
    leaves their law unchanged.
    """
    counts = np.empty(replicates, dtype=np.int64)
    for engine, part in _batches(chain, accept, q_cols, replicates):
        r = part.stop - part.start
        hits = engine.sample_hits(rng, engine.start(rng, r), engine.horizon)
        counts[part] = _counts_and_first(q_cols, hits, r)[0]
    return counts


def sample_first(chain, accept, q_cols, rng, replicates: int):
    """Per-replicate first arriving term l (0 = none) of the terms that
    ``sample_counts`` counts, with the same law.

    Each batch advances over ``_FIRST_ARRIVAL_STAGES`` term stages (see
    ``_first_arrivals``), and a replicate stops drawing hits at the stage
    of its first arrival.
    """
    first = np.empty(replicates, dtype=np.int64)
    for engine, part in _batches(chain, accept, q_cols, replicates):
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
    gamma = tuple(_states(chain, gamma))
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


def _score(x: np.ndarray, q: float) -> np.ndarray:
    """Count pmfs (axis -2) after adding a Bernoulli(q) term."""
    y = (1.0 - q) * x
    y[..., 1:, :] += q * x[..., :-1, :]
    return y


def _frontier_law(chain, rows, accept, thin) -> np.ndarray:
    """Count law of the terms ``rows`` by a frontier DP on ``chain``.

    A term reads the chain at its positions ``rows[t]`` (distinct, sorted,
    chain times from ``chain.nu`` at time 0) and holds when each read
    accepts; a held term adds 1 to the count with probability ``thin[t]``.
    A read in state s accepts with probability ``accept[s]``.  The positions
    are read in increasing order (the transfer-matrix method), the chain
    advancing between them by ``chain.propagate``.  A term is open from its
    first position to its last.  The state is (alive or dead per open term,
    one axis of size 2 each, then the count so far, then the chain state).
    At a position, the rejecting mass kills every term through it; the
    accepting mass keeps those terms as they are, a term that opens there
    is alive, and each alive term that closes there is scored.  Both act on
    the term and count axes only, so the two masses are weighed by
    1 - ``accept`` and ``accept`` last.  The caller checks the size with
    ``_check_law_cells`` first.
    """
    through: dict[int, list[int]] = {}
    for t, r in enumerate(rows):
        for s in r:
            through.setdefault(s, []).append(t)
    x = np.zeros((len(rows) + 1, chain.M))
    x[0] = chain.nu
    now = 0
    frontier: list[int] = []  # open terms, one axis each, in axis order
    for s in sorted(through):
        if chain.M > 1:  # a one-state chain stays put
            x = chain.propagate(x, s - now)
        now = s
        axis = {t: i for i, t in enumerate(frontier)}
        ts = through[s]
        closing = sorted(axis[t] for t in ts if t in axis and rows[t][-1] == s)
        cont = [axis[t] for t in ts if t in axis and rows[t][-1] > s]
        opened = [t for t in ts if t not in axis and rows[t][-1] > s]
        xp, xq = x, x  # the accepting and the rejecting mass
        for i in reversed(closing):
            at = (slice(None),) * i
            xp = xp[at + (0,)] + _score(xp[at + (1,)], thin[frontier[i]])
            xq = xq.sum(axis=i)
        for i in cont:
            i -= sum(c < i for c in closing)
            dead = xq.sum(axis=i)
            xq = np.stack([dead, np.zeros_like(dead)], axis=i)
        for t in ts:
            if t not in axis and rows[t][-1] == s:  # its only position
                xp = _score(xp, thin[t])
        gone = {frontier[i] for i in closing}
        frontier = [t for t in frontier if t not in gone] + opened
        c = len(opened)
        if c == 0:
            x = (1.0 - accept) * xq + accept * xp
        else:
            x = np.zeros(xq.shape[:-2] + (2,) * c + xq.shape[-2:])
            x[(...,) + (0,) * c + (slice(None),) * 2] = (1.0 - accept) * xq
            x[(...,) + (1,) * c + (slice(None),) * 2] = accept * xp
    return x.sum(axis=-1)


def _check_law_cells(first, last, comp, states: int) -> np.ndarray:
    """Terms per component, after refusing a DP over ``LAW_CELL_BUDGET``.

    Term t of component ``comp[t]`` is open from ``first[t]`` to
    ``last[t]`` (never, when first >= last).  A component's width w is the
    most terms open at once, with the terms that close at a position taken
    off before those that open there; its ``_frontier_law`` state holds
    2^w (k + 1) ``states`` floats for k terms, and the DP about three such
    arrays at a position (the state, the accepting and rejecting masses,
    the next state).  Raises ``ResourceError`` on a state over
    ``LAW_CELL_BUDGET``, naming the worst component's width, before any DP
    runs.
    """
    sizes = np.bincount(comp)
    width = np.zeros(sizes.size, dtype=np.int64)
    opens = np.flatnonzero(first < last)
    if opens.size:
        ev_comp = np.tile(comp[opens], 2)
        ev_key = np.concatenate([first[opens] * 2 + 1, last[opens] * 2])
        order = np.lexsort((ev_key, ev_comp))
        running = np.cumsum(np.repeat([1, -1], opens.size)[order])
        np.maximum.at(width, ev_comp[order], running)
    cells = np.ldexp(((sizes + 1) * states).astype(float), width)
    worst = int(cells.argmax())
    if cells[worst] > LAW_CELL_BUDGET:
        raise ResourceError(
            f"a component with {width[worst]} open terms at once needs "
            f"{cells[worst]:.3g} floats, over the budget of {LAW_CELL_BUDGET}"
        )
    return sizes


def _count_law(law: np.ndarray) -> CountDistribution:
    """The exact law of a pmf array, without the counts whose probability
    is below the smallest normal float."""
    tiny = np.finfo(float).tiny
    return CountDistribution(pmf={k: float(v) for k, v in enumerate(law) if v >= tiny})


def exact_sum_distribution(chain, schedule, gamma, n: int) -> CountDistribution:
    """Exact law of the arrival count over terms l = 1..n, by ``_frontier_law``
    on the chain with the indicator of gamma as its acceptance.

    All n terms form one component, so its width is the most terms open at
    once over the positions q_j(l); ``_check_law_cells`` refuses a DP whose
    state array has more than ``LAW_CELL_BUDGET`` floats before it runs.  At
    the budget the DP peaks near three times that (linear ell = 2 on a
    2-state chain at n = 31: 96.1 MiB under ``tracemalloc``).
    """
    gamma = _states(chain, gamma)
    q = schedule.columns(n)
    _check_law_cells(q.min(axis=1), q.max(axis=1), np.zeros(n, dtype=np.int64), chain.M)
    accept = np.zeros(chain.M)
    accept[gamma] = 1.0
    rows = [sorted(set(r)) for r in q.tolist()]
    return _count_law(_frontier_law(chain, rows, accept, [1.0] * n))


# ---------------------------------------------------------------------------
# Target sets with prescribed invariant mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetSet:
    measure: object  # the chain's MarkovGibbsMeasure, whose cylinders the words are
    words: tuple[tuple[int, ...], ...]  # Gamma_n: k-words, in lexicographic order
    mass: float  # mu(Gamma_n), the sum of the words' cylinder masses
    realized_lambda: float

    @cached_property
    def chain(self):
        """(pattern chain, accept states) of the words: ``subshift.pattern_chain``."""
        from .subshift import pattern_chain

        return pattern_chain(self.measure, self.words)


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
        entries[n] = TargetSet(measure, tuple(words), float(total), float(realized))
    return TargetSetSequence(lam=lam, ell=ell, measure=measure, entries=entries)
