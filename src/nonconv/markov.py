"""Finite Markov chains under a Doeblin condition.

Provides the invariant measure, a Doeblin certificate against the uniform
reference measure, geometric mixing-rate fits, seeded simulation of the
nonconventional arrival sum sum_l prod_j 1_Gamma(X_{q_j(l)}), and exact
joint-arrival probabilities (b-coefficients) via restricted matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .distributions import CountDistribution
from .errors import CertificationError, ResourceError, ValidationError
from .rng import STREAM_MARKOV, derive_rng
from .schedules import QSchedule

ROW_SUM_TOL = 1e-12
DEFAULT_PATH_BUDGET = 10**7
LIFT_STATE_BUDGET = 1 << 12  # most lifted states: a dense S-by-S P of 128 MiB
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
        self._projection_tol = max(_PROJECTION_TOL, 8.0 * resid)
        self._pow_cache: dict[int, np.ndarray] = {1: P}
        self._projection_level: int | None = None
        self._blocks: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self._cdf = np.cumsum(P, axis=1)

    # -- exact linear algebra ------------------------------------------------

    def _level_power(self, bit: int, proj: np.ndarray) -> np.ndarray:
        # P^(2^bit), cached; collapses to the stationary projection once
        # every row of the power is proportional to mu to machine precision.
        # Row sums are left out of the test: rounding leaves P's rows 1e-16
        # off 1, and the powers' row sums drift as (1 + defect)^(2^bit),
        # which is not mixing.
        lvl = 1 << bit
        if self._projection_level is not None and lvl >= self._projection_level:
            return proj
        if lvl not in self._pow_cache:
            half = self._level_power(bit - 1, proj)
            mat = half @ half
            shape = mat - mat.sum(axis=1, keepdims=True) * self.mu
            if np.max(np.abs(shape)) < self._projection_tol:
                self._projection_level = lvl
                mat = proj
            self._pow_cache[lvl] = mat
        return self._pow_cache[lvl]

    def _proj(self) -> np.ndarray:
        if not hasattr(self, "_proj_mat"):
            self._proj_mat = np.tile(self.mu, (self.M, 1))
        return self._proj_mat

    def propagate(self, v: np.ndarray, steps: int) -> np.ndarray:
        """Row vector v P^steps, or each row of a (k, M) block, using cached
        binary powers."""
        if steps < 0:
            raise ValidationError("steps must be >= 0")
        if self._projection_level is not None and steps >= self._projection_level:
            return v.sum(axis=-1, keepdims=True) * self.mu
        proj = self._proj()
        bit = 0
        while (1 << bit) <= steps:
            if steps & (1 << bit):
                mat = self._level_power(bit, proj)
                v = v @ mat
                if mat is proj:
                    # remaining factors are also projections; v is now stationary-proportional
                    break
            bit += 1
        return v

    def restricted_block(self, gamma: tuple[int, ...], steps: int) -> np.ndarray:
        """P^steps[gamma, gamma] for sorted distinct states gamma, memoized.

        One |gamma|-row propagate builds a block; every step count at or
        past the projection level shares one block.
        """
        memo = self._blocks.setdefault(gamma, {})
        block = memo.get(self._block_key(steps))
        if block is None:
            rows = np.zeros((len(gamma), self.M))
            rows[np.arange(len(gamma)), gamma] = 1.0
            block = self.propagate(rows, steps)[:, gamma]
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


def mixing_rate(chain: FiniteMarkovChain, horizon: int = 64) -> MixingCertificate:
    """Fit the tightest exponential envelope on density discrepancies.

    d(n) = max_{x,y} |M * P^n(x,y) - M * mu(y)| (densities against uniform).
    beta comes from a least-squares fit of log d(n) over the tail half of
    the horizon; C1 is then raised until C1 e^{-beta n} dominates every d(n).
    Chains that mix exactly report beta = inf.
    """
    M = chain.M
    target = np.tile(chain.mu, (M, 1))
    Pk = np.eye(M)
    d = []
    for _ in range(horizon):
        Pk = Pk @ chain.P
        d.append(float(M * np.max(np.abs(Pk - target))))
    d_arr = np.array(d)
    if np.all(d_arr < 1e-14):
        return MixingCertificate(C1=0.0, beta=math.inf, distances=tuple(d))
    tail_start = horizon // 2
    # points below ~1e-12 are float noise near the stationary projection
    usable = [i for i in range(horizon) if d_arr[i] > 1e-12]
    fit = [i for i in usable if i >= tail_start] or usable
    ns = [i + 1 for i in fit]
    logs = [math.log(d_arr[i]) for i in fit]
    if len(ns) < 2:
        return MixingCertificate(C1=0.0, beta=math.inf, distances=tuple(d))
    slope, _ = np.polyfit(ns, logs, 1)
    beta = -float(slope)
    if beta <= 0:
        raise CertificationError("mixing distances are not eventually decreasing")
    C1 = max(d_arr[i] * math.exp(beta * (i + 1)) for i in range(horizon))
    return MixingCertificate(C1=float(C1), beta=beta, distances=tuple(d))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_arrival_sum(chain, schedule, gamma, n: int, seed: int) -> int:
    """One draw of the arrival count over terms l = 1..n."""
    return int(simulate_arrival_batch(chain, schedule, gamma, n, seed, 1)[0])


def simulate_arrival_batch(chain, schedule, gamma, n, seed, replicates) -> np.ndarray:
    """Vectorized arrival-count draws across replicates.

    Simulates paths X_0..X_{q_ell(n)} from nu and counts the l <= n whose
    q_j(l)-positions all land in gamma.
    """
    gamma = frozenset(int(g) for g in gamma)
    if any(g < 0 or g >= chain.M for g in gamma):
        raise ValidationError("gamma contains out-of-range states")
    horizon = schedule.max_index(n)
    times = schedule.columns(n)
    in_gamma = np.zeros(chain.M, dtype=bool)
    for g in gamma:
        in_gamma[g] = True
    rng = derive_rng(seed, STREAM_MARKOV)
    nu_cdf = np.cumsum(chain.nu)
    out = np.empty(replicates, dtype=np.int64)
    # a chunk's hit array is chunk x (horizon + 1) and each step's
    # inverse-CDF compare is chunk x M: both stay within 4e6 cells
    chunk = max(1, int(4e6 // max(horizon + 1, chain.M)))
    done = 0
    while done < replicates:
        m = min(chunk, replicates - done)
        state = np.searchsorted(nu_cdf, rng.random(m), side="right")
        hits = np.empty((m, horizon + 1), dtype=bool)
        hits[:, 0] = in_gamma[state]
        for t in range(1, horizon + 1):
            u = rng.random(m)
            state = (u[:, None] > chain._cdf[state]).sum(axis=1)
            hits[:, t] = in_gamma[state]
        term_hits = hits[:, times]  # (m, n, ell)
        out[done : done + m] = term_hits.all(axis=2).sum(axis=1)
        done += m
    return out


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def exact_b(chain, schedule, gamma, indices, index_budget: int = 4096) -> float:
    """P(X in gamma at every position q_j(i), i in indices), exact.

    Sorts the merged positions t1 < ... < tk; between two restriction times
    only the gamma-by-gamma block of P^d matters, so
    b = (nu P^{t1})[gamma] B(t2 - t1) ... B(tk - t(k-1)) 1 with the memoized
    blocks B(d) = P^d[gamma, gamma] of ``chain.restricted_block``.
    """
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValidationError(f"duplicate entries in {idx}")
    gamma = tuple(sorted({int(g) for g in gamma}))
    if any(g < 0 or g >= chain.M for g in gamma):
        raise ValidationError("gamma contains out-of-range states")
    times = sorted({t for i in idx for t in schedule.evaluate(i)})
    if len(times) > index_budget:
        raise ResourceError(f"{len(times)} restriction times exceed budget {index_budget}")
    if not times:
        return float(chain.nu.sum())
    v = chain.propagate(chain.nu, times[0])[list(gamma)]
    for prev, t in zip(times, times[1:]):
        v = v @ chain.restricted_block(gamma, t - prev)
    return float(v.sum())


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
    chain: FiniteMarkovChain  # possibly a word-lift of the base chain
    states: tuple[int, ...]
    mass: float
    realized_lambda: float
    lift_order: int


@dataclass(frozen=True)
class TargetSetSequence:
    lam: float
    ell: int
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
    """Lift to the chain of sliding k-words.

    States are admissible words (w_0..w_{k-1}) with positive path weight;
    transitions shift by one symbol.  Returns (lifted chain, word list).
    The lifted initial distribution is the stationary word law, matching a
    base chain started from its invariant measure.  Raises ``ResourceError``
    before enumerating when there are more than ``LIFT_STATE_BUDGET`` words,
    which bounds the dense lifted matrix at ``8 * LIFT_STATE_BUDGET**2`` bytes.
    """
    if k < 1:
        raise ValidationError("lift order must be >= 1")
    if k == 1:
        return chain, [(s,) for s in range(chain.M)]
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
    """Pick sets Gamma_n with n * mu(Gamma_n)^ell close to lam.

    A small alphabet cannot realize arbitrarily small masses, so the chain
    is lifted to its k-word chain and Gamma_n assembled greedily from word
    cylinders, raising k until the realized lambda is within tolerance.
    """
    if chain.M < 2:
        raise ValidationError("need at least 2 states")
    entries = {}
    for n in sorted(set(int(v) for v in n_grid)):
        target_mass = (lam / n) ** (1.0 / ell)
        if target_mass >= 1.0:
            raise ValidationError(
                f"target mass {target_mass:.4g} >= 1 at n={n}; lam too large for this n"
            )
        best = None
        for k in range(1, max_lift + 1):
            lifted, _ = word_lift(chain, k)
            order = np.argsort(-lifted.mu)
            mass = 0.0
            chosen = []
            for s in order:
                if mass + lifted.mu[s] <= target_mass + 1e-15:
                    chosen.append(int(s))
                    mass += lifted.mu[s]
                if mass >= target_mass:
                    break
            if not chosen:
                continue
            realized = n * mass**ell
            err = abs(realized - lam) / lam
            if best is None or err < best[0]:
                best = (err, k, lifted, tuple(chosen), mass, realized)
            if err <= tolerance:
                break
        if best is None or best[0] > tolerance:
            raise ValidationError(
                f"cannot reach lambda tolerance {tolerance} at n={n}; raise max_lift"
            )
        _, k, lifted, chosen, mass, realized = best
        entries[n] = TargetSet(
            chain=lifted, states=chosen, mass=float(mass),
            realized_lambda=float(realized), lift_order=k,
        )
    return TargetSetSequence(lam=lam, ell=ell, entries=entries)
