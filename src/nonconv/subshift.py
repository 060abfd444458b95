"""Subshifts of finite type with stationary Markov measures.

Cylinder probabilities, exact Gibbs-ratio and psi-mixing certificates,
short-return screening of reference words, entropy/AEP diagnostics, and the
nonconventional arrival statistic over shrinking cylinder targets together
with its hitting time.

Every exact law of the target's occurrences comes from its pattern chain
(``pattern_chain``): the Markov-chain embedding of block occurrences (Fu &
Koutras, JASA 1994) on an Aho-Corasick automaton of the target blocks (Aho
& Corasick, CACM 1975), with at most (total block length) + iota states.
``CylinderTarget.chain`` builds it once per target; the samplers and the
stage oracle read it there, with the target's measure, and each refuses a
``measure`` argument that is not the target's.  The exact count law is
``markov.exact_sum_distribution`` on that chain.

Simulation of the arrival statistic is exact but sparse: instead of
materializing a sample path of length q_ell(N) we sample the successive
occurrence positions of the target blocks.  After an occurrence the pattern
chain sits in a known accept state, so inter-occurrence gaps are i.i.d.
draws from first-passage laws computed once on that chain; the resulting
hit set has the law of the hit set of a simulated path, up to the survival
mass the tables drop.  The samplers are ``markov.sample_counts`` and, for
the hitting time, ``markov.sample_first``, on the hit engine shared with
the Bernoulli and Markov models; they size their batches from the chain's
mass on its accept states.  The b-oracle,
``sevastyanov.pattern_chain_oracle``, runs ``markov.exact_b`` on the same
chain, as it does for the word sets of the Markov model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CertificationError, ResourceError, ValidationError
from .markov import FiniteMarkovChain, envelope_fit, lex_words
from .markov import sample_counts, sample_first
from .markov import word_lift  # noqa: F401  the benchmark's traced run wraps this name
from .rng import (
    STREAM_HITTING,
    STREAM_SAMPLE_POINT,
    STREAM_SUBSHIFT,
    STREAM_TARGET_REFINE,
    derive_rng,
)
from .schedules import QSchedule, logpow_cutoff

_CLEAR_WORD_TRIES = 10_000  # words drawn by sample_clear_word before it gives up


@dataclass(frozen=True)
class SubshiftSFT:
    """One-sided subshift determined by a 0-1 adjacency matrix."""

    A: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        A = np.asarray(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError("adjacency matrix must be square")
        if not np.isin(A, (0, 1)).all():
            raise ValidationError("adjacency matrix entries must be 0 or 1")
        if np.any(A.sum(axis=1) == 0) or np.any(A.sum(axis=0) == 0):
            raise ValidationError("adjacency matrix has an all-zero row or column")
        object.__setattr__(self, "_A", A)

    @classmethod
    def from_matrix(cls, A) -> "SubshiftSFT":
        return cls(tuple(tuple(int(v) for v in row) for row in np.asarray(A)))

    @property
    def iota(self) -> int:
        return self._A.shape[0]

    @cached_property
    def wp(self) -> int:
        """Smallest power with A^wp entrywise positive (topological mixing)."""
        Ak = np.eye(self.iota, dtype=np.int64)
        for p in range(1, 2 * self.iota * self.iota + 2):
            Ak = np.minimum(Ak @ self._A, 1)
            if Ak.min() > 0:
                return p
        raise CertificationError("adjacency matrix has no positive power; not mixing")

    def admissible(self, word) -> bool:
        w = tuple(word)
        if not w or any(a < 0 or a >= self.iota for a in w):
            return False
        return all(self._A[a, b] == 1 for a, b in zip(w, w[1:]))

    def words(self, length: int):
        """Iterate over all admissible words of the given length, lexicographically."""
        if length < 1:
            raise ValidationError("word length must be >= 1")
        return lex_words(self._A, range(self.iota), length)

    def bridge_exists(self, a: int, b: int, steps: int) -> bool:
        """Is there an admissible path of exactly ``steps`` edges from a to b?"""
        if steps == 0:
            return a == b
        Ak = np.minimum(np.linalg.matrix_power(self._A.astype(np.int64), min(steps, 2 * self.wp)), 1)
        if steps >= 2 * self.wp:
            # beyond 2*wp every entry is positive already
            return True
        return bool(Ak[a, b] > 0)


def full_shift(iota: int) -> SubshiftSFT:
    return SubshiftSFT.from_matrix(np.ones((iota, iota), dtype=int))


def golden_mean_shift() -> SubshiftSFT:
    return SubshiftSFT.from_matrix([[1, 1], [1, 0]])


class MarkovGibbsMeasure:
    """Stationary Markov measure compatible with the subshift.

    Q must be row-stochastic with Q_ij > 0 exactly where A_ij = 1.  The
    induced two-coordinate potential is phi(w) = ln Q_{w0 w1}; cylinder
    probabilities are exact products pi_{a0} prod Q_{a_i a_{i+1}}.
    """

    def __init__(self, sft: SubshiftSFT, Q):
        Q = np.asarray(Q, dtype=float)
        A = sft._A
        if Q.shape != A.shape:
            raise ValidationError("Q must match the adjacency matrix shape")
        if np.any((Q > 0) != (A == 1)):
            raise ValidationError("Q must be positive exactly on adjacency edges")
        self.sft = sft
        self.chain = FiniteMarkovChain(Q)  # validates stochasticity and aperiodicity
        self.Q = self.chain.P
        self.pi = self.chain.mu
        self.chain.nu = self.pi.copy()  # stationary start

    @property
    def entropy(self) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(self.Q > 0, np.log(np.where(self.Q > 0, self.Q, 1.0)), 0.0)
        return float(-np.sum(self.pi[:, None] * self.Q * logs))


def uniform_measure(sft: SubshiftSFT) -> MarkovGibbsMeasure:
    """The Markov measure with uniform transitions on admissible edges."""
    A = sft._A.astype(float)
    Q = A / A.sum(axis=1, keepdims=True)
    return MarkovGibbsMeasure(sft, Q)


def cylinder_prob(measure: MarkovGibbsMeasure, word) -> float:
    w = tuple(int(a) for a in word)
    if not measure.sft.admissible(w):
        raise ValidationError(f"word {w} is not admissible under the adjacency matrix")
    p = measure.pi[w[0]]
    for a, b in zip(w, w[1:]):
        p *= measure.Q[a, b]
    return float(p)


# ---------------------------------------------------------------------------
# Gibbs ratio and psi-mixing certificates
# ---------------------------------------------------------------------------

def gibbs_constant(measure: MarkovGibbsMeasure, n_max: int) -> float:
    """Max two-sided cylinder/exp-Birkhoff ratio over words up to n_max.

    The potential is phi(w) = ln Q_{w0 w1} with zero pressure; the Birkhoff
    sum over a length-n word needs one continuation symbol, taken as the
    periodic wrap when admissible and otherwise the most likely admissible
    successor.  The ratio pi[first] / Q[last, next] depends on the word only
    through its (first, last) symbols, so the scan runs over the pairs that
    some admissible word of length <= n_max joins: the identity or-ed with
    the 0-1 powers A^1..A^(n_max-1).  Returns max(ratio, 1/ratio) over them.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    A = measure.sft._A
    joined = Ak = np.eye(len(A), dtype=np.int64)
    for _ in range(n_max - 1):
        Ak = np.minimum(Ak @ A, 1)
        joined = joined | Ak
    first, last = np.nonzero(joined)
    nxt = np.where(A[last, first] == 1, first, np.argmax(measure.Q, axis=1)[last])
    ratio = measure.pi[first] / measure.Q[last, nxt]
    return float(max(1.0, ratio.max(), (1.0 / ratio).max()))


@dataclass(frozen=True)
class PsiMixingCertificate:
    C: float
    beta: float
    spectral_beta: float
    worst_pair: tuple | None  # (a, b, g) of the first largest error; None if all are 0
    envelope: tuple[float, ...]  # max relative error per effective gap 1..gap_max


def psi_mixing_check(measure: MarkovGibbsMeasure, gap_max: int) -> PsiMixingCertificate:
    """Exact psi-mixing table of the Markov measure and its envelope.

    For cylinders U, V and a shift that leaves an effective gap g between
    U's last symbol a and V's first symbol b, the relative error
    |P(U n T^{-n} V) - P(U) P(V)| / (P(U) P(V)) equals
    psi(g, a, b) = |Q^g(a, b) / pi(b) - 1|, whatever the rest of U and V.
    The envelope is psi(g) = max_{a,b} psi(g, a, b) for g = 1..gap_max, and
    ``markov.envelope_fit`` gives its tightest C e^{-beta g}.
    """
    iota = measure.sft.iota
    errs = np.zeros((gap_max, iota, iota))
    Qg = measure.Q.copy()
    for g in range(1, gap_max + 1):
        errs[g - 1] = np.abs(Qg / measure.pi[None, :] - 1.0)
        Qg = Qg @ measure.Q
    envelope = tuple(errs.max(axis=(1, 2)))
    worst_pair = None
    if errs.any():
        g, a, b = np.unravel_index(np.argmax(errs), errs.shape)
        worst_pair = (int(a), int(b), int(g) + 1)
    eigs = np.sort(np.abs(np.linalg.eigvals(measure.Q)))[::-1]
    lam2 = eigs[1] if len(eigs) > 1 else 0.0
    spectral_beta = math.inf if lam2 < 1e-14 else -math.log(lam2)
    C, beta = envelope_fit(envelope)
    return PsiMixingCertificate(
        C=C, beta=beta, spectral_beta=spectral_beta, worst_pair=worst_pair, envelope=envelope,
    )


# ---------------------------------------------------------------------------
# Short returns, sampling, AEP
# ---------------------------------------------------------------------------

def short_return_check(sft: SubshiftSFT, word, a_n: int) -> bool:
    """True when the length-n cylinder avoids self-intersection at shifts <= a_n.

    For shifts i < n the intersection is nonempty iff the word overlaps
    itself (w_{k+i} = w_k); for i >= n it is nonempty iff an admissible
    bridge of i - n + 1 edges connects the last symbol back to the first.
    """
    w = tuple(int(a) for a in word)
    if not sft.admissible(w):
        raise ValidationError(f"word {w} is not admissible")
    if a_n < 1:
        return True
    n = len(w)
    for i in range(1, a_n + 1):
        if i < n:
            if w[i:] == w[: n - i]:
                return False
        else:
            if sft.bridge_exists(w[-1], w[0], i - n + 1):
                return False
    return True


def sample_point(measure: MarkovGibbsMeasure, length: int, seed: int) -> tuple[int, ...]:
    """Draw an admissible word of the given length from the measure."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    rng = derive_rng(seed, STREAM_SAMPLE_POINT)
    pi_cdf = np.cumsum(measure.pi)
    q_cdf = np.cumsum(measure.Q, axis=1)
    state = int(np.searchsorted(pi_cdf, rng.random(), side="right"))
    out = [state]
    us = rng.random(length - 1)
    for u in us:
        state = int(np.searchsorted(q_cdf[state], u, side="right"))
        out.append(state)
    return tuple(out)


def aep_deviation(measure: MarkovGibbsMeasure, word) -> float:
    """|(1/n) ln P([word]) + entropy|.

    The log-probability is accumulated termwise so that long words whose
    cylinder mass underflows a float still evaluate correctly.
    """
    w = tuple(int(a) for a in word)
    if not measure.sft.admissible(w):
        raise ValidationError(f"word {w} is not admissible under the adjacency matrix")
    logp = math.log(measure.pi[w[0]])
    for a, b in zip(w, w[1:]):
        logp += math.log(measure.Q[a, b])
    return abs(logp / len(w) + measure.entropy)


def sample_clear_word(
    measure: MarkovGibbsMeasure, n: int, eps: float, seed: int
) -> tuple[int, ...]:
    """Rejection-sample a word of length n passing the short-return screen."""
    a_n = logpow_cutoff(n, eps)
    for t in range(_CLEAR_WORD_TRIES):
        w = sample_point(measure, n, seed + t)
        if short_return_check(measure.sft, w, a_n):
            return w
    raise ResourceError(f"no short-return-clear word of length {n} in {_CLEAR_WORD_TRIES} tries")


# ---------------------------------------------------------------------------
# Cylinder targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderTarget:
    """Target event B_n: a union of length-m blocks refining the n-prefix of omega_star."""

    measure: MarkovGibbsMeasure
    omega_star: tuple[int, ...]
    n: int
    s: float
    eps: float
    blocks: tuple[tuple[int, ...], ...]
    a_n: int
    short_return_clear: bool

    @property
    def m(self) -> int:
        return len(self.blocks[0])

    @cached_property
    def prob(self) -> float:
        return float(sum(cylinder_prob(self.measure, b) for b in self.blocks))

    @cached_property
    def chain(self):
        """(pattern chain, accept states) of the blocks: ``pattern_chain``."""
        return pattern_chain(self.measure, self.blocks)

    def check_measure(self, measure: MarkovGibbsMeasure):
        """Raise ``ValidationError`` unless ``measure`` is the target's: the
        same SFT adjacency and transition matrix."""
        own = self.measure
        if measure is not own and (measure.sft != own.sft or not np.array_equal(measure.Q, own.Q)):
            raise ValidationError(
                "measure differs from the target's measure (another SFT adjacency "
                "or transition matrix)"
            )


def make_target(
    measure: MarkovGibbsMeasure,
    omega_star,
    n: int,
    s: float = 0.0,
    eps: float = 0.25,
    refine_seed: int | None = None,
    keep_fraction: float = 1.0,
) -> CylinderTarget:
    """Build B_n from the first n symbols of omega_star.

    With s = 0 the target is the plain n-cylinder.  With s > 0 it is the
    union of all admissible extensions to length n + floor(s ln n); a seeded
    rule keeps a fraction of them when keep_fraction < 1 (at least one).
    """
    w = tuple(int(a) for a in omega_star)
    if len(w) < n:
        raise ValidationError(f"omega_star has {len(w)} symbols, need at least n={n}")
    if not measure.sft.admissible(w[:n]):
        raise ValidationError("omega_star prefix is not admissible")
    prefix = w[:n]
    m = n + int(s * math.log(n)) if n > 1 else n
    if m == n:
        blocks = [prefix]
    else:
        blocks = [
            prefix + ext[1:]
            for ext in measure.sft.words(m - n + 1)
            if ext[0] == prefix[-1]
        ]
        if keep_fraction < 1.0:
            if refine_seed is None:
                raise ValidationError("keep_fraction < 1 requires refine_seed")
            rng = derive_rng(refine_seed, STREAM_TARGET_REFINE)
            keep = max(1, int(round(keep_fraction * len(blocks))))
            chosen = rng.choice(len(blocks), size=keep, replace=False)
            blocks = [blocks[i] for i in sorted(chosen)]
    a_n = logpow_cutoff(n, eps)
    clear = short_return_check(measure.sft, prefix, a_n)
    return CylinderTarget(
        measure=measure, omega_star=w, n=n, s=s, eps=eps,
        blocks=tuple(blocks), a_n=a_n, short_return_clear=clear,
    )


def replicate_count(target: CylinderTarget, ell: int, lam: float) -> int:
    """N with N * P(B_n)^ell closest to lam (at least 1)."""
    return max(1, int(round(lam / target.prob**ell)))


def pattern_chain(measure: MarkovGibbsMeasure, blocks):
    """Markov-chain embedding of the occurrences of ``blocks``, equal-length words.

    A state is (node of the Aho-Corasick automaton of the blocks, last
    symbol): the node is the longest suffix of the symbols read so far that
    is a prefix of some block, and the last symbol carries the Markov
    memory that transitions draw from Q.  Since every block has length m, a
    state accepts exactly when its node is a whole block, that is when the
    last m symbols form a target block.  There are at most (total block
    length) + iota states, against iota^m for the chain of sliding m-blocks.

    The initial law ``nu`` is the state law at time m - 1, propagated from
    pi.  From then on the state is a function of the last m symbols, so the
    support of ``nu`` is closed and ``nu`` is the chain's invariant law
    there; the chain is restricted to that support.  Chain time t therefore
    stands for the window at position t, and b stays translation invariant.

    Returns (chain, accept states in the order of ``blocks``).
    """
    m, iota = len(blocks[0]), measure.sft.iota
    if any(len(b) != m for b in blocks):
        raise ValidationError("target blocks must all have the same length")
    bad = [b for b in blocks if not measure.sft.admissible(b)]
    if bad:
        raise ValidationError(f"target blocks not admissible: {bad[:3]}")
    # trie of the blocks; node 0 is the root
    children: list[dict[int, int]] = [{}]
    symbol = [-1]
    leaves = []
    for b in blocks:
        v = 0
        for a in b:
            if a not in children[v]:
                children[v][a] = len(children)
                children.append({})
                symbol.append(a)
            v = children[v][a]
        leaves.append(v)
    # Aho-Corasick transitions, breadth first so each failure link's row
    # is complete before it is read
    goto = np.zeros((len(children), iota), dtype=np.int64)
    fail = np.zeros(len(children), dtype=np.int64)
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for a in range(iota):
            c = children[v].get(a)
            if c is None:
                goto[v, a] = goto[fail[v], a] if v else 0
            else:
                fail[c] = goto[fail[v], a] if v else 0
                goto[v, a] = c
                queue.append(c)
    # states: (root, a) is state a; (node v >= 1, symbol[v]) is state iota + v - 1
    node = np.concatenate([np.zeros(iota, dtype=np.int64), np.arange(1, len(children))])
    last = np.concatenate([np.arange(iota), np.array(symbol[1:], dtype=np.int64)])
    nxt = goto[node]
    nxt = np.where(nxt == 0, np.arange(iota), iota + nxt - 1)
    S = node.size
    P = np.zeros((S, S))
    P[np.arange(S)[:, None], nxt] = measure.Q[last]
    nu = np.zeros(S)
    nu[nxt[0]] = measure.pi  # a root state's successors are the time-0 states
    for _ in range(m - 1):
        nu = nu @ P
    keep = np.flatnonzero(nu > 0)
    pos = np.full(S, -1, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    chain = FiniteMarkovChain(P[np.ix_(keep, keep)], nu[keep] / nu[keep].sum())
    return chain, [int(pos[iota + v - 1]) for v in leaves]


def _sample_target(
    sample, schedule: QSchedule, target: CylinderTarget, N: int, rng, replicates: int
):
    """``sample`` (``sample_counts`` or ``sample_first``) over terms l <= N
    on the target's pattern chain."""
    if not target.short_return_clear:
        raise ValidationError(
            "target fails short_return_check: the reference word self-overlaps "
            f"within a(n)={target.a_n}; pick a different omega_star"
        )
    if schedule.ell >= 2 and schedule.gap_params is None:
        raise ValidationError(
            "schedules with ell >= 2 must declare gap_params (c, gamma) growth"
        )
    return sample(*target.chain, schedule.columns(N), rng, replicates)


def simulate_nonconventional_batch(
    measure: MarkovGibbsMeasure,
    schedule: QSchedule,
    target: CylinderTarget,
    lam: float,
    seed: int,
    replicates: int,
):
    """Arrival-count draws; returns (samples, N, realized_lambda).  Raises
    ``ValidationError`` when ``measure`` is not the target's."""
    target.check_measure(measure)
    N = replicate_count(target, schedule.ell, lam)
    rng = derive_rng(seed, STREAM_SUBSHIFT)
    counts = _sample_target(sample_counts, schedule, target, N, rng, replicates)
    return counts, N, float(N * target.prob**schedule.ell)


def hitting_time_batch(
    measure: MarkovGibbsMeasure,
    schedule: QSchedule,
    target: CylinderTarget,
    seed: int,
    replicates: int,
    lam_cap: float = 8.0,
):
    """Scaled hitting times P(B)^ell * tau, censored at the horizon.

    Returns (scaled, censored): censored replicates saw no simultaneous
    arrival among terms l <= lam_cap / P(B)^ell and their scaled value is
    reported as lam_cap (a lower bound).  tau, the first arriving term, is
    drawn by ``sample_first``: a replicate stops drawing hits once it has
    arrived, which leaves the law of tau unchanged.  Raises
    ``ValidationError`` when ``measure`` is not the target's.
    """
    target.check_measure(measure)
    N_cap = replicate_count(target, schedule.ell, lam_cap)
    rng = derive_rng(seed, STREAM_HITTING)
    first = _sample_target(sample_first, schedule, target, N_cap, rng, replicates)
    censored = first == 0
    return np.where(censored, lam_cap, first * target.prob**schedule.ell), censored
