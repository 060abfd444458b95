"""I.i.d. Bernoulli arrays and their nonconventional product sums.

The model: an array of i.i.d. 0-1 variables xi_i with success probability p,
and the statistic S_n = sum_{l=1}^n prod_j xi_{q_j(l)}.  Alongside seeded
simulation this module carries the exact law of S_n (components of terms
linked by shared sites, one frontier transfer-matrix DP per incidence class,
then convolution) and the Chen-Stein first/second moment terms that bound
the distance to Poisson.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import CountDistribution, PoissonLaw, dissociated_sum_bound, tv_distance
from .errors import ResourceError, ValidationError
from .markov import FiniteMarkovChain, sample_counts
from .rng import STREAM_BERNOULLI, derive_rng
from .schedules import QSchedule
from .sevastyanov import _pair_classes, _runs

LAW_CELL_BUDGET = 2**22  # most floats (states x counts) one frontier DP may hold


@dataclass(frozen=True)
class BernoulliScheme:
    n: int
    ell: int
    p: float
    schedule: QSchedule

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValidationError(f"p must be in (0,1), got {self.p}")
        if self.schedule.ell != self.ell:
            raise ValidationError(
                f"schedule has ell={self.schedule.ell}, scheme expects {self.ell}"
            )

    @classmethod
    def from_lambda(cls, n: int, ell: int, lam: float, schedule: QSchedule) -> "BernoulliScheme":
        """Choose p = (lam/n)^(1/ell) so the realized mean n p^ell equals lam."""
        if lam <= 0 or lam >= n:
            raise ValidationError(f"need 0 < lam < n, got lam={lam}, n={n}")
        return cls(n=n, ell=ell, p=(lam / n) ** (1.0 / ell), schedule=schedule)

    @property
    def lambda_n(self) -> float:
        return self.n * self.p**self.ell

    @cached_property
    def term_indices(self) -> np.ndarray:
        """The (n, ell) xi-indices of the terms l = 1..n, one row per term (read-only)."""
        cols = self.schedule.columns(self.n)
        cols.flags.writeable = False
        return cols

    @cached_property
    def needed_indices(self) -> np.ndarray:
        """Sorted union of all xi-indices any term touches."""
        return np.unique(self.term_indices)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_sum(scheme: BernoulliScheme, seed: int) -> int:
    """One draw of S_n; deterministic given the seed."""
    return int(simulate_batch(scheme, seed, 1)[0])


def simulate_batch(scheme: BernoulliScheme, seed: int, replicates: int) -> np.ndarray:
    """Vector of S_n draws over independent replicate streams.

    Only the xi-sites the schedule touches take part, by rank in
    ``needed_indices``, so q_ell(n) >> n costs nothing extra.  In rank order
    the sites are the chain whose rows are all (1 - p, p), started from
    (1 - p, p), with xi = 1 in state 1; the hit engine
    ``markov.sample_counts`` samples that chain's entries into state 1.
    """
    p = scheme.p
    chain = FiniteMarkovChain([[1.0 - p, p], [1.0 - p, p]], nu=[1.0 - p, p])
    ranks = np.searchsorted(scheme.needed_indices, scheme.term_indices)
    expected_hits = max(1.0, scheme.needed_indices.size * p)
    return sample_counts(
        chain, [1], ranks, derive_rng(seed, STREAM_BERNOULLI), replicates, expected_hits
    )


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------

def _component_labels(ranks: np.ndarray) -> np.ndarray:
    """Label each term by the least term number of its component.

    ``ranks`` is the (n, ell) table of site ranks 0..m-1.  Min-label
    propagation over the site-term incidence, with one pointer jump per
    round; it stops at a fixed point, where every site's terms share one
    label.  The linear ell = 2 chains l, 2l, 4l, ... take about log n rounds.
    """
    n, ell = ranks.shape
    flat = ranks.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
    term_of = order // ell
    label = np.arange(n)
    while True:
        site_min = np.minimum.reduceat(label[term_of], starts)
        new = site_min[ranks].min(axis=1)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _score(x: np.ndarray, q: float) -> np.ndarray:
    """Count pmfs (last axis) after adding a Bernoulli(q) term."""
    y = (1.0 - q) * x
    y[..., 1:] += q * x[..., :-1]
    return y


def _component_law(table: np.ndarray, p: float) -> np.ndarray:
    """Count law of one component, from its rank table, by a frontier DP.

    ``table`` holds each term's site ranks, one row per term.  A site of a
    single term only thins that term: it survives its j private sites with
    probability p^j.  The shared sites are read in increasing order (the
    transfer-matrix method).  A term is open from its first shared site to
    its last.  The state is the set of open terms whose shared sites so far
    are all 1, one axis of size 2 per open term, and each state carries the
    pmf of the count so far on the last axis.  At a shared site, with
    probability 1 - p every term through it dies; with probability p the
    terms through it stay as they are, a term that opens there is alive,
    and each alive term that ends there adds 1 with probability p^j.
    """
    rows = [sorted(set(r)) for r in table.tolist()]
    k = len(rows)
    degree = Counter(s for r in rows for s in r)
    thin = [p ** sum(degree[s] == 1 for s in r) for r in rows]
    if k == 1:
        return np.array([1.0 - thin[0], thin[0]])
    shared = [[s for s in r if degree[s] > 1] for r in rows]
    through: dict[int, list[int]] = {}
    for t, r in enumerate(shared):
        for s in r:
            through.setdefault(s, []).append(t)
    x = np.zeros(k + 1)
    x[0] = 1.0
    frontier: list[int] = []  # open terms, one axis each, in axis order
    for s in sorted(through):
        axis = {t: i for i, t in enumerate(frontier)}
        ts = through[s]
        closing = sorted(axis[t] for t in ts if t in axis and shared[t][-1] == s)
        cont = [axis[t] for t in ts if t in axis and shared[t][-1] > s]
        opened = [t for t in ts if t not in axis and shared[t][-1] > s]
        xp, xq = x, x
        for i in reversed(closing):
            at = (slice(None),) * i
            xp = xp[at + (0,)] + _score(xp[at + (1,)], thin[frontier[i]])
            xq = xq.sum(axis=i)
        for i in cont:
            i -= sum(c < i for c in closing)
            dead = xq.sum(axis=i)
            xq = np.stack([dead, np.zeros_like(dead)], axis=i)
        for t in ts:
            if t not in axis and shared[t][-1] == s:  # its only shared site
                xp = _score(xp, thin[t])
        gone = {frontier[i] for i in closing}
        frontier = [t for t in frontier if t not in gone] + opened
        c = len(opened)
        if c == 0:
            x = (1.0 - p) * xq + p * xp
        else:
            x = np.zeros(xq.shape[:-1] + (2,) * c + xq.shape[-1:])
            x[(...,) + (0,) * c + (slice(None),)] = (1.0 - p) * xq
            x[(...,) + (1,) * c + (slice(None),)] = p * xp
    return x


def _trimmed_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.trim_zeros(np.convolve(a, b), "b")


def _power(law: np.ndarray, m: int) -> np.ndarray:
    """Law of the sum of m independent copies, by repeated squaring."""
    out = np.array([1.0])
    while m:
        if m & 1:
            out = _trimmed_convolve(out, law)
        m >>= 1
        if m:
            law = _trimmed_convolve(law, law)
    return out


def _frontier_widths(ranks: np.ndarray, comp: np.ndarray, m: int) -> np.ndarray:
    """The most terms open at once in each component.

    Shared sites are those of two or more distinct terms, and a term is open
    from its first to its last shared site.  The width is the running count
    of open terms over the component's sites, with the terms that end at a
    site taken off before those that start there.
    """
    rows = np.sort(ranks, axis=1)
    distinct = np.ones(rows.shape, dtype=bool)
    distinct[:, 1:] = rows[:, 1:] != rows[:, :-1]
    shared = (np.bincount(rows[distinct], minlength=m) > 1)[rows]
    first = np.where(shared, rows, m).min(axis=1)
    last = np.where(shared, rows, -1).max(axis=1)
    opens = np.flatnonzero(first < last)
    width = np.zeros(int(comp.max()) + 1, dtype=np.int64)
    if opens.size:
        ev_comp = np.tile(comp[opens], 2)
        ev_key = np.concatenate([first[opens] * 2 + 1, last[opens] * 2]) + ev_comp * (2 * m)
        order = np.argsort(ev_key, kind="stable")
        running = np.cumsum(np.repeat([1, -1], opens.size)[order])
        np.maximum.at(width, ev_comp[order], running)
    return width


def exact_distribution(scheme: BernoulliScheme) -> CountDistribution:
    """Exact law of S_n: one frontier DP per incidence class, then convolution.

    Terms linked by shared sites form components, and the count is the sum
    of independent component counts.  Each component's sites are relabeled
    by rank, and its rank table (rows sorted) is its class key: components
    of one class have one law, so ``_component_law`` runs once per class and
    its law is raised to the class's multiplicity.

    A component of frontier width w (the most terms open at once, where a
    term is open from its first to its last shared site) and k terms holds
    2^w (k + 1) floats in its DP.  A component over ``LAW_CELL_BUDGET``
    floats raises ``ResourceError`` before any DP runs.  Counts whose
    probability is below the smallest normal float are left out of the law.
    """
    values, inverse = np.unique(scheme.term_indices, return_inverse=True)
    ranks = inverse.reshape(scheme.term_indices.shape)
    m, ell = values.size, scheme.ell
    comp = np.unique(_component_labels(ranks), return_inverse=True)[1].ravel()
    sizes = np.bincount(comp)
    width = _frontier_widths(ranks, comp, m)
    cells = np.ldexp((sizes + 1).astype(float), width)
    worst = int(cells.argmax())
    if cells[worst] > LAW_CELL_BUDGET:
        raise ResourceError(
            f"a component with {width[worst]} open terms at once needs "
            f"{cells[worst]:.3g} floats, over the budget of {LAW_CELL_BUDGET}"
        )

    # Rank tables: each component's sites by rank, its rows sorted.
    site_comp = np.empty(m, dtype=np.int64)
    site_comp[ranks] = comp[:, None]
    by_comp = np.argsort(site_comp, kind="stable")
    site_count = np.bincount(site_comp)
    local = np.empty(m, dtype=np.int64)
    local[by_comp] = np.arange(m) - (np.cumsum(site_count) - site_count)[site_comp[by_comp]]
    tables = np.sort(local[ranks], axis=1)
    tables = tables[np.lexsort(tuple(tables[:, j] for j in range(ell - 1, -1, -1)) + (comp,))]
    term_start = np.cumsum(sizes) - sizes

    law = np.array([1.0])
    for k in np.unique(sizes):
        comps = np.flatnonzero(sizes == k)
        block = tables[term_start[comps][:, None] + np.arange(k)].reshape(comps.size, k * ell)
        classes, mults = np.unique(block, axis=0, return_counts=True)
        for key, mult in zip(classes, mults.tolist()):
            class_law = _component_law(key.reshape(k, ell), scheme.p)
            law = _trimmed_convolve(law, _power(class_law, mult))
    tiny = np.finfo(float).tiny
    pmf = {k: float(v) for k, v in enumerate(law) if v >= tiny}
    return CountDistribution(pmf=pmf, kind="exact")


# ---------------------------------------------------------------------------
# Chen-Stein terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChenSteinTerms:
    I1: float
    I2: float
    I3: float
    bound: float


def chen_stein_terms(scheme: BernoulliScheme) -> ChenSteinTerms:
    """First/second-moment sums over intersecting index tuples.

    I1 = sum_J p_J^2, I2 = sum over ordered pairs (J, K) of intersecting
    distinct tuples of p_J p_K, I3 = same pairs of E X_J X_K; the Poisson
    approximation bound is min(1, 1/lambda_n)(I1 + I2 + I3).

    The intersecting pairs are the factorization checker's clustered pairs
    at threshold 0, summed over the classes of ``sevastyanov._pair_classes``
    with the run starts as breakpoints: every pair of a class shares the same
    number s of sites, so each unordered pair adds p^(2 ell) to I2 and
    p^(2 ell - s) to I3, twice.
    """
    n, ell, p = scheme.n, scheme.ell, scheme.p
    q = scheme.term_indices
    shares = np.zeros(ell + 1, dtype=np.int64)  # unordered pairs by shared sites
    for pairs, w in _pair_classes(q, _runs(q), 0):
        a, b = q[pairs[:, 0] - 1], q[pairs[:, 1] - 1]
        s = (a[:, :, None] == b[:, None, :]).sum(axis=(1, 2))
        np.add.at(shares, s, w)
    I1 = n * p ** (2 * ell)
    I2 = 2 * int(shares.sum()) * p ** (2 * ell)
    I3 = sum(2 * c * p ** (2 * ell - s) for s, c in enumerate(shares.tolist()))
    lam_n = scheme.lambda_n
    bound = min(1.0, 1.0 / lam_n) * (I1 + I2 + I3)
    # Closed-form identity and envelopes; violations mean an implementation
    # bug.  Checked explicitly so they also hold under python -O.
    if not math.isclose(I1, n * p ** (2 * ell), rel_tol=1e-12):
        raise RuntimeError(f"I1={I1} differs from n p^(2 ell)")
    if I2 > n * ell * ell * p ** (2 * ell) * (1.0 + 1e-12):
        raise RuntimeError(f"I2={I2} exceeds n ell^2 p^(2 ell)")
    if I3 > n * ell * ell * p ** (ell + 1) * (1.0 + 1e-12):
        raise RuntimeError(f"I3={I3} exceeds n ell^2 p^(ell + 1)")
    return ChenSteinTerms(I1=I1, I2=I2, I3=I3, bound=bound)


# ---------------------------------------------------------------------------
# End-to-end verification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonBoundReport:
    n: int
    ell: int
    p: float
    lam: float
    lambda_n: float
    tv_exact: float
    bound: float
    holds: bool


def verify_poisson_bound(
    scheme: BernoulliScheme,
    lam: float,
    exact: CountDistribution | None = None,
) -> PoissonBoundReport:
    """Exact TV(S_n, Poisson(lam)) against the dissociated-sum bound.

    ``exact`` is the scheme's exact law when the caller already has it.
    """
    if exact is None:
        exact = exact_distribution(scheme)
    tv = tv_distance(exact, PoissonLaw(lam).distribution())
    bound = dissociated_sum_bound(scheme.ell, scheme.p, lam, scheme.lambda_n)
    return PoissonBoundReport(
        n=scheme.n,
        ell=scheme.ell,
        p=scheme.p,
        lam=lam,
        lambda_n=scheme.lambda_n,
        tv_exact=tv,
        bound=bound,
        holds=tv <= bound + 1e-10,
    )
