"""I.i.d. Bernoulli arrays and their nonconventional product sums.

The model: an array of i.i.d. 0-1 variables xi_i with success probability p,
and the statistic S_n = sum_{l=1}^n prod_j xi_{q_j(l)}.  Alongside seeded
simulation this module carries an exact small-instance oracle (component
decomposition + enumeration + convolution) and the Chen-Stein first/second
moment terms that bound the distance to Poisson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import CountDistribution, PoissonLaw, dissociated_sum_bound, tv_distance
from .errors import ResourceError, ValidationError
from .markov import FiniteMarkovChain, sample_counts
from .rng import STREAM_BERNOULLI, derive_rng
from .schedules import QSchedule, _UnionFind

DEFAULT_COMPONENT_CAP = 25  # max distinct xi-indices enumerated per component


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
    counts, _ = sample_counts(
        chain, [1], ranks, derive_rng(seed, STREAM_BERNOULLI), replicates, expected_hits
    )
    return counts


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------

def _components(scheme: BernoulliScheme) -> list[list[int]]:
    """Group term numbers 1..n into components linked by shared xi-indices."""
    uf = _UnionFind()
    owner: dict[int, int] = {}
    for l, tup in enumerate(scheme.term_indices.tolist(), start=1):
        uf.find(l)
        for q in tup:
            if q in owner:
                uf.union(l, owner[q])
            else:
                owner[q] = l
    groups: dict[int, list[int]] = {}
    for l in range(1, scheme.n + 1):
        groups.setdefault(uf.find(l), []).append(l)
    return sorted(groups.values(), key=min)


def _component_pmf(scheme: BernoulliScheme, terms: list[int], cap: int) -> np.ndarray:
    """Exact count law of one component by enumerating its xi assignments."""
    tuples = scheme.term_indices[np.array(terms) - 1].tolist()
    sites = sorted({q for tup in tuples for q in tup})
    m = len(sites)
    if m > cap:
        raise ResourceError(
            f"component with {m} distinct indices exceeds the cap of {cap}"
        )
    site_pos = {q: i for i, q in enumerate(sites)}
    masks = np.array(
        [sum(1 << site_pos[q] for q in tup) for tup in tuples], dtype=np.int64
    )
    p = scheme.p
    pmf = np.zeros(len(terms) + 1)
    total = 1 << m
    chunk = 1 << 20
    for start in range(0, total, chunk):
        assign = np.arange(start, min(start + chunk, total), dtype=np.int64)
        ones = np.zeros(assign.size, dtype=np.int64)
        for b in range(m):
            ones += (assign >> b) & 1
        weights = p**ones * (1.0 - p) ** (m - ones)
        counts = np.zeros(assign.size, dtype=np.int64)
        for mask in masks:
            counts += (assign & mask) == mask
        pmf += np.bincount(counts, weights=weights, minlength=len(terms) + 1)
    return pmf


def exact_distribution(
    scheme: BernoulliScheme, component_cap: int = DEFAULT_COMPONENT_CAP
) -> CountDistribution:
    """Exact law of S_n: per-component enumeration, then convolution."""
    law = np.array([1.0])
    for terms in _components(scheme):
        law = np.convolve(law, _component_pmf(scheme, terms, component_cap))
    pmf = {k: float(v) for k, v in enumerate(law) if v > 0.0}
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
    """
    n, ell, p = scheme.n, scheme.ell, scheme.p
    tuples = [frozenset(t) for t in scheme.term_indices.tolist()]
    by_site: dict[int, list[int]] = {}
    for l, tup in enumerate(tuples):
        for q in tup:
            by_site.setdefault(q, []).append(l)
    I1 = n * p ** (2 * ell)
    I2 = 0.0
    I3 = 0.0
    for l, tup in enumerate(tuples):
        partners = set()
        for q in tup:
            partners.update(by_site[q])
        partners.discard(l)
        for k in partners:
            I2 += p ** (2 * ell)
            I3 += p ** len(tup | tuples[k])
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
    scheme: BernoulliScheme, lam: float, component_cap: int = DEFAULT_COMPONENT_CAP
) -> PoissonBoundReport:
    """Exact TV(S_n, Poisson(lam)) against the dissociated-sum bound."""
    exact = exact_distribution(scheme, component_cap)
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
