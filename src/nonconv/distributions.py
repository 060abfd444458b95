"""Count distributions, Poisson laws, and total-variation machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MASS_TOL = 1e-12


@dataclass(frozen=True)
class CountDistribution:
    """Probability mass function over nonnegative counts.

    ``tail_mass`` is the probability above the largest stored count (for
    truncated laws).  ``kind`` is "exact" or "empirical"; empirical
    distributions carry their sample size so consumers can build CIs.
    """

    pmf: dict[int, float]
    tail_mass: float = 0.0
    kind: str = "exact"
    sample_size: int | None = None

    def __post_init__(self):
        if not self.pmf and self.tail_mass == 0.0:
            raise ValidationError("empty count distribution")
        for k, p in self.pmf.items():
            if k < 0:
                raise ValidationError(f"negative count {k}")
            if p < -MASS_TOL:
                raise ValidationError(f"negative probability {p} at count {k}")
        if self.tail_mass < -MASS_TOL:
            raise ValidationError(f"negative tail mass {self.tail_mass}")
        total = sum(self.pmf.values()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"total mass {total} not within 1e-9 of 1")
        if self.kind == "empirical" and self.sample_size is None:
            raise ValidationError("empirical distribution must carry sample_size")

    def prob(self, k: int) -> float:
        return self.pmf.get(k, 0.0)

    def mean(self) -> float:
        return sum(k * p for k, p in self.pmf.items())

    def max_count(self) -> int:
        return max(self.pmf) if self.pmf else 0


@dataclass(frozen=True)
class PoissonLaw:
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValidationError(f"Poisson parameter must be positive, got {self.lam}")

    def pmf(self, k: int) -> float:
        """e^{-lam} lam^k / k!, evaluated in log space."""
        if k < 0:
            raise ValidationError(f"count must be >= 0, got {k}")
        return math.exp(-self.lam + k * math.log(self.lam) - math.lgamma(k + 1))

    def truncation_point(self) -> int:
        # lam + 40 sqrt(lam) + 40 leaves tail mass below 1e-12 at desk lam.
        return int(self.lam + 40.0 * math.sqrt(self.lam) + 40.0)

    def distribution(self) -> CountDistribution:
        kmax = self.truncation_point()
        pmf = {k: self.pmf(k) for k in range(kmax + 1)}
        tail = max(0.0, 1.0 - sum(pmf.values()))
        return CountDistribution(pmf=pmf, tail_mass=tail, kind="exact")


def tv_distance(d1: CountDistribution, d2: CountDistribution) -> float:
    """Total variation distance, with truncation tails counted pessimistically.

    Returns (sum_k |p1(k) - p2(k)| + tail1 + tail2) / 2, the sup over count
    sets of the probability discrepancy when both tails are adversarial.
    """
    support = set(d1.pmf) | set(d2.pmf)
    l1 = sum(abs(d1.prob(k) - d2.prob(k)) for k in support)
    return min(1.0, 0.5 * (l1 + d1.tail_mass + d2.tail_mass))


def dissociated_sum_bound(ell: int, p_n: float, lam: float, lam_n: float) -> float:
    """Upper bound (2 ell^2 + 1) p_n + 2 |lam - lam_n| e^{max(lam, lam_n)}.

    Valid for the total-variation distance between a nonconventional
    Bernoulli sum with per-site probability p_n and Poisson(lam), where
    lam_n = n p_n^ell is the realized mean.
    """
    if not 0.0 < p_n < 1.0:
        raise ValidationError(f"p_n must be in (0,1), got {p_n}")
    if lam <= 0 or lam_n <= 0:
        raise ValidationError("lam and lam_n must be positive")
    return (2.0 * ell * ell + 1.0) * p_n + poisson_shift_bound(lam, lam_n)


def poisson_shift_bound(lam: float, lam_n: float) -> float:
    """2 |lam - lam_n| e^{max(lam, lam_n)} bounds TV(Poisson(lam), Poisson(lam_n))."""
    if lam <= 0 or lam_n <= 0:
        raise ValidationError("lam and lam_n must be positive")
    return 2.0 * abs(lam - lam_n) * math.exp(max(lam, lam_n))


def empirical_distribution(samples) -> CountDistribution:
    """Relative-frequency pmf of an integer sample."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValidationError("empty sample")
    if np.any(arr < 0):
        raise ValidationError("counts must be nonnegative")
    counts = np.bincount(arr.astype(np.int64))
    n = int(arr.size)
    pmf = {int(k): float(c) / n for k, c in enumerate(counts) if c > 0}
    return CountDistribution(pmf=pmf, kind="empirical", sample_size=n)
