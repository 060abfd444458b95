"""Count distributions, Poisson laws, total variation, and shift bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    CountDistribution,
    PoissonLaw,
    ValidationError,
    dissociated_sum_bound,
    empirical_distribution,
    poisson_shift_bound,
    tv_distance,
)
from nonconv.rng import derive_rng


def test_poisson_pmf_values():
    assert PoissonLaw(1.0).pmf(0) == pytest.approx(math.exp(-1), rel=1e-12)
    assert PoissonLaw(2.0).pmf(2) == pytest.approx(2 * math.exp(-2), rel=1e-12)
    assert PoissonLaw(0.5).pmf(0) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_poisson_law_normalization():
    for lam in (0.3, 1.0, 7.5):
        dist = PoissonLaw(lam).distribution()
        assert sum(dist.pmf.values()) + dist.tail_mass == pytest.approx(1.0, abs=1e-12)
        assert dist.tail_mass < 1e-12


def test_poisson_law_rejects_nonpositive():
    with pytest.raises(ValidationError):
        PoissonLaw(0.0)


def test_tv_identity_and_disjoint():
    d = CountDistribution(pmf={0: 0.5, 1: 0.5})
    assert tv_distance(d, d) == 0.0
    m0 = CountDistribution(pmf={0: 1.0})
    m1 = CountDistribution(pmf={1: 1.0})
    assert tv_distance(m0, m1) == pytest.approx(1.0, abs=1e-12)


def test_tv_bernoulli_vs_poisson_oracle():
    # half the L1 sum including the Poisson tail above count 1, p = 0.1;
    # independent summation oracle gives 0.0095163 (to the shown digits)
    p = 0.1
    bern = CountDistribution(pmf={0: 1 - p, 1: p})
    tv = tv_distance(bern, PoissonLaw(p).distribution())
    oracle = 0.5 * (
        abs((1 - p) - math.exp(-p))
        + abs(p - p * math.exp(-p))
        + (1 - math.exp(-p) - p * math.exp(-p))
    )
    assert tv == pytest.approx(oracle, abs=1e-10)
    assert tv == pytest.approx(0.0095163, abs=1e-7)


def test_dissociated_sum_bound_values():
    assert dissociated_sum_bound(1, 0.02, 1.0, 1.0) == pytest.approx(0.06, rel=1e-12)
    assert dissociated_sum_bound(2, 0.01, 1.0, 1.0) == pytest.approx(0.09, rel=1e-12)
    val = dissociated_sum_bound(2, 0.01, 1.0, 1.1)
    assert val == pytest.approx(0.09 + 0.2 * math.exp(1.1), rel=1e-6)
    assert val == pytest.approx(0.690832, abs=1e-5)


def test_poisson_shift_bound_values():
    assert poisson_shift_bound(1.3, 1.3) == 0.0
    assert poisson_shift_bound(1.0, 1.05) == pytest.approx(
        0.1 * math.exp(1.05), rel=1e-9
    )
    tv = tv_distance(PoissonLaw(1.0).distribution(), PoissonLaw(1.05).distribution())
    # the two pmfs cross between k=1 and k=2, so TV = F_1(1) - F_1.05(1)
    closed_form = 2 * math.exp(-1) - 2.05 * math.exp(-1.05)
    assert tv == pytest.approx(closed_form, abs=1e-10)
    assert tv == pytest.approx(0.0183865, abs=1e-6)
    assert tv <= poisson_shift_bound(1.0, 1.05)


def test_empirical_distribution_counting():
    d = empirical_distribution([0, 0, 1, 1])
    assert d.pmf == {0: 0.5, 1: 0.5}
    assert d.sample_size == 4
    single = empirical_distribution([3])
    assert single.pmf == {3: 1.0}
    with pytest.raises(ValidationError):
        empirical_distribution([])


def test_empirical_distribution_refuses_fractional_counts():
    for bad in ([0.5, 1.7, 2.9], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValidationError, match="whole numbers"):
            empirical_distribution(bad)
    # whole floats and the samplers' int64 arrays count as before
    assert empirical_distribution([1.0, 2.0]).pmf == {1: 0.5, 2: 0.5}
    assert empirical_distribution(np.array([2, 0], dtype=np.int64)).pmf == {0: 0.5, 2: 0.5}


def test_count_distribution_refuses_sample_size_below_one():
    for bad in (-5, 0):
        with pytest.raises(ValidationError, match="sample_size"):
            CountDistribution(pmf={0: 1.0}, sample_size=bad)
    assert CountDistribution(pmf={0: 1.0}, sample_size=1).sample_size == 1


def test_empirical_poisson_draws_within_ci():
    rng = derive_rng(314, 99)
    d = empirical_distribution(rng.poisson(1.0, size=100_000).tolist())
    sigma = math.sqrt(math.exp(-1) * (1 - math.exp(-1)) / 100_000)
    assert abs(d.prob(0) - math.exp(-1)) < 3 * sigma


def _random_dist(draw_probs):
    total = sum(draw_probs)
    pmf = {k: p / total for k, p in enumerate(draw_probs) if p > 0}
    return CountDistribution(pmf=pmf)


_probs = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(
    lambda v: sum(v) > 1e-9
)


@given(_probs, _probs, _probs)
@settings(max_examples=100, deadline=None)
def test_tv_is_a_metric(a, b, c):
    da, db, dc = _random_dist(a), _random_dist(b), _random_dist(c)
    assert tv_distance(da, db) == pytest.approx(tv_distance(db, da), abs=1e-12)
    assert tv_distance(da, da) < 1e-12
    assert tv_distance(da, dc) <= tv_distance(da, db) + tv_distance(db, dc) + 1e-12


@given(st.floats(0.01, 5.0), st.floats(0.01, 5.0))
@settings(max_examples=60, deadline=None)
def test_poisson_shift_bound_dominates_tv(lam, lam2):
    tv = tv_distance(PoissonLaw(lam).distribution(), PoissonLaw(lam2).distribution())
    assert tv <= poisson_shift_bound(lam, lam2) + 1e-10


@given(st.floats(0.05, 8.0))
@settings(max_examples=40, deadline=None)
def test_poisson_mean_matches_lambda(lam):
    dist = PoissonLaw(lam).distribution()
    assert dist.mean() == pytest.approx(lam, rel=1e-6)
