"""Bernoulli array model: simulation, exact oracle, moment terms, TV bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    BernoulliScheme,
    PoissonLaw,
    chen_stein_terms,
    exact_distribution,
    linear_schedule,
    simulate_batch,
    simulate_sum,
    tv_distance,
    verify_poisson_bound,
)
from nonconv.errors import ResourceError, ValidationError
from nonconv.schedules import QSchedule, exponential_gap_schedule
from nonconv.sevastyanov import bernoulli_model_oracle


def _scheme(n, ell, p):
    return BernoulliScheme(n=n, ell=ell, p=p, schedule=linear_schedule(ell))


def test_from_lambda_makes_lambda_exact():
    sched = linear_schedule(2)
    for n in (8, 12, 16):
        scheme = BernoulliScheme.from_lambda(n, 2, 1.0, sched)
        assert scheme.p == pytest.approx((1.0 / n) ** 0.5, rel=1e-14)
        assert scheme.lambda_n == pytest.approx(1.0, rel=1e-12)


def test_single_term_is_bernoulli_power():
    scheme = _scheme(1, 2, 0.4)
    dist = exact_distribution(scheme)
    assert dist.prob(1) == pytest.approx(0.4**2, rel=1e-12)
    assert dist.prob(0) == pytest.approx(1 - 0.4**2, rel=1e-12)
    draws = simulate_batch(scheme, seed=11, replicates=100_000)
    sigma = math.sqrt(0.16 * 0.84 / 100_000)
    assert abs(draws.mean() - 0.16) < 3 * sigma


def test_degenerate_p_near_one():
    scheme = _scheme(12, 2, 1 - 1e-9)
    assert simulate_sum(scheme, seed=0) == 12


def test_two_term_overlap_exact_values():
    # S = xi_1 xi_2 + xi_2 xi_4 shares xi_2, so P(S = 2) = p^3
    p = 0.3
    scheme = _scheme(2, 2, p)
    dist = exact_distribution(scheme)
    assert dist.prob(2) == pytest.approx(p**3, rel=1e-12)
    assert dist.prob(1) == pytest.approx(2 * p**2 * (1 - p), rel=1e-12)
    assert sum(dist.pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_indices_give_binomial():
    # q_j(l) = l * 2^(j-1) with odd l only would be disjoint; use a table
    rows = {l: (10 * l, 10 * l + 1) for l in range(1, 6)}
    from nonconv.schedules import table_schedule

    scheme = BernoulliScheme(n=5, ell=2, p=0.25, schedule=table_schedule(rows))
    dist = exact_distribution(scheme)
    q = 0.25**2
    for k in range(6):
        assert dist.prob(k) == pytest.approx(
            math.comb(5, k) * q**k * (1 - q) ** (5 - k), rel=1e-10
        )


def test_monte_carlo_matches_oracle_per_bin():
    scheme = _scheme(6, 2, 0.35)
    dist = exact_distribution(scheme)
    reps = 100_000
    draws = simulate_batch(scheme, seed=7, replicates=reps)
    for k, pk in dist.pmf.items():
        emp = float(np.mean(draws == k))
        sigma = math.sqrt(pk * (1 - pk) / reps)
        assert abs(emp - pk) <= 3 * sigma + 1e-9


def test_chen_stein_closed_forms():
    terms = chen_stein_terms(_scheme(10, 2, 0.1))
    assert terms.I1 == pytest.approx(10 * 0.1**4, rel=1e-12)

    p = 0.2
    terms2 = chen_stein_terms(_scheme(2, 2, p))
    assert terms2.I2 == pytest.approx(2 * p**4, rel=1e-12)
    assert terms2.I3 == pytest.approx(2 * p**3, rel=1e-12)
    assert terms2.I3 <= 2 * 4 * p**3


def test_chen_stein_disjoint_schedule():
    from nonconv.schedules import table_schedule

    rows = {l: (10 * l, 10 * l + 1) for l in range(1, 5)}
    terms = chen_stein_terms(BernoulliScheme(n=4, ell=2, p=0.3, schedule=table_schedule(rows)))
    assert terms.I2 == 0.0 and terms.I3 == 0.0


def test_verify_poisson_bound_holds():
    sched = linear_schedule(2)
    for n in (8, 12, 16):
        report = verify_poisson_bound(BernoulliScheme.from_lambda(n, 2, 1.0, sched), 1.0)
        assert report.holds
        assert report.tv_exact <= report.bound + 1e-10


def test_verify_poisson_bound_ell1_binomial():
    sched = linear_schedule(1)
    scheme = BernoulliScheme.from_lambda(20, 1, 1.0, sched)
    report = verify_poisson_bound(scheme, 1.0)
    assert report.holds
    assert report.bound == pytest.approx(3 * scheme.p, rel=1e-12)


def test_verify_poisson_bound_single_term():
    scheme = _scheme(1, 2, 0.3)
    lam = scheme.lambda_n
    report = verify_poisson_bound(scheme, lam)
    assert report.holds


def test_exact_b_is_site_count_power():
    stage = bernoulli_model_oracle(2, 1.0, linear_schedule(2))(4)  # p = 1/2
    # tuple (1, 2) shares the site 2, so the union is {1, 2, 4}
    assert stage.b((1, 2)) == pytest.approx(0.5**3, rel=1e-12)
    assert stage.b((2, 1)) == stage.b((1, 2))
    assert stage.b_at([6, 7, 9]) == stage.b((1, 2))  # the same sites shifted by 5


def test_component_cap_resource_error():
    scheme = _scheme(40, 2, 0.2)
    with pytest.raises(ResourceError):
        exact_distribution(scheme, component_cap=3)


def test_invalid_scheme_rejected():
    with pytest.raises(ValidationError):
        BernoulliScheme(n=2, ell=2, p=1.5, schedule=linear_schedule(2))
    with pytest.raises(ValidationError):
        BernoulliScheme(n=0, ell=2, p=0.4, schedule=linear_schedule(2))


@given(
    st.integers(1, 6),
    st.sampled_from([1, 2, 3]),
    st.floats(0.05, 0.95),
)
@settings(max_examples=40, deadline=None)
def test_exact_mean_equals_sum_of_b(n, ell, p):
    lam = n * p**ell
    scheme = BernoulliScheme.from_lambda(n, ell, lam, linear_schedule(ell))
    stage = bernoulli_model_oracle(ell, lam, linear_schedule(ell))(n)
    dist = exact_distribution(scheme)
    mean_b = sum(stage.b((l,)) for l in range(1, n + 1))
    assert dist.mean() == pytest.approx(mean_b, abs=1e-10)


@given(st.integers(2, 7), st.floats(0.05, 0.6))
@settings(max_examples=30, deadline=None)
def test_I1_exactness_property(n, p):
    for sched in (linear_schedule(2), exponential_gap_schedule(2)):
        terms = chen_stein_terms(BernoulliScheme(n=n, ell=2, p=p, schedule=sched))
        assert terms.I1 == pytest.approx(n * p**4, rel=1e-12)
        assert terms.I2 <= n * 4 * p**4 + 1e-15
        assert terms.I3 <= n * 4 * p**3 + 1e-15


def _tv_grid(ns):
    sched = linear_schedule(2)
    out = []
    for n in ns:
        scheme = BernoulliScheme.from_lambda(n, 2, 1.0, sched)
        dist = exact_distribution(scheme)
        out.append(tv_distance(dist, PoissonLaw(1.0).distribution()))
    return out


@pytest.mark.xfail(
    strict=True,
    reason="exact TV rises from 0.03344 (n=8) to 0.03591 (n=12) before "
    "decaying; verified against an independent 2^18 brute-force enumeration, "
    "so the nonincreasing trend from n=8 does not hold at 1e-3 slack",
)
def test_tv_trend_nonincreasing_from_n8():
    tvs = _tv_grid((8, 12, 16, 24))
    for a, b in zip(tvs, tvs[1:]):
        assert b <= a + 1e-3


def test_tv_trend_nonincreasing_from_n12():
    tvs = _tv_grid((12, 16, 24, 32, 48))
    for a, b in zip(tvs, tvs[1:]):
        assert b <= a + 1e-3
    assert tvs[-1] < tvs[0]
