"""Bernoulli array model: simulation, exact oracle, moment terms, TV bound."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonconv import (
    BernoulliScheme,
    PoissonLaw,
    chen_stein_terms,
    exact_distribution,
    linear_schedule,
    simulate_batch,
    tv_distance,
    verify_poisson_bound,
)
from nonconv import bernoulli, markov
from nonconv.errors import ResourceError, ValidationError
from nonconv.schedules import (
    QSchedule,
    arithmetic_gap_schedule,
    exponential_gap_schedule,
    polynomial_schedule,
    table_schedule,
)
from nonconv.sevastyanov import bernoulli_model_oracle, check_conditions
from scalar_reference import _UnionFind


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
    assert simulate_batch(scheme, 0, 1)[0] == 12


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


def _chen_stein_loop(scheme, p=None):
    """(I2, I3) by the per-tuple loop over the sites: for each term, every
    other term that shares a site with it.  ``p`` may be a Fraction."""
    p = scheme.p if p is None else p
    tuples = [frozenset(t) for t in scheme.term_indices.tolist()]
    by_site = {}
    for l, tup in enumerate(tuples):
        for q in tup:
            by_site.setdefault(q, []).append(l)
    I2 = I3 = 0 * p
    for l, tup in enumerate(tuples):
        partners = set().union(*(by_site[q] for q in tup)) - {l}
        for k in partners:
            I2 += p ** (2 * scheme.ell)
            I3 += p ** len(tup | tuples[k])
    return I2, I3


@st.composite
def _chen_stein_schemes(draw):
    """A scheme of up to 400 terms, ell <= 3, from one of five families."""
    family = draw(st.sampled_from(
        ["linear", "polynomial", "exponential_gap", "arithmetic_gap", "table"]
    ))
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(1, 399))
    if family == "linear":
        sched = linear_schedule(ell)
    elif family == "polynomial":
        sched = polynomial_schedule(ell, draw(st.integers(1, 2)))
    elif family == "exponential_gap":
        sched = exponential_gap_schedule(ell)  # at ell = 3, (l, 2l) share two sites
    elif family == "arithmetic_gap":
        sched = arithmetic_gap_schedule(ell, draw(st.sampled_from([0.5, 1.0, 4.0])), 0.5)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        steps = np.random.default_rng(seed).integers(0, 3, size=(n, ell))
        steps[0] = 1
        steps[:, 0] = np.maximum(steps[:, 0], 1)  # q_1 strictly increasing
        rows = np.cumsum(np.cumsum(steps, axis=0), axis=1)  # rows increasing too
        sched = table_schedule(rows.tolist())
    return BernoulliScheme(n=n, ell=ell, p=draw(st.floats(0.02, 0.98)), schedule=sched)


@given(_chen_stein_schemes())
@settings(max_examples=200, deadline=None)
def test_chen_stein_terms_match_per_tuple_loop(scheme):
    terms = chen_stein_terms(scheme)
    I2, I3 = _chen_stein_loop(scheme)
    assert terms.I1 == pytest.approx(scheme.n * scheme.p ** (2 * scheme.ell), rel=1e-12)
    assert terms.I2 == pytest.approx(I2, rel=1e-12, abs=0.0)
    assert terms.I3 == pytest.approx(I3, rel=1e-12, abs=0.0)


def test_chen_stein_terms_against_rationals():
    # the loop's float sum of I3 and the class sums differ in the 12th digit
    # here; the class sums are the closer to the exact rational sum
    scheme = _scheme(156, 3, 0.40814)
    terms = chen_stein_terms(scheme)
    I2, I3 = _chen_stein_loop(scheme, Fraction(scheme.p))
    _, loop_I3 = _chen_stein_loop(scheme)
    assert abs(terms.I2 - float(I2)) <= 1e-15 * float(I2)
    assert abs(terms.I3 - float(I3)) <= 1e-15 * float(I3)
    assert abs(terms.I3 - float(I3)) <= abs(loop_I3 - float(I3))


@pytest.mark.parametrize(
    "n, ell, sched",
    [
        (300, 2, arithmetic_gap_schedule(2, 4.0, 0.5)),
        (200, 3, exponential_gap_schedule(3)),
        (150, 3, linear_schedule(3)),
    ],
)
def test_chen_stein_terms_are_the_checkers_clustered_sums(n, ell, sched):
    """I2 and I3 are twice the checker's rare sums at threshold 0, cutoff 0,
    in exact mode and in sampled mode (stratum B, the pair classes)."""
    terms = chen_stein_terms(BernoulliScheme.from_lambda(n, ell, 1.0, sched))
    factory = bernoulli_model_oracle(ell, 1.0, sched)
    pairs = math.comb(n, 2)
    for budget, mode in ((pairs, "exact"), (pairs - 1, "sampled")):
        stage = check_conditions(factory, sched, 2, [n], (0, 0), budget=budget).stage(n)
        assert stage.mode == mode
        assert terms.I2 == pytest.approx(2 * stage.rare_sum_product, rel=1e-12, abs=0.0)
        assert terms.I3 == pytest.approx(2 * stage.rare_sum_joint, rel=1e-12, abs=0.0)


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
    # the rows oracle: the same sites, shifted by 5, from 0 and with a repeat
    rows = np.array([[6, 7, 9], [0, 1, 3], [1, 2, 4]])
    assert stage.b_at(rows).tolist() == [stage.b((1, 2))] * 3
    assert stage.b_at(np.array([[1, 2, 2, 4]])).tolist() == [stage.b((1, 2))]


def test_law_cell_budget_resource_error(monkeypatch):
    # linear ell = 3 at n = 40: the component of term 1 has 5 terms open at
    # once and 14 terms, a DP of 2^5 * 15 = 480 floats
    scheme = _scheme(40, 3, 0.2)
    monkeypatch.setattr(markov, "LAW_CELL_BUDGET", 479)
    with pytest.raises(ResourceError, match="5 open terms at once needs 480 floats"):
        exact_distribution(scheme)
    monkeypatch.setattr(markov, "LAW_CELL_BUDGET", 480)
    exact_distribution(scheme)
    # linear ell = 2 is a chain, one term open at a time: at n = 4096 the
    # largest component, terms 1, 2, 4, ..., 4096, needs 2^1 * 14 floats
    chain = _scheme(4096, 2, 0.2)
    monkeypatch.setattr(markov, "LAW_CELL_BUDGET", 27)
    with pytest.raises(ResourceError, match="1 open terms at once needs 28 floats"):
        exact_distribution(chain)
    monkeypatch.setattr(markov, "LAW_CELL_BUDGET", 28)
    exact_distribution(chain)


def test_frontier_budgets_refuse_before_any_dp(monkeypatch):
    def no_dp(table, p, sites):
        raise AssertionError("the frontier DP ran")

    monkeypatch.setattr(bernoulli, "_component_law", no_dp)
    # rows (l, l + 1, l + 40) form one component in which term l stays open
    # until site l + 40: 40 terms open at once, a DP of 2^40 states
    rows = [(l, l + 1, l + 40) for l in range(1, 81)]
    wide = BernoulliScheme(n=80, ell=3, p=0.3, schedule=table_schedule(rows))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="40 open terms at once needs .* over the budget"):
            exact_distribution(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the budget is read at call time: linear ell = 3 at n = 1024 needs 10
    # open terms at once, refused under a budget of 1024 floats
    scheme = BernoulliScheme.from_lambda(1024, 3, 1.0, linear_schedule(3))
    monkeypatch.setattr(markov, "LAW_CELL_BUDGET", 2**10)
    with pytest.raises(ResourceError, match="10 open terms at once .* over the budget of 1024"):
        exact_distribution(scheme)
    with pytest.raises(ResourceError, match="10 open terms at once .* over the budget of 1024"):
        verify_poisson_bound(scheme, 1.0)


def test_exact_law_drops_subnormal_cells():
    # linear ell = 2 at n = 1024: P(S = k) falls below the smallest normal
    # float from k = 210 on, where a float no longer carries 12 digits
    dist = exact_distribution(BernoulliScheme.from_lambda(1024, 2, 1.0, linear_schedule(2)))
    assert min(dist.pmf.values()) >= np.finfo(float).tiny
    assert max(dist.pmf) == 209


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


# -- the frontier DP against references --------------------------------------

def _reference_components(scheme):
    """Term tuples grouped by shared sites (a union-find over the sites)."""
    uf = _UnionFind()
    tuples = [tuple(t) for t in scheme.term_indices.tolist()]
    for tup in tuples:
        for q in tup[1:]:
            uf.union(("site", tup[0]), ("site", q))
        uf.find(("site", tup[0]))
    groups = {}
    for tup in tuples:
        groups.setdefault(uf.find(("site", tup[0])), []).append(tup)
    return list(groups.values())


def _enumerated_pmf(tuples, p):
    """Count law of one component by enumerating its 2^m site assignments.

    The assignments are tallied exactly by (count, number of ones), so each
    probability is a sum of at most m + 1 terms.  (Summing the 2^m weights
    one by one drifts: 1.8e-13 at m = 15, p = 1/32.)
    """
    sites = sorted({q for tup in tuples for q in tup})
    m = len(sites)
    pos = {q: i for i, q in enumerate(sites)}
    assign = np.arange(1 << m, dtype=np.int64)
    ones = sum((assign >> b) & 1 for b in range(m))
    counts = np.zeros(assign.size, dtype=np.int64)
    for tup in tuples:
        mask = sum(1 << pos[q] for q in set(tup))
        counts += (assign & mask) == mask
    tally = np.bincount(counts * (m + 1) + ones, minlength=(len(tuples) + 1) * (m + 1))
    tally = tally.reshape(len(tuples) + 1, m + 1).tolist()
    return np.array([
        math.fsum(c * p**j * (1.0 - p) ** (m - j) for j, c in enumerate(row) if c)
        for row in tally
    ])


def _fraction_pmf(tuples, p):
    """Exact count law of one component by a site-by-site DP in rationals.

    The state is the set of started terms whose sites so far are all 1.
    """
    sites = sorted({q for tup in tuples for q in tup})
    start = {i: min(t) for i, t in enumerate(tuples)}
    end = {i: max(t) for i, t in enumerate(tuples)}
    states = {frozenset(): {0: Fraction(1)}}
    for s in sites:
        through = {i for i, t in enumerate(tuples) if s in t}
        nxt = {}

        def add(state, count, w):
            row = nxt.setdefault(state, {})
            row[count] = row.get(count, 0) + w

        for alive, pmf in states.items():
            born = {i for i in through if start[i] == s}
            up = alive | born
            done = {i for i in up if end[i] == s}
            down = alive - through
            for c, w in pmf.items():
                add(frozenset(up - done), c + len(done), w * p)
                add(frozenset(down), c, w * (1 - p))
        states = nxt
    law = [Fraction(0)] * (len(tuples) + 1)
    for pmf in states.values():
        for c, w in pmf.items():
            law[c] += w
    return law


def _truncated_product(laws, K):
    out = [Fraction(1)] + [Fraction(0)] * K
    for law in laws:
        out = [sum(out[i] * law[k - i] for i in range(k + 1) if k - i < len(law))
               for k in range(K + 1)]
    return out


@st.composite
def _small_schemes(draw):
    """A scheme of at most 16 distinct sites from one of four families."""
    family = draw(st.sampled_from(["linear", "polynomial", "arithmetic_gap", "table"]))
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    if family == "linear":
        sched = linear_schedule(ell)
    elif family == "polynomial":
        sched = polynomial_schedule(ell, draw(st.integers(1, 2)))
    elif family == "arithmetic_gap":
        sched = arithmetic_gap_schedule(ell, draw(st.sampled_from([0.5, 1.0, 4.0])), 0.5)
    else:
        steps = draw(st.lists(st.lists(st.integers(1, 3), min_size=ell, max_size=ell),
                              min_size=n, max_size=n))
        rows = np.cumsum(np.cumsum(np.array(steps), axis=0), axis=1)
        sched = table_schedule(rows.tolist())
    scheme = BernoulliScheme(n=n, ell=ell, p=draw(st.floats(0.02, 0.98)), schedule=sched)
    assume(scheme.needed_indices.size <= 16)
    return scheme


@given(_small_schemes())
@settings(max_examples=120, deadline=None)
def test_frontier_dp_matches_enumeration(scheme):
    law = np.array([1.0])
    for tuples in _reference_components(scheme):
        law = np.convolve(law, _enumerated_pmf(tuples, scheme.p))
    dist = exact_distribution(scheme)
    assert max(dist.pmf) <= scheme.n
    for k in range(scheme.n + 1):
        assert abs(dist.prob(k) - law[k]) <= 1e-13, (k, dist.prob(k), law[k])


@pytest.mark.parametrize(
    "n, ell, sched",
    [
        (1024, 2, arithmetic_gap_schedule(2, 4.0, 0.5)),  # one component has 23 sites
        (64, 3, linear_schedule(3)),
        (40, 3, exponential_gap_schedule(3)),
    ],
)
def test_frontier_dp_matches_rational_dp(n, ell, sched):
    scheme = BernoulliScheme.from_lambda(n, ell, 1.0, sched)
    p = Fraction(scheme.p)  # the float p, exactly
    K = 40
    exact = _truncated_product(
        [_fraction_pmf(t, p) for t in _reference_components(scheme)], K
    )
    dist = exact_distribution(scheme)
    for k in range(K + 1):
        assert abs(dist.prob(k) - float(exact[k])) <= 1e-15, k
    assert sum(v for k, v in dist.pmf.items() if k > K) <= 1e-15


def test_exact_tv_along_the_paper_schedules():
    """Exact TV(S_n, Po(1)) along two schedules, with noise-free identities.

    The pmf sums to 1 and its mean is lambda_n = n p^ell = 1, each to 1e-12.
    """
    grid = [(arithmetic_gap_schedule(2, 4.0, 0.5), 2, 2**e) for e in (8, 10, 12, 14, 16)]
    grid += [(linear_schedule(3), 3, n) for n in (16, 64, 256, 1024)]
    poisson = PoissonLaw(1.0).distribution()
    print("\nschedule                              n      TV(S_n, Po(1))")
    tv = {}
    for sched, ell, n in grid:
        scheme = BernoulliScheme.from_lambda(n, ell, 1.0, sched)
        dist = exact_distribution(scheme)
        assert abs(sum(dist.pmf.values()) - 1.0) <= 1e-12
        assert abs(dist.mean() - scheme.lambda_n) <= 1e-12
        tv[sched.name, n] = tv_distance(dist, poisson)
        print(f"{sched.name:36s} {n:6d}  {tv[sched.name, n]:.6e}")
    for name in {name for name, _ in tv}:
        trend = [tv[key] for key in sorted(tv) if key[0] == name]
        assert all(b < a for a, b in zip(trend, trend[1:])), (name, trend)
