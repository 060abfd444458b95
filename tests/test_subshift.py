"""Subshifts of finite type: measures, mixing certificates, targets, hits."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    CertificationError,
    MarkovGibbsMeasure,
    SubshiftSFT,
    ValidationError,
    aep_deviation,
    cylinder_prob,
    full_shift,
    gibbs_constant,
    golden_mean_shift,
    hitting_time_batch,
    linear_schedule,
    make_target,
    psi_mixing_check,
    sample_clear_word,
    sample_point,
    short_return_check,
    simulate_nonconventional_batch,
    uniform_measure,
)
from nonconv.errors import ResourceError
from nonconv.schedules import arithmetic_gap_schedule, polynomial_schedule, table_schedule
from nonconv.subshift import (
    _counts_and_first,
    exact_b_subshift,
    exact_sum_distribution_subshift,
    replicate_count,
)


def _golden_measure():
    return MarkovGibbsMeasure(golden_mean_shift(), [[2 / 3, 1 / 3], [1.0, 0.0]])


def test_sft_validation():
    with pytest.raises(ValidationError):
        SubshiftSFT.from_matrix([[0, 0], [1, 1]])
    with pytest.raises(ValidationError):
        SubshiftSFT.from_matrix([[1, 2], [1, 0]])


def test_admissibility_and_word_count():
    sft = golden_mean_shift()
    assert sft.admissible((0, 1, 0, 0, 1))
    assert not sft.admissible((0, 1, 1))
    # admissible word counts follow the Fibonacci recursion
    counts = [sum(1 for _ in sft.words(n)) for n in range(1, 8)]
    assert counts == [2, 3, 5, 8, 13, 21, 34]


def test_measure_requires_support_match():
    with pytest.raises(ValidationError):
        MarkovGibbsMeasure(golden_mean_shift(), [[0.5, 0.5], [0.5, 0.5]])


def test_golden_mean_stationary_law():
    gm = _golden_measure()
    assert gm.pi == pytest.approx([0.75, 0.25], abs=1e-12)
    assert cylinder_prob(gm, (0, 1, 0)) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValidationError):
        cylinder_prob(gm, (1, 1))


def test_uniform_full_shift_cylinders():
    um = uniform_measure(full_shift(2))
    for n in (1, 4, 9):
        w = tuple([0, 1] * n)[:n]
        assert cylinder_prob(um, w) == pytest.approx(2.0**-n, rel=1e-12)


def test_gibbs_constant_values():
    assert gibbs_constant(uniform_measure(full_shift(2)), 5) == pytest.approx(1.0)
    c = gibbs_constant(_golden_measure(), 5)
    assert c == pytest.approx(4.0, rel=1e-12)
    # the scan stabilizes for two-symbol memory potentials
    assert gibbs_constant(_golden_measure(), 8) == c


def test_psi_mixing_full_shift_uniform():
    cert = psi_mixing_check(uniform_measure(full_shift(2)), l_max=3, gap_max=8)
    assert cert.beta == math.inf
    assert cert.C == 0.0


def test_psi_mixing_golden_mean():
    gm = _golden_measure()
    cert = psi_mixing_check(gm, l_max=4, gap_max=16)
    # second transfer eigenvalue is -1/3, so the decay rate is ln 3
    assert abs(cert.beta - math.log(3)) / math.log(3) < 0.05
    for g, err in enumerate(cert.envelope, start=1):
        assert err <= cert.C * math.exp(-cert.beta * g) + 1e-12


def test_psi_mixing_envelope_is_exact_worst_case():
    gm = _golden_measure()
    cert = psi_mixing_check(gm, l_max=3, gap_max=6)
    # brute-force the relative errors over all cylinder pairs at gap 1
    Q, pi = gm.Q, gm.pi
    worst = 0.0
    for lu in (1, 2, 3):
        for u in gm.sft.words(lu):
            for lv in (1, 2, 3):
                for v in gm.sft.words(lv):
                    n = lu  # smallest allowed shift, effective gap 1
                    pu, pv = cylinder_prob(gm, u), cylinder_prob(gm, v)
                    joint = pu * np.linalg.matrix_power(Q, 1)[u[-1], v[0]] / pi[v[0]] * pv
                    worst = max(worst, abs(joint - pu * pv) / (pu * pv))
    assert cert.envelope[0] == pytest.approx(worst, rel=1e-9)


def test_short_return_examples():
    fs = full_shift(2)
    assert short_return_check(fs, (0, 0, 1, 0, 0, 1, 1), 3)
    assert not short_return_check(fs, (0, 0, 0), 1)
    gm = golden_mean_shift()
    assert not short_return_check(gm, (0, 1, 0, 1), 2)


def test_short_return_bridge_case():
    # shifts past the word length intersect iff an admissible bridge exists
    gm = golden_mean_shift()
    # word 1..1: bridges 1 -> 1 of length >= 2 exist (through 0)
    assert not short_return_check(gm, (1,), 2)


@given(st.integers(1, 10), st.integers(0, 5), st.integers(0, 1023))
@settings(max_examples=120, deadline=None)
def test_short_return_matches_period_oracle(n, a_n, bits):
    # on the full shift a self-overlap at shift i < n is exactly a period i,
    # and every shift i >= n intersects (all bridges exist)
    fs = full_shift(2)
    w = tuple((bits >> k) & 1 for k in range(n))
    periods = [i for i in range(1, n) if all(w[k + i] == w[k] for k in range(n - i))]
    expect = not any(i <= a_n for i in periods) and a_n < n
    if a_n == 0:
        expect = True
    assert short_return_check(fs, w, a_n) == expect


def test_sample_point_deviation():
    gm = _golden_measure()
    devs = [aep_deviation(gm, sample_point(gm, 10_000, seed)) for seed in range(100)]
    assert float(np.mean(devs)) < 0.05


def test_sample_clear_word_is_clear():
    um = uniform_measure(full_shift(2))
    from nonconv.schedules import logpow_cutoff

    w = sample_clear_word(um, 12, 0.25, seed=3)
    assert len(w) == 12
    assert short_return_check(um.sft, w, logpow_cutoff(12, 0.25))


def test_make_target_plain_cylinder():
    um = uniform_measure(full_shift(2))
    w = (0, 1, 1, 0, 1, 0)
    target = make_target(um, w, n=6, s=0.0)
    assert target.blocks == (w,)
    assert target.m == 6
    assert target.prob == pytest.approx(2.0**-6, rel=1e-12)


def test_make_target_refinement():
    um = uniform_measure(full_shift(2))
    w = (0, 1, 1, 0, 1, 0)
    target = make_target(um, w, n=6, s=1.0)
    extra = int(1.0 * math.log(6))
    assert target.m == 6 + extra
    assert len(target.blocks) == 2**extra
    assert target.prob == pytest.approx(2.0**-6, rel=1e-12)
    partial = make_target(um, w, n=6, s=1.0, refine_seed=4, keep_fraction=0.5)
    assert len(partial.blocks) == max(1, round(0.5 * 2**extra))


def test_replicate_count():
    um = uniform_measure(full_shift(2))
    target = make_target(um, (0, 1, 0), n=3)
    assert replicate_count(target, ell=1, lam=1.0) == 8
    assert replicate_count(target, ell=2, lam=1.0) == 64


def test_simulate_matches_exact_small_case():
    gm = _golden_measure()
    sched = linear_schedule(2)
    target = make_target(gm, (0, 1), n=2)
    N = 4
    dist = exact_sum_distribution_subshift(gm, sched, target, N)
    reps = 200_000
    samples, N_used, lam_real = simulate_nonconventional_batch(
        gm, sched, target, lam=N * target.prob**2, seed=21, replicates=reps
    )
    assert N_used == N
    assert lam_real == pytest.approx(N * target.prob**2, rel=1e-9)
    for k in sorted(dist.pmf):
        pk = dist.prob(k)
        emp = float(np.mean(samples == k))
        sigma = math.sqrt(pk * (1 - pk) / reps)
        assert abs(emp - pk) <= 3.5 * sigma + 1e-9


def test_exact_b_subshift_singleton_and_bruteforce():
    gm = _golden_measure()
    sched = linear_schedule(2)
    target = make_target(gm, (0, 1), n=2)
    got = exact_b_subshift(gm, sched, target, (3,))
    # windows at positions 3 and 6, both equal to the block (0, 1)
    brute = 0.0
    for w in gm.sft.words(8):
        if w[3:5] == (0, 1) and w[6:8] == (0, 1):
            brute += cylinder_prob(gm, w)
    assert got == pytest.approx(brute, rel=1e-10)


def test_exact_b_subshift_budget():
    um = uniform_measure(full_shift(2))
    target = make_target(um, tuple([0, 1] * 12), n=24)
    with pytest.raises(ResourceError):
        exact_b_subshift(um, linear_schedule(1), target, (1,), state_budget=1 << 10)


def test_simulation_requires_clear_target():
    um = uniform_measure(full_shift(2))
    target = make_target(um, (0,) * 8, n=8)  # period 1, self-overlapping
    assert not target.short_return_clear
    with pytest.raises(ValidationError):
        simulate_nonconventional_batch(
            um, linear_schedule(1), target, lam=1.0, seed=0, replicates=4
        )


def test_hitting_time_censoring():
    um = uniform_measure(full_shift(2))
    w = sample_clear_word(um, 6, 0.25, seed=9)
    target = make_target(um, w, n=6)
    scaled, censored = hitting_time_batch(
        um, linear_schedule(1), target, seed=13, replicates=4000, lam_cap=1.0
    )
    assert np.all(scaled[censored] == 1.0)
    assert np.all(scaled[~censored] <= 1.0)
    # censoring probability is close to the no-arrival mass e^{-1}
    assert abs(float(np.mean(censored)) - math.exp(-1)) < 0.05


@pytest.mark.parametrize("n", [2, 4, 6, 9, 12])
def test_cylinder_mass_sums_to_one(n):
    for measure in (_golden_measure(), uniform_measure(full_shift(2))):
        total = sum(cylinder_prob(measure, w) for w in measure.sft.words(n))
        assert total == pytest.approx(1.0, abs=1e-10)


@given(st.integers(1, 8), st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_cylinder_shift_invariance(n, bits):
    """Summing the measure over one-symbol prefixes reproduces the cylinder."""
    um = uniform_measure(full_shift(2))
    gm = _golden_measure()
    for measure in (um, gm):
        w = tuple((bits >> k) & 1 for k in range(n))
        if not measure.sft.admissible(w):
            continue
        total = sum(
            cylinder_prob(measure, (a,) + w)
            for a in range(measure.sft.iota)
            if measure.sft.admissible((a, w[0]))
        )
        assert total == pytest.approx(cylinder_prob(measure, w), rel=1e-10)


def test_exact_b_gap_factorization_bound():
    """Singleton arrival masses stay within the mixing envelope of P^ell."""
    gm = _golden_measure()
    sched = linear_schedule(2)
    target = make_target(gm, (0, 1), n=2)
    cert = psi_mixing_check(gm, l_max=4, gap_max=16)
    p = target.prob
    for l in (2, 3, 5):
        b = exact_b_subshift(gm, sched, target, (l,))
        gap = l - target.m + 1  # separation between the two windows
        tol = cert.C * math.exp(-cert.beta * max(gap, 1)) if gap >= 1 else cert.C
        assert abs(b - p * p) <= (tol + 1e-12) * p * p + 1e-12


_counter_schedules = st.sampled_from([
    linear_schedule(1),
    linear_schedule(2),
    linear_schedule(3),
    arithmetic_gap_schedule(2, 4.0, 0.5),
    polynomial_schedule(2, 2),  # q_1(l) = l^2 != l
    table_schedule([(2, 5), (3, 9), (7, 10), (8, 14), (11, 20), (12, 30)]),
])


@given(_counter_schedules, st.data())
@settings(max_examples=150, deadline=None)
def test_counts_and_first_match_brute_force(sched, data):
    N = data.draw(st.integers(1, min(30, sched.validation_horizon)), label="N")
    q = sched.columns(N)
    horizon = int(q[-1, -1])
    # hits fall on schedule positions often enough to complete terms
    candidates = sorted(set(q.ravel().tolist()) | set(range(min(horizon, 12) + 1)))
    replicates = data.draw(st.integers(1, 6), label="replicates")
    hit_sets = [
        sorted(data.draw(st.sets(st.sampled_from(candidates)), label=f"hits[{r}]"))
        for r in range(replicates)
    ]
    # emitted as sample_hits does: round k holds the k-th hit of every
    # replicate that has one, replicate ids sorted within the round
    rep_ids, positions = [], []
    for k in range(max(map(len, hit_sets))):
        for r, hits in enumerate(hit_sets):
            if k < len(hits):
                rep_ids.append(r)
                positions.append(hits[k])
    counts, first = _counts_and_first(
        q, np.array(rep_ids, dtype=np.int64),
        np.array(positions, dtype=np.int64), replicates,
    )
    for r, hits in enumerate(hit_sets):
        arrived = [l for l in range(1, N + 1) if set(q[l - 1].tolist()) <= set(hits)]
        assert counts[r] == len(arrived)
        assert first[r] == (arrived[0] if arrived else 0)


def test_counts_and_first_memory_is_free_of_the_horizon():
    # q_1(l) = l^3 is sparse: horizon 2^30 for N = 1024, where any array
    # indexed by position would take gigabytes
    q = polynomial_schedule(1, 3).columns(1024)
    horizon = int(q[-1, -1])
    rep_ids = np.array([0, 1, 0, 1, 1], dtype=np.int64)
    positions = np.array([8, 27, 9, 1000, horizon], dtype=np.int64)
    tracemalloc.start()
    counts, first = _counts_and_first(q, rep_ids, positions, 2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert counts.tolist() == [1, 3]
    assert first.tolist() == [2, 3]
    assert peak < 1 << 20
