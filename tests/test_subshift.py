"""Subshifts of finite type: measures, mixing certificates, targets, hits."""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    mixing_rate,
    psi_mixing_check,
    sample_clear_word,
    sample_point,
    short_return_check,
    simulate_nonconventional_batch,
    uniform_measure,
)
from nonconv.errors import ResourceError
from nonconv.markov import (
    _GAP_TAIL_TOL,
    FiniteMarkovChain,
    _counts_and_first,
    _first_arrivals,
    _HitEngine,
    _key_shift,
    exact_b,
    sample_counts,
    simulate_arrival_batch,
    word_lift,
)
from nonconv.rng import derive_rng
from nonconv.schedules import arithmetic_gap_schedule, polynomial_schedule, table_schedule
from nonconv.sevastyanov import subshift_model_oracle
from nonconv.subshift import (
    exact_sum_distribution_subshift,
    pattern_chain,
    replicate_count,
)


def _golden_measure():
    return MarkovGibbsMeasure(golden_mean_shift(), [[2 / 3, 1 / 3], [1.0, 0.0]])


def _stage_b(measure, sched, target, indices):
    """b of the given term indices from the subshift stage oracle of ``target``."""
    stage = subshift_model_oracle(measure, sched, 1.0, lambda n: target)(target.n)
    return stage.b(indices)


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
    cert = psi_mixing_check(uniform_measure(full_shift(2)), gap_max=8)
    assert cert.beta == math.inf
    assert cert.C == 0.0


def test_psi_mixing_golden_mean():
    gm = _golden_measure()
    cert = psi_mixing_check(gm, gap_max=16)
    # second transfer eigenvalue is -1/3, so the decay rate is ln 3
    assert abs(cert.beta - math.log(3)) / math.log(3) < 0.05
    for g, err in enumerate(cert.envelope, start=1):
        assert err <= cert.C * math.exp(-cert.beta * g) + 1e-12


def test_psi_mixing_envelope_is_exact_worst_case():
    gm = _golden_measure()
    cert = psi_mixing_check(gm, gap_max=6)
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


def test_mixing_certificates_of_a_chain_exact_at_gap_two():
    # Q = 1/3 + 0.05 u v^T with v^T u = 0: Q^2 has every row equal to pi,
    # so psi(g) and d(n) are float noise past the first step
    u, v = np.array([1.0, -1.0, 0.0]), np.array([1.0, 1.0, -2.0])
    measure = MarkovGibbsMeasure(full_shift(3), 1.0 / 3.0 + 0.05 * np.outer(u, v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = psi_mixing_check(measure, gap_max=16)
        mix = mixing_rate(measure.chain)
    assert (psi.C, psi.beta) == (0.0, math.inf)
    assert (mix.C1, mix.beta) == (0.0, math.inf)
    assert psi.envelope[0] == pytest.approx(0.3, rel=1e-12)


def _gibbs_by_words(measure, n_max):
    """gibbs_constant by scanning every admissible word of length <= n_max."""
    A, Q, pi = measure.sft._A, measure.Q, measure.pi
    worst = 1.0
    for n in range(1, n_max + 1):
        for w in measure.sft.words(n):
            nxt = w[0] if A[w[-1], w[0]] else int(np.argmax(Q[w[-1]]))
            ratio = pi[w[0]] / Q[w[-1], nxt]
            worst = max(worst, ratio, 1.0 / ratio)
    return float(worst)


def _random_measure(rng):
    iota = int(rng.integers(2, 5))
    while True:
        A = (rng.random((iota, iota)) < 0.6).astype(int)
        try:
            SubshiftSFT.from_matrix(A).wp  # primitive
            break
        except (ValidationError, CertificationError):
            pass
    Q = A * rng.uniform(0.05, 1.0, (iota, iota))
    return MarkovGibbsMeasure(SubshiftSFT.from_matrix(A), Q / Q.sum(axis=1, keepdims=True))


def test_gibbs_constant_equals_word_scan():
    rng = np.random.default_rng(2026)
    for _ in range(30):
        measure = _random_measure(rng)
        for n_max in range(1, 7):
            assert gibbs_constant(measure, n_max) == _gibbs_by_words(measure, n_max)


def test_certificates_enumerate_no_words(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("a certificate enumerated words")

    gm = _golden_measure()
    monkeypatch.setattr("nonconv.subshift.lex_words", no_enumeration)
    assert psi_mixing_check(gm, gap_max=16).beta == pytest.approx(math.log(3), rel=0.05)
    assert gibbs_constant(gm, 8) == pytest.approx(4.0, rel=1e-12)


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
    got = _stage_b(gm, sched, target, (3,))
    # windows at positions 3 and 6, both equal to the block (0, 1)
    brute = 0.0
    for w in gm.sft.words(8):
        if w[3:5] == (0, 1) and w[6:8] == (0, 1):
            brute += cylinder_prob(gm, w)
    assert got == pytest.approx(brute, rel=1e-10)


def test_exact_b_subshift_long_block():
    # m = 24, past any sliding-block lift; the pattern chain has 25 states
    um = uniform_measure(full_shift(2))
    target = make_target(um, tuple([0, 1] * 12), n=24)
    assert _stage_b(um, linear_schedule(1), target, (1,)) == 2.0**-24
    # windows at 1 and 3 overlap consistently (period 2): 26 symbols fixed
    assert _stage_b(um, linear_schedule(1), target, (1, 3)) == 2.0**-26


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
    cert = psi_mixing_check(gm, gap_max=16)
    p = target.prob
    for l in (2, 3, 5):
        b = _stage_b(gm, sched, target, (l,))
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


_block_schedules = st.sampled_from([
    *(linear_schedule(ell) for ell in (1, 2, 3)),
    *(arithmetic_gap_schedule(ell, 4.0, 0.5) for ell in (1, 2, 3)),
    polynomial_schedule(1, 3),  # sparse: q_1(l) = l^3
    polynomial_schedule(2, 2),  # q_1(l) = l^2 != l
    table_schedule([(2,), (3,), (7,), (8,), (11,), (12,)]),
    table_schedule([(2, 5), (3, 9), (7, 10), (8, 14), (11, 20), (12, 30)]),
    table_schedule([(1, 4, 6), (2, 5, 9), (4, 8, 12), (5, 9, 20), (6, 13, 21)]),
])


@given(_block_schedules, st.data())
@settings(max_examples=200, deadline=None)
def test_counts_and_first_match_brute_force(sched, data):
    # counted in term blocks of 1..64 keys and rows, which split the runs
    # of one position across blocks and leave some blocks without keys;
    # the keys come in any order
    N = data.draw(st.integers(1, min(40, sched.validation_horizon)), label="N")
    q = sched.columns(N)
    horizon = int(q[-1, -1])
    candidates = sorted(set(q.ravel().tolist()) | {0, 1, horizon})
    replicates = data.draw(st.integers(1, 40), label="replicates")
    hit_sets = [
        data.draw(st.sets(st.sampled_from(candidates), max_size=8), label=f"hits[{r}]")
        for r in range(replicates)
    ]
    # many replicates at one position, and hits at the horizon
    crowd = data.draw(st.sampled_from(candidates), label="crowd")
    for r in range(data.draw(st.integers(0, replicates), label="crowded")):
        hit_sets[r].add(crowd)
    if data.draw(st.booleans(), label="at_horizon"):
        hit_sets[-1].add(horizon)
    shift = _key_shift(horizon, replicates)
    keys = [(h << shift) | r for r, hits in enumerate(hit_sets) for h in hits]
    keys = data.draw(st.permutations(keys), label="order")
    dtype = data.draw(st.sampled_from([np.int64, np.uint32]), label="dtype")
    keys = np.array(keys, dtype=dtype)
    block = data.draw(st.integers(1, 64), label="block")
    with mock.patch("nonconv.markov._COUNT_BLOCK", block):
        counts, first = _counts_and_first(q, keys, replicates)
    assert keys.tolist() == sorted(keys.tolist())
    for r, hits in enumerate(hit_sets):
        arrived = [l for l in range(1, N + 1) if set(q[l - 1].tolist()) <= hits]
        assert counts[r] == len(arrived)
        assert first[r] == (arrived[0] if arrived else 0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_counts_and_first_skip_hits_off_the_image_of_q1(data):
    # q_1(l) = l^2: the counter works in q_1 coordinates, and the key
    # slices for q_1 hold hits at every position between two squares.
    # With ell = 2 (q_2 = 2 l^2) such a key is in no other term list; with
    # ell = 1 the same keys are counted, and the inversion of q_1 drops
    # them.  Hits past a schedule's horizon are read by no term.
    N = data.draw(st.integers(2, 12), label="N")
    replicates = data.draw(st.integers(1, 6), label="replicates")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    density = data.draw(st.sampled_from([0.3, 0.7, 1.0]), label="density")
    top = 2 * N * N  # the horizon of ell = 2
    hit_sets = [set(np.flatnonzero(rng.random(top + 1) < density).tolist())
                for _ in range(replicates)]
    hit_sets[0] |= {2, 3}  # between q_1(1) = 1 and q_1(2) = 4
    shift = _key_shift(top, replicates)
    keys = np.array([(h << shift) | r for r, hits in enumerate(hit_sets) for h in hits],
                    dtype=data.draw(st.sampled_from([np.int64, np.uint32]), label="dtype"))
    block = data.draw(st.integers(1, 64), label="block")
    for ell in (2, 1):
        q = polynomial_schedule(ell, 2).columns(N)
        with mock.patch("nonconv.markov._COUNT_BLOCK", block):
            counts, first = _counts_and_first(q, rng.permutation(keys), replicates)
        for r, hits in enumerate(hit_sets):
            arrived = [l for l in range(1, N + 1) if set(q[l - 1].tolist()) <= hits]
            assert counts[r] == len(arrived)
            assert first[r] == (arrived[0] if arrived else 0)


@given(_counter_schedules, st.data())
@settings(max_examples=150, deadline=None)
def test_first_arrivals_over_stages_match_brute_force(sched, data):
    # fixed hit sets fed stage by stage as the engine feeds them: each call
    # hands over the hits past the previous limit of the replicates not yet
    # done, so the terms that straddle a stage cut need the carry.  On
    # linear_schedule(3) and polynomial_schedule(2, 2) a term's window spans
    # several stages.
    N = data.draw(st.integers(1, min(30, sched.validation_horizon)), label="N")
    q = sched.columns(N)
    horizon = int(q[-1, -1])
    candidates = sorted(set(q.ravel().tolist()) | set(range(min(horizon, 12) + 1)))
    replicates = data.draw(st.integers(1, 6), label="replicates")
    hit_sets = [
        data.draw(st.sets(st.sampled_from(candidates)), label=f"hits[{r}]")
        for r in range(replicates)
    ]
    stages = data.draw(st.integers(1, N + 1), label="stages")
    want = []
    for hits in hit_sets:
        arrived = [l for l in range(1, N + 1) if set(q[l - 1].tolist()) <= hits]
        want.append(arrived[0] if arrived else 0)
    shift = _key_shift(horizon, replicates)
    dtype = data.draw(st.sampled_from([np.int64, np.uint32]), label="dtype")
    limits = [-1]

    def fed(limit, done):
        # a replicate is done once it arrived at a term of an earlier stage
        assert done.tolist() == [0 < w and q[w - 1, -1] <= limits[-1] for w in want]
        keys = [(h << shift) | r for r, hits in enumerate(hit_sets) if not done[r]
                for h in hits if limits[-1] < h <= limit]
        limits.append(limit)
        return np.array(keys, dtype=dtype)

    assert _first_arrivals(q, replicates, fed, stages).tolist() == want
    assert limits[-1] == horizon and len(limits) == 1 + min(stages, N)


def test_resumed_sampler_keeps_each_parked_hit():
    # one replicate draws one uniform a round, so a run resumed at any
    # limits emits the hits of one whole-horizon call only if each hit past
    # a limit is kept for the next call rather than drawn again
    measure = _golden_measure()
    target = make_target(measure, sample_clear_word(measure, 7, 0.25, seed=3), 7,
                         s=2.0, refine_seed=5, keep_fraction=0.6)
    engine = _HitEngine(*pattern_chain(measure, target.blocks), 4000)
    assert len(engine.gap_tables) > 1
    for seed in range(5):
        rng = derive_rng(seed, 0)
        whole = engine.sample_hits(rng, engine.start(rng, 1), engine.horizon)
        assert whole.size > 10
        rng = derive_rng(seed, 0)
        pending = engine.start(rng, 1)
        cuts = [0, *sorted(derive_rng(seed, 1).choice(4000, 6, replace=False)), 4000]
        staged = [engine.sample_hits(rng, pending, int(c)) for c in cuts]
        assert np.array_equal(np.concatenate(staged), whole)
        for lo, hi, part in zip([-1, *cuts], cuts, staged):
            assert np.all((lo < part) & (part <= hi))
    # a retired replicate emits nothing more; the others go on
    rng = derive_rng(9, 0)
    pending = engine.start(rng, 3)
    engine.sample_hits(rng, pending, 1000)
    pending.retire(np.array([False, True, False]))
    rest = engine.sample_hits(rng, pending, engine.horizon)
    assert set((rest & 3).tolist()) == {0, 2}


def test_target_builds_its_pattern_chain_once(monkeypatch):
    # the samplers, the exact law and the stage oracle all read the
    # target's one cached (chain, accept)
    calls = []

    def counted(measure, blocks):
        calls.append(blocks)
        return pattern_chain(measure, blocks)

    monkeypatch.setattr("nonconv.subshift.pattern_chain", counted)
    measure = uniform_measure(full_shift(2))
    sched = linear_schedule(2)
    target = make_target(measure, (1, 0), 2)
    simulate_nonconventional_batch(measure, sched, target, 1.0, 1, 50)
    hitting_time_batch(measure, sched, target, 2, 50, lam_cap=1.0)
    exact_sum_distribution_subshift(measure, sched, target, 5)
    stage = subshift_model_oracle(measure, sched, 1.0, lambda n: target)(target.n)
    assert stage.b([3]) == pytest.approx(target.prob**2)
    assert calls == [target.blocks]


def test_arrival_draws_are_pinned(monkeypatch):
    # sha256 of the arrival counts and of the one-stage hitting times, as
    # drawn before the first-arrival sampler ran in stages: the arrival
    # counters and a one-stage first arrival draw the same key stream
    def sha(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
        return h.hexdigest()

    um = uniform_measure(full_shift(2))
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    target = make_target(um, sample_clear_word(um, 6, 0.25, seed=106), 6)
    counts, _, _ = simulate_nonconventional_batch(um, sched, target, 1.0, 42, 20_000)
    assert sha(counts) == "c788c5f4cc34bc3f84b5c3dd68324690611e6ebb45cd579ccb0d712d369dd6ea"
    chain = FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]])
    counts = simulate_arrival_batch(chain, linear_schedule(1), {1}, 100, 42, 5000)
    assert sha(counts) == "2b4f86df597317c011d5a4b4cd1418e6aa06e42f14a5bd1109993e76fc057691"
    monkeypatch.setattr("nonconv.markov._FIRST_ARRIVAL_STAGES", 1)
    scaled, censored = hitting_time_batch(um, sched, target, 77, 10_000, lam_cap=2.0)
    assert sha(scaled, censored) == (
        "0369bbc53e93664557001a35e23d002191c118620b66178fd82e6aa363b68fa7"
    )


def test_counts_and_first_memory_is_free_of_the_horizon():
    # q_1(l) = l^3 is sparse: horizon 2^30 for N = 1024, where any array
    # indexed by position would take gigabytes
    q = polynomial_schedule(1, 3).columns(1024)
    horizon = int(q[-1, -1])
    rep_ids = np.array([0, 1, 0, 1, 1], dtype=np.int64)
    positions = np.array([8, 27, 9, 1000, horizon], dtype=np.int64)
    keys = (positions << _key_shift(horizon, 2)) | rep_ids
    tracemalloc.start()
    counts, first = _counts_and_first(q, keys, 2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert counts.tolist() == [1, 3]
    assert first.tolist() == [2, 3]
    assert peak < 1 << 20


def test_counts_and_first_refuses_keys_that_overflow():
    # horizon 2^60: with 4 replicates a key (position << s) | replicate
    # needs 62 bits; with 16 it needs 64, which int64 cannot hold
    q = polynomial_schedule(1, 3).columns(2**20)
    horizon = int(q[-1, -1])
    assert horizon == 2**60
    keys = np.array([horizon << _key_shift(horizon, 4)], dtype=np.int64)
    counts, first = _counts_and_first(q, keys, 4)
    assert counts.tolist() == [1, 0, 0, 0]
    assert first.tolist() == [2**20, 0, 0, 0]
    with pytest.raises(ResourceError, match="overflow"):
        _counts_and_first(q, np.array([horizon], dtype=np.int64), 16)
    # the sampler refuses before it builds an engine or draws
    chain = FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]])
    rng = derive_rng(1, 0)
    state = rng.bit_generator.state
    with pytest.raises(ResourceError, match="overflow"):
        sample_counts(chain, [1], q, rng, 16)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("replicates", [2, 2**16])
def test_hit_keys_are_32_bit_when_they_fit(replicates):
    # (horizon + 1) << s = 2^32 is the longest horizon whose keys fit in
    # uint32; one position more needs int64.  Both engines draw the same
    # keys below the limit, and the counter reads them alike.
    chain = FiniteMarkovChain([[0.8, 0.2], [0.5, 0.5]])
    shift = _key_shift(0, replicates)
    q = linear_schedule(2).columns(30)
    drawn = []
    for horizon, dtype in [((1 << 32 - shift) - 1, np.uint32), (1 << 32 - shift, np.int64)]:
        assert _key_shift(horizon, replicates) == shift
        engine = _HitEngine(chain, [1], horizon)
        rng = derive_rng(3, 0)
        keys = engine.sample_hits(rng, engine.start(rng, replicates), int(q[-1, -1]))
        assert keys.dtype == dtype and keys.size > 0
        drawn.append(keys)
    assert np.array_equal(drawn[0], drawn[1])
    narrow = _counts_and_first(q, drawn[0], replicates)
    wide = _counts_and_first(q, drawn[1], replicates)
    assert narrow[0].any()
    assert all(np.array_equal(a, b) for a, b in zip(narrow, wide))


def test_measure_argument_must_be_the_targets():
    # another transition matrix or another adjacency is refused; an equal
    # measure built apart is the target's
    um = uniform_measure(full_shift(2))
    sched = linear_schedule(2)
    target = make_target(um, (1, 0), 2)
    biased = MarkovGibbsMeasure(full_shift(2), [[0.6, 0.4], [0.4, 0.6]])
    for other in (biased, _golden_measure()):
        with pytest.raises(ValidationError, match="target's measure"):
            simulate_nonconventional_batch(other, sched, target, 1.0, 1, 50)
        with pytest.raises(ValidationError, match="target's measure"):
            hitting_time_batch(other, sched, target, 2, 50, lam_cap=1.0)
        with pytest.raises(ValidationError, match="target's measure"):
            exact_sum_distribution_subshift(other, sched, target, 5)
        stage = subshift_model_oracle(other, sched, 1.0, lambda n: target)
        with pytest.raises(ValidationError, match="target's measure"):
            stage(target.n)
    same = uniform_measure(full_shift(2))
    assert same is not um
    counts, _, _ = simulate_nonconventional_batch(same, sched, target, 1.0, 1, 50)
    assert np.array_equal(counts, simulate_nonconventional_batch(um, sched, target, 1.0, 1, 50)[0])
    assert exact_sum_distribution_subshift(same, sched, target, 5).pmf == (
        exact_sum_distribution_subshift(um, sched, target, 5).pmf
    )


def test_hit_sampling_memory_per_hit(monkeypatch):
    # the A4 target at n = 8 (65,536 terms, horizon 65,684) and 5,000
    # replicates, about 1.3e6 hits in one batch: sampled as 4-byte packed
    # keys into one buffer sized from the expected hits; the counter sorts
    # them in place and counts in term blocks of O(_COUNT_BLOCK) memory.
    # The call peaks near 6.6 B per hit (8.5 B when the buffer doubled).
    measure = uniform_measure(full_shift(2))
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    target = make_target(measure, sample_clear_word(measure, 8, 0.25, seed=108), 8)
    q = sched.columns(replicate_count(target, 2, 1.0))
    chain, accept = pattern_chain(measure, target.blocks)
    hits, own, peaks = [], [], []

    def count(q_cols, keys, replicates):
        hits.append(keys.size)
        before, sampled = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = _counts_and_first(q_cols, keys, replicates)
        own.append(tracemalloc.get_traced_memory()[1] - before)
        peaks.append(sampled)
        return out

    monkeypatch.setattr("nonconv.markov._counts_and_first", count)
    tracemalloc.start()
    try:
        sample_counts(chain, accept, q, derive_rng(42, 0), 5000)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(hits) == 1 and hits[0] > 10**6
    peak = max(peaks)
    assert peak <= 8 * hits[0], peak / hits[0]
    # the counter's own peak, above the keys, is a few blocks' worth
    assert own[0] < 8 * 2**20, own[0]


# -- pattern chain against the sliding-block lift ------------------------------

def _lift_tables(chain, accept, horizon):
    """First-passage tables by single sparse steps: (times, states, cdf, left)."""
    src, dst = np.nonzero(chain.P)
    pr = chain.P[src, dst]
    tables = []
    for u, t0 in [(chain.nu, 0)] + [(np.eye(chain.M)[a], 1) for a in accept]:
        times, states, probs = [], [], []
        t = 0
        while True:
            if t < t0:
                u, t = np.bincount(dst, weights=u[src] * pr, minlength=chain.M), t + 1
                continue
            hit = u[accept]
            for j in np.flatnonzero(hit > 0):
                times.append(t)
                states.append(j)
                probs.append(hit[j])
            u = u.copy()
            u[accept] = 0.0
            if u.sum() < _GAP_TAIL_TOL or t >= horizon:
                break
            u, t = np.bincount(dst, weights=u[src] * pr, minlength=chain.M), t + 1
        tables.append((times, states, np.cumsum(probs), u.sum(), t >= horizon))
    return tables


@st.composite
def _pattern_cases(draw):
    """A Markov measure on a small mixing SFT, a (multi-)block target whose
    sliding-block lift has at most 1024 states, a horizon and a table
    schedule with overlapping, near and far windows."""
    kind = draw(st.sampled_from(["full2", "full3", "golden", "random3"]))
    if kind == "random3":
        A = np.array(draw(st.lists(st.integers(0, 1), min_size=9, max_size=9))).reshape(3, 3)
        assume(A.sum(axis=0).all() and A.sum(axis=1).all())
        assume(np.linalg.matrix_power(A, 9).min() > 0)  # primitive
        sft = SubshiftSFT.from_matrix(A)
    else:
        sft = {"full2": full_shift(2), "full3": full_shift(3), "golden": golden_mean_shift()}[kind]
    w = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=sft.iota**2, max_size=sft.iota**2)))
    Q = w.reshape(sft.iota, sft.iota) * sft._A
    measure = MarkovGibbsMeasure(sft, Q / Q.sum(axis=1, keepdims=True))
    n = draw(st.integers(3, 7 if sft.iota == 2 else 5))
    s = draw(st.sampled_from([2.0, 1.0, 0.0]))
    m = n + int(s * math.log(n))
    assume(sft.iota**m <= 1024)
    word = sample_point(measure, n, draw(st.integers(0, 10**6)))
    keep = draw(st.sampled_from([0.6, 0.3, 1.0]))
    target = make_target(measure, word, n, s=s, refine_seed=draw(st.integers(0, 99)),
                         keep_fraction=keep)
    horizon = draw(st.integers(1, 1500))
    ell = draw(st.integers(1, 2))
    step = st.one_of(st.integers(1, 4), st.integers(5, 40), st.integers(300, 900))
    pos = np.cumsum(draw(st.lists(step, min_size=5 * ell, max_size=5 * ell)))
    sched = table_schedule(pos.reshape(5, ell).tolist())
    tuples = [tuple(draw(st.permutations(range(1, 6)))[: draw(st.integers(1, 3))])
              for _ in range(4)]
    return measure, target, horizon, sched, tuples


@given(_pattern_cases())
@settings(max_examples=60, deadline=None)
def test_pattern_chain_matches_word_lift(case):
    measure, target, horizon, sched, tuples = case
    chain, accept = pattern_chain(measure, target.blocks)
    # certified on construction; started from its invariant law
    assert chain.n0 >= 1
    assert chain.nu == pytest.approx(chain.mu, abs=1e-12)
    assert chain.M <= sum(len(b) for b in target.blocks) + measure.sft.iota
    lifted, words = word_lift(measure.chain, target.m)
    pos = {w: i for i, w in enumerate(words)}
    lifted_accept = [pos[b] for b in target.blocks]
    for idx in tuples:
        times = sorted({t for i in idx for t in sched.evaluate(i)})
        want = exact_b(lifted, lifted_accept, times)
        assert exact_b(chain, accept, times) == pytest.approx(want, rel=1e-12, abs=0)
    engine = _HitEngine(chain, accept, horizon)
    got = [(engine.init_times, engine.init_blocks, engine.init_cdf)] + engine.gap_tables
    for k, ((times, states, cdf), (rtimes, rstates, rcdf, left, at_horizon)) in enumerate(
        zip(got, _lift_tables(lifted, lifted_accept, horizon))
    ):
        assert times.tolist() == rtimes and states.tolist() == rstates
        assert np.max(np.abs(cdf - rcdf), initial=0.0) <= 1e-14
        dropped = engine.horizon_mass[k] if at_horizon else engine.tail_mass[k]
        assert dropped == pytest.approx(left, abs=1e-14)
        assert (engine.tail_mass[k] if at_horizon else engine.horizon_mass[k]) == 0.0


@pytest.mark.parametrize("case", ["a4", "golden_multi_block"])
def test_hit_engine_reports_dropped_mass(case):
    if case == "a4":  # the A4 target at n = 10 and its horizon
        measure = uniform_measure(full_shift(2))
        target = make_target(measure, sample_clear_word(measure, 10, 0.25, seed=110), 10)
        horizon = arithmetic_gap_schedule(2, 4.0, 0.5).max_index(replicate_count(target, 2, 1.0))
    else:
        measure = _golden_measure()
        word = sample_clear_word(measure, 7, 0.25, seed=3)
        target = make_target(measure, word, 7, s=2.0, refine_seed=5, keep_fraction=0.6)
        assert len(target.blocks) > 1
        horizon = 10**6
    engine = _HitEngine(*pattern_chain(measure, target.blocks), horizon)
    cdfs = [engine.init_cdf] + [cdf for _, _, cdf in engine.gap_tables]
    assert len(engine.tail_mass) == len(engine.horizon_mass) == len(cdfs)
    # every table stops at the tolerance long before the horizon
    assert np.all(engine.horizon_mass == 0.0)
    assert np.all(engine.tail_mass > 0.0) and np.all(engine.tail_mass <= _GAP_TAIL_TOL)
    for cdf, left in zip(cdfs, engine.tail_mass):
        assert cdf[-1] + left == pytest.approx(1.0, abs=1e-12)
    # a short horizon cuts every table there instead
    short = _HitEngine(*pattern_chain(measure, target.blocks), 50)
    assert np.all(short.tail_mass == 0.0) and np.all(short.horizon_mass > _GAP_TAIL_TOL)
    for cdf, left in zip([short.init_cdf] + [c for _, _, c in short.gap_tables], short.horizon_mass):
        assert cdf[-1] + left == pytest.approx(1.0, abs=1e-12)
