"""Doeblin chains: invariant measure, mixing, arrival sums, exact oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    CertificationError,
    FiniteMarkovChain,
    ValidationError,
    choose_target_sets,
    doeblin_certificate,
    invariant_measure,
    linear_schedule,
    mixing_rate,
    simulate_arrival_batch,
    simulate_arrival_sum,
    word_lift,
)
from nonconv.errors import ResourceError
from nonconv.markov import exact_b, exact_sum_distribution
from nonconv.schedules import QSchedule, table_schedule

P_AB = [[0.7, 0.3], [0.1, 0.9]]  # a = 0.3, b = 0.1


def test_invariant_measure_uniform():
    chain = FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]])
    assert invariant_measure(chain) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_invariant_measure_two_state_closed_form():
    chain = FiniteMarkovChain(P_AB)
    assert invariant_measure(chain) == pytest.approx([0.25, 0.75], abs=1e-10)


def test_reducible_chain_fails_certification():
    with pytest.raises(CertificationError):
        FiniteMarkovChain([[1.0, 0.0], [0.0, 1.0]])


def test_periodic_chain_fails_certification():
    with pytest.raises(CertificationError):
        FiniteMarkovChain([[0.0, 1.0], [1.0, 0.0]])


def test_doeblin_certificate_values():
    n0, C = doeblin_certificate([[0.5, 0.5], [0.5, 0.5]])
    assert (n0, C) == (1, pytest.approx(1.0))
    n0, C = doeblin_certificate([[0.9, 0.1], [0.2, 0.8]])
    assert n0 == 1
    assert C == pytest.approx(5.0, rel=1e-12)


def test_doeblin_certificate_bounds_hold():
    for P in (P_AB, [[0.9, 0.1], [0.2, 0.8]], [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.3, 0.3, 0.4]]):
        chain = FiniteMarkovChain(P)
        M = chain.M
        Pm = np.array(P)
        Pn0 = np.linalg.matrix_power(Pm, chain.n0)
        # one-step upper bound and n0-step lower bound against uniform mass 1/M
        assert np.all(Pm <= chain.C / M + 1e-12)
        assert np.all(Pn0 >= 1.0 / (chain.C * M) - 1e-12)


def test_mixing_rate_one_step_chain():
    cert = mixing_rate(FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]]))
    assert cert.beta == math.inf


def test_mixing_rate_two_state_closed_form():
    cert = mixing_rate(FiniteMarkovChain(P_AB))
    beta_true = -math.log(0.6)
    assert abs(cert.beta - beta_true) / beta_true < 0.02
    for n, d in enumerate(cert.distances, start=1):
        assert d <= cert.C1 * math.exp(-cert.beta * n) + 1e-12


def test_simulate_arrival_degenerate_sets():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(2)
    assert simulate_arrival_sum(chain, sched, {0, 1}, 9, seed=3) == 9
    assert simulate_arrival_sum(chain, sched, set(), 9, seed=3) == 0
    with pytest.raises(ValidationError):
        simulate_arrival_sum(chain, sched, {0, 5}, 9, seed=3)


def test_simulate_arrival_iid_reduction():
    # all rows equal, ell = 1, q(l) = l: the count is Binomial(n, mu(Gamma))
    chain = FiniteMarkovChain([[0.25, 0.75], [0.25, 0.75]])
    sched = linear_schedule(1)
    n, reps = 20, 100_000
    draws = simulate_arrival_batch(chain, sched, {0}, n, seed=5, replicates=reps)
    mean_true = n * 0.25
    sigma = math.sqrt(n * 0.25 * 0.75 / reps)
    assert abs(draws.mean() - mean_true) < 3 * sigma


def test_exact_b_iid_chain():
    chain = FiniteMarkovChain([[0.25, 0.75], [0.25, 0.75]], nu=[0.25, 0.75])
    sched = linear_schedule(2)
    assert exact_b(chain, sched, {0}, (3,)) == pytest.approx(0.25**2, rel=1e-10)


def test_exact_b_full_space_is_one():
    chain = FiniteMarkovChain(P_AB)
    assert exact_b(chain, linear_schedule(2), {0, 1}, (1, 3)) == pytest.approx(1.0)


def test_exact_b_against_path_enumeration():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(1)
    got = exact_b(chain, sched, {0}, (1, 2))
    brute = 0.0
    P = np.array(P_AB)
    for path in itertools.product((0, 1), repeat=3):
        w = chain.nu[path[0]] * P[path[0], path[1]] * P[path[1], path[2]]
        if path[1] == 0 and path[2] == 0:
            brute += w
    assert got == pytest.approx(brute, rel=1e-12)


def test_exact_b_permutation_invariant():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(2)
    assert exact_b(chain, sched, {0}, (4, 1, 2)) == exact_b(chain, sched, {0}, (2, 4, 1))


def test_exact_sum_distribution_full_space():
    chain = FiniteMarkovChain(P_AB)
    dist = exact_sum_distribution(chain, linear_schedule(1), {0, 1}, 4)
    assert dist.prob(4) == pytest.approx(1.0, abs=1e-12)


def test_exact_sum_distribution_single_term():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(2)
    b1 = exact_b(chain, sched, {0}, (1,))
    dist = exact_sum_distribution(chain, sched, {0}, 1)
    assert dist.prob(1) == pytest.approx(b1, rel=1e-10)
    assert dist.prob(0) == pytest.approx(1 - b1, rel=1e-10)


def test_exact_sum_distribution_matches_mc():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(2)
    dist = exact_sum_distribution(chain, sched, {0}, 2)
    reps = 100_000
    draws = simulate_arrival_batch(chain, sched, {0}, 2, seed=9, replicates=reps)
    for k in range(3):
        pk = dist.prob(k)
        emp = float(np.mean(draws == k))
        sigma = math.sqrt(pk * (1 - pk) / reps)
        assert abs(emp - pk) <= 3 * sigma + 1e-9


def test_exact_sum_distribution_budget():
    chain = FiniteMarkovChain(P_AB)
    with pytest.raises(ResourceError):
        exact_sum_distribution(chain, linear_schedule(2), {0}, 30)


def test_word_lift_marginals():
    chain = FiniteMarkovChain(P_AB)
    lifted, words = word_lift(chain, 2)
    assert len(words) == 4
    # stationary word law matches pairwise products of the base chain
    for s, w in enumerate(words):
        expect = chain.mu[w[0]] * chain.P[w[0], w[1]]
        assert lifted.mu[s] == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("M, k", [(3, 10), (3, 12), (2, 13)])
def test_word_lift_refuses_before_enumerating(monkeypatch, M, k):
    # 3^10 words would make a 28 GB dense matrix; all three cases are over
    # the 2^12-state budget, 2^13 only just
    def no_enumeration(*args):
        raise AssertionError("word_lift enumerated words past its budget")

    monkeypatch.setattr("nonconv.markov.lex_words", no_enumeration)
    chain = FiniteMarkovChain(np.full((M, M), 1.0 / M))
    with pytest.raises(ResourceError):
        word_lift(chain, k)


def test_choose_target_sets_exact_split():
    chain = FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]])
    seq = choose_target_sets(chain, ell=1, lam=1.0, n_grid=[4])
    entry = seq.entries[4]
    assert entry.mass == pytest.approx(0.25, rel=1e-12)
    assert entry.realized_lambda == pytest.approx(1.0, rel=1e-12)


def test_choose_target_sets_infeasible_lambda():
    chain = FiniteMarkovChain(P_AB)
    with pytest.raises(ValidationError):
        choose_target_sets(chain, ell=2, lam=10.0, n_grid=[1])


def test_choose_target_sets_band():
    chain = FiniteMarkovChain(P_AB)
    seq = choose_target_sets(chain, ell=1, lam=1.0, n_grid=[8, 16, 32], tolerance=0.2)
    for n, entry in seq.entries.items():
        assert abs(entry.realized_lambda - 1.0) <= 0.2


_rowpair = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))


@given(_rowpair, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_propagate_chapman_kolmogorov(ab, s1, s2):
    a, b = ab
    chain = FiniteMarkovChain([[1 - a, a], [b, 1 - b]])
    v = np.array(chain.nu)
    lhs = chain.propagate(v, s1 + s2)
    rhs = chain.propagate(chain.propagate(v, s1), s2)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    brute = v @ np.linalg.matrix_power(np.array(chain.P), s1 + s2)
    assert lhs == pytest.approx(brute, abs=1e-9)


@given(_rowpair)
@settings(max_examples=60, deadline=None)
def test_invariant_measure_fixed_point(ab):
    a, b = ab
    chain = FiniteMarkovChain([[1 - a, a], [b, 1 - b]])
    mu = invariant_measure(chain)
    assert mu @ np.array(chain.P) == pytest.approx(mu, abs=1e-10)
    assert mu == pytest.approx([b / (a + b), a / (a + b)], abs=1e-8)


@st.composite
def _b_cases(draw):
    """A random positive chain (stationary or uniform nu), two gammas, a
    table schedule whose position steps are either short (1..4) or long
    (600..1500, past the projection level of most such chains), and an
    index tuple."""
    M = draw(st.integers(2, 5))
    P = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=M * M, max_size=M * M)))
    P = P.reshape(M, M) / P.reshape(M, M).sum(axis=1, keepdims=True)
    nu = FiniteMarkovChain(P).mu if draw(st.booleans()) else None
    gammas = [draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=M)) for _ in "ab"]
    rows, ell = 6, draw(st.integers(1, 2))
    step = st.one_of(st.integers(1, 4), st.integers(600, 1500))
    pos = np.cumsum(draw(st.lists(step, min_size=rows * ell, max_size=rows * ell)))
    sched = table_schedule(pos.reshape(rows, ell).tolist())
    idx = draw(st.permutations(range(1, rows + 1)).map(
        lambda p: p[: draw(st.integers(0, rows))]))
    return FiniteMarkovChain(P, nu), gammas, sched, tuple(idx)


def _dense_b(chain, gamma, times):
    # nu P^{t1} D P^{t2 - t1} D ... 1 with dense matrix powers
    D = np.zeros(chain.M)
    D[list(gamma)] = 1.0
    v, prev = chain.nu.copy(), 0
    for t in sorted(times):
        v = (v @ np.linalg.matrix_power(chain.P, t - prev)) * D
        prev = t
    return float(v.sum())


@given(_b_cases())
@settings(max_examples=200, deadline=None)
def test_exact_b_matches_dense_reference(case):
    chain, gammas, sched, idx = case
    times = {t for i in idx for t in sched.evaluate(i)}
    for gamma in gammas:  # both on one chain, so one memo serves two gammas
        got = exact_b(chain, sched, gamma, idx)
        assert got == pytest.approx(_dense_b(chain, gamma, times), rel=1e-12, abs=0)
        if not idx:
            assert got == chain.nu.sum()


def test_restricted_blocks_share_one_block_past_projection():
    chain = FiniteMarkovChain(P_AB)
    gaps = [1, 2, 3, 1000, 2500, 7000, 123_457]
    sched = table_schedule(np.cumsum([1] + gaps)[:, None].tolist())
    for i in range(1, len(gaps) + 1):
        exact_b(chain, sched, {0}, (i, i + 1))
    level = chain._projection_level
    assert level is not None and level < 1000
    # one block per short gap, one shared by every gap past the level
    assert sorted(chain._blocks[(0,)]) == [1, 2, 3, level]
    got = exact_b(chain, sched, {0}, tuple(range(1, len(gaps) + 2)))
    ref = _dense_b(chain, {0}, np.cumsum([1] + gaps).tolist())
    assert got == pytest.approx(ref, rel=1e-12)


def test_projection_level_found_on_random_positive_chains():
    # rounding leaves P's rows about 1e-16 off 1, so P^(2^k) drifts about
    # 2^k * 1e-16 from tile(mu) by its row sums alone; the level must be
    # found from the shape of the rows
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        M = int(rng.integers(2, 6))
        P = rng.uniform(0.2, 1.0, (M, M))
        chain = FiniteMarkovChain(P / P.sum(axis=1, keepdims=True))
        v = chain.propagate(chain.nu, 4096)
        assert chain._projection_level is not None and chain._projection_level <= 4096
        assert v == pytest.approx(chain.mu, abs=1e-15)


def test_propagate_block_rows():
    chain = FiniteMarkovChain(P_AB)
    rows = np.array([[1.0, 0.0], [0.2, 0.5], [0.0, 0.0]])
    for steps in (0, 1, 5, 4096):
        got = chain.propagate(rows, steps)
        assert got.shape == rows.shape
        for row, out in zip(rows, got):
            assert out == pytest.approx(chain.propagate(row, steps), abs=1e-15)


def test_simulate_arrival_memory_is_bounded_on_wide_chains():
    # a 1024-state lift with horizon 2: chunks of 4e6 // (horizon + 1) rows
    # would make each step's inverse-CDF compare 40,000 x 1024 cells (about
    # 370 MB of float gather and bool compare); capped at 4e6 // M = 3906
    # rows, each step stays near 36 MB
    lifted, _ = word_lift(FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]]), 10)
    assert lifted.M == 1024
    replicates = 40_000
    tracemalloc.start()
    try:
        draws = simulate_arrival_batch(lifted, linear_schedule(1), {0, 1023}, 2, 5, replicates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws.shape == (replicates,) and draws.min() >= 0 and draws.max() <= 2
    assert peak < 64 * 2**20, peak
