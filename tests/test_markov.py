"""Doeblin chains: invariant measure, mixing, arrival sums, exact oracles."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nonconv
from nonconv import (
    CertificationError,
    FiniteMarkovChain,
    StageOracle,
    ValidationError,
    choose_target_sets,
    doeblin_certificate,
    invariant_measure,
    linear_schedule,
    mixing_rate,
    simulate_arrival_batch,
    word_lift,
)
from nonconv.bernoulli import BernoulliScheme, exact_distribution, simulate_batch
from nonconv.errors import ResourceError
from nonconv.markov import (
    EXACT_B_TIME_BUDGET,
    _HitEngine,
    exact_b,
    exact_sum_distribution,
    sample_first,
)
from nonconv.rng import derive_rng
from nonconv.schedules import (
    QSchedule,
    arithmetic_gap_schedule,
    exponential_gap_schedule,
    table_schedule,
)
from nonconv.subshift import (
    MarkovGibbsMeasure,
    SubshiftSFT,
    cylinder_prob,
    full_shift,
    golden_mean_shift,
    make_target,
    pattern_chain,
    sample_clear_word,
    simulate_nonconventional_batch,
    uniform_measure,
)

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


def test_mixing_rate_fits_past_a_one_point_tail():
    # d(n) = 0.44^n falls below the 1e-12 noise floor at n = 34, so only
    # n = 33 is usable in the tail n > 32; the fit uses every usable point
    cert = mixing_rate(FiniteMarkovChain([[0.72, 0.28], [0.28, 0.72]]))
    assert abs(cert.beta + math.log(0.44)) / -math.log(0.44) < 0.01
    for n, d in enumerate(cert.distances, start=1):
        assert cert.C1 * math.exp(-cert.beta * n) + 1e-12 >= d


def test_mixing_rate_two_state_closed_form():
    cert = mixing_rate(FiniteMarkovChain(P_AB))
    beta_true = -math.log(0.6)
    assert abs(cert.beta - beta_true) / beta_true < 0.02
    for n, d in enumerate(cert.distances, start=1):
        assert d <= cert.C1 * math.exp(-cert.beta * n) + 1e-12


def test_simulate_arrival_degenerate_sets():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(2)
    assert simulate_arrival_batch(chain, sched, {0, 1}, 9, 3, 1)[0] == 9
    assert simulate_arrival_batch(chain, sched, set(), 9, 3, 1)[0] == 0
    with pytest.raises(ValidationError):
        simulate_arrival_batch(chain, sched, {0, 5}, 9, 3, 1)


def test_simulate_arrival_iid_reduction():
    # all rows equal, ell = 1, q(l) = l: the count is Binomial(n, mu(Gamma))
    chain = FiniteMarkovChain([[0.25, 0.75], [0.25, 0.75]])
    sched = linear_schedule(1)
    n, reps = 20, 100_000
    draws = simulate_arrival_batch(chain, sched, {0}, n, seed=5, replicates=reps)
    mean_true = n * 0.25
    sigma = math.sqrt(n * 0.25 * 0.75 / reps)
    assert abs(draws.mean() - mean_true) < 3 * sigma


def test_multi_table_draws_are_pinned():
    # sha256 of arrival counts and first arrivals on an engine with two gap
    # tables, whose uniforms are handed out in table order; the digests were
    # taken before the guide tables became one word per bucket
    def sha(a):
        return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()

    chain = FiniteMarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    assert len(_HitEngine(chain, [0, 2], 100).gap_tables) == 2
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    counts = simulate_arrival_batch(chain, sched, {0, 2}, 300, 7, 3000)
    assert sha(counts) == "6efcf5e157691f087a2e931ec8e46dd1bcb263e0fef8ca16245ee7970a016639"
    first = sample_first(chain, [0, 2], sched.columns(300), derive_rng(7, 0), 3000)
    assert sha(first) == "88b9a6aef7db748cfa6848067189d893d65be1fff0efcc54a5655d83e9ab361a"


def test_exact_b_iid_chain():
    chain = FiniteMarkovChain([[0.25, 0.75], [0.25, 0.75]], nu=[0.25, 0.75])
    # term 3 of linear_schedule(2) sits at positions 3 and 6
    assert exact_b(chain, {0}, [3, 6]) == pytest.approx(0.25**2, rel=1e-10)


def test_exact_b_full_space_is_one():
    chain = FiniteMarkovChain(P_AB)
    assert exact_b(chain, {0, 1}, [1, 2, 3, 6]) == pytest.approx(1.0)


def test_exact_b_against_path_enumeration():
    chain = FiniteMarkovChain(P_AB)
    got = exact_b(chain, {0}, [1, 2])
    brute = 0.0
    P = np.array(P_AB)
    for path in itertools.product((0, 1), repeat=3):
        w = chain.nu[path[0]] * P[path[0], path[1]] * P[path[1], path[2]]
        if path[1] == 0 and path[2] == 0:
            brute += w
    assert got == pytest.approx(brute, rel=1e-12)


def test_exact_b_permutation_invariant():
    chain = FiniteMarkovChain(P_AB)
    stage = StageOracle(
        b_at=lambda rows: exact_b(chain, {0}, rows), term_count=4, schedule=linear_schedule(2)
    )
    assert stage.b((4, 1, 2)) == stage.b((2, 4, 1)) == exact_b(chain, {0}, [1, 2, 4, 8])


def test_exact_b_refuses_too_many_times():
    chain = FiniteMarkovChain(P_AB)
    with pytest.raises(ResourceError):
        exact_b(chain, {0}, list(range(EXACT_B_TIME_BUDGET + 1)))


def test_exact_sum_distribution_full_space():
    chain = FiniteMarkovChain(P_AB)
    dist = exact_sum_distribution(chain, linear_schedule(1), {0, 1}, 4)
    assert dist.prob(4) == pytest.approx(1.0, abs=1e-12)


def test_exact_sum_distribution_single_term():
    chain = FiniteMarkovChain(P_AB)
    sched = linear_schedule(2)
    b1 = exact_b(chain, {0}, [1, 2])
    dist = exact_sum_distribution(chain, sched, {0}, 1)
    assert dist.prob(1) == pytest.approx(b1, rel=1e-10)
    assert dist.prob(0) == pytest.approx(1 - b1, rel=1e-10)


@pytest.mark.parametrize("gamma", [{5}, {-1}])
def test_exact_sum_distribution_refuses_out_of_range_gamma(gamma):
    # -1 would read the acceptance vector from its end
    chain = FiniteMarkovChain(P_AB)
    with pytest.raises(ValidationError, match="gamma contains out-of-range states"):
        exact_sum_distribution(chain, linear_schedule(1), gamma, 3)


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
    # linear ell = 2 at n = 32: terms 17..32 are open at position 32, a DP
    # of 2^16 * 33 * 2 floats, over the 2^22 budget
    chain = FiniteMarkovChain(P_AB)
    with pytest.raises(ResourceError, match="16 open terms at once needs 4.33e\\+06 floats"):
        exact_sum_distribution(chain, linear_schedule(2), {0}, 32)


def _path_enumeration_law(chain, schedule, gamma, n):
    """Reference count law: every path X_0..X_H (H = q_ell(n)) from nu,
    weighted by its probability."""
    times = schedule.columns(n).tolist()
    pmf = np.zeros(n + 1)
    for path in itertools.product(range(chain.M), repeat=schedule.max_index(n) + 1):
        w = chain.nu[path[0]] * math.prod(chain.P[a, b] for a, b in zip(path, path[1:]))
        pmf[sum(all(path[t] in gamma for t in tup) for tup in times)] += w
    return pmf


def _word_enumeration_law(measure, schedule, blocks, N):
    """Reference count law: every admissible word of length q_ell(N) + m,
    weighted by its cylinder probability; term l arrives when the m-window
    at each of its positions is a block."""
    times = schedule.columns(N).tolist()
    m, blocks = len(blocks[0]), set(blocks)
    pmf = np.zeros(N + 1)
    for w in measure.sft.words(schedule.max_index(N) + m):
        pmf[sum(all(w[t : t + m] in blocks for t in tup) for tup in times)] += cylinder_prob(
            measure, w
        )
    return pmf


@st.composite
def _law_cases(draw):
    """A chain with M <= 4 states (zeros allowed where it stays Doeblin), a
    start law that need not be stationary, a linear, arithmetic-gap or
    table schedule, and n with at most 2^12 paths or words to enumerate."""
    M = draw(st.integers(1, 4))
    weights = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    P = np.array(draw(st.lists(weights, min_size=M * M, max_size=M * M))).reshape(M, M)
    assume(P.sum(axis=1).all())
    nu = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M)))
    assume(nu.sum() > 0)
    try:
        chain = FiniteMarkovChain(P / P.sum(axis=1, keepdims=True), nu / nu.sum())
    except CertificationError:
        assume(False)
    family = draw(st.sampled_from(["linear", "arithmetic_gap", "table"]))
    if family == "linear":
        sched = linear_schedule(draw(st.integers(1, 3)))
    elif family == "arithmetic_gap":
        sched = arithmetic_gap_schedule(2, 1.0, 0.5)
    else:
        ell, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        steps = draw(st.lists(st.lists(st.integers(1, 2), min_size=ell, max_size=ell),
                              min_size=rows, max_size=rows))
        sched = table_schedule(np.cumsum(np.cumsum(steps, axis=0), axis=1).tolist())
    n = draw(st.integers(1, rows if family == "table" else 6))
    return chain, sched, n


@given(_law_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_exact_laws_match_enumeration(case, data):
    chain, sched, n = case
    H = sched.max_index(n)
    if chain.M ** (H + 1) <= 2**12:
        gamma = data.draw(st.sets(st.integers(0, chain.M - 1)), label="gamma")
        want = _path_enumeration_law(chain, sched, gamma, n)
        got = exact_sum_distribution(chain, sched, gamma, n)
        assert max(abs(got.prob(k) - want[k]) for k in range(n + 1)) <= 1e-13
        assert max(got.pmf, default=0) <= n
    # the chain's stationary Markov measure, with a word-set target and a
    # cylinder target refined by extensions (keep_fraction drops some)
    if chain.M < 2:
        return
    measure = MarkovGibbsMeasure(SubshiftSFT.from_matrix(chain.P > 0), chain.P)
    k = data.draw(st.integers(1, 3), label="k")
    assume(chain.M ** (H + k) <= 2**12)
    admissible = list(measure.sft.words(k))
    words = tuple(data.draw(st.lists(st.sampled_from(admissible), min_size=1, unique=True),
                            label="words"))
    want = _word_enumeration_law(measure, sched, words, n)
    pchain, accept = pattern_chain(measure, words)
    got = exact_sum_distribution(pchain, sched, accept, n)
    assert max(abs(got.prob(j) - want[j]) for j in range(n + 1)) <= 1e-13
    prefix = data.draw(st.sampled_from(admissible), label="prefix")
    target = make_target(measure, prefix + prefix, k, s=data.draw(st.sampled_from([0.0, 1.0])),
                         refine_seed=data.draw(st.integers(0, 9)), keep_fraction=0.5)
    if measure.sft.iota ** (H + target.m) <= 2**12:
        want = _word_enumeration_law(measure, sched, target.blocks, n)
        got = exact_sum_distribution(target.chain[0], sched, target.chain[1], n)
        assert max(abs(got.prob(j) - want[j]) for j in range(n + 1)) <= 1e-13


def _reach(law):
    """The largest N at which ``law(N)`` finishes under the budget (it
    finishes at every smaller N), and the tracemalloc peak of its refusal
    at N + 1."""
    N = 0
    while True:
        tracemalloc.start()
        try:
            law(N + 1)
        except ResourceError:
            peak = tracemalloc.get_traced_memory()[1]
            return N, peak
        finally:
            tracemalloc.stop()
        N += 1


def test_exact_law_reach_under_the_budget():
    """The largest N whose exact law fits the frontier DP's budget.

    Linear ell = 2 on a 2-state chain, and A4's schedule on the pattern
    chain of a 4-cylinder of the full 2-shift.  Past it the law is refused
    before the DP allocates.
    """
    chain = FiniteMarkovChain(P_AB)
    um = uniform_measure(full_shift(2))
    target = make_target(um, sample_clear_word(um, 4, 0.25, seed=104), 4)
    a4 = arithmetic_gap_schedule(2, 4.0, 0.5)
    cases = {
        "linear ell = 2, 2-state chain":
            lambda N: exact_sum_distribution(chain, linear_schedule(2), {0}, N),
        "arithmetic_gap(2, 4, 0.5), 4-cylinder":
            lambda N: exact_sum_distribution(target.chain[0], a4, target.chain[1], N),
    }
    print()
    reach = {}
    for name, law in cases.items():
        reach[name], peak = _reach(law)
        print(f"{name:40s} largest N = {reach[name]}, refusal peak {peak} B")
        assert peak < 2**20
    assert list(reach.values()) == [31, 24]


def test_word_lift_marginals():
    chain = FiniteMarkovChain(P_AB)  # nu uniform, mu = (0.25, 0.75)
    for k in (1, 2):
        lifted, words = word_lift(chain, k)
        assert len(words) == 2**k
        # the stationary word law is mu times the path weight; every lift
        # starts from it, order 1 included
        for s, w in enumerate(words):
            expect = chain.mu[w[0]] * math.prod(chain.P[a, b] for a, b in zip(w, w[1:]))
            assert lifted.mu[s] == pytest.approx(expect, rel=1e-9)
            assert lifted.nu[s] == pytest.approx(expect, rel=1e-9)


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


# -- target sets as word sets on the pattern chain ---------------------------------

P3 = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]  # circulant: P(a, b) = f(b - a)

# the words the k-word lift picked on P_AB at lambda = 1, ell = 1, with their
# masses (there from the lift's solved invariant law)
_P_AB_PICKS = {
    4: ([(0,)], 0.2499999999999999),
    8: ([(0, 0, 0)], 0.12249999999999994),
    16: ([(0, 1, 0), (1, 0, 0)], 0.06),
    32: ([(0, 1, 0), (1, 0, 1)], 0.030000000000000002),
    100: ([(0, 1, 1, 0), (1, 0, 1, 0)], 0.009000000000000001),
    600: ([(1, 0, 1, 0, 0)], 0.0015750000000000004),
}


def _reference_pick(P, n, lam=1.0, tolerance=0.2, max_k=12):
    """The greedy rule by brute force: k-words by descending left-to-right
    product mass, ties colexicographic (compared from the last symbol)."""
    measure = MarkovGibbsMeasure(SubshiftSFT.from_matrix(np.array(P) > 0), P)
    target = lam / n
    for k in range(1, max_k + 1):
        words = []
        for w in itertools.product(range(len(P)), repeat=k):
            m = measure.pi[w[0]]
            for a, b in zip(w, w[1:]):
                m *= measure.Q[a, b]
            words.append((-m, w[::-1], w))
        total, picked = 0.0, []
        for neg, _, w in sorted(words):
            if total - neg <= target + 1e-15:
                picked.append(w)
                total -= neg
                if total >= target:
                    break
        if picked and abs(n * total - lam) / lam <= tolerance:
            return sorted(picked), total
    raise AssertionError("no pick within tolerance")


def test_choose_target_sets_pins_the_words_the_lift_picked():
    seq = choose_target_sets(FiniteMarkovChain(P_AB), ell=1, lam=1.0, n_grid=list(_P_AB_PICKS))
    for n, (words, mass) in _P_AB_PICKS.items():
        entry = seq.entries[n]
        assert list(entry.words) == words
        assert abs(entry.mass - mass) <= 4e-16
        assert entry.realized_lambda == n * entry.mass
        assert (list(entry.words), entry.mass) == _reference_pick(P_AB, n)


def test_choose_target_sets_tie_rule_on_the_circulant_chain():
    seq = choose_target_sets(FiniteMarkovChain(P3), ell=1, lam=1.0, n_grid=[100, 1000, 10**4])
    # at n = 100 the rotations a -> a + 1 (mod 3) of the heaviest fitting
    # 4-word tie bit for bit; the first of them from the last symbol wins
    rotations = [(0, 1, 0, 0), (1, 2, 1, 1), (2, 0, 2, 2)]
    masses = {cylinder_prob(seq.entries[100].measure, w) for w in rotations}
    assert len(masses) == 1 and seq.entries[100].mass in masses
    assert seq.entries[100].words == ((0, 1, 0, 0),)
    for n, entry in seq.entries.items():
        assert (list(entry.words), entry.mass) == _reference_pick(P3, n)


def test_choose_target_sets_reaches_long_words_within_the_cell_budget(monkeypatch):
    # the k-word lift refused n = 10^5 here: order 8 has 6561 > 4096 words
    chain = FiniteMarkovChain(P3)
    seq = choose_target_sets(chain, ell=1, lam=1.0, n_grid=[10**5, 10**6])
    assert [len(seq.entries[n].words[0]) for n in (10**5, 10**6)] == [8, 9]
    for n, entry in seq.entries.items():
        assert abs(entry.realized_lambda - 1.0) <= 0.2
        pattern, _ = pattern_chain(entry.measure, entry.words)
        assert pattern.M <= 9 * len(entry.words) + 3
    monkeypatch.setattr("nonconv.markov._ENGINE_CELL_BUDGET", 3**8)
    choose_target_sets(chain, ell=1, lam=1.0, n_grid=[10**5])  # 3^8 cells fit
    with pytest.raises(ResourceError, match="budget"):
        choose_target_sets(chain, ell=1, lam=1.0, n_grid=[10**6])


def _random_times(rng, k, n):
    """One to three sorted positions, gaps near the word length or far."""
    times = [int(rng.integers(0, 3 * n))]
    for _ in range(int(rng.integers(0, 3))):
        far = rng.random() < 0.5
        times.append(times[-1] + int(rng.integers(1, 3 * n if far else 2 * k + 2)))
    return times


@pytest.mark.parametrize(
    "P, n",
    [pytest.param(P_AB, n, id=f"2-state-{n}") for n in (4, 8, 16, 32, 100, 600)]
    + [pytest.param(P3, n, id=f"3-state-{n}") for n in (100, 10**4)],
)
def test_pattern_chain_b_equals_word_lift_b(P, n):
    base = FiniteMarkovChain(P)
    seq = choose_target_sets(base, ell=1, lam=1.0, n_grid=[n])
    words = seq.entries[n].words
    chain, accept = pattern_chain(seq.entries[n].measure, words)
    k = len(words[0])
    lifted, lift_words = word_lift(base, k)
    pos = {w: i for i, w in enumerate(lift_words)}
    lifted_accept = [pos[w] for w in words]
    rng = np.random.default_rng(n)
    for _ in range(20):
        times = _random_times(rng, k, n)
        want = exact_b(lifted, lifted_accept, times)
        assert exact_b(chain, accept, times) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, sched, N", [(16, linear_schedule(2), 2), (100, linear_schedule(1), 3)])
def test_pattern_chain_count_law_equals_word_lift_law(n, sched, N):
    base = FiniteMarkovChain(P_AB)
    seq = choose_target_sets(base, ell=1, lam=1.0, n_grid=[n])
    words = seq.entries[n].words
    chain, accept = pattern_chain(seq.entries[n].measure, words)
    lifted, lift_words = word_lift(base, len(words[0]))
    lifted_accept = {lift_words.index(w) for w in words}
    want = exact_sum_distribution(lifted, sched, lifted_accept, N)
    got = exact_sum_distribution(chain, sched, accept, N)
    q_cols = sched.columns(N)
    engine = _engine_count_law(_HitEngine(chain, accept, int(q_cols[-1, -1])), q_cols)
    for k in range(N + 1):
        assert got.prob(k) == pytest.approx(want.prob(k), abs=1e-12)
        assert engine[k] == pytest.approx(want.prob(k), abs=1e-12)


def test_an_invariant_start_law_is_the_invariant_measure():
    # the benchmark's seed-1 A4 word at n = 10: the pattern chain starts from
    # its exact invariant law, so b at two far times is P(B)^2 = 2^-20 exactly
    measure = uniform_measure(full_shift(2))
    word = sample_clear_word(measure, 10, 0.25, seed=1_000_013)
    chain, accept = pattern_chain(measure, (word,))
    assert np.max(np.abs(chain.nu @ chain.P - chain.nu)) == 0.0
    assert np.array_equal(chain.mu, chain.nu)
    assert exact_b(chain, accept, [0, 5000]) == 2.0**-20
    # a start law that is not invariant leaves the solved mu in place
    chain = FiniteMarkovChain(P_AB)
    assert np.array_equal(chain.mu, invariant_measure(chain)) and chain.mu[0] != chain.nu[0]


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
    times = sorted({t for i in idx for t in sched.evaluate(i)})
    for gamma in gammas:  # both on one chain, so one memo serves two gammas
        got = exact_b(chain, gamma, times)
        assert got == pytest.approx(_dense_b(chain, gamma, times), rel=1e-12, abs=0)
        if not idx:
            assert got == chain.nu.sum()


@st.composite
def _b_rows_cases(draw):
    """A random positive chain on M <= 5 states, started from its invariant
    law or from a random law (so that the first time matters), a nonempty
    gamma, and K rows of T nondecreasing times.  Each row's steps, its
    first time included, are 0 (a repeated time), short (1..4) or long
    (600..1500, past the projection level of most such chains)."""
    M = draw(st.integers(1, 5))
    P = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=M * M, max_size=M * M)))
    P = P.reshape(M, M) / P.reshape(M, M).sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        nu = FiniteMarkovChain(P).mu
    else:
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=M, max_size=M)))
        nu = w / w.sum()
    gamma = draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=M))
    K, T = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    step = st.one_of(st.just(0), st.integers(1, 4), st.integers(600, 1500))
    steps = draw(st.lists(step, min_size=K * T, max_size=K * T))
    return FiniteMarkovChain(P, nu), gamma, np.cumsum(np.reshape(steps, (K, T)), axis=1)


@given(_b_rows_cases())
@settings(max_examples=200, deadline=None)
def test_exact_b_rows_match_dense_reference(case):
    chain, gamma, rows = case
    got = exact_b(chain, gamma, rows)
    assert got.shape == (len(rows),)
    for row, b in zip(rows.tolist(), got.tolist()):
        assert b == pytest.approx(_dense_b(chain, gamma, row), rel=1e-12, abs=0)
    # a 1-D call is the one-row case of the same path
    one = exact_b(chain, gamma, rows[0])
    assert type(one) is float and one == got[0]


def test_exact_b_gather_is_chunked(monkeypatch):
    # a Markov word set on the pattern chain of a 3-state chain: the 18
    # three-words with w_0 != w_2 accept in 18 of its 27 states
    P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    measure = MarkovGibbsMeasure(SubshiftSFT.from_matrix(P > 0), P)
    words = [w for w in itertools.product(range(3), repeat=3) if w[0] != w[2]]
    chain, accept = pattern_chain(measure, words)
    assert len(accept) == 18
    rows = np.cumsum(np.random.default_rng(3).integers(0, 40, (8000, 5)), axis=1)
    # unchunked, one gather per column is 8000 x 18^2 cells, 20.7 MB
    full_bytes = len(rows) * len(accept) ** 2 * 8
    monkeypatch.setattr("nonconv.markov._GATHER_CELLS", 1 << 40)
    want = exact_b(chain, accept, rows)
    monkeypatch.setattr("nonconv.markov._GATHER_CELLS", 1 << 14)
    tracemalloc.start()
    try:
        got = exact_b(chain, accept, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tolist() == want.tolist()
    # 16,384 cells are 128 KiB; the rest of the peak is the row arrays
    assert peak < full_bytes / 4, (peak, full_bytes)


def test_restricted_blocks_share_one_block_past_projection():
    chain = FiniteMarkovChain(P_AB)
    gaps = [1, 2, 3, 1000, 2500, 7000, 123_457]
    times = np.cumsum([1] + gaps).tolist()
    # the deepest call first: the level found on the way to P^(2^16) is the
    # first binary power that is the projection, as when the powers are
    # reached one call at a time
    exact_b(chain, {0}, times[-2:])
    for i in range(len(gaps)):
        exact_b(chain, {0}, times[i : i + 2])
    level = chain._projection_level
    stepwise = FiniteMarkovChain(P_AB)
    for bit in range(17):
        stepwise.propagate(stepwise.nu, 1 << bit)
    assert level is not None and level == stepwise._projection_level < 1000
    # one block per short gap, one shared by every gap past the level
    assert sorted(chain._blocks[(0,)]) == [1, 2, 3, level]
    got = exact_b(chain, {0}, times)
    ref = _dense_b(chain, {0}, times)
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
    # a 1024-state lift with horizon 2 and 40,000 replicates: the memory
    # must not grow with replicates x states (40,000 x 1024 cells would be
    # about 370 MB per step of a path sampler); the hit engine's tables cover
    # two steps of the 1022 live states (K itself is 8 MB), peak near 10 MB
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


def test_hit_engine_memory_on_wide_lift():
    # 256 of the 1024 lifted 10-words accept (those that start 00), horizon
    # 600: the block length halves from 512 to 64 so that the blocked powers
    # fit the cell budget (64 x 768 x 256 cells, 96 MiB), and the event
    # tables run to 193 steps (257 x 193 x 256 cells, 97 MiB) before the
    # survival mass falls below the tolerance.  Measured peak: 208 MiB
    # (1,548 MiB with a fixed 512-step block).
    lifted, _ = word_lift(FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]]), 10)
    gamma = range(256)
    tracemalloc.start()
    try:
        draws = simulate_arrival_batch(lifted, linear_schedule(1), gamma, 600, 5, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each of the 600 terms arrives with probability 1/4
    assert abs(draws.mean() - 150.0) < 5.0
    assert peak < 256 * 2**20, peak


def test_hit_engine_refuses_words_that_overflow():
    # a bucket word is (time << b) | next table, and a sentinel's time is
    # horizon + 1: with 3 tables (b = 2) the horizon 2^61 - 2 fits, 2^61
    # does not
    chain = FiniteMarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    engine = _HitEngine(chain, [0, 2], 2**61 - 2)
    assert engine._bits == 2 and len(engine.gap_tables) == 2
    rng = derive_rng(1, 0)
    keys = engine.sample_hits(rng, engine.start(rng, 2), 1000)
    assert keys.size > 0 and keys.max() >> 1 <= 1000
    with pytest.raises(ResourceError, match="words of horizon 2305843009213693952"):
        _HitEngine(chain, [0, 2], 2**61)


def test_hit_engine_refuses_over_budget_before_allocating():
    # 1023 of 1024 states accept and the horizon asks for a 512-step block:
    # the first block of event tables alone would be 1024 x 513 x 1023 cells
    chain = FiniteMarkovChain(np.full((1024, 1024), 1.0 / 1024))

    def refused():
        with pytest.raises(ResourceError, match="event tables"):
            simulate_arrival_batch(chain, linear_schedule(1), range(1, 1024), 600, 5, 10)

    # a first call imports what the refusal path uses (about 1 MiB of module
    # state, not the engine's); the traced second call sees the engine only
    refused()
    tracemalloc.start()
    try:
        refused()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _adversarial_cdf(rng, kind):
    L = 1 if kind == "single" else int(rng.integers(2, 2000))
    p = rng.exponential(size=L)
    p /= p.sum()
    if kind == "short":  # the table keeps mass for "no further hit"
        p *= rng.uniform(0.2, 0.999)
    elif kind == "tail":  # a tail below 1e-15: flat cdf runs in one bucket
        cut = int(rng.integers(1, L))
        p[cut:] = 10.0 ** rng.uniform(-22, -15, L - cut)
    elif kind == "single":
        p[0] = rng.choice([1.0, rng.uniform(0.0, 1.0)])
    return np.cumsum(p)


def test_guide_draws_equal_binary_search():
    # every draw of the bucket words is the word of the slot of
    # searchsorted(cdf, u, "right") on the uniforms where they could differ:
    # bucket edges, cdf values and their neighbours, and the mass past
    # cdf[-1].  Each entry has its own time, so a word names its slot (the
    # sentinels, all alike, share theirs).
    rng = np.random.default_rng(2024)
    kinds = ["full", "short", "tail", "single"] * 6
    cdfs = [_adversarial_cdf(rng, kind) for kind in kinds]
    engine = _HitEngine.__new__(_HitEngine)
    engine.horizon = 10**6
    firsts = np.cumsum([0] + [c.size + 1 for c in cdfs])
    engine._store([
        (a + 1 + np.arange(c.size), np.full(c.size, k), c)
        for k, (a, c) in enumerate(zip(firsts.tolist(), cdfs))
    ])
    start = 0
    tables, us, wants = [], [], []
    for k, cdf in enumerate(cdfs):
        G = int(engine._buckets[k])
        assert G >= 2 * cdf.size and G & (G - 1) == 0
        # each closed bucket holds its slot's time and next table, each
        # open one -1
        lo = start + np.searchsorted(cdf, np.arange(G) / G, side="right")
        hi = start + np.searchsorted(cdf, np.arange(1, G + 1) / G, side="right")
        words = engine._word[engine._gstart[k] : engine._gstart[k] + G]
        closed = lo == hi
        assert closed.any()
        assert np.array_equal(words[~closed], np.full((~closed).sum(), -1))
        assert np.array_equal(words[closed] >> engine._bits, engine._time[lo[closed]])
        assert np.array_equal(words[closed] & ((1 << engine._bits) - 1), engine._next[lo[closed]])
        edges = np.arange(1, G) / G
        u = np.concatenate([
            [0.0], edges, np.nextafter(edges, 0.0),
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
            [np.nextafter(1.0, 0.0)], rng.uniform(min(cdf[-1], 1.0), 1.0, 100),
        ])
        u = u[u < 1.0]
        want = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(engine._draw(k, u), engine._slot_word(start + want))
        assert np.array_equal(engine._draw(np.full(u.size, k), u), engine._slot_word(start + want))
        tables.append(np.full(u.size, k))
        us.append(u)
        wants.append(start + want)
        start += cdf.size + 1  # each table is followed by its sentinel
    # one call over every table's uniforms, shuffled: the open buckets of
    # many tables are searched together, and u >= cdf[-1] draws the sentinel
    order = rng.permutation(sum(u.size for u in us))
    table, u, want = (np.concatenate(a)[order] for a in (tables, us, wants))
    g = engine._gstart[table] + (u * engine._buckets[table]).astype(np.int64)
    assert np.unique(table[engine._word[g] < 0]).size > 1
    ends = np.cumsum([c.size + 1 for c in cdfs]) - 1  # the sentinels' slots
    past = u >= np.array([c[-1] for c in cdfs])[table]
    assert past.any() and np.array_equal(want[past], ends[table[past]])
    assert np.array_equal(engine._draw(table, u), engine._slot_word(want))


# -- the hit engine's exact count law ------------------------------------------

def _engine_count_law(engine, q_cols):
    """Exact law of the count of terms whose positions are all hits, over
    every hit sequence the engine's tables can emit within the horizon."""
    terms = [frozenset(row) for row in q_cols.tolist()]
    pmf = np.zeros(len(terms) + 1)
    tables = [(engine.init_times, engine.init_blocks, engine.init_cdf), *engine.gap_tables]

    def walk(table, start, hits, weight):
        times, states, cdf = tables[table]
        stop = weight * (1.0 - (cdf[-1] if len(cdf) else 0.0))  # no further hit
        for t, b, pr in zip((times + start).tolist(), states.tolist(), np.diff(cdf, prepend=0.0)):
            if t > engine.horizon:
                stop += weight * pr
            else:
                walk(1 + b, t, hits | {t}, weight * pr)
        pmf[sum(term <= hits for term in terms)] += stop

    walk(0, 0, frozenset(), 1.0)
    return pmf


_CHAIN1 = [[0.7, 0.3], [0.1, 0.9]]
_CHAIN3 = [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.3, 0.3, 0.4]]
_GOLDEN_Q = [[2 / 3, 1 / 3], [1.0, 0.0]]

# the A3 configurations, then gamma = every state, gamma empty and p near 1
_ENGINE_CASES = {
    "bernoulli-a3-0": ("bernoulli", 6, 2, 0.35, linear_schedule(2)),
    "bernoulli-a3-1": ("bernoulli", 10, 1, 0.10, linear_schedule(1)),
    "bernoulli-a3-2": ("bernoulli", 4, 3, 0.30, linear_schedule(3)),
    "bernoulli-a3-3": ("bernoulli", 8, 2, 0.20, exponential_gap_schedule(2)),
    "bernoulli-a3-4": ("bernoulli", 5, 2, 0.50, arithmetic_gap_schedule(2, 1.0, 0.5)),
    "bernoulli-p-near-1": ("bernoulli", 5, 2, 1.0 - 1e-6, linear_schedule(2)),
    "markov-a3-0": ("markov", _CHAIN1, linear_schedule(1), {0}, 6),
    "markov-a3-1": ("markov", _CHAIN1, linear_schedule(2), {0}, 2),
    "markov-a3-2": ("markov", [[0.5, 0.5], [0.5, 0.5]], linear_schedule(2), {1}, 3),
    "markov-a3-3": ("markov", _CHAIN3, linear_schedule(1), {0, 2}, 4),
    "markov-a3-4": ("markov", _CHAIN1, table_schedule({1: (1, 3), 2: (2, 5), 3: (4, 7)}), {0}, 3),
    "markov-all-states": ("markov", _CHAIN3, linear_schedule(2), {0, 1, 2}, 3),
    "markov-empty": ("markov", _CHAIN1, linear_schedule(2), set(), 3),
    "subshift-a3-0": ("subshift", "golden", linear_schedule(2), (0, 1), 4),
    "subshift-a3-1": ("subshift", "golden", linear_schedule(1), (0, 0), 6),
    "subshift-a3-2": ("subshift", "uniform", linear_schedule(1), (0, 1, 0), 8),
    "subshift-a3-3": ("subshift", "uniform", linear_schedule(2), (1, 0), 5),
    "subshift-a3-4": ("subshift", "golden", arithmetic_gap_schedule(2, 1.0, 0.5), (0, 1), 4),
}


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_engine_count_law_matches_exact_oracles(monkeypatch, case):
    # each sampler's engine input, captured at its call into sample_counts,
    # gives by enumeration the exact count law the sampler draws from
    model, *args = _ENGINE_CASES[case]
    module = getattr(nonconv, model)
    seen = []

    def capture(chain, accept, q_cols, rng, replicates):
        seen.append(_engine_count_law(_HitEngine(chain, accept, int(q_cols[-1, -1])), q_cols))
        return np.zeros(replicates, dtype=np.int64)

    monkeypatch.setattr(module, "sample_counts", capture)
    if model == "bernoulli":
        n, ell, p, sched = args
        scheme = BernoulliScheme(n=n, ell=ell, p=p, schedule=sched)
        draws = simulate_batch(scheme, 1, 10)
        exact = exact_distribution(scheme)
    elif model == "markov":
        P, sched, gamma, n = args
        chain = FiniteMarkovChain(P)
        draws = simulate_arrival_batch(chain, sched, gamma, n, 1, 10)
        exact = exact_sum_distribution(chain, sched, gamma, n)
    else:
        which, sched, word, N = args
        measure = (
            MarkovGibbsMeasure(golden_mean_shift(), _GOLDEN_Q)
            if which == "golden" else uniform_measure(full_shift(2))
        )
        target = make_target(measure, word, len(word))
        lam = N * target.prob**sched.ell
        draws, N_used, _ = simulate_nonconventional_batch(measure, sched, target, lam, 1, 10)
        assert N_used == N
        exact = exact_sum_distribution(target.chain[0], sched, target.chain[1], N)
    if case == "markov-empty":
        # nothing can arrive: the sampler returns zeros without an engine
        assert seen == [] and not draws.any()
        law = np.array([1.0])
    else:
        (law,) = seen
    want = np.array([exact.prob(k) for k in range(max(len(law), exact.max_count() + 1))])
    law = np.pad(law, (0, len(want) - len(law)))
    assert np.max(np.abs(law - want)) <= 1e-12
