"""Factorization condition checks along n-grids and the limit verdict."""

import functools
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    FiniteMarkovChain,
    StageOracle,
    Tolerances,
    arithmetic_gap_schedule,
    check_conditions,
    choose_target_sets,
    linear_schedule,
    logpow_cutoff,
    poisson_limit_verdict,
    ratio_cutoff_index,
    table_schedule,
    uniform_measure,
)
from nonconv.errors import ResourceError, ValidationError
from nonconv.schedules import QSchedule
from nonconv.rng import STREAM_SEVASTYANOV, derive_rng
from nonconv.sevastyanov import (
    StageResult,
    _BCache,
    _clustered_partners,
    _group_rows,
    _pair_classes,
    _rare_mask,
    _ratio_pairs,
    _runs,
    _singles,
    _suffix_sums,
    _tuple_terms,
    bernoulli_model_oracle,
    pattern_chain_oracle,
    report_rows,
    subshift_model_oracle,
)
from nonconv.subshift import full_shift, make_target, pattern_chain, sample_clear_word
from scalar_reference import classify_tuple


def _bern_factory(ell=2, lam=1.0):
    return bernoulli_model_oracle(lam, linear_schedule(ell))


def test_exact_stage_values_against_direct_enumeration():
    sched = linear_schedule(2)
    factory = _bern_factory()
    n = 8
    report = check_conditions(factory, sched, r=2, n_grid=[n], rare_params=(0, 0))
    stage = report.stage(n)
    oracle = factory(n)
    b1 = [oracle.b((l,)) for l in range(1, n + 1)]
    assert stage.mode == "exact"
    assert stage.max_b == pytest.approx(max(b1), rel=1e-12)
    assert stage.sum_b == pytest.approx(1.0, rel=1e-12)

    joint = product = 0.0
    lo, hi = math.inf, -math.inf
    for tup in combinations(range(1, n + 1), 2):
        _, rare = classify_tuple(sched, tup, 0, 0)
        bj = oracle.b(tup)
        bp = b1[tup[0] - 1] * b1[tup[1] - 1]
        if rare:
            joint += bj
            product += bp
        else:
            lo, hi = min(lo, bj / bp), max(hi, bj / bp)
    assert stage.rare_sum_joint == pytest.approx(joint, rel=1e-12)
    assert stage.rare_sum_product == pytest.approx(product, rel=1e-12)
    assert stage.ratio_band == pytest.approx((lo, hi), rel=1e-12)


def test_exact_stage_r3_against_direct_enumeration():
    sched = linear_schedule(2)
    n, threshold, cutoff = 14, 1, 2
    oracle = _bern_factory()(n)
    report = check_conditions(
        lambda _: oracle, sched, r=3, n_grid=[n], rare_params=(threshold, cutoff)
    )
    stage = report.stage(n)
    b1 = [oracle.b((l,)) for l in range(1, n + 1)]
    joint = product = 0.0
    ratios = []
    for tup in combinations(range(1, n + 1), 3):
        _, rare = classify_tuple(sched, tup, threshold, cutoff)
        bj = oracle.b(tup)
        bp = math.prod(b1[i - 1] for i in tup)
        if rare:
            joint += bj
            product += bp
        else:
            ratios.append(bj / bp)
    assert stage.mode == "exact"
    assert stage.zero_denominators == 0
    assert stage.rare_sum_joint == pytest.approx(joint, rel=1e-12)
    assert stage.rare_sum_product == pytest.approx(product, rel=1e-12)
    assert stage.ratio_band == pytest.approx((min(ratios), max(ratios)), rel=1e-12)


def test_exact_stage_memory_is_chunked():
    # C(3000, 2) ~ 4.5M pairs: one (K, 2) int64 array of them is 72 MB
    N = 3000
    sched = linear_schedule(1)

    def b_at(rows):  # 1e-4 to the number of distinct positions in each row
        return 1e-4 ** (1 + np.count_nonzero(np.diff(rows, axis=1), axis=1))

    stage = StageOracle(b_at=b_at, term_count=N, schedule=sched)
    full_bytes = math.comb(N, 2) * 2 * 8
    tracemalloc.start()
    try:
        report = check_conditions(
            lambda n: stage, sched, r=2, n_grid=[N], rare_params=(0, 0), budget=10**7
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.stage(N).mode == "exact"
    assert report.stage(N).ratio_band == pytest.approx((1.0, 1.0), rel=1e-12)
    assert peak < full_bytes / 4, (peak, full_bytes)


@st.composite
def _small_schedules(draw, horizon=40):
    """Random table schedule: q_1 climbs by steps >= 1, each further column
    sits above the previous one by a nondecreasing gap >= 1."""
    ell = draw(st.integers(1, 3))
    steps = st.lists(st.integers(1, 4), min_size=horizon, max_size=horizon)
    cols = [np.cumsum(draw(steps))]
    for _ in range(ell - 1):
        growth = draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))
        cols.append(cols[-1] + 1 + np.cumsum(growth))
    return table_schedule(np.column_stack(cols).tolist())


def _tuple_rows(r_max=4, max_rows=6):
    """Lists of distinct-index rows in 1..40, all of one width r in 2..r_max."""
    return st.integers(2, r_max).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(1, 40), min_size=r, max_size=r, unique=True),
            min_size=1,
            max_size=max_rows,
        )
    )


@given(_small_schedules(), _tuple_rows(), st.integers(0, 6), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_rare_mask_matches_classify_tuple(sched, rows, threshold, cutoff):
    q = np.array([sched.evaluate(l) for l in range(1, 41)], dtype=np.int64)
    mask = _rare_mask(q, np.array(rows, dtype=np.int64), threshold, cutoff)
    assert mask.tolist() == [
        classify_tuple(sched, tup, threshold, cutoff)[1] for tup in rows
    ]


@pytest.mark.parametrize("big", [7, 2**40])
def test_group_rows_first_rows_and_inverse(big):
    # 2**40 is too wide for packed scalar keys and takes the row-sort path
    rows = np.array([[0, 5, big], [0, 1, 2], [0, 5, big], [0, 1, 2]])
    first, inverse = _group_rows(rows)
    assert first.tolist() == [1, 0]
    assert inverse.tolist() == [1, 0, 1, 0]


def _signature_b(times):
    # a function of the distinct relative positions alone
    times = sorted(set(times))
    return 1.0 / (1.0 + sum(k * (t - times[0]) for k, t in enumerate(times, start=1)))


def _recording_stage(calls, term_count, schedule):
    """A shift-invariant rows oracle that records each (K, T) array it gets."""

    def b_at(rows):
        calls.append(rows.tolist())
        return np.array([_signature_b(row) for row in rows.tolist()])

    return StageOracle(b_at=b_at, term_count=term_count, schedule=schedule)


def _assert_distinct_signatures(rows):
    # rows of sorted positions starting at 0, no row twice
    assert all(row[0] == 0 and row == sorted(row) for row in rows)
    assert len({tuple(row) for row in rows}) == len(rows)


@given(_small_schedules(), _tuple_rows(r_max=3, max_rows=60))
@settings(max_examples=150, deadline=None)
def test_bcache_groups_rows_by_sorted_signature(sched, rows):
    calls = []
    stage = _recording_stage(calls, 40, sched)
    cache = _BCache(stage, sched.columns(40))
    # a reversed row has the row's sorted signature but other unsorted
    # relative positions, so it lands in another group first
    rows = rows + [row[::-1] for row in rows]
    tups = np.array(rows, dtype=np.int64)
    half = len(tups) // 2
    got = np.concatenate([cache(tups[:half]), cache(tups[half:])])
    # one oracle call per cache call, on the distinct signatures (sorted
    # positions with repeats, minus their minimum) of its rows
    assert len(calls) == 2
    for part, passed in zip((rows[:half], rows[half:]), calls):
        _assert_distinct_signatures(passed)
        positions = [sorted(t for i in row for t in sched.evaluate(i)) for row in part]
        want = {tuple(t - p[0] for t in p) for p in positions}
        assert sorted(map(tuple, passed)) == sorted(want)
    assert got.tolist() == [stage.b(row) for row in rows]


@st.composite
def _run_schedules(draw, horizon=48):
    """Random table schedule made of runs of 1-9 terms: inside a run every
    column steps by 1; at a run's first term q_1 jumps by 1-5 and each
    further column's gap to the one before grows by 0-3."""
    ell = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 9), min_size=horizon, max_size=horizon))
    run = np.repeat(np.arange(horizon), lengths)[:horizon]
    jumps = np.array(draw(st.lists(st.integers(1, 5), min_size=horizon, max_size=horizon)))
    first = np.r_[True, run[1:] != run[:-1]]
    cols = [np.cumsum(np.where(first, jumps[run], 1))]
    for _ in range(ell - 1):
        growth = draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))
        cols.append(cols[-1] + 1 + np.cumsum(growth)[run])
    return table_schedule(np.column_stack(cols).tolist())


@st.composite
def _class_cases(draw):
    """(q, threshold, cutoff) over run tables, an arithmetic-gap schedule
    (runs of up to ~20 terms) and linear_schedule(2) (one-term runs)."""
    kind = draw(st.sampled_from(["table", "arithmetic", "linear"]))
    if kind == "table":
        N = draw(st.integers(2, 48))
        q = draw(_run_schedules()).columns(N)
    elif kind == "arithmetic":
        N = draw(st.integers(2, 300))
        q = arithmetic_gap_schedule(2, draw(st.sampled_from([1.0, 4.0])), 0.5).columns(N)
    else:
        N = draw(st.integers(2, 120))
        q = linear_schedule(2).columns(N)
    return q, draw(st.integers(0, 40)), draw(st.integers(0, N + 2))


def _signatures(q, tups):
    """Distinct sorted positions, one tuple per index tuple."""
    return [tuple(sorted({t for i in tup for t in q[i - 1]})) for tup in tups.tolist()]


def _checker_breaks(q, cutoff):
    """The sampled checker's breakpoints: every run start and every index up
    to cutoff + 1."""
    return np.union1d(_runs(q), np.arange(1, min(cutoff + 1, len(q)) + 1))


@given(_class_cases())
@settings(max_examples=200, deadline=None)
def test_pair_classes_match_clustered_pairs(case):
    q, threshold, cutoff = case
    N = len(q)
    calls = []
    stage = _recording_stage(calls, N, table_schedule(q.tolist()))
    cache = _BCache(stage, q)
    b1 = _singles(cache, _runs(q), N)
    assert b1.tolist() == [stage.b((l,)) for l in range(1, N + 1)]
    calls.clear()
    count, joint, product, low = 0, 0.0, 0.0, []
    for pairs, w in _pair_classes(q, _checker_breaks(q, cutoff), threshold):
        assert (w >= 1).all() and (pairs[:, 0] < pairs[:, 1]).all()
        # an index up to the cutoff is its own segment: single-pair classes
        is_low = pairs[:, 0] <= cutoff
        assert (w[is_low] == 1).all()
        low += pairs[is_low].tolist()
        count += int(w.sum())
        joint += float((w * cache(pairs)).sum())
        product += float((w * b1[pairs[:, 0] - 1] * b1[pairs[:, 1] - 1]).sum())
    # brute force: every clustered pair (cutoff 0 makes no pair rare by index)
    i, j = np.triu_indices(N, k=1)
    pairs = np.column_stack([i, j]) + 1
    pairs = pairs[_rare_mask(q, pairs, threshold, 0)]
    # the low classes are each low index's clustered partners, in order
    assert low == pairs[pairs[:, 0] <= cutoff].tolist()
    sigs = _signatures(q, pairs)
    assert count == len(pairs)
    assert joint == pytest.approx(sum(_signature_b(s) for s in sigs), rel=1e-12)
    assert product == pytest.approx(
        float((b1[pairs[:, 0] - 1] * b1[pairs[:, 1] - 1]).sum()), rel=1e-12
    )
    for call in calls:
        _assert_distinct_signatures(call)
    passed = {tuple(sorted(set(row))) for call in calls for row in call}
    assert passed == {tuple(t - s[0] for t in s) for s in sigs}


def _per_index_sampled_stage(stage, q, n, threshold, cutoff, seed, pair_samples, ratio_samples):
    """The sampled stage with stratum A summed index by index: each low i
    enumerates its own clustered partners and makes two oracle calls, its
    partners' and its drawn far pairs'."""
    N = stage.term_count
    rng = derive_rng(seed, STREAM_SEVASTYANOV)
    cache = _BCache(stage, q)
    b1 = _singles(cache, _runs(q), N)
    suffix = np.concatenate([np.cumsum(b1[::-1])[::-1][1:], [0.0]])
    joint = product = 0.0
    count_a = sampled_a = 0
    for i in range(1, min(cutoff, N) + 1):
        product += b1[i - 1] * suffix[i - 1]
        _, pj = _clustered_partners(q, np.array([i], dtype=np.int64), threshold)
        partners = pj[pj > i]
        joint += float(cache(np.column_stack([np.full(partners.size, i), partners])).sum())
        rest = N - i - partners.size
        count_a += partners.size + rest
        if rest > 0:
            k = min(rest, max(8, pair_samples // max(1, cutoff)))
            skip = set(partners.tolist())
            js = []
            while len(js) < k:
                j = int(rng.integers(i + 1, N + 1))
                if j not in skip:
                    js.append(j)
            joint += rest * float(cache(np.column_stack([np.full(k, i), js])).sum()) / k
            sampled_a += k
    count_b = 0
    for pairs, w in _pair_classes(q, _checker_breaks(q, cutoff), threshold):
        above = pairs[:, 0] > cutoff
        pairs, w = pairs[above], w[above]
        count_b += int(w.sum())
        product += float((w * b1[pairs[:, 0] - 1] * b1[pairs[:, 1] - 1]).sum())
        if w.size:
            joint += float((w * cache(pairs)).sum())
    non_rare = N * (N - 1) // 2 - count_a - count_b
    pairs = _ratio_pairs(q, N, threshold, cutoff, rng, ratio_samples) if non_rare else []
    tups = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    _, _, ratios, zero_den = _tuple_terms(cache, b1, tups, np.zeros(len(tups), bool))
    return StageResult(
        n=n, term_count=N, threshold=threshold, cutoff=cutoff,
        max_b=float(b1.max()), sum_b=float(b1.sum()),
        rare_sum_joint=joint, rare_sum_product=product,
        ratio_band=(float(ratios.min()), float(ratios.max())) if ratios.size else None,
        zero_denominators=zero_den, mode="sampled",
        coverage={
            "low_index": 1.0 if count_a == 0 else min(1.0, sampled_a / count_a),
            "cluster": 1.0,
            "ratio": len(pairs) / non_rare if non_rare else 1.0,
        },
    )


@functools.lru_cache(maxsize=None)
def _subshift_b_at():
    # the pattern-chain oracle of a short-return-clear 4-cylinder
    return _subshift_factory(linear_schedule(2))(4).b_at


@st.composite
def _sampled_cases(draw):
    """(schedule, N, threshold, cutoff) over multi-index run tables,
    arithmetic-gap and linear schedules; cutoffs 0, small and >= N."""
    kind = draw(st.sampled_from(["table", "arithmetic", "linear"]))
    if kind == "table":
        sched, N = draw(_run_schedules()), draw(st.integers(2, 48))
    elif kind == "arithmetic":
        sched = arithmetic_gap_schedule(2, draw(st.sampled_from([1.0, 4.0])), 0.5)
        N = draw(st.integers(2, 300))
    else:
        sched, N = linear_schedule(draw(st.integers(1, 3))), draw(st.integers(2, 120))
    cutoff = draw(st.one_of(st.just(0), st.integers(1, 8), st.integers(N, N + 2)))
    return sched, N, draw(st.integers(0, 12)), cutoff


@given(
    _sampled_cases(), st.sampled_from(["bernoulli", "subshift"]), st.integers(0, 2**32 - 1),
    st.integers(1, 200), st.integers(0, 64),
)
@settings(max_examples=120, deadline=None)
def test_sampled_stage_matches_per_index_stratum_a(case, model, seed, pair_samples, ratio_samples):
    sched, N, threshold, cutoff = case
    if model == "bernoulli":
        b_at = bernoulli_model_oracle(1.0, sched)(N).b_at
    else:
        b_at = _subshift_b_at()
    stage = StageOracle(b_at=b_at, term_count=N, schedule=sched)
    report = check_conditions(
        lambda n: stage, sched, 2, [N], (threshold, cutoff), budget=0,
        pair_samples=pair_samples, ratio_samples=ratio_samples, seed=seed,
    )
    want = _per_index_sampled_stage(
        stage, sched.columns(N), N, threshold, cutoff, seed, pair_samples, ratio_samples
    )
    assert report.stage(N) == want


@given(_small_schedules(), st.integers(0, 12), st.integers(0, 37), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_ratio_probe_pairs_are_nearest_non_rare_partners(sched, threshold, cutoff, seed):
    N = 40
    q = sched.columns(N)
    # no uniform draws: the pairs are the probes' nearest non-rare partners
    rng = np.random.default_rng(seed)
    pairs = _ratio_pairs(q, N, threshold, cutoff, rng, ratio_samples=0)
    ref_rng = np.random.default_rng(seed)
    probes = np.unique(ref_rng.integers(cutoff + 1, N, size=min(64, N - cutoff - 1)))
    expected = []
    for i in probes.tolist():
        j = i + 1
        while j <= N and _rare_mask(q, np.array([(i, j)]), threshold, cutoff)[0]:
            j += 1
        if j <= N:
            expected.append((i, j))
    assert pairs == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_ratio_pairs_draw_the_pairs_asked_for():
    # the probes' nearest partners and the uniform draws together make the
    # ratio_samples pairs; counting each draw twice stopped at 287 of 512
    q = linear_schedule(2).columns(1000)
    pairs = _ratio_pairs(q, 1000, 3, 2, derive_rng(1, 7), ratio_samples=512)
    assert len(pairs) == 512
    assert not _rare_mask(q, np.array(pairs), 3, 2).any()


def test_disjoint_positions_factorize_exactly():
    # all windows are disjoint and the array is i.i.d., so every non-rare
    # pair factorizes and the band is degenerate at 1
    sched = linear_schedule(1)
    factory = _bern_factory(ell=1)
    report = check_conditions(factory, sched, r=2, n_grid=[10], rare_params=(0, 0))
    band = report.stage(10).ratio_band
    assert band[0] == pytest.approx(1.0, rel=1e-12)
    assert band[1] == pytest.approx(1.0, rel=1e-12)


def test_sampled_mode_matches_exact_mode():
    sched = linear_schedule(2)
    factory = _bern_factory()
    n = 40
    exact = check_conditions(factory, sched, r=2, n_grid=[n], rare_params=(0, 2))
    sampled = check_conditions(
        factory, sched, r=2, n_grid=[n], rare_params=(0, 2),
        budget=100, pair_samples=4096, ratio_samples=4096, seed=11,
    )
    se, ss = exact.stage(n), sampled.stage(n)
    assert ss.mode == "sampled"
    assert ss.max_b == pytest.approx(se.max_b, rel=1e-12)
    assert ss.sum_b == pytest.approx(se.sum_b, rel=1e-12)
    # the stratified pass sums the clustered mass over run classes, exactly
    assert ss.rare_sum_joint == pytest.approx(se.rare_sum_joint, rel=1e-9)
    assert ss.rare_sum_product == pytest.approx(se.rare_sum_product, rel=1e-9)
    assert ss.ratio_band[0] >= se.ratio_band[0] - 1e-12
    assert ss.ratio_band[1] <= se.ratio_band[1] + 1e-12


def _a6_rare_params(n):
    threshold = n + logpow_cutoff(n, 0.25)
    return threshold, ratio_cutoff_index(4.0, 0.5, 2.0 * threshold)


def _subshift_factory(sched):
    um = uniform_measure(full_shift(2))

    def target_fn(n):
        return make_target(um, sample_clear_word(um, n, 0.25, seed=100 + n), n)

    return subshift_model_oracle(um, sched, lam=1.0, target_fn=target_fn)


@pytest.mark.parametrize(
    "model, n, rare_params",
    [
        ("bernoulli", 300, (3, 5)),
        ("bernoulli", 300, (12, 2)),
        ("subshift", 4, _a6_rare_params),
    ],
)
def test_sampled_mode_matches_exact_mode_on_multi_index_runs(model, n, rare_params):
    # arithmetic-gap runs reach ~20 terms at N = 300 and 48 runs cover the
    # 256 terms of the subshift stage, so stratum B sums weighted classes
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    if model == "bernoulli":
        factory = bernoulli_model_oracle(1.0, sched)
    else:
        factory = _subshift_factory(sched)
    exact = check_conditions(factory, sched, r=2, n_grid=[n], rare_params=rare_params)
    sampled = check_conditions(
        factory, sched, r=2, n_grid=[n], rare_params=rare_params,
        budget=100, pair_samples=4096, ratio_samples=4096, seed=11,
    )
    se, ss = exact.stage(n), sampled.stage(n)
    assert se.mode == "exact" and ss.mode == "sampled"
    assert ss.coverage["cluster"] == 1.0
    assert ss.max_b == pytest.approx(se.max_b, rel=1e-12)
    assert ss.sum_b == pytest.approx(se.sum_b, rel=1e-12)
    assert ss.rare_sum_joint == pytest.approx(se.rare_sum_joint, rel=1e-9)
    assert ss.rare_sum_product == pytest.approx(se.rare_sum_product, rel=1e-9)
    assert ss.ratio_band[0] >= se.ratio_band[0] - 1e-12
    assert ss.ratio_band[1] <= se.ratio_band[1] + 1e-12


def test_sampled_invariant_stage_memory_is_bounded_by_runs():
    # N = 2^20 on 202 arithmetic-gap runs: stratum B takes one row per run
    # class; pair arrays per index block would peak near 240 MiB here
    N = 2**20
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    factory = bernoulli_model_oracle(1.0, sched)
    tracemalloc.start()
    try:
        report = check_conditions(factory, sched, r=2, n_grid=[N], rare_params=(8, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stage = report.stage(N)
    assert stage.mode == "sampled" and stage.coverage["cluster"] == 1.0
    assert stage.rare_sum_joint > stage.rare_sum_product > 0.0
    assert peak < 96 * 2**20, peak


@pytest.mark.parametrize("cutoff", [998, 999, 2000])
def test_sampled_mode_with_every_pair_rare(cutoff):
    # cutoff >= N - 1 leaves no index above the cutoff to probe from; at
    # 998 the only pair above it, (999, 1000), is clustered
    factory = _bern_factory()
    report = check_conditions(
        factory, linear_schedule(2), 2, [1000], (3, cutoff), budget=1000
    )
    stage = report.stage(1000)
    assert stage.mode == "sampled"
    assert stage.ratio_band is None and stage.zero_denominators == 0
    assert stage.coverage == {
        "low_index": stage.coverage["low_index"], "cluster": 1.0, "ratio": 1.0
    }
    verdict = poisson_limit_verdict(report, lam=1.0)
    assert "ratio_band" in verdict.failures


def test_check_conditions_validation():
    factory = _bern_factory()
    sched = linear_schedule(2)
    with pytest.raises(ValidationError):
        check_conditions(factory, sched, r=1, n_grid=[8], rare_params=(0, 0))
    with pytest.raises(ValidationError):
        check_conditions(factory, sched, r=2, n_grid=[], rare_params=(0, 0))
    with pytest.raises(ResourceError):
        check_conditions(factory, sched, r=3, n_grid=[50], rare_params=(0, 0), budget=10)


def test_rare_params_callable():
    factory = _bern_factory()
    sched = linear_schedule(2)
    report = check_conditions(
        factory, sched, r=2, n_grid=[6, 10],
        rare_params=lambda n: (0, int(math.log(n))),
    )
    assert report.stage(6).cutoff == 1
    assert report.stage(10).cutoff == 2


def test_verdict_pass_and_margins():
    factory = _bern_factory()
    sched = linear_schedule(2)
    report = check_conditions(factory, sched, r=2, n_grid=[64, 128], rare_params=(0, 2))
    verdict = poisson_limit_verdict(report, lam=1.0, tolerances=Tolerances(0.2, 0.2, 0.2, 0.2))
    assert verdict.passed
    assert not verdict.failures
    assert all(m >= 0 for m in verdict.margins.values())


def test_verdict_fails_on_large_mass():
    # a fat target keeps max_b large, so the first condition must fail
    factory = _bern_factory(ell=1, lam=8.0)
    sched = linear_schedule(1)
    report = check_conditions(factory, sched, r=2, n_grid=[10], rare_params=(0, 0))
    verdict = poisson_limit_verdict(report, lam=8.0)
    assert not verdict.passed
    assert "max_b" in verdict.failures


def test_report_rows_shape():
    factory = _bern_factory()
    sched = linear_schedule(2)
    report = check_conditions(factory, sched, r=2, n_grid=[8, 12], rare_params=(0, 0))
    rows = report_rows(report, lam=1.0)
    assert len(rows) == 2 * 5
    names = {r[1] for r in rows}
    assert names == {
        "max_b", "sum_b_error", "rare_sum_joint", "rare_sum_product",
        "ratio_band_deviation",
    }
    for n, _, value, env, margin in rows:
        assert margin == pytest.approx(env - value, abs=1e-15)


def test_markov_oracle_adapter():
    chain = FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]])
    sched = linear_schedule(1)
    targets = choose_target_sets(chain, ell=1, lam=1.0, n_grid=[8, 16])
    factory = pattern_chain_oracle(
        sched,
        lambda n: (*pattern_chain(targets[n].measure, targets[n].words), n),
    )
    report = check_conditions(factory, sched, r=2, n_grid=[8, 16], rare_params=(0, 1))
    for n in (8, 16):
        stage = report.stage(n)
        assert stage.sum_b == pytest.approx(targets[n].realized_lambda, rel=0.05)


def test_markov_oracle_starts_stationary_whatever_the_chain_starts_from():
    # the chain starts from the uniform law, not from mu = (1/4, 3/4); the
    # oracle runs on the pattern chain of the Markov measure, which starts
    # from its invariant law, so b is shift-invariant
    chain = FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]])
    assert not np.allclose(chain.nu, chain.mu)
    targets = choose_target_sets(chain, ell=1, lam=1.0, n_grid=[16])
    stage = pattern_chain_oracle(
        linear_schedule(1),
        lambda n: (*pattern_chain(targets[n].measure, targets[n].words), n),
    )(16)
    mass = targets[16].mass
    for t in (0, 1, 7, 1000):
        assert stage.b_at(np.array([[t]]))[0] == pytest.approx(mass, rel=1e-14)
        shifted, at_zero = stage.b_at(np.array([[t, t + 2], [0, 2]]))
        assert shifted == pytest.approx(at_zero, rel=1e-14)


def test_stage_oracle_b_runs_b_at_on_the_merged_positions():
    calls = []

    def b_at(rows):
        calls.append(rows.tolist())
        return np.full(len(rows), 0.5) ** rows.shape[1]

    stage = StageOracle(b_at=b_at, term_count=8, schedule=linear_schedule(2))
    # terms 3, 1 and 2 sit at (3, 6), (1, 2) and (2, 4); site 2 counts once
    got = stage.b((3, 1, 2))
    assert type(got) is float and got == 0.5**5
    assert calls == [[[1, 2, 3, 4, 6]]]
    with pytest.raises(ValidationError, match="duplicate"):
        stage.b((2, 1, 2))
    assert len(calls) == 1


def test_check_conditions_evaluates_no_schedule_row_per_oracle_call(monkeypatch):
    # the benchmark's subshift factorization inputs at n = 6, 8 (seed 1)
    um = uniform_measure(full_shift(2))
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    targets = {
        n: make_target(um, sample_clear_word(um, n, 0.25, seed=1_000_003 + n), n)
        for n in (6, 8)
    }
    factory = subshift_model_oracle(um, sched, 1.0, targets.__getitem__)
    oracle_calls = {6: [], 8: []}

    def model_oracle(n):
        stage = factory(n)

        def b_at(rows):
            oracle_calls[n].append(rows.tolist())
            return stage.b_at(rows)

        return StageOracle(b_at=b_at, term_count=stage.term_count, schedule=stage.schedule)

    evaluations = []
    evaluate = QSchedule.evaluate

    def counting(self, l):
        evaluations.append(l)
        return evaluate(self, l)

    cache_calls = []
    cache_call = _BCache.__call__

    def counting_cache(self, tups):
        cache_calls.append(self.stage.term_count)
        return cache_call(self, tups)

    monkeypatch.setattr(QSchedule, "evaluate", counting)
    monkeypatch.setattr(_BCache, "__call__", counting_cache)
    report = check_conditions(model_oracle, sched, 2, [6, 8], _a6_rare_params, seed=1_000_003)
    # one schedule row per stage (the top of its columns), and four oracle
    # calls per sampled stage, each on its block's distinct signatures: the
    # singles, stratum A, the one stratum-B block and the ratio band
    assert len(evaluations) == 2
    for n, calls in oracle_calls.items():
        assert report.stage(n).mode == "sampled"
        assert len(calls) == cache_calls.count(report.stage(n).term_count) == 4
        for rows in calls:
            _assert_distinct_signatures(rows)


def test_subshift_oracle_adapter():
    um = uniform_measure(full_shift(2))
    sched = linear_schedule(2)

    def target_fn(n):
        w = sample_clear_word(um, n, 0.25, seed=100 + n)
        return make_target(um, w, n)

    factory = subshift_model_oracle(um, sched, lam=1.0, target_fn=target_fn)
    report = check_conditions(factory, sched, r=2, n_grid=[4], rare_params=(0, 0))
    stage = report.stage(4)
    # N = round(1 / 2^-8) = 256 terms at n = 4; the windows of terms
    # l <= 3 overlap and the word is short-return clear, so those three
    # terms vanish and the sum is (256 - 3) / 256
    assert stage.term_count == 256
    assert stage.sum_b == pytest.approx(253 / 256, rel=1e-9)


@given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_verdict_monotone_in_tolerances(t_small, extra):
    factory = _bern_factory()
    sched = linear_schedule(2)
    report = check_conditions(factory, sched, r=2, n_grid=[16], rare_params=(0, 1))
    tight = Tolerances(t_small, t_small, t_small, t_small)
    loose = Tolerances(t_small + extra, t_small + extra, t_small + extra, t_small + extra)
    v_tight = poisson_limit_verdict(report, 1.0, tight)
    v_loose = poisson_limit_verdict(report, 1.0, loose)
    if v_tight.passed:
        assert v_loose.passed
    assert set(v_loose.failures) <= set(v_tight.failures)


@given(st.integers(1, 200), st.integers(1, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_suffix_sums_equal_one_cumsum_bit_for_bit(N, chunk, data):
    # chunked sums carry the running total into each chunk's cumsum, so
    # each sum is the same float as that of one reversed cumsum, for any
    # chunk size and any magnitudes
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    b = rng.random(N) * 10.0 ** rng.uniform(-30, 0, N)
    count = data.draw(st.integers(0, N), label="count")
    want = np.concatenate([np.cumsum(b[::-1])[::-1][1:], [0.0]])[:count]
    with mock.patch("nonconv.sevastyanov._CHUNK", chunk):
        got = _suffix_sums(b, count)
    assert got.tobytes() == want.tobytes()
