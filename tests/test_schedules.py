"""Index schedules, proximity, clusters, and rare-set classification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    QSchedule,
    ResourceError,
    ScheduleError,
    ValidationError,
    arithmetic_gap_schedule,
    exponential_gap_schedule,
    linear_schedule,
    logpow_cutoff,
    polynomial_schedule,
    ratio_cutoff_index,
    table_schedule,
)
from nonconv.cli import validate_config
from nonconv.schedules import COLUMN_CELL_BUDGET, _loggap, _loggap_runs
from nonconv.sevastyanov import _clustered_partners, _runs
from scalar_reference import classify_tuple, cluster_partition, rho


def test_evaluate_linear():
    sched = linear_schedule(2)
    assert sched.evaluate(3) == (3, 6)


def test_evaluate_arithmetic_gap_base_case():
    sched = arithmetic_gap_schedule(2, c=4.0, gamma=0.5)
    vals = sched.evaluate(1)
    gap1 = max(1, math.ceil(4.0 * math.log(1) ** 1.5))
    assert vals == (1, 1 + gap1)


def test_evaluate_exponential_gap():
    sched = exponential_gap_schedule(3)
    assert sched.evaluate(5) == (5, 10, 20)


def test_evaluate_rejects_bad_l():
    sched = linear_schedule(2)
    with pytest.raises(ValidationError):
        sched.evaluate(0)


def test_construction_rejects_unordered_rows():
    with pytest.raises(ScheduleError):
        QSchedule(ell=2, q_fn=lambda j, l: l + (2 - j), name="decreasing")


def test_construction_rejects_q1_below_l():
    with pytest.raises(ScheduleError):
        QSchedule(ell=1, q_fn=lambda j, l: max(1, l - 1), name="lagging")


def test_rho_examples():
    sched = linear_schedule(2)
    assert rho(sched, 1, 2) == 0  # q2(1) = 2 = q1(2)
    assert rho(sched, 1, 3) == 1
    assert rho(sched, 7, 7) == 0


def test_cluster_partition_examples():
    sched = linear_schedule(2)
    part = cluster_partition(sched, (1, 2, 5), threshold=0)
    assert sorted(sorted(c) for c in part.clusters) == [[1, 2], [5]]
    single = cluster_partition(sched, (9,), threshold=3)
    assert single.k == 1 and sorted(single.clusters[0]) == [9]
    chained = cluster_partition(sched, (1, 2, 4), threshold=0)
    assert chained.k == 1 and sorted(chained.clusters[0]) == [1, 2, 4]


def test_cluster_partition_rejects_duplicates():
    with pytest.raises(ValidationError):
        cluster_partition(linear_schedule(2), (3, 3), threshold=0)


def test_classify_tuple_examples():
    sched = linear_schedule(2)
    cls, rare = classify_tuple(sched, (1, 2), threshold=0, cutoff=0)
    assert cls.k == 1 and rare
    cls, rare = classify_tuple(sched, (3, 7), threshold=0, cutoff=0)
    assert cls.k == 2 and not rare
    _, rare = classify_tuple(sched, (1, 50), threshold=0, cutoff=10)
    assert rare


def test_zero_distance_partner_count_bound():
    # for q_j(l) = j*l the number of m with rho(l, m) = 0 is at most ell^2
    for ell in (2, 3):
        sched = linear_schedule(ell)
        q = np.array([sched.evaluate(m) for m in range(1, 201)], dtype=np.int64)
        ls = np.array([1, 4, 9, 30], dtype=np.int64)
        pi, pj = _clustered_partners(q, ls, threshold=0)
        for l in ls:
            partners = pj[pi == l].tolist()
            assert len(partners) == len(set(partners)) <= ell * ell
            assert partners == [m for m in range(1, 201) if m != l and rho(sched, l, m) == 0]


def test_logpow_cutoff_values():
    assert logpow_cutoff(1, 0.25) == 0
    n = 100
    assert logpow_cutoff(n, 0.25) == int(math.log(n) ** 1.25)


def test_ratio_cutoff_index_is_minimal():
    c, gamma, bound = 4.0, 0.5, 30.0
    k = ratio_cutoff_index(c, gamma, bound)
    assert c * math.log(k) ** (1 + gamma) > bound
    assert k == 1 or c * math.log(k - 1) ** (1 + gamma) <= bound


def test_table_schedule_roundtrip():
    sched = table_schedule({1: (2, 5), 2: (3, 8), 3: (4, 11)})
    assert sched.evaluate(2) == (3, 8)
    with pytest.raises(ValidationError):
        sched.evaluate(4)


def test_polynomial_schedule_rows():
    sched = polynomial_schedule(2, degree=2)
    vals = sched.evaluate(3)
    assert vals[0] >= 3 and vals[1] > vals[0]


_sched_strategy = st.sampled_from(
    [linear_schedule(2), linear_schedule(3), arithmetic_gap_schedule(2, 4.0, 0.5)]
)


@given(_sched_strategy, st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_rho_symmetry_property(sched, l, l2):
    assert rho(sched, l, l2) == rho(sched, l2, l)
    assert rho(sched, l, l) == 0


@given(
    _sched_strategy,
    st.lists(st.integers(1, 40), min_size=2, max_size=5, unique=True),
    st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_cluster_threshold_monotone_property(sched, tup, threshold):
    """Raising the threshold only merges clusters, never splits them."""
    fine = cluster_partition(sched, tup, threshold)
    coarse = cluster_partition(sched, tup, threshold + 2)
    for c in fine.clusters:
        owners = {
            next(i for i, cc in enumerate(coarse.clusters) if x in cc) for x in c
        }
        assert len(owners) == 1
    assert coarse.k <= fine.k


@given(
    _sched_strategy,
    st.lists(st.integers(2, 40), min_size=2, max_size=4, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_not_rare_iff_all_pairwise_rho_positive(sched, tup):
    _, rare = classify_tuple(sched, tup, threshold=0, cutoff=0)
    pairwise = [
        rho(sched, a, b) for i, a in enumerate(tup) for b in tup[i + 1 :]
    ]
    assert (not rare) == all(d > 0 for d in pairwise)


def _scalar_columns(sched, N):
    return np.array([sched.evaluate(l) for l in range(1, N + 1)], dtype=np.int64)


@st.composite
def _table_schedules(draw):
    """Tables with q_1(l) >= l and strictly increasing rows and columns."""
    ell = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 40))
    q1 = np.cumsum(draw(st.lists(st.integers(1, 4), min_size=rows, max_size=rows)))
    cols = [q1]
    for _ in range(ell - 1):
        gaps = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)))
        cols.append(cols[-1] + 1 + gaps)
    return table_schedule(np.column_stack(cols).tolist())


_family_schedules = st.one_of(
    st.builds(linear_schedule, st.integers(1, 4)),
    st.builds(polynomial_schedule, st.integers(1, 3), st.integers(1, 3)),
    st.builds(exponential_gap_schedule, st.integers(1, 5)),
    st.builds(
        arithmetic_gap_schedule,
        st.integers(1, 4),
        st.floats(-5.0, 1e4),
        st.floats(-1.0, 8.0),
    ),
)


@given(_family_schedules, st.integers(1, 3000))
@settings(max_examples=120, deadline=None)
def test_columns_match_evaluate_property(sched, N):
    got = sched.columns(N)
    assert got.dtype == np.int64 and got.shape == (N, sched.ell)
    assert np.array_equal(got, _scalar_columns(sched, N))
    # the closed forms are not checked at run time: every row must meet the
    # schedule rules and the declared gap by construction
    prev = None
    for l, row in enumerate(got.tolist(), start=1):
        sched._check_row(l, tuple(row), prev)
        prev = row


@given(_table_schedules())
@settings(max_examples=60, deadline=None)
def test_columns_match_evaluate_on_tables(sched):
    N = sched.validation_horizon
    assert np.array_equal(sched.columns(N), _scalar_columns(sched, N))


@pytest.mark.parametrize("c, gamma", [(4.0, 0.5), (1.0, 0.5), (2.5, 0.25)])
def test_arithmetic_gap_columns_exact_to_a_million(c, gamma):
    # the gap is ceil(c (ln l)^(1+gamma)); its run boundaries are where
    # np.log and math.log could round apart
    N = 10**6
    q = arithmetic_gap_schedule(2, c, gamma).columns(N)
    assert np.array_equal(q[:, 0], np.arange(1, N + 1))
    scalar = np.fromiter((_loggap(l, c, gamma) for l in range(1, N + 1)), np.int64, N)
    assert np.array_equal(q[:, 1] - q[:, 0], scalar)


def test_columns_raise_instead_of_wrapping():
    with pytest.raises(ResourceError):
        polynomial_schedule(2, 4).columns(50_000)  # q_2(50000) = 1.25e19


def test_columns_refuse_over_the_cell_budget_before_allocating(monkeypatch):
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    # the n = 12 factorization stage fits; 2^28 terms were killed, not refused
    assert 2**24 * 2 <= COLUMN_CELL_BUDGET < 2**28 * 2
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="budget"):
            sched.columns(2**28)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    monkeypatch.setattr("nonconv.schedules.COLUMN_CELL_BUDGET", 200)
    assert sched.columns(100).shape == (100, 2)
    with pytest.raises(ResourceError, match="budget"):
        sched.columns(101)
    with pytest.raises(ResourceError, match="budget"):
        table_schedule([[l] for l in range(1, 300)]).columns(201)


def _broken_gap(j, l):
    # the gap drops below the declared c (ln l)^(1+gamma) for 200 < l <= 220
    return l + (j - 1) * (1 if 200 < l <= 220 else _loggap(l, 1.0, 0.5))


def _broken_lead(j, l):
    # q_1(l) = l - 1 for 150 <= l <= 160
    return l - (150 <= l <= 160) + 2 * (j - 1) * l


@pytest.mark.parametrize(
    "q_fn, bad_l",
    # ids kept stable: test reports are compared by id across versions
    [pytest.param(_broken_gap, 201, id="False-_broken_gap-201"),
     pytest.param(_broken_lead, 150, id="False-_broken_lead-150")],
)
def test_columns_reject_rows_evaluate_rejects(q_fn, bad_l):
    sched = QSchedule(2, q_fn, name="broken", gap_params=(1.0, 0.5))
    with pytest.raises(ScheduleError) as scalar:
        sched.evaluate(bad_l)
    sched.columns(bad_l - 1)
    with pytest.raises(ScheduleError) as rejected:
        sched.columns(300)  # row 300 is valid; the fault is inside
    assert str(rejected.value) == str(scalar.value)


def test_custom_rows_are_checked_against_the_row_before():
    # q_1 jumps to 350 at l = 200 and drops back to 201 at l = 201: each row
    # alone is valid, and the columns stop being sorted
    sched = QSchedule(2, lambda j, l: l + 150 * (l == 200) + 400 * (j - 1), name="jump")
    msg = "schedule 'jump': q_1 not strictly increasing at l=201"
    assert sched.evaluate(200) == (350, 750)
    with pytest.raises(ScheduleError) as scalar:
        sched.evaluate(201)
    assert str(scalar.value) == msg
    with pytest.raises(ScheduleError) as rejected:
        sched.columns(300)
    assert str(rejected.value) == msg


def test_arithmetic_gap_refuses_gamma_below_minus_one():
    # at gamma = -1.3 the gap c (ln l)^(1+gamma) falls with l: q_2 stops
    # increasing at l = 1058
    with pytest.raises(ScheduleError, match="gamma must be >= -1"):
        arithmetic_gap_schedule(2, 1.79, -1.3)
    cfg = {"model": "bernoulli", "seed": 1, "n_grid": [8], "outputs": ["pmf_vs_poisson"],
           "schedule": {"family": "arithmetic_gap", "ell": 2, "c": 1.79, "gamma": -1.3}}
    assert validate_config(cfg) == [
        "schedule: schedule arithmetic_gap: gamma must be >= -1, got -1.3"
    ]
    assert arithmetic_gap_schedule(2, 1.79, -1.0).columns(2000)[-1].tolist() == [2000, 2002]


def test_columns_and_runs_build_without_big_temporaries():
    # 2^20 terms of the A6 schedule: the table itself is 16 MiB
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    N = 2**20
    tracemalloc.start()
    try:
        q = sched.columns(N)
        _, col_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        starts = _runs(q)
        runs_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert q.nbytes == 16 * 2**20
    assert col_peak < 2.5 * q.nbytes, col_peak / q.nbytes
    assert runs_peak < 12 * 2**20, runs_peak
    # the same table and runs as the closed form over whole arrays
    g = _loggap_runs(N, 4.0, 0.5)
    assert np.array_equal(q, np.arange(1, N + 1)[:, None] + g[:, None] * np.arange(2))
    steps_by_one = (np.diff(q, axis=0) == 1).all(axis=1)
    assert np.array_equal(starts, np.concatenate([[1], np.flatnonzero(~steps_by_one) + 2]))
