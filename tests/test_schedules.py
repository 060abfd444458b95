"""Index schedules, proximity, clusters, and rare-set classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonconv import (
    QSchedule,
    ScheduleError,
    ValidationError,
    arithmetic_gap_schedule,
    classify_tuple,
    cluster_partition,
    exponential_gap_schedule,
    linear_schedule,
    logpow_cutoff,
    polynomial_schedule,
    ratio_cutoff_index,
    rho,
    table_schedule,
)
from nonconv.sevastyanov import _clustered_partners


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
