"""Each output check passes a right result and rejects a deliberately wrong one."""

import math
from dataclasses import replace

import numpy as np
import pytest

import checks

RNG = np.random.default_rng(12345)


# -- subshift arrivals --------------------------------------------------------

def _poisson_samples(reps=5000, lam=1.0):
    return RNG.poisson(lam, size=reps).astype(np.int64)


def test_arrivals_accepts_poisson_counts():
    assert checks.check_arrivals(_poisson_samples(), 4**8, 1.0, 8, 5000) == []


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda s, N, lam: (s + 1, N, lam), "TV"),  # shifted pmf
        (lambda s, N, lam: (s, N // 2, lam), "N="),  # wrong term count
        (lambda s, N, lam: (s, N, 1.001), "realized lambda"),
        (lambda s, N, lam: (s[:-1], N, lam), "shape"),
    ],
)
def test_arrivals_rejects_wrong_results(mutate, needle):
    s, N, lam = mutate(_poisson_samples(), 4**8, 1.0)
    faults = checks.check_arrivals(s, N, lam, 8, 5000)
    assert any(needle in f for f in faults), faults


# -- subshift hitting ---------------------------------------------------------

def _hitting(reps=5000, n=8, cap=2.0, shift=0.0):
    scale = 4.0**-n
    first = np.ceil((RNG.exponential(size=reps) + shift) / scale)
    scaled = first * scale
    censored = scaled > cap
    return np.where(censored, cap, scaled), censored


def test_hitting_accepts_exponential_times():
    scaled, censored = _hitting()
    assert checks.check_hitting(scaled, censored, 8, 2.0, 5000) == []


def test_hitting_rejects_late_arrivals():
    scaled, censored = _hitting(shift=0.1)
    faults = checks.check_hitting(scaled, censored, 8, 2.0, 5000)
    assert any("survival" in f for f in faults), faults


def test_hitting_rejects_off_grid_times_and_bad_censoring():
    scaled, censored = _hitting()
    bad = scaled.copy()
    bad[np.nonzero(~censored)[0][0]] += 1e-7
    assert any("term index" in f for f in checks.check_hitting(bad, censored, 8, 2.0, 5000))
    flags = censored.copy()
    flags[np.nonzero(~censored)[0][0]] = True
    assert any("censored" in f for f in checks.check_hitting(scaled, flags, 8, 2.0, 5000))


# -- factorization grid -------------------------------------------------------

@pytest.fixture(scope="module")
def factorization_run():
    """A real check_conditions run on the A6 setup at small n."""
    import nonconv.sevastyanov as sev
    import workloads

    grid = (4, 6)
    inp = workloads._subshift_inputs(7, grid)
    stages = {}
    factory = sev.subshift_model_oracle(
        inp["measure"], inp["schedule"], 1.0, inp["targets"].__getitem__
    )

    def model_oracle(n):
        stages[n] = factory(n)
        return stages[n]

    report = sev.check_conditions(model_oracle, inp["schedule"], 2, list(grid),
                                  workloads._rare_params, seed=inp["sim_seed"])
    words = {n: inp["targets"][n].blocks[0] for n in grid}
    return report, stages, words, workloads._rare_params


def _with_stage(report, n, **changes):
    stages = tuple(replace(s, **changes) if s.n == n else s for s in report.stages)
    return replace(report, stages=stages)


def test_gap_positions_match_the_schedule():
    from nonconv.schedules import arithmetic_gap_schedule

    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    q = np.array([sched.evaluate(l) for l in range(1, 4**7 + 1)])
    assert np.array_equal(q[:, 1] - q[:, 0], checks.gap_positions(4**7))


def test_window_prob_on_overlapping_copies():
    assert checks.window_prob((0, 1, 0, 1), (0,)) == 2.0**-4
    assert checks.window_prob((0, 1, 0, 1), (0, 2)) == 2.0**-6  # consistent overlap
    assert checks.window_prob((0, 1, 1, 0), (0, 1)) == 0.0  # clash
    assert checks.window_prob((0, 1), (0, 5)) == 2.0**-4


def test_factorization_accepts_the_package_report(factorization_run):
    assert checks.check_factorization(*factorization_run) == []


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("term_count", lambda s: s.term_count - 1, "term_count"),
        ("max_b", lambda s: s.max_b * 2.0, "max_b"),
        ("sum_b", lambda s: s.sum_b * (1.0 + 1e-6), "sum_b"),
        ("rare_sum_joint", lambda s: s.rare_sum_joint * (1.0 - 1e-6), "rare_sum_joint"),
        ("rare_sum_product", lambda s: s.rare_sum_product + 2.0**-30, "rare_sum_product"),
        ("ratio_band", lambda s: (1.0, 1.01), "ratio band"),
    ],
)
def test_factorization_rejects_a_wrong_report(factorization_run, field, value, needle):
    report, stages, words, rare = factorization_run
    bad = _with_stage(report, 6, **{field: value(report.stage(6))})
    faults = checks.check_factorization(bad, stages, words, rare)
    assert any(needle in f for f in faults), faults


def test_factorization_rejects_a_wrong_oracle(factorization_run):
    report, stages, words, rare = factorization_run
    stage = stages[6]
    bad = {**stages, 6: replace(stage, b=lambda idx: stage.b(idx) * (1.0 + 1e-6))}
    faults = checks.check_factorization(report, bad, words, rare)
    assert any("P(B)^4" in f for f in faults), faults


def test_factorization_rejects_a_missing_stage(factorization_run):
    report, stages, words, rare = factorization_run
    assert checks.check_factorization(report, stages, {**words, 8: (0,) * 8}, rare) != []


# -- CLI tables ---------------------------------------------------------------

def _csv(header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    return "\r\n".join(lines) + "\r\n"


def _b_rows(values):
    rows = []
    for n, (max_b, sum_b_error) in values.items():
        rows += [(n, "max_b", repr(max_b), 0.05, 0), (n, "sum_b_error", repr(sum_b_error), 0.05, 0)]
    return _csv(("n", "condition", "value", "envelope", "margin"), rows)


def _bernoulli_tables(reps=10_000, shift=0):
    exact = {0: 0.36, 1: 0.37, 2: 0.19, 3: 0.08}
    draws = RNG.choice(list(exact), p=list(exact.values()), size=reps) + shift
    emp = np.bincount(draws) / reps
    rows = []
    for n in (1024, 4096):
        rows += [(n, k, p, 0.0, "exact", 0) for k, p in exact.items()]
        rows += [(n, k, repr(float(f)), 0.0, "empirical", reps) for k, f in enumerate(emp)]
    header = ("n", "k", "model_pmf", "poisson_pmf", "source", "sample_size")
    return {
        "pmf_vs_poisson": _csv(header, rows),
        "sevastyanov_report": _b_rows({n: (1.0 / n, 0.0) for n in (1024, 4096)}),
    }


def test_bernoulli_cli_accepts_consistent_tables():
    assert checks.check_bernoulli_cli(_bernoulli_tables(), 1.0, (1024, 4096), 10_000) == []


def test_bernoulli_cli_rejects_shifted_pmf():
    faults = checks.check_bernoulli_cli(_bernoulli_tables(shift=1), 1.0, (1024, 4096), 10_000)
    assert any("empirical count" in f for f in faults), faults


def test_bernoulli_cli_rejects_wrong_max_b():
    tables = _bernoulli_tables()
    tables["sevastyanov_report"] = _b_rows({1024: (1.1 / 1024, 0.0), 4096: (1.0 / 4096, 0.0)})
    faults = checks.check_bernoulli_cli(tables, 1.0, (1024, 4096), 10_000)
    assert any("max_b" in f for f in faults), faults


def _markov_tables(reps=5000, lam_n=0.93, shift=0):
    emp = np.bincount(RNG.poisson(lam_n, size=reps) + shift) / reps
    rows = []
    for n in (100, 600):
        rows += [(n, k, repr(float(f)), repr(math.exp(-lam_n) * lam_n**k / math.factorial(k)),
                  "empirical", reps) for k, f in enumerate(emp)]
    header = ("n", "k", "model_pmf", "poisson_pmf", "source", "sample_size")
    return {
        "pmf_vs_poisson": _csv(header, rows),
        "sevastyanov_report": _b_rows({n: (lam_n / n, abs(lam_n - 1.0)) for n in (100, 600)}),
    }


def test_markov_cli_accepts_consistent_tables():
    assert checks.check_markov_cli(_markov_tables(), 1.0, (100, 600), 5000) == []


def test_markov_cli_rejects_shifted_pmf():
    faults = checks.check_markov_cli(_markov_tables(shift=1), 1.0, (100, 600), 5000)
    assert any("sample mean" in f for f in faults), faults


def test_reference_tables_must_match_byte_for_byte():
    assert checks.check_reference("t", b"a,b\r\n1,2\r\n", b"a,b\r\n1,2\r\n") == []
    assert checks.check_reference("t", b"a,b\n1,2\n", b"a,b\r\n1,2\r\n") != []


# -- gate widths --------------------------------------------------------------

def test_gates_are_wide_for_luck_and_narrow_for_bugs():
    # a correct sampler's TV at 5k replicates (about 0.01) sits well inside
    # the gate, and a one-step shift of Poisson(1) (TV 0.63) far outside it
    assert 0.05 < checks.tv_gate(5000) < 0.2
    # a bin with mean 0.01 may show a few counts without tripping the gate
    assert checks.count_gate(0.01) > 10
