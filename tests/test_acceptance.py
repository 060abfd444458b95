"""Acceptance criteria A1-A8.

Each test prints a single PASS/FAIL line with the measured quantities so a
run log documents the evidence, then asserts the stated tolerances and the
runtime budget.
"""

import hashlib
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from nonconv import (
    BernoulliScheme,
    FiniteMarkovChain,
    PoissonLaw,
    Tolerances,
    arithmetic_gap_schedule,
    chen_stein_terms,
    check_conditions,
    choose_target_sets,
    empirical_distribution,
    exact_distribution,
    exponential_gap_schedule,
    full_shift,
    hitting_time_batch,
    linear_schedule,
    make_target,
    mixing_rate,
    poisson_limit_verdict,
    psi_mixing_check,
    sample_clear_word,
    simulate_arrival_batch,
    simulate_batch,
    simulate_nonconventional_batch,
    table_schedule,
    tv_distance,
    uniform_measure,
    verify_poisson_bound,
)
from nonconv.markov import exact_sum_distribution
from nonconv.rng import derive_rng
from nonconv.schedules import QSchedule, logpow_cutoff, ratio_cutoff_index
from nonconv.sevastyanov import pattern_chain_oracle, subshift_model_oracle
from nonconv.subshift import (
    MarkovGibbsMeasure,
    golden_mean_shift,
    pattern_chain,
)

REPLICATES = 100_000


class _Clock:
    def __init__(self):
        self.t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


def _emit(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


@lru_cache(maxsize=None)
def _a4_setup(n: int):
    """Shared A4/A5/A6 configuration: full 2-shift, uniform measure,
    arithmetic-gap schedule c=4, gamma=0.5, plain n-cylinder target."""
    um = uniform_measure(full_shift(2))
    sched = arithmetic_gap_schedule(2, 4.0, 0.5)
    word = sample_clear_word(um, n, 0.25, seed=100 + n)
    target = make_target(um, word, n)
    assert target.short_return_clear
    return um, sched, target


def test_a1_tv_within_bound(capsys):
    clock = _Clock()
    margins = []
    ok = True
    for ell in (1, 2):
        sched = linear_schedule(ell)
        for n in (8, 12, 16, 24):
            report = verify_poisson_bound(
                BernoulliScheme.from_lambda(n, 1.0, sched), 1.0
            )
            margins.append(report.bound - report.tv_exact)
            ok = ok and report.holds
    worst = min(margins)
    line = (
        f"A1 {'PASS' if ok and worst >= -1e-10 else 'FAIL'}: exact TV <= bound "
        f"for ell in (1,2), n in (8,12,16,24); worst margin {worst:.4g}, "
        f"{clock.elapsed:.1f}s"
    )
    _emit(capsys, line)
    assert ok
    assert worst >= -1e-10
    assert clock.elapsed < 10.0


def test_a2_moment_term_identities(capsys):
    clock = _Clock()
    rng = derive_rng(2026, 12)
    checked = 0
    worst_rel = 0.0
    for _ in range(50):
        ell = int(rng.integers(1, 4))
        n = int(rng.integers(2, 26))
        p = float(rng.uniform(0.02, 0.6))
        sched = [
            linear_schedule(ell),
            exponential_gap_schedule(ell),
            arithmetic_gap_schedule(ell, float(rng.uniform(0.5, 4.0)), 0.5),
        ][int(rng.integers(0, 3))]
        terms = chen_stein_terms(BernoulliScheme(n=n, p=p, schedule=sched))
        i1_true = n * p ** (2 * ell)
        worst_rel = max(worst_rel, abs(terms.I1 - i1_true) / i1_true)
        assert terms.I1 == pytest.approx(i1_true, rel=1e-12)
        assert terms.I2 <= n * ell * ell * p ** (2 * ell) + 1e-15
        assert terms.I3 <= n * ell * ell * p ** (ell + 1) + 1e-15
        checked += 1
    _emit(
        capsys,
        f"A2 PASS: I1 exact and I2/I3 bounds on {checked} random instances, "
        f"worst I1 relative error {worst_rel:.2e}, {clock.elapsed:.1f}s",
    )
    assert checked == 50
    assert clock.elapsed < 5.0


def _bins_within_3sigma(dist, samples, reps, slack=1e-9):
    worst = 0.0
    for k, pk in dist.pmf.items():
        emp = float(np.mean(samples == k))
        sigma = math.sqrt(pk * (1.0 - pk) / reps)
        z = abs(emp - pk) / sigma if sigma > 0 else 0.0
        worst = max(worst, z)
        if abs(emp - pk) > 3.0 * sigma + slack:
            return False, worst
    return True, worst


def test_a3_oracle_vs_monte_carlo(capsys):
    clock = _Clock()
    worst = 0.0
    count = 0

    # Bernoulli: five (n, ell, p, schedule) configurations
    bern = [
        (6, 2, 0.35, linear_schedule(2)),
        (10, 1, 0.10, linear_schedule(1)),
        (4, 3, 0.30, linear_schedule(3)),
        (8, 2, 0.20, exponential_gap_schedule(2)),
        (5, 2, 0.50, arithmetic_gap_schedule(2, 1.0, 0.5)),
    ]
    for i, (n, ell, p, sched) in enumerate(bern):
        scheme = BernoulliScheme(n=n, p=p, schedule=sched)
        dist = exact_distribution(scheme)
        samples = simulate_batch(scheme, seed=400 + i, replicates=REPLICATES)
        ok, z = _bins_within_3sigma(dist, samples, REPLICATES)
        assert ok, f"bernoulli config {i}: worst z {z:.2f}"
        worst = max(worst, z)
        count += 1

    # Markov: five (chain, schedule, Gamma, n) configurations
    chain1 = FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]])
    chain2 = FiniteMarkovChain([[0.5, 0.5], [0.5, 0.5]])
    chain3 = FiniteMarkovChain(
        [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.3, 0.3, 0.4]]
    )
    tbl = table_schedule({1: (1, 3), 2: (2, 5), 3: (4, 7)})
    mark = [
        (chain1, linear_schedule(1), {0}, 6),
        (chain1, linear_schedule(2), {0}, 2),
        (chain2, linear_schedule(2), {1}, 3),
        (chain3, linear_schedule(1), {0, 2}, 4),
        (chain1, tbl, {0}, 3),
    ]
    for i, (chain, sched, gamma, n) in enumerate(mark):
        dist = exact_sum_distribution(chain, sched, gamma, n)
        samples = simulate_arrival_batch(
            chain, sched, gamma, n, seed=500 + i, replicates=REPLICATES
        )
        ok, z = _bins_within_3sigma(dist, samples, REPLICATES)
        assert ok, f"markov config {i}: worst z {z:.2f}"
        worst = max(worst, z)
        count += 1

    # Subshift: five (measure, schedule, target word, N) configurations
    gm = MarkovGibbsMeasure(golden_mean_shift(), [[2 / 3, 1 / 3], [1.0, 0.0]])
    um = uniform_measure(full_shift(2))
    subs = [
        (gm, linear_schedule(2), (0, 1), 4),
        (gm, linear_schedule(1), (0, 0), 6),
        (um, linear_schedule(1), (0, 1, 0), 8),
        (um, linear_schedule(2), (1, 0), 5),
        (gm, arithmetic_gap_schedule(2, 1.0, 0.5), (0, 1), 4),
    ]
    for i, (measure, sched, word, N) in enumerate(subs):
        target = make_target(measure, word, len(word))
        dist = exact_sum_distribution(target.chain[0], sched, target.chain[1], N)
        lam = N * target.prob**sched.ell
        samples, N_used, _ = simulate_nonconventional_batch(
            measure, sched, target, lam, seed=600 + i, replicates=REPLICATES
        )
        assert N_used == N
        ok, z = _bins_within_3sigma(dist, samples, REPLICATES)
        assert ok, f"subshift config {i}: worst z {z:.2f}"
        worst = max(worst, z)
        count += 1

    _emit(
        capsys,
        f"A3 PASS: {count} configurations x {REPLICATES} replicates, per-bin "
        f"worst |z| = {worst:.2f} <= 3, {clock.elapsed:.1f}s",
    )
    assert count == 15
    assert clock.elapsed < 120.0


def test_a4_subshift_poisson_convergence(capsys):
    clock = _Clock()
    tvs = {}
    for n in (6, 8, 10):
        um, sched, target = _a4_setup(n)
        samples, N, lam_real = simulate_nonconventional_batch(
            um, sched, target, lam=1.0, seed=42, replicates=REPLICATES
        )
        assert N == 2 ** (2 * n)
        tvs[n] = tv_distance(
            empirical_distribution(samples), PoissonLaw(lam_real).distribution()
        )
    ok = tvs[8] <= 0.05 and tvs[8] <= tvs[6] + 0.01 and tvs[10] <= tvs[8] + 0.01
    _emit(
        capsys,
        f"A4 {'PASS' if ok else 'FAIL'}: TV(empirical, Poisson) = "
        f"{tvs[6]:.4f} (n=6), {tvs[8]:.4f} (n=8), {tvs[10]:.4f} (n=10); "
        f"n=8 bound 0.05, decreasing with slack 0.01, {clock.elapsed:.1f}s",
    )
    assert tvs[8] <= 0.05
    assert tvs[8] <= tvs[6] + 0.01
    assert tvs[10] <= tvs[8] + 0.01
    assert clock.elapsed < 300.0


def test_a5_hitting_time_survival(capsys):
    clock = _Clock()
    um, sched, target = _a4_setup(8)
    scaled, censored = hitting_time_batch(
        um, sched, target, seed=77, replicates=REPLICATES, lam_cap=2.0
    )
    zs = {}
    for lam in (0.5, 1.0, 2.0):
        surv = float(np.mean((scaled > lam) | censored))
        limit = math.exp(-lam)
        sigma = math.sqrt(limit * (1.0 - limit) / REPLICATES)
        zs[lam] = (surv - limit) / sigma
    ok = all(abs(z) <= 3.0 for z in zs.values())
    _emit(
        capsys,
        f"A5 {'PASS' if ok else 'FAIL'}: survival z-scores "
        f"{zs[0.5]:+.2f} (lam=0.5), {zs[1.0]:+.2f} (lam=1), "
        f"{zs[2.0]:+.2f} (lam=2) all within 3 sigma of exp(-lam), "
        f"{clock.elapsed:.1f}s",
    )
    for lam, z in zs.items():
        assert abs(z) <= 3.0, f"lambda={lam}: z={z:.2f}"
    assert clock.elapsed < 300.0


def test_a6_factorization_conditions(capsys):
    clock = _Clock()

    # subshift grid: rare sums from the stratified pair scan
    um, sched, _ = _a4_setup(6)

    def rare_params(n):
        threshold = n + logpow_cutoff(n, 0.25)
        return threshold, ratio_cutoff_index(4.0, 0.5, 2.0 * threshold)

    def target_fn(n):
        return _a4_setup(n)[2]

    factory = subshift_model_oracle(um, sched, 1.0, target_fn)
    report = check_conditions(
        factory, sched, r=2, n_grid=[6, 8, 10], rare_params=rare_params, seed=5
    )
    joint = report.rare_sum_joint
    product = report.rare_sum_product
    bands = report.ratio_band
    widths = [b[1] - b[0] if b else math.inf for b in bands]
    # the uniform full shift factorizes exactly, so band widths sit at float
    # noise; a 1e-12 floor keeps the 2x shrink test meaningful
    sub_ok = (
        all(b <= 1.1 * a for a, b in zip(joint, joint[1:]))
        and all(b <= 1.1 * a for a, b in zip(product, product[1:]))
        and widths[-1] <= widths[0] / 2.0 + 1e-12
    )

    # Markov two-state grid with mass-calibrated target sets
    chain = FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]])
    stride2 = QSchedule(ell=1, q_fn=lambda j, l: 2 * l, name="stride2")
    targets = choose_target_sets(chain, ell=1, lam=1.0, n_grid=[8, 16, 32])
    mreport = check_conditions(
        pattern_chain_oracle(
            stride2,
            lambda n: (*pattern_chain(targets[n].measure, targets[n].words), n),
        ),
        stride2,
        r=2,
        n_grid=[8, 16, 32],
        rare_params=lambda n: (max(1, int(math.log(n))),) * 2,
        seed=5,
    )
    mjoint = mreport.rare_sum_joint
    mwidths = [b[1] - b[0] if b else math.inf for b in mreport.ratio_band]
    mark_ok = (
        all(b <= 1.1 * a for a, b in zip(mjoint, mjoint[1:]))
        and mwidths[-1] <= mwidths[0] / 2.0
    )

    # periodic reference word: the ratio condition must be the failure
    periodic = make_target(um, (0, 1) * 4, 8)
    pfactory = subshift_model_oracle(um, sched, 1.0, lambda n: periodic)
    preport = check_conditions(
        pfactory, sched, r=2, n_grid=[8], rare_params=(0, 0), seed=5
    )
    verdict = poisson_limit_verdict(preport, lam=1.0)
    periodic_ok = (not verdict.passed) and "ratio_band" in verdict.failures

    ok = sub_ok and mark_ok and periodic_ok
    _emit(
        capsys,
        f"A6 {'PASS' if ok else 'FAIL'}: subshift rare sums "
        f"{joint[0]:.4f}->{joint[1]:.4f}->{joint[2]:.4f} decreasing, band "
        f"widths {widths[0]:.3g}->{widths[-1]:.3g}; markov widths "
        f"{mwidths[0]:.3g}->{mwidths[-1]:.3g} (>=2x shrink); periodic word "
        f"fails via {verdict.failures}, {clock.elapsed:.1f}s",
    )
    assert sub_ok, (joint, product, widths)
    assert mark_ok, (mjoint, mwidths)
    assert periodic_ok, verdict
    assert clock.elapsed < 120.0


def test_a7_mixing_certificates(capsys):
    clock = _Clock()
    cert = mixing_rate(FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]]))
    beta_true = -math.log(0.6)
    rel_markov = abs(cert.beta - beta_true) / beta_true

    gm = MarkovGibbsMeasure(golden_mean_shift(), [[2 / 3, 1 / 3], [1.0, 0.0]])
    psi = psi_mixing_check(gm, gap_max=16)
    rel_psi = abs(psi.beta - math.log(3)) / math.log(3)

    violations = 0
    for n, d in enumerate(cert.distances, start=1):
        if d > cert.C1 * math.exp(-cert.beta * n) + 1e-12:
            violations += 1
    for g, err in enumerate(psi.envelope, start=1):
        if err > psi.C * math.exp(-psi.beta * g) + 1e-12:
            violations += 1

    ok = rel_markov < 0.02 and rel_psi < 0.05 and violations == 0
    _emit(
        capsys,
        f"A7 {'PASS' if ok else 'FAIL'}: markov beta rel err {rel_markov:.2e} "
        f"(< 2%), psi beta rel err {rel_psi:.2e} (< 5%), envelope violations "
        f"{violations}, {clock.elapsed:.1f}s",
    )
    assert rel_markov < 0.02
    assert rel_psi < 0.05
    assert violations == 0
    assert clock.elapsed < 60.0


_CLI_CONFIGS = {
    "bernoulli": """\
model: bernoulli
seed: 7
lambda: 1.0
n_grid: [8, 12]
replicates: 5000
schedule: {family: linear, ell: 2}
outputs: [pmf_vs_poisson, tv_and_bounds, chen_stein_terms]
""",
    "markov": """\
model: markov
seed: 3
lambda: 1.0
n_grid: [8, 16]
replicates: 5000
schedule: {family: linear, ell: 1}
outputs: [pmf_vs_poisson, mixing_certificates, sevastyanov_report]
model_params:
  transition: [[0.7, 0.3], [0.1, 0.9]]
sevastyanov: {r: 2, rare_params: [0, 1]}
""",
    "subshift": """\
model: subshift
seed: 5
lambda: 1.0
n_grid: [6]
replicates: 5000
schedule: {family: arithmetic_gap, ell: 2, c: 4.0, gamma: 0.5}
outputs: [pmf_vs_poisson, mixing_certificates, hitting_time_survival, sevastyanov_report]
model_params:
  omega_seed: 11
hitting: {lambdas: [0.5, 1.0, 2.0]}
""",
}


def _sha_all(out_dir):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
    }


def test_a8_determinism(capsys, tmp_path):
    from nonconv.cli import run

    clock = _Clock()
    checked = []

    # full CLI pipelines, one per model, run twice
    for model, text in _CLI_CONFIGS.items():
        cfg = tmp_path / f"{model}.yaml"
        cfg.write_text(text)
        out1 = tmp_path / f"{model}_1"
        out2 = tmp_path / f"{model}_2"
        run(cfg, out1)
        run(cfg, out2)
        assert _sha_all(out1) == _sha_all(out2), f"{model} CLI run not reproducible"
        checked.append(f"cli:{model}")

    # heavy simulation paths re-drawn with identical seeds
    um, sched, target = _a4_setup(6)
    s1, _, _ = simulate_nonconventional_batch(um, sched, target, 1.0, 42, 20_000)
    s2, _, _ = simulate_nonconventional_batch(um, sched, target, 1.0, 42, 20_000)
    assert np.array_equal(s1, s2)
    checked.append("subshift:arrivals")

    h1 = hitting_time_batch(um, sched, target, seed=77, replicates=10_000)
    h2 = hitting_time_batch(um, sched, target, seed=77, replicates=10_000)
    assert np.array_equal(h1[0], h2[0]) and np.array_equal(h1[1], h2[1])
    checked.append("subshift:hitting")

    scheme = BernoulliScheme.from_lambda(12, 1.0, linear_schedule(2))
    assert np.array_equal(
        simulate_batch(scheme, 7, 20_000), simulate_batch(scheme, 7, 20_000)
    )
    checked.append("bernoulli:arrivals")

    chain = FiniteMarkovChain([[0.7, 0.3], [0.1, 0.9]])
    assert np.array_equal(
        simulate_arrival_batch(chain, linear_schedule(1), {0}, 6, 3, 20_000),
        simulate_arrival_batch(chain, linear_schedule(1), {0}, 6, 3, 20_000),
    )
    checked.append("markov:arrivals")

    _emit(
        capsys,
        f"A8 PASS: byte-identical double runs for {', '.join(checked)}, "
        f"{clock.elapsed:.1f}s",
    )
