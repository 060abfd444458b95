"""Output checks for the benchmark workloads.

Each check returns a list of faults (empty = the output is right).  Checks
use exact identities of the workload inputs, or oracles written here with
numpy and the standard library; they never compare against numbers taken
from an earlier run of the draws.

Monte Carlo gates are set wide enough that a correct sampler trips one with
probability below 1e-7 per call (see each gate), so a fault means a bug, not
bad luck.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# A4 holds TV(law of S_N, Poisson) <= 0.05 at n = 8 and no worse at n = 10.
TV_MODEL_SLACK = 0.05
# False-alarm probability allowed per Monte Carlo gate.
ALPHA = 1e-9
# |z| gate for survival and mean checks: P(|Z| > 6) = 2.0e-9.
Z_GATE = 6.0


def count_gate(mu: float) -> float:
    """Deviation of a binomial count with mean mu exceeded w.p. at most ALPHA.

    Bernstein: P(|X - mu| >= t) <= 2 exp(-t^2 / (2 (mu + t / 3))), solved
    for t.  Unlike a z-score it stays valid for bins with tiny mu.
    """
    L = math.log(2.0 / ALPHA)
    return L / 3.0 + math.sqrt((L / 3.0) ** 2 + 2.0 * L * mu)


def poisson_pmf(lam: float, kmax: int) -> np.ndarray:
    k = np.arange(kmax + 1)
    return np.exp(-lam + k * math.log(lam) - np.array([math.lgamma(v + 1) for v in k]))


def tv_to_poisson(samples: np.ndarray, lam: float) -> float:
    """TV distance between the empirical law of ``samples`` and Poisson(lam)."""
    emp = np.bincount(samples) / samples.size
    kmax = max(emp.size - 1, int(lam + 40 * math.sqrt(lam) + 40))
    pois = poisson_pmf(lam, kmax)
    emp = np.pad(emp, (0, kmax + 1 - emp.size))
    return 0.5 * (float(np.abs(emp - pois).sum()) + max(0.0, 1.0 - float(pois.sum())))


def tv_gate(replicates: int) -> float:
    """Largest TV(empirical, Poisson) a correct sampler shows, except w.p. ALPHA.

    TV(emp, Poisson) <= TV(emp, law) + TV(law, Poisson).  The second term is
    at most TV_MODEL_SLACK (A4).  E TV(emp, law) <= sum_k sqrt(p_k / R) / 2,
    and sum_k sqrt(p_k) <= 2.5 for laws near Poisson(1) (2.10 at Poisson(1)).
    TV(emp, law) changes by at most 1/R per draw, so McDiarmid bounds its
    excess over the mean by t with probability exp(-2 R t^2) = ALPHA.
    """
    mean = 1.25 / math.sqrt(replicates)
    t = math.sqrt(math.log(1.0 / ALPHA) / (2.0 * replicates))
    return TV_MODEL_SLACK + mean + t


def check_arrivals(samples, N: int, lam_real: float, n: int, replicates: int) -> list[str]:
    """``simulate_nonconventional_batch`` on the uniform full 2-shift, plain n-cylinder.

    P(B) = 2^-n, so N = round(1 / P(B)^2) = 2^(2n) and N P(B)^2 = 1.
    """
    faults = []
    if N != 4**n:
        faults.append(f"n={n}: N={N}, expected 2^(2n)={4 ** n}")
    expect = N * 2.0 ** (-2 * n)
    if not abs(lam_real - expect) <= 1e-12 * max(1.0, expect):
        faults.append(f"n={n}: realized lambda {lam_real!r} != N P(B)^2 = {expect!r}")
    s = np.asarray(samples)
    if s.shape != (replicates,) or not np.issubdtype(s.dtype, np.integer):
        return faults + [f"n={n}: samples shape {s.shape} dtype {s.dtype}"]
    if s.min() < 0 or s.max() > N:
        return faults + [f"n={n}: counts outside 0..N"]
    tv = tv_to_poisson(s, expect)
    if tv > tv_gate(replicates):
        faults.append(f"n={n}: TV(empirical, Poisson) {tv:.4f} > gate {tv_gate(replicates):.4f}")
    return faults


def check_hitting(scaled, censored, n: int, lam_cap: float, replicates: int) -> list[str]:
    """``hitting_time_batch`` on the uniform full 2-shift, plain n-cylinder.

    Scaled times are first * P(B)^2 with P(B) = 2^-n, so uncensored values
    are whole multiples of 2^(-2n) up to lam_cap; censored ones equal
    lam_cap.  Survival at lambda is compared with exp(-lambda) by a z-score
    gated at Z_GATE.  A5 holds the bias below 3 sigma at 100k replicates,
    which is under 0.7 sigma at 5k or more, so a correct sampler trips one
    z gate with probability below 1e-7.
    """
    faults = []
    x = np.asarray(scaled, dtype=float)
    c = np.asarray(censored)
    if x.shape != (replicates,) or c.shape != (replicates,) or c.dtype != bool:
        return [f"hitting output shapes {x.shape}, {c.shape} dtype {c.dtype}"]
    if np.any(x[c] != lam_cap):
        faults.append("a censored replicate does not report lam_cap")
    steps = x[~c] * 4.0**n
    if np.any(steps != np.round(steps)) or np.any(steps < 1) or np.any(x[~c] > lam_cap):
        faults.append("an uncensored scaled time is not a term index times P(B)^2 in (0, lam_cap]")
    for lam in (0.5, 1.0, 2.0):
        if lam > lam_cap:
            continue
        surv = float(np.mean((x > lam) | c))
        limit = math.exp(-lam)
        z = (surv - limit) / math.sqrt(limit * (1.0 - limit) / replicates)
        if abs(z) > Z_GATE:
            faults.append(f"survival at lambda={lam}: z={z:+.2f} beyond {Z_GATE}")
    return faults


def gap_positions(N: int, c: float = 4.0, gamma: float = 0.5) -> np.ndarray:
    """Gaps g(l) = max(1, ceil(c (ln l)^(1+gamma))), l = 1..N, of
    ``arithmetic_gap_schedule(2, c, gamma)``: q_1(l) = l, q_2(l) = l + g(l)."""
    l = np.arange(1, N + 1, dtype=np.float64)
    return np.maximum(1, np.ceil(c * np.log(l) ** (1.0 + gamma))).astype(np.int64)


def window_prob(word, offsets) -> float:
    """P(``word`` sits at every offset) under the uniform Bernoulli(1/2) measure:
    2^-(covered sites) if the copies agree where they overlap, else 0."""
    sites: dict[int, int] = {}
    for o in offsets:
        for k, a in enumerate(word):
            if sites.setdefault(o + k, a) != a:
                return 0.0
    return 2.0 ** -len(sites)


def factorization_oracle(word, N: int, threshold: int, cutoff: int) -> dict:
    """Exact stage values of ``check_conditions`` with r = 2 on the uniform
    full 2-shift, the gap schedule above and the plain cylinder of ``word``.

    b_l = window_prob(word, (0, g(l))).  A pair i < j is rare if i <= cutoff
    or it is clustered: some |q_a(i) - q_b(j)| <= threshold, which for
    j = i + d (g is nondecreasing) means d <= threshold or |d - g(i)| <=
    threshold.  A clustered pair has b = window_prob(word, (0, g(i), d,
    d + g(j))); any other pair's windows lie more than threshold >= n apart,
    so its b is b_i b_j.  Hence
      rare_sum_product = sum_{i <= cutoff, j > i} b_i b_j + sum_{C, i > cutoff} b_i b_j
      rare_sum_joint   = sum_{i <= cutoff, j > i} b_i b_j - sum_{C, i <= cutoff} b_i b_j
                         + sum_C b(i, j)
    with C the clustered pairs, and every non-rare pair has ratio 1.
    """
    g = gap_positions(N)
    gaps, inv = np.unique(g, return_inverse=True)
    b1 = np.array([window_prob(word, (0, int(d))) for d in gaps])[inv]
    after = np.cumsum(b1[::-1])[::-1] - b1  # sum_{j > i} b_j
    low = min(cutoff, N)
    low_pairs = float((b1[:low] * after[:low]).sum())
    joint_c = prod_c_low = prod_c_high = 0.0
    span = int(g.max()) + 1
    for d in range(1, min(N - 1, int(g.max()) + threshold) + 1):
        # clustered i (0-based) for this d: all, or the run with |d - g(i)| <= threshold
        lo, hi = (0, N - d) if d <= threshold else (
            int(np.searchsorted(g, d - threshold)),
            min(N - d, int(np.searchsorted(g, d + threshold, side="right"))))
        if lo >= hi:
            continue
        prod = b1[lo:hi] * b1[lo + d:hi + d]
        low = max(0, min(cutoff, hi) - lo)  # 0-based i < cutoff, so index i + 1 <= cutoff
        prod_c_low += float(prod[:low].sum())
        prod_c_high += float(prod[low:].sum())
        counts = np.bincount(g[lo:hi] * span + g[lo + d:hi + d])  # pairs per (g(i), g(j))
        for key in np.nonzero(counts)[0].tolist():
            gi_, gj_ = divmod(key, span)
            joint_c += int(counts[key]) * window_prob(word, (0, gi_, d, d + gj_))
    return {
        "max_b": float(b1.max()),
        "sum_b": float(b1.sum()),
        "rare_sum_joint": low_pairs - prod_c_low + joint_c,
        "rare_sum_product": low_pairs + prod_c_high,
    }


def check_factorization(report, stages: dict, words: dict, rare_params) -> list[str]:
    """``check_conditions`` on the subshift oracle, uniform full 2-shift.

    Every stage has N = 2^(2n) terms, and its max_b, sum_b and rare sums
    equal ``factorization_oracle``'s to 1e-9; non-rare pairs have ratio 1.
    The stage oracle itself is probed too: cylinders at positions n or more
    apart are independent, so b of one index whose windows do not overlap is
    P(B)^2 and b of two far-apart such indices is P(B)^4, with P(B) = 2^-n.
    """
    faults = []
    got = tuple(s.n for s in report.stages)
    if got != tuple(words):
        return [f"stages {got}, expected {tuple(words)}"]
    for s in report.stages:
        N = 4**s.n
        if s.term_count != N:
            faults.append(f"n={s.n}: term_count {s.term_count} != 2^(2n) = {N}")
            continue
        threshold, cutoff = rare_params(s.n)
        if (s.threshold, s.cutoff) != (threshold, cutoff):
            faults.append(f"n={s.n}: rare params {(s.threshold, s.cutoff)} != {(threshold, cutoff)}")
            continue
        want = factorization_oracle(words[s.n], N, threshold, cutoff)
        for key, w in want.items():
            v = getattr(s, key)
            if not abs(v - w) <= 1e-9 * abs(w):
                faults.append(f"n={s.n}: {key} {v!r}, exact {w!r}")
        if s.zero_denominators or (s.ratio_band is not None
                                   and max(abs(r - 1.0) for r in s.ratio_band) > 1e-9):
            faults.append(f"n={s.n}: ratio band {s.ratio_band}, "
                          f"{s.zero_denominators} zero denominators; expected (1, 1), 0")
        stage = stages.get(s.n)
        if stage is None:
            faults.append(f"n={s.n}: oracle never built")
            continue
        i, j = N // 4, N // 2
        for idx, power in (((i,), 2), ((i, j), 4)):
            expect = 2.0 ** (-power * s.n)
            b = float(stage.b(idx))
            if not abs(b - expect) <= 1e-9 * expect:
                faults.append(f"n={s.n}: b{idx} = {b!r}, expected P(B)^{power} = {expect!r}")
    return faults


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_bernoulli_cli(tables: dict, lam: float, n_grid, replicates: int) -> list[str]:
    """Bernoulli CLI tables for the linear schedule with ell = 2.

    Sites l and 2l are distinct, so every b_l = p^2 = lam / n exactly.  The
    empirical pmf rows are compared with the exact rows of the same table,
    bin by bin, by ``count_gate`` (ALPHA per bin).
    """
    faults = []
    rows = read_csv(tables["pmf_vs_poisson"])
    for n in n_grid:
        exact = {int(r["k"]): float(r["model_pmf"]) for r in rows
                 if int(r["n"]) == n and r["source"] == "exact"}
        emp = {int(r["k"]): (float(r["model_pmf"]), int(r["sample_size"])) for r in rows
               if int(r["n"]) == n and r["source"] == "empirical"}
        if abs(sum(exact.values()) - 1.0) > 1e-9:
            faults.append(f"n={n}: exact pmf sums to {sum(exact.values())!r}")
        if replicates and (not emp or {s for _, s in emp.values()} != {replicates}):
            faults.append(f"n={n}: empirical rows missing or with the wrong sample size")
            continue
        for k, (f, _) in emp.items():
            mu = exact.get(k, 0.0) * replicates
            if abs(f * replicates - mu) > count_gate(mu):
                faults.append(f"n={n}, k={k}: empirical count {f * replicates:.0f} vs mean {mu:.1f}")
    faults += _check_b_rows(tables["sevastyanov_report"], {n: lam / n for n in n_grid},
                            {n: lam for n in n_grid}, "bernoulli", lam)
    return faults


def check_markov_cli(tables: dict, lam: float, n_grid, replicates: int) -> list[str]:
    """Markov CLI tables for ell = 1 with a stationary lifted chain.

    The pmf rows carry Poisson(lambda_n) with lambda_n = n mu(Gamma_n), so
    lambda_n = -ln(poisson_pmf at k = 0).  Started stationary, E S = lambda_n,
    each b_l = mu(Gamma_n) = lambda_n / n and sum_b = lambda_n.  The sample
    mean is gated at Z_GATE sample standard errors.
    """
    faults = []
    rows = read_csv(tables["pmf_vs_poisson"])
    max_b, sum_b = {}, {}
    for n in n_grid:
        mine = [r for r in rows if int(r["n"]) == n]
        zero = [r for r in mine if int(r["k"]) == 0]
        if not zero or any(int(r["sample_size"]) != replicates for r in mine):
            faults.append(f"n={n}: empirical rows missing or with the wrong sample size")
            continue
        lam_n = -math.log(float(zero[0]["poisson_pmf"]))
        ks = np.array([int(r["k"]) for r in mine])
        fs = np.array([float(r["model_pmf"]) for r in mine])
        if abs(fs.sum() - 1.0) > 1e-9:
            faults.append(f"n={n}: empirical pmf sums to {fs.sum()!r}")
        mean = float((ks * fs).sum())
        var = float((ks * ks * fs).sum()) - mean * mean
        se = math.sqrt(max(var, 1e-12) / replicates)
        if abs(mean - lam_n) > Z_GATE * se:
            faults.append(f"n={n}: sample mean {mean:.4f} vs lambda_n {lam_n:.4f} (se {se:.4f})")
        max_b[n], sum_b[n] = lam_n / n, lam_n
    faults += _check_b_rows(tables["sevastyanov_report"], max_b, sum_b, "markov", lam)
    return faults


def _check_b_rows(text: str, max_b: dict, sum_b: dict, model: str, lam: float):
    faults = []
    rows = read_csv(text)
    for n, want in max_b.items():
        got = {r["condition"]: float(r["value"]) for r in rows if r["n"] == str(n)}
        if "max_b" not in got or abs(got["max_b"] - want) > 1e-9 * want:
            faults.append(f"{model} n={n}: max_b {got.get('max_b')!r} != {want!r}")
        err = abs(sum_b[n] - lam)
        if "sum_b_error" not in got or abs(got["sum_b_error"] - err) > 1e-9:
            faults.append(f"{model} n={n}: sum_b_error {got.get('sum_b_error')!r} != {err!r}")
    return faults


def check_reference(name: str, got: bytes, want: bytes) -> list[str]:
    """Seed-free tables must be byte-identical to the stored reference."""
    if got == want:
        return []
    return [f"{name} differs from its reference ({len(got)} vs {len(want)} bytes)"]
