"""Config-driven experiment front end.

``nonconv run <config.yaml> --out <dir>`` reads a declarative YAML config,
runs the requested oracles / simulations, and writes one CSV per requested
table plus a JSON manifest.  Identical (config, seed) runs produce
byte-identical outputs.

Config grammar (YAML mapping); ``validate_config`` checks every rule below
and lists each fault it finds.  A number is an int or a finite float, never
a boolean.  A key not named below, at the top level or in a section, is a
fault, and so is a schedule that its family refuses to build (ell < 1,
degree < 1, gamma < -1, table rows that are not strictly increasing with
q_1(l) >= l).
Every section but schedule is optional and may be null, which reads as empty.

  model:       bernoulli | markov | subshift
  seed:        integer >= 0, required (no wall-clock default)
  lambda:      positive number (default 1.0); for bernoulli, below every n
  n_grid:      nonempty list of positive integers, required
  replicates:  integer >= 0 (default 0; 0 = exact-only tables, and
               hitting_time_survival needs replicates > 0)
  schedule:    {family: linear|arithmetic_gap|polynomial|exponential_gap|table,
                ell: int (not for table), c: num and gamma: num >= -1
                (arithmetic_gap), degree: int (polynomial),
                rows: (table) nonempty list, or mapping from integer l >= 1,
                of equal-length nonempty lists of integers}
  outputs:     nonempty list of table names defined for the model
               (see `nonconv list-tables`)
  budgets:     {enumeration: int > 0 (default 200000), the factorization
                checker's most index tuples enumerated in exact mode}
  model_params: mapping with no keys but these (optional for bernoulli)
    markov:    {transition: [[..]] square, entries >= 0, rows summing to 1
                (required), lift_tolerance: num > 0 (default 0.2, but the
                verdict gates sum_b_error at 0.05, so a pass needs <= 0.05),
                max_lift: int >= 1, the longest target word (default 12)}
    subshift:  {adjacency: [[..]] square 0-1 ints, no all-zero row or column
                (default [[1, 1], [1, 1]], the full 2-shift),
                transition: [[..]] as for markov, positive exactly on the
                adjacency's edges (default uniform on edges),
                omega_star: nonempty list of ints >= 0 or omega_seed: int >= 0
                (one required), s: num >= 0 (default 0.0), eps: num > 0
                (default 0.25)}
  sevastyanov: {r: int >= 2 (default 2), rare_params: auto | [threshold,
                cutoff] of ints >= 0 (default auto), pair_samples: int > 0
                (default 512), ratio_samples: int > 0 (default 512)}
  hitting:     {lambdas: nonempty list of numbers > 0 (default [0.5, 1.0, 2.0])}

Faults the grammar cannot see (a chain that fails certification, an omega_star
shorter than n, a Bernoulli component over the exact law's cell budget, a
schedule value past float range) raise a ``NonconvError`` from the run.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .distributions import PoissonLaw, empirical_distribution
from .distributions import tv_distance  # noqa: F401  the benchmark's traced run wraps this name
from .errors import ConfigError, NonconvError, ScheduleError, ValidationError
from .markov import ROW_SUM_TOL
from .rng import STREAM_HITTING, derive_seed
from .schedules import QSchedule, SCHEDULE_FAMILIES, logpow_cutoff, ratio_cutoff_index
from .sevastyanov import DEFAULT_ENUMERATION_BUDGET

_MODELS = ("bernoulli", "markov", "subshift")


# ---------------------------------------------------------------------------
# Config grammar, loading and validation
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    text = Path(path).read_text()
    doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise ValidationError("config must be a YAML mapping")
    doc["_raw_bytes"] = text.encode()
    return doc


def _is_int(v) -> bool:
    # bool subclasses int, but True is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # finite, and within float range: the run converts numbers to float
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_matrix(v) -> bool:
    """A nonempty square list of lists of numbers."""
    return (
        isinstance(v, list) and bool(v)
        and all(isinstance(row, list) and len(row) == len(v) for row in v)
        and all(_is_number(x) for row in v for x in row)
    )


def _is_table(rows) -> bool:
    if isinstance(rows, dict):
        if not all(_is_int(l) and l >= 1 for l in rows):
            return False
        rows = list(rows.values())
    return (
        isinstance(rows, list) and bool(rows)
        and all(isinstance(r, list) and r and len(r) == len(rows[0]) for r in rows)
        and all(_is_int(v) for r in rows for v in r)
    )


# the optional top-level keys and their defaults
_DEFAULTS = {"lambda": 1.0, "replicates": 0}
# the optional mapping sections: section -> key -> (check, what a fault says
# the value must be, default); a None default marks a key that a model
# requires or that has no value when absent
_SECTIONS = {
    "budgets": {
        "enumeration": (
            lambda v: _is_int(v) and v > 0, "a positive integer", DEFAULT_ENUMERATION_BUDGET,
        ),
    },
    "model_params": {
        "transition": (
            lambda v: _is_matrix(v) and min(min(row) for row in v) >= 0
            and np.max(np.abs(np.asarray(v, dtype=float).sum(axis=1) - 1.0)) <= ROW_SUM_TOL,
            "a square matrix of numbers >= 0 whose rows sum to 1",
            None,  # markov requires it; subshift reads None as uniform on the edges
        ),
        "lift_tolerance": (lambda v: _is_number(v) and v > 0, "a positive number", 0.2),
        "max_lift": (lambda v: _is_int(v) and v >= 1, "an integer >= 1", 12),
        "adjacency": (
            lambda v: _is_matrix(v) and all(_is_int(x) and x in (0, 1) for row in v for x in row)
            and all(map(any, v)) and all(map(any, zip(*v))),
            "a square 0-1 integer matrix with no all-zero row or column",
            [[1, 1], [1, 1]],  # the full 2-shift
        ),
        "omega_star": (
            lambda v: isinstance(v, list) and bool(v) and all(_is_int(a) and a >= 0 for a in v),
            "a nonempty list of integer symbols >= 0",
            None,
        ),
        "omega_seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0", None),
        "s": (lambda v: _is_number(v) and v >= 0, "a number >= 0", 0.0),
        "eps": (lambda v: _is_number(v) and v > 0, "a positive number", 0.25),
    },
    "sevastyanov": {
        "r": (lambda v: _is_int(v) and v >= 2, "an integer >= 2", 2),
        "rare_params": (
            lambda v: v == "auto" or (
                isinstance(v, (list, tuple)) and len(v) == 2
                and all(_is_int(x) and x >= 0 for x in v)
            ),
            "auto or [threshold, cutoff] of integers >= 0",
            "auto",
        ),
        "pair_samples": (lambda v: _is_int(v) and v > 0, "a positive integer", 512),
        "ratio_samples": (lambda v: _is_int(v) and v > 0, "a positive integer", 512),
    },
    "hitting": {
        "lambdas": (
            lambda v: isinstance(v, list) and bool(v) and all(_is_number(x) and x > 0 for x in v),
            "a nonempty list of positive numbers",
            [0.5, 1.0, 2.0],
        ),
    },
}
# schedule family -> the keys of its spec after family: its constructor's
# parameters, in order
_FAMILIES = {
    fam: tuple(inspect.signature(build).parameters) for fam, build in SCHEDULE_FAMILIES.items()
}
_KEYS = {"model", "seed", "n_grid", "schedule", "outputs", *_DEFAULTS, *_SECTIONS,
         "_raw_bytes"}  # the loader adds _raw_bytes


def _filled(section: str, value) -> dict:
    """The section's mapping ``value`` (or None) with its defaults filled in."""
    return {**{key: spec[2] for key, spec in _SECTIONS[section].items()}, **(value or {})}


def _with_defaults(cfg: dict) -> dict:
    """A valid config with every default of the grammar filled in."""
    return {**_DEFAULTS, **cfg, **{s: _filled(s, cfg.get(s)) for s in _SECTIONS}}


def _section_faults(section: str, value) -> list[str]:
    """The unknown keys and bad values of one optional section, in key order."""
    if value is None:
        return []
    if not isinstance(value, dict):
        return [f"{section} must be a mapping, got {value!r}"]
    keys, faults = _SECTIONS[section], []
    noun, field = f"{section} key", f"{section}."
    if section == "budgets":  # budget faults have their own wording
        noun, field = "budget", "budget "
    for key, val in value.items():
        if key not in keys:
            faults.append(f"unknown {noun} {key!r}")
        elif not keys[key][0](val):
            faults.append(f"{field}{key} must be {keys[key][1]}, got {val!r}")
    return faults


def _model_faults(model, mp: dict) -> list[str]:
    """The model_params rules that tie a key to the model or to another key."""
    faults = []
    if model == "markov" and "transition" not in mp:
        faults.append("markov model requires model_params.transition")
    if model == "subshift":
        if "omega_star" not in mp and "omega_seed" not in mp:
            faults.append("subshift model requires model_params.omega_star or omega_seed")
        checks, full = _SECTIONS["model_params"], _filled("model_params", mp)
        Q, A = full["transition"], full["adjacency"]
        if checks["transition"][0](Q) and checks["adjacency"][0](A) and (
            len(Q) != len(A)
            or any((q > 0) != (a == 1) for qr, ar in zip(Q, A) for q, a in zip(qr, ar))
        ):
            faults.append(
                "model_params.transition must be positive exactly on the adjacency's edges"
            )
    return faults


def validate_config(cfg: dict) -> list[str]:
    """Return every fault found (empty list = valid)."""
    faults = []
    model = cfg.get("model")
    if model not in _MODELS:
        faults.append(f"model must be bernoulli, markov or subshift, got {model!r}")
    if "seed" not in cfg:
        faults.append("seed is mandatory (no wall-clock default)")
    elif not _is_int(cfg["seed"]):
        faults.append(f"seed must be an integer, got {cfg['seed']!r}")
    elif cfg["seed"] < 0:
        faults.append(f"seed must be >= 0, got {cfg['seed']!r}")
    lam = cfg.get("lambda", _DEFAULTS["lambda"])
    if not _is_number(lam) or lam <= 0:
        faults.append(f"lambda must be positive, got {lam!r}")
    grid = cfg.get("n_grid")
    if not isinstance(grid, list) or not grid or not all(
        _is_int(v) and v >= 1 for v in grid
    ):
        faults.append("n_grid must be a nonempty list of positive integers")
    elif model == "bernoulli" and _is_number(lam) and lam >= min(grid):
        faults.append(
            f"lambda must be below every n in n_grid for the bernoulli model "
            f"(p_n = (lambda/n)^(1/ell) < 1), got lambda={lam!r} and n={min(grid)}"
        )
    reps = cfg.get("replicates", _DEFAULTS["replicates"])
    if not _is_int(reps) or reps < 0:
        faults.append(f"replicates must be an integer >= 0, got {reps!r}")
    outputs = cfg.get("outputs")
    if not isinstance(outputs, list) or not outputs:
        faults.append("outputs must be a nonempty list of table names")
    else:
        for name in outputs:
            if not isinstance(name, str) or name not in TABLES:
                faults.append(f"unknown table {name!r}")
            elif model in _MODELS and model not in TABLES[name][1]:
                faults.append(f"table {name!r} is not defined for model {model!r}")
            elif name == "hitting_time_survival" and _is_int(reps) and reps == 0:
                faults.append("hitting_time_survival requires replicates > 0")
    sched = cfg.get("schedule")
    before = len(faults)
    if not isinstance(sched, dict):
        faults.append("schedule section is required")
    else:
        fam = sched.get("family")
        params = _FAMILIES.get(fam) if isinstance(fam, str) else None
        if params is None:
            faults.append(f"unknown schedule family {fam!r}")
        if fam == "table" and not _is_table(sched.get("rows")):
            faults.append(
                "table schedule requires rows: a nonempty list, or a mapping from "
                "integer l >= 1, of equal-length nonempty lists of integers"
            )
        if params and "ell" in params and not _is_int(sched.get("ell")):
            faults.append("schedule.ell must be an integer")
        if fam == "arithmetic_gap" and not all(
            _is_number(sched.get(k)) for k in ("c", "gamma")
        ):
            faults.append("arithmetic_gap schedule requires numeric c and gamma")
        if fam == "polynomial" and not _is_int(sched.get("degree")):
            faults.append("polynomial schedule requires integer degree")
        typed = len(faults) == before
        if params:
            faults += [f"unknown schedule key {k!r}" for k in sched if k not in ("family", *params)]
        if typed:
            try:
                build_schedule(sched)
            except ScheduleError as e:
                faults.append(f"schedule: {e}")
    for section in _SECTIONS:
        value = cfg.get(section)
        faults += _section_faults(section, value)
        if section == "model_params" and (value is None or isinstance(value, dict)):
            faults += _model_faults(model, value or {})
    faults += [f"unknown key {k!r}" for k in cfg if k not in _KEYS]
    return faults


def build_schedule(spec: dict) -> QSchedule:
    fam = spec["family"]
    build = SCHEDULE_FAMILIES[fam]
    # c and gamma reach the schedule's name, and so its faults, as floats
    return build(*(float(spec[k]) if k in ("c", "gamma") else spec[k] for k in _FAMILIES[fam]))


# ---------------------------------------------------------------------------
# Model contexts
# ---------------------------------------------------------------------------

class _RunContext:
    """A valid config with its defaults filled in, plus the model objects
    that tables share, each built on first use."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.model = cfg["model"]
        self.seed = cfg["seed"]
        self.lam = float(cfg["lambda"])
        self.n_grid = sorted(cfg["n_grid"])
        self.replicates = cfg["replicates"]
        self.schedule = build_schedule(cfg["schedule"])
        self.model_params = cfg["model_params"]
        self._cache: dict = {}

    def _once(self, key, build):
        """``build()`` on the first request for ``key``; its result after."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- bernoulli --------------------------------------------------------

    def bernoulli_scheme(self, n: int):
        from .bernoulli import BernoulliScheme

        return self._once(("scheme", n), lambda: BernoulliScheme.from_lambda(
            n, self.schedule.ell, self.lam, self.schedule
        ))

    def bernoulli_exact(self, n: int):
        """The exact law of S_n, computed once for every table that needs it."""
        from .bernoulli import exact_distribution

        return self._once(("exact", n), lambda: exact_distribution(self.bernoulli_scheme(n)))

    # -- markov ---------------------------------------------------------

    def markov_chain(self):
        from .markov import FiniteMarkovChain

        return self._once("chain", lambda: FiniteMarkovChain(self.model_params["transition"]))

    def markov_targets(self):
        from .markov import choose_target_sets

        mp = self.model_params
        return self._once("targets", lambda: choose_target_sets(
            self.markov_chain(),
            self.schedule.ell,
            self.lam,
            self.n_grid,
            tolerance=float(mp["lift_tolerance"]),
            max_lift=int(mp["max_lift"]),
        ))

    # -- subshift ---------------------------------------------------------

    def subshift_measure(self):
        from .subshift import MarkovGibbsMeasure, SubshiftSFT, uniform_measure

        def build():
            sft = SubshiftSFT.from_matrix(self.model_params["adjacency"])
            Q = self.model_params["transition"]
            return uniform_measure(sft) if Q is None else MarkovGibbsMeasure(sft, Q)

        return self._once("measure", build)

    def subshift_target(self, n: int):
        from .subshift import make_target, sample_clear_word

        def build():
            mp, measure = self.model_params, self.subshift_measure()
            eps = float(mp["eps"])
            if mp["omega_star"] is None:
                omega = sample_clear_word(measure, n, eps, int(mp["omega_seed"]) + n)
            else:
                omega = tuple(int(v) for v in mp["omega_star"])
            return make_target(measure, omega, n=n, s=float(mp["s"]), eps=eps)

        return self._once(("target", n), build)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if math.isnan(v):
            return "nan"
        return format(float(v), ".12g")
    return str(v)


def _pmf_rows(n, dist, lam, source):
    poisson = PoissonLaw(lam)
    kmax = dist.max_count()
    rows = []
    for k in range(kmax + 1):
        rows.append(
            (n, k, dist.prob(k), poisson.pmf(k), source, dist.sample_size or 0)
        )
    return rows


def table_pmf_vs_poisson(ctx: _RunContext):
    header = ("n", "k", "model_pmf", "poisson_pmf", "source", "sample_size")
    rows = []
    if ctx.model == "bernoulli":
        from .bernoulli import simulate_batch

        for n in ctx.n_grid:
            rows += _pmf_rows(n, ctx.bernoulli_exact(n), ctx.lam, "exact")
            if ctx.replicates > 0:
                emp = empirical_distribution(
                    simulate_batch(ctx.bernoulli_scheme(n), ctx.seed, ctx.replicates)
                )
                rows += _pmf_rows(n, emp, ctx.lam, "empirical")
    elif ctx.model == "markov":
        from .markov import simulate_arrival_batch

        targets = ctx.markov_targets()
        for n in ctx.n_grid:
            if ctx.replicates > 0:
                chain, accept = targets.entries[n].chain
                samples = simulate_arrival_batch(
                    chain, ctx.schedule, accept, n, ctx.seed, ctx.replicates
                )
                emp = empirical_distribution(samples)
                rows += _pmf_rows(n, emp, targets.entries[n].realized_lambda, "empirical")
    else:
        from .subshift import simulate_nonconventional_batch

        for n in ctx.n_grid:
            target = ctx.subshift_target(n)
            if ctx.replicates > 0:
                samples, _, lam_n = simulate_nonconventional_batch(
                    ctx.subshift_measure(), ctx.schedule, target, ctx.lam,
                    ctx.seed, ctx.replicates,
                )
                emp = empirical_distribution(samples)
                rows += _pmf_rows(n, emp, lam_n, "empirical")
    return header, rows


def table_tv_and_bounds(ctx: _RunContext):
    from .bernoulli import verify_poisson_bound

    header = ("n", "ell", "p_n", "lambda", "lambda_n", "tv_exact", "bound", "holds")
    rows = []
    for n in ctx.n_grid:
        rep = verify_poisson_bound(ctx.bernoulli_scheme(n), ctx.lam, exact=ctx.bernoulli_exact(n))
        rows.append(
            (rep.n, rep.ell, rep.p, rep.lam, rep.lambda_n, rep.tv_exact, rep.bound, rep.holds)
        )
    return header, rows


def table_chen_stein_terms(ctx: _RunContext):
    from .bernoulli import chen_stein_terms

    header = ("n", "ell", "p_n", "I1", "I2", "I3", "bound")
    rows = []
    for n in ctx.n_grid:
        scheme = ctx.bernoulli_scheme(n)
        t = chen_stein_terms(scheme)
        rows.append((n, scheme.ell, scheme.p, t.I1, t.I2, t.I3, t.bound))
    return header, rows


def _auto_rare_params(ctx: _RunContext):
    if ctx.model == "bernoulli":
        return (0, 0)
    if ctx.model == "markov":
        return lambda n: (max(1, int(math.log(n))), max(1, int(math.log(n))))
    eps = float(ctx.model_params["eps"])
    gp = ctx.schedule.gap_params or (1.0, 0.5)

    def params(n):
        a = logpow_cutoff(n, eps)
        return (n + a, ratio_cutoff_index(gp[0], gp[1], 2.0 * (n + a)))

    return params


def table_sevastyanov_report(ctx: _RunContext):
    from .sevastyanov import (
        Tolerances,
        bernoulli_model_oracle,
        check_conditions,
        pattern_chain_oracle,
        report_rows,
        subshift_model_oracle,
        poisson_limit_verdict,
    )

    sv = ctx.cfg["sevastyanov"]
    rp = sv["rare_params"]
    rare_params = _auto_rare_params(ctx) if rp == "auto" else tuple(rp)
    if ctx.model == "bernoulli":
        factory = bernoulli_model_oracle(ctx.schedule.ell, ctx.lam, ctx.schedule)
    elif ctx.model == "markov":
        targets = ctx.markov_targets()
        factory = pattern_chain_oracle(ctx.schedule, lambda n: (*targets.entries[n].chain, n))
    else:
        factory = subshift_model_oracle(
            ctx.subshift_measure(), ctx.schedule, ctx.lam, ctx.subshift_target
        )
    report = check_conditions(
        factory, ctx.schedule, int(sv["r"]), ctx.n_grid, rare_params,
        budget=ctx.cfg["budgets"]["enumeration"],
        pair_samples=int(sv["pair_samples"]),
        ratio_samples=int(sv["ratio_samples"]),
        seed=ctx.seed,
    )
    verdict = poisson_limit_verdict(report, ctx.lam)
    header = ("n", "condition", "value", "envelope", "margin")
    rows = list(report_rows(report, ctx.lam, Tolerances()))
    rows.append(
        (max(ctx.n_grid), "verdict", 1.0 if verdict.passed else 0.0, "",
         min(verdict.margins.values()))
    )
    return header, rows


def table_mixing_certificates(ctx: _RunContext):
    header = ("quantity", "value")
    rows = []
    if ctx.model == "markov":
        from .markov import mixing_rate

        chain = ctx.markov_chain()
        cert = mixing_rate(chain)
        rows += [
            ("doeblin_n0", chain.n0),
            ("doeblin_C", chain.C),
            ("mixing_C1", cert.C1),
            ("mixing_beta", cert.beta),
        ]
    else:
        from .subshift import gibbs_constant, psi_mixing_check

        measure = ctx.subshift_measure()
        cert = psi_mixing_check(measure, gap_max=16)
        rows += [
            ("psi_C", cert.C),
            ("psi_beta", cert.beta),
            ("psi_spectral_beta", cert.spectral_beta),
            ("gibbs_constant", gibbs_constant(measure, min(max(ctx.n_grid), 8))),
        ]
    return header, rows


def table_hitting_time_survival(ctx: _RunContext):
    """Survival P(no arrival among terms l <= N(lambda)) per n and lambda.

    One ``hitting_time_batch`` per n, censored at the largest lambda, gives
    each replicate's first arriving term; a replicate survives lambda when
    it is censored or that term exceeds N(lambda) = ``replicate_count``.
    """
    from .subshift import hitting_time_batch, replicate_count

    lambdas = [float(v) for v in ctx.cfg["hitting"]["lambdas"]]
    header = ("n", "lambda", "survival", "exp_neg_lambda", "std_error", "replicates")
    rows = []
    ell = ctx.schedule.ell
    for n in ctx.n_grid:
        target = ctx.subshift_target(n)
        scaled, censored = hitting_time_batch(
            ctx.subshift_measure(), ctx.schedule, target,
            derive_seed(ctx.seed, STREAM_HITTING, n), ctx.replicates, lam_cap=max(lambdas),
        )
        # scaled = first * P(B)^ell, so the term is recovered exactly
        first = np.rint(scaled / target.prob**ell).astype(np.int64)
        for lam in lambdas:
            surv = float((censored | (first > replicate_count(target, ell, lam))).mean())
            limit = math.exp(-lam)
            se = math.sqrt(limit * (1.0 - limit) / ctx.replicates)
            rows.append((n, lam, surv, limit, se, ctx.replicates))
    return header, rows


# table name -> (function of a _RunContext, the models it is defined for)
TABLES = {
    "pmf_vs_poisson": (table_pmf_vs_poisson, _MODELS),
    "tv_and_bounds": (table_tv_and_bounds, ("bernoulli",)),
    "chen_stein_terms": (table_chen_stein_terms, ("bernoulli",)),
    "sevastyanov_report": (table_sevastyanov_report, _MODELS),
    "mixing_certificates": (table_mixing_certificates, ("markov", "subshift")),
    "hitting_time_survival": (table_hitting_time_survival, ("subshift",)),
}


# ---------------------------------------------------------------------------
# Run / output plumbing
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            s = _fmt(v)
            if any(ch in s for ch in ',"\n'):
                s = '"' + s.replace('"', '""') + '"'
            cells.append(s)
        lines.append(",".join(cells))
    path.write_text("\r\n".join(lines) + "\r\n")


def run(config_path, out_dir) -> dict:
    cfg = load_config(config_path)
    faults = validate_config(cfg)
    if faults:
        raise ConfigError(faults)
    ctx = _RunContext(_with_defaults(cfg))
    # every table before the first write: a run that raises leaves no output
    results = {name: TABLES[name][0](ctx) for name in cfg["outputs"]}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {}
    for name, (header, rows) in results.items():
        tables[name] = f"{name}.csv"
        _write_csv(out / tables[name], header, rows)
    manifest = {
        "config_hash": hashlib.sha256(cfg["_raw_bytes"]).hexdigest(),
        "seed": ctx.seed,
        "tables": tables,
        "versions": {
            "nonconv": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _one_line(e: Exception) -> str:
    """An error as one line: a YAML syntax error is its problem and where."""
    if isinstance(e, yaml.MarkedYAMLError) and e.problem_mark is not None:
        mark = e.problem_mark
        return f"YAML: {e.problem} at line {mark.line + 1}, column {mark.column + 1}"
    return str(e)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonconv",
        description="Simulation and verification experiments for nonconventional arrival counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config and write result tables")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_val = sub.add_parser("validate", help="validate a config, listing every fault")
    p_val.add_argument("config")
    sub.add_parser("list-tables", help="list available tables and their models")
    args = parser.parse_args(argv)

    if args.command == "list-tables":
        for name, (_, models) in TABLES.items():
            print(f"{name}: {', '.join(models)}")
        return 0
    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except (OSError, yaml.YAMLError, ValidationError) as e:
            print(f"error: {_one_line(e)}", file=sys.stderr)
            return 1
        faults = validate_config(cfg)
        if faults:
            for f in faults:
                print(f"fault: {f}", file=sys.stderr)
            return 1
        print("ok")
        return 0
    try:
        manifest = run(args.config, args.out)
    except ConfigError as e:
        for f in e.faults:
            print(f"fault: {f}", file=sys.stderr)
        return 1
    except (OSError, yaml.YAMLError, NonconvError) as e:
        print(f"error: {_one_line(e)}", file=sys.stderr)
        return 1
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
