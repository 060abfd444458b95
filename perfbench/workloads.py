"""The benchmark workloads and the layer boundaries the traced run wraps.

A workload has a ``build`` step (inputs made from the workload seed; its
time is part of ``setup_s``) and a list of operations.  One pass runs every
operation once; each operation is one call into a package entry point with
its default arguments, timed, then checked.  Passes repeat until the run's
time is up: one caller, one call at a time (a closed loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import nonconv.bernoulli
import nonconv.cli
import nonconv.distributions
import nonconv.markov
import nonconv.sevastyanov
import nonconv.subshift
from nonconv.schedules import QSchedule, arithmetic_gap_schedule, logpow_cutoff, ratio_cutoff_index

from tracing import bound
from checks import (
    check_arrivals,
    check_bernoulli_cli,
    check_factorization,
    check_hitting,
    check_markov_cli,
    check_reference,
)

REFERENCE = Path(__file__).resolve().parent / "reference"

# Replicate counts: 20k arrival replicates make the n = 8 call mostly engine
# sampling and counting, beside the n = 10 call's fixed schedule and engine
# costs; 10k hitting replicates reach the same memory peak.
ARRIVALS = ((8, 20_000), (10, 1_000))  # (n, replicates)
HITTING_N, HITTING_REPLICATES, HITTING_LAM_CAP = 8, 10_000, 2.0
FACTORIZATION_GRID = (6, 8, 10)
CLI_BERNOULLI_REPLICATES = 10_000
CLI_MARKOV_REPLICATES = 5_000
BERNOULLI_GRID = (1024, 4096)
MARKOV_GRID = (100, 600)


@dataclass
class Op:
    """One timed entry-point call and the check of its output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    build: Callable[[int, Path], dict]
    ops: Callable[[dict], list[Op]]


def _derived(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


# ---------------------------------------------------------------------------
# Subshift workloads: uniform full 2-shift, arithmetic-gap schedule c=4,
# gamma=0.5, short-return-clear plain n-cylinder (the A4/A5/A6 setup)
# ---------------------------------------------------------------------------

def _subshift_inputs(seed: int, grid) -> dict:
    sub = nonconv.subshift
    measure = sub.uniform_measure(sub.full_shift(2))
    schedule = arithmetic_gap_schedule(2, 4.0, 0.5)
    targets = {}
    for n in grid:
        word = sub.sample_clear_word(measure, n, 0.25, seed=_derived(seed, n))
        targets[n] = sub.make_target(measure, word, n)
    return {"measure": measure, "schedule": schedule, "targets": targets,
            "sim_seed": _derived(seed, 0)}


def _ops_arrivals(inp):
    ops = []
    for n, reps in ARRIVALS:
        def call(n=n, reps=reps):
            return nonconv.subshift.simulate_nonconventional_batch(
                inp["measure"], inp["schedule"], inp["targets"][n], 1.0,
                inp["sim_seed"], reps,
            )

        def check(out, n=n, reps=reps):
            samples, N, lam_real = out
            return check_arrivals(samples, N, lam_real, n, reps)

        ops.append(Op(f"simulate_nonconventional_batch(n={n})", call, check))
    return ops


def _ops_hitting(inp):
    def call():
        return nonconv.subshift.hitting_time_batch(
            inp["measure"], inp["schedule"], inp["targets"][HITTING_N],
            inp["sim_seed"], HITTING_REPLICATES, lam_cap=HITTING_LAM_CAP,
        )

    def check(out):
        return check_hitting(out[0], out[1], HITTING_N, HITTING_LAM_CAP, HITTING_REPLICATES)

    return [Op(f"hitting_time_batch(n={HITTING_N})", call, check)]


def _rare_params(n):
    threshold = n + logpow_cutoff(n, 0.25)
    return threshold, ratio_cutoff_index(4.0, 0.5, 2.0 * threshold)


def _ops_factorization(inp):
    stages = {}

    def call():
        stages.clear()
        factory = nonconv.sevastyanov.subshift_model_oracle(
            inp["measure"], inp["schedule"], 1.0, inp["targets"].__getitem__
        )

        def model_oracle(n):
            stages[n] = factory(n)
            return stages[n]

        return nonconv.sevastyanov.check_conditions(
            model_oracle, inp["schedule"], 2, list(FACTORIZATION_GRID), _rare_params,
            seed=inp["sim_seed"],
        )

    words = {n: inp["targets"][n].blocks[0] for n in FACTORIZATION_GRID}

    def check(report):
        return check_factorization(report, stages, words, _rare_params)

    return [Op("check_conditions(subshift, n_grid=[6, 8, 10])", call, check)]


# One workload runs all three kinds of subshift call in each pass.  A pass
# of about 45 s (2-core VM) averages the machine's drift over more time than
# three short workloads would within the same total run time.
SUBSHIFT_GRID = (6, 8, 10)  # every target a call needs; all share the n = 8 one


def _build_subshift(seed, workdir):
    return _subshift_inputs(seed, SUBSHIFT_GRID)


def _ops_subshift(inp):
    return _ops_arrivals(inp) + _ops_hitting(inp) + _ops_factorization(inp)


# ---------------------------------------------------------------------------
# CLI workload: one Bernoulli and one Markov config through nonconv.cli.run
# ---------------------------------------------------------------------------

_BERNOULLI_CONFIG = """\
model: bernoulli
seed: {seed}
lambda: 1.0
n_grid: {grid}
replicates: {reps}
schedule: {{family: linear, ell: 2}}
outputs: [pmf_vs_poisson, tv_and_bounds, chen_stein_terms, sevastyanov_report]
"""

_MARKOV_CONFIG = """\
model: markov
seed: {seed}
lambda: 1.0
n_grid: {grid}
replicates: {reps}
schedule: {{family: linear, ell: 1}}
outputs: [pmf_vs_poisson, mixing_certificates, sevastyanov_report]
model_params:
  transition: [[0.7, 0.3], [0.1, 0.9]]
"""

# Tables that do not depend on the seed, with their stored references.
SEED_FREE = {
    "bernoulli": ("tv_and_bounds", "chen_stein_terms"),
    "markov": ("mixing_certificates",),
}


def _build_cli(seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for model, text, grid, reps in (
        ("bernoulli", _BERNOULLI_CONFIG, BERNOULLI_GRID, CLI_BERNOULLI_REPLICATES),
        ("markov", _MARKOV_CONFIG, MARKOV_GRID, CLI_MARKOV_REPLICATES),
    ):
        path = workdir / f"{model}.yaml"
        path.write_text(text.format(seed=_derived(seed, 0), grid=list(grid), reps=reps))
        configs[model] = (path, workdir / f"{model}_out")
    return {"configs": configs}


def _read_tables(manifest, out_dir: Path) -> dict:
    return {name: (out_dir / f).read_text() for name, f in manifest["tables"].items()}


def _ops_cli(inp):
    ops = []
    for model in ("bernoulli", "markov"):
        cfg, out_dir = inp["configs"][model]

        def call(cfg=cfg, out_dir=out_dir):
            return nonconv.cli.run(cfg, out_dir)

        def check(manifest, model=model, out_dir=out_dir):
            tables = _read_tables(manifest, out_dir)
            faults = []
            for name in SEED_FREE[model]:
                want = (REFERENCE / f"{model}_{name}.csv").read_bytes()
                faults += check_reference(name, (out_dir / f"{name}.csv").read_bytes(), want)
            if model == "bernoulli":
                faults += check_bernoulli_cli(tables, 1.0, BERNOULLI_GRID, CLI_BERNOULLI_REPLICATES)
            else:
                faults += check_markov_cli(tables, 1.0, MARKOV_GRID, CLI_MARKOV_REPLICATES)
            return faults

        ops.append(Op(f"cli.run({model})", call, check))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("subshift", _build_subshift, _ops_subshift),
        Workload("cli_bernoulli_markov", _build_cli, _ops_cli),
    )
}


# ---------------------------------------------------------------------------
# Layer boundaries for the traced run
# ---------------------------------------------------------------------------

def _arrival_steps(result, a):
    return {"markov.simulate_arrival_batch.steps":
            a["replicates"] * (a["schedule"].max_index(a["n"]) + 1)}


def _site_draws(result, a):
    return {"bernoulli.simulate_batch.site_draws":
            a["replicates"] * a["scheme"].needed_indices.size}


def _lift_states(result, a):
    return {"markov.word_lift.states": len(result[1])}


def _terms(result, a):
    return {"sevastyanov.terms": sum(s.term_count for s in result.stages)}


def _csv_bytes(result, a):
    out = Path(a["out_dir"])
    return {"cli.csv_bytes": sum((out / f).stat().st_size for f in result["tables"].values())}


# (owner, attribute, layer, counter).  A name is wrapped where the calling
# module looks it up, so that calls between modules pass through the wrapper;
# each call records one span named after its layer.
BOUNDARIES = [
    (QSchedule, "evaluate", "schedules.evaluate", None),
    (nonconv.markov, "word_lift", "markov.word_lift", _lift_states),
    (nonconv.subshift, "word_lift", "markov.word_lift", _lift_states),
    (nonconv.markov, "exact_b", "markov.exact_b", None),
    (nonconv.markov, "simulate_arrival_batch", "markov.simulate_arrival_batch", _arrival_steps),
    (nonconv.subshift, "simulate_nonconventional_batch",
     "subshift.simulate_nonconventional_batch", None),
    (nonconv.subshift, "hitting_time_batch", "subshift.hitting_time_batch", None),
    (nonconv.subshift, "sample_clear_word", "subshift.sample_clear_word", None),
    (nonconv.subshift, "make_target", "subshift.make_target", None),
    (nonconv.sevastyanov, "check_conditions", "sevastyanov.check_conditions", _terms),
    (nonconv.bernoulli, "simulate_batch", "bernoulli.simulate_batch", _site_draws),
    (nonconv.bernoulli, "exact_distribution", "bernoulli.exact_distribution", None),
    (nonconv.distributions, "tv_distance", "distributions", None),
    (nonconv.bernoulli, "tv_distance", "distributions", None),
    (nonconv.cli, "tv_distance", "distributions", None),
    (nonconv.distributions, "empirical_distribution", "distributions", None),
    (nonconv.cli, "empirical_distribution", "distributions", None),
    (nonconv.distributions.PoissonLaw, "distribution", "distributions", None),
    (nonconv.cli, "run", "cli.run", _csv_bytes),
]

LAYERS = list(dict.fromkeys(b[2] for b in BOUNDARIES))
COUNTERS = [
    "markov.word_lift.states",
    "markov.simulate_arrival_batch.steps",
    "sevastyanov.terms",
    "bernoulli.simulate_batch.site_draws",
    "cli.csv_bytes",
]


def boundary_objects():
    """Every object currently bound at a wrapped boundary."""
    return [bound(owner, attr) for owner, attr, *_ in BOUNDARIES]
