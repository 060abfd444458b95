"""Config validation, table emission, manifests, and reproducibility."""

import csv
import hashlib
import inspect
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nonconv.cli
import nonconv.subshift
from nonconv.cli import TABLES, load_config, main, run, validate_config
from nonconv.errors import ConfigError, NonconvError

BERNOULLI_CFG = """\
model: bernoulli
seed: 7
lambda: 1.0
n_grid: [8, 12]
replicates: 2000
schedule: {family: linear, ell: 2}
outputs: [pmf_vs_poisson, tv_and_bounds, chen_stein_terms]
"""

MARKOV_CFG = """\
model: markov
seed: 3
lambda: 1.0
n_grid: [8, 16]
replicates: 1000
schedule: {family: linear, ell: 1}
outputs: [pmf_vs_poisson, mixing_certificates, sevastyanov_report]
model_params:
  transition: [[0.7, 0.3], [0.1, 0.9]]
sevastyanov: {r: 2, rare_params: [0, 1]}
"""

SUBSHIFT_CFG = """\
model: subshift
seed: 5
lambda: 1.0
n_grid: [4]
replicates: 1000
schedule: {family: linear, ell: 2}
outputs: [pmf_vs_poisson, mixing_certificates, hitting_time_survival]
model_params:
  omega_seed: 11
hitting: {lambdas: [0.5, 1.0]}
"""


_P = [[0.7, 0.3], [0.1, 0.9]]


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _hash_dir(out: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
    }


def test_validate_accepts_good_config(tmp_path):
    cfg = load_config(_write(tmp_path, BERNOULLI_CFG))
    assert validate_config(cfg) == []


def test_validate_reports_all_faults(tmp_path):
    bad = """\
model: nosuch
lambda: -2
n_grid: []
replicates: -1
schedule: {family: mystery}
outputs: [nosuchtable]
"""
    cfg = load_config(_write(tmp_path, bad))
    faults = validate_config(cfg)
    assert len(faults) >= 6
    joined = "\n".join(faults)
    assert "seed" in joined and "lambda" in joined and "n_grid" in joined
    assert "nosuchtable" in joined and "mystery" in joined


def test_validate_rejects_booleans_as_numbers():
    # bool subclasses int; YAML true/false must not pass as a count or a rate
    base = {
        "model": "bernoulli",
        "seed": True,
        "lambda": True,
        "n_grid": [8, True],
        "replicates": False,
        "outputs": ["tv_and_bounds"],
        "budgets": {"enumeration": True, "component_cap": False},
    }
    gap = {**base, "schedule": {"family": "arithmetic_gap", "ell": True, "c": True, "gamma": 0.5}}
    poly = {**base, "schedule": {"family": "polynomial", "ell": 2, "degree": True}}
    shared = [
        "seed must be an integer, got True",
        "lambda must be positive, got True",
        "n_grid must be a nonempty list of positive integers",
        "replicates must be an integer >= 0, got False",
    ]
    budgets = [
        "budget enumeration must be a positive integer, got True",
        "unknown budget 'component_cap'",  # the exact law has one cell budget, not a key
    ]
    assert validate_config(gap) == shared + [
        "schedule.ell must be an integer",
        "arithmetic_gap schedule requires numeric c and gamma",
    ] + budgets
    assert validate_config(poly) == shared + [
        "polynomial schedule requires integer degree",
    ] + budgets


@pytest.mark.parametrize(
    "section, value, fault",
    [
        ("sevastyanov", [2, [0, 1]], "sevastyanov must be a mapping"),
        ("sevastyanov", {"r": 1}, "sevastyanov.r must be an integer >= 2"),
        ("sevastyanov", {"r": True}, "sevastyanov.r must be an integer >= 2"),
        ("sevastyanov", {"r": 2.0}, "sevastyanov.r must be an integer >= 2"),
        ("sevastyanov", {"rare_params": "sometimes"}, "sevastyanov.rare_params must be auto"),
        ("sevastyanov", {"rare_params": [3]}, "sevastyanov.rare_params must be auto"),
        ("sevastyanov", {"rare_params": [0, -1]}, "sevastyanov.rare_params must be auto"),
        ("sevastyanov", {"rare_params": [True, 1]}, "sevastyanov.rare_params must be auto"),
        ("sevastyanov", {"rare_params": [0.5, 1]}, "sevastyanov.rare_params must be auto"),
        ("sevastyanov", {"pair_samples": 0}, "sevastyanov.pair_samples must be a positive integer"),
        ("sevastyanov", {"pair_samples": True}, "sevastyanov.pair_samples must be a positive integer"),
        ("sevastyanov", {"ratio_samples": "many"}, "sevastyanov.ratio_samples must be a positive integer"),
        ("hitting", [0.5, 1.0], "hitting must be a mapping"),
        ("hitting", {"lambdas": []}, "hitting.lambdas must be a nonempty list"),
        ("hitting", {"lambdas": None}, "hitting.lambdas must be a nonempty list"),
        ("hitting", {"lambdas": 1.0}, "hitting.lambdas must be a nonempty list"),
        ("hitting", {"lambdas": [0.5, -1.0]}, "hitting.lambdas must be a nonempty list"),
        ("hitting", {"lambdas": [True]}, "hitting.lambdas must be a nonempty list"),
        ("model_params", [[0.7, 0.3], [0.1, 0.9]], "model_params must be a mapping"),
        ("model_params", 3, "model_params must be a mapping"),
        ("model_params", {"transition": _P, "lift_tolerance": "abc"},
         "model_params.lift_tolerance must be a positive number"),
        ("model_params", {"transition": _P, "lift_tolerance": 0},
         "model_params.lift_tolerance must be a positive number"),
        ("model_params", {"transition": _P, "max_lift": 0}, "model_params.max_lift must be an integer >= 1"),
        ("model_params", {"transition": _P, "max_lift": 2.5}, "model_params.max_lift must be an integer >= 1"),
        ("model_params", {"transition": _P, "s": -1.0}, "model_params.s must be a number >= 0"),
        ("model_params", {"transition": _P, "s": "x"}, "model_params.s must be a number >= 0"),
        ("model_params", {"transition": _P, "eps": "x"}, "model_params.eps must be a positive number"),
        ("model_params", {"transition": _P, "eps": 0}, "model_params.eps must be a positive number"),
        ("model_params", {"transition": _P, "omega_seed": -3}, "model_params.omega_seed must be an integer >= 0"),
        ("model_params", {"transition": _P, "omega_seed": "11"}, "model_params.omega_seed must be an integer >= 0"),
        ("model_params", {"transition": _P, "omega_star": [0, "1"]},
         "model_params.omega_star must be a nonempty list of integer symbols >= 0"),
        ("model_params", {"transition": _P, "omega_star": []},
         "model_params.omega_star must be a nonempty list of integer symbols >= 0"),
        ("model_params", {"transition": [[0.7, 0.3], [0.1]]}, "model_params.transition must be a square matrix"),
        ("model_params", {"transition": [[0.7, 0.2], [0.1, 0.9]]}, "model_params.transition must be a square matrix"),
        ("model_params", {"transition": "P"}, "model_params.transition must be a square matrix"),
        ("model_params", {"transition": _P, "adjacency": [[1, 2], [1, 0]]},
         "model_params.adjacency must be a square 0-1 integer matrix"),
        ("model_params", {"transition": _P, "adjacency": [[0, 0], [1, 1]]},
         "model_params.adjacency must be a square 0-1 integer matrix"),
        ("model_params", {"transition": _P, "initial": [0.5, 0.5]}, "unknown model_params key 'initial'"),
        ("replicates", 0, "hitting_time_survival requires replicates > 0"),
        # misspelt keys
        ("replicate", 100, "unknown key 'replicate'"),
        ("schedule", {"family": "linear", "ell": 1, "degre": 3}, "unknown schedule key 'degre'"),
        ("schedule", {"family": "table", "ell": 1, "rows": [[1]]}, "unknown schedule key 'ell'"),
        ("sevastyanov", {"rare_param": [1, 2]}, "unknown sevastyanov key 'rare_param'"),
        ("hitting", {"lambda": [1]}, "unknown hitting key 'lambda'"),
        # schedules that pass the type checks but that their family refuses
        ("schedule", {"family": "linear", "ell": 0}, "schedule: ell must be >= 1, got 0"),
        ("schedule", {"family": "exponential_gap", "ell": -1}, "schedule: ell must be >= 1, got -1"),
        ("schedule", {"family": "polynomial", "ell": 1, "degree": 0}, "schedule: degree must be >= 1"),
        ("schedule", {"family": "table", "rows": [[1, 1], [2, 3]]},
         "schedule: schedule 'table': q_2(1)=1 <= q_1(1)=1"),
        ("schedule", {"family": "table", "rows": [[0]]}, "schedule: schedule 'table': q_1(1)=0 < l"),
        ("schedule", {"family": "arithmetic_gap", "ell": 2, "c": 4.0, "gamma": 1000},
         "schedule: schedule arithmetic_gap: gap c (ln l)^(1+gamma) overflows a float at l="),
    ],
)
def test_validate_lists_section_faults(tmp_path, section, value, fault):
    # only the subshift config has a table that needs replicates
    cfg = load_config(_write(tmp_path, SUBSHIFT_CFG if section == "replicates" else MARKOV_CFG))
    assert validate_config(cfg) == []
    cfg[section] = value
    faults = validate_config(cfg)
    assert len(faults) == 1 and faults[0].startswith(fault), faults
    del cfg["_raw_bytes"]
    with pytest.raises(ConfigError):
        run(_write(tmp_path, yaml.safe_dump(cfg), "bad.yaml"), tmp_path / "out")


def test_validate_refuses_bernoulli_lambda_at_or_above_some_n(tmp_path, capsys):
    text = BERNOULLI_CFG.replace("n_grid: [8, 12]", "n_grid: [1, 8]")
    path = _write(tmp_path, text)
    assert validate_config(load_config(path)) == [
        "lambda must be below every n in n_grid for the bernoulli model "
        "(p_n = (lambda/n)^(1/ell) < 1), got lambda=1.0 and n=1"
    ]
    assert main(["validate", str(path)]) == 1
    assert "lambda must be below every n" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        run(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    # the other models' lambda is not tied to n
    cfg = load_config(_write(tmp_path, MARKOV_CFG, "markov.yaml"))
    cfg["lambda"], cfg["n_grid"] = 5.0, [4, 8]
    assert validate_config(cfg) == []


def test_run_refuses_a_schedule_past_float_range(tmp_path, capsys):
    # validate builds 128 rows, where (ln l)^351 stays in float range; the
    # run's n = 10^5 needs rows past l = 1800, where it does not
    text = BERNOULLI_CFG.replace("n_grid: [8, 12]", "n_grid: [100000]").replace(
        "{family: linear, ell: 2}", "{family: arithmetic_gap, ell: 2, c: 4.0, gamma: 350}"
    )
    path = _write(tmp_path, text)
    assert validate_config(load_config(path)) == []
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schedule arithmetic_gap: ") and "gamma=350.0" in err
    assert not (tmp_path / "out").exists()


def test_validate_subshift_transition_on_the_adjacency_edges(tmp_path):
    cfg = load_config(_write(tmp_path, SUBSHIFT_CFG))
    cfg["model_params"]["adjacency"] = [[1, 1], [1, 0]]
    cfg["model_params"]["transition"] = [[0.5, 0.5], [0.5, 0.5]]
    assert validate_config(cfg) == [
        "model_params.transition must be positive exactly on the adjacency's edges"
    ]
    cfg["model_params"]["transition"] = [[0.5, 0.5], [1.0, 0.0]]
    assert validate_config(cfg) == []


def test_validate_accepts_empty_optional_sections(tmp_path):
    cfg = load_config(_write(tmp_path, SUBSHIFT_CFG))
    cfg["sevastyanov"] = None
    cfg["hitting"] = {}
    cfg["budgets"] = None
    assert validate_config(cfg) == []


def test_cli_defaults_are_the_library_defaults():
    from nonconv.markov import choose_target_sets
    from nonconv.schedules import SCHEDULE_FAMILIES, table_schedule
    from nonconv.sevastyanov import DEFAULT_ENUMERATION_BUDGET, check_conditions
    from nonconv.subshift import make_target

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    sections = nonconv.cli._SECTIONS
    mp, sv = sections["model_params"], sections["sevastyanov"]
    for (_, _, ours), theirs in [
        (sv["pair_samples"], default(check_conditions, "pair_samples")),
        (sv["ratio_samples"], default(check_conditions, "ratio_samples")),
        (mp["lift_tolerance"], default(choose_target_sets, "tolerance")),
        (mp["max_lift"], default(choose_target_sets, "max_lift")),
        (mp["s"], default(make_target, "s")),
        (mp["eps"], default(make_target, "eps")),
        (sections["budgets"]["enumeration"], DEFAULT_ENUMERATION_BUDGET),
        (sections["budgets"]["enumeration"], default(check_conditions, "budget")),
    ]:
        assert ours == theirs
    # build_schedule passes a family's spec keys in its constructor's order
    builders = {**SCHEDULE_FAMILIES, "table": table_schedule}
    assert nonconv.cli._FAMILIES == {
        fam: tuple(inspect.signature(fn).parameters) for fam, fn in builders.items()
    }


def test_docstring_names_every_key_and_default():
    doc = nonconv.cli.__doc__
    keys = {**nonconv.cli._DEFAULTS, **{
        key: spec[2] for section in nonconv.cli._SECTIONS.values() for key, spec in section.items()
    }}
    for key, value in keys.items():
        # the key, then its default before any other parenthesis
        named = rf"(?<![\w.]){key}:\s"
        if value is not None:
            named += rf"[^()]*\(default {re.escape(str(value))}[,;)]"
        assert re.search(named, doc), key
    for name in [*nonconv.cli._SECTIONS, *nonconv.cli._FAMILIES]:
        assert name in doc
    for params in nonconv.cli._FAMILIES.values():
        assert all(f"{p}: " in doc for p in params)


def test_validate_model_table_compatibility(tmp_path):
    text = BERNOULLI_CFG.replace(
        "outputs: [pmf_vs_poisson, tv_and_bounds, chen_stein_terms]",
        "outputs: [hitting_time_survival]",
    )
    faults = validate_config(load_config(_write(tmp_path, text)))
    assert any("hitting_time_survival" in f for f in faults)


def test_run_bernoulli_tables(tmp_path):
    cfg = _write(tmp_path, BERNOULLI_CFG)
    out = tmp_path / "out"
    manifest = run(cfg, out)
    assert set(manifest["tables"]) == {
        "pmf_vs_poisson", "tv_and_bounds", "chen_stein_terms",
    }
    for name in manifest["tables"]:
        path = out / f"{name}.csv"
        assert path.exists()
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2  # header + data
    tv_rows = (out / "tv_and_bounds.csv").read_text().splitlines()
    header = tv_rows[0].split(",")
    assert "tv_exact" in header and "bound" in header and "holds" in header
    for line in tv_rows[1:]:
        assert line.split(",")[header.index("holds")] == "true"


def test_run_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, BERNOULLI_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(cfg, out1)
    run(cfg, out2)
    assert _hash_dir(out1) == _hash_dir(out2)


@pytest.mark.parametrize("as_mapping", [False, True])
def test_table_schedule_runs_like_its_family(tmp_path, as_mapping):
    rows = [[l, 2 * l] for l in range(1, 65)]
    text = BERNOULLI_CFG.replace("n_grid: [8, 12]", "n_grid: [16, 64]").replace(
        "chen_stein_terms]", "chen_stein_terms, sevastyanov_report]"
    )
    table = {l: row for l, row in enumerate(rows, start=1)} if as_mapping else rows
    spec = yaml.safe_dump({"family": "table", "rows": table}, default_flow_style=True)
    tables = ["pmf_vs_poisson", "tv_and_bounds", "chen_stein_terms", "sevastyanov_report"]
    outs = {}
    for name, cfg_text in [
        ("linear", text),
        ("table", text.replace("{family: linear, ell: 2}", spec.strip())),
    ]:
        cfg = _write(tmp_path, cfg_text, f"{name}.yaml")
        assert validate_config(load_config(cfg)) == []
        run(cfg, tmp_path / name)
        outs[name] = {t: (tmp_path / name / f"{t}.csv").read_bytes() for t in tables}
    assert outs["table"] == outs["linear"]


def test_manifest_contents(tmp_path):
    cfg = _write(tmp_path, BERNOULLI_CFG)
    out = tmp_path / "out"
    run(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config_hash"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert "versions" in manifest


def test_seed_changes_empirical_output(tmp_path):
    cfg1 = _write(tmp_path, BERNOULLI_CFG, "c1.yaml")
    cfg2 = _write(tmp_path, BERNOULLI_CFG.replace("seed: 7", "seed: 8"), "c2.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(cfg1, out1)
    run(cfg2, out2)
    assert (out1 / "pmf_vs_poisson.csv").read_bytes() != (
        out2 / "pmf_vs_poisson.csv"
    ).read_bytes()
    # exact tables do not depend on the seed
    assert (out1 / "tv_and_bounds.csv").read_bytes() == (
        out2 / "tv_and_bounds.csv"
    ).read_bytes()


def test_run_markov_tables(tmp_path, monkeypatch):
    built = []
    pattern_chain = nonconv.subshift.pattern_chain

    def counted(measure, blocks):
        built.append(blocks)
        return pattern_chain(measure, blocks)

    monkeypatch.setattr(nonconv.subshift, "pattern_chain", counted)
    cfg = _write(tmp_path, MARKOV_CFG)
    out = tmp_path / "out"
    manifest = run(cfg, out)
    # the pmf and sevastyanov tables read one pattern chain per n
    assert len(built) == 2 and built[0] != built[1]
    mix = (out / "mixing_certificates.csv").read_text()
    assert "mixing_beta" in mix and "doeblin_C" in mix
    sev = (out / "sevastyanov_report.csv").read_text()
    assert "ratio_band_deviation" in sev and "verdict" in sev


MARKOV_3STATE_CFG = """\
model: markov
seed: 11
lambda: 1.0
n_grid: [100000, 1000000]
replicates: 4000
schedule: {family: linear, ell: 1}
outputs: [pmf_vs_poisson, sevastyanov_report, mixing_certificates]
model_params:
  transition: [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
"""


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_markov_three_state_chain_to_a_million(tmp_path):
    # a k-word lift refused n = 10^5 on this chain (order 8: 6561 words);
    # the targets are one 8-word and one 9-word on their pattern chains
    out = tmp_path / "out"
    run(_write(tmp_path, MARKOV_3STATE_CFG), out)
    pmf = _csv_rows(out / "pmf_vs_poisson.csv")
    sev = _csv_rows(out / "sevastyanov_report.csv")
    for n in (100_000, 1_000_000):
        mine = [r for r in pmf if int(r["n"]) == n]
        assert {int(r["sample_size"]) for r in mine} == {4000}
        lam_n = -math.log(float(next(r for r in mine if r["k"] == "0")["poisson_pmf"]))
        assert abs(lam_n - 1.0) <= 0.2
        mean = sum(int(r["k"]) * float(r["model_pmf"]) for r in mine)
        assert abs(mean - lam_n) <= 6 * math.sqrt(lam_n / 4000)
        # started stationary, b_l = mu(Gamma_n) = lambda_n / n for every term
        max_b = [float(r["value"]) for r in sev if (r["n"], r["condition"]) == (str(n), "max_b")]
        assert max_b == [pytest.approx(lam_n / n, rel=1e-9)]
    mix = {r["quantity"]: r["value"] for r in _csv_rows(out / "mixing_certificates.csv")}
    assert mix["doeblin_n0"] == "1"


def test_run_subshift_tables(tmp_path):
    cfg = _write(tmp_path, SUBSHIFT_CFG)
    out = tmp_path / "out"
    run(cfg, out)
    surv = (out / "hitting_time_survival.csv").read_text().splitlines()
    assert len(surv) >= 3  # header + one row per lambda
    mix = (out / "mixing_certificates.csv").read_text()
    assert "psi_beta" in mix and "gibbs_constant" in mix


GOLDEN_MIXING_CFG = """\
model: subshift
seed: 0
n_grid: [4, 6]
schedule: {family: linear, ell: 2}
outputs: [mixing_certificates]
model_params:
  adjacency: [[1, 1], [1, 0]]
  transition: [[0.6, 0.4], [1.0, 0.0]]
  omega_star: [0, 1, 0, 0, 1, 0, 0, 0, 1]
"""


def test_subshift_mixing_certificates_bytes(tmp_path):
    # psi(g) = |Q^g(a, b) / pi(b) - 1| decays as (2/5)^g (Q's second
    # eigenvalue is -0.4); the Gibbs constant is Q(1, 0) / pi(1) = 7/2
    out = tmp_path / "out"
    run(_write(tmp_path, GOLDEN_MIXING_CFG), out)
    assert (out / "mixing_certificates.csv").read_bytes() == b"".join(
        line + b"\r\n"
        for line in (
            b"quantity,value",
            b"psi_C,2.50000000031",
            b"psi_beta,0.916290731881",
            b"psi_spectral_beta,0.916290731874",
            b"gibbs_constant,3.5",
        )
    )


def test_run_fault_leaves_no_output(tmp_path):
    # the grammar accepts an omega_star shorter than n; the run refuses it
    # only at the pmf table, after the certificates are computed
    text = """\
model: subshift
seed: 1
n_grid: [6]
schedule: {family: linear, ell: 2}
outputs: [mixing_certificates, pmf_vs_poisson]
model_params:
  omega_star: [0, 1]
"""
    cfg = _write(tmp_path, text)
    assert validate_config(load_config(cfg)) == []
    out = tmp_path / "out"
    with pytest.raises(NonconvError):
        run(cfg, out)
    assert not out.exists()


def test_hitting_seeds_do_not_collide(tmp_path, monkeypatch):
    # one hitting stream per (config seed, n); a rule like seed + n would
    # give 9 for both seed 5 at n = 4 and seed 3 at n = 6
    import nonconv.subshift

    real = nonconv.subshift.hitting_time_batch
    drawn = {}

    def recording(measure, schedule, target, seed, replicates, **kw):
        out = real(measure, schedule, target, seed, replicates, **kw)
        drawn[(cfg_seed, target.n)] = (seed, out[0])
        return out

    monkeypatch.setattr(nonconv.subshift, "hitting_time_batch", recording)
    for cfg_seed in (3, 5):
        text = _hitting_only(SUBSHIFT_CFG.replace("seed: 5", f"seed: {cfg_seed}"), [4, 6])
        run(_write(tmp_path, text, f"c{cfg_seed}.yaml"), tmp_path / f"out{cfg_seed}")
    assert len({seed for seed, _ in drawn.values()}) == len(drawn) == 4
    assert not np.array_equal(drawn[(5, 4)][1], drawn[(3, 4)][1])


def _hitting_only(text, n_grid):
    return text.replace("n_grid: [4]", f"n_grid: {n_grid}").replace(
        "outputs: [pmf_vs_poisson, mixing_certificates, hitting_time_survival]",
        "outputs: [hitting_time_survival]",
    )


def test_hitting_survival_is_a_recount_of_one_hitting_batch(tmp_path):
    from nonconv.rng import STREAM_HITTING, derive_seed
    from nonconv.schedules import linear_schedule
    from nonconv.subshift import (
        full_shift, hitting_time_batch, make_target, replicate_count, sample_clear_word,
        uniform_measure,
    )

    out = tmp_path / "out"
    run(_write(tmp_path, _hitting_only(SUBSHIFT_CFG, [4, 6])), out)
    with (out / "hitting_time_survival.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n"], r["lambda"]) for r in rows] == [
        ("4", "0.5"), ("4", "1"), ("6", "0.5"), ("6", "1")
    ]
    um = uniform_measure(full_shift(2))
    for n in (4, 6):
        target = make_target(um, sample_clear_word(um, n, 0.25, 11 + n), n=n)
        scaled, censored = hitting_time_batch(
            um, linear_schedule(2), target, derive_seed(5, STREAM_HITTING, n), 1000,
            lam_cap=1.0,
        )
        for row in rows:
            if row["n"] == str(n):
                N = replicate_count(target, 2, float(row["lambda"]))
                # the first arriving term exceeds N exactly when its scaled
                # time exceeds N P(B)^2
                survived = censored | (scaled > N * target.prob**2)
                assert float(row["survival"]) == pytest.approx(survived.mean(), abs=1e-12)


def test_csv_uses_crlf(tmp_path):
    cfg = _write(tmp_path, BERNOULLI_CFG)
    out = tmp_path / "out"
    run(cfg, out)
    raw = (out / "tv_and_bounds.csv").read_bytes()
    assert b"\r\n" in raw


def test_main_validate_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, BERNOULLI_CFG)
    assert main(["validate", str(cfg)]) == 0
    bad = _write(tmp_path, "model: nosuch\n", "bad.yaml")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err


def test_main_list_tables(capsys):
    assert main(["list-tables"]) == 0
    out = capsys.readouterr().out
    for name in TABLES:
        assert name in out


def test_main_run_subcommand(tmp_path):
    cfg = _write(tmp_path, BERNOULLI_CFG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_main_reports_a_missing_or_malformed_config(tmp_path, capsys, command):
    # both subcommands print one error line, not a traceback, and exit 1
    malformed = _write(tmp_path, "model: [bernoulli\n", "malformed.yaml")
    not_a_mapping = _write(tmp_path, "- 1\n", "list.yaml")
    for path in (tmp_path / "missing.yaml", malformed, not_a_mapping):
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert err == "error: config must be a YAML mapping\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_invalid_config(tmp_path):
    bad = _write(tmp_path, "model: nosuch\n", "bad.yaml")
    with pytest.raises(ConfigError):
        run(bad, tmp_path / "out")


# -- random invalid configs -------------------------------------------------

_BASES = {
    "bernoulli": {"model": "bernoulli", "seed": 7, "lambda": 1.0, "n_grid": [8],
                  "replicates": 50, "schedule": {"family": "linear", "ell": 2},
                  "outputs": ["pmf_vs_poisson"]},
    "markov": {"model": "markov", "seed": 3, "lambda": 1.0, "n_grid": [8],
               "replicates": 50, "schedule": {"family": "linear", "ell": 1},
               "outputs": ["pmf_vs_poisson"], "model_params": {"transition": _P}},
    "subshift": {"model": "subshift", "seed": 5, "lambda": 1.0, "n_grid": [4],
                 "replicates": 50, "schedule": {"family": "linear", "ell": 2},
                 "outputs": ["pmf_vs_poisson"], "model_params": {"omega_seed": 11}},
}

# field: (values the grammar forbids, prefixes of the fault that names it)
_BAD_FIELDS = {
    "model": (["nosuch", 3, None, ["markov"]], ("model must be",)),
    "seed": (["7", 1.5, True, -1, None], ("seed",)),
    "lambda": ([0, -1.0, "one", math.nan, math.inf, True, [1.0], 10**400], ("lambda",)),
    "n_grid": ([[], [0], ["8"], 8, [1.5], [True], None], ("n_grid",)),
    "replicates": ([-1, 1.5, "many", True], ("replicates",)),
    "outputs": ([[], ["nosuch"], "pmf_vs_poisson", [["pmf_vs_poisson"]], [{"a": 1}], None],
                ("outputs", "unknown table")),
    "schedule": ([None, "linear", {"family": "mystery"}, {"family": ["linear"]},
                  {"family": "linear", "ell": "2"}, {"family": "table"},
                  {"family": "table", "rows": [[1, 2], [3]]}, {"family": "table", "rows": "abc"},
                  {"family": "table", "rows": {"a": [1]}},
                  {"family": "arithmetic_gap", "ell": 2, "c": "4", "gamma": 0.5},
                  {"family": "polynomial", "ell": 2, "degree": 2.5},
                  {"family": "linear", "ell": 2, "degre": 3}, {"family": "linear", "ell": 0},
                  {"family": "exponential_gap", "ell": -1},
                  {"family": "polynomial", "ell": 2, "degree": 0},
                  {"family": "table", "rows": [[1, 1], [2, 3]]}, {"family": "table", "rows": [[0]]}],
                 ("schedule", "unknown schedule", "table schedule", "arithmetic_gap schedule",
                  "polynomial schedule")),
    "budgets": ([[1], {"nosuch": 1}, {"paths": 0}, {"paths": "many"}, {"enumeration": True}],
                ("budget", "unknown budget")),
    "sevastyanov": ([[2], {"r": 1}, {"rare_params": "sometimes"}, {"pair_samples": 0},
                     {"rare_param": [1, 2]}],
                    ("sevastyanov", "unknown sevastyanov key")),
    "hitting": ([[0.5], {"lambdas": []}, {"lambdas": [-1.0]}, {"lambdas": "all"}, {"lambda": [1]}],
                ("hitting", "unknown hitting key")),
    "replicate": ([100], ("unknown key 'replicate'",)),  # a misspelt top-level key
    "model_params": ([[_P], 3, "transition"], ("model_params must be a mapping",)),
}
_BAD_PARAMS = {
    "transition": [[[0.7, 0.3], [0.1]], [[0.7, 0.2], [0.1, 0.9]], [[-0.5, 1.5], [0.5, 0.5]],
                   "P", [], [[1.0, math.nan], [0.5, 0.5]]],
    "lift_tolerance": ["abc", 0, -0.1, math.inf, True],
    "max_lift": [0, 2.5, "12", True],
    "adjacency": [[[1, 2], [1, 0]], [[1, 1]], [[0, 0], [1, 1]], [[1.0, 1.0], [1.0, 1.0]], "full"],
    "omega_star": [[], [0, "1"], [-1, 0], "0101", [0.5]],
    "omega_seed": [-3, 1.5, "11", True],
    "s": [-1.0, "x", math.nan, True],
    "eps": [0, -0.25, "x", math.inf],
    "initial": [[0.5, 0.5]],  # not a key of the grammar
}
# values the grammar allows but the run rejects, per model
_RUN_FAULTS = {
    "bernoulli": [],
    "markov": [("transition", [[0.0, 1.0], [1.0, 0.0]]), ("transition", [[1.0]]),
               ("max_lift", 1)],
    "subshift": [("omega_star", [0, 1]), ("omega_star", [0, 1, 5, 0])],
}


@st.composite
def _invalid_configs(draw):
    """A base config with some grammar faults and at most one run-time fault;
    returns (config, {field: fault prefixes})."""
    model = draw(st.sampled_from(sorted(_BASES)))
    cfg = json.loads(json.dumps(_BASES[model]))
    expect = {}
    fields = draw(st.sets(st.sampled_from(sorted(_BAD_FIELDS))))
    params = set()
    if "model_params" not in fields:
        params = draw(st.sets(st.sampled_from(sorted(_BAD_PARAMS))))
    runtime = draw(st.sampled_from([None] + _RUN_FAULTS[model]))
    if runtime is not None:
        key, val = runtime
        if key == "lambda":
            cfg["lambda"] = val
        else:
            cfg.setdefault("model_params", {})[key] = val
    for f in sorted(fields):
        values, prefixes = _BAD_FIELDS[f]
        cfg[f] = draw(st.sampled_from(values))
        expect[f] = prefixes
    if model == "bernoulli" and "lambda" not in fields and draw(st.booleans()):
        # p_n = (lambda/n)^(1/ell) needs lambda < n; checked when model and n_grid are valid
        cfg["lambda"] = draw(st.sampled_from([8, 100.0]))
        if not {"model", "n_grid"} & fields:
            expect["lambda_vs_n"] = ("lambda must be below every n",)
    for k in sorted(params):
        mp = cfg.setdefault("model_params", {})
        mp[k] = draw(st.sampled_from(_BAD_PARAMS[k]))
        expect[k] = (f"unknown model_params key {k!r}" if k == "initial"
                     else f"model_params.{k} must be",)
    assume(expect or runtime is not None)
    return cfg, expect


@given(_invalid_configs())
@settings(max_examples=150, deadline=None)
def test_invalid_configs_are_listed_and_refused(case):
    cfg, expect = case
    faults = validate_config(cfg)
    # every injected fault is listed, and every listed fault is one of them
    for f, prefixes in expect.items():
        assert any(fault.startswith(prefixes) for fault in faults), (f, faults)
    all_prefixes = tuple(p for prefixes in expect.values() for p in prefixes)
    assert all(fault.startswith(all_prefixes) for fault in faults), faults
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        with pytest.raises(NonconvError) as err:
            run(path, Path(tmp) / "out")
        assert not (Path(tmp) / "out").exists()
    if faults:
        assert isinstance(err.value, ConfigError) and err.value.faults == faults
