"""Simulation and verification toolkit for nonconventional arrival counts.

The central object is the statistic S = sum over l of the product over j of
indicator(event at position q_j(l)), for index schedules q_1 < ... < q_ell.
Three models realize the event structure (i.i.d. Bernoulli arrays, Doeblin
Markov chains, subshifts of finite type with Markov-Gibbs measures); exact
oracles, seeded Monte Carlo, Poisson-distance bounds, factorization
condition checks, and mixing certificates are provided for each.
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    ConfigError,
    NonconvError,
    ResourceError,
    ScheduleError,
    ValidationError,
)
from .schedules import (
    QSchedule,
    SCHEDULE_FAMILIES,
    arithmetic_gap_schedule,
    exponential_gap_schedule,
    linear_schedule,
    logpow_cutoff,
    polynomial_schedule,
    ratio_cutoff_index,
    table_schedule,
)
from .distributions import (
    CountDistribution,
    PoissonLaw,
    dissociated_sum_bound,
    empirical_distribution,
    poisson_shift_bound,
    tv_distance,
)
from .bernoulli import (
    BernoulliScheme,
    chen_stein_terms,
    exact_distribution,
    simulate_batch,
    verify_poisson_bound,
)
from .markov import (
    FiniteMarkovChain,
    choose_target_sets,
    doeblin_certificate,
    exact_b,
    exact_sum_distribution,
    invariant_measure,
    mixing_rate,
    simulate_arrival_batch,
    word_lift,
)
from .subshift import (
    CylinderTarget,
    MarkovGibbsMeasure,
    SubshiftSFT,
    aep_deviation,
    cylinder_prob,
    full_shift,
    gibbs_constant,
    golden_mean_shift,
    hitting_time_batch,
    make_target,
    psi_mixing_check,
    sample_clear_word,
    sample_point,
    short_return_check,
    simulate_nonconventional_batch,
    uniform_measure,
)
from .sevastyanov import (
    ConditionReport,
    StageOracle,
    Tolerances,
    check_conditions,
    poisson_limit_verdict,
)
