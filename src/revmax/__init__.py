"""Exact verification toolkit for conditional-expectation maximal inequalities
and the spectral theory of finite reversible Markov chains.

The package computes both sides of each inequality exactly on finite
instances (no sampling anywhere in a verification path), compares them
against constants traced through the derivations, and complements the exact
checks with seeded Monte Carlo diagnostics for almost-sure convergence.
"""

from .finite_prob import (
    AdaptedSequence,
    DecreasingFiltration,
    FiniteProbSpace,
    RandomVector,
    ValidationError,
    adapted_partial_sums,
    cond_expect,
    decomposition_residual,
    exact_max_moment,
    load_problem,
    orthogonality_gap,
    reverse_mart_diff,
)
from .weights import WeightSequence, WeightStats, compute_stats, even_odd_stats, parse_weight_spec
from .inequalities import (
    InequalityId,
    Instance,
    SeriesVerdict,
    TracedConstant,
    VerificationRecord,
    doob_factor,
    random_instance,
    series_criterion,
    smoothness_factor,
    traced_constant,
    triangle_factor,
    verify,
    verify_batch,
)
from .markov import (
    ChainPowers,
    ConditionReport,
    EigensolverError,
    MarkovCheck,
    Observable,
    ReversibleChain,
    SpectralMeasure,
    apply_power,
    autocovariance,
    birth_death,
    check_conditions,
    dl_integral,
    dump_chain,
    dump_observable,
    even_odd_split_residual,
    inspect_growth_weights,
    jacobi_eigendecomposition,
    lazy_ring,
    load_chain,
    load_observable,
    make_chain,
    markov_traced_constant,
    metropolis_chain,
    random_chain_instance,
    spectral_measure,
    two_state,
    variance_growth,
    verify_markov_batch,
    verify_markov_inequality,
    weighted_graph,
    weighted_series,
)
from .simulate import (
    MaxMomentEstimate,
    OscillationTable,
    PathReductions,
    SimConfig,
    as_convergence_diagnostic,
    derive_trial_seed,
    enumerate_max_moment,
    mc_max_moment,
    reduce_series_paths,
    reduce_trials,
    sample_trajectories,
    sample_trajectory,
    series_path,
    series_paths,
)

__version__ = "0.1.0"
