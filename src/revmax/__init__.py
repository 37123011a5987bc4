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
    cond_expect,
    decomposition_residual,
    orthogonality_gap,
    reverse_mart_diff,
)
from .weights import WeightSequence
from .inequalities import InequalityId, random_instance, traced_constant, verify, verify_batch
from .markov import (
    MarkovCheck,
    Observable,
    ReversibleChain,
    birth_death,
    check_conditions,
    dl_integral,
    even_odd_split_residual,
    metropolis_chain,
    random_chain_instance,
    spectral_measure,
    two_state,
    variance_growth,
    verify_markov_inequality,
    weighted_graph,
)
from .simulate import (
    as_convergence_diagnostic,
    derive_trial_seed,
    enumerate_max_moment,
    mc_max_moment,
    sample_trajectories,
    series_paths,
)

__version__ = "0.1.0"
