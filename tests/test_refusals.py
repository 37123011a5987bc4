"""Every refusal in ``src/revmax`` is reached, with its exact message.

``LIBRARY`` has one entry for each ``raise`` that the other tests never
execute: the call that reaches it and the message it raises.  ``CLI``
runs the refusals that the command line reaches through ``run()``, among
them the ``OSError`` branch: each exits 2 with its message and writes
nothing.  Two of them pass every earlier check: a supplied law that is not
stationary although each detailed-balance residual is within tolerance, and
a kernel whose symmetrized eigenvalue passes 1 although each asymmetry is
within tolerance.  In both, many small residuals add up past the next check.
"""

import json
import math
import re

import numpy as np
import pytest

from revmax import ValidationError
from revmax.cli import run
from revmax.finite_prob import (
    AdaptedSequence, DecreasingFiltration, FiniteProbSpace, RandomVector, cond_expect,
    exact_max_moment, load_problem, orthogonality_gap,
)
from revmax.inequalities import (
    Instance, InequalityId, random_instance, series_criterion, smoothness_factor, verify,
)
from revmax.markov import (
    ChainPowers, MarkovCheck, Observable, birth_death, check_conditions,
    even_odd_split_residual, jacobi_eigendecomposition, lazy_ring, two_state, variance_growth,
    verify_markov_inequality, weighted_series,
)
from revmax.simulate import (
    as_convergence_diagnostic, derive_trial_seed, enumerate_max_moment,
    mc_max_moment, sample_trajectories, series_paths,
)
from revmax.weights import WeightSequence, coefficient_chunks, compute_stats, even_odd_stats

SPACE = FiniteProbSpace([0.5, 0.5])
# one level, each atom its own block
FINEST = DecreasingFiltration(SPACE, [[0, 1]])
CHAIN = two_state(0.25, 0.25)
F = Observable([1.0, -1.0])
UNIT = WeightSequence.constant(1.0)


def smoothness_past_the_last_level():
    """Smoothness at n = levels, which needs level n + 1."""
    instance = Instance(AdaptedSequence(FINEST, [[1.0, 2.0]]), seed=0)
    return verify(InequalityId.SMOOTHNESS, instance, p=2.0)


# (where, the call that reaches the raise, its message)
LIBRARY = [
    ("FiniteProbSpace-2d", lambda: FiniteProbSpace([[0.5, 0.5]]),
     "probs must be a nonempty 1-d sequence"),
    ("FiniteProbSpace-nan", lambda: FiniteProbSpace([0.5, math.nan]),
     "probs must be finite"),
    ("FiniteProbSpace.expect", lambda: SPACE.expect([1.0]),
     "per-atom array has wrong length"),
    ("DecreasingFiltration.from_blocks", lambda: DecreasingFiltration.from_blocks(SPACE, []),
     "filtration needs at least one partition"),
    ("DecreasingFiltration.labels", lambda: FINEST.labels(0),
     "level 0 out of range 1..1"),
    ("RandomVector-atoms", lambda: RandomVector(SPACE, [1.0, 2.0, 3.0]),
     "values shape (3, 1) does not match 2 atoms"),
    ("RandomVector-dim", lambda: RandomVector(SPACE, np.zeros((2, 0))),
     "dim must be positive"),
    ("RandomVector-nan", lambda: RandomVector(SPACE, [1.0, math.nan]),
     "values must be finite"),
    ("cond_expect", lambda: cond_expect(RandomVector(FiniteProbSpace([0.5, 0.5]), [1.0, 2.0]),
                                        FINEST, 1),
     "random vector and filtration live on different spaces"),
    ("exact_max_moment", lambda: exact_max_moment(
        [RandomVector(SPACE, [1.0, 2.0]), RandomVector(SPACE, [[1.0, 0.0], [0.0, 1.0]])], 2.0),
     "variables must share a space and dimension"),
    ("orthogonality_gap", lambda: orthogonality_gap(AdaptedSequence(FINEST, [[1.0, 2.0]]), 1),
     "orthogonality gap needs n >= 2"),
    ("load_problem-partitions", lambda: load_problem({"probs": [1.0]}),
     "missing field 'partitions'"),
    ("load_problem-terms", lambda: load_problem(
        {"probs": [0.5, 0.5], "partitions": [[[0], [1]]], "terms": 3}),
     "terms must be a list with one entry per term"),
    ("smoothness_factor", lambda: smoothness_factor(3.0),
     "smoothness factor needs 1 <= p <= 2, got 3.0"),
    ("random_instance-atoms", lambda: random_instance(0, atoms=1, levels=2, n=1, dim=1),
     "need at least 2 atoms"),
    ("random_instance-dim", lambda: random_instance(0, atoms=4, levels=2, n=1, dim=0),
     "dim must be >= 1"),
    ("random_instance-n", lambda: random_instance(0, atoms=4, levels=2, n=0, dim=1),
     "n must be >= 1"),
    ("verify-n", lambda: verify(InequalityId.MAX_VS_ENDPOINT,
                                random_instance(0, atoms=4, levels=3, n=2, dim=1), n=3),
     "n=3 out of range for instance with n=2"),
    ("verify-smoothness", smoothness_past_the_last_level,
     "smoothness check needs levels >= n + 1"),
    ("series_criterion-horizon", lambda: series_criterion(UNIT, [1.0], 0),
     "horizon must be >= 1"),
    ("series_criterion-moments", lambda: series_criterion(UNIT, [1.0], 2),
     "need at least 2 second moments, got 1"),
    ("birth_death", lambda: birth_death([0.3, 0.3], [0.3]),
     "up and down rates must be equal-length 1-d arrays"),
    ("lazy_ring", lambda: lazy_ring(1, 0.5),
     "ring needs at least 2 states"),
    ("Observable", lambda: Observable(np.zeros((2, 0))),
     "observable values have bad shape (2, 0)"),
    ("jacobi_eigendecomposition", lambda: jacobi_eigendecomposition(np.zeros((2, 3))),
     "matrix must be square"),
    ("variance_growth", lambda: variance_growth(CHAIN, F, 0),
     "n must be >= 1"),
    ("check_conditions", lambda: check_conditions(CHAIN, F, probe_horizon=3),
     "probe horizon must be >= 4"),
    ("weighted_series", lambda: weighted_series(ChainPowers(CHAIN, F), UNIT, 0),
     "n must be >= 1"),
    ("verify_markov_inequality",
     lambda: verify_markov_inequality(MarkovCheck.STEIN, CHAIN, F, 0),
     "n must be >= 1"),
    ("even_odd_split_residual", lambda: even_odd_split_residual(CHAIN, F, UNIT, 0),
     "n must be >= 1"),
    ("derive_trial_seed", lambda: derive_trial_seed(0, -1),
     "trial index must be >= 0"),
    ("sample_trajectories", lambda: sample_trajectories(CHAIN, -1, [1]),
     "horizon must be >= 0"),
    ("series_paths", lambda: series_paths(CHAIN, F, UNIT, np.zeros((1, 1), dtype=int)),
     "trajectory must have at least one step"),
    ("as_convergence_diagnostic-shape", lambda: as_convergence_diagnostic(np.zeros(40), [1]),
     "paths must have shape (trials, n) or (trials, n, dim)"),
    ("as_convergence_diagnostic-checkpoints",
     lambda: as_convergence_diagnostic(np.zeros((30, 4)), []),
     "need at least one checkpoint"),
    ("mc_max_moment", lambda: mc_max_moment(CHAIN, F, UNIT, 5, master_seed=0, trials=99),
     "need at least 100 trials for a usable error bar"),
    ("enumerate_max_moment", lambda: enumerate_max_moment(CHAIN, F, UNIT, 0),
     "n must be >= 1"),
    ("WeightSequence.eval", lambda: UNIT.eval(0),
     "weight index 0 must be >= 1"),
    ("WeightSequence.eval_range", lambda: UNIT.eval_range(0),
     "range must reach at least index 1"),
    ("coefficient_chunks", lambda: next(coefficient_chunks(UNIT, 0)),
     "horizon must be >= 1"),
    ("compute_stats", lambda: compute_stats(UNIT, 0),
     "horizon must be >= 1"),
    ("even_odd_stats", lambda: even_odd_stats(UNIT, 0),
     "horizon must be >= 1"),
]


@pytest.mark.parametrize("call,message", [entry[1:] for entry in LIBRARY],
                         ids=[entry[0] for entry in LIBRARY])
def test_each_library_refusal_is_reached_with_its_message(call, message):
    with pytest.raises(ValidationError) as refusal:
        call()
    assert str(refusal.value) == message


def star_past_one(leaves=16, small=1e-6):
    """A hub of law ~1 that leaks to absorbing leaves of law ``small``, as chain JSON.

    Flow leaves the hub and never returns, yet each balance residual is about
    1e-10 * sqrt(small) and the symmetrized kernel's asymmetry just under
    1e-10.  The leaves add those entries up, and the kernel's top eigenvalue
    lands near 1 + 1.8e-10.
    """
    a = 0.9e-10 * math.sqrt(small)
    Q = np.eye(leaves + 1)
    Q[0] = [1.0 - leaves * a] + [a] * leaves
    return {"pi": [1.0] + [small] * leaves, "Q": Q.tolist()}


def off_balance(d=2.4e-10):
    """Uniform law on three states; two balance residuals of d / 3 < 1e-10 feed state 1.

    State 1 then takes in 2d / 3 = 1.6e-10 more than it gives, past the
    stationarity tolerance of 1e-10.
    """
    Q = [[0.5 - d, 0.25 + d, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25 + d, 0.5 - d]]
    return {"pi": [1.0, 1.0, 1.0], "Q": Q}


TWO_STATE = {"Q": [[0.75, 0.25], [0.25, 0.75]]}
FILES = {
    "chain.json": TWO_STATE,
    "f.json": {"dim": 1, "values": [[1.0], [-1.0]]},
    "f3.json": {"dim": 1, "values": [[1.0], [0.0], [-1.0]]},
    "f2d.json": {"dim": 2, "values": [[1.0, 0.0], [0.0, 1.0]]},
    "zero-pi.json": {"pi": [1.0, 0.0], "Q": [[0.5, 0.5], [0.5, 0.5]]},
    "transient.json": {"Q": [[0.5, 0.5], [0.0, 1.0]]},
    "off-balance.json": off_balance(),
    "star.json": star_past_one(),
    "star-f.json": {"dim": 1, "values": [[1.0]] * 17},
    "negative.json": [[1.0, -1.0], [-1.0, 1.0]],
    "zero-row.json": [[0.0, 0.0], [0.0, 1.0]],
    "target.json": [1.0, 2.0],
    "short-rows.json": [[0.5, 0.4], [0.4, 0.5]],
}
LONG_NAME = "x" * 300


def spectrum(chain, observable="f.json"):
    return ["spectrum", f"{{d}}/{chain}", f"{{d}}/{observable}", "-o", "{d}/s.csv"]


# (case, argv, the message after "error: " or a pattern for it); {d} stands
# for the directory of the files and {long} for a 300-character file name
CLI = [
    ("pi-with-a-zero", spectrum("zero-pi.json"),
     "stationary probabilities must be positive"),
    ("pi-not-stationary", spectrum("off-balance.json", "f3.json"),
     "supplied distribution is not stationary"),
    ("transient-state", spectrum("transient.json"),
     "computed stationary distribution has a non-positive entry; supply one explicitly"),
    ("eigenvalue-past-one", spectrum("star.json", "star-f.json"),
     re.compile(r"eigenvalue magnitude 1\.0000000001\d* exceeds 1 beyond tolerance")),
    ("negative-weight", ["gen-chain", "--model", "weighted-graph",
                         "--weights-file", "{d}/negative.json", "-o", "{d}/c.json"],
     "weights must be non-negative"),
    ("zero-weight-row", ["gen-chain", "--model", "weighted-graph",
                         "--weights-file", "{d}/zero-row.json", "-o", "{d}/c.json"],
     "state 0 has zero total weight"),
    ("proposal-rows", ["gen-chain", "--model", "metropolis", "--target-file", "{d}/target.json",
                       "--proposal-file", "{d}/short-rows.json", "-o", "{d}/c.json"],
     "proposal must be row-stochastic"),
    ("spectrum-observable-states", spectrum("chain.json", "f3.json"),
     "observable has 3 states, chain has 2"),
    ("simulate-observable-states", ["simulate", "--chain", "{d}/chain.json",
                                    "--observable", "{d}/f3.json", "--weights", "power:-0.5",
                                    "--n", "16", "--trials", "100", "--estimate-out",
                                    "{d}/e.json"],
     "observable has 3 states, chain has 2"),
    ("check-conditions-dim-2", ["check-conditions", "{d}/chain.json", "{d}/f2d.json",
                                "-o", "{d}/c.json"],
     "condition checks take a scalar observable"),
    ("file-name-too-long", ["verify", "--id", "max-vs-endpoint", "--instances", "2",
                            "-o", "{d}/{long}"],
     "[Errno 36] File name too long: '{d}/{long}'"),
]


@pytest.mark.parametrize("argv,message", [case[1:] for case in CLI],
                         ids=[case[0] for case in CLI])
def test_each_command_line_refusal_exits_two_and_writes_nothing(argv, message, tmp_path,
                                                                capsys):
    for name, obj in FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))

    def filled(text):
        return text.replace("{d}", str(tmp_path)).replace("{long}", LONG_NAME)

    assert run([filled(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    if isinstance(message, str):
        assert err == f"error: {filled(message)}\n"
    else:
        assert message.fullmatch(err.removeprefix("error: ").removesuffix("\n")), err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
