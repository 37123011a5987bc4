"""Seeded trajectory simulation and almost-sure convergence diagnostics.

Every trial owns an RNG stream derived from the master seed and the trial
index by a fixed 64-bit mixer, and results are reduced in trial order, so
outputs depend on the master seed only, never on thread count or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .finite_prob import ValidationError
from .markov import ChainPowers, Observable, ReversibleChain
from .weights import WeightSequence

__all__ = [
    "SimConfig",
    "Trajectory",
    "derive_trial_seed",
    "sample_trajectory",
    "sample_trajectories",
    "series_path",
    "series_paths",
    "OscillationTable",
    "as_convergence_diagnostic",
    "MaxMomentEstimate",
    "path_max_squares",
    "jackknife_mean",
    "mc_max_moment",
    "enumerate_max_moment",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed via the SplitMix64 finalizer, bit-exactly:

    state = (master_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    return z ^ (z >> 31)
    """
    if trial_index < 0:
        raise ValidationError("trial index must be >= 0")
    z = (master_seed + (trial_index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters; threads only affect wall-clock time."""

    master_seed: int
    trials: int
    horizon: int
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")

    def trial_seed(self, index: int) -> int:
        return derive_trial_seed(self.master_seed, index)


@dataclass(frozen=True)
class Trajectory:
    """States xi_0 .. xi_n of one stationary run."""

    states: np.ndarray

    def __len__(self) -> int:
        return int(self.states.size)


def _cumulative_rows(chain: ReversibleChain) -> np.ndarray:
    cum = np.cumsum(chain.transition, axis=1)
    cum[:, -1] = 1.0
    return cum


def sample_trajectories(
    chain: ReversibleChain, n: int, seeds, step_block: int = 4096
) -> np.ndarray:
    """Stationary trajectories for several seeds, one row per seed.

    Each row consumes its own stream: one uniform for the stationary start,
    then one per step, mapped through the cumulative row by taking the first
    state whose cumulative probability reaches the draw.  Streams are drawn
    in blocks but the consumed values are identical for any block size.
    """
    if n < 0:
        raise ValidationError("horizon must be >= 0")
    seeds = list(seeds)
    trials = len(seeds)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    cum_pi = np.cumsum(chain.stationary)
    cum_pi[-1] = 1.0
    cum_rows = _cumulative_rows(chain)

    states = np.empty((trials, n + 1), dtype=np.int64)
    start = np.array([g.random() for g in gens])
    states[:, 0] = np.searchsorted(cum_pi, start, side="left")
    done = 0
    while done < n:
        block = min(step_block, n - done)
        draws = np.stack([g.random(block) for g in gens])
        for t in range(block):
            current = states[:, done + t]
            rows = cum_rows[current]
            states[:, done + t + 1] = (rows < draws[:, t, None]).sum(axis=1)
        done += block
    return states


def sample_trajectory(chain: ReversibleChain, n: int, seed: int) -> Trajectory:
    """One stationary trajectory, deterministic in the seed."""
    states = sample_trajectories(chain, n, [seed])[0]
    states.flags.writeable = False
    return Trajectory(states=states)


def series_path(
    chain: ReversibleChain,
    f: Observable,
    w: WeightSequence,
    traj: Trajectory,
    powers: ChainPowers | None = None,
) -> np.ndarray:
    """Partial sums T_k = sum_{j<=k} a_j (Q^j f)(xi_j), shape (n, dim)."""
    return series_paths(chain, f, w, traj.states[None, :], powers)[0]


def series_paths(
    chain: ReversibleChain,
    f: Observable,
    w: WeightSequence,
    states: np.ndarray,
    powers: ChainPowers | None = None,
) -> np.ndarray:
    """Partial-sum paths for a batch of trajectories, shape (trials, n, dim).

    The result is built in one buffer: the table rows are gathered, scaled by
    the weights and summed along the path in place.
    """
    n = states.shape[1] - 1
    if n < 1:
        raise ValidationError("trajectory must have at least one step")
    if powers is None:
        powers = ChainPowers(chain, f)
    out = powers.table(n)[np.arange(1, n + 1), states[:, 1:]]
    out *= w.eval_range(n)[1:, None]
    return np.cumsum(out, axis=1, out=out)


# A diagnostic threshold, not a theorem: finite runs cannot certify
# almost-sure convergence, only exhibit or break the expected Cauchy trend.
DECAY_FACTOR = 1.2


@dataclass(frozen=True)
class OscillationTable:
    """Oscillation quantiles over dyadic windows, plus the trend verdict.

    ``consistent`` is True when the 95% quantile shrinks by at least
    ``DECAY_FACTOR`` across the last three checkpoints (windows that have hit
    exactly zero count as shrunk).
    """

    checkpoints: tuple
    median: tuple
    q95: tuple
    consistent: bool


def as_convergence_diagnostic(paths: np.ndarray, checkpoints) -> OscillationTable:
    """Oscillation osc(n) = max_{n<=k<=2n} |T_k - T_n| across a trial batch.

    ``paths`` has shape (trials, n) or (trials, n, dim); every checkpoint n
    needs path values through 2n.  At least 30 trials are required for the
    quantiles to mean anything.
    """
    arr = np.asarray(paths, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValidationError("paths must have shape (trials, n) or (trials, n, dim)")
    trials, length, _ = arr.shape
    if trials < 30:
        raise ValidationError(f"need at least 30 trials, got {trials}")
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ValidationError("need at least one checkpoint")
    medians, q95s = [], []
    for c in checkpoints:
        if c < 1 or 2 * c > length:
            raise ValidationError(
                f"checkpoint {c} needs path length >= {2 * c}, have {length}"
            )
        window = arr[:, c - 1 : 2 * c] - arr[:, c - 1 : c]
        osc = np.linalg.norm(window, axis=2).max(axis=1)
        medians.append(float(np.quantile(osc, 0.5)))
        q95s.append(float(np.quantile(osc, 0.95)))
    consistent = len(checkpoints) >= 3
    if consistent:
        tail = q95s[-3:]
        for before, after in zip(tail, tail[1:]):
            if after == 0.0:
                continue
            if before < DECAY_FACTOR * after:
                consistent = False
                break
    return OscillationTable(
        checkpoints=tuple(checkpoints),
        median=tuple(medians),
        q95=tuple(q95s),
        consistent=consistent,
    )


@dataclass(frozen=True)
class MaxMomentEstimate:
    """Monte Carlo estimate with jackknife standard error."""

    estimate: float
    standard_error: float
    trials: int


def path_max_squares(paths: np.ndarray) -> np.ndarray:
    """max_k |T_k|^2 for each trial of a (trials, n, dim) path batch."""
    return (paths ** 2).sum(axis=2).max(axis=1)


def jackknife_mean(values: np.ndarray):
    """Mean of the values and its leave-one-out jackknife standard error."""
    mean = float(values.mean())
    count = values.size
    leave_one_out = (float(values.sum()) - values) / (count - 1)
    se = math.sqrt((count - 1) / count * float(((leave_one_out - mean) ** 2).sum()))
    return mean, se


def mc_max_moment(
    chain: ReversibleChain,
    f: Observable,
    w: WeightSequence,
    n: int,
    config: SimConfig,
) -> MaxMomentEstimate:
    """Monte Carlo estimate of E max_{k<=n} |T_k|^2 over stationary runs.

    Trials are deterministic per-trial streams; the thread budget only chunks
    the trial axis, so the estimate is bit-identical for any thread count.
    The standard error is the leave-one-out jackknife of the mean.
    """
    if config.trials < 100:
        raise ValidationError("need at least 100 trials for a usable error bar")
    if n > config.horizon:
        raise ValidationError("n exceeds the configured horizon")
    powers = ChainPowers(chain, f)
    seeds = [config.trial_seed(i) for i in range(config.trials)]
    chunk = max(1, math.ceil(config.trials / config.threads))
    ranges = [
        (lo, min(lo + chunk, config.trials))
        for lo in range(0, config.trials, chunk)
    ]

    def run(bounds):
        lo, hi = bounds
        states = sample_trajectories(chain, n, seeds[lo:hi])
        return path_max_squares(series_paths(chain, f, w, states, powers))

    if config.threads == 1 or len(ranges) == 1:
        pieces = [run(r) for r in ranges]
    else:
        # imported here: no CLI command fans out, and the import costs every
        # process about 0.6 MB
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            pieces = list(pool.map(run, ranges))
    values = np.concatenate(pieces)
    mean, se = jackknife_mean(values)
    return MaxMomentEstimate(estimate=mean, standard_error=se, trials=values.size)


def enumerate_max_moment(
    chain: ReversibleChain, f: Observable, w: WeightSequence, n: int
) -> float:
    """Exact E max_{k<=n} |T_k|^2 by summing over all m^(n+1) stationary paths.

    Only sensible when m^(n+1) is small; used as the cross-check oracle for
    the Monte Carlo estimator.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    table = ChainPowers(chain, f).table(n)
    coeffs = w.eval_range(n)[1:, None]
    steps = np.arange(1, n + 1)
    total = 0.0
    for path in product(range(chain.m), repeat=n + 1):
        prob = chain.stationary[path[0]]
        for a, b in zip(path, path[1:]):
            prob *= chain.transition[a, b]
        if prob == 0.0:
            continue
        running = np.cumsum(coeffs * table[steps, path[1:]], axis=0)
        total += prob * float((running ** 2).sum(axis=1).max())
    return float(total)
