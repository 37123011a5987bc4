"""Seeded trajectory simulation and almost-sure convergence diagnostics.

Every trial owns an RNG stream derived from the master seed and the trial
index by a fixed 64-bit mixer, and results are reduced in trial order, so
outputs depend on the master seed only.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .finite_prob import ValidationError
from .markov import ChainPowers, Observable, ReversibleChain, squared_norms
from .weights import WeightSequence

__all__ = [
    "SimConfig",
    "derive_trial_seed",
    "sample_trajectory",
    "sample_trajectories",
    "series_path",
    "series_paths",
    "OscillationTable",
    "as_convergence_diagnostic",
    "PathReductions",
    "reduce_trials",
    "MaxMomentEstimate",
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
    """Simulation run parameters: the master seed, trial count and horizon."""

    master_seed: int
    trials: int
    horizon: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")

    def trial_seed(self, index: int) -> int:
        return derive_trial_seed(self.master_seed, index)


def _cumulative_rows(chain: ReversibleChain) -> np.ndarray:
    cum = np.cumsum(chain.transition, axis=1)
    cum[:, -1] = 1.0
    return cum


# Generator.random() returns k * 2**-53 for an integer k, so a cumulative
# value c lies below the draw exactly when floor(c * 2**53) < k.
_DRAW_BITS = 53
# Memory budget of the bucket table, and its widest bucket index.
_TABLE_BYTES = 8 << 20
_MAX_BUCKET_BITS = 16
# Steps drawn and walked at a time; the draws do not depend on it.
_STEP_BLOCK = 4096


def _state_dtype(m: int):
    """Smallest signed integer type holding every state and the -1 mark."""
    return np.int16 if m <= 1 << 15 else np.int32


class _StepTable:
    """Exact next-state lookup for the draws of ``Generator.random()``.

    ``keys[i, j] = floor(c * 2**53)`` for the cumulative value c of row i at
    state j, so a draw k * 2**-53 moves state i to the number of keys of row
    i below k.  The flat, bucket-major ``table`` answers that from the top
    ``bits`` bits of k: entry ``h * m + i`` is the next state from i for
    every k with ``k >> (53 - bits) == h``, or -1 where a key of row i falls
    in bucket h itself.  ``m * 2**bits`` is capped so the table stays within
    ``_TABLE_BYTES``.
    """

    def __init__(self, chain: ReversibleChain):
        m = chain.m
        self.m = m
        self.keys = np.floor(_cumulative_rows(chain) * 2.0 ** _DRAW_BITS).astype(np.int64)
        self.key_rows = self.keys.tolist()
        dtype = _state_dtype(m)
        entries = _TABLE_BYTES // np.dtype(dtype).itemsize // m
        self.bits = bits = min(_MAX_BUCKET_BITS, max(entries.bit_length() - 1, 0))
        size = 1 << bits
        table = np.empty((size, m), dtype=dtype)
        for i, row in enumerate(self.keys):
            buckets = row >> (_DRAW_BITS - bits)  # non-decreasing, like the row
            marked = np.unique(buckets[buckets < size])
            # between two marked buckets the state is the count of keys below
            values = np.full(2 * marked.size + 1, -1, dtype=dtype)
            values[0] = 0
            values[2::2] = np.searchsorted(buckets, marked, side="right")
            lengths = np.ones(2 * marked.size + 1, dtype=np.intp)
            lengths[0::2] = np.diff(marked, prepend=-1, append=size) - 1
            table[:, i] = np.repeat(values, lengths)
        self.table = table.reshape(-1)

    def walk(self, first: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """States ``(steps + 1, trials)`` from ``first`` through ``draws``.

        ``draws`` has shape ``(steps, trials)`` and holds values of
        ``Generator.random()``, multiples of 2**-53; row t moves every trial
        one step.  Trials whose bucket is marked -1 search their row's keys.
        """
        offsets = (draws * float(1 << self.bits)).astype(np.intp)  # k >> (53 - bits)
        offsets *= self.m
        out = np.empty((draws.shape[0] + 1, draws.shape[1]), dtype=self.table.dtype)
        out[0] = first
        for t, offset in enumerate(offsets):
            current = out[t]
            step = self.table[offset + current]
            if step[step.argmin()] < 0:
                for i in np.flatnonzero(step < 0):
                    k = int(draws[t, i] * 2.0 ** _DRAW_BITS)
                    step[i] = bisect_left(self.key_rows[current[i]], k)
            out[t + 1] = step
        return out


def sample_trajectories(chain: ReversibleChain, n: int, seeds) -> np.ndarray:
    """Stationary trajectories for several seeds, one row per seed.

    Each row consumes its own PCG64 stream: one uniform for the stationary
    start, then one per step, ``_STEP_BLOCK`` steps at a time; the consumed
    values do not depend on the block size.  A draw is u = k * 2**-53 for an
    integer k, and the next state is the number of entries c of the current
    cumulative row (the row's running sum, its last entry set to 1) with
    floor(c * 2**53) < k.  That is the first state whose cumulative
    probability reaches u, decided in integers.

    Each step looks the next states up in a bucket table indexed by the top
    bits of k and the current state; a bucket that holds a key of the row
    marks -1, and only the trials that hit one search the row's keys.  Each
    block of steps is built time-major and then copied into the
    ``(trials, n + 1)`` result, which is int16 for chains of at most 2**15
    states.
    """
    if n < 0:
        raise ValidationError("horizon must be >= 0")
    seeds = list(seeds)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    cum_pi = np.cumsum(chain.stationary)
    cum_pi[-1] = 1.0
    lookup = _StepTable(chain)
    states = np.empty((len(seeds), n + 1), dtype=lookup.table.dtype)
    start = np.array([g.random() for g in gens])
    states[:, 0] = np.searchsorted(cum_pi, start, side="left")
    done = 0
    while done < n:
        block = min(_STEP_BLOCK, n - done)
        draws = np.stack([g.random(block) for g in gens], axis=1)
        steps = lookup.walk(states[:, done], draws)
        states[:, done + 1 : done + block + 1] = steps[1:].T
        done += block
    return states


def sample_trajectory(chain: ReversibleChain, n: int, seed: int) -> np.ndarray:
    """Read-only states xi_0 .. xi_n of one stationary run, fixed by the seed."""
    states = sample_trajectories(chain, n, [seed])[0]
    states.flags.writeable = False
    return states


def series_path(
    chain: ReversibleChain, f: Observable, w: WeightSequence, states: np.ndarray
) -> np.ndarray:
    """Partial sums T_k = sum_{j<=k} a_j (Q^j f)(xi_j) of one run, shape (n, dim)."""
    return series_paths(chain, f, w, states[None, :])[0]


def series_paths(
    chain: ReversibleChain, f: Observable, w: WeightSequence, states: np.ndarray
) -> np.ndarray:
    """Partial-sum paths for a batch of trajectories, shape (trials, n, dim).

    Each trial's path is copied into its row of the result; commands that
    only reduce the paths use ``reduce_trials`` instead.
    """
    n = _steps(states)
    out = np.empty((states.shape[0], n, f.dim))
    for row, path in zip(out, _each_path(w.eval_range(n), states, ChainPowers(chain, f))):
        row[...] = path
    return out


def _steps(states: np.ndarray) -> int:
    n = states.shape[1] - 1
    if n < 1:
        raise ValidationError("trajectory must have at least one step")
    return n


def _each_path(a, states, powers):
    """Yield each trial's partial-sum path for the weights ``a = w.eval_range(n)``.

    The trial's table rows are gathered, scaled by the weights and summed
    along the path in place.  Every trial reuses one ``(n, dim)`` buffer, so
    a yielded path lasts until the next one.
    """
    n = _steps(states)
    table = powers.table(n)
    flat = table.reshape(-1, table.shape[2])  # row j * m + i holds (Q^j f)(i)
    steps = np.arange(1, n + 1) * powers.chain.m
    weights = a[1:, None]
    path = np.empty((n, table.shape[2]))
    index = np.empty(n, dtype=np.intp)
    for trial in states:
        np.add(steps, trial[1:], out=index)
        np.take(flat, index, axis=0, out=path)
        path *= weights
        np.cumsum(path, axis=0, out=path)
        yield path


# A diagnostic threshold, not a theorem: finite runs cannot certify
# almost-sure convergence, only exhibit or break the expected Cauchy trend.
DECAY_FACTOR = 1.2
# Fewest trials whose oscillation quantiles, or whose jackknife error bar,
# mean anything.
MIN_DIAGNOSTIC_TRIALS = 30
MIN_ESTIMATE_TRIALS = 100


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
    checkpoints = _diagnostic_checkpoints(checkpoints, trials, length)
    squares = np.empty((len(checkpoints), trials))
    for t, path in enumerate(arr):
        _oscillation_squares(path, checkpoints, squares[:, t])
    return _oscillation_table(squares, checkpoints)


def _diagnostic_checkpoints(checkpoints, trials: int, length: int) -> list:
    if trials < MIN_DIAGNOSTIC_TRIALS:
        raise ValidationError(f"need at least {MIN_DIAGNOSTIC_TRIALS} trials, got {trials}")
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ValidationError("need at least one checkpoint")
    for c in checkpoints:
        if c < 1 or 2 * c > length:
            raise ValidationError(
                f"checkpoint {c} needs path length >= {2 * c}, have {length}"
            )
    return checkpoints


def _oscillation_squares(path: np.ndarray, checkpoints, out: np.ndarray):
    """``out[i] = max_{c<=k<=2c} |T_k - T_c|^2`` of one path, c = checkpoints[i]."""
    for i, c in enumerate(checkpoints):
        window = path[c - 1 : 2 * c] - path[c - 1]
        out[i] = squared_norms(window).max()


def _oscillation_table(squares: np.ndarray, checkpoints) -> OscillationTable:
    """Quantiles and trend verdict from ``(checkpoints, trials)`` squared oscillations."""
    # the root of the max is the max of the roots bit for bit, since sqrt is
    # correctly rounded and monotone
    osc = np.sqrt(squares)
    medians = [float(np.quantile(row, 0.5)) for row in osc]
    q95s = [float(np.quantile(row, 0.95)) for row in osc]
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
class PathReductions:
    """The per-trial reductions of a batch of series paths.

    ``max_squares[t]`` is max_k |T_k|^2 of trial t, ``oscillation`` the
    diagnostic at the requested checkpoints (None without any), and
    ``norms[t, k - 1]`` is |T_k| for each of the first ``norms.shape[0]``
    trials.
    """

    max_squares: np.ndarray
    oscillation: OscillationTable | None
    norms: np.ndarray


def _reduce_paths(a, states, powers, checkpoints, norms_rows: int):
    """Max squares, oscillation squares and the first ``norms_rows`` norm rows.

    Each trajectory's series path is built and reduced in turn, so one path
    is held at a time.  Returns arrays of shapes ``(trials,)``,
    ``(len(checkpoints), trials)`` and ``(norms_rows, n)``.
    """
    trials, n = states.shape[0], _steps(states)
    max_squares = np.empty(trials)
    osc_squares = np.empty((len(checkpoints), trials))
    norms = np.empty((norms_rows, n))
    for t, path in enumerate(_each_path(a, states, powers)):
        squares = squared_norms(path)
        max_squares[t] = squares.max()
        _oscillation_squares(path, checkpoints, osc_squares[:, t])
        if t < norms_rows:
            np.sqrt(squares, out=norms[t])
    return max_squares, osc_squares, norms


def _combine(parts, checkpoints) -> PathReductions:
    """Join per-range ``_reduce_paths`` results, given in trial order."""
    max_squares, osc_squares, norms = zip(*parts)
    oscillation = None
    if checkpoints:
        oscillation = _oscillation_table(np.concatenate(osc_squares, axis=1), checkpoints)
    return PathReductions(np.concatenate(max_squares), oscillation, np.concatenate(norms))


def _sample_and_reduce(powers, a, n, seeds, checkpoints, norms_limit, lo, hi):
    """``_reduce_paths`` of the trajectories of trials lo .. hi - 1."""
    states = sample_trajectories(powers.chain, n, seeds[lo:hi])
    norms_rows = max(0, min(hi, norms_limit) - lo)
    return _reduce_paths(a, states, powers, checkpoints, norms_rows)


def _range_count(workers: int, trials: int) -> int:
    """Ranges to split the trials into: ``min(workers, cpu_count, trials)``.

    Workers are forked, so that they share the parent's table of kernel
    powers; where ``fork`` is unavailable every trial runs in-process.
    """
    count = min(workers, os.cpu_count() or 1, trials)
    if count > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return count
    return 1


# The range job of the reduce_trials call that forked this worker process.
_worker_job = None


def _adopt_job(job):
    global _worker_job
    _worker_job = job


def _run_adopted_job(lo: int, hi: int):
    return _worker_job(lo, hi)


def _run_ranges(job, bounds, meanwhile):
    """``[job(lo, hi) for each range]`` in forked workers, and ``meanwhile()`` here.

    The job reaches the workers through the fork, not by pickling; only the
    range bounds and the per-range results travel between the processes.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        len(bounds) - 1, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_job, initargs=(job,),
    ) as pool:
        futures = [pool.submit(_run_adopted_job, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        extra = meanwhile() if meanwhile is not None else None
        return [future.result() for future in futures], extra


def reduce_trials(
    powers: ChainPowers,
    w: WeightSequence,
    n: int,
    seeds,
    checkpoints=(),
    norms_limit: int = 0,
    workers: int = 1,
    meanwhile=None,
):
    """Sample one trajectory of ``powers.chain`` per seed and reduce its series path.

    Returns ``(reductions, extra)``, where ``extra`` is ``meanwhile()``, or
    None without it.  With ``paths = series_paths(chain, f, w, states)`` on
    ``states = sample_trajectories(chain, n, seeds)``, the reductions equal
    ``(paths ** 2).sum(axis=2).max(axis=1)``, ``as_convergence_diagnostic``
    and ``np.linalg.norm(paths[:norms_limit], axis=2)`` bit for bit.

    The trials are split into ``min(workers, os.cpu_count(), trials)``
    contiguous ranges.  A single range runs in this process, and
    ``meanwhile`` after it.  With two or more, every range runs in a forked
    worker process of its own, one worker per range, which samples and
    reduces it; this process samples nothing and only calls ``meanwhile``
    while it waits.  Every trial draws from its own seed and the ranges are
    joined in trial order, so the results do not depend on ``workers``.  The
    weights are evaluated here before any sampling.  Before any fork the
    table of kernel powers is built here, and the workers read it without
    copying; a single range builds it after sampling, when the sampler's
    buffers are gone.
    """
    seeds = list(seeds)
    trials = len(seeds)
    if trials < 1:
        raise ValidationError("need at least one trial")
    if n < 1:
        raise ValidationError("trajectory must have at least one step")
    if norms_limit < 0:
        raise ValidationError(f"norms limit must be >= 0, got {norms_limit}")
    checkpoints = _diagnostic_checkpoints(checkpoints, trials, n) if len(checkpoints) else []
    job = partial(_sample_and_reduce, powers, w.eval_range(n), n, seeds, checkpoints,
                  norms_limit)
    count = _range_count(workers, trials)
    if count == 1:
        parts = [job(0, trials)]
        extra = meanwhile() if meanwhile is not None else None
    else:
        powers.table(n)
        bounds = [trials * i // count for i in range(count + 1)]
        parts, extra = _run_ranges(job, bounds, meanwhile)
    return _combine(parts, checkpoints), extra


@dataclass(frozen=True)
class MaxMomentEstimate:
    """Monte Carlo estimate with jackknife standard error."""

    estimate: float
    standard_error: float
    trials: int


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

    Each trial samples its own seeded stream, and the series paths are built
    and reduced one at a time, in trial order.  The standard error is the
    leave-one-out jackknife of the mean.
    """
    if config.trials < MIN_ESTIMATE_TRIALS:
        raise ValidationError(
            f"need at least {MIN_ESTIMATE_TRIALS} trials for a usable error bar"
        )
    if n > config.horizon:
        raise ValidationError("n exceeds the configured horizon")
    seeds = [config.trial_seed(i) for i in range(config.trials)]
    values = reduce_trials(ChainPowers(chain, f), w, n, seeds)[0].max_squares
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
