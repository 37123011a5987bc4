"""Seeded trajectory simulation and almost-sure convergence diagnostics.

Every trial owns an RNG stream derived from the master seed and the trial
index by a fixed 64-bit mixer, and results are reduced in trial order, so
outputs depend on the master seed only.  ``reduce_trials`` cuts the trials
into contiguous ranges; one forked worker per range samples its trials and
reduces their series paths into shared memory, and a single range runs
in-process.
"""

from __future__ import annotations

import math
import mmap
import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .finite_prob import ValidationError, _left_sum
from .markov import ChainPowers, Observable, ReversibleChain, power_rows, squared_norms
from .weights import WeightSequence

__all__ = [
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


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, each ending at exactly 1: every draw < 1 finds a state."""
    cum = np.cumsum(p, axis=-1)
    cum[..., -1] = 1.0
    return cum


# Generator.random() returns k * 2**-53 for an integer k, so a cumulative
# value c lies below the draw exactly when floor(c * 2**53) < k.
_DRAW_BITS = 53
# Memory budget of the bucket table, and its widest bucket index.
_TABLE_BYTES = 8 << 20
_MAX_BUCKET_BITS = 16
# Steps drawn and walked at a time; the draws do not depend on it.
_STEP_BLOCK = 2048


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
        self.keys = np.floor(_cumulative(chain.transition) * 2.0 ** _DRAW_BITS).astype(np.int64)
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

        ``draws`` has shape ``(steps, trials)``, in any memory order, and holds
        values of ``Generator.random()``, multiples of 2**-53; row t moves every
        trial one step.  Each step gathers its row of states from the table
        into the output in place.  Trials whose bucket is marked -1 search
        their row's keys.
        """
        steps, trials = draws.shape
        offsets = np.empty((steps, trials), dtype=np.intp)
        # k >> (53 - bits), truncated as astype truncates
        np.multiply(draws, float(1 << self.bits), out=offsets, casting="unsafe")
        offsets *= self.m
        rows = np.empty((steps + 1, trials), dtype=self.table.dtype)
        rows[0] = first
        for t, offset in enumerate(offsets):
            offset += rows[t]
            step = self.table.take(offset, 0, rows[t + 1], "clip")
            if step[step.argmin()] < 0:
                current = rows[t]
                for i in np.flatnonzero(step < 0):
                    k = int(draws[t, i] * 2.0 ** _DRAW_BITS)
                    step[i] = bisect_left(self.key_rows[current[i]], k)
        return rows


def _sample_blocks(chain: ReversibleChain, n: int, seeds):
    """Yield the start states of one trajectory per seed, then its steps in blocks.

    Each trial consumes its own PCG64 stream: one uniform for the stationary
    start, then one per step, ``_STEP_BLOCK`` steps at a time, drawn in place
    into its row of one trial-major buffer whose transpose is walked; the
    consumed values do not depend on the block size.  A draw is u = k * 2**-53
    for an integer k, and the next state is the number of entries c of the
    current row's ``_cumulative`` sums with floor(c * 2**53) < k: the first
    state whose cumulative probability reaches u, decided in integers.  The
    start is the first state whose ``_cumulative`` stationary sum reaches u.

    Each step looks the next states up in a bucket table indexed by the top
    bits of k and the current state; a bucket that holds a key of the row
    marks -1, and only the trials that hit one search the row's keys.  The
    start states have shape ``(trials,)`` and every block is time-major,
    ``(steps, trials)``; both are int16 for chains of at most 2**15 states.
    """
    if n < 0:
        raise ValidationError("horizon must be >= 0")
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    cum_pi = _cumulative(chain.stationary)
    lookup = _StepTable(chain)
    start = np.array([g.random() for g in gens])
    current = np.searchsorted(cum_pi, start, side="left").astype(lookup.table.dtype)
    yield current
    draws = np.empty((len(gens), min(_STEP_BLOCK, n)))  # trial-major
    done = 0
    while done < n:
        block = min(_STEP_BLOCK, n - done)
        for g, row in zip(gens, draws):
            g.random(out=row[:block])
        steps = lookup.walk(current, draws[:, :block].T)[1:]
        yield steps
        current = steps[-1]
        done += block


def sample_trajectories(chain: ReversibleChain, n: int, seeds) -> np.ndarray:
    """Stationary trajectories for several seeds, shape ``(trials, n + 1)``.

    Row t holds the states of the trial of ``seeds[t]``, sampled as
    ``_sample_blocks`` describes and copied out of its time-major blocks.
    """
    blocks = _sample_blocks(chain, n, list(seeds))
    first = next(blocks)
    states = np.empty((first.size, n + 1), dtype=first.dtype)
    states[:, 0] = first
    done = 1
    for block in blocks:
        states[:, done : done + len(block)] = block.T
        done += len(block)
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

    Row t gathers the table rows (Q^j f)(xi_j) of trial t for j = 1..n, scales
    them by the weights and sums them along the path, in place.  The result
    is the only array of that size; commands that only reduce the paths use
    ``reduce_trials`` instead.
    """
    n = states.shape[1] - 1
    if n < 1:
        raise ValidationError("trajectory must have at least one step")
    table = ChainPowers(chain, f).table(n)
    paths = table[power_rows(table, np.arange(1, n + 1)), states[:, 1:]]
    paths *= w.eval_range(n)[1:, None]
    return np.cumsum(paths, axis=1, out=paths)


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
    quantiles to mean anything.  Each window is reduced for a block of
    trials at a time, about ``_PATH_CHUNK`` entries of it.
    """
    arr = np.asarray(paths, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValidationError("paths must have shape (trials, n) or (trials, n, dim)")
    trials, length, dim = arr.shape
    checkpoints = _diagnostic_checkpoints(checkpoints, trials, length)
    squares = np.empty((len(checkpoints), trials))
    for c, out in zip(checkpoints, squares):
        block = max(1, _PATH_CHUNK // ((c + 1) * dim))
        for lo in range(0, trials, block):
            rows = arr[lo : lo + block]
            window = rows[:, c - 1 : 2 * c] - rows[:, c - 1 : c]
            np.max(squared_norms(window), axis=1, out=out[lo : lo + block])
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


# Path entries (rows x trials x dim) built and reduced at a time (512 KB).
_PATH_CHUNK = 1 << 16


def _reduce_blocks(blocks, table, a, checkpoints, max_squares, osc_squares, norms):
    """Reduce the series paths of the trajectories that ``blocks`` streams.

    ``blocks`` yields start states and then time-major state blocks, as
    ``_sample_blocks`` does, for the trials of ``max_squares``;
    ``table`` is a ``ChainPowers`` table, read at row ``min(j, last)`` for
    step j, and ``a = w.eval_range(n)``.  The paths
    are built time-major, ``_PATH_CHUNK`` entries at a time: each chunk
    gathers the table rows of steps j0 .. j1 - 1, scales them by the weights,
    adds the carried T_{j0-1} to its first row and sums along time.  That is
    the sequence of roundings of ``series_paths``, so the results equal
    ``as_convergence_diagnostic`` and the reductions of its paths bit for
    bit.  Writes max_k |T_k|^2 into ``max_squares``, the squared oscillations
    into the ``(len(checkpoints), trials)`` array ``osc_squares``, and |T_k|
    into ``norms[t, k - 1]`` for the first ``norms.shape[0]`` trials.
    """
    m, dim = table.shape[1], table.shape[2]
    flat = table.reshape(-1, dim)  # row j * m + i holds (Q^j f)(i)
    trials = max_squares.size
    rows = max(1, _PATH_CHUNK // (trials * dim))
    buffer = np.empty((rows, trials, dim))
    index = np.empty((rows, trials), dtype=np.intp)
    anchors = np.empty((len(checkpoints), trials, dim))  # T_c of each window
    max_squares.fill(-np.inf)
    osc_squares.fill(-np.inf)
    next(blocks)  # the start states; T_k sums from step 1
    j0 = 1
    for block in blocks:
        for states in np.array_split(block, range(rows, len(block), rows)):
            j1 = j0 + len(states)
            path = buffer[: len(states)]
            steps = power_rows(table, np.arange(j0, j1)) * m
            np.add(states, steps[:, None], out=index[: len(states)])
            np.take(flat, index[: len(states)], axis=0, out=path)
            path *= a[j0:j1, None, None]
            if j0 > 1:
                path[0] += carry
            np.cumsum(path, axis=0, out=path)
            carry = path[-1].copy()
            squares = squared_norms(path)
            np.maximum(max_squares, squares.max(axis=0), out=max_squares)
            for c, anchor, osc in zip(checkpoints, anchors, osc_squares):
                if j0 <= c < j1:
                    anchor[...] = path[c - j0]
                lo, hi = max(c, j0), min(2 * c + 1, j1)
                if lo < hi:
                    window = squared_norms(path[lo - j0 : hi - j0] - anchor)
                    np.maximum(osc, window.max(axis=0), out=osc)
            np.sqrt(squares[:, : norms.shape[0]].T, out=norms[:, j0 - 1 : j1 - 1])
            j0 = j1


def _process_count(workers: int, trials: int) -> int:
    """Processes to fork, one per trial range: ``min(workers, cpu_count, trials)``.

    A count of 1 runs the single range in this process, as it does where
    ``fork`` is unavailable; workers are forked, so that they start without
    pickling the chain or the table of kernel powers.
    """
    count = min(workers, os.cpu_count() or 1, trials)
    if count > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return count
    return 1


def _run_range(conn, job, lo: int, hi: int):
    """Forked worker: run ``job(lo, hi)``, then send how it ended, None or the error."""
    end = None
    try:
        job(lo, hi)
    except Exception as exc:
        end = exc
    conn.send(end)


def _shared_floats(*shapes) -> list:
    """Zero-filled float64 arrays of the given shapes in one anonymous shared ``mmap``.

    Processes forked after the call write into the same pages, so their
    results reach this process without a copy.
    """
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=float)
    ends = np.cumsum([0, *sizes])
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]


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

    The trials are cut into ``count = min(workers, os.cpu_count(), trials)``
    contiguous ranges, and each range is one job: ``_sample_blocks`` feeds
    ``_reduce_blocks``, which writes the range's slices of the results.  The
    weights and the table of kernel powers are computed first.  With a count
    of 1 the job runs in this process, then ``meanwhile`` is called.  With
    two or more, one worker per range is forked and writes into an anonymous
    shared ``mmap`` made before the fork; its pipe carries only how the job
    ended.  This process samples nothing: it calls ``meanwhile``, then waits
    for the ranges in trial order and raises the first error, naming the exit
    code of a worker that died.  Every trial draws from its own seed, so the
    results do not depend on ``workers``.  If anything fails, the workers are
    killed and joined before the error propagates.
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
    a = w.eval_range(n)
    table = powers.table(n)
    max_squares, osc_squares, norms = _shared_floats(
        (trials,), (len(checkpoints), trials), (min(norms_limit, trials), n))

    def job(lo, hi):
        _reduce_blocks(_sample_blocks(powers.chain, n, seeds[lo:hi]), table, a, checkpoints,
                       max_squares[lo:hi], osc_squares[:, lo:hi], norms[lo:hi])

    count = _process_count(workers, trials)
    if count == 1:
        job(0, trials)
        extra = meanwhile() if meanwhile is not None else None
    else:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        bounds = [trials * i // count for i in range(count + 1)]
        started = []
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                reader, writer = context.Pipe(duplex=False)
                worker = context.Process(target=_run_range, args=(writer, job, lo, hi))
                worker.start()
                writer.close()
                started.append((worker, reader))
            extra = meanwhile() if meanwhile is not None else None
            for worker, reader in started:
                try:
                    end = reader.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(f"trial worker exited with code {worker.exitcode}"
                                       " before it finished") from None
                if end is not None:
                    raise end
        except BaseException:
            for worker, _ in started:
                worker.kill()
            raise
        finally:
            for worker, reader in started:
                worker.join()
                reader.close()
    oscillation = _oscillation_table(osc_squares, checkpoints) if checkpoints else None
    return PathReductions(max_squares, oscillation, norms), extra


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
    master_seed: int,
    trials: int,
) -> MaxMomentEstimate:
    """Monte Carlo estimate of E max_{k<=n} |T_k|^2 over stationary runs.

    Trial i samples its own stream from ``derive_trial_seed(master_seed, i)``,
    the seeds ``simulate --master-seed`` uses, and the series paths of all
    trials are built and reduced together, a chunk of steps at a time.  The
    standard error is the leave-one-out jackknife of the mean.
    """
    if trials < MIN_ESTIMATE_TRIALS:
        raise ValidationError(
            f"need at least {MIN_ESTIMATE_TRIALS} trials for a usable error bar"
        )
    seeds = [derive_trial_seed(master_seed, i) for i in range(trials)]
    values = reduce_trials(ChainPowers(chain, f), w, n, seeds)[0].max_squares
    mean, se = jackknife_mean(values)
    return MaxMomentEstimate(estimate=mean, standard_error=se, trials=values.size)


def enumerate_max_moment(
    chain: ReversibleChain, f: Observable, w: WeightSequence, n: int
) -> float:
    """Exact E max_{k<=n} |T_k|^2 by summing over all m^(n+1) stationary paths.

    The paths are enumerated level by level.  At depth k, arrays over the
    live prefixes xi_0 .. xi_k, in lexicographic order, hold each prefix's
    probability, last state, T_k and max_{j<=k} |T_j|^2.  A level extends
    every prefix by every next state and drops those of probability 0, so
    memory follows the paths that can occur: the 3^13 paths of a 3-state
    chain at n = 12 peak at about 115 MB.  The probabilities multiply along the path and the total adds the
    paths in lexicographic order, as a loop over the paths would.  Used as
    the cross-check oracle for the Monte Carlo estimator.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    table = ChainPowers(chain, f).table(n)
    a = w.eval_range(n)
    m = chain.m
    prob, state = chain.stationary, np.arange(m)
    partial, best = np.zeros((m, f.dim)), np.zeros(m)
    for k in range(1, n + 1):
        prob = (prob[:, None] * chain.transition[state]).reshape(-1)
        live = np.flatnonzero(prob)
        parent, state = np.divmod(live, m)
        prob = prob[live]
        partial = partial[parent] + a[k] * table[power_rows(table, k), state]
        best = np.maximum(best[parent], squared_norms(partial))
    return _left_sum(prob * best)
