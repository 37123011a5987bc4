"""The series bound a chunk at a time: the same figures as the whole-array formula.

``series_criterion`` reads b_k from ``coefficient_chunks``, which reads the
weights through ``WeightSequence.eval_chunk``.  Each figure is compared bit
for bit with the partial sums of ``compute_stats(w, n).b * m`` over whole
arrays, at horizons around the chunk size and at 2^16, and the memory the
reducing side of ``simulate`` holds is measured with ``tracemalloc``.
"""

import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from revmax import simulate, weights
from revmax.finite_prob import ValidationError
from revmax.inequalities import series_criterion
from revmax.markov import ChainPowers, Observable, birth_death
from revmax.simulate import derive_trial_seed, reduce_trials
from revmax.weights import WeightSequence, coefficient_chunks, compute_stats

CHUNK = weights._COEFFICIENT_CHUNK
HORIZONS = [1, 7, 8, CHUNK - 1, CHUNK, CHUNK + 1, 1 << 16]


def make_weights(kind: str, n: int) -> WeightSequence:
    if kind == "constant":
        return WeightSequence.constant(1.0)
    if kind == "power":
        return WeightSequence.power(-0.5)
    if kind == "alternating":
        return WeightSequence.alternating(WeightSequence.power(0.3))
    entries = np.random.default_rng(n).standard_normal(4 * n)
    entries[::5] = -0.0
    return WeightSequence.explicit(entries)


def reference(w: WeightSequence, m: np.ndarray, horizon: int):
    """Partial, increments and verdict from the whole-array b of compute_stats."""
    partials = np.cumsum(compute_stats(w, horizon).b[1:] * m[:horizon])
    partial = float(partials[-1])
    if partial == 0.0:
        return partial, (), "converges"
    if horizon < 8:
        return partial, (), "inconclusive"
    half, quarter = float(partials[horizon // 2 - 1]), float(partials[horizon // 4 - 1])
    prev, last = half - quarter, partial - half
    if last <= 1e-14 * (1.0 + partial):
        verdict = "converges"
    elif prev > 0 and last >= 0.6 * prev:
        verdict = "diverges"
    elif prev > 0 and last <= 0.4 * prev:
        verdict = "converges"
    else:
        verdict = "inconclusive"
    return partial, (prev, last), verdict


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("kind", ["constant", "power", "alternating", "explicit"])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_chunked_series_equals_the_whole_array_formula(kind, horizon):
    k = np.arange(1, horizon + 1)
    for m in (0.999 ** k, 1.0 / k ** 2, np.where(k < horizon // 2, 1.0 / k, 0.0)):
        expected = reference(make_weights(kind, horizon), m, horizon)
        got = series_criterion(make_weights(kind, horizon), m, horizon)
        assert bits([got.partial, *got.increments]) == bits([expected[0], *expected[1]])
        assert got.verdict == expected[2]


@pytest.mark.parametrize("kind", ["constant", "power", "alternating", "explicit"])
def test_small_chunks_give_the_same_coefficients(kind, monkeypatch):
    # chunks of 3 coefficients cross every boundary the weights can have
    for n in (1, 2, 3, 4, 50):
        expected = compute_stats(make_weights(kind, n), n).b[1:]
        monkeypatch.setattr(weights, "_COEFFICIENT_CHUNK", 3)
        chunks = list(coefficient_chunks(make_weights(kind, n), n))
        monkeypatch.undo()
        assert [c.size for c in chunks[:-1]] == [3] * (len(chunks) - 1)
        assert bits(np.concatenate(chunks)) == bits(expected)


def test_eval_chunk_is_eval_range_and_keeps_nothing():
    w = WeightSequence.alternating(WeightSequence.power(-0.5))
    chunk = w.eval_chunk(5, 40)
    assert w._prefix.size == 1
    assert bits(chunk) == bits(WeightSequence.alternating(
        WeightSequence.power(-0.5)).eval_range(40)[5:])
    w.eval_range(20)
    assert bits(w.eval_chunk(3, 17)) == bits(w.eval_range(20)[3:18])
    assert bits(w.eval_chunk(15, 30)) == bits(chunk[10:26])
    assert w._prefix.size == 21
    assert not chunk.flags.writeable and not w.eval_chunk(3, 17).flags.writeable
    with pytest.raises(ValidationError, match="1 <= lo <= hi"):
        w.eval_chunk(0, 3)
    with pytest.raises(ValidationError, match="1 <= lo <= hi"):
        w.eval_chunk(4, 3)


@pytest.mark.parametrize("w", [
    WeightSequence.explicit([1.0] * 30), WeightSequence.power(300.0),
], ids=["short-explicit", "overflowing-power"])
def test_weights_that_stop_short_raise_as_compute_stats_does(w):
    with pytest.raises(ValidationError) as expected:
        compute_stats(w, 8)
    with pytest.raises(ValidationError) as got:
        series_criterion(w, np.ones(8), 8)
    assert str(got.value) == str(expected.value)


def test_moment_errors_name_the_first_bad_index_across_chunks(monkeypatch):
    monkeypatch.setattr("revmax.inequalities._SERIES_CHUNK", 4)
    m = np.linspace(1.0, 0.0, 30)
    m[13] = 2.0
    with pytest.raises(ValidationError, match="increase at index 13;"):
        series_criterion(WeightSequence.constant(1.0), m, 30)
    m[29] = -1.0
    with pytest.raises(ValidationError, match="non-negative"):
        series_criterion(WeightSequence.constant(1.0), m, 30)


def quick_blocks(chain, n, seeds):
    """States shaped as ``_sample_blocks`` yields them, without the walk."""
    states = np.arange(simulate._STEP_BLOCK * len(seeds), dtype=np.int16) % chain.m
    yield states[: len(seeds)]
    for done in range(0, n, simulate._STEP_BLOCK):
        steps = min(simulate._STEP_BLOCK, n - done)
        yield states[: steps * len(seeds)].reshape(steps, len(seeds))


def parent_peak(n: int) -> int:
    """Bytes ``tracemalloc`` sees this process hold at most while ``reduce_trials``
    reduces 30 trials of n steps from one forked walker and bounds their series."""
    chain = birth_death([0.3] * 9, [0.3] * 9)
    powers = ChainPowers(chain, Observable(np.arange(10.0) - 4.5))
    w = WeightSequence.power(-0.5)
    seeds = [derive_trial_seed(3, i) for i in range(30)]

    def bound():
        return series_criterion(w, powers.second_moments(n)[1:], n).partial

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reductions, partial = reduce_trials(powers, w, n, seeds, checkpoints=[8, 16, 32],
                                            workers=2, meanwhile=bound)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.isfinite(partial) and reductions.max_squares.shape == (30,)
    return peak


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the walker is forked")
def test_the_reducing_process_holds_a_fixed_set_plus_sixteen_bytes_a_step(monkeypatch):
    # the weights a and the second moments take 8 B a step each; every other
    # array the reducing process holds is a chunk or a block
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_sample_blocks", quick_blocks)
    small, large = parent_peak(1 << 14), parent_peak(1 << 16)
    assert large < 3 << 20
    assert large - small <= 16.5 * ((1 << 16) - (1 << 14))
    assert multiprocessing.active_children() == []
