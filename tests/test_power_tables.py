"""Kernel-power tables at long horizons against a plain ``ndarray.dot`` loop.

The reference fills every row Q^j f, j = 0..n, one ``ndarray.dot`` at a time,
and reduces each row on its own.  ``ChainPowers.table(n)`` may hold fewer
rows than n + 1: power j is read from row ``min(j, rows - 1)``.  Every power,
second moment and autocovariance must equal the reference bit for bit,
before, at and past the row where the powers stop changing.
"""

import os

import numpy as np
import pytest

from revmax.markov import (
    ChainPowers,
    MarkovCheck,
    Observable,
    birth_death,
    dump_chain,
    lazy_ring,
    load_chain,
    make_chain,
    random_chain_instance,
    verify_markov_inequality,
    weighted_series,
)
from revmax.weights import WeightSequence

N = 4096


def reference_rows(chain, f, n):
    rows = np.empty((n + 1, *f.values.shape))
    rows[0] = f.values
    step = chain.transition.dot
    for j in range(1, n + 1):
        step(rows[j - 1], out=rows[j])
    return rows


def stationary_dots(chain, per_state):
    return np.fromiter(map(chain.stationary.dot, per_state), dtype=float)


def read_powers(table, n):
    """Q^j f for j = 0..n from a table, through row ``min(j, rows - 1)``."""
    assert 1 <= table.shape[0] <= n + 1
    return table[np.minimum(np.arange(n + 1), table.shape[0] - 1)]


def assert_matches_reference(chain, f, n, grow_by=()):
    """Table, powers, moments and autocovariances equal the dot loop.

    ``grow_by`` lists horizons asked for first, so the table grows in steps
    before it is asked for n.
    """
    rows = reference_rows(chain, f, n)
    powers = ChainPowers(chain, f)
    for k in grow_by:
        assert read_powers(powers.table(k), k).tobytes() == rows[: k + 1].tobytes()
    assert read_powers(powers.table(n), n).tobytes() == rows.tobytes()
    for j in (0, 1, n // 2, n - 1, n):
        assert powers.get(j).tobytes() == rows[j].tobytes()
    moments = stationary_dots(chain, (rows * rows).sum(axis=-1))
    assert powers.second_moments(n).tobytes() == moments.tobytes()
    covs = stationary_dots(chain, (rows * rows[0]).sum(axis=-1))
    assert powers.autocovariances(n).tobytes() == covs.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_chain_instances(dim):
    for seed in range(100):
        chain, f = random_chain_instance(seed, dim=dim)
        assert_matches_reference(chain, f, N)


@pytest.mark.parametrize("m, up, down", [(10, 0.3, 0.3), (5, 0.1, 0.4), (30, 0.45, 0.05)])
def test_birth_death_chains(m, up, down):
    chain = birth_death([up] * (m - 1), [down] * (m - 1))
    values = np.arange(float(m))
    for f in (Observable(values), Observable(values).centered(chain)):
        assert_matches_reference(chain, f, N, grow_by=(100, 256, 257, 600))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("laziness", [0.0, 1.0])
def test_lazy_rings(m, laziness):
    # laziness 0 with m even is periodic and never repeats a row;
    # laziness 1 is the identity, whose row 1 repeats row 0
    chain = lazy_ring(m, laziness)
    f = Observable(np.random.default_rng(m).standard_normal((m, 2)))
    assert_matches_reference(chain, f, N, grow_by=(300,))


def test_periodic_ring_never_repeats_a_row():
    chain = lazy_ring(4, 0.0)
    f = Observable([1.0, 0.0, 0.0, 0.0])
    table = ChainPowers(chain, f).table(N)
    assert table.shape[0] == N + 1
    assert not any(np.array_equal(a, b) for a, b in zip(table[1:], table[:-1]))


def test_zero_and_constant_observables():
    chain, _ = random_chain_instance(11, m_max=20)
    for f in (Observable(np.zeros((chain.m, 2))), Observable(np.full(chain.m, 3.25))):
        assert_matches_reference(chain, f, N, grow_by=(1, 300))


def benchmark_chains(seed):
    """The birth-death and weighted-graph inputs of the simulate benchmark."""
    bd = load_chain(dump_chain(birth_death([0.3] * 9, [0.3] * 9)))
    values = np.arange(10.0)
    yield bd, Observable(values - bd.stationary @ values)
    wg = load_chain(dump_chain(make_chain("weighted-graph", {"m": 50}, seed=seed)))
    values = np.random.default_rng(seed).standard_normal((50, 2))
    yield wg, Observable(values - wg.stationary @ values)


@pytest.mark.parametrize("seed", [7, 2001])
def test_simulate_benchmark_chains_at_two_to_the_sixteen(seed):
    for chain, f in benchmark_chains(seed):
        assert_matches_reference(chain, f, 1 << 16)


def assert_series_and_stein_match_the_step_loop(chain, f, n):
    """``weighted_series`` through 2n and the Stein lhs equal a loop over all rows."""
    w = WeightSequence.power(-0.5)
    rows = reference_rows(chain, f, 2 * n + 1)
    running, expected = np.zeros_like(f.values), []
    for j in range(1, 2 * n + 1):
        running = running + w.eval(j) * rows[j]
        expected.append(running)
    partial, _ = weighted_series(ChainPowers(chain, f), w, 2 * n)
    assert partial.tobytes() == np.stack(expected).tobytes()
    scalar = Observable(f.values[:, 0])
    best = (reference_rows(chain, scalar, 2 * n + 1)[2:] ** 2).sum(axis=2).max(axis=0)
    rec = verify_markov_inequality(MarkovCheck.STEIN, chain, scalar, n)
    assert rec.lhs == float(chain.stationary @ best)


def test_series_and_stein_past_the_fixed_point():
    for seed in range(20):
        assert_series_and_stein_match_the_step_loop(*random_chain_instance(seed), 300)
    for chain, f in benchmark_chains(7):
        assert_series_and_stein_match_the_step_loop(chain, f, 1500)


def test_birth_death_table_stops_at_its_fixed_point():
    chain, f = next(benchmark_chains(7))
    table = ChainPowers(chain, f).table(1 << 16)
    assert table.shape[0] < 4096
    assert np.array_equal(chain.transition.dot(table[-1]), table[-1])


def resident_bytes(address):
    """Resident size of the mapping of this process that holds ``address``."""
    inside = False
    with open("/proc/self/smaps", encoding="ascii") as smaps:
        for line in smaps:
            fields = line.split()
            if "-" in fields[0] and len(fields) >= 5:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                inside = start <= address < end
            elif inside and fields[0] == "Rss:":
                return int(fields[1]) * 1024
    raise AssertionError(f"no mapping holds {address:#x}")


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads /proc/self/smaps")
def test_rows_past_a_cut_take_no_memory_after_a_large_free():
    # freeing a large mapped block raises glibc's mmap threshold, after which a
    # table of 2^16 + 1 rows from np.empty would sit in the heap among pages
    # already resident, and the simulate benchmark's peak moved with code layout
    np.ones(8 << 20, dtype=np.uint8)  # mapped, filled and freed at once
    for chain, f in benchmark_chains(7):
        table = ChainPowers(chain, f).table(1 << 16)
        written = (table.shape[0] + 256) * table[0].nbytes
        assert resident_bytes(table.__array_interface__["data"][0]) <= 2 * written + (64 << 10)


def test_short_tables_are_never_searched():
    # f = 0 repeats from row 1, but a table of 256 rows or fewer holds every row
    chain, _ = random_chain_instance(11, m_max=20)
    powers = ChainPowers(chain, Observable(np.zeros(chain.m)))
    assert powers.table(255).shape[0] == 256
    assert powers.table(256).shape[0] == 1
