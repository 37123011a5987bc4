import json
import multiprocessing
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from revmax import (
    Observable,
    ValidationError,
    WeightSequence,
    as_convergence_diagnostic,
    birth_death,
    derive_trial_seed,
    enumerate_max_moment,
    mc_max_moment,
    random_chain_instance,
    sample_trajectories,
    series_paths,
    two_state,
    weighted_graph,
)
from revmax import simulate
from revmax.markov import ChainPowers, ReversibleChain, lazy_ring, load_chain, load_observable
from revmax.simulate import reduce_trials, sample_trajectory, series_path
from revmax.weights import compute_stats


DATA = Path(__file__).parent / "data" / "simulate"


def graph_instance():
    """The 50-state weighted graph and its centered dim-2 observable."""
    chain = load_chain(json.loads((DATA / "graph.json").read_text()))
    f = load_observable(json.loads((DATA / "graph-f.json").read_text()))
    return chain, f


def first_reaching(cum, u):
    """The first state whose cumulative probability reaches the draw u."""
    return next(j for j, c in enumerate(cum) if c >= u)


def cumulative_rows(chain):
    return [list(np.cumsum(row)[:-1]) + [1.0] for row in chain.transition]


def reference_trajectories(chain, n, seeds):
    """The documented sampling rule, one trial and one step at a time.

    Each trial draws its start and then one uniform per step from its own
    PCG64 stream, and moves to the first state whose cumulative probability
    (the row's running sum, its last entry set to 1) reaches the draw.
    """

    cum_pi = list(np.cumsum(chain.stationary)[:-1]) + [1.0]
    cum_rows = cumulative_rows(chain)
    out = []
    for seed in seeds:
        gen = np.random.Generator(np.random.PCG64(seed))
        state = first_reaching(cum_pi, gen.random())
        path = [state]
        for _ in range(n):
            state = first_reaching(cum_rows[state], gen.random())
            path.append(state)
        out.append(path)
    return np.array(out)


class TestSeedDerivation:
    def test_frozen_reference_values(self):
        # first outputs of the SplitMix64 stream; (0, 0) is the canonical
        # 0xE220A8397B1DCDAF from the reference implementation
        assert derive_trial_seed(0, 0) == 16294208416658607535
        assert derive_trial_seed(0, 1) == 7960286522194355700
        assert derive_trial_seed(12345, 0) == 2454886589211414944
        assert derive_trial_seed(2**64 - 1, 7) == 4638043754431676516

    def test_matches_documented_formula(self):
        def reference(master, index):
            mask = (1 << 64) - 1
            z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        rng = np.random.default_rng(1)
        for _ in range(50):
            master = int(rng.integers(0, 2**63))
            index = int(rng.integers(0, 10_000))
            assert derive_trial_seed(master, index) == reference(master, index)

    def test_distinct_across_trials(self):
        seeds = {derive_trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestTrajectories:
    def test_identity_kernel_is_constant(self):
        chain = lazy_ring(5, 1.0)
        traj = sample_trajectory(chain, 50, seed=3)
        assert np.all(traj == traj[0])

    def test_deterministic_in_seed(self):
        chain = two_state(0.25, 0.25)
        a = sample_trajectory(chain, 200, seed=11)
        b = sample_trajectory(chain, 200, seed=11)
        np.testing.assert_array_equal(a, b)
        assert not a.flags.writeable

    def test_batch_rows_match_single_runs(self):
        chain, _ = random_chain_instance(5, m_max=8)
        seeds = [7, 8, 9]
        batch = sample_trajectories(chain, 64, seeds)
        for row, seed in zip(batch, seeds):
            np.testing.assert_array_equal(row, sample_trajectory(chain, 64, seed))

    def test_block_size_never_changes_the_draw(self, monkeypatch):
        chain, _ = random_chain_instance(13, m_max=6)
        b = sample_trajectories(chain, 100, [1, 2])
        monkeypatch.setattr(simulate, "_STEP_BLOCK", 7)
        a = sample_trajectories(chain, 100, [1, 2])
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("step_block", [7, 4096])
    def test_matches_stepwise_reference_loop(self, step_block, monkeypatch):
        monkeypatch.setattr(simulate, "_STEP_BLOCK", step_block)
        chains = [random_chain_instance(seed, m_max=60)[0] for seed in range(20)]
        chains += [lazy_ring(m, 0.0) for m in (2, 9, 200)]
        # zero-probability moves repeat cumulative values within each row
        chains.append(birth_death([0.3, 0.5, 0.0001, 0.2], [0.25, 0.5, 0.4, 0.1]))
        seeds = [derive_trial_seed(6, i) for i in range(4)]
        for chain in chains:
            got = sample_trajectories(chain, 300, seeds)
            np.testing.assert_array_equal(got, reference_trajectories(chain, 300, seeds))

    def test_chain_too_large_for_int16_uses_int32(self, monkeypatch):
        assert simulate._state_dtype(2**15) is np.int16
        assert simulate._state_dtype(2**15 + 1) is np.int32
        # a dense chain of 2**15 + 1 states does not fit in memory here, so the
        # int32 path runs on a small chain
        monkeypatch.setattr(simulate, "_state_dtype", lambda m: np.int32)
        monkeypatch.setattr(simulate, "_STEP_BLOCK", 64)
        chain, _ = random_chain_instance(3, m_max=40)
        seeds = [derive_trial_seed(2, i) for i in range(5)]
        got = sample_trajectories(chain, 200, seeds)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, reference_trajectories(chain, 200, seeds))


    def test_stay_probability_matches_kernel(self):
        chain = two_state(0.25, 0.25)
        traj = sample_trajectory(chain, 100_000, seed=2024)
        stays = float(np.mean(traj[1:] == traj[:-1]))
        se = np.sqrt(0.75 * 0.25 / 100_000)
        assert abs(stays - 0.75) <= 3 * se

    def test_start_follows_stationary_law(self):
        chain = two_state(0.2, 0.6)  # stationary (0.75, 0.25)
        starts = sample_trajectories(chain, 0, range(20_000))[:, 0]
        frac = float(np.mean(starts == 0))
        assert abs(frac - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / 20_000)


class TestStepTable:
    @staticmethod
    def walk_reference(chain, first, draws):
        rows = cumulative_rows(chain)
        out = [list(first)]
        for draw in draws:
            out.append([first_reaching(rows[s], u) for s, u in zip(out[-1], draw)])
        return np.array(out)

    def test_two_keys_in_one_bucket_fall_back_to_the_keys(self):
        eps = 1e-9  # cumulative 0.5 and 0.5 + eps share the bucket of 0.5
        Q = [[0.5, eps, 0.5 - eps], [eps, 0.5, 0.5 - eps], [0.5 - eps, 0.5 - eps, 2 * eps]]
        chain = ReversibleChain(Q, [1 / 3, 1 / 3, 1 / 3])
        table = simulate._StepTable(chain)
        bucket = 1 << (table.bits - 1)
        assert table.keys[0, 0] >> (53 - table.bits) == bucket
        assert table.keys[0, 1] >> (53 - table.bits) == bucket
        assert table.table[bucket * chain.m] == -1
        draws = np.array([[0.5, 0.5 + eps / 2, 0.5 + 2 * eps, 0.5 - 2.0 ** -53]])
        first = np.zeros(4, dtype=np.int64)
        got = table.walk(first, draws)
        np.testing.assert_array_equal(got, [[0, 0, 0, 0], [0, 1, 2, 0]])
        np.testing.assert_array_equal(got, self.walk_reference(chain, first, draws))

    def test_cumulative_value_on_a_dyadic_draw(self):
        chain = two_state(0.75, 0.25)  # row 0 is (0.25, 0.75): cumulative 0.25
        table = simulate._StepTable(chain)
        ulp = 2.0 ** -53
        draws = np.array([[0.0, 0.25 - ulp, 0.25, 0.25 + ulp, 0.5, 1.0 - ulp]])
        first = np.zeros(6, dtype=np.int64)
        got = table.walk(first, draws)
        np.testing.assert_array_equal(got[1], [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(got, self.walk_reference(chain, first, draws))

    def test_random_walks_match_the_reference(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            chain, _ = random_chain_instance(seed, m_max=30)
            first = rng.integers(0, chain.m, 16)
            draws = rng.random((40, 16))
            # draws of the form k * 2**-53 at and just above cumulative values
            cum = np.array(cumulative_rows(chain))
            picks = cum[rng.integers(0, chain.m, (40, 16)), rng.integers(0, chain.m, (40, 16))]
            grid = np.minimum(np.floor(picks * 2.0 ** 53), 2.0 ** 53 - 2) * 2.0 ** -53
            draws[::3] = grid[::3]
            draws[1::3] = grid[1::3] + 2.0 ** -53
            got = simulate._StepTable(chain).walk(first, draws)
            np.testing.assert_array_equal(got, self.walk_reference(chain, first, draws))

    @pytest.mark.parametrize("m", [1, 2, 3, 50, 64, 65, 200, 1000])
    def test_table_stays_within_eight_megabytes(self, m):
        chain = lazy_ring(m, 0.5) if m > 1 else ReversibleChain([[1.0]], [1.0])
        table = simulate._StepTable(chain)
        assert table.table.nbytes <= 8 << 20
        assert table.table.size == m << table.bits

    def test_build_allocates_little_beyond_the_table(self):
        import tracemalloc

        chain = weighted_graph(np.ones((50, 50)))
        tracemalloc.start()
        try:
            table = simulate._StepTable(chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.table.nbytes == 50 << 17
        assert peak <= table.table.nbytes + (1 << 20)

class TestSeriesPath:
    def test_zero_weights_give_zero(self):
        chain, f = random_chain_instance(17, m_max=6)
        traj = sample_trajectory(chain, 32, seed=5)
        path = series_path(chain, f, WeightSequence.constant(0.0), traj)
        np.testing.assert_array_equal(path, 0.0)

    def test_identity_kernel_accumulates_weights(self):
        chain = lazy_ring(3, 1.0)
        f = Observable([2.0, -1.0, 0.5])
        w = WeightSequence.power(-0.5)
        traj = sample_trajectory(chain, 16, seed=9)
        path = series_path(chain, f, w, traj)
        sums = np.cumsum([w.eval(j) for j in range(1, 17)])
        expected = sums[:, None] * f.values[traj[0]]
        np.testing.assert_allclose(path, expected, atol=1e-13)

    def test_cumulative_matches_termwise_recomputation(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        w = WeightSequence.alternating(WeightSequence.power(-0.5))
        traj = sample_trajectory(chain, 40, seed=21)
        path = series_path(chain, f, w, traj)
        powers = ChainPowers(chain, f)
        for k in (1, 7, 23, 40):
            direct = sum(
                w.eval(j) * powers.get(j)[traj[j]] for j in range(1, k + 1)
            )
            np.testing.assert_allclose(path[k - 1], direct, atol=1e-13)

    def test_states_layout_never_changes_the_paths(self):
        chain, f = random_chain_instance(71, m_max=9, dim=2)
        w = WeightSequence.power(-0.5)
        states = sample_trajectories(chain, 40, [1, 2, 3])
        assert states.flags.c_contiguous and states.shape == (3, 41)
        time_major = np.ascontiguousarray(states.T).T
        np.testing.assert_array_equal(
            series_paths(chain, f, w, time_major), series_paths(chain, f, w, states)
        )
        wide = states.astype(np.int64)
        np.testing.assert_array_equal(
            series_paths(chain, f, w, wide), series_paths(chain, f, w, states)
        )

    def test_batch_matches_per_trajectory(self):
        for dim in (1, 2):
            chain, f = random_chain_instance(23, m_max=7, dim=dim)
            w = WeightSequence.power(-0.5)
            states = sample_trajectories(chain, 32, [4, 5])
            batch = series_paths(chain, f, w, states)
            for row, state_row in zip(batch, states):
                single = series_path(chain, f, w, state_row)
                np.testing.assert_array_equal(row, single)

    @pytest.mark.parametrize("spec", [
        WeightSequence.power(-0.5),
        WeightSequence.alternating(WeightSequence.constant(1.0)),
        WeightSequence.explicit(np.linspace(2.0, -1.0, 48).tolist()),
    ])
    def test_batch_equals_the_stepwise_sums_bit_for_bit(self, spec):
        chain, f = random_chain_instance(29, m_max=9, dim=2)
        states = sample_trajectories(chain, 48, [1, 2, 3])
        image, running = f.values, np.zeros((3, f.dim))
        expected = []
        for j in range(1, 49):
            image = chain.transition @ image
            running = running + spec.eval(j) * image[states[:, j]]
            expected.append(running)
        paths = series_paths(chain, f, spec, states)
        np.testing.assert_array_equal(paths, np.stack(expected, axis=1))


class TestOscillationDiagnostic:
    def run_paths(self, chain, f, w, n, trials, master):
        seeds = [derive_trial_seed(master, i) for i in range(trials)]
        states = sample_trajectories(chain, n, seeds)
        return series_paths(chain, f, w, states)

    def test_decaying_weights_on_gapped_chain_look_convergent(self):
        chain = birth_death([0.3] * 9, [0.3] * 9)
        f = Observable(np.arange(10.0)).centered(chain)
        paths = self.run_paths(chain, f, WeightSequence.power(-0.5), 512, 40, 1)
        table = as_convergence_diagnostic(paths, [32, 64, 128, 256])
        assert table.consistent
        assert table.q95[-1] < table.q95[0]

    def test_unit_mass_with_flat_weights_fails_the_trend(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.5, -0.5])  # mean 0.5: unit-eigenvalue mass
        paths = self.run_paths(chain, f, WeightSequence.constant(1.0), 512, 40, 2)
        table = as_convergence_diagnostic(paths, [32, 64, 128, 256])
        assert not table.consistent

    def test_zero_weights_count_as_consistent(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        paths = self.run_paths(chain, f, WeightSequence.constant(0.0), 256, 40, 3)
        table = as_convergence_diagnostic(paths, [16, 32, 64, 128])
        assert table.consistent
        assert all(q == 0.0 for q in table.q95)

    @pytest.mark.parametrize("chunk", [1 << 17, 100])  # one block of trials, or many
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_matches_the_full_array_formula_bit_for_bit(self, dim, chunk, monkeypatch):
        monkeypatch.setattr(simulate, "_PATH_CHUNK", chunk)
        chain, f = random_chain_instance(61, m_max=12, dim=dim)
        paths = self.run_paths(chain, f, WeightSequence.power(-0.5), 256, 33, 6)
        checkpoints = [8, 16, 32, 64, 128]
        table = as_convergence_diagnostic(paths, checkpoints)
        for c, median, q95 in zip(checkpoints, table.median, table.q95):
            window = paths[:, c - 1 : 2 * c] - paths[:, c - 1 : c]
            osc = np.linalg.norm(window, axis=2).max(axis=1)
            assert median == float(np.quantile(osc, 0.5))
            assert q95 == float(np.quantile(osc, 0.95))

    def test_reduces_a_block_of_trials_at_a_time(self):
        # one window of all 200 trials at checkpoint 2**13 would take 26.2 MB,
        # and its squared norms 13.1 MB more
        paths = np.random.default_rng(5).standard_normal((200, 2 ** 14, 2))
        tracemalloc.start()
        try:
            as_convergence_diagnostic(paths, [2 ** k for k in range(3, 14)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_too_few_trials_rejected(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        paths = self.run_paths(chain, f, WeightSequence.constant(1.0), 64, 10, 4)
        with pytest.raises(ValidationError, match="30 trials"):
            as_convergence_diagnostic(paths, [16, 32])

    def test_checkpoint_needs_doubled_horizon(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        paths = self.run_paths(chain, f, WeightSequence.constant(1.0), 64, 32, 5)
        with pytest.raises(ValidationError, match="length"):
            as_convergence_diagnostic(paths, [40])


def batch_reductions(chain, f, w, n, seeds, checkpoints, norms_limit):
    """The reductions of the full path array of the sampled batch."""
    paths = series_paths(chain, f, w, sample_trajectories(chain, n, seeds))
    oscillation = as_convergence_diagnostic(paths, checkpoints) if checkpoints else None
    return ((paths ** 2).sum(axis=2).max(axis=1), oscillation,
            np.linalg.norm(paths[:norms_limit], axis=2))


def assert_reductions_equal(out, expected):
    max_squares, oscillation, norms = expected
    np.testing.assert_array_equal(out.max_squares, max_squares)
    assert out.oscillation == oscillation
    np.testing.assert_array_equal(out.norms, norms)


class TestPathReductions:
    @pytest.mark.parametrize("limit", [0, 1, 50])
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_equal_the_batch_reductions_bit_for_bit(self, dim, limit):
        chain, f = random_chain_instance(71, m_max=12, dim=dim)
        w = WeightSequence.power(-0.5)
        checkpoints = [8, 16, 32, 64, 128]
        out, _ = reduce_trials(ChainPowers(chain, f), w, 300, range(33),
                               checkpoints=checkpoints, norms_limit=limit)
        assert_reductions_equal(
            out, batch_reductions(chain, f, w, 300, range(33), checkpoints, limit))

    def test_no_checkpoints_give_no_table(self):
        chain, f = random_chain_instance(73, m_max=6)
        out, _ = reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 20,
                               range(5))
        assert out.oscillation is None
        assert out.norms.shape == (0, 20)

    def test_diagnostic_and_limit_checks(self):
        chain, f = random_chain_instance(79, m_max=6)
        w = WeightSequence.constant(1.0)
        with pytest.raises(ValidationError, match="30 trials"):
            reduce_trials(ChainPowers(chain, f), w, 64, range(10), checkpoints=[8, 16])
        with pytest.raises(ValidationError, match="norms limit"):
            reduce_trials(ChainPowers(chain, f), w, 64, range(10), norms_limit=-1)


class TestReduceTrials:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_the_reductions_of_the_sampled_batch(self, workers):
        # 33 trials in two ranges split 16 / 17, and norm rows cross the split
        chain, f = random_chain_instance(71, m_max=12, dim=2)
        w = WeightSequence.power(-0.5)
        seeds = [derive_trial_seed(5, i) for i in range(33)]
        checkpoints = [8, 16, 32, 64]
        out, extra = reduce_trials(ChainPowers(chain, f), w, 128, seeds,
                                   checkpoints=checkpoints, norms_limit=20,
                                   workers=workers, meanwhile=lambda: "done")
        assert_reductions_equal(
            out, batch_reductions(chain, f, w, 128, seeds, checkpoints, 20))
        assert extra == "done"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers,cpus,trials,processes", [
        (8, 3, 100, 3), (2, 3, 100, 2), (8, 3, 2, 2),
        (1, 3, 100, None), (8, 1, 100, None), (8, None, 100, None), (4, 4, 1, None),
    ])
    def test_range_count_is_min_of_workers_cpus_and_trials(self, monkeypatch, workers,
                                                           cpus, trials, processes):
        # one worker per range samples and reduces it; none at a count of 1
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        seeds = range(trials)
        out, _ = reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 4,
                               seeds, workers=workers)
        assert out.max_squares.shape == (trials,)
        assert len(started) == (0 if processes is None else processes)
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def failing(chain, n, seeds):
            raise ValidationError(f"no trajectories for {len(seeds)} seeds")

        monkeypatch.setattr(simulate, "_sample_blocks", failing)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        for workers in (1, 2):
            with pytest.raises(ValidationError, match="no trajectories"):
                reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 4,
                              range(10), workers=workers)
            assert multiprocessing.active_children() == []

    def test_meanwhile_error_reaches_the_caller_and_leaves_no_worker(self, monkeypatch):
        # the error raised by ``meanwhile`` propagates after the trials ran in
        # this process (workers=1), and after the three forked workers, at
        # 20,000 steps most likely still sampling, were killed and joined
        def failing():
            raise ValidationError("series bound failed")

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        for workers in (1, 3):
            with pytest.raises(ValidationError, match="series bound failed"):
                reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 20_000,
                              range(10), workers=workers, meanwhile=failing)
            assert multiprocessing.active_children() == []

    def test_meanwhile_error_kills_workers_that_would_not_finish(self, monkeypatch):
        def stuck(chain, n, seeds):
            time.sleep(120)

        def failing():
            raise ValidationError("series bound failed")

        monkeypatch.setattr(simulate, "_sample_blocks", stuck)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        start = time.monotonic()
        with pytest.raises(ValidationError, match="series bound failed"):
            reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 4,
                          range(10), workers=2, meanwhile=failing)
        assert time.monotonic() - start < 60
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_named_by_its_exit_code(self, monkeypatch):
        def dying(chain, n, seeds):
            os._exit(3)

        monkeypatch.setattr(simulate, "_sample_blocks", dying)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        with pytest.raises(RuntimeError, match="exited with code 3"):
            reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 4,
                          range(10), workers=3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 8])
    def test_this_process_samples_nothing_when_workers_fork(self, monkeypatch, workers):
        # a sampling caller would hold its own step table and draw buffers;
        # 8 ranges of 3-4 trials write disjoint slices of the shared results
        caller = os.getpid()
        sample_blocks = simulate._sample_blocks

        def forked_only(chain, n, seeds):
            if os.getpid() == caller:
                raise AssertionError("the calling process sampled")
            return sample_blocks(chain, n, seeds)

        monkeypatch.setattr(simulate, "_sample_blocks", forked_only)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        chain, f = random_chain_instance(71, m_max=12, dim=2)
        w = WeightSequence.power(-0.5)
        seeds = [derive_trial_seed(6, i) for i in range(31)]
        out, _ = reduce_trials(ChainPowers(chain, f), w, 64, seeds, checkpoints=[8, 16, 32],
                               norms_limit=12, workers=workers)
        monkeypatch.setattr(simulate, "_sample_blocks", sample_blocks)
        assert_reductions_equal(
            out, batch_reductions(chain, f, w, 64, seeds, [8, 16, 32], 12))
        assert multiprocessing.active_children() == []

    def test_worker_error_after_some_blocks_reaches_the_caller(self, monkeypatch):
        def failing(chain, n, seeds):
            yield np.zeros(len(seeds), dtype=np.int16)
            yield np.zeros((3, len(seeds)), dtype=np.int16)
            raise ValidationError("walk failed after one block")

        monkeypatch.setattr(simulate, "_sample_blocks", failing)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        with pytest.raises(ValidationError, match="walk failed after one block"):
            reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 8,
                          range(10), workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_after_some_blocks_is_named(self, monkeypatch):
        def dying(chain, n, seeds):
            yield np.zeros(len(seeds), dtype=np.int16)
            yield np.zeros((3, len(seeds)), dtype=np.int16)
            os._exit(4)

        monkeypatch.setattr(simulate, "_sample_blocks", dying)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        chain, f = two_state(0.25, 0.25), Observable([1.0, -1.0])
        with pytest.raises(RuntimeError, match="exited with code 4"):
            reduce_trials(ChainPowers(chain, f), WeightSequence.constant(1.0), 8,
                          range(10), workers=2)
        assert multiprocessing.active_children() == []

    def test_overflowing_weights_raise_before_sampling(self, monkeypatch):
        def no_sampling(chain, n, seeds):
            raise AssertionError("sampled before the weights were evaluated")

        monkeypatch.setattr(simulate, "_sample_blocks", no_sampling)
        powers = ChainPowers(two_state(0.25, 0.25), Observable([1.0, -1.0]))
        with pytest.raises(ValidationError, match="power:400 overflows double precision"):
            reduce_trials(powers, WeightSequence.power(400), 64, range(3))

    def test_bad_arguments_rejected(self):
        powers = ChainPowers(two_state(0.25, 0.25), Observable([1.0, -1.0]))
        w = WeightSequence.constant(1.0)
        with pytest.raises(ValidationError, match="at least one trial"):
            reduce_trials(powers, w, 4, [])
        with pytest.raises(ValidationError, match="at least one step"):
            reduce_trials(powers, w, 0, [1])
        with pytest.raises(ValidationError, match="norms limit"):
            reduce_trials(powers, w, 4, [1], norms_limit=-1)


class TestBlockedReduction:
    """``reduce_trials`` against the batch route when blocks and chunks are small.

    With 5 or 7 steps per sampled block and a path chunk of one to a few
    rows, chunks end inside blocks, blocks end inside checkpoint windows, and
    a window can start and end in different blocks.
    """

    TRIALS = 31  # ranges of 10 / 10 / 11 or 15 / 16 trials

    @staticmethod
    def checkpoints(n):
        return [c for c in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144) if 2 * c <= n]

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    @pytest.mark.parametrize("n", [1, 2, 127, 300])
    def test_equal_the_batch_reductions_bit_for_bit(self, monkeypatch, n, dim):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        chain, f = random_chain_instance(83 + dim, m_max=12, dim=dim)
        w = WeightSequence.power(-0.5)
        seeds = [derive_trial_seed(8, i) for i in range(self.TRIALS)]
        checkpoints = self.checkpoints(n)
        for step_block, chunk in ((5, 1), (7, 3 * 11 * dim)):
            monkeypatch.setattr(simulate, "_STEP_BLOCK", step_block)
            monkeypatch.setattr(simulate, "_PATH_CHUNK", chunk)
            for limit in (0, 1, self.TRIALS):
                expected = batch_reductions(chain, f, w, n, seeds, checkpoints, limit)
                for workers in (1, 2, 3):
                    out, _ = reduce_trials(ChainPowers(chain, f), w, n, seeds,
                                           checkpoints=checkpoints, norms_limit=limit,
                                           workers=workers)
                    assert_reductions_equal(out, expected)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 3])
    def test_int32_states_reduce_alike(self, monkeypatch, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(simulate, "_STEP_BLOCK", 6)
        monkeypatch.setattr(simulate, "_PATH_CHUNK", 40)
        chain, f = random_chain_instance(89, m_max=40, dim=2)
        w = WeightSequence.constant(1.0)
        seeds = [derive_trial_seed(9, i) for i in range(32)]  # 11, 11 and 10 at workers=3
        checkpoints = self.checkpoints(90)
        expected = batch_reductions(chain, f, w, 90, seeds, checkpoints, 4)
        monkeypatch.setattr(simulate, "_state_dtype", lambda m: np.int32)
        out, _ = reduce_trials(ChainPowers(chain, f), w, 90, seeds, checkpoints=checkpoints,
                               norms_limit=4, workers=workers)
        assert_reductions_equal(out, expected)
        assert multiprocessing.active_children() == []


class TestMcMaxMoment:
    def test_holds_one_path_at_a_time(self):
        # the (200, 2**14, 2) path array alone would take 52.4 MB
        chain, f = graph_instance()
        tracemalloc.start()
        try:
            mc_max_moment(chain, f, WeightSequence.power(-0.5), 2 ** 14, master_seed=3, trials=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_identity_kernel_has_zero_variance(self):
        chain = lazy_ring(2, 1.0)
        f = Observable([1.0, -1.0])
        out = mc_max_moment(chain, f, WeightSequence.constant(1.0), 8, master_seed=7, trials=200)
        # per-state series are deterministic and the two states symmetric
        exact = enumerate_max_moment(chain, f, WeightSequence.constant(1.0), 8)
        assert out.standard_error == pytest.approx(0.0, abs=1e-12)
        assert out.estimate == pytest.approx(exact, abs=1e-12)

    def test_enumeration_reads_powers_past_the_fixed_point(self):
        # the identity kernel repeats f from row 1, so its table keeps one
        # row, and every path stays put: T_k = k f(xi_0)
        chain = lazy_ring(2, 1.0)
        f = Observable([1.0, -1.0])
        assert enumerate_max_moment(chain, f, WeightSequence.constant(1.0), 300) == 300.0 ** 2

    def test_matches_enumeration_within_three_errors(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        w = WeightSequence.power(-0.5)
        exact = enumerate_max_moment(chain, f, w, 3)
        out = mc_max_moment(chain, f, w, 3, master_seed=31, trials=2000)
        assert abs(out.estimate - exact) <= 3 * out.standard_error

    def test_three_state_enumeration_cross_check(self):
        rng = np.random.default_rng(37)
        target = rng.uniform(0.3, 1.0, 3)
        from revmax import metropolis_chain

        chain = metropolis_chain(target, np.full((3, 3), 1 / 3))
        f = Observable(rng.standard_normal(3)).centered(chain)
        w = WeightSequence.constant(1.0)
        exact = enumerate_max_moment(chain, f, w, 5)
        out = mc_max_moment(chain, f, w, 5, master_seed=41, trials=4000)
        assert abs(out.estimate - exact) <= 3 * out.standard_error

    def test_estimate_respects_the_series_bound(self):
        # transported second-moment series bound: 36 * sum b_k E|Q^k f|^2
        rng = np.random.default_rng(47)
        for _ in range(5):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=10)
            w = WeightSequence.power(-0.5)
            n = 8
            out = mc_max_moment(chain, f, w, n, master_seed=11, trials=400)
            stats = compute_stats(w, n)
            powers = ChainPowers(chain, f)
            bound = 36.0 * sum(
                stats.b[k] * powers.second_moment(k) for k in range(1, n + 1)
            )
            assert out.estimate <= bound + 3 * out.standard_error + 1e-12

    def test_reduces_a_block_of_trials_at_a_time(self):
        # one window of all 200 trials at checkpoint 2**13 would take 26.2 MB,
        # and its squared norms 13.1 MB more
        paths = np.random.default_rng(5).standard_normal((200, 2 ** 14, 2))
        tracemalloc.start()
        try:
            as_convergence_diagnostic(paths, [2 ** k for k in range(3, 14)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_too_few_trials_rejected(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        with pytest.raises(ValidationError, match="100 trials"):
            mc_max_moment(chain, f, WeightSequence.constant(1.0), 4, master_seed=1, trials=99)

    def test_jackknife_error_matches_classic_form(self):
        # for a plain mean the jackknife collapses to s / sqrt(N)
        chain, f = random_chain_instance(53, m_max=5)
        w = WeightSequence.constant(1.0)
        out = mc_max_moment(chain, f, w, 4, master_seed=3, trials=500)
        seeds = [derive_trial_seed(3, i) for i in range(500)]
        states = sample_trajectories(chain, 4, seeds)
        values = (series_paths(chain, f, w, states) ** 2).sum(axis=2).max(axis=1)
        classic = values.std(ddof=1) / np.sqrt(500)
        assert out.standard_error == pytest.approx(classic, rel=1e-12)
