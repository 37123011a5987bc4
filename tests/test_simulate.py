import numpy as np
import pytest

from revmax import (
    Observable,
    SimConfig,
    ValidationError,
    WeightSequence,
    as_convergence_diagnostic,
    birth_death,
    derive_trial_seed,
    enumerate_max_moment,
    lazy_ring,
    mc_max_moment,
    random_chain_instance,
    sample_trajectories,
    sample_trajectory,
    series_path,
    series_paths,
    two_state,
)
from revmax.markov import ChainPowers
from revmax.weights import compute_stats


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
        assert np.all(traj.states == traj.states[0])

    def test_deterministic_in_seed(self):
        chain = two_state(0.25, 0.25)
        a = sample_trajectory(chain, 200, seed=11)
        b = sample_trajectory(chain, 200, seed=11)
        np.testing.assert_array_equal(a.states, b.states)

    def test_batch_rows_match_single_runs(self):
        chain, _ = random_chain_instance(5, m_max=8)
        seeds = [7, 8, 9]
        batch = sample_trajectories(chain, 64, seeds)
        for row, seed in zip(batch, seeds):
            np.testing.assert_array_equal(row, sample_trajectory(chain, 64, seed).states)

    def test_block_size_never_changes_the_draw(self):
        chain, _ = random_chain_instance(13, m_max=6)
        a = sample_trajectories(chain, 100, [1, 2], step_block=7)
        b = sample_trajectories(chain, 100, [1, 2], step_block=4096)
        np.testing.assert_array_equal(a, b)

    def test_stay_probability_matches_kernel(self):
        chain = two_state(0.25, 0.25)
        traj = sample_trajectory(chain, 100_000, seed=2024)
        stays = float(np.mean(traj.states[1:] == traj.states[:-1]))
        se = np.sqrt(0.75 * 0.25 / 100_000)
        assert abs(stays - 0.75) <= 3 * se

    def test_start_follows_stationary_law(self):
        chain = two_state(0.2, 0.6)  # stationary (0.75, 0.25)
        starts = sample_trajectories(chain, 0, range(20_000))[:, 0]
        frac = float(np.mean(starts == 0))
        assert abs(frac - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / 20_000)


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
        expected = sums[:, None] * f.values[traj.states[0]]
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
                w.eval(j) * powers.get(j)[traj.states[j]] for j in range(1, k + 1)
            )
            np.testing.assert_allclose(path[k - 1], direct, atol=1e-13)

    def test_batch_matches_per_trajectory(self):
        from revmax.simulate import Trajectory

        for dim in (1, 2):
            chain, f = random_chain_instance(23, m_max=7, dim=dim)
            w = WeightSequence.power(-0.5)
            states = sample_trajectories(chain, 32, [4, 5])
            batch = series_paths(chain, f, w, states)
            for row, state_row in zip(batch, states):
                single = series_path(chain, f, w, Trajectory(states=state_row))
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


class TestMcMaxMoment:
    def test_identity_kernel_has_zero_variance(self):
        chain = lazy_ring(2, 1.0)
        f = Observable([1.0, -1.0])
        config = SimConfig(master_seed=7, trials=200, horizon=8)
        out = mc_max_moment(chain, f, WeightSequence.constant(1.0), 8, config)
        # per-state series are deterministic and the two states symmetric
        exact = enumerate_max_moment(chain, f, WeightSequence.constant(1.0), 8)
        assert out.standard_error == pytest.approx(0.0, abs=1e-12)
        assert out.estimate == pytest.approx(exact, abs=1e-12)

    def test_matches_enumeration_within_three_errors(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        w = WeightSequence.power(-0.5)
        exact = enumerate_max_moment(chain, f, w, 3)
        config = SimConfig(master_seed=31, trials=2000, horizon=3)
        out = mc_max_moment(chain, f, w, 3, config)
        assert abs(out.estimate - exact) <= 3 * out.standard_error

    def test_three_state_enumeration_cross_check(self):
        rng = np.random.default_rng(37)
        target = rng.uniform(0.3, 1.0, 3)
        from revmax import metropolis_chain

        chain = metropolis_chain(target, np.full((3, 3), 1 / 3))
        f = Observable(rng.standard_normal(3)).centered(chain)
        w = WeightSequence.constant(1.0)
        exact = enumerate_max_moment(chain, f, w, 5)
        config = SimConfig(master_seed=41, trials=4000, horizon=5)
        out = mc_max_moment(chain, f, w, 5, config)
        assert abs(out.estimate - exact) <= 3 * out.standard_error

    def test_thread_count_never_changes_the_estimate(self):
        chain, f = random_chain_instance(43, m_max=6)
        w = WeightSequence.power(-0.5)
        outs = [
            mc_max_moment(
                chain, f, w, 6,
                SimConfig(master_seed=5, trials=300, horizon=6, threads=threads),
            )
            for threads in (1, 2, 8)
        ]
        assert outs[0].estimate == outs[1].estimate == outs[2].estimate
        assert outs[0].standard_error == outs[1].standard_error == outs[2].standard_error

    def test_estimate_respects_the_series_bound(self):
        # transported second-moment series bound: 36 * sum b_k E|Q^k f|^2
        rng = np.random.default_rng(47)
        for _ in range(5):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=10)
            w = WeightSequence.power(-0.5)
            n = 8
            config = SimConfig(master_seed=11, trials=400, horizon=n)
            out = mc_max_moment(chain, f, w, n, config)
            stats = compute_stats(w, n)
            powers = ChainPowers(chain, f)
            bound = 36.0 * sum(
                stats.b[k] * powers.second_moment(k) for k in range(1, n + 1)
            )
            assert out.estimate <= bound + 3 * out.standard_error + 1e-12

    def test_too_few_trials_rejected(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        config = SimConfig(master_seed=1, trials=99, horizon=4)
        with pytest.raises(ValidationError, match="100 trials"):
            mc_max_moment(chain, f, WeightSequence.constant(1.0), 4, config)

    def test_jackknife_error_matches_classic_form(self):
        # for a plain mean the jackknife collapses to s / sqrt(N)
        chain, f = random_chain_instance(53, m_max=5)
        w = WeightSequence.constant(1.0)
        config = SimConfig(master_seed=3, trials=500, horizon=4)
        out = mc_max_moment(chain, f, w, 4, config)
        seeds = [config.trial_seed(i) for i in range(500)]
        states = sample_trajectories(chain, 4, seeds)
        values = (series_paths(chain, f, w, states) ** 2).sum(axis=2).max(axis=1)
        classic = values.std(ddof=1) / np.sqrt(500)
        assert out.standard_error == pytest.approx(classic, rel=1e-12)
