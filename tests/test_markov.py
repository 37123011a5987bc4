import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from revmax import (
    MarkovCheck,
    Observable,
    ReversibleChain,
    ValidationError,
    WeightSequence,
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
from revmax import markov
from revmax.markov import (
    ChainPowers,
    EigensolverError,
    SpectralMeasure,
    _round_layouts,
    apply_power,
    autocovariance,
    dump_chain,
    dump_observable,
    inspect_growth_weights,
    jacobi_eigendecomposition,
    lazy_ring,
    load_chain,
    load_observable,
    make_chain,
    markov_traced_constant,
    verify_markov_batch,
    weighted_series,
)
from revmax.weights import even_odd_stats

DATA = Path(__file__).parent / "data"


def disconnected_chain():
    """Two lazy two-state components glued block-diagonally."""
    Q = np.zeros((4, 4))
    Q[:2, :2] = [[0.75, 0.25], [0.25, 0.75]]
    Q[2:, 2:] = [[0.5, 0.5], [0.5, 0.5]]
    return ReversibleChain(Q, np.full(4, 0.25))


class TestChainConstruction:
    def test_two_state_kernel(self):
        chain = two_state(0.25, 0.25)
        np.testing.assert_allclose(
            chain.transition, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15
        )
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("pi,message", [
        ([math.nan, math.nan], r"pi must be finite, got \[nan, nan\]"),
        ([math.inf, 1.0], r"pi must be finite, got \[inf, 1.0\]"),
        ([1.0, -math.inf], r"pi must be finite, got \[1.0, -inf\]"),
        ([1e308, 1e308], "pi sums past double precision"),
    ])
    def test_non_finite_stationary_law_is_refused(self, pi, message):
        with pytest.raises(ValidationError, match=message):
            ReversibleChain(np.full((2, 2), 0.5), pi)

    def test_fully_lazy_ring_is_identity(self):
        chain = lazy_ring(5, 1.0)
        np.testing.assert_array_equal(chain.transition, np.eye(5))
        np.testing.assert_allclose(chain.stationary, 0.2)

    def test_metropolis_balance_is_tight(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(2, 12))
            target = rng.uniform(0.1, 1.0, m)
            proposal = np.full((m, m), 1.0 / m)
            chain = metropolis_chain(target, proposal)
            flow = chain.stationary[:, None] * chain.transition
            assert np.abs(flow - flow.T).max() <= 1e-12

    def test_metropolis_kernel_matches_the_entrywise_loop(self):
        # reference: accept j from i with min(1, pi_j / pi_i), entry by entry,
        # then put the rejected mass on the diagonal
        rng = np.random.default_rng(73)
        for case in range(240):
            m = int(rng.integers(2, 40))
            if case % 3 == 0:  # integer targets give exact ties pi_j == pi_i
                target = rng.integers(1, 4, m).astype(float)
            else:
                target = rng.uniform(0.01, 1.0, m) ** 2
            if case % 2:
                proposal = np.full((m, m), 1.0 / m)
            else:
                W = np.triu(rng.uniform(0.0, 1.0, (m, m)), 1)
                proposal = (W + W.T) / ((W + W.T).sum(axis=1).max() * 1.25)
                np.fill_diagonal(proposal, 1.0 - proposal.sum(axis=1))
            pi = target / target.sum()
            Q = np.zeros((m, m))
            for i in range(m):
                for j in range(m):
                    if i != j:
                        Q[i, j] = proposal[i, j] * min(1.0, pi[j] / pi[i])
                Q[i, i] = 1.0 - Q[i].sum()
            chain, want = metropolis_chain(target, proposal), ReversibleChain(Q, pi)
            np.testing.assert_array_equal(chain.transition, want.transition)
            np.testing.assert_array_equal(chain.stationary, want.stationary)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_metropolis_target_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValidationError, match="target law must be positive and finite"):
            metropolis_chain([1.0, bad, 2.0], np.full((3, 3), 1.0 / 3.0))

    def test_birth_death_stationary_matches_rate_products(self):
        chain = birth_death([0.3, 0.2], [0.1, 0.4])
        pi = chain.stationary
        assert pi[1] / pi[0] == pytest.approx(3.0)
        assert pi[2] / pi[1] == pytest.approx(0.5)

    def test_weighted_graph_uses_degrees(self):
        W = np.array([[0.0, 2.0], [2.0, 0.0]])
        chain = weighted_graph(W)
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])
        np.testing.assert_allclose(chain.transition, [[0.0, 1.0], [1.0, 0.0]])

    def test_weighted_graph_needs_a_state(self):
        with pytest.raises(ValidationError, match="square and non-empty"):
            weighted_graph(np.zeros((0, 0)))

    @pytest.mark.parametrize("m", [0, -1])
    def test_random_weighted_graph_needs_a_state(self, m):
        with pytest.raises(ValidationError, match=f"weighted-graph needs m >= 1, got {m}"):
            make_chain("weighted-graph", {"m": m}, seed=0)

    def test_disconnected_graph_flagged(self):
        assert not disconnected_chain().connected
        assert two_state(0.3, 0.4).connected

    def test_non_reversible_kernel_rejected(self):
        Q = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        )  # directed cycle
        with pytest.raises(ValidationError, match="detailed balance"):
            ReversibleChain(Q)

    def test_stationary_computed_when_absent(self):
        chain = ReversibleChain(two_state(0.2, 0.4).transition)
        np.testing.assert_allclose(chain.stationary, [2 / 3, 1 / 3], atol=1e-12)

    def test_make_chain_dispatch(self):
        chain = make_chain("two-state", {"p": 0.25, "q": 0.25})
        assert chain.m == 2
        with pytest.raises(ValidationError, match="unknown chain model"):
            make_chain("mystery", {})


class TestKernelPowers:
    def test_zero_power_is_identity(self):
        chain = two_state(0.3, 0.3)
        f = Observable([1.0, -1.0])
        np.testing.assert_array_equal(apply_power(chain, f, 0).values, f.values)

    def test_eigenvector_decays_geometrically(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        out = apply_power(chain, f, 3)
        np.testing.assert_allclose(out.values.ravel(), [0.125, -0.125], atol=1e-15)

    def test_power_matches_successive_applications(self):
        chain, f = random_chain_instance(99, m_max=12, dim=2)
        stepwise = f.values
        for _ in range(5):
            stepwise = chain.transition @ stepwise
        np.testing.assert_allclose(
            apply_power(chain, f, 5).values, stepwise, atol=1e-13
        )

    def test_table_rows_equal_the_step_loop_bit_for_bit(self):
        chain, f = random_chain_instance(101, m_max=12, dim=2)
        reference = [f.values]
        for _ in range(64):
            reference.append(chain.transition @ reference[-1])
        powers = ChainPowers(chain, f)
        handed_out = []
        for k in (3, 17, 2, 64):
            table = powers.table(k)
            assert table.shape == (k + 1, chain.m, 2)
            np.testing.assert_array_equal(table, np.stack(reference[: k + 1]))
            np.testing.assert_array_equal(powers.get(k), reference[k])
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0
            handed_out.append((k, table))
        # growing the table never changes a table handed out earlier
        for k, table in handed_out:
            np.testing.assert_array_equal(table, np.stack(reference[: k + 1]))

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 50, 64, 200])
    def test_table_equals_an_inline_matmul_loop_byte_for_byte(self, m):
        rng = np.random.default_rng(m)
        ring = lazy_ring(m, 0.0) if m > 1 else ReversibleChain([[1.0]], [1.0])
        for dim in range(1, 10):
            random_chain, _ = random_chain_instance(int(rng.integers(0, 2**32)),
                                                    m_max=max(m, 2))
            for chain in (random_chain, ring):
                f = Observable(rng.standard_normal((chain.m, dim)))
                reference = np.empty((40, chain.m, dim))
                reference[0] = f.values
                for j in range(1, 40):
                    np.matmul(chain.transition, reference[j - 1], out=reference[j])
                assert ChainPowers(chain, f).table(39).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9])
    def test_autocovariances_equal_the_pointwise_autocovariances(self, dim, monkeypatch):
        monkeypatch.setattr(markov, "_SQUARE_CHUNK", 100)  # several chunks
        rng = np.random.default_rng(107)
        for n in (1, 2, 7, 35):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=30, dim=dim)
            powers = ChainPowers(chain, f)
            covs = powers.autocovariances(2 * n)
            assert covs.shape == (2 * n + 1,) and not covs.flags.writeable
            expected = [autocovariance(chain, f, k, powers) for k in range(2 * n + 1)]
            assert covs.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_second_moments_equal_the_pointwise_moments(self, dim, monkeypatch):
        from revmax import markov

        monkeypatch.setattr(markov, "_SQUARE_CHUNK", 100)  # several chunks
        rng = np.random.default_rng(105)
        for _ in range(10):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=30, dim=dim)
            powers = ChainPowers(chain, f)
            moments = powers.second_moments(70)
            assert moments.shape == (71,) and not moments.flags.writeable
            expected = [powers.second_moment(k) for k in range(71)]
            assert moments.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_squared_norms_equal_numpy_sum(self, dim):
        from revmax.markov import squared_norms

        x = np.random.default_rng(dim).standard_normal((3, 500, dim)) * 1e8
        x[0, :, 0] = 1e16  # makes the order of the additions show
        np.testing.assert_array_equal(squared_norms(x), (x * x).sum(axis=-1))
        np.testing.assert_array_equal(squared_norms(x[1]), (x[1] * x[1]).sum(axis=-1))

    def test_negative_power_rejected(self):
        chain, f = random_chain_instance(103, m_max=5)
        with pytest.raises(ValidationError, match="power must be >= 0"):
            ChainPowers(chain, f).table(-1)

    def test_autocovariance_at_zero_is_energy(self):
        chain, f = random_chain_instance(7, m_max=10)
        energy = float(chain.stationary @ (f.values ** 2).sum(axis=1))
        assert autocovariance(chain, f, 0) == pytest.approx(energy)

    def test_autocovariance_eigenvector_case(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        for k in range(6):
            assert autocovariance(chain, f, k) == pytest.approx(0.5 ** k)

    def test_autocovariance_matches_spectral_moments(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=25)
            sm = spectral_measure(chain, f)
            powers = ChainPowers(chain, f)
            for k in range(21):
                assert autocovariance(chain, f, k, powers) == pytest.approx(
                    sm.moment(k), abs=1e-10
                )


def symmetrized_kernel(chain):
    root = np.sqrt(chain.stationary)
    sym = root[:, None] * chain.transition / root[None, :]
    return (sym + sym.T) / 2.0


def assert_matches_eigh(A):
    """Eigenvalues and reconstruction within 1e-9 of numpy's eigh, columns
    orthonormal within 1e-10, and no overflow, division by zero or invalid
    operation on the way."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        lam, V, sweeps, residual = jacobi_eigendecomposition(A)
    m = A.shape[0]
    np.testing.assert_allclose(np.sort(lam), np.linalg.eigvalsh(A), atol=1e-9)
    np.testing.assert_allclose(V @ np.diag(lam) @ V.T, A, atol=1e-9)
    np.testing.assert_allclose(V.T @ V, np.eye(m), atol=1e-10)
    assert 0 <= sweeps < 100
    assert 0.0 <= residual <= 1e-12 * np.linalg.norm(A)
    return lam, V, sweeps, residual


def block_diagonal():
    rng = np.random.default_rng(29)
    A = np.zeros((7, 7))
    for block in (slice(0, 3), slice(3, 7)):
        B = rng.standard_normal((block.stop - block.start,) * 2)
        A[block, block] = B + B.T
    return A


def weak_coupling(coupling):
    """A diagonal gap of 1 next to one coupling small enough that
    |tau| > 1e10, and a strong coupling elsewhere so that sweeps run."""
    A = np.diag([0.0, 1.0, 2.0, 3.0])
    A[0, 1] = A[1, 0] = coupling
    A[2, 3] = A[3, 2] = 0.5
    return A


class TestJacobi:
    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(21)
        for m in (2, 3, 5, 17, 60, 63):
            A = rng.standard_normal((m, m))
            A = (A + A.T) / 2.0
            _, _, sweeps, _ = assert_matches_eigh(A)
            assert sweeps >= 1

    def test_diagonal_input_returns_immediately(self):
        lam, V, sweeps, residual = jacobi_eigendecomposition(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_array_equal(np.sort(lam), [-1.0, 2.0, 3.0])
        assert (sweeps, residual) == (0, 0.0)

    def test_zero_matrix(self):
        lam, V, sweeps, _ = assert_matches_eigh(np.zeros((6, 6)))
        np.testing.assert_array_equal(lam, np.zeros(6))
        np.testing.assert_array_equal(V, np.eye(6))
        assert sweeps == 0

    def test_exact_zero_couplings_are_skipped(self):
        # a rotation of a pair across the blocks would mix their eigenvectors
        _, V, _, _ = assert_matches_eigh(block_diagonal())
        assert not V[:3, 3:].any() and not V[3:, :3].any()

    def test_dead_pairs_keep_their_bits(self):
        # (1, 2) is dead in the round that rotates (0, 3); multiplying its
        # columns by 1 + 0j would turn the eigenvalue -0.0 into +0.0
        A = np.diag([1.0, -0.0, 3.0, 2.0])
        A[0, 3] = A[3, 0] = 0.5
        A[1, 2] = A[2, 1] = -0.0
        lam, _, sweeps, _ = jacobi_eigendecomposition(A)
        assert sweeps == 1
        assert lam[1] == 0.0 and np.signbit(lam[1])

    def test_negative_zero_tau_rotates_by_plus_one(self):
        # equal diagonal entries over a negative coupling give tau = -0, which
        # rotates by t = +1 as tau = +0 does: index 0 takes 1 - t * apq = 1.5
        lam, _, _, _ = assert_matches_eigh(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert lam[0] > lam[1]

    def test_round_layouts_put_each_pair_in_adjacent_columns(self):
        for n in range(2, 41):
            for cols in _round_layouts(n):
                assert sorted(cols.tolist()) == list(range(n + n % 2))
                if n % 2:
                    # the dummy's pair, the unpaired index then n, comes last
                    assert cols[-2] < n and cols[-1] == n

    @pytest.mark.parametrize("coupling", [1e-13, -1e-13, 1e-160])
    def test_small_angle_rotations(self, coupling):
        lam, V, _, _ = assert_matches_eigh(weak_coupling(coupling))
        # the weak pair was rotated, by the small-angle tangent 0.5 / tau
        first = int(np.argmin(np.abs(lam)))
        assert V[1, first] == pytest.approx(-coupling, rel=1e-6)

    @pytest.mark.parametrize("m", [8, 9, 64, 63])
    def test_degenerate_ring_spectra(self, m):
        # laziness 0 gives the eigenvalues cos(2 pi j / m), each twice
        assert_matches_eigh(symmetrized_kernel(lazy_ring(m, 0.0)))

    def test_round_robin_pairs_each_index_pair_once_per_sweep(self):
        for n in range(1, 41):
            layouts = _round_layouts(n)
            assert len(layouts) == n - 1 + n % 2
            seen = []
            for cols in layouts:
                p, q = cols[0 : n - n % 2 : 2], cols[1 : n - n % 2 : 2]
                assert len(p) == n // 2
                assert np.all(p < q)
                # disjoint pairs, so the round's rotations commute
                assert len(np.unique(np.concatenate((p, q)))) == 2 * len(p)
                seen += zip(p.tolist(), q.tolist())
            assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    def test_repeat_calls_are_bit_identical(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((63, 63))
        A = A + A.T
        first = jacobi_eigendecomposition(A)
        second = jacobi_eigendecomposition(A)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        assert first[2:] == second[2:]

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            jacobi_eigendecomposition(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad,named", [
        (math.inf, r"\(0,1\)=inf, \(1,0\)=inf$"),
        (math.nan, r"\(0,1\)=nan, \(1,0\)=nan$"),
    ])
    def test_non_finite_input_rejected_before_any_sweep(self, monkeypatch, bad, named):
        def no_sweeps(n):
            raise AssertionError("the solver set up its rounds")

        monkeypatch.setattr(markov, "_round_layouts", no_sweeps)
        with pytest.raises(ValidationError, match="non-finite entries: " + named):
            jacobi_eigendecomposition(np.array([[1.0, bad], [bad, 2.0]]))

    def test_non_finite_entries_are_named_up_to_four(self):
        A = np.eye(64)
        A[3, :7] = A[:7, 3] = np.nan
        with pytest.raises(ValidationError, match=r"\(0,3\)=nan, .* and 9 more$"):
            jacobi_eigendecomposition(A)

    def test_sweep_cap_raises(self, monkeypatch):
        from revmax import markov

        monkeypatch.setattr(markov, "JACOBI_REL_TOL", 0.0)
        monkeypatch.setattr(markov, "JACOBI_MAX_SWEEPS", 0)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(EigensolverError, match="residual"):
            jacobi_eigendecomposition(A)

    def test_converges_within_sweep_budget_at_200_states(self):
        rng = np.random.default_rng(23)
        W = rng.uniform(0.05, 1.0, (200, 200))
        W = np.triu(W, 1)
        W = W + W.T + np.diag(rng.uniform(0.5, 1.5, 200) * 100)
        sym = symmetrized_kernel(weighted_graph(W))
        lam, _, _, _ = jacobi_eigendecomposition(sym)
        np.testing.assert_allclose(np.sort(lam), np.linalg.eigvalsh(sym), atol=1e-9)


class TestSpectralMeasure:
    def test_eigenvector_gives_single_atom(self):
        sm = spectral_measure(two_state(0.25, 0.25), Observable([1.0, -1.0]))
        big = [(l, m) for l, m in sm.atoms if m > 1e-12]
        assert len(big) == 1
        assert big[0][0] == pytest.approx(0.5, abs=1e-12)
        assert big[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_observable_sits_at_one(self):
        sm = spectral_measure(two_state(0.25, 0.25), Observable([1.0, 1.0]))
        big = [(l, m) for l, m in sm.atoms if m > 1e-12]
        assert len(big) == 1
        assert big[0][0] == pytest.approx(1.0, abs=1e-12)
        assert sm.has_unit_mass()

    def test_parseval_on_random_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=30)
            sm = spectral_measure(chain, f)
            energy = float(chain.stationary @ (f.values ** 2).sum(axis=1))
            assert sm.total_mass() == pytest.approx(energy, abs=1e-10)
            assert sm.parseval_defect == abs(sm.total_mass() - energy)
            assert 1 <= sm.sweeps < 100
            assert 0.0 <= sm.offdiag_residual < 1e-10

    def test_masses_missing_the_energy_name_the_parseval_defect(self, monkeypatch):
        solve = markov.jacobi_eigendecomposition

        def stretched(matrix):
            lam, V, sweeps, residual = solve(matrix)
            return lam, 2.0 * V, sweeps, residual  # columns no longer unit length

        monkeypatch.setattr(markov, "jacobi_eigendecomposition", stretched)
        chain, f = random_chain_instance(7, m_max=10)
        with pytest.raises(EigensolverError, match=r"energy is .*: Parseval defect"):
            spectral_measure(chain, f)

    def test_vector_observables_sum_coordinate_masses(self):
        chain, f = random_chain_instance(37, m_max=10, dim=3)
        sm = spectral_measure(chain, f)
        total = sum(
            spectral_measure(chain, Observable(f.values[:, c])).total_mass()
            for c in range(3)
        )
        assert sm.total_mass() == pytest.approx(total, abs=1e-10)

    def test_atoms_sorted_descending(self):
        chain, f = random_chain_instance(41, m_max=20)
        sm = spectral_measure(chain, f)
        assert np.all(np.diff(sm.lambdas) <= 0)

    def test_degenerate_eigenvalues_merge_into_one_atom(self):
        # the half-lazy four-ring has spectrum {1, 1/2, 1/2, 0}
        chain = lazy_ring(4, 0.5)
        rng = np.random.default_rng(2)
        f = Observable(rng.standard_normal(4)).centered(chain)
        sm = spectral_measure(chain, f)
        half = [m for l, m in sm.atoms if abs(l - 0.5) <= 1e-9]
        assert len(half) == 1
        energy = float(chain.stationary @ (f.values ** 2).sum(axis=1))
        assert sm.total_mass() == pytest.approx(energy, abs=1e-12)


class TestDlIntegral:
    def test_half_atom(self):
        sm = SpectralMeasure(lambdas=np.array([0.5]), masses=np.array([1.0]))
        assert dl_integral(sm) == pytest.approx(2.0)

    def test_unit_atom_is_infinite(self):
        sm = SpectralMeasure(
            lambdas=np.array([1.0, 0.0]), masses=np.array([0.25, 0.75])
        )
        assert dl_integral(sm) == math.inf

    def test_zero_observable_gives_zero(self):
        sm = spectral_measure(two_state(0.25, 0.25), Observable([0.0, 0.0]))
        assert dl_integral(sm) == 0.0


class TestVarianceGrowth:
    def test_single_step_is_energy(self):
        chain, f = random_chain_instance(43, m_max=10)
        energy = float(chain.stationary @ (f.values ** 2).sum(axis=1))
        assert variance_growth(chain, f, 1) == pytest.approx(energy)

    def test_two_state_limit_is_three(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        values = [variance_growth(chain, f, n) for n in (64, 256, 1024)]
        assert values[-1] == pytest.approx(3.0, abs=2e-2)
        assert abs(values[-1] - 3.0) < abs(values[0] - 3.0)

    def test_matches_path_enumeration(self):
        # brute force over all 3^4 stationary paths of length 4
        rng = np.random.default_rng(47)
        target = rng.uniform(0.2, 1.0, 3)
        chain = metropolis_chain(target, np.full((3, 3), 1.0 / 3.0))
        f = Observable(rng.standard_normal(3)).centered(chain)
        n = 4
        total = 0.0
        from itertools import product

        for path in product(range(3), repeat=n):
            prob = chain.stationary[path[0]]
            for a, b in zip(path, path[1:]):
                prob *= chain.transition[a, b]
            value = sum(f.values[s, 0] for s in path)
            total += prob * value ** 2
        assert variance_growth(chain, f, n) == pytest.approx(total / n, abs=1e-12)

    def test_gap_halves_on_gapped_chains(self):
        # approach to the asymptotic variance is O(1/n): dyadic gap ratio <= 0.6
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(12):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=8)
            report = check_conditions(chain, f)
            if not math.isfinite(report.c_sigma2):
                continue
            gaps = [
                report.c_sigma2 - variance_growth(chain, f, n) for n in (64, 128, 256)
            ]
            if any(abs(g) < 1e-11 for g in gaps) or gaps[0] < 0:
                continue  # negative-spectrum approach from above or exact case
            assert gaps[1] <= 0.6 * gaps[0] + 1e-12
            assert gaps[2] <= 0.6 * gaps[1] + 1e-12
            checked += 1
        assert checked >= 4


class TestConditions:
    def test_centered_eigenvector_benchmark(self):
        report = check_conditions(two_state(0.25, 0.25), Observable([1.0, -1.0]))
        assert report.all_equivalent
        assert all(report.booleans())
        assert report.c_sigma2 == pytest.approx(3.0, abs=1e-10)
        assert report.d_integral == pytest.approx(2.0, abs=1e-10)

    def test_report_carries_its_spectral_measure_and_compares_by_value(self):
        chain, f = random_chain_instance(61, m_max=20)
        report = check_conditions(chain, f)
        sm = spectral_measure(chain, f)
        np.testing.assert_array_equal(report.measure.masses, sm.masses)
        assert report.measure.sweeps == sm.sweeps
        assert report == check_conditions(chain, f)

    def test_uncentered_observable_fails_everything(self):
        report = check_conditions(two_state(0.25, 0.25), Observable([1.0, 1.0]))
        assert report.all_equivalent
        assert not any(report.booleans())
        assert report.c_sigma2 == math.inf

    def test_disconnected_component_indicator_fails(self):
        chain = disconnected_chain()
        # indicator of the first component, centered globally
        f = Observable([0.5, 0.5, -0.5, -0.5])
        assert float((f.mean(chain) ** 2).sum()) <= 1e-30
        report = check_conditions(chain, f)
        assert report.all_equivalent
        assert not any(report.booleans())
        assert report.unit_mass == pytest.approx(0.25, abs=1e-10)

    def test_equivalence_across_random_pairs(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            chain, f = random_chain_instance(
                int(rng.integers(0, 2**32)), m_max=20,
                centered=bool(rng.integers(0, 2)),
            )
            assert check_conditions(chain, f).all_equivalent

    def test_sigma2_matches_variance_growth_trend(self):
        chain = two_state(0.3, 0.5)
        f = Observable([1.0, -1.0]).centered(chain)
        report = check_conditions(chain, f)
        approx = variance_growth(chain, f, 4096)
        assert approx == pytest.approx(report.c_sigma2, rel=1e-2)


class TestWeightedSeries:
    def test_zero_weights(self):
        chain, f = random_chain_instance(61, m_max=8)
        _, exact_max = weighted_series(ChainPowers(chain, f), WeightSequence.constant(0.0), 6)
        assert exact_max == 0.0

    def test_two_state_geometric_sum(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        for n in (1, 3, 8):
            _, exact_max = weighted_series(ChainPowers(chain, f), WeightSequence.constant(1.0), n)
            assert exact_max == pytest.approx((1.0 - 0.5 ** n) ** 2, abs=1e-13)

    def test_cumulative_matches_direct_recomputation(self):
        chain, f = random_chain_instance(67, m_max=15, dim=2)
        w = WeightSequence.alternating(WeightSequence.power(-0.5))
        partial, _ = weighted_series(ChainPowers(chain, f), w, 9)
        powers = ChainPowers(chain, f)
        direct = sum(w.eval(j) * powers.get(j) for j in range(1, 10))
        np.testing.assert_allclose(partial[-1], direct, atol=1e-13)

    def test_even_odd_split_bounds_the_max(self):
        # per state: max over the doubled horizon is at most the sum of the
        # even-part and odd-part maxima
        chain, f = random_chain_instance(71, m_max=12)
        w = WeightSequence.power(-0.5)
        n = 6
        powers = ChainPowers(chain, f)
        partial, _ = weighted_series(powers, w, 2 * n)
        full_max = np.abs(partial).sum(axis=2).max(axis=0)
        even = np.zeros_like(f.values)
        odd = np.zeros_like(f.values)
        even_best = np.zeros(chain.m)
        odd_best = np.abs(np.zeros(chain.m))
        for j in range(1, n + 1):
            even = even + w.eval(2 * j) * powers.get(2 * j)
            even_best = np.maximum(even_best, np.abs(even).sum(axis=1))
        for j in range(0, n):
            odd = odd + w.eval(2 * j + 1) * powers.get(2 * j + 1)
            odd_best = np.maximum(odd_best, np.abs(odd).sum(axis=1))
        assert np.all(full_max <= even_best + odd_best + 1e-12)

    def test_series_and_stein_lhs_equal_the_step_loops(self):
        rng = np.random.default_rng(79)
        kinds = (
            lambda: WeightSequence.constant(float(rng.uniform(-2.0, 2.0))),
            lambda: WeightSequence.power(float(rng.uniform(-1.5, 0.5))),
            lambda: WeightSequence.explicit(rng.standard_normal(80).tolist()),
            lambda: WeightSequence.alternating(WeightSequence.power(-0.5)),
        )
        for seed in range(50):
            chain, f = random_chain_instance(seed, m_max=20, dim=seed % 3 + 1)
            w = kinds[seed % 4]()
            n = int(rng.integers(1, 41))
            partial, exact_max = weighted_series(ChainPowers(chain, f), w, n)
            image, running = f.values, np.zeros_like(f.values)
            rows, best = [], np.zeros(chain.m)
            for j in range(1, n + 1):
                image = chain.transition @ image
                running = running + w.eval(j) * image
                rows.append(running)
                np.maximum(best, (running ** 2).sum(axis=1), out=best)
            assert partial.shape == (n, chain.m, f.dim) and not partial.flags.writeable
            np.testing.assert_array_equal(partial, np.stack(rows))
            assert exact_max == float(chain.stationary @ best)

            scalar = Observable(f.values[:, 0])
            image, best = scalar.values, np.zeros(chain.m)
            for k in range(1, 2 * n + 2):
                image = chain.transition @ image
                if k >= 2:
                    np.maximum(best, (image ** 2).sum(axis=1), out=best)
            rec = verify_markov_inequality(MarkovCheck.STEIN, chain, scalar, n)
            assert rec.lhs == float(chain.stationary @ best)


class TestMarkovInequalities:
    def test_traced_constants_exist(self):
        for check in MarkovCheck:
            tc = markov_traced_constant(check)
            assert np.isfinite(tc.value) and tc.value >= 1.0
            assert len(tc.derivation) >= 1
        assert markov_traced_constant(MarkovCheck.STEIN).value == 8.0

    def test_constants_derive_from_the_series_constant(self):
        values = {check: markov_traced_constant(check).value for check in MarkovCheck}
        assert values == {
            MarkovCheck.WEIGHTED_POWER_MAX: 219.0,
            MarkovCheck.UNIT_WEIGHT_POWER_MAX: 3504.0,
            MarkovCheck.INV_SQRT_POWER_MAX: 1752.0,
            MarkovCheck.PAIRED_POWER_MAX: 3504.0,
            MarkovCheck.STEIN: 8.0,
            MarkovCheck.SUP_POWER_MAX: 1752.0,
        }

    def test_constants_follow_the_series_constant(self, monkeypatch):
        planted = markov.TracedConstant("second-moment-series", 2.0, 10.0, ())
        monkeypatch.setattr(markov, "traced_constant", lambda check, p: planted)
        tc = markov_traced_constant(MarkovCheck.WEIGHTED_POWER_MAX)
        assert tc.value == 63.0
        assert tc.derivation[-1] == "assembled: 3 * (10 + 1 + 10) = 63"
        assert markov_traced_constant(MarkovCheck.PAIRED_POWER_MAX).value == 63 * 16

    def test_batch_records_carry_the_csv_fields(self):
        records = verify_markov_batch(MarkovCheck.STEIN, 4, 5, None, 10, 12)
        master = np.random.default_rng(5)
        for record in records:
            seed = int(master.integers(0, 2**63 - 1))
            chain, f = random_chain_instance(seed, m_max=10)
            n = int(master.integers(1, 13))
            assert record.descriptor == {"seed": seed, "atoms": chain.m, "n": n, "dim": 1}
            assert record == replace(
                verify_markov_inequality(MarkovCheck.STEIN, chain, f, n),
                descriptor=record.descriptor,
            )

    def test_stein_eigenvector_benchmark(self):
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, -1.0])
        for n in (1, 4, 16):
            rec = verify_markov_inequality(MarkovCheck.STEIN, chain, f, n)
            assert rec.lhs == pytest.approx(1.0 / 16.0, abs=1e-14)
            assert rec.rhs == pytest.approx(0.25, abs=1e-14)
            assert rec.passed

    def test_weighted_power_max_constant_observable(self):
        # constant observables put all mass at eigenvalue 1 and the bound
        # degenerates on both sides once centered
        chain = two_state(0.25, 0.25)
        f = Observable([1.0, 1.0]).centered(chain)
        rec = verify_markov_inequality(MarkovCheck.WEIGHTED_POWER_MAX, chain, f, 8)
        assert rec.skipped and rec.passed

    def test_weighted_power_max_rhs_uses_even_odd_coefficients(self):
        # b*_j = max of the b coefficients of the even and odd weight subsequences
        chain, f = random_chain_instance(89, m_max=12)
        w = WeightSequence.alternating(WeightSequence.power(-0.5))
        n = 10
        even, odd = even_odd_stats(w, n)
        powers = ChainPowers(chain, f)
        rhs = sum(
            max(even.b[j], odd.b[j]) * powers.second_moment(j) for j in range(1, n + 1)
        )
        rec = verify_markov_inequality(MarkovCheck.WEIGHTED_POWER_MAX, chain, f, n, weights=w)
        assert rec.rhs == rhs

    def test_property_suite_across_checks(self):
        rng = np.random.default_rng(73)
        for check in MarkovCheck:
            for _ in range(15):
                chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=25)
                n = int(rng.integers(1, 33))
                rec = verify_markov_inequality(check, chain, f, n)
                assert rec.passed, (check, rec.ratio)

    def test_weighted_check_accepts_weight_families(self):
        rng = np.random.default_rng(79)
        for w in (
            WeightSequence.constant(2.0),
            WeightSequence.power(-0.5),
            WeightSequence.alternating(WeightSequence.power(-0.5)),
        ):
            for _ in range(8):
                chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=20)
                rec = verify_markov_inequality(
                    MarkovCheck.WEIGHTED_POWER_MAX, chain, f, 16, weights=w
                )
                assert rec.passed

    def test_weighted_check_refuses_weights_outside_its_derivation(self):
        chain, f = random_chain_instance(5, m_max=8)
        check = MarkovCheck.WEIGHTED_POWER_MAX
        # a_j = (-1)^(j-1) j is neither of one sign nor of non-increasing magnitude
        growing = WeightSequence.alternating(WeightSequence.power(1.0))
        with pytest.raises(ValidationError, match=r"^weighted-power-max needs weights of one"
                           r" sign or of non-increasing magnitude; alternating:power:1 is"
                           r" neither through a_8$"):
            verify_markov_inequality(check, chain, f, 1, weights=growing)
        # only the weights a_1 .. a_8n that horizon n reads are judged
        late = WeightSequence.explicit([1.0] * 15 + [-2.0])
        assert verify_markov_inequality(check, chain, f, 1, weights=late).passed
        with pytest.raises(ValidationError, match="explicit:len16 is neither through a_16"):
            verify_markov_inequality(check, chain, f, 2, weights=late)
        # a power that overflows is refused as such first
        with pytest.raises(ValidationError, match="overflows double precision at index 6"):
            verify_markov_inequality(check, chain, f, 1, weights=WeightSequence.alternating(
                WeightSequence.power(400.0)))

    def test_weighted_batch_refuses_weights_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a chain before the weights were judged")

        monkeypatch.setattr(markov, "random_chain_instance", no_draw)
        growing = WeightSequence.alternating(WeightSequence.power(1.0))
        with pytest.raises(ValidationError, match="alternating:power:1 is neither through a_32$"):
            verify_markov_batch(MarkovCheck.WEIGHTED_POWER_MAX, 3, 1, growing, 8, 4)

    @pytest.mark.parametrize("check", list(MarkovCheck))
    def test_each_table_is_sized_once(self, check, monkeypatch):
        tables = []

        class RecordingPowers(ChainPowers):
            def table(self, k):
                rows = super().table(k)
                if not any(t is self._table for t in tables):
                    tables.append(self._table)
                return rows

        monkeypatch.setattr(markov, "ChainPowers", RecordingPowers)
        chain, f = random_chain_instance(101, m_max=12)
        n = 13
        verify_markov_inequality(check, chain, f, n)
        # paired-power-max tables f and f + Qf; the other checks table f once
        assert len(tables) == (2 if check is MarkovCheck.PAIRED_POWER_MAX else 1)

    @pytest.mark.parametrize("seed", [109, 113, 127, 131, 137])
    def test_paired_power_max_is_the_unit_weight_check_on_f_plus_qf(self, seed):
        chain, f = random_chain_instance(seed, m_max=12)
        n = 1 + seed % 17
        paired = verify_markov_inequality(MarkovCheck.PAIRED_POWER_MAX, chain, f, n)
        g = Observable(f.values + chain.transition @ f.values)
        unit = verify_markov_inequality(MarkovCheck.UNIT_WEIGHT_POWER_MAX, chain, g, 2 * n)
        assert (paired.lhs, paired.rhs, paired.constant) == (unit.lhs, unit.rhs, unit.constant)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stein_periodic_four_ring_passes_at_the_derived_constant(self, n):
        # Ratio 2 broke the old constant 1 and passes C = 8.  On the periodic
        # ring every power Q^j e_1, j >= 1, is 1/2 on two opposite states and
        # 0 on the other two, alternating with the parity of j.  So
        # max_{2 <= j <= 2n + 1} (Q^j e_1)^2 is 1/4 at every state, while the
        # right side <e_1, Q^2 e_1>_pi is 1/8.
        e_1 = Observable([1.0, 0.0, 0.0, 0.0])
        rec = verify_markov_inequality(MarkovCheck.STEIN, lazy_ring(4, 0.0), e_1, n)
        assert (rec.lhs, rec.rhs, rec.ratio, rec.constant) == (0.25, 0.125, 2.0, 8.0)
        assert rec.passed and not rec.skipped

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stein_centered_observable_passes_at_the_derived_constant(self, n):
        # Centering f did not rescue the old constant 1: a selection ascent
        # found this f on the periodic eight-ring, with ratio 1.3279344 at
        # these horizons, and it passes C = 8.
        path = DATA / "verify_markov" / "stein-centered-lazy-ring-8.json"
        f = load_observable(json.loads(path.read_text(encoding="utf-8")))
        chain = lazy_ring(8, 0.0)
        assert abs(float(chain.stationary @ f.values[:, 0])) < 1e-15
        rec = verify_markov_inequality(MarkovCheck.STEIN, chain, f, n)
        assert (rec.lhs, rec.rhs, rec.constant) == (1.0568331093749999, 0.7958473749999999, 8.0)
        assert rec.ratio >= 1.3279
        assert rec.passed and not rec.skipped

    def test_scalar_only_checks_reject_vectors(self):
        chain, f = random_chain_instance(83, m_max=8, dim=2)
        with pytest.raises(ValidationError, match="scalar"):
            verify_markov_inequality(MarkovCheck.STEIN, chain, f, 4)

    def test_growth_weight_inspection_reports_sides(self):
        chain, f = random_chain_instance(89, m_max=10)
        lhs, rhs = inspect_growth_weights(chain, f, 8)
        assert lhs >= 0 and rhs >= 0


def product_chain(eps, lam2):
    """kron(A, B) on 4 states: A flips with probability eps, B has eigenvalue lam2."""
    b = (1.0 - lam2) / 2.0
    A, B = [[1 - eps, eps], [eps, 1 - eps]], [[1 - b, b], [b, 1 - b]]
    return ReversibleChain(np.kron(A, B), np.full(4, 0.25))


def cancelling_observable(eps, lam2, n):
    """f = c (v x 1) + 1 x v, v = (1, -1), or None where no real c exists.

    Its spectral measure has mass c^2 at 1 - 2 eps and mass 1 at lam2, so
    c^2 = -s(lam2) / s(1 - 2 eps), with s(lam) = sum_{j<=2n} j lam^j, zeroes
    the signed autocovariance sum sum_{j<=2n} j gamma_j.
    """
    j = np.arange(1, 2 * n + 1)
    c2 = -np.sum(j * lam2 ** j) / np.sum(j * (1 - 2 * eps) ** j)
    if not c2 > 0:
        return None
    v, one = np.array([1.0, -1.0]), np.ones(2)
    return Observable(np.sqrt(c2) * np.kron(v, one) + np.kron(one, v))


def signed_rhs(chain, f, n):
    """The former paired right side |sum_{j<=2n} j gamma_j| + gamma_2, paid at C = 7,008."""
    covs = ChainPowers(chain, f).autocovariances(2 * n)
    return abs(float(np.arange(1, 2 * n + 1) @ covs[1:])) + covs[2]


class TestPairedProductFamily:
    """The product chains on which the former signed right side of
    paired-power-max failed its constant 7,008, as 2 * 3,504 with a factor-2
    step that held only on positive-leaning spectra.  The check is now the
    unit-weight check on f + Qf at horizon 2n, and passes there at 3,504."""

    @pytest.mark.parametrize("n,lhs,signed,rhs", [
        (21, 7.8137071951363e-07, 1.1075783953602946e-10, 3.9997646424847695e-07),
        (24, 7.836456337330179e-07, 8.504915770788274e-11, 3.9997326452025286e-07),
    ], ids=["n21", "n24"])
    def test_the_pinned_chain_broke_the_signed_side_and_passes_now(self, n, lhs, signed, rhs):
        pins = DATA / "verify_markov"
        chain = load_chain(json.loads((pins / "paired-product-4.chain.json").read_bytes()))
        f = load_observable(json.loads((pins / f"paired-product-4-n{n}.json").read_bytes()))
        assert chain.transition.tobytes() == product_chain(1e-6, -1e-7).transition.tobytes()
        np.testing.assert_allclose(f.values, cancelling_observable(1e-6, -1e-7, n).values,
                                   rtol=1e-15, atol=0)
        rec = verify_markov_inequality(MarkovCheck.PAIRED_POWER_MAX, chain, f, n)
        assert rec.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert rec.rhs == pytest.approx(rhs, rel=1e-12, abs=0)
        old_rhs = signed_rhs(chain, f, n)
        assert old_rhs == pytest.approx(signed, rel=1e-12, abs=0)
        assert rec.lhs / (7008.0 * old_rhs) > 1.0
        assert rec.constant == 3504.0 and rec.passed and not rec.skipped

    def test_no_point_of_the_grid_fails(self):
        worst, signed_failures, points = 0.0, 0, 0
        for eps in (1e-8, 1e-6, 1e-4, 1e-2, 0.1):
            for lam2 in (-1e-7, -1e-3, -0.1, -0.5, -0.9, -0.999):
                chain = product_chain(eps, lam2)
                for n in (1, 2, 8, 21, 24, 64, 128):
                    f = cancelling_observable(eps, lam2, n)
                    if f is None:
                        continue
                    rec = verify_markov_inequality(MarkovCheck.PAIRED_POWER_MAX, chain, f, n)
                    assert rec.passed and not rec.skipped, (eps, lam2, n, rec.ratio)
                    worst = max(worst, rec.ratio / rec.constant)
                    signed_failures += rec.lhs > 7008.0 * signed_rhs(chain, f, n)
                    points += 1
        assert points == 155
        assert worst < 0.01
        # the family reaches the regime the former right side failed in
        assert signed_failures >= 1


class TestEvenOddSplit:
    def test_single_pair_is_exact(self):
        chain, f = random_chain_instance(97, m_max=6)
        w = WeightSequence.explicit([2.0, -3.0] + [0.0] * 14)
        assert even_odd_split_residual(chain, f, w, 1) <= 1e-14

    def test_identity_kernel_sums_weights(self):
        chain = lazy_ring(4, 1.0)
        f = Observable([1.0, -1.0, 2.0, 0.0])
        w = WeightSequence.power(-0.5)
        assert even_odd_split_residual(chain, f, w, 5) <= 1e-13

    def test_residual_small_on_random_triples(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            chain, f = random_chain_instance(int(rng.integers(0, 2**32)), m_max=20)
            kind = rng.integers(0, 3)
            if kind == 0:
                w = WeightSequence.constant(float(rng.uniform(-2, 2)))
            elif kind == 1:
                w = WeightSequence.power(float(rng.uniform(-1.5, 0.5)))
            else:
                w = WeightSequence.explicit(rng.standard_normal(320).tolist())
            n = int(rng.integers(1, 41))
            assert even_odd_split_residual(chain, f, w, n) <= 1e-10


class TestChainJson:
    def test_round_trip(self):
        chain = two_state(0.2, 0.4)
        again = load_chain(dump_chain(chain))
        np.testing.assert_allclose(again.transition, chain.transition)
        np.testing.assert_allclose(again.stationary, chain.stationary)

    def test_observable_round_trip(self):
        f = Observable([[1.0, 2.0], [3.0, 4.0]])
        again = load_observable(dump_observable(f))
        np.testing.assert_array_equal(again.values, f.values)

    def test_errors_name_fields(self):
        with pytest.raises(ValidationError, match="'Q'"):
            load_chain({"states": [0, 1]})
        with pytest.raises(ValidationError, match="'values'"):
            load_observable({"dim": 1})
        with pytest.raises(ValidationError, match="shape"):
            load_observable({"dim": 2, "values": [[1.0], [2.0]]})
