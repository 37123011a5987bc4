import numpy as np
import pytest

from revmax import (
    AdaptedSequence,
    DecreasingFiltration,
    FiniteProbSpace,
    RandomVector,
    ValidationError,
    adapted_partial_sums,
    cond_expect,
    decomposition_residual,
    exact_max_moment,
    load_problem,
    orthogonality_gap,
    random_instance,
    reverse_mart_diff,
)
from revmax.finite_prob import _cond_table


def make_space(n):
    return FiniteProbSpace(np.full(n, 1.0 / n))


def three_level(space):
    return DecreasingFiltration.from_blocks(
        space, [[[0], [1], [2], [3]], [[0, 1], [2, 3]], [[0, 1, 2, 3]]]
    )


def brute_block_average(space, filtration, values, level):
    """Independent oracle: explicit loop over the blocks of the level's labels."""
    out = np.array(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    labels = filtration.labels(level)
    result = np.empty_like(out)
    for label in set(labels.tolist()):
        block = labels == label
        weight = space.probs[block].sum()
        avg = (space.probs[block][:, None] * out[block]).sum(axis=0) / weight
        result[block] = avg
    return result


def per_level_block_average(filtration, values, level):
    """Reference: one level's block averages by two bincounts, bins in atom order."""
    labels = filtration.labels(level)
    k = filtration.n_blocks(level)
    p = filtration.space.probs
    dim = values.shape[1]
    block_prob = np.bincount(labels, weights=p)
    shifted = labels[:, None] + k * np.arange(dim)
    sums = np.bincount(shifted.ravel(), weights=(p[:, None] * values).ravel())
    return (sums.reshape(dim, k) / block_prob).T[labels]


def random_filtration(rng, atoms, levels):
    """Singletons, then each level maps the blocks before it onto 1..k blocks."""
    raw = rng.uniform(0.2, 1.0, atoms)
    space = FiniteProbSpace(raw / raw.sum())
    rows = [np.arange(atoms)]
    for _ in range(levels - 1):
        k = int(rows[-1].max()) + 1
        k_new = int(rng.integers(1, k + 1))
        onto = rng.permutation(np.r_[np.arange(k_new), rng.integers(0, k_new, k - k_new)])
        rows.append(onto[rows[-1]])
    return space, DecreasingFiltration(space, rows)


class TestConstruction:
    def test_probs_renormalized(self):
        space = FiniteProbSpace([0.5, 0.5 + 5e-10])
        assert space.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_probs_far_from_one_rejected(self):
        with pytest.raises(ValidationError, match="sum"):
            FiniteProbSpace([0.5, 0.6])

    def test_zero_probability_rejected(self):
        with pytest.raises(ValidationError, match="non-positive"):
            FiniteProbSpace([1.0, 0.0])

    def test_empty_block_rejected(self):
        space = make_space(2)
        with pytest.raises(ValidationError, match="block 1 is empty"):
            DecreasingFiltration.from_blocks(space, [[[0, 1], []]])

    def test_missing_atom_rejected(self):
        space = make_space(3)
        with pytest.raises(ValidationError, match="cover atom 2"):
            DecreasingFiltration.from_blocks(space, [[[0, 1]]])

    def test_non_coarsening_rejected(self):
        space = make_space(4)
        with pytest.raises(ValidationError, match="straddles"):
            DecreasingFiltration.from_blocks(
                space, [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]
            )

    def test_equal_consecutive_partitions_allowed(self):
        space = make_space(4)
        filt = DecreasingFiltration.from_blocks(
            space, [[[0, 1], [2, 3]], [[0, 1], [2, 3]]]
        )
        assert filt.levels == 2

    def test_block_list_errors_name_level_and_block(self):
        space = make_space(3)
        with pytest.raises(ValidationError, match="level 1 block 1 overlaps"):
            DecreasingFiltration.from_blocks(space, [[[0, 1], [1, 2]]])
        with pytest.raises(ValidationError, match="level 2 block 0 has atom index out of range"):
            DecreasingFiltration.from_blocks(space, [[[0], [1], [2]], [[0, 3]]])

    def test_block_lists_and_label_matrix_agree(self):
        space = make_space(4)
        filt = DecreasingFiltration(space, [[0, 1, 2, 3], [0, 0, 1, 1], [0, 0, 0, 0]])
        blocks = three_level(space)
        for level in (1, 2, 3):
            np.testing.assert_array_equal(filt.labels(level), blocks.labels(level))
        assert [filt.n_blocks(level) for level in (1, 2, 3)] == [4, 2, 1]
        np.testing.assert_array_equal(filt.representatives(2), [0, 0, 2, 2])

    def test_label_matrix_is_read_only(self):
        filt = three_level(make_space(4))
        with pytest.raises(ValueError):
            filt.labels(2)[0] = 1

    def test_label_gap_rejected(self):
        space = make_space(4)
        with pytest.raises(ValidationError, match="level 2 does not use label 1"):
            DecreasingFiltration(space, [[0, 1, 2, 3], [0, 2, 2, 0]])

    def test_wrong_shape_rejected(self):
        space = make_space(4)
        for bad in ([0, 1, 2, 3], [[0, 1, 2]], np.zeros((0, 4), dtype=np.int64)):
            with pytest.raises(ValidationError, match="shape"):
                DecreasingFiltration(space, bad)

    def test_labels_outside_range_or_not_integer_rejected(self):
        space = make_space(3)
        with pytest.raises(ValidationError, match="level 1 atom 2 has label 3"):
            DecreasingFiltration(space, [[0, 1, 3]])
        with pytest.raises(ValidationError, match="level 1 atom 0 has label -1"):
            DecreasingFiltration(space, [[-1, 0, 1]])
        with pytest.raises(ValidationError, match="integers"):
            DecreasingFiltration(space, [[0.0, 1.0, 2.0]])

    def test_non_coarsening_at_a_late_level_rejected(self):
        space = make_space(5)
        labels = [
            [0, 1, 2, 3, 4],
            [0, 0, 1, 2, 3],
            [0, 0, 1, 1, 2],
            [0, 0, 1, 0, 1],
        ]
        with pytest.raises(
            ValidationError,
            match="level 4 is not a coarsening of level 3: level-3 block 1 straddles",
        ):
            DecreasingFiltration(space, labels)
        DecreasingFiltration(space, labels[:3] + [[0, 0, 0, 0, 1]])

    def test_measurability_enforced_exactly(self):
        space = make_space(4)
        filt = three_level(space)
        ok = [1.0, 1.0, 2.0, 2.0]
        AdaptedSequence(filt, [ok, ok])
        bad = [1.0, 1.0 + 1e-15, 2.0, 2.0]
        with pytest.raises(ValidationError, match="not measurable"):
            AdaptedSequence(filt, [ok, bad])

    def test_first_bad_term_in_the_middle_is_named(self):
        def first_bad_by_term(filt, terms):
            for j, term in enumerate(terms, start=1):
                if not np.array_equal(term, term[filt.representatives(j)]):
                    return j
            return None

        inst = random_instance(17, atoms=12, levels=7, n=6, dim=2)
        filt = inst.filtration
        for bad_terms in ((3,), (4, 6), (2, 3, 5)):
            terms = inst.sequence.values.copy()
            for j in bad_terms:
                reps = filt.representatives(j)
                atom = int(np.argmax(reps != np.arange(12)))
                terms[j - 1, atom, 1] = np.nextafter(terms[j - 1, atom, 1], np.inf)
            first = first_bad_by_term(filt, terms)
            assert first == bad_terms[0]
            with pytest.raises(ValidationError,
                               match=f"term {first} is not measurable at level {first}:"):
                AdaptedSequence(filt, terms)

    def test_stacked_values_are_read_only_terms(self):
        inst = random_instance(4, atoms=9, levels=5, n=4, dim=3)
        seq = inst.sequence
        assert seq.values.shape == (4, 9, 3)
        assert len(seq.terms) == len(seq) == 4
        for term, row in zip(seq.terms, seq.values):
            assert term.space is inst.space and term.dim == 3
            assert np.shares_memory(term.values, seq.values)
            np.testing.assert_array_equal(term.values, row)
            with pytest.raises(ValueError):
                term.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.values[0, 0, 0] = 1.0

    def test_dim_and_space_checked_before_measurability(self):
        # the atom axis must match the filtration's space, and dim must be
        # positive, before any term is checked for measurability
        filt = three_level(make_space(4))
        unmeasurable = np.arange(8.0).reshape(2, 4, 1)
        for shape in ((2, 5, 1), (2, 4, 0)):
            with pytest.raises(ValidationError, match=rf"values shape \({shape[0]}, {shape[1]}, "
                               rf"{shape[2]}\) is not \(n, 4, dim >= 1\)"):
                AdaptedSequence(filt, np.zeros(shape))
        with pytest.raises(ValidationError, match="term 2 has non-finite values"):
            AdaptedSequence(filt, np.concatenate([unmeasurable[:1], np.full((1, 4, 1), np.nan)]))
        with pytest.raises(ValidationError, match="term 2 is not measurable"):
            AdaptedSequence(filt, unmeasurable)

    def test_two_dimensional_values_are_dim_one_and_copied(self):
        filt = three_level(make_space(4))
        raw = np.array([[1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 3.0, 3.0]])
        seq = AdaptedSequence(filt, raw)
        assert seq.values.shape == (2, 4, 1) and seq.dim == 1
        raw[0, 0] = 9.0
        np.testing.assert_array_equal(seq.values[0, :, 0], [1.0, 1.0, 2.0, 2.0])

    def test_term_count_must_fit_the_levels(self):
        filt = three_level(make_space(4))
        AdaptedSequence(filt, np.ones((3, 4, 2)))
        for n in (0, 4):
            with pytest.raises(ValidationError, match=f"{n} terms; an adapted sequence needs 1..3"):
                AdaptedSequence(filt, np.ones((n, 4, 2)))

    def test_non_finite_term_is_named(self):
        filt = three_level(make_space(4))
        for bad in (np.inf, -np.inf, np.nan):
            values = np.ones((3, 4, 2))
            values[2, 1, 1] = bad
            with pytest.raises(ValidationError, match="term 3 has non-finite values"):
                AdaptedSequence(filt, values)


class TestCondExpect:
    def test_equal_atoms_pair_blocks(self):
        space = make_space(4)
        filt = three_level(space)
        X = RandomVector(space, [1.0, 3.0, 5.0, 7.0])
        out = cond_expect(X, filt, 2)
        np.testing.assert_array_equal(out.values.ravel(), [2.0, 2.0, 6.0, 6.0])

    def test_finest_partition_is_identity(self):
        space = make_space(4)
        filt = three_level(space)
        X = RandomVector(space, [1.0, -2.0, 0.5, 9.0])
        np.testing.assert_array_equal(cond_expect(X, filt, 1).values, X.values)

    def test_weighted_mean_on_unequal_probs(self):
        # 0.5*2 + 0.25*4 + 0.25*8 = 4
        space = FiniteProbSpace([0.5, 0.25, 0.25])
        filt = DecreasingFiltration.from_blocks(space, [[[0, 1, 2]]])
        out = cond_expect(RandomVector(space, [2.0, 4.0, 8.0]), filt, 1)
        np.testing.assert_allclose(out.values.ravel(), [4.0, 4.0, 4.0], atol=1e-15)

    def test_matches_brute_force_block_average(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=16, levels=6, n=5, dim=2
            )
            X = inst.sequence.terms[0]
            for level in range(1, 7):
                got = cond_expect(X, inst.filtration, level).values
                want = brute_block_average(
                    inst.space, inst.filtration, X.values, level
                )
                np.testing.assert_allclose(got, want, atol=1e-14)

    def test_level_merging_many_blocks_at_once(self):
        # twelve singletons collapse into three blocks in one step, then into one
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.2, 1.0, 12)
        space = FiniteProbSpace(raw / raw.sum())
        filt = DecreasingFiltration(space, [
            np.arange(12),
            [2, 0, 1, 1, 2, 0, 0, 2, 1, 0, 1, 0],
            np.zeros(12, dtype=np.int64),
        ])
        assert filt.n_blocks(2) == 3
        X = RandomVector(space, rng.standard_normal((12, 2)))
        for level in (1, 2, 3):
            want = brute_block_average(space, filt, X.values, level)
            np.testing.assert_allclose(cond_expect(X, filt, level).values, want, atol=1e-14)

    def test_tower_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=20, levels=8, n=7, dim=1
            )
            X = RandomVector(inst.space, rng.standard_normal(20))
            for j in range(1, 8):
                twice = cond_expect(cond_expect(X, inst.filtration, j),
                                    inst.filtration, j + 1)
                once = cond_expect(X, inst.filtration, j + 1)
                np.testing.assert_allclose(twice.values, once.values, atol=1e-13)

    def test_contraction_in_every_moment(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=24, levels=8, n=7, dim=2
            )
            X = RandomVector(inst.space, rng.standard_normal((24, 2)))
            for p in (1.0, 1.5, 2.0, 3.0):
                base = X.moment(p)
                for j in range(1, 9):
                    assert cond_expect(X, inst.filtration, j).moment(p) <= base + 1e-12

    def test_moments_decrease_along_the_filtration(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=24, levels=9, n=8, dim=1
            )
            X = RandomVector(inst.space, rng.standard_normal(24))
            for p in (1.0, 1.5, 2.0, 3.0):
                moments = [
                    cond_expect(X, inst.filtration, j).moment(p)
                    for j in range(1, 10)
                ]
                assert all(
                    later <= earlier + 1e-12
                    for earlier, later in zip(moments, moments[1:])
                )


class TestCondTable:
    def test_rows_match_brute_force_block_averages(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            atoms = int(rng.integers(2, 30))
            levels = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            space, filt = random_filtration(rng, atoms, levels)
            for first in range(1, levels + 1):
                values = rng.standard_normal((levels - first + 1, atoms, dim))
                table = _cond_table(filt, values, first)
                assert table.shape == values.shape
                for r, row in enumerate(table):
                    want = brute_block_average(space, filt, values[r], first + r)
                    np.testing.assert_allclose(row, want, atol=1e-14)

    def test_rows_equal_per_level_averages_byte_for_byte(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            atoms = int(rng.integers(2, 40))
            levels = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 10))
            _, filt = random_filtration(rng, atoms, levels)
            first = int(rng.integers(1, levels + 1))
            values = rng.standard_normal((levels - first + 1, atoms, dim))
            table = _cond_table(filt, values, first)
            for r, row in enumerate(table):
                want = per_level_block_average(filt, values[r], first + r)
                assert row.tobytes() == want.tobytes()

    def test_one_row_equals_cond_expect(self):
        inst = random_instance(8, atoms=15, levels=6, n=5, dim=3)
        X = inst.sequence.terms[0]
        for level in range(1, 7):
            table = _cond_table(inst.filtration, X.values[None], level)
            want = cond_expect(X, inst.filtration, level).values
            assert table[0].tobytes() == want.tobytes()

    def test_broadcast_input_and_empty_table(self):
        inst = random_instance(9, atoms=10, levels=5, n=4, dim=2)
        X = inst.sequence.terms[0].values
        table = _cond_table(inst.filtration, np.broadcast_to(X, (5, *X.shape)))
        for level in range(1, 6):
            want = cond_expect(inst.sequence.terms[0], inst.filtration, level).values
            assert table[level - 1].tobytes() == want.tobytes()
        assert _cond_table(inst.filtration, np.empty((0, 10, 2)), 6).shape == (0, 10, 2)

    def test_table_is_read_only(self):
        inst = random_instance(2, atoms=8, levels=4, n=3, dim=1)
        table = _cond_table(inst.filtration, inst.sequence.values)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0

    def test_row_past_the_last_level_rejected(self):
        inst = random_instance(2, atoms=8, levels=4, n=3, dim=1)
        values = np.zeros((2, 8, 1))
        with pytest.raises(ValidationError, match="level 5 out of range 1..4"):
            _cond_table(inst.filtration, values, 4)
        with pytest.raises(ValidationError, match="level 7 out of range 1..4"):
            _cond_table(inst.filtration, values, 7)
        with pytest.raises(ValidationError, match="level 0 out of range 1..4"):
            _cond_table(inst.filtration, values, 0)
        with pytest.raises(ValidationError, match="level 5 out of range 1..4"):
            reverse_mart_diff(inst.sequence.terms[0], inst.filtration, 4)


class TestReverseMartDiff:
    def test_constant_vector_gives_zero(self):
        space = make_space(4)
        filt = three_level(space)
        X = RandomVector(space, [3.0, 3.0, 3.0, 3.0])
        np.testing.assert_allclose(
            reverse_mart_diff(X, filt, 1).values, 0.0, atol=1e-15
        )

    def test_identical_partitions_give_zero(self):
        space = make_space(4)
        filt = DecreasingFiltration.from_blocks(space, [[[0, 1], [2, 3]], [[0, 1], [2, 3]]])
        X = RandomVector(space, [1.0, 1.0, 4.0, 4.0])
        np.testing.assert_array_equal(reverse_mart_diff(X, filt, 1).values, 0.0)

    def test_singletons_to_pairs(self):
        space = make_space(4)
        filt = three_level(space)
        X = RandomVector(space, [1.0, 3.0, 5.0, 7.0])
        out = reverse_mart_diff(X, filt, 1)
        np.testing.assert_allclose(
            out.values.ravel(), [-1.0, 1.0, -1.0, 1.0], atol=1e-15
        )

    def test_block_sums_vanish_at_the_coarser_level(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=18, levels=7, n=6, dim=2
            )
            X = RandomVector(inst.space, rng.standard_normal((18, 2)))
            for i in range(1, 7):
                diff = reverse_mart_diff(X, inst.filtration, i)
                back = cond_expect(diff, inst.filtration, i + 1)
                assert np.abs(back.values).max() <= 1e-12


class TestPartialSums:
    def test_first_term_is_conditioned_to_itself(self):
        inst = random_instance(3, atoms=10, levels=5, n=4, dim=2)
        partial, conditioned = adapted_partial_sums(inst.sequence, 1)
        np.testing.assert_array_equal(partial[0].values, inst.sequence.terms[0].values)
        np.testing.assert_allclose(
            conditioned[0].values, partial[0].values, atol=1e-14
        )

    def test_zero_terms_give_zero(self):
        space = make_space(4)
        filt = three_level(space)
        seq = AdaptedSequence(filt, np.zeros((2, 4)))
        partial, conditioned = adapted_partial_sums(seq, 2)
        for v in partial + conditioned:
            np.testing.assert_array_equal(v.values, 0.0)

    def test_against_block_average_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=16, levels=7, n=6, dim=2
            )
            partial, conditioned = adapted_partial_sums(inst.sequence, 6)
            for k in range(1, 7):
                want = brute_block_average(
                    inst.space, inst.filtration, partial[k - 1].values, k
                )
                np.testing.assert_allclose(conditioned[k - 1].values, want, atol=1e-14)

    def test_overrun_rejected(self):
        inst = random_instance(5, atoms=10, levels=5, n=4, dim=1)
        with pytest.raises(ValidationError, match="exceeds"):
            adapted_partial_sums(inst.sequence, 5)


class TestExactMaxMoment:
    def test_single_variable(self):
        space = make_space(3)
        v = RandomVector(space, [1.0, -2.0, 0.5])
        assert exact_max_moment([v], 2.0) == pytest.approx(v.moment(2.0))

    def test_scaled_constant_pair(self):
        space = make_space(3)
        c = RandomVector(space, np.ones(3))
        assert exact_max_moment([c, RandomVector(space, 2.0 * c.values)], 2.0) == pytest.approx(4.0)

    def test_two_pass_recomputation_oracle(self):
        rng = np.random.default_rng(29)
        raw = rng.uniform(0.5, 1.5, 12)
        space = FiniteProbSpace(raw / raw.sum())
        vs = [RandomVector(space, rng.standard_normal((12, 3))) for _ in range(5)]
        for p in (1.0, 1.5, 2.0, 3.0):
            naive = 0.0
            for atom in range(12):
                best = max(np.linalg.norm(v.values[atom]) for v in vs)
                naive += space.probs[atom] * best**p
            assert exact_max_moment(vs, p) == pytest.approx(naive, abs=1e-14)

    def test_invalid_inputs(self):
        space = make_space(2)
        v = RandomVector(space, [1.0, 2.0])
        with pytest.raises(ValidationError):
            exact_max_moment([], 2.0)
        with pytest.raises(ValidationError):
            exact_max_moment([v], 0.5)


class TestDecomposition:
    def test_single_term_is_exact(self):
        inst = random_instance(31, atoms=8, levels=4, n=3, dim=1)
        assert decomposition_residual(inst.sequence, 1) == 0.0

    def test_constant_filtration_collapses(self):
        space = make_space(4)
        part = [[[0, 1], [2, 3]]] * 4
        filt = DecreasingFiltration.from_blocks(space, part)
        X = np.array([1.0, 1.0, -2.0, -2.0])
        seq = AdaptedSequence(filt, np.outer([1.0, 0.5, -1.0], X))
        assert decomposition_residual(seq, 3) <= 1e-13

    def test_residual_below_contract_on_random_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            atoms = int(rng.integers(n + 1, 33))
            dim = int(rng.integers(1, 4))
            inst = random_instance(
                int(rng.integers(0, 2**32)), atoms=atoms, levels=n + 1, n=n, dim=dim
            )
            assert decomposition_residual(inst.sequence, n) <= 1e-12


class TestOrthogonality:
    def test_constant_terms_give_zero(self):
        space = make_space(4)
        filt = DecreasingFiltration.from_blocks(space, [[[0, 1, 2, 3]]] * 4)
        seq = AdaptedSequence(filt, np.full((3, 4), 2.5))
        lhs, rhs = orthogonality_gap(seq, 2)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_identity_holds_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            atoms = int(rng.integers(n + 2, 40))
            inst = random_instance(
                int(rng.integers(0, 2**32)),
                atoms=atoms, levels=n + 1, n=n, dim=int(rng.integers(1, 4)),
            )
            lhs, rhs = orthogonality_gap(inst.sequence, n)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)

    def test_cross_terms_vanish_in_direct_expansion(self):
        # expand |sum_i D_i|^2 by hand and check the off-diagonal part
        inst = random_instance(43, atoms=12, levels=7, n=6, dim=2)
        seq, filt = inst.sequence, inst.filtration
        partial, conditioned = adapted_partial_sums(seq, 6)
        diffs = []
        for i in range(1, 7):
            coarser = cond_expect(partial[i - 1], filt, i + 1)
            diffs.append(conditioned[i - 1].values - coarser.values)
        probs = inst.space.probs
        for a in range(6):
            for b in range(a + 1, 6):
                cross = float(probs @ (diffs[a] * diffs[b]).sum(axis=1))
                assert abs(cross) <= 1e-12

    def test_needs_filtration_past_n(self):
        inst = random_instance(47, atoms=10, levels=5, n=4, dim=1)
        with pytest.raises(ValidationError, match="extend"):
            orthogonality_gap(inst.sequence, 5)


class TestProblemJson:
    def test_round_trip(self):
        obj = {
            "probs": [0.25, 0.25, 0.25, 0.25],
            "partitions": [[[0], [1], [2], [3]], [[0, 1], [2, 3]]],
            "dim": 1,
            "terms": [[[1.0], [2.0], [3.0], [4.0]], [[1.0], [1.0], [5.0], [5.0]]],
        }
        space, filt, seq = load_problem(obj)
        assert space.n_atoms == 4
        assert filt.levels == 2
        assert len(seq) == 2
        np.testing.assert_array_equal(seq.values[:, :, 0], [[1, 2, 3, 4], [1, 1, 5, 5]])

    def test_errors_name_the_offending_field(self):
        with pytest.raises(ValidationError, match="probs"):
            load_problem({"partitions": [[[0]]]})
        bad_partition = {
            "probs": [0.5, 0.5],
            "partitions": [[[0], [1]], [[0], [1], []]],
        }
        with pytest.raises(ValidationError, match="level 2 block 2"):
            load_problem(bad_partition)
        bad_term = {
            "probs": [0.5, 0.5],
            "partitions": [[[0], [1]]],
            "dim": 2,
            "terms": [[[1.0], [2.0]]],
        }
        with pytest.raises(ValidationError, match=r"terms\[0\]"):
            load_problem(bad_term)


GOOD_PROBLEM = {
    "probs": [0.5, 0.25, 0.25],
    "partitions": [[[0], [1], [2]], [[0, 1], [2]]],
    "dim": 1,
    "terms": [[1.0, 2.0, 3.0], [[4.0], [4.0], [5.0]]],
}


@pytest.mark.parametrize("field,value,message", [
    ("probs", ["a", "b", "c"], "probs must be a rectangular list of numbers"),
    ("probs", [[0.5], [0.25, 0.25]], "probs must be a rectangular list of numbers"),
    ("terms", [[[1.0], [2.0, 2.0], [3.0]]], r"terms\[0\] must be a rectangular list of numbers"),
    ("terms", [[1.0, 2.0, 3.0], [4.0, "x", 5.0]], r"terms\[1\] must be a rectangular list of numbers"),
    ("dim", "x", "dim must be a positive integer, got 'x'"),
    ("partitions", [[[0], [1], [2]], [0, 1, 2]],
     "level 2 block 0 is not a list of integer atoms"),
    ("partitions", [[[0.5], [1], [2]], [[0, 1], [2]]],
     "level 1 block 0 is not a list of integer atoms"),
], ids=["non-numeric-probs", "ragged-probs", "ragged-term", "non-numeric-term",
        "non-integer-dim", "flat-level", "non-integer-atom"])
def test_malformed_problem_field_is_named(field, value, message):
    load_problem(GOOD_PROBLEM)
    with pytest.raises(ValidationError, match=message):
        load_problem({**GOOD_PROBLEM, field: value})
