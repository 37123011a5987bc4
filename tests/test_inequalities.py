import numpy as np
import pytest

from revmax import (
    InequalityId,
    RandomVector,
    ValidationError,
    WeightSequence,
    adapted_partial_sums,
    cond_expect,
    doob_factor,
    exact_max_moment,
    random_instance,
    series_criterion,
    smoothness_factor,
    traced_constant,
    triangle_factor,
    verify,
    verify_batch,
)
from revmax.weights import compute_stats

ALL_P = {
    InequalityId.MAX_VS_ENDPOINT: (1.5, 2.0, 3.0),
    InequalityId.MAX_VS_PROJECTIONS: (1.5, 2.0),
    InequalityId.WEIGHTED_MAX_VS_ENDPOINT: (1.5, 2.0, 3.0),
    InequalityId.WEIGHTED_MAX_VS_PROJECTIONS: (1.5, 2.0),
    InequalityId.DYADIC_WEIGHTED_MAX: (1.5, 2.0, 3.0),
    InequalityId.SECOND_MOMENT_SERIES: (2.0,),
    InequalityId.SMOOTHNESS: (1.5, 2.0),
}

WEIGHT_FAMILIES = (
    WeightSequence.constant(1.0),
    WeightSequence.power(-0.5),
    WeightSequence.alternating(WeightSequence.power(-0.5)),
)


class TestTracedConstants:
    def test_doob_ingredient_at_two(self):
        assert doob_factor(2.0) == pytest.approx(4.0)

    def test_smoothness_ingredient_at_two(self):
        assert smoothness_factor(2.0) == 1.0

    def test_triangle_ingredient_at_two(self):
        assert triangle_factor(2.0) == 2.0

    def test_known_assembled_values(self):
        assert traced_constant(InequalityId.MAX_VS_ENDPOINT, 2.0).value == 42.0
        assert traced_constant(InequalityId.MAX_VS_PROJECTIONS, 2.0).value == 20.0
        assert traced_constant(InequalityId.DYADIC_WEIGHTED_MAX, 2.0).value == 8.0
        assert traced_constant(InequalityId.SECOND_MOMENT_SERIES, 2.0).value == 36.0
        assert traced_constant(InequalityId.SMOOTHNESS, 2.0).value == 1.0

    def test_every_constant_has_a_trace(self):
        for check, ps in ALL_P.items():
            for p in ps:
                tc = traced_constant(check, p)
                assert np.isfinite(tc.value)
                assert len(tc.derivation) >= 1

    def test_validity_ranges_enforced(self):
        with pytest.raises(ValidationError):
            traced_constant(InequalityId.MAX_VS_ENDPOINT, 1.0)
        with pytest.raises(ValidationError):
            traced_constant(InequalityId.MAX_VS_PROJECTIONS, 3.0)
        with pytest.raises(ValidationError):
            traced_constant(InequalityId.SECOND_MOMENT_SERIES, 1.5)


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        a = random_instance(1, atoms=12, levels=6, n=5, dim=2)
        b = random_instance(1, atoms=12, levels=6, n=5, dim=2)
        np.testing.assert_array_equal(a.space.probs, b.space.probs)
        for x, y in zip(a.sequence.terms, b.sequence.terms):
            np.testing.assert_array_equal(x.values, y.values)

    def test_one_merge_per_level(self):
        inst = random_instance(2, atoms=8, levels=8, n=7, dim=1)
        for level in range(1, 9):
            assert inst.filtration.n_blocks(level) == 8 - level + 1

    def test_labels_match_the_list_merge_generator(self):
        # reference: merge explicit block lists, then read the labels off them
        def list_merge_labels(seed, atoms, levels):
            rng = np.random.default_rng(seed)
            rng.uniform(0.2, 1.0, atoms)  # the probabilities are drawn first
            blocks = [[i] for i in range(atoms)]
            rows = []
            for level in range(levels):
                if level:
                    i, j = sorted(rng.choice(len(blocks), size=2, replace=False))
                    blocks[i] = sorted(blocks[i] + blocks[j])
                    del blocks[j]
                row = np.empty(atoms, dtype=np.int64)
                for b, block in enumerate(blocks):
                    row[block] = b
                rows.append(row)
            return rows

        shapes = np.random.default_rng(53)
        for seed in range(50):
            atoms = int(shapes.integers(2, 65))
            levels = int(shapes.integers(2, atoms + 1))
            inst = random_instance(seed, atoms=atoms, levels=levels, n=levels - 1, dim=1)
            want = list_merge_labels(seed, atoms, levels)
            for level in range(1, levels + 1):
                np.testing.assert_array_equal(inst.filtration.labels(level), want[level - 1])

    def test_term_array_matches_a_per_term_draw_loop(self):
        # reference: one standard-normal draw per level-j block, gathered
        # through the level-j labels, term by term
        shapes = np.random.default_rng(59)
        for seed in range(50):
            dim = seed % 9 + 1
            atoms = int(shapes.integers(2, 65))
            levels = int(shapes.integers(2, atoms + 1))
            n = int(shapes.integers(1, levels))
            inst = random_instance(seed, atoms=atoms, levels=levels, n=n, dim=dim)
            rng = np.random.default_rng(seed)
            rng.uniform(0.2, 1.0, atoms)
            for level in range(1, levels):  # the merge draws come before the terms
                rng.choice(atoms - level + 1, size=2, replace=False)
            want = np.stack([
                rng.standard_normal((inst.filtration.n_blocks(j), dim))[
                    inst.filtration.labels(j)
                ]
                for j in range(1, n + 1)
            ])
            np.testing.assert_array_equal(inst.sequence.values, want)
            assert inst.descriptor() == {"seed": seed, "atoms": atoms, "n": n, "dim": dim}
            assert inst.levels == levels

    def test_infeasible_shapes_rejected(self):
        with pytest.raises(ValidationError, match="infeasible"):
            random_instance(3, atoms=4, levels=5, n=4, dim=1)
        with pytest.raises(ValidationError, match="n \\+ 1"):
            random_instance(3, atoms=10, levels=4, n=4, dim=1)

    def test_generated_sequences_are_measurable(self):
        # AdaptedSequence validates measurability at construction; touching
        # many seeds exercises the generator against that validator.
        for seed in range(30):
            random_instance(seed, atoms=16, levels=9, n=8, dim=3)


class TestVerify:
    def test_single_term_endpoint_ratio_is_half(self):
        inst = random_instance(11, atoms=8, levels=4, n=3, dim=2)
        rec = verify(InequalityId.MAX_VS_ENDPOINT, inst, n=1, p=2.0)
        assert rec.ratio == pytest.approx(0.5, abs=1e-12)
        assert rec.passed

    def test_zero_weights_report_skipped(self):
        inst = random_instance(13, atoms=10, levels=6, n=5, dim=1)
        rec = verify(
            InequalityId.SECOND_MOMENT_SERIES,
            inst,
            p=2.0,
            weights=WeightSequence.constant(0.0),
        )
        assert rec.skipped and rec.passed
        assert np.isnan(rec.ratio)

    def test_missing_weights_rejected(self):
        inst = random_instance(17, atoms=10, levels=6, n=5, dim=1)
        with pytest.raises(ValidationError, match="weight"):
            verify(InequalityId.SECOND_MOMENT_SERIES, inst, p=2.0)

    def test_projection_rhs_equals_telescoping_at_two(self):
        # at p = 2 each projection moment equals the drop in conditional
        # moments, term by term
        inst = random_instance(19, atoms=20, levels=11, n=10, dim=2)
        partial, conditioned = adapted_partial_sums(inst.sequence, 10)
        for i in range(1, 10):
            coarser = cond_expect(partial[i - 1], inst.filtration, i + 1)
            increment = conditioned[i - 1].values - coarser.values
            proj = RandomVector(inst.space, increment).moment(2.0)
            drop = conditioned[i - 1].moment(2.0) - coarser.moment(2.0)
            assert proj == pytest.approx(drop, abs=1e-12)

    def test_smoothness_is_equality_at_two(self):
        for seed in range(10):
            inst = random_instance(seed, atoms=16, levels=8, n=7, dim=2)
            rec = verify(InequalityId.SMOOTHNESS, inst, p=2.0)
            assert abs(rec.lhs - rec.rhs) <= 1e-12 * (1.0 + rec.rhs)

    def test_endpoint_lhs_grows_with_horizon(self):
        inst = random_instance(23, atoms=20, levels=13, n=12, dim=1)
        values = [
            verify(InequalityId.MAX_VS_ENDPOINT, inst, n=n, p=2.0).lhs
            for n in range(1, 13)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_weighted_sequence_matches_scaled_conditionals(self):
        # the adapted terms a_j E_j X make E_k S_k = s_k E_k X by the tower rule
        inst = random_instance(29, atoms=14, levels=8, n=7, dim=1)
        w = WeightSequence.power(-0.5)
        stats = compute_stats(w, 7)
        X = inst.sequence.terms[0]
        terms = [
            w.eval(j) * cond_expect(X, inst.filtration, j).values for j in range(1, 8)
        ]
        running = terms[0]
        for k in range(2, 8):
            running = running + terms[k - 1]
            cond_of_sum = cond_expect(RandomVector(inst.space, running), inst.filtration, k)
            direct = stats.s[k] * cond_expect(X, inst.filtration, k).values
            np.testing.assert_allclose(cond_of_sum.values, direct, atol=1e-12)


class TestPropertySuite:
    @pytest.mark.parametrize("check", list(ALL_P))
    def test_traced_constants_hold_on_random_instances(self, check):
        for p in ALL_P[check]:
            weights = WEIGHT_FAMILIES if check.value.startswith(("weighted", "dyadic", "second")) else (None,)
            for w_index, w in enumerate(weights):
                records = verify_batch(
                    check, p=p, count=25, seed=1000 + w_index, weights=w,
                    atoms_max=40, n_max=16,
                )
                assert all(r.passed for r in records)

    def test_bounded_plus_stabilized_tail_converges(self):
        # once the filtration goes constant the weighted partial sums become
        # a fixed vector plus a summable tail, so pairwise distances collapse
        space_probs = np.full(8, 0.125)
        from revmax import AdaptedSequence, DecreasingFiltration, FiniteProbSpace

        space = FiniteProbSpace(space_probs)
        parts = [[[0, 1], [2, 3], [4, 5], [6, 7]]] * 2 + [[[0, 1, 2, 3], [4, 5, 6, 7]]] * 30
        filt = DecreasingFiltration.from_blocks(space, parts)
        rng = np.random.default_rng(3)
        X = RandomVector(space, rng.standard_normal(8))
        w = WeightSequence.explicit([4.0 ** -j for j in range(1, 31)])
        terms = [w.eval(j) * cond_expect(X, filt, j).values for j in range(1, 31)]
        seq = AdaptedSequence(filt, terms)
        partial, _ = adapted_partial_sums(seq, 30)
        distances = [
            exact_max_moment(
                [RandomVector(space, partial[-1].values - partial[m].values)], 2.0
            ) ** 0.5
            for m in range(14, 29)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 1e-10


class TestSeriesCriterion:
    def test_zero_moments_converge(self):
        verdict = series_criterion(
            WeightSequence.constant(1.0), np.zeros(16), horizon=16
        )
        assert verdict.partial == 0.0
        assert verdict.verdict == "converges"

    def test_geometric_moments_converge(self):
        moments = 4.0 ** -np.arange(1, 65)
        verdict = series_criterion(
            WeightSequence.constant(1.0), moments, horizon=64
        )
        # 16 k 4^-k summed over all k stays below 16 * 4/9 * ... ; compare
        # against the closed form of the full series as a sanity anchor
        full = 16.0 * sum(k * 4.0 ** -k for k in range(1, 200))
        assert verdict.partial <= full + 1e-9
        assert verdict.verdict == "converges"

    def test_harmonic_type_moments_diverge(self):
        moments = 1.0 / np.arange(1.0, 257.0) ** 2
        verdict = series_criterion(
            WeightSequence.constant(1.0), moments, horizon=256
        )
        assert verdict.verdict == "diverges"

    def test_tail_bound_certifies_convergence(self):
        moments = 4.0 ** -np.arange(1, 9)
        verdict = series_criterion(
            WeightSequence.constant(1.0), moments, horizon=8, tail_bound=1e-3
        )
        assert verdict.verdict == "converges"

    def test_increasing_moments_rejected(self):
        with pytest.raises(ValidationError, match="increase"):
            series_criterion(
                WeightSequence.constant(1.0), np.array([1.0, 2.0, 1.0, 0.5]), 4
            )
