import json

import numpy as np
import pytest

from revmax import ValidationError, WeightSequence
from revmax.weights import compute_stats, even_odd_stats, parse_weight_spec


class TestEval:
    def test_power(self):
        assert WeightSequence.power(-0.5).eval(4) == pytest.approx(0.5)

    def test_constant(self):
        w = WeightSequence.constant(1.0)
        assert all(w.eval(j) == 1.0 for j in (1, 2, 100))

    def test_explicit_lookup(self):
        w = WeightSequence.explicit([3.0, -1.0, 2.0])
        assert w.eval(2) == -1.0

    def test_explicit_overrun(self):
        w = WeightSequence.explicit([3.0, -1.0, 2.0])
        with pytest.raises(ValidationError, match="length 3"):
            w.eval(4)

    def test_alternating_signs(self):
        w = WeightSequence.alternating(WeightSequence.power(-0.5))
        assert w.eval(1) == pytest.approx(1.0)
        assert w.eval(2) == pytest.approx(-(2.0 ** -0.5))
        assert w.eval(3) == pytest.approx(3.0 ** -0.5)

    def test_range_matches_pointwise(self):
        for w in (
            WeightSequence.power(-0.5),
            WeightSequence.constant(2.0),
            WeightSequence.alternating(WeightSequence.power(-1.0)),
        ):
            arr = w.eval_range(40)
            for j in range(1, 41):
                assert arr[j] == pytest.approx(w.eval(j), abs=0.0)

    @pytest.mark.parametrize("w", [
        WeightSequence.power(-0.5),
        WeightSequence.power(-0.75),
        WeightSequence.power(1.5),
        WeightSequence.power(-2.0),
        WeightSequence.constant(-2.5),
        WeightSequence.alternating(WeightSequence.power(-0.5)),
        WeightSequence.alternating(WeightSequence.alternating(WeightSequence.constant(-3.0))),
    ], ids=lambda w: w.describe())
    def test_range_is_bit_identical_to_eval_up_to_2_19(self, w):
        # numpy's vectorised power differs from float ** float in the last
        # bit on some indices, so the range must not use it
        upto = 2 ** 19
        expected = np.array([0.0] + [w.eval(j) for j in range(1, upto + 1)])
        assert w.eval_range(upto).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ["power:-0.5", "power:1.5", "constant:1.0",
                                      "alternating:power:-0.75"])
    def test_range_equals_eval_after_growing_in_any_order(self, spec):
        w = parse_weight_spec(spec)
        for upto in (5, 300, 1, 64, 301, 2, 1000, 999):
            a = w.eval_range(upto)
            expected = np.array([0.0] + [w.eval(j) for j in range(1, upto + 1)])
            assert a.tobytes() == expected.tobytes()

    def test_range_is_read_only(self):
        for w in (WeightSequence.power(-0.5), WeightSequence.explicit([1.0, 2.0, 3.0])):
            for upto in (2, 3, 1):
                with pytest.raises(ValueError):
                    w.eval_range(upto)[1] = 7.0
            assert w.eval_range(3).tolist() == [0.0, w.eval(1), w.eval(2), w.eval(3)]

    def test_explicit_list_errors_past_its_end_after_any_growth(self):
        w = WeightSequence.alternating(WeightSequence.explicit([1.0, -2.0, 3.0, 0.5]))
        for upto in (2, 4, 1, 3):
            w.eval_range(upto)
            with pytest.raises(ValidationError, match="length 4 cannot be evaluated at index 5"):
                w.eval_range(5)
        assert w.eval_range(4).tolist() == [0.0, 1.0, -2.0, 3.0, -0.5]

    def test_overflow_is_named_after_the_range_has_grown(self):
        w = parse_weight_spec("alternating:power:100")
        w.eval_range(600)
        with pytest.raises(ValidationError,
                           match="alternating:power:100 overflows double precision at index 1210"):
            w.eval_range(2000)
        assert w.eval_range(1209)[1:].tolist() == [w.eval(j) for j in range(1, 1210)]

    def test_explicit_range_keeps_signed_zeros(self):
        entries = [1.5, -0.0, 0.0, -2.0, 3.0]
        for w in (WeightSequence.explicit(entries),
                  WeightSequence.alternating(WeightSequence.explicit(entries))):
            expected = np.array([0.0] + [w.eval(j) for j in range(1, 6)])
            assert w.eval_range(5).tobytes() == expected.tobytes()
            with pytest.raises(ValidationError, match="length 5"):
                w.eval_range(6)


    @pytest.mark.parametrize("spec", ["power:100", "alternating:power:100",
                                      "alternating:alternating:power:100"])
    def test_overflow_names_the_spec_and_its_first_index(self, spec):
        w = parse_weight_spec(spec)
        # 1209 ** 100 is finite and 1210 ** 100 is not
        assert w.eval_range(1209)[1:].tolist() == [w.eval(j) for j in range(1, 1210)]
        # the spec as given, alternating signs included
        message = f"weight spec {spec} overflows double precision at index 1210"
        for evaluate in (lambda: w.eval_range(5000), lambda: w.eval_range(1210),
                         lambda: w.eval(1210), lambda: w.eval(5000)):
            with pytest.raises(ValidationError, match=message):
                evaluate()


class TestStats:
    def test_unit_weights_closed_forms(self):
        stats = compute_stats(WeightSequence.constant(1.0), 8)
        for k in range(1, 9):
            assert stats.s[k] == k
            assert stats.s_star[4 * k] == 4 * k
            # max(16k, 2k - 1) = 16k
            assert stats.b[k] == pytest.approx(16.0 * k)

    def test_inverse_sqrt_first_coefficient(self):
        # direct summation of the first four weights, then squared
        s4 = 1.0 + 2.0 ** -0.5 + 3.0 ** -0.5 + 0.5
        stats = compute_stats(WeightSequence.power(-0.5), 4)
        assert stats.b[1] == pytest.approx(max(s4 ** 2, 1.0))
        assert stats.b[1] == pytest.approx(7.7532, abs=1e-4)

    def test_alternating_unit_magnitudes(self):
        w = WeightSequence.alternating(WeightSequence.constant(1.0))
        stats = compute_stats(w, 4)
        np.testing.assert_allclose(stats.s[1:5], [1.0, 0.0, 1.0, 0.0])
        assert stats.s_star[4] == 1.0
        assert stats.b[1] == pytest.approx(1.0)
        # max(1/2, s_2^2 - s_1^2) = max(1/2, -1) = 1/2
        assert stats.b[2] == pytest.approx(0.5)

    def test_running_max_is_monotone(self):
        rng = np.random.default_rng(5)
        w = WeightSequence.explicit(rng.standard_normal(160).tolist())
        stats = compute_stats(w, 20)
        even, odd = even_odd_stats(w, 20)
        assert np.all(np.diff(stats.s_star[1:]) >= 0)
        assert np.all(np.diff(even.s_star[1:]) >= 0)
        assert np.all(np.diff(odd.s_star[1:]) >= 0)

    def test_b_dominates_both_branches(self):
        rng = np.random.default_rng(9)
        w = WeightSequence.explicit(rng.standard_normal(240).tolist())
        stats = compute_stats(w, 30)
        for k in range(1, 31):
            assert stats.b[k] >= stats.s[k] ** 2 - stats.s[k - 1] ** 2 - 1e-15
            assert stats.b[k] >= stats.s_star[4 * k] ** 2 / k - 1e-15
            assert stats.b[k] >= 0.0

    def test_b_positive_when_any_weight_is_nonzero(self):
        w = WeightSequence.explicit([0.0, 0.0, 1.0] + [0.0] * 40)
        stats = compute_stats(w, 5)
        assert all(stats.b[k] > 0 for k in range(1, 6))

    def test_inverse_sqrt_coefficients_stay_bounded(self):
        stats = compute_stats(WeightSequence.power(-0.5), 4096)
        assert np.nanmax(stats.b[1:]) <= 20.0

    def test_unit_weight_coefficients_grow_linearly(self):
        stats = compute_stats(WeightSequence.constant(1.0), 4096)
        ratios = stats.b[1:] / np.arange(1, 4097)
        np.testing.assert_allclose(ratios, 16.0, atol=1e-12)

    def test_even_odd_split_consistency(self):
        rng = np.random.default_rng(17)
        w = WeightSequence.explicit(rng.standard_normal(400).tolist())
        stats = compute_stats(w, 25)
        even, odd = even_odd_stats(w, 25)
        # s_{2k} = s_e_k + s_o_k up to float reassociation
        for k in range(1, 26):
            assert stats.s[2 * k] == pytest.approx(even.s[k] + odd.s[k], abs=1e-12)
        # the subsequences are the weights a_2, a_4, .. and a_1, a_3, ..
        np.testing.assert_array_equal(even.s[1:3], np.cumsum([w.eval(2), w.eval(4)]))
        np.testing.assert_array_equal(odd.s[1:3], np.cumsum([w.eval(1), w.eval(3)]))

    @pytest.mark.parametrize("build", [
        lambda: parse_weight_spec("constant:1"),
        lambda: parse_weight_spec("power:-0.5"),
        lambda: WeightSequence.explicit(np.random.default_rng(23).standard_normal(8 * 40)),
        lambda: parse_weight_spec("alternating:power:-0.5"),
    ], ids=["constant:1", "power:-0.5", "explicit", "alternating:power:-0.5"])
    def test_a_longer_horizon_repeats_every_entry_a_shorter_one_reads(self, build):
        # a batch computes its statistics once, at its largest horizon; each
        # horizon-n record reads s and s_star through 4n and b through n
        N = 40
        whole = compute_stats(build(), N)
        halves = even_odd_stats(build(), N)
        for n in range(1, N + 1):
            for long, short in zip((whole, *halves),
                                   (compute_stats(build(), n), *even_odd_stats(build(), n))):
                assert long.s[: 4 * n + 1].tobytes() == short.s.tobytes()
                assert long.s_star[: 4 * n + 1].tobytes() == short.s_star.tobytes()
                assert long.b[: n + 1].tobytes() == short.b.tobytes()

    def test_all_zero_weights_are_allowed(self):
        stats = compute_stats(WeightSequence.constant(0.0), 6)
        assert np.all(stats.b[1:] == 0.0)
        even, odd = even_odd_stats(WeightSequence.constant(0.0), 6)
        assert np.all(even.b[1:] == 0.0) and np.all(odd.b[1:] == 0.0)

    def test_explicit_list_must_reach_4n(self):
        w = WeightSequence.explicit([1.0] * 30)
        compute_stats(w, 7)
        with pytest.raises(ValidationError, match="index 32"):
            compute_stats(w, 8)

    def test_explicit_list_must_reach_8n(self):
        # only the even/odd statistics read the weights through index 8n
        w = WeightSequence.explicit([1.0] * 30)
        even_odd_stats(w, 3)
        with pytest.raises(ValidationError, match="index 32"):
            even_odd_stats(w, 4)


class TestParser:
    def test_constant_and_power(self):
        assert parse_weight_spec("constant:1.0").describe() == "constant:1"
        w = parse_weight_spec("power:-0.5")
        assert w.eval(4) == pytest.approx(0.5)

    def test_alternating_nested(self):
        w = parse_weight_spec("alternating:power:-0.5")
        assert w.eval(2) == pytest.approx(-(2.0 ** -0.5))

    def test_explicit_from_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps([1.0, -1.0, 0.5]))
        w = parse_weight_spec(f"explicit:@{path}")
        assert w.eval(3) == 0.5

    def test_bad_specs_rejected(self, tmp_path):
        for bad in ("constant", "constant:x", "mystery:1", "explicit:1,2"):
            with pytest.raises(ValidationError):
                parse_weight_spec(bad)
        missing = tmp_path / "missing.json"
        with pytest.raises(ValidationError, match="cannot read"):
            parse_weight_spec(f"explicit:@{missing}")
        for entries in ([1.0, "a"], [[1.0], [2.0, 3.0]], {"a": 1.0}):
            path = tmp_path / "w.json"
            path.write_text(json.dumps(entries))
            with pytest.raises(ValidationError, match="must be a rectangular list of numbers"):
                parse_weight_spec(f"explicit:@{path}")


class TestFlatSequence:
    @pytest.mark.parametrize("build, message", [
        (lambda: WeightSequence.constant(float("nan")), "constant weight needs a finite value"),
        (lambda: WeightSequence.power(float("inf")), "power weight needs a finite exponent"),
        (lambda: WeightSequence.explicit([]), "explicit weights need a nonempty list"),
        (lambda: WeightSequence.explicit([float("nan")]), "explicit weights must be finite"),
        (lambda: WeightSequence.alternating("power:-0.5"),
         "alternating weights need a base sequence"),
    ], ids=["constant-nan", "power-inf", "explicit-empty", "explicit-nan", "alternating-str"])
    def test_each_constructor_refuses_its_parameter(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("base", [
        WeightSequence.constant(-2.5),
        WeightSequence.power(-0.5),
        WeightSequence.explicit([1.5, -0.0, 0.0, -2.0, 3.0, -0.0, 0.25]),
    ], ids=lambda w: w.describe())
    def test_alternating_twice_equals_alternating_once_bit_for_bit(self, base):
        once = WeightSequence.alternating(base)
        twice = WeightSequence.alternating(WeightSequence.alternating(base))
        upto = 7
        assert twice.eval_range(upto).tobytes() == once.eval_range(upto).tobytes()
        for j in range(1, upto + 1):
            assert np.float64(twice.eval(j)).tobytes() == np.float64(once.eval(j)).tobytes()
        assert once.describe() == f"alternating:{base.describe()}"
        assert twice.describe() == f"alternating:alternating:{base.describe()}"

    def test_alternating_keeps_the_sign_of_zero_by_index(self):
        w = WeightSequence.alternating(WeightSequence.explicit([-0.0, 0.0, -0.0, 0.0]))
        assert [np.signbit(x) for x in w.eval_range(4)[1:]] == [False, True, False, True]
