import contextlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import revmax
from revmax import (
    ValidationError,
    WeightSequence,
    inequalities,
    markov,
    mc_max_moment,
)
from revmax import cli, simulate
from revmax.cli import _verdict_health, run
from revmax.markov import load_chain, load_observable


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def chain_files(tmp_path):
    chain = tmp_path / "chain.json"
    assert run([
        "gen-chain", "--model", "two-state", "--p", "0.25", "--q", "0.25",
        "-o", str(chain),
    ]) == 0
    centered = tmp_path / "f.json"
    centered.write_text(json.dumps({"dim": 1, "values": [[1.0], [-1.0]]}))
    uncentered = tmp_path / "g.json"
    uncentered.write_text(json.dumps({"dim": 1, "values": [[1.0], [1.0]]}))
    return chain, centered, uncentered


class TestGenChain:
    def test_two_state_kernel_values(self, chain_files):
        chain, _, _ = chain_files
        payload = json.loads(read(chain))
        assert payload["Q"] == [[0.75, 0.25], [0.25, 0.75]]
        assert payload["pi"] == [0.5, 0.5]

    def test_sidecar_records_argv_and_version(self, chain_files):
        chain, _, _ = chain_files
        meta = json.loads(read(str(chain) + ".meta.json"))
        assert meta["argv"][0] == "gen-chain"
        assert "version" in meta

    def test_missing_params_exit_two(self, tmp_path):
        assert run([
            "gen-chain", "--model", "two-state", "-o", str(tmp_path / "c.json"),
        ]) == 2


    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_weighted_graph_needs_a_state(self, m, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["gen-chain", "--model", "weighted-graph", "--m", m, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --m must be >= 1, got {m}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["birth-death", "lazy-ring"])
    @pytest.mark.parametrize("m", ["1", "0", "-1"])
    def test_chain_needs_two_states(self, model, m, tmp_path, capsys):
        out = tmp_path / "c.json"
        flags = ["--up", "0.3", "--down", "0.2"] if model == "birth-death" else ["--laziness", "0.5"]
        argv = ["gen-chain", "--model", model, *flags, "--m", m, "-o", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: --m must be >= 2, got {m}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model, flags, message", [
        ("birth-death", ["--m", "3", "--up", "0.3"], "birth-death needs --m, --up and --down"),
        ("lazy-ring", ["--m", "3"], "lazy-ring needs --m and --laziness"),
        ("weighted-graph", [], "weighted-graph needs --weights-file or --m"),
        ("metropolis", ["--target-file", "t.json"],
         "metropolis needs --target-file and --proposal-file"),
    ])
    def test_missing_flags_exit_two_naming_them(self, model, flags, message, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["gen-chain", "--model", model, *flags, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestSpectrum:
    def test_eigenvector_spectrum(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        out = tmp_path / "spec.csv"
        assert run(["spectrum", str(chain), str(f), "-o", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "lambda,mass"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        big = [(l, m) for l, m in rows if m > 1e-12]
        assert len(big) == 1
        assert big[0][0] == pytest.approx(0.5, abs=1e-12)

    def test_malformed_chain_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": [0, 1]}))
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"dim": 1, "values": [[1.0], [-1.0]]}))
        code = run(["spectrum", str(bad), str(f), "-o", str(tmp_path / "s.csv")])
        assert code == 2


GOOD_CHAIN = {"Q": [[0.75, 0.25], [0.25, 0.75]], "pi": [0.5, 0.5]}
GOOD_OBSERVABLE = {"dim": 1, "values": [[1.0], [-1.0]]}


@pytest.mark.parametrize("chain,observable,message", [
    ({}, {"dim": "x"}, "dim must be a positive integer, got 'x'"),
    ({}, {"dim": 2.5}, "dim must be a positive integer, got 2.5"),
    ({}, {"dim": "2"}, "dim must be a positive integer, got '2'"),
    ({}, {"values": [[1.0], ["a"]]}, "values must be a rectangular list of numbers"),
    ({"Q": [[0.75, 0.25], [0.25]]}, {}, "Q must be a rectangular list of numbers"),
    ({"Q": "ab"}, {}, "Q must be a rectangular list of numbers"),
    ({"pi": ["a", "b"]}, {}, "pi must be a rectangular list of numbers"),
    ({"states": 5}, {}, "states must be a list of state labels"),
    ({"pi": [math.nan, math.nan]}, {}, "stationary law pi must be finite, got [nan, nan]"),
    ({"pi": [math.inf, 1.0]}, {}, "stationary law pi must be finite, got [inf, 1.0]"),
    ({"Q": [[0.6, 0.5], [0.25, 0.75]]}, {}, "row 0 sums to 1.1, off by more than 1e-12"),
    ({"Q": [[1.5, -0.5], [0.25, 0.75]]}, {}, "kernel entry (0,1) is negative: -0.5"),
], ids=["text-dim", "fractional-dim", "quoted-dim", "non-numeric-values",
        "ragged-Q", "text-Q", "non-numeric-pi", "scalar-states", "nan-pi", "inf-pi",
        "row-sum-Q", "negative-Q"])
def test_malformed_chain_or_observable_exits_two_naming_the_field(
    chain, observable, message, tmp_path, capsys
):
    chain_path, f_path = tmp_path / "c.json", tmp_path / "f.json"
    chain_path.write_text(json.dumps({**GOOD_CHAIN, **chain}))
    f_path.write_text(json.dumps({**GOOD_OBSERVABLE, **observable}))
    out = tmp_path / "s.csv"
    assert run(["spectrum", str(chain_path), str(f_path), "-o", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("files,message", [
    ({"--weights-file": [[1.0, 1.0], [1.0]]}, "weight matrix must be"),
    ({"--target-file": "ab", "--proposal-file": [[0.5, 0.5], [0.5, 0.5]]}, "target must be"),
    ({"--target-file": [1.0, 2.0], "--proposal-file": [[0.5, 0.5], ["a", 0.5]]},
     "proposal must be"),
], ids=["ragged-weights", "text-target", "non-numeric-proposal"])
def test_malformed_gen_chain_file_exits_two_naming_it(files, message, tmp_path, capsys):
    model = "weighted-graph" if "--weights-file" in files else "metropolis"
    flags = []
    for flag, payload in files.items():
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(payload))
        flags += [flag, str(path)]
    out = tmp_path / "c.json"
    assert run(["gen-chain", "--model", model, *flags, "-o", str(out)]) == 2
    assert f"error: {message} a rectangular list of numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gen_chain_non_finite_target_exits_two(bad, tmp_path, capsys):
    target, proposal = tmp_path / "target.json", tmp_path / "proposal.json"
    target.write_text(json.dumps([1.0, bad, 2.0]))
    proposal.write_text(json.dumps([[1.0 / 3.0] * 3] * 3))
    out = tmp_path / "c.json"
    assert run(["gen-chain", "--model", "metropolis", "--target-file", str(target),
                "--proposal-file", str(proposal), "-o", str(out)]) == 2
    assert "error: target law must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# flag=value, so that argparse takes -inf as a value rather than an option
MODEL_FLAGS = {
    "p": ("two-state", "--p/--q", ["--p={}", "--q=0.5"]),
    "q": ("two-state", "--p/--q", ["--p=0.5", "--q={}"]),
    "up": ("birth-death", "--up/--down", ["--m=4", "--up={}", "--down=0.3"]),
    "down": ("birth-death", "--up/--down", ["--m=4", "--up=0.3", "--down={}"]),
    "laziness": ("lazy-ring", "--laziness", ["--m=5", "--laziness={}"]),
}


@pytest.mark.parametrize("model,flags,template,value", [
    pytest.param(*MODEL_FLAGS[name], value, id=f"{name}={value}")
    for name in MODEL_FLAGS
    for value in ("nan", "inf", "-inf", "0", "-0.5", "1.5", "7")
    if (name, value) != ("laziness", "0")  # a ring with laziness 0 is valid
])
def test_gen_chain_numeric_flag_errors_name_the_flags(model, flags, template, value,
                                                      tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = [arg.format(value) for arg in template]
    assert run(["gen-chain", "--model", model, *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_gen_chain_rows_past_one_name_the_move_flags(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["gen-chain", "--model", "birth-death", "--m", "3", "--up", "0.7",
                "--down", "0.7", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: --up/--down: move probabilities exceed 1 in some row\n"
    assert not out.exists()


@pytest.mark.parametrize("build,message", [
    (lambda: markov.ReversibleChain([[0.6, 0.5], [0.25, 0.75]]),
     "row 0 sums to 1.1, off by more than 1e-12"),
    (lambda: markov.ReversibleChain([[1.5, -0.5], [0.25, 0.75]]),
     "kernel entry (0,1) is negative: -0.5"),
    (lambda: revmax.FiniteProbSpace([0.5, 0.5, 0.0]), "atom 2 has non-positive probability 0.0"),
], ids=["row-sum", "negative-entry", "zero-probability"])
def test_error_messages_print_plain_numbers(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert "np.float64" not in str(info.value)
    assert str(info.value) == message


def assert_spectral_health(meta):
    assert meta["jacobi_sweeps"] == 1  # one sweep diagonalises a 2 x 2 matrix
    assert 0.0 <= meta["offdiag_residual"] <= 1e-12
    assert 0.0 <= meta["parseval_defect"] <= 1e-12


class TestSpectralSidecars:
    def test_spectrum_sidecar_records_solver_health(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        out = tmp_path / "spec.csv"
        assert run(["spectrum", str(chain), str(f), "-o", str(out)]) == 0
        assert_spectral_health(json.loads(read(str(out) + ".meta.json")))
        assert read(out).splitlines()[0] == "lambda,mass"

    def test_check_conditions_sidecar_records_solver_health(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        out = tmp_path / "report.json"
        assert run(["check-conditions", str(chain), str(f), "-o", str(out)]) == 0
        assert_spectral_health(json.loads(read(str(out) + ".meta.json")))
        assert "jacobi_sweeps" not in json.loads(read(out))


class TestCheckConditions:
    def test_centered_observable_all_true(self, chain_files, tmp_path, capsys):
        chain, f, _ = chain_files
        out = tmp_path / "report.json"
        assert run(["check-conditions", str(chain), str(f), "-o", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["all_equivalent"]
        assert payload["a_bounded"] and payload["e_member"]
        assert payload["c_sigma2"] == pytest.approx(3.0, abs=1e-10)
        assert payload["d_integral"] == pytest.approx(2.0, abs=1e-10)

    def test_uncentered_observable_all_false_but_equivalent(self, chain_files, tmp_path):
        chain, _, g = chain_files
        out = tmp_path / "report.json"
        assert run(["check-conditions", str(chain), str(g), "-o", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["all_equivalent"]
        assert not payload["a_bounded"]
        # infinite diagnostics serialize as strings to keep the JSON strict
        assert payload["c_sigma2"] == "inf"
        assert payload["d_integral"] == "inf"

    def test_without_out_the_json_goes_to_stdout(self, chain_files, tmp_path, capsys):
        chain, f, _ = chain_files
        out = tmp_path / "report.json"
        assert run(["check-conditions", str(chain), str(f), "-o", str(out)]) == 0
        capsys.readouterr()
        files = sorted(tmp_path.iterdir())
        assert run(["check-conditions", str(chain), str(f)]) == 0
        assert capsys.readouterr().out == read(out)
        assert sorted(tmp_path.iterdir()) == files

    def test_a_probe_horizon_off_the_powers_of_two_ends_the_grid(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        out = tmp_path / "report.json"
        assert run(["check-conditions", str(chain), str(f), "--probe-horizon", "48",
                    "-o", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["probe_grid"] == [1, 2, 4, 8, 16, 32, 48]
        assert len(payload["a_partial_sums"]) == 7


class TestVerify:
    def test_batch_passes_and_reports_rows(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run([
            "verify", "--id", "max-vs-endpoint", "--p", "2", "--instances", "20",
            "--seed", "1", "-o", str(out),
        ])
        assert code == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "id,p,seed,atoms,n,dim,lhs,rhs,ratio,constant,pass"
        assert len(lines) == 21
        assert all(line.endswith(",true") for line in lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify", "--id", "second-moment-series", "--p", "2",
                "--instances", "10", "--seed", "3", "--weights", "power:-0.5"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert read(a) == read(b)

    def test_unknown_id_exits_two(self, tmp_path):
        code = run(["verify", "--id", "nope", "-o", str(tmp_path / "r.csv")])
        assert code == 2

    def test_explicit_weights_need_only_4n(self, tmp_path):
        # second-moment-series at horizon n reads a_1..a_4n; n-max 32 needs 128
        weights = tmp_path / "w128.json"
        weights.write_text(json.dumps([1.0 / (j + 1) for j in range(128)]))
        out = tmp_path / "r.csv"
        assert run([
            "verify", "--id", "second-moment-series", "--instances", "10",
            "--seed", "2", "--weights", f"explicit:@{weights}", "-o", str(out),
        ]) == 0
        assert len(read(out).strip().splitlines()) == 11


class TestVerifySidecar:
    def test_sidecar_records_verdict_health(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run([
            "verify", "--id", "max-vs-projections", "--p", "1.5", "--instances", "25",
            "--seed", "4", "-o", str(out),
        ]) == 0
        meta = json.loads(read(str(out) + ".meta.json"))
        rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
        margins = [float(r[6]) / (float(r[9]) * float(r[7])) for r in rows]
        assert meta["violations"] == 0
        assert meta["skipped"] == 0
        assert meta["worst_margin"] == max(margins)
        assert 0 < meta["worst_margin"] <= 1

    def test_violations_counted_and_empty_batch_has_no_margin(self, tmp_path, monkeypatch):
        out = tmp_path / "r.csv"
        # a planted constant far below the identity's ratio of 1 fails every row
        planted = inequalities.TracedConstant("smoothness", 2.0, 1e-3, ())
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "traced_constant", lambda check, p: planted)
            assert run([
                "verify", "--id", "smoothness", "--p", "2", "--instances", "6",
                "--seed", "1", "-o", str(out),
            ]) == 1
        meta = json.loads(read(str(out) + ".meta.json"))
        assert meta["violations"] == 6
        assert meta["worst_margin"] == pytest.approx(1e3)
        assert run([
            "verify", "--id", "smoothness", "--instances", "0", "-o", str(out),
        ]) == 0
        meta = json.loads(read(str(out) + ".meta.json"))
        assert (meta["violations"], meta["skipped"], meta["worst_margin"]) == (0, 0, None)

    def test_skipped_rows_leave_the_margin_and_zero_rhs_violations_are_inf(self):
        skipped = inequalities.make_record("x", 2.0, {}, 0.0, 0.0, 4.0)
        passed = inequalities.make_record("x", 2.0, {}, 1.0, 2.0, 4.0)
        assert skipped.skipped and passed.passed
        assert _verdict_health([skipped, passed]) == {
            "violations": 0, "skipped": 1, "worst_margin": 0.125,
        }
        assert _verdict_health([skipped]) == {
            "violations": 0, "skipped": 1, "worst_margin": None,
        }
        violated = inequalities.make_record("x", 2.0, {}, 1.0, 0.0, 4.0)
        assert _verdict_health([passed, violated]) == {
            "violations": 1, "skipped": 0, "worst_margin": "inf",
        }


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "max-vs-endpoint", "--n-max", "0"],
    ["verify", "--id", "max-vs-endpoint", "--atoms-max", "1"],
    ["verify", "--id", "max-vs-endpoint", "--dim-max", "0"],
    ["verify", "--id", "max-vs-endpoint", "--instances", "-1"],
    ["verify-markov", "--id", "stein", "--n-max", "0"],
    ["verify-markov", "--id", "stein", "--m-max", "1"],
    ["verify-markov", "--id", "stein", "--chains", "-1"],
    ["verify", "--id", "max-vs-endpoint", "--threads", "0"],
    ["verify-markov", "--id", "stein", "--threads", "0"],
])
def test_out_of_range_flag_exits_two_naming_it(argv, tmp_path, capsys):
    assert run(argv + ["-o", str(tmp_path / "r.csv")]) == 2
    assert f"error: {argv[3]} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, draw", [
    (["verify", "--id", "max-vs-endpoint"], "verify_batch"),
    (["verify-markov", "--id", "stein"], "verify_markov_batch"),
    (["gen-chain", "--model", "weighted-graph", "--m", "5"], "make_chain"),
], ids=["verify", "verify-markov", "gen-chain"])
def test_negative_seed_exits_two_before_any_draw(argv, draw, tmp_path, monkeypatch, capsys):
    # numpy refuses a negative seed with a ValueError, which would escape
    # as exit code 1, the code for a violation
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before --seed was checked")

    monkeypatch.setattr(cli, draw, no_draw)
    out = tmp_path / "out"
    assert run(argv + ["--seed", "-1", "-o", str(out)]) == 2
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, check", [("verify", "smoothness"), ("verify-markov", "stein")])
def test_no_flag_sets_the_pass_slack(command, check, tmp_path, capsys):
    # every row is judged once, against its traced constant with PASS_SLACK
    out = tmp_path / "r.csv"
    assert run([command, "--id", check, "--tol-override", "1e-6", "-o", str(out)]) == 2
    assert "unrecognized arguments: --tol-override 1e-6" in capsys.readouterr().err
    assert not out.exists()


EXPONENT_CASES = [
    (check.value, p, "2", "--p") for check in inequalities.InequalityId
    for p in ("nan", "inf", "1")
] + [("max-vs-endpoint", "0.5", "0", "--p")] + [
    # the constant overflows, or the moments of the first instance do; the
    # sides of a weighted id also scale with its weights
    (check, p, "2", flags) for check, flags in (
        ("max-vs-endpoint", "--p"), ("weighted-max-vs-endpoint", "--p"),
        ("dyadic-weighted-max", "--p/--weights"),
    ) for p in ("400", "2000")
]


@pytest.mark.parametrize("check,p,instances,flags", EXPONENT_CASES,
                         ids=["-".join(case[:3]) for case in EXPONENT_CASES])
def test_exponent_outside_the_domain_exits_two_naming_it(check, p, instances, flags,
                                                         tmp_path, capsys):
    assert run([
        "verify", "--id", check, "--p", p, "--instances", instances,
        "-o", str(tmp_path / "r.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


WEIGHT_OVERFLOW_CASES = [
    # a_6 = 6 ** 400 overflows
    (["verify", "--id", "dyadic-weighted-max", "--instances", "3"], "power:400",
     "--weights: weight spec power:400 overflows double precision at index 6"),
    (["verify-markov", "--id", "weighted-power-max", "--chains", "3"], "power:400",
     "--weights: weight spec power:400 overflows double precision at index 6"),
    (["simulate"], "power:400",
     "--weights: weight spec power:400 overflows double precision at index 6"),
    # the spec the user typed, not the power inside it
    (["verify", "--id", "dyadic-weighted-max", "--instances", "3"], "alternating:power:400",
     "--weights: weight spec alternating:power:400 overflows double precision at index 6"),
    (["verify-markov", "--id", "weighted-power-max", "--chains", "3"], "alternating:power:400",
     "--weights: weight spec alternating:power:400 overflows double precision at index 6"),
    (["simulate"], "alternating:power:400",
     "--weights: weight spec alternating:power:400 overflows double precision at index 6"),
    # every weight is finite, but their sums overflow
    (["verify", "--id", "second-moment-series", "--instances", "3"], "constant:1e300",
     "--p/--weights: second-moment-series at p=2.0 overflows double precision"),
    (["verify-markov", "--id", "weighted-power-max", "--chains", "2"], "constant:1e300",
     "--weights: weighted-power-max at p=2.0 overflows double precision"),
    (["simulate"], "constant:1e300",
     "--weights: constant:1e+300 overflows double precision in the series"),
]


@pytest.mark.parametrize("argv,spec,message", WEIGHT_OVERFLOW_CASES,
                         ids=[f"{argv[0]}-{spec}" for argv, spec, _ in WEIGHT_OVERFLOW_CASES])
def test_overflowing_weights_exit_two_naming_them(argv, spec, message, chain_files, tmp_path,
                                                  capsys):
    chain, f, _ = chain_files
    out = tmp_path / "out"
    out.mkdir()
    if argv[0] == "simulate":
        argv = argv + ["--chain", str(chain), "--observable", str(f), "--n", "64",
                       "--trials", "100", "--threads", "2", "--osc-out", str(out / "osc.csv"),
                       "--paths-out", str(out / "paths.csv"),
                       "--estimate-out", str(out / "est.json")]
    else:
        argv = argv + ["-o", str(out / "r.csv")]
    assert run(argv + ["--weights", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


class TestVerifyMarkov:
    def test_batch_passes(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run([
            "verify-markov", "--id", "stein", "--chains", "15", "--seed", "2",
            "--m-max", "20", "--n-max", "32", "-o", str(out),
        ])
        assert code == 0
        lines = read(out).strip().splitlines()
        assert len(lines) == 16

    def test_threads_do_not_change_bytes(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1.csv"), (2, "t2.csv"), (8, "t8.csv")):
            path = tmp_path / name
            assert run([
                "verify-markov", "--id", "unit-weight-power-max", "--chains", "8",
                "--seed", "5", "--m-max", "15", "--n-max", "16",
                "--threads", str(threads), "-o", str(path),
            ]) == 0
            outs.append(read(path))
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("spec", ["alternating:power:1", "alternating:power:0.25"])
    def test_weights_outside_the_derivation_exit_two_naming_them(self, spec, tmp_path,
                                                                 capsys):
        # neither of one sign nor of non-increasing magnitude
        out = tmp_path / "m.csv"
        assert run(["verify-markov", "--id", "weighted-power-max", "--weights", spec,
                    "--chains", "20", "--seed", "3", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: weighted-power-max needs weights of one sign or of non-increasing"
            f" magnitude; {spec} is neither through a_"
        ), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", ["power:-0.5", "power:1", "constant:-2.0",
                                      "alternating:power:-0.5", "alternating:constant:1.0"])
    def test_weights_inside_the_derivation_are_judged(self, spec, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["verify-markov", "--id", "weighted-power-max", "--weights", spec,
                    "--chains", "3", "--seed", "3", "--m-max", "8", "--n-max", "8",
                    "-o", str(out)]) == 0
        assert len(read(out).splitlines()) == 4


class TestVerifyMarkovSidecar:
    def test_sidecar_records_verdict_health(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run([
            "verify-markov", "--id", "weighted-power-max", "--chains", "12",
            "--seed", "3", "--m-max", "12", "--n-max", "24", "-o", str(out),
        ]) == 0
        meta = json.loads(read(str(out) + ".meta.json"))
        rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
        margins = [float(r[6]) / (float(r[9]) * float(r[7]))
                   for r in rows if r[10] != "skipped"]
        assert meta["check"] == "weighted-power-max"
        assert meta["violations"] == sum(r[10] == "false" for r in rows) == 0
        assert meta["skipped"] == sum(r[10] == "skipped" for r in rows)
        assert meta["worst_margin"] == max(margins)
        assert 0 < meta["worst_margin"] <= 1

    def test_planted_constant_gives_violations(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "m.csv"
        planted = inequalities.TracedConstant("unit-weight-power-max", 2.0, 1e-9, ())
        with monkeypatch.context() as patch:
            patch.setattr(markov, "markov_traced_constant", lambda check: planted)
            assert run([
                "verify-markov", "--id", "unit-weight-power-max", "--chains", "5",
                "--seed", "1", "--m-max", "8", "--n-max", "8", "-o", str(out),
            ]) == 1
        meta = json.loads(read(str(out) + ".meta.json"))
        rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
        assert meta["violations"] == sum(r[10] == "false" for r in rows) == 5
        assert meta["skipped"] == 0
        assert meta["worst_margin"] == max(
            float(r[6]) / (float(r[9]) * float(r[7])) for r in rows
        )
        assert meta["worst_margin"] > 1
        assert "5 chains, 5 violations" in capsys.readouterr().out


class TestSimulate:
    def test_an_output_in_a_missing_directory_exits_two_before_sampling(
        self, chain_files, tmp_path, monkeypatch, capsys
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --estimate-out was checked")

        monkeypatch.setattr(cli, "reduce_trials", no_sampling)
        chain, f, _ = chain_files
        osc, estimate = tmp_path / "osc.csv", tmp_path / "missing" / "e.json"
        assert run(["simulate", "--chain", str(chain), "--observable", str(f),
                    "--weights", "power:-0.5", "--n", "64", "--trials", "100",
                    "--osc-out", str(osc), "--estimate-out", str(estimate)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: --estimate-out: cannot write {str(estimate)!r}")
        assert not osc.exists()

    def test_oscillation_run_and_sidecar(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        osc = tmp_path / "osc.csv"
        code = run([
            "simulate", "--chain", str(chain), "--observable", str(f),
            "--weights", "power:-0.5", "--n", "128", "--trials", "120",
            "--master-seed", "9", "--osc-out", str(osc),
        ])
        assert code == 0
        lines = read(osc).strip().splitlines()
        assert lines[0] == "checkpoint,median_osc,q95_osc"
        meta = json.loads(read(str(osc) + ".meta.json"))
        assert meta["seed"] == 9

    def test_threads_keep_outputs_identical(self, chain_files, tmp_path):
        # 101 trials do not split evenly, and the 40 path rows cross the split
        chain, f, _ = chain_files
        texts = []
        for threads in (1, 2, 8):
            osc = tmp_path / f"osc{threads}.csv"
            est = tmp_path / f"est{threads}.json"
            paths = tmp_path / f"paths{threads}.csv"
            assert run([
                "simulate", "--chain", str(chain), "--observable", str(f),
                "--weights", "constant:1.0", "--n", "64", "--trials", "101",
                "--master-seed", "4", "--threads", str(threads),
                "--osc-out", str(osc), "--estimate-out", str(est),
                "--paths-out", str(paths), "--paths-limit", "60",
            ]) == 0
            texts.append(read(osc) + read(est) + read(paths))
        assert texts[0] == texts[1] == texts[2]
        assert multiprocessing.active_children() == []

    def test_paths_out_over_three_ranges_writes_the_bytes_of_one_process(
            self, chain_files, tmp_path, monkeypatch):
        # 50 trials split 16 / 17 / 17, and the 40 path rows cross both splits
        chain, f, _ = chain_files
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        texts = []
        for threads in ("1", "3"):
            paths = tmp_path / f"paths{threads}.csv"
            assert run([
                "simulate", "--chain", str(chain), "--observable", str(f),
                "--weights", "power:-0.5", "--n", "48", "--trials", "50",
                "--master-seed", "7", "--threads", threads,
                "--paths-out", str(paths), "--paths-limit", "40",
            ]) == 0
            texts.append(paths.read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].count(b"\n") == 1 + 40 * 48
        assert multiprocessing.active_children() == []

    def test_worker_error_exits_as_in_one_process(self, chain_files, tmp_path,
                                                  monkeypatch, capsys):
        chain, f, _ = chain_files

        def failing(chain, n, seeds):
            raise ValidationError(f"cannot sample {len(seeds)} trials")

        monkeypatch.setattr(simulate, "_sample_blocks", failing)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        osc = tmp_path / "osc.csv"
        for threads in ("1", "2"):
            assert run([
                "simulate", "--chain", str(chain), "--observable", str(f),
                "--weights", "constant:1.0", "--n", "64", "--trials", "101",
                "--threads", threads, "--osc-out", str(osc),
            ]) == 2
            assert "error: cannot sample" in capsys.readouterr().err
            assert multiprocessing.active_children() == []
        assert not osc.exists()

    def test_estimate_with_exactly_4n_explicit_weights(self, chain_files, tmp_path):
        # the series bound reads a_1..a_4n and nothing further
        chain, f, _ = chain_files
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([1.0 / (j + 1) for j in range(4 * 64)]))
        est = tmp_path / "est.json"
        assert run([
            "simulate", "--chain", str(chain), "--observable", str(f),
            "--weights", f"explicit:@{weights}", "--n", "64", "--trials", "100",
            "--master-seed", "2", "--estimate-out", str(est),
        ]) == 0
        payload = json.loads(read(est))
        assert payload["trials"] == 100 and payload["within_bound"]

    def test_estimate_matches_the_library_estimator(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        est = tmp_path / "est.json"
        assert run([
            "simulate", "--chain", str(chain), "--observable", str(f),
            "--weights", "power:-0.5", "--n", "32", "--trials", "120",
            "--master-seed", "6", "--estimate-out", str(est),
        ]) == 0
        payload = json.loads(read(est))
        out = mc_max_moment(
            load_chain(json.loads(read(chain))), load_observable(json.loads(read(f))),
            WeightSequence.power(-0.5), 32, master_seed=6, trials=120,
        )
        assert payload["estimate"] == out.estimate
        assert payload["standard_error"] == out.standard_error

    def test_paths_csv_shape(self, chain_files, tmp_path):
        chain, f, _ = chain_files
        paths = tmp_path / "paths.csv"
        assert run([
            "simulate", "--chain", str(chain), "--observable", str(f),
            "--weights", "constant:1.0", "--n", "16", "--trials", "40",
            "--master-seed", "1", "--paths-out", str(paths),
            "--paths-limit", "3",
        ]) == 0
        lines = read(paths).strip().splitlines()
        assert lines[0] == "trial,k,T_k"
        assert len(lines) == 1 + 3 * 16

    @pytest.mark.parametrize("flags,message", [
        (["--n", "4096", "--trials", "20", "--osc-out", "out"], "at least 30 trials"),
        (["--n", "8", "--trials", "40", "--osc-out", "out"], "horizon >= 16"),
        (["--paths-limit", "-3", "--paths-out", "out"], "--paths-limit must be >= 0"),
        (["--trials", "50", "--estimate-out", "out"], "--estimate-out needs --trials >= 100"),
        (["--threads", "0", "--osc-out", "out"], "--threads must be >= 1, got 0"),
        (["--trials", "50"], "pass --osc-out or --paths-out"),
    ], ids=["osc-few-trials", "osc-short-horizon", "negative-paths-limit",
            "estimate-few-trials", "zero-threads", "nothing-to-write"])
    def test_bad_flags_exit_two_before_sampling(self, chain_files, tmp_path, monkeypatch,
                                                capsys, flags, message):
        chain, f, _ = chain_files

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the flags were checked")

        monkeypatch.setattr(cli, "reduce_trials", no_sampling)
        out = tmp_path / "out"
        flags = [str(out) if flag == "out" else flag for flag in flags]
        assert run([
            "simulate", "--chain", str(chain), "--observable", str(f),
            "--weights", "power:-0.5", "--n", "64", "--trials", "100", *flags,
        ]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_sidecar_records_verdict_health(self, chain_files, tmp_path,
                                                     monkeypatch):
        chain, f, _ = chain_files
        base = ["simulate", "--chain", str(chain), "--observable", str(f),
                "--n", "32", "--trials", "120", "--master-seed", "6"]
        est = tmp_path / "est.json"
        assert run([*base, "--weights", "power:-0.5", "--estimate-out", str(est)]) == 0
        payload, meta = json.loads(read(est)), json.loads(read(str(est) + ".meta.json"))
        assert meta["violations"] == 0 and meta["skipped"] == 0
        assert meta["worst_margin"] == payload["estimate"] / payload["series_bound"]
        assert 0 < meta["worst_margin"] < 1

        zero = tmp_path / "zero.json"
        assert run([*base, "--weights", "constant:0.0", "--estimate-out", str(zero)]) == 0
        meta = json.loads(read(str(zero) + ".meta.json"))
        assert json.loads(read(zero))["series_bound"] == 0.0
        # a zero bound that holds is skipped and has no margin, as a verify row is
        assert (meta["violations"], meta["skipped"], meta["worst_margin"]) == (0, 1, None)

        planted = inequalities.TracedConstant("second-moment-series", 2.0, 1e-9, ())
        monkeypatch.setattr(cli, "traced_constant", lambda check, p: planted)
        low = tmp_path / "low.json"
        assert run([*base, "--weights", "power:-0.5", "--estimate-out", str(low)]) == 1
        payload, meta = json.loads(read(low)), json.loads(read(str(low) + ".meta.json"))
        assert not payload["within_bound"]
        assert meta["violations"] == 1
        assert meta["worst_margin"] == payload["estimate"] / payload["series_bound"] > 1

    def test_holds_one_path_at_a_time(self, tmp_path, capsys):
        # the (200, 2**14, 2) path array alone would take 52.4 MB
        data = Path(__file__).parent / "data" / "simulate"
        argv = [
            "simulate", "--chain", str(data / "graph.json"),
            "--observable", str(data / "graph-f.json"), "--weights", "power:-0.5",
            "--n", str(2 ** 14), "--trials", "200", "--master-seed", "3",
            "--osc-out", str(tmp_path / "osc.csv"),
            "--estimate-out", str(tmp_path / "est.json"),
        ]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestReport:
    def test_summary_and_ratios(self, tmp_path):
        csv = tmp_path / "r.csv"
        assert run([
            "verify", "--id", "dyadic-weighted-max", "--p", "2",
            "--instances", "12", "--seed", "7", "--weights", "constant:1.0",
            "-o", str(csv),
        ]) == 0
        assert run(["report", "--input", str(csv), "--out-prefix",
                    str(tmp_path / "out")]) == 0
        dat = read(tmp_path / "out_ratios.dat").strip().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 13
        summary = read(tmp_path / "out_summary.txt")
        assert "dyadic-weighted-max" in summary

    def test_wrong_header_exits_two(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run(["report", "--input", str(bad), "--out-prefix",
                    str(tmp_path / "o")]) == 2

    def test_row_of_the_wrong_width_exits_two_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        row = "smoothness,2,1,4,2,1,1,1,1,1,true"
        bad.write_text(f"{cli.CSV_HEADER}\n{row}\nfoo,2\n")
        assert run(["report", "--input", str(bad), "--out-prefix",
                    str(tmp_path / "o")]) == 2
        assert f"report input {str(bad)!r} line 3 has 2 fields, expected 11" in (
            capsys.readouterr().err
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    def test_violations_of_a_planted_constant_are_counted(self, tmp_path, monkeypatch):
        csv = tmp_path / "r.csv"
        # far below the smoothness ratio of 1, so every row is false
        planted = inequalities.TracedConstant("smoothness", 2.0, 1e-3, ())
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "traced_constant", lambda check, p: planted)
            assert run(["verify", "--id", "smoothness", "--p", "2", "--instances", "4",
                        "--seed", "1", "-o", str(csv)]) == 1
        assert run(["report", "--input", str(csv), "--out-prefix",
                    str(tmp_path / "out")]) == 0
        assert read(tmp_path / "out_summary.txt").splitlines() == [
            "check p count violations max_ratio", "smoothness 2 4 4 0",
        ]
        flags = [line.split()[-1] for line in read(tmp_path / "out_ratios.dat").splitlines()[1:]]
        assert flags == ["0"] * 4


GOOD_ROW = "smoothness,2,1,4,2,1,0.5,1,0.5,1,true"


@pytest.mark.parametrize("row,message", [
    ("smoothness,2,1,4,2,1,0.5,1,abc,1,true", "has ratio 'abc', not a number"),
    ("smoothness,two,1,4,2,1,0.5,1,0.5,1,true", "has p 'two', not a number"),
    ("smoothness,2,1,4,2,1,0.5,1,0.5,,false", "has constant '', not a number"),
    ("smoothness,2,1,4,2,1,0.5,1,0.5,1,tr", "has pass 'tr', not true, false or skipped"),
], ids=["garbled-ratio", "garbled-p", "empty-constant", "cut-in-pass"])
def test_a_garbled_or_truncated_report_row_exits_two_naming_its_line(row, message, tmp_path,
                                                                     capsys):
    bad = tmp_path / "x.csv"
    bad.write_text(f"{cli.CSV_HEADER}\n{GOOD_ROW}\n{row}")
    assert run(["report", "--input", str(bad), "--out-prefix", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: report input {str(bad)!r} line 3 {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_a_report_input_that_is_not_utf8_exits_two_naming_it(tmp_path, capsys):
    bad = tmp_path / "x.csv"
    bad.write_bytes(f"{cli.CSV_HEADER}\n".encode() + b"smoothness,2,\xff\xfe\n")
    assert run(["report", "--input", str(bad), "--out-prefix", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read report input {str(bad)!r}: 'utf-8' codec")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def _outcome(rc, out, err, work: Path) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return rc, out, err, files


def run_in_one_process(commands, work: Path, monkeypatch) -> list:
    """Run the commands through ``run`` one after another in this process."""
    monkeypatch.chdir(work)
    outcomes = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        outcomes.append(_outcome(rc, out.getvalue(), err.getvalue(), work))
    return outcomes


def run_in_fresh_processes(commands, work: Path) -> list:
    """Run each command in a new interpreter, all in the same directory."""
    src = str(Path(revmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    outcomes = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from revmax.cli import run; sys.exit(run(sys.argv[1:]))",
             *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        outcomes.append(_outcome(proc.returncode, proc.stdout, proc.stderr, work))
    return outcomes


@pytest.mark.parametrize("commands", [
    [
        ["verify", "--id", "max-vs-endpoint", "--p", "abc", "-o", "bad.csv"],
        ["verify", "--id", "max-vs-endpoint", "--instances", "4", "-o", "r.csv"],
    ],
    [
        ["verify-markov", "--id", "weighted-power-max", "--chains", "3", "--seed", "9",
         "--n-max", "4", "--weights", "power:-0.5", "-o", "m.csv"],
        ["verify", "--id", "dyadic-weighted-max", "--instances", "3",
         "--weights", "constant:1.0", "-o", "r.csv"],
        ["verify", "--id", "smoothness", "--instances", "3", "-o", "s.csv"],
    ],
], ids=["parse-error-then-valid", "different-subcommands"])
def test_one_process_behaves_like_fresh_processes(commands, tmp_path, monkeypatch):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    in_process = run_in_one_process(commands, shared, monkeypatch)
    assert in_process == run_in_fresh_processes(commands, fresh)
    assert in_process[0][0] == (2 if "abc" in commands[0] else 0)


class TestOneStateChain:
    # a one-state chain has the single eigenvalue 1, and f = 2 puts mass 4 on it
    @pytest.fixture
    def files(self, tmp_path):
        chain, f = tmp_path / "chain.json", tmp_path / "f.json"
        chain.write_text(json.dumps({"Q": [[1.0]]}))
        f.write_text(json.dumps({"dim": 1, "values": [[2.0]]}))
        return chain, f

    def test_spectrum_is_one_atom(self, files, tmp_path):
        chain, f = files
        out = tmp_path / "s.csv"
        assert run(["spectrum", str(chain), str(f), "-o", str(out)]) == 0
        assert read(out) == "lambda,mass\n1,4\n"

    def test_conditions_agree(self, files, capsys):
        chain, f = files
        assert run(["check-conditions", str(chain), str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["all_equivalent"] is True


def test_output_into_a_missing_directory_exits_two(chain_files, tmp_path, capsys):
    chain, f, _ = chain_files
    out = tmp_path / "missing" / "s.csv"
    assert run(["spectrum", str(chain), str(f), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err


def test_report_on_a_directory_exits_two_naming_it(tmp_path, capsys):
    assert run(["report", "--input", str(tmp_path), "--out-prefix",
                str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read report input {str(tmp_path)!r}")
    assert list(tmp_path.iterdir()) == []


def test_gen_chain_notes_a_disconnected_chain(tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    out = tmp_path / "c.json"
    assert run(["gen-chain", "--model", "weighted-graph", "--weights-file", str(weights),
                "-o", str(out)]) == 0
    assert capsys.readouterr().err == (
        "note: chain is disconnected; the spectrum has multiplicity at 1\n")
    assert out.exists()


def test_chain_file_that_is_not_json_exits_two_naming_it(chain_files, tmp_path, capsys):
    _, f, _ = chain_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "s.csv"
    assert run(["spectrum", str(bad), str(f), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: chain file {str(bad)!r} is not valid JSON: ")
    assert not out.exists()


def test_explicit_weights_are_described_by_length_in_the_sidecar(chain_files, tmp_path):
    chain, f, _ = chain_files
    weights = tmp_path / "w.json"
    # the oscillation table needs horizon 16, which reads a_1 .. a_16
    weights.write_text(json.dumps([1.0 / j for j in range(1, 17)]))
    osc = tmp_path / "osc.csv"
    assert run(["simulate", "--chain", str(chain), "--observable", str(f),
                "--weights", f"explicit:@{weights}", "--n", "16", "--trials", "30",
                "--osc-out", str(osc)]) == 0
    assert json.loads(read(str(osc) + ".meta.json"))["weights"] == "explicit:len16"
