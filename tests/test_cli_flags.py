"""Flags that the CLI refuses by name before it reads a file or draws a number.

Every integer option that ``build_parser()`` declares has an entry in
``INT_FLAGS``: its minimum, or None for an option that takes any integer.
A value below the minimum exits 2 with a message naming the option, and the
walk fails for an integer option added without an entry.  ``--weights`` on
an id that reads no weight sequence exits 2 naming the flag and the id.
"""

import argparse
import json

import pytest

from revmax import InequalityId, MarkovCheck
from revmax import cli
from revmax.cli import run

CHAIN = {"states": [0, 1], "Q": [[0.75, 0.25], [0.25, 0.75]]}
OBSERVABLE = {"dim": 1, "values": [[1.0], [-1.0]]}

# the arguments around each command's flag; {in} and {out} are directories
# for the input files and for whatever the command would write
COMMANDS = {
    "gen-chain": ["--model", "lazy-ring", "--m", "4", "--laziness", "0.5", "-o", "{out}/c.json"],
    "check-conditions": ["{in}/chain.json", "{in}/f.json", "-o", "{out}/c.json"],
    "verify": ["--id", "max-vs-endpoint", "--instances", "2", "-o", "{out}/r.csv"],
    "verify-markov": ["--id", "stein", "--chains", "2", "--n-max", "4", "-o", "{out}/r.csv"],
    "simulate": ["--chain", "{in}/chain.json", "--observable", "{in}/f.json",
                 "--weights", "power:-0.5", "--n", "16", "--trials", "2",
                 "--paths-out", "{out}/paths.csv"],
}

INT_FLAGS = {
    ("gen-chain", "--m"): 2,  # 1 for weighted-graph, which test_cli.py covers
    ("gen-chain", "--seed"): 0,
    ("check-conditions", "--probe-horizon"): 4,
    ("verify", "--instances"): 0,
    ("verify", "--seed"): 0,
    ("verify", "--atoms-max"): 2,
    ("verify", "--n-max"): 1,
    ("verify", "--dim-max"): 1,
    ("verify", "--threads"): 1,
    ("verify-markov", "--chains"): 0,
    ("verify-markov", "--seed"): 0,
    ("verify-markov", "--m-max"): 2,
    ("verify-markov", "--n-max"): 1,
    ("verify-markov", "--threads"): 1,
    ("simulate", "--n"): 1,
    ("simulate", "--trials"): 1,
    ("simulate", "--paths-limit"): 0,
    ("simulate", "--threads"): 1,
    ("simulate", "--master-seed"): None,
}


def declared_int_options():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, action.option_strings[0])
        for command, sub in commands.choices.items()
        for action in sub._actions if action.type is int
    }


def test_every_integer_option_has_an_entry():
    assert declared_int_options() == set(INT_FLAGS)


@pytest.fixture
def dirs(tmp_path):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    (inputs / "chain.json").write_text(json.dumps(CHAIN))
    (inputs / "f.json").write_text(json.dumps(OBSERVABLE))
    return inputs, outputs


def argv_for(command, inputs, outputs, *extra):
    args = [a.replace("{in}", str(inputs)).replace("{out}", str(outputs))
            for a in COMMANDS[command]]
    # argparse keeps the last value of a repeated option
    return [command, *args, *extra]


def test_every_command_runs_with_its_arguments(dirs, capsys):
    inputs, outputs = dirs
    for command in COMMANDS:
        assert run(argv_for(command, inputs, outputs)) in (0, 1), capsys.readouterr().err


BOUNDED = [(command, flag, low) for (command, flag), low in INT_FLAGS.items()
           if low is not None]


@pytest.mark.parametrize("command,flag,low", BOUNDED,
                         ids=[f"{command}{flag}" for command, flag, _ in BOUNDED])
def test_a_value_below_the_minimum_exits_two_naming_the_option(command, flag, low, dirs,
                                                               capsys):
    inputs, outputs = dirs
    assert run(argv_for(command, inputs, outputs, flag, str(low - 1))) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be >= {low}, got {low - 1}\n"
    assert list(outputs.iterdir()) == []


def test_the_master_seed_takes_any_integer(dirs):
    inputs, outputs = dirs
    assert run(argv_for("simulate", inputs, outputs, "--master-seed", "-7")) == 0
    assert (outputs / "paths.csv").exists()


UNWEIGHTED = ([("verify", check.value) for check in InequalityId if not check.weighted]
              + [("verify-markov", check.value) for check in MarkovCheck if not check.weighted])


@pytest.mark.parametrize("command,check", UNWEIGHTED,
                         ids=[check for _, check in UNWEIGHTED])
def test_weights_on_an_id_that_reads_none_exit_two_naming_both(command, check, dirs,
                                                               monkeypatch, capsys):
    inputs, outputs = dirs

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before --weights was checked")

    monkeypatch.setattr(cli, "verify_batch", no_draw)
    monkeypatch.setattr(cli, "verify_markov_batch", no_draw)
    # the file does not exist: the refusal comes before it would be read
    spec = f"explicit:@{inputs / 'missing.json'}"
    argv = argv_for(command, inputs, outputs, "--id", check, "--weights", spec)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: --weights: {check} reads no weights\n"
    assert list(outputs.iterdir()) == []



# each gen-chain model, labelled as its refusals name it, with flags it reads
MODELS = {
    "two-state": ["--model", "two-state", "--p", "0.2", "--q", "0.3"],
    "birth-death": ["--model", "birth-death", "--m", "3", "--up", "0.3", "--down", "0.2"],
    "lazy-ring": ["--model", "lazy-ring", "--m", "4", "--laziness", "0.5"],
    "weighted-graph": ["--model", "weighted-graph", "--m", "3", "--seed", "4"],
    "weighted-graph with --weights-file": ["--model", "weighted-graph",
                                           "--weights-file", "{in}/w.json"],
    "metropolis": ["--model", "metropolis", "--target-file", "{in}/t.json",
                   "--proposal-file", "{in}/q.json"],
}
# a value for each flag that feeds a model; files that do not exist, since a
# refusal comes before any file is read
CHAIN_FLAG_VALUES = {"--p": "0.2", "--q": "0.3", "--m": "-5", "--up": "0.3", "--down": "0.2",
                     "--laziness": "7", "--weights-file": "{in}/missing.json",
                     "--target-file": "{in}/missing.json",
                     "--proposal-file": "{in}/missing.json", "--seed": "3"}
UNREAD = [(model, flag) for model, argv in MODELS.items() for flag in CHAIN_FLAG_VALUES
          if flag not in argv and not (model == "weighted-graph" and flag == "--weights-file")]


@pytest.fixture
def model_files(dirs):
    inputs, outputs = dirs
    (inputs / "w.json").write_text(json.dumps([[0.0, 1.0], [1.0, 2.0]]))
    (inputs / "t.json").write_text(json.dumps([1.0, 2.0]))
    (inputs / "q.json").write_text(json.dumps([[0.5, 0.5], [0.5, 0.5]]))
    return inputs, outputs


def gen_chain_argv(model, inputs, outputs, *extra):
    args = [a.replace("{in}", str(inputs)) for a in [*MODELS[model], *extra]]
    return ["gen-chain", *args, "-o", str(outputs / "c.json")]


def test_every_flag_that_feeds_a_model_has_a_value():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {action.option_strings[-1] for action in commands.choices["gen-chain"]._actions}
    assert options - {"--help", "--model", "--out"} == set(CHAIN_FLAG_VALUES)


@pytest.mark.parametrize("model", MODELS)
def test_each_model_runs_with_the_flags_it_reads(model, model_files):
    inputs, outputs = model_files
    assert run(gen_chain_argv(model, inputs, outputs)) == 0
    assert (outputs / "c.json").exists()


@pytest.mark.parametrize("model,flag", UNREAD, ids=[f"{m}{f}" for m, f in UNREAD])
def test_a_flag_the_model_does_not_read_exits_two_naming_both(model, flag, model_files,
                                                              capsys):
    inputs, outputs = model_files
    value = CHAIN_FLAG_VALUES[flag].replace("{in}", str(inputs))
    assert run(gen_chain_argv(model, inputs, outputs, flag, value)) == 2
    assert capsys.readouterr().err == f"error: {flag}: {model} does not read it\n"
    assert list(outputs.iterdir()) == []


def test_the_first_unread_flag_is_named(dirs, capsys):
    inputs, outputs = dirs
    argv = ["gen-chain", "--model", "two-state", "--p", "0.2", "--q", "0.3",
            "--m", "-5", "--laziness", "7", "-o", str(outputs / "c.json")]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: --m: two-state does not read it\n"
    assert list(outputs.iterdir()) == []
