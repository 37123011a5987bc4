"""Flags that the CLI refuses by name before it reads a file or draws a number.

Every integer option that ``build_parser()`` declares has an entry in
``INT_FLAGS``: its minimum, or None for an option that takes any integer.
A value below the minimum exits 2 with a message naming the option.  Every
float option has an entry in ``FLOAT_FLAGS``: one value outside its range,
and the values among NaN, inf and -inf that its range holds.  Every other
option, positionals included, has an entry in ``OTHER_FLAGS``: a malformed
value, which exits 2 naming the option or the value and writes nothing.  The
walk fails for an option added without an entry.  ``--weights`` on an id that
reads no weight sequence exits 2 naming the flag and the id.
"""

import argparse
import json

import pytest

from revmax import InequalityId, MarkovCheck
from revmax import cli
from revmax.cli import CSV_HEADER, run

CHAIN = {"states": [0, 1], "Q": [[0.75, 0.25], [0.25, 0.75]]}
OBSERVABLE = {"dim": 1, "values": [[1.0], [-1.0]]}

# the arguments around each command's flag; {in} and {out} are directories
# for the input files and for whatever the command would write
COMMANDS = {
    "gen-chain": ["--model", "lazy-ring", "--m", "4", "--laziness", "0.5", "-o", "{out}/c.json"],
    "spectrum": ["{in}/chain.json", "{in}/f.json", "-o", "{out}/s.csv"],
    "check-conditions": ["{in}/chain.json", "{in}/f.json", "-o", "{out}/c.json"],
    "verify": ["--id", "max-vs-endpoint", "--instances", "2", "-o", "{out}/r.csv"],
    "verify-markov": ["--id", "stein", "--chains", "2", "--n-max", "4", "-o", "{out}/r.csv"],
    "simulate": ["--chain", "{in}/chain.json", "--observable", "{in}/f.json",
                 "--weights", "power:-0.5", "--n", "16", "--trials", "2",
                 "--paths-out", "{out}/paths.csv"],
    "report": ["--input", "{in}/r.csv", "--out-prefix", "{out}/rep"],
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


def declared_options(kind):
    """(command, first option string or positional name) of each action of type ``kind``."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, (action.option_strings or [action.dest])[0])
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type is kind and not isinstance(action, argparse._HelpAction)
    }


def test_every_integer_option_has_an_entry():
    assert declared_options(int) == set(INT_FLAGS)


@pytest.fixture
def dirs(tmp_path):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    (inputs / "chain.json").write_text(json.dumps(CHAIN))
    (inputs / "f.json").write_text(json.dumps(OBSERVABLE))
    (inputs / "r.csv").write_text(f"{CSV_HEADER}\nstein,2,1,2,1,1,0.5,1,0.5,8,true\n")
    return inputs, outputs


def argv_for(command, inputs, outputs, *extra, replace=None):
    """The command's arguments, then ``extra``; ``replace`` = (old, new) swaps one."""
    args = [replace[1] if replace and a == replace[0] else a for a in [*COMMANDS[command], *extra]]
    # argparse keeps the last value of a repeated option
    return [command, *[a.replace("{in}", str(inputs)).replace("{out}", str(outputs))
                       for a in args]]


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
    args = [a.replace("{in}", str(inputs)).replace("{out}", str(outputs))
            for a in [*MODELS[model], *extra]]
    # -o first, so that an -o in ``extra`` replaces it
    return ["gen-chain", "-o", str(outputs / "c.json"), *args]


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


# each float option: a value outside its range, and the non-finite values its
# range holds.  None holds any: the flip, move and holding probabilities lie
# in [0, 1], every check's declared p_range ("1 < p < inf", "1 < p <= 2" or
# "p = 2") is finite
FLOAT_FLAGS = {
    ("gen-chain", "--p"): ("1.5", set()),
    ("gen-chain", "--q"): ("0", set()),
    ("gen-chain", "--up"): ("-0.5", set()),
    ("gen-chain", "--down"): ("0.9", set()),  # up + down above 1
    ("gen-chain", "--laziness"): ("1.5", set()),
    ("verify", "--p"): ("1", set()),  # max-vs-endpoint needs 1 < p < inf
}
FLOAT_CASES = [(command, flag, value, value in accepted)
               for (command, flag), (low, accepted) in FLOAT_FLAGS.items()
               for value in ("nan", "inf", "-inf", low)]


def test_every_float_option_has_an_entry():
    assert declared_options(float) == set(FLOAT_FLAGS)


@pytest.mark.parametrize("command,flag,value,accepted", FLOAT_CASES,
                         ids=[f"{command}{flag}={value}" for command, flag, value, _ in FLOAT_CASES])
def test_a_float_outside_its_range_exits_two_naming_the_option(command, flag, value, accepted,
                                                               model_files, capsys):
    inputs, outputs = model_files
    # "--flag=-inf": a separate "-inf" would parse as an option
    if command == "gen-chain":
        model = next(model for model, argv in MODELS.items() if flag in argv)
        argv = gen_chain_argv(model, inputs, outputs, f"{flag}={value}")
    else:
        argv = argv_for(command, inputs, outputs, f"{flag}={value}")
    code = run(argv)
    err = capsys.readouterr().err
    if accepted:
        assert code in (0, 1), err
        return
    assert code == 2
    assert err.startswith("error: ") and flag in err.splitlines()[-1], err
    assert list(outputs.iterdir()) == []


# each option that is neither an integer nor a float: a missing input file,
# an output path in a missing directory, an unknown choice or a bad weight spec
MISSING_FILE, MISSING_DIR = "{in}/missing.json", "{out}/missing/x"
OTHER_FLAGS = {
    ("gen-chain", "--model"): "nope",
    ("gen-chain", "--weights-file"): MISSING_FILE,
    ("gen-chain", "--target-file"): MISSING_FILE,
    ("gen-chain", "--proposal-file"): MISSING_FILE,
    ("gen-chain", "-o"): MISSING_DIR,
    ("spectrum", "chain"): MISSING_FILE,
    ("spectrum", "observable"): MISSING_FILE,
    ("spectrum", "-o"): MISSING_DIR,
    ("check-conditions", "chain"): MISSING_FILE,
    ("check-conditions", "observable"): MISSING_FILE,
    ("check-conditions", "-o"): MISSING_DIR,
    ("verify", "--id"): "nope",
    ("verify", "--weights"): "power",
    ("verify", "-o"): MISSING_DIR,
    ("verify-markov", "--id"): "nope",
    ("verify-markov", "--weights"): "power",
    ("verify-markov", "-o"): MISSING_DIR,
    ("simulate", "--chain"): MISSING_FILE,
    ("simulate", "--observable"): MISSING_FILE,
    ("simulate", "--weights"): "power",
    ("simulate", "--osc-out"): MISSING_DIR,
    ("simulate", "--paths-out"): MISSING_DIR,
    ("simulate", "--estimate-out"): MISSING_DIR,
    ("report", "--input"): MISSING_FILE,
    ("report", "--out-prefix"): MISSING_DIR,
}
# the argument a positional option takes in COMMANDS
POSITIONALS = {"chain": "{in}/chain.json", "observable": "{in}/f.json"}


def test_every_other_option_has_an_entry():
    assert declared_options(None) == set(OTHER_FLAGS)


@pytest.mark.parametrize("command,flag", OTHER_FLAGS, ids=[f"{c}{f}" for c, f in OTHER_FLAGS])
def test_a_malformed_value_exits_two_naming_the_option_or_the_value(command, flag,
                                                                     model_files, capsys):
    inputs, outputs = model_files
    value = OTHER_FLAGS[command, flag]
    if command == "gen-chain":
        model = next((model for model, argv in MODELS.items() if flag in argv), "lazy-ring")
        argv = gen_chain_argv(model, inputs, outputs, flag, value)
    elif flag in POSITIONALS:
        argv = argv_for(command, inputs, outputs, replace=(POSITIONALS[flag], value))
    else:
        argv = argv_for(command, inputs, outputs, flag, value)
    assert run(argv) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    value = value.replace("{in}", str(inputs)).replace("{out}", str(outputs))
    assert flag in message or value in message, message
    assert list(outputs.iterdir()) == []



# each output option, with the arguments that make its command otherwise
# valid; the refusal of its path must come before the command reads an input
# or starts its work, which the no_work fixture makes fail
OUTPUTS = {
    ("gen-chain", "-o"): [],
    ("spectrum", "-o"): [],
    ("check-conditions", "-o"): [],
    ("verify", "-o"): [],
    ("verify-markov", "-o"): [],
    ("simulate", "--osc-out"): ["--trials", "100"],
    ("simulate", "--paths-out"): ["--trials", "100"],
    ("simulate", "--estimate-out"): ["--trials", "100"],
    ("report", "--out-prefix"): [],
}
# the output options that name a file, not a prefix
FILE_OUTPUTS = [case for case in OUTPUTS if case[1] != "--out-prefix"]


def test_every_output_option_has_an_entry():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {
        (command, action.option_strings[0])
        for command, sub in commands.choices.items() for action in sub._actions
        if action.dest in ("out", "out_prefix") or action.dest.endswith("_out")
    } == set(OUTPUTS)


@pytest.fixture
def no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("read an input or started work before checking the output")

    for name in ("_load_json", "_load_numbers", "verify_batch", "verify_markov_batch",
                 "reduce_trials"):
        monkeypatch.setattr(cli, name, fail)


def output_argv(command, flag, path, inputs, outputs):
    """The command writing ``flag`` to ``path``; gen-chain's metropolis reads two files."""
    if command == "gen-chain":
        return gen_chain_argv("metropolis", inputs, outputs, flag, str(path))
    return argv_for(command, inputs, outputs, *OUTPUTS[command, flag], flag, str(path))


@pytest.mark.parametrize("command,flag", OUTPUTS, ids=[f"{c}{f}" for c, f in OUTPUTS])
def test_an_output_in_a_missing_directory_exits_two_before_any_input_is_read(
        command, flag, model_files, no_work, capsys):
    inputs, outputs = model_files
    path = outputs / "missing" / "x"
    assert run(output_argv(command, flag, path, inputs, outputs)) == 2
    name = "--out" if flag == "-o" else flag
    assert capsys.readouterr().err == (
        f"error: {name}: cannot write {str(path)!r}: No such file or directory\n")
    assert list(outputs.iterdir()) == []


@pytest.mark.parametrize("command,flag", FILE_OUTPUTS, ids=[f"{c}{f}" for c, f in FILE_OUTPUTS])
def test_an_output_that_is_a_directory_exits_two_before_any_input_is_read(
        command, flag, model_files, no_work, capsys):
    inputs, outputs = model_files
    path = outputs / "adir"
    path.mkdir()
    assert run(output_argv(command, flag, path, inputs, outputs)) == 2
    name = "--out" if flag == "-o" else flag
    assert capsys.readouterr().err == f"error: {name}: cannot write {str(path)!r}: Is a directory\n"
    assert list(outputs.iterdir()) == [path]
    assert list(path.iterdir()) == []


def test_an_out_prefix_that_names_a_directory_is_a_prefix(dirs):
    inputs, outputs = dirs
    (outputs / "rep").mkdir()
    assert run(argv_for("report", inputs, outputs)) == 0
    assert (outputs / "rep_summary.txt").exists()
    assert list((outputs / "rep").iterdir()) == []


# the sidecar of each output option's path "x": report's newest one for --out-prefix
SIDECARS = {flag: "x_summary.txt.meta.json" if flag == "--out-prefix" else "x.meta.json"
            for _, flag in OUTPUTS}


@pytest.mark.parametrize("command,flag", OUTPUTS, ids=[f"{c}{f}" for c, f in OUTPUTS])
def test_a_sidecar_that_is_a_directory_exits_two_before_any_input_is_read(
        command, flag, model_files, no_work, capsys):
    inputs, outputs = model_files
    sidecar = outputs / SIDECARS[flag]
    sidecar.mkdir()
    assert run(output_argv(command, flag, outputs / "x", inputs, outputs)) == 2
    name = "--out" if flag == "-o" else flag
    assert capsys.readouterr().err == (
        f"error: {name}: cannot write {str(sidecar)!r}: Is a directory\n")
    assert list(outputs.iterdir()) == [sidecar]
    assert list(sidecar.iterdir()) == []


@pytest.mark.parametrize("command,flag", OUTPUTS, ids=[f"{c}{f}" for c, f in OUTPUTS])
def test_an_empty_output_name_exits_two_before_any_input_is_read(
        command, flag, model_files, no_work, capsys):
    inputs, outputs = model_files
    assert run(output_argv(command, flag, "", inputs, outputs)) == 2
    name = "--out" if flag == "-o" else flag
    assert capsys.readouterr().err == f"error: {name}: cannot write '': the name is empty\n"
    assert list(outputs.iterdir()) == []


# two simulate outputs that name one file: (earlier option, its path, later
# option, its path, the file both write); the later option is refused
SHARED = [
    ("--osc-out", "o.csv", "--paths-out", "o.csv", "o.csv"),
    ("--osc-out", "o.csv", "--estimate-out", "o.csv", "o.csv"),
    ("--paths-out", "o.csv", "--estimate-out", "o.csv", "o.csv"),
    ("--osc-out", "o.csv", "--estimate-out", "o.csv.meta.json", "o.csv.meta.json"),
    ("--osc-out", "e.meta.json", "--estimate-out", "e", "e.meta.json"),
]


@pytest.mark.parametrize("first,first_path,later,later_path,shared", SHARED,
                         ids=[f"{f}={a}{l}={b}" for f, a, l, b, _ in SHARED])
def test_two_outputs_that_write_one_file_exit_two_before_any_input_is_read(
        first, first_path, later, later_path, shared, model_files, no_work, capsys):
    inputs, outputs = model_files
    argv = argv_for("simulate", inputs, outputs, "--trials", "100",
                    first, str(outputs / first_path), later, str(outputs / later_path))
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {later}: cannot write {str(outputs / shared)!r}: {first} writes it too\n")
    assert list(outputs.iterdir()) == []


def test_one_output_named_by_two_spellings_is_one_file(model_files, no_work, capsys):
    inputs, outputs = model_files
    (outputs / "sub").mkdir()
    other = outputs / "sub" / ".." / "o.csv"
    argv = argv_for("simulate", inputs, outputs, "--trials", "100",
                    "--osc-out", str(outputs / "o.csv"), "--paths-out", str(other))
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --paths-out: cannot write {str(other)!r}: --osc-out writes it too\n")
    assert list(outputs.iterdir()) == [outputs / "sub"]


# every output option of each command, on top of COMMANDS
ALL_OUTPUTS = {"simulate": ["--trials", "100", "--osc-out", "{out}/osc.csv",
                            "--estimate-out", "{out}/est.json"]}


def test_every_file_a_command_writes_gets_a_sidecar(dirs, capsys):
    inputs, outputs = dirs
    for command in COMMANDS:
        assert run(argv_for(command, inputs, outputs, *ALL_OUTPUTS.get(command, []))) in (0, 1)
        written = {p.name for p in outputs.iterdir()}
        primary = {name for name in written if not name.endswith(".meta.json")}
        assert primary, command
        assert written == primary | {name + ".meta.json" for name in primary}, command
        for path in outputs.iterdir():
            path.unlink()
    capsys.readouterr()
