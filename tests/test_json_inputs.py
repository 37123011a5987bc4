"""Every field of every JSON input the CLI reads, mutated: each case exits 2.

Each file below is valid as written.  The walk replaces its top level, then
each field and each list entry inside it in turn, with a string, a number,
null, a nested list, NaN and Infinity, and drops each required field.  Every
case exits 2 with a message that names the field or the file, and the
command writes nothing.  A number is skipped where a number is a valid entry,
and state labels, which may be any JSON value, are not walked.
"""

import json
import math

import pytest

from revmax.cli import run
from revmax.finite_prob import ValidationError, load_problem
from revmax.markov import load_chain, load_observable

BAD_VALUES = {"string": "x", "number": 3.5, "null": None, "nested-list": [[[0.5]]],
              "NaN": math.nan, "Infinity": math.inf}

# per file: its valid content, the command that reads it ({file}, {in} and
# {out} are filled in), the fields required, and the words that name each field
FILES = {
    "chain": (
        {"states": [0, 1], "pi": [0.5, 0.5], "Q": [[0.75, 0.25], [0.25, 0.75]]},
        ["spectrum", "{file}", "{in}/f.json", "-o", "{out}/s.csv"],
        ["Q"],
        {"states": ("states", "state labels"), "pi": ("pi", "stationary"),
         "Q": ("Q", "kernel")},
    ),
    "observable": (
        {"dim": 1, "values": [[1.0], [-1.0]]},
        ["spectrum", "{in}/chain.json", "{file}", "-o", "{out}/s.csv"],
        ["values"],
        {"dim": ("dim",), "values": ("values",)},
    ),
    "weight": (
        [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125],
        ["verify", "--id", "second-moment-series", "--instances", "2", "--atoms-max", "3",
         "--n-max", "2", "--weights", "explicit:@{file}", "-o", "{out}/r.csv"],
        [],
        {},
    ),
    "weight matrix": (
        [[0.0, 1.0], [1.0, 2.0]],
        ["gen-chain", "--model", "weighted-graph", "--weights-file", "{file}",
         "-o", "{out}/c.json"],
        [],
        {},
    ),
    "target": (
        [1.0, 2.0],
        ["gen-chain", "--model", "metropolis", "--target-file", "{file}",
         "--proposal-file", "{in}/q.json", "-o", "{out}/c.json"],
        [],
        {},
    ),
    "proposal": (
        [[0.5, 0.5], [0.5, 0.5]],
        ["gen-chain", "--model", "metropolis", "--target-file", "{in}/t.json",
         "--proposal-file", "{file}", "-o", "{out}/c.json"],
        [],
        {},
    ),
}


def positions(value, path=()):
    """(path, value) at every position in ``value``: itself, its fields or entries, and theirs."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, inner in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from positions(inner, (*path, key))


def replaced(content, path, value):
    """A copy of ``content`` with ``value`` at ``path``."""
    if not path:
        return value
    copy = dict(content) if isinstance(content, dict) else list(content)
    copy[path[0]] = replaced(content[path[0]], path[1:], value)
    return copy


def mutations(kind):
    """(case id, content, words naming the file or field) for each case of ``kind``."""
    content, _, required, names = FILES[kind]
    for path, old in positions(content):
        if path[:1] == ("states",) and len(path) > 1:
            continue  # a state label may be any JSON value
        at = "".join(f"[{key}]" if isinstance(key, int) else key for key in path) or "top"
        words = names[path[0]] if isinstance(content, dict) and path else (kind,)
        for label, value in BAD_VALUES.items():
            if label == "number" and isinstance(old, float) and isinstance(path[-1], int):
                continue  # a number is a valid entry
            yield f"{at}-{label}", replaced(content, path, value), words
    for field in required:
        yield f"no-{field}", {k: v for k, v in content.items() if k != field}, names[field]


CASES = [(kind, case, content, words) for kind in FILES
         for case, content, words in mutations(kind)]


@pytest.fixture
def dirs(tmp_path):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    for name, kind in (("chain.json", "chain"), ("f.json", "observable"),
                       ("t.json", "target"), ("q.json", "proposal")):
        (inputs / name).write_text(json.dumps(FILES[kind][0]))
    return inputs, outputs


def argv_for(kind, path, inputs, outputs):
    return [a.replace("{file}", str(path)).replace("{in}", str(inputs))
            .replace("{out}", str(outputs)) for a in FILES[kind][1]]


@pytest.mark.parametrize("kind", FILES)
def test_each_file_is_valid_as_written(kind, dirs):
    inputs, outputs = dirs
    path = inputs / "input.json"
    path.write_text(json.dumps(FILES[kind][0]))
    assert run(argv_for(kind, path, inputs, outputs)) in (0, 1)


@pytest.mark.parametrize("kind,case,content,words", CASES,
                         ids=[f"{kind}:{case}" for kind, case, _, _ in CASES])
def test_a_mutated_input_exits_two_naming_the_field_or_the_file(kind, case, content, words,
                                                                dirs, capsys):
    inputs, outputs = dirs
    path = inputs / "input.json"
    # json.dumps writes NaN and Infinity as the literals Python's reader takes
    path.write_text(json.dumps(content))
    assert run(argv_for(kind, path, inputs, outputs)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    message = err.splitlines()[-1]
    assert any(word in message for word in (*words, str(path))), message
    assert list(outputs.iterdir()) == []


@pytest.mark.parametrize("top", ["Q", "values", 3.5, None, [[[0.5]]]])
@pytest.mark.parametrize("load", [load_chain, load_observable, load_problem])
def test_a_loader_refuses_a_top_level_that_is_not_an_object(load, top):
    with pytest.raises(ValidationError, match="JSON must be an object"):
        load(top)
