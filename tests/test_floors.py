"""Every check can fail: the floor table ``tests/data/floors.json``.

Each of the 13 checks has one entry: the largest ratio lhs / rhs that the
committed generators reach, with the instance that reaches it.  Family
``random_instance`` is the one instance ``verify --id CHECK --p P --seed S
--instances 1`` draws; family ``random_chain_instance`` is the one chain
``verify-markov --id CHECK --seed S --chains 1`` draws, at p = 2.  Both use
the default shape bounds and weights.  The search ran over seeds 0-99 and,
for the filtration checks, over p in {1.25, 1.5, 2, 3, 4} within the check's
declared range, and kept the instance with the largest lhs / (C·rhs).

For each entry the test asserts that the instance still reaches the ratio
to 1e-12 relative and passes its committed constant, and that a constant
planted at ratio·(1 − 1e-6) makes the command exit 1 on it.  A generator
change that stops drawing the instance, or a record step that stops seeing
its lhs, fails the test.  Rewrite the table with ``python
tests/test_floors.py`` only when the generators or a check's right side are
meant to change; a higher floor comes from a new entry or family, never from
editing the test.
"""

import json
from pathlib import Path

import pytest

from revmax import inequalities, markov
from revmax.cli import run
from revmax.inequalities import InequalityId, TracedConstant, traced_constant, verify_batch
from revmax.markov import MarkovCheck, markov_traced_constant, verify_markov_batch

FLOORS = Path(__file__).resolve().parent / "data" / "floors.json"
SEEDS = range(100)
P_GRID = {"1 < p < inf": (1.25, 1.5, 2.0, 3.0, 4.0), "1 < p <= 2": (1.25, 1.5, 2.0),
          "p = 2": (2.0,)}


def computed_floors() -> list:
    """The entry of largest lhs / (C·rhs) per check, over the seeds and the p grid."""
    entries = []
    for check in InequalityId:
        candidates = [(verify_batch(check, p, 1, seed)[0], traced_constant(check, p).value,
                       seed) for p in P_GRID[check.p_range] for seed in SEEDS]
        entries.append(best_entry(check, "random_instance", candidates))
    for check in MarkovCheck:
        constant = markov_traced_constant(check).value
        candidates = [(verify_markov_batch(check, 1, seed, None, 50, 128)[0], constant, seed)
                      for seed in SEEDS]
        entries.append(best_entry(check, "random_chain_instance", candidates))
    return entries


def best_entry(check, family: str, candidates) -> dict:
    record, _, seed = max(((r, c, s) for r, c, s in candidates if not r.skipped),
                          key=lambda item: item[0].ratio / item[1])
    return {"check": check.value, "family": family, "seed": seed, "p": record.p,
            "ratio": record.ratio}


def floors() -> list:
    return json.loads(FLOORS.read_text(encoding="utf-8"))


def test_every_check_has_one_entry():
    checks = [entry["check"] for entry in floors()]
    assert sorted(checks) == sorted([c.value for c in InequalityId]
                                    + [c.value for c in MarkovCheck])


def command(entry, out) -> list:
    if entry["family"] == "random_instance":
        return ["verify", "--id", entry["check"], "--p", repr(entry["p"]),
                "--seed", str(entry["seed"]), "--instances", "1", "-o", str(out)]
    assert entry["family"] == "random_chain_instance"
    return ["verify-markov", "--id", entry["check"], "--seed", str(entry["seed"]),
            "--chains", "1", "-o", str(out)]


def plant(monkeypatch, entry, value: float):
    planted = TracedConstant(entry["check"], entry["p"], value, ())
    if entry["family"] == "random_instance":
        monkeypatch.setattr(inequalities, "traced_constant", lambda check, p: planted)
    else:
        monkeypatch.setattr(markov, "markov_traced_constant", lambda check: planted)


@pytest.mark.parametrize("entry", floors(), ids=lambda entry: entry["check"])
def test_the_instance_reaches_its_floor_and_a_planted_constant_fails_it(entry, tmp_path,
                                                                        monkeypatch, capsys):
    out = tmp_path / "r.csv"
    assert run(command(entry, out)) == 0, capsys.readouterr().err
    row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(row[8]) == pytest.approx(entry["ratio"], rel=1e-12, abs=0.0)
    plant(monkeypatch, entry, entry["ratio"] * (1.0 - 1e-6))
    assert run(command(entry, out)) == 1
    assert out.read_text(encoding="utf-8").splitlines()[1].endswith(",false")


if __name__ == "__main__":
    FLOORS.write_text(json.dumps(computed_floors(), indent=1) + "\n", encoding="utf-8")
