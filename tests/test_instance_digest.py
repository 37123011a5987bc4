"""Byte-for-byte pin of ``random_instance`` over 521 seeded shapes.

Each case's SHA-256 covers the instance's probabilities, its full
``(levels, atoms)`` label matrix and its ``(n, atoms, dim)`` term values, so
a change to any draw, merge or gather shows up as a changed digest.  The
cases mix random shapes with the edges of the generator: two atoms, as many
levels as atoms, n = levels - 1, dim up to 9 and atoms up to 256.  The
committed digests were written by ``instance_digest`` before the merge draws
were read from raw generator words; rewrite them with
``python tests/test_instance_digest.py`` only when the stream is meant to
change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from revmax import random_instance

DIGESTS = Path(__file__).parent / "data" / "instances" / "digests.json"


def instance_cases() -> list:
    """(seed, atoms, levels, n, dim) tuples: 480 random shapes, then edges."""
    shapes = np.random.default_rng(1601)
    cases = []
    for seed in range(480):
        atoms = int(shapes.integers(2, 65))
        levels = int(shapes.integers(2, atoms + 1))
        n = int(shapes.integers(1, levels))
        cases.append((seed, atoms, levels, n, seed % 9 + 1))
    for seed in range(1000, 1020):  # two atoms: one merge, k = 2
        cases.append((seed, 2, 2, 1, seed % 9 + 1))
    for seed, atoms in enumerate((3, 4, 5, 8, 16, 31, 32, 33, 63, 64), start=2000):
        cases.append((seed, atoms, atoms, atoms - 1, seed % 9 + 1))
    for seed, (atoms, dim) in enumerate(
        ((65, 9), (100, 4), (128, 2), (129, 7), (200, 1), (255, 3), (256, 1), (256, 9)),
        start=3000,
    ):
        cases.append((seed, atoms, atoms, atoms - 1, dim))
    for seed, atoms in enumerate((96, 160, 256), start=4000):  # n well below levels - 1
        cases.append((seed, atoms, atoms // 2, atoms // 8, 2))
    return cases


def instance_digest(seed: int, atoms: int, levels: int, n: int, dim: int) -> str:
    inst = random_instance(seed, atoms=atoms, levels=levels, n=n, dim=dim)
    labels = np.stack([inst.filtration.labels(level) for level in range(1, levels + 1)])
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inst.space.probs, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(inst.sequence.values, dtype="<f8").tobytes())
    return h.hexdigest()


def test_cases_cover_the_edges():
    cases = instance_cases()
    assert len(cases) >= 500
    assert len(set(cases)) == len(cases)
    assert any(atoms == 2 for _, atoms, *_ in cases)
    assert any(levels == atoms for _, atoms, levels, *_ in cases)
    assert all(n <= levels - 1 for *_, levels, n, _ in cases)
    assert max(dim for *_, dim in cases) == 9
    assert max(atoms for _, atoms, *_ in cases) == 256


def test_instances_match_committed_digests():
    want = json.loads(DIGESTS.read_text())
    cases = instance_cases()
    assert [tuple(row["case"]) for row in want] == cases
    changed = [row["case"] for row in want if instance_digest(*row["case"]) != row["sha256"]]
    assert not changed, f"{len(changed)} of {len(want)} instances changed, first {changed[0]}"


if __name__ == "__main__":
    rows = [{"case": list(case), "sha256": instance_digest(*case)} for case in instance_cases()]
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
