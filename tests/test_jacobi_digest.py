"""Bit-for-bit pin of ``jacobi_eigendecomposition`` over 371 symmetric matrices.

Each case records SHA-256 digests of the eigenvalue bytes and of the
eigenvector bytes, and the sweeps and final off-diagonal residual, so any
change to a rotation's arithmetic, to its order or to which pairs rotate
shows up.  The set holds the symmetrized kernels of ``random_chain_instance``
seeds 0-199 at up to 64 states, of ``lazy_ring`` at 2-41 states with
laziness 0 and 0.37, and of 40 birth-death chains, 40 random symmetric
matrices, the dead-pair and weak-coupling matrices of ``TestJacobi``, equal
diagonals next to negative couplings (tau = -0, which must rotate by
t = +1), a subnormal coupling whose tau overflows to -inf, the zero and
block-diagonal matrices, and the 200-state weighted graph of the
sweep-budget test.  Each family has odd sizes, where the round-robin
schedule carries a dummy index.  Among them they reach every kind of
round: all pairs live, live pairs with |tau| > 1e10, dead pairs next to
live ones, and all pairs dead.  Every solve runs with division by zero and
invalid operations raising, and all but the overflowing one with overflow
raising too.  The committed digests were written by ``jacobi_digest``
before the rounds moved into buffers allocated once per call, and before
the matrix and the eigenvectors came to share one stacked buffer whose
all-live rounds multiply flat operands; neither change rewrote them.
Rewrite them with ``python tests/test_jacobi_digest.py`` only when the
solver's results are meant to change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from revmax.markov import (
    birth_death,
    jacobi_eigendecomposition,
    lazy_ring,
    random_chain_instance,
    weighted_graph,
)

DIGESTS = Path(__file__).parent / "data" / "jacobi" / "digests.json"


def symmetrized(chain) -> np.ndarray:
    """The kernel conjugated by sqrt(stationary), as ``spectral_measure`` does."""
    root = np.sqrt(chain.stationary)
    return root[:, None] * chain.transition / root[None, :]


def named_matrix(name: str) -> np.ndarray:
    if name == "dead-negative-zero":
        A = np.diag([1.0, -0.0, 3.0, 2.0])
        A[0, 3] = A[3, 0] = 0.5
        A[1, 2] = A[2, 1] = -0.0
        return A
    if name.startswith("weak-"):
        A = np.diag([0.0, 1.0, 2.0, 3.0])
        A[0, 1] = A[1, 0] = float(name[len("weak-"):])
        A[2, 3] = A[3, 2] = 0.5
        return A
    if name == "equal-diagonal-2":
        return np.array([[1.0, -0.5], [-0.5, 1.0]])
    if name == "equal-diagonal-4":
        A = np.full((4, 4), -0.25) + np.eye(4) * 2.25
        A[0, 3] = A[3, 0] = -0.75
        return A
    if name == "equal-diagonal-5":
        A = np.full((5, 5), -0.125) + np.eye(5) * 1.125
        A[1, 4] = A[4, 1] = 0.375
        return A
    if name == "tau-overflow-4":
        # aqq - app = 1 over 2 apq = -2e-320 overflows to tau = -inf, and
        # the rotated rows hold signed zeros
        return -np.array([[0.0, -0.0, 0.0, -1e-320], [-0.0, 5.0, 0.3, 1.0],
                          [0.0, 0.3, 2.0, 0.0], [-1e-320, 1.0, 0.0, 1.0]])
    if name == "zero-6":
        return np.zeros((6, 6))
    if name == "block-diagonal-7":
        rng = np.random.default_rng(29)
        A = np.zeros((7, 7))
        for block in (slice(0, 3), slice(3, 7)):
            B = rng.standard_normal((block.stop - block.start,) * 2)
            A[block, block] = B + B.T
        return A
    if name == "weighted-graph-200":
        rng = np.random.default_rng(23)
        W = rng.uniform(0.05, 1.0, (200, 200))
        W = np.triu(W, 1)
        W = W + W.T + np.diag(rng.uniform(0.5, 1.5, 200) * 100)
        sym = symmetrized(weighted_graph(W))
        return (sym + sym.T) / 2.0
    raise KeyError(name)


NAMED = ("dead-negative-zero", "weak-1e-13", "weak--1e-13", "weak-1e-160",
         "equal-diagonal-2", "equal-diagonal-4", "equal-diagonal-5", "tau-overflow-4", "zero-6",
         "block-diagonal-7", "weighted-graph-200")


def jacobi_cases() -> list:
    """JSON-able case descriptors: chain instances, rings, birth-death chains,
    random symmetric matrices, then the named matrices."""
    cases = [["chain", seed] for seed in range(200)]
    cases += [["ring", m, laziness] for laziness in (0.0, 0.37) for m in range(2, 42)]
    cases += [["birth-death", m] for m in range(2, 42)]
    sizes = np.random.default_rng(1901)
    cases += [["symmetric", seed, int(sizes.integers(2, 66))] for seed in range(40)]
    cases += [["named", name] for name in NAMED]
    return cases


def case_matrix(case: list) -> np.ndarray:
    kind, *args = case
    if kind == "chain":
        chain, _ = random_chain_instance(args[0], m_max=64)
        return symmetrized(chain)
    if kind == "ring":
        return symmetrized(lazy_ring(*args))
    if kind == "birth-death":
        rng = np.random.default_rng(args[0])
        up, down = rng.uniform(0.1, 0.45, (2, args[0] - 1))
        return symmetrized(birth_death(up, down))
    if kind == "symmetric":
        seed, m = args
        A = np.random.default_rng(seed).standard_normal((m, m))
        return A + A.T
    return named_matrix(args[0])


def jacobi_digest(case: list) -> dict:
    over = "ignore" if case == ["named", "tau-overflow-4"] else "raise"
    with np.errstate(over=over, divide="raise", invalid="raise"):
        values, vectors, sweeps, residual = jacobi_eigendecomposition(case_matrix(case))
    return {
        "case": case,
        "values": hashlib.sha256(np.ascontiguousarray(values, "<f8").tobytes()).hexdigest(),
        "vectors": hashlib.sha256(np.ascontiguousarray(vectors, "<f8").tobytes()).hexdigest(),
        "sweeps": sweeps,
        "residual": residual,
    }


def test_cases_cover_the_edges():
    cases = jacobi_cases()
    assert len(cases) == 371
    sizes = {kind: set() for kind, *_ in cases}
    for case in cases:
        sizes[case[0]].add(case_matrix(case).shape[0])
    assert all(any(m % 2 for m in found) for found in sizes.values())
    assert max(sizes["chain"]) == 64 and 200 in sizes["named"]


def test_solver_matches_committed_digests():
    want = json.loads(DIGESTS.read_text())
    assert [row["case"] for row in want] == jacobi_cases()
    changed = [row["case"] for row in want if jacobi_digest(row["case"]) != row]
    assert not changed, f"{len(changed)} of {len(want)} solves changed, first {changed[0]}"


if __name__ == "__main__":
    rows = [jacobi_digest(case) for case in jacobi_cases()]
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
