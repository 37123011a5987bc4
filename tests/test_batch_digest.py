"""Bit-for-bit pin of the routines whose per-item loops became array code.

Each case records the exact result of one call: a float as ``float.hex``,
an array as the SHA-256 digest of its little-endian bytes.  The cases are

* ``enumerate_max_moment`` on 300 small chains (2-4 states, horizons 1-7,
  observables of dimension 1-9, lazy rings with laziness 0 and 1, whose
  kernels hold zeros, and six weightings among them all-zero and explicit
  ones) plus the 3-state chain of criterion 9 at n = 12, every path of
  which has positive probability;
* ``series_paths`` and ``as_convergence_diagnostic`` on sampled states held
  as int16 and int64, C-ordered and time-major, with the paths passed back
  C-ordered, time-major and, for scalar observables, as ``(trials, n)``;
  dimension 9 reaches numpy's pairwise summation of squared coordinates;
* ``dl_integral`` and ``c_sigma2`` of ``check_conditions`` on the 61 chains
  of criterion 8, with centered and uncentered observables, so both the
  finite and the infinite branches and near-unit atoms of negligible mass
  show up;
* the kernels and stationary laws of ``lazy_ring(m, l)`` for m = 2..8 and
  l in {0, 0.3, 0.6, 1} (at m = 2 both hops land on one entry), and of
  ``birth_death`` with random rates and with rates that leave no holding
  probability.

The committed digests were written by ``computed_digests`` with the per-path,
per-trial, per-atom and per-state loops these routines had before they
became array code; rewrite them with ``python tests/test_batch_digest.py``
only when the results are meant to change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from revmax.markov import (
    Observable,
    birth_death,
    check_conditions,
    lazy_ring,
    metropolis_chain,
    random_chain_instance,
    weighted_graph,
)
from revmax.simulate import (
    as_convergence_diagnostic,
    derive_trial_seed,
    enumerate_max_moment,
    sample_trajectories,
    series_paths,
)
from revmax.weights import WeightSequence

DIGESTS = Path(__file__).parent / "data" / "batch" / "digests.json"

EXPLICIT = [1.0, 0.0, -2.0, 0.5, 0.0, 3.0, 1.5, -1.0, 0.25, 2.0, 0.0, 1.0, -0.75]
WEIGHTS = ("constant:1", "constant:0", "power:-0.5", "power:0.5",
           "alternating:power:-0.5", "explicit")


def weights(name: str) -> WeightSequence:
    if name == "explicit":
        return WeightSequence.explicit(EXPLICIT)
    if name.startswith("alternating:"):
        return WeightSequence.alternating(weights(name[len("alternating:"):]))
    kind, value = name.split(":")
    return WeightSequence.constant(value) if kind == "constant" else WeightSequence.power(value)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).astype("<f8").tobytes()).hexdigest()


def criterion_9_chain():
    rng = np.random.default_rng(9)
    target = rng.uniform(0.3, 1.0, 3)
    chain = metropolis_chain(target, np.full((3, 3), 1.0 / 3.0))
    return chain, Observable(rng.standard_normal(3)).centered(chain)


def enumeration_cases() -> list:
    """300 small chains with at most 4096 paths each, then criterion 9's at n = 12."""
    rng = np.random.default_rng(2020)
    cases = []
    for i in range(300):
        dim = 1 + i % 9
        w = WEIGHTS[i % len(WEIGHTS)]
        seed = int(rng.integers(0, 2**31))
        if i % 3 == 0:
            m = int(rng.integers(2, 5))
            chain = ["ring", m, float(i // 3 % 2), seed]
        else:
            m = random_chain_instance(seed, m_max=4)[0].m
            chain = ["chain", seed, bool(i % 2)]
        top = max(n for n in range(1, 8) if m ** (n + 1) <= 4096)
        cases.append(["enumerate", chain, dim, int(rng.integers(1, top + 1)), w])
    cases.append(["enumerate", ["criterion-9"], 1, 12, "power:-0.5"])
    return cases


def enumeration_chain(spec: list, dim: int):
    kind, *args = spec
    if kind == "ring":
        m, laziness, seed = args
        chain = lazy_ring(m, laziness)
        return chain, Observable(np.random.default_rng(seed).standard_normal((m, dim)))
    if kind == "chain":
        seed, centered = args
        return random_chain_instance(seed, m_max=4, dim=dim, centered=centered)
    return criterion_9_chain()


def path_cases() -> list:
    """Series paths of 40 sampled trials on three chains, every state layout."""
    cases = []
    for chain in (["birth-death", 6], ["ring", 5, 0.0], ["ring", 2, 1.0]):
        for dim, n, w in ((1, 64, "power:-0.5"), (3, 48, "alternating:power:-0.5"),
                          (9, 32, "power:0.5"), (2, 1, "constant:1")):
            for dtype in ("int16", "int64"):
                for order in ("C", "time-major"):
                    cases.append(["paths", chain, dim, n, w, dtype, order])
    return cases


def path_chain(spec: list):
    if spec[0] == "birth-death":
        rng = np.random.default_rng(spec[1])
        return birth_death(*rng.uniform(0.1, 0.45, (2, spec[1] - 1)))
    return lazy_ring(spec[1], spec[2])


def criterion_8_chains() -> list:
    """The 61 (chain, centered f) pairs of criterion 8, in its order."""
    rng = np.random.default_rng(8)
    chains = [
        random_chain_instance(int(rng.integers(0, 2**63 - 1)), m_max=50)
        for _ in range(60)
    ]
    W = rng.uniform(0.05, 1.0, (200, 200))
    W = np.triu(W, 1)
    W = W + W.T + np.diag(rng.uniform(0.5, 1.5, 200) * 100.0)
    big = weighted_graph(W)
    chains.append((big, Observable(rng.standard_normal(200)).centered(big)))
    return chains


def condition_cases() -> list:
    return [["conditions", i, centered] for i in range(61) for centered in (True, False)]


def kernel_cases() -> list:
    cases = [["lazy-ring", m, laziness] for m in range(2, 9) for laziness in (0.0, 0.3, 0.6, 1.0)]
    cases += [["birth-death", seed, int(np.random.default_rng(seed).integers(2, 21))]
              for seed in range(40)]
    cases += [["birth-death-full", m] for m in (2, 3, 7)]
    return cases


def kernel_chain(case: list):
    kind, *args = case
    if kind == "lazy-ring":
        return lazy_ring(*args)
    if kind == "birth-death":
        seed, m = args
        return birth_death(*np.random.default_rng(seed).uniform(0.05, 0.5, (2, m - 1)))
    # up + down = 1 in every inner row, so those rows hold nothing
    m = args[0]
    return birth_death(np.full(m - 1, 0.75), np.full(m - 1, 0.25))


def all_cases() -> list:
    return enumeration_cases() + path_cases() + condition_cases() + kernel_cases()


def batch_digest(case: list, conditions: list) -> dict:
    kind = case[0]
    if kind == "enumerate":
        _, spec, dim, n, w = case
        chain, f = enumeration_chain(spec, dim)
        return {"case": case, "value": enumerate_max_moment(chain, f, weights(w), n).hex()}
    if kind == "paths":
        _, spec, dim, n, w, dtype, order = case
        chain = path_chain(spec)
        f = Observable(np.random.default_rng(dim).standard_normal((chain.m, dim)))
        seeds = [derive_trial_seed(n, i) for i in range(40)]
        states = sample_trajectories(chain, n, seeds).astype(dtype)
        if order == "time-major":
            states = np.ascontiguousarray(states.T).T
        paths = series_paths(chain, f, weights(w), states)
        checkpoints = [c for c in (1, 2, 4, 8, 16, 32) if 2 * c <= n]
        tables = []
        for given in (paths, np.ascontiguousarray(paths.transpose(1, 0, 2)).transpose(1, 0, 2),
                      paths[:, :, 0] if dim == 1 else None):
            if given is not None and checkpoints:
                table = as_convergence_diagnostic(given, checkpoints)
                tables.append([[x.hex() for x in table.median], [x.hex() for x in table.q95],
                               table.consistent])
        return {"case": case, "paths": digest(paths), "diagnostics": tables}
    if kind == "conditions":
        _, index, centered = case
        chain, f = conditions[index]
        if not centered:
            f = Observable(f.values + 1.0)
        report = check_conditions(chain, f)
        return {"case": case, "d_integral": report.d_integral.hex(),
                "c_sigma2": report.c_sigma2.hex()}
    chain = kernel_chain(case)
    return {"case": case, "transition": digest(chain.transition),
            "stationary": digest(chain.stationary)}


def computed_digests() -> list:
    conditions = criterion_8_chains()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return [batch_digest(case, conditions) for case in all_cases()]


def test_cases_cover_the_edges():
    enumerations = enumeration_cases()
    assert len(enumerations) == 301
    shapes = set()
    for _, spec, dim, n, w in enumerations[:-1]:
        chain, f = enumeration_chain(spec, dim)
        assert chain.m <= 4 and n <= 7 and chain.m ** (n + 1) <= 4096
        shapes.add((spec[0], spec[2] if spec[0] == "ring" else None, f.dim, w))
    assert {dim for *_, dim, _ in shapes} == set(range(1, 10))
    assert {("ring", 0.0), ("ring", 1.0)} <= {(kind, lazy) for kind, lazy, *_ in shapes}
    assert {w for *_, w in shapes} == set(WEIGHTS)
    assert {case[1] for case in kernel_cases() if case[0] == "lazy-ring"} == set(range(2, 9))


def test_results_match_committed_digests():
    want = json.loads(DIGESTS.read_text())
    assert [row["case"] for row in want] == all_cases()
    changed = [got["case"] for got, row in zip(computed_digests(), want) if got != row]
    assert not changed, f"{len(changed)} of {len(want)} results changed, first {changed[0]}"


if __name__ == "__main__":
    rows = computed_digests()
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
