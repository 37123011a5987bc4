"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are property-based at desk scale.  Every criterion pins its master
seed to its own number, fixed before any outcome was observed; tolerances
are the contract values, not calibrated ones.
"""

import json
import time

import numpy as np
import pytest

from revmax import (
    InequalityId,
    MarkovCheck,
    Observable,
    ReversibleChain,
    WeightSequence,
    as_convergence_diagnostic,
    birth_death,
    check_conditions,
    decomposition_residual,
    derive_trial_seed,
    enumerate_max_moment,
    even_odd_split_residual,
    mc_max_moment,
    metropolis_chain,
    orthogonality_gap,
    random_chain_instance,
    random_instance,
    sample_trajectories,
    series_paths,
    spectral_measure,
    two_state,
    verify_batch,
    verify_markov_inequality,
    weighted_graph,
)
from revmax.cli import run
from revmax.markov import ChainPowers, autocovariance


def announce(number, name, passed=True):
    print(f"[criterion {number:2d}] {name}: {'PASS' if passed else 'FAIL'}")


def instance_family(seed, count, atoms_max=64, n_max=32, dim_max=3):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        atoms = int(rng.integers(n + 1, atoms_max + 1))
        dim = int(rng.integers(1, dim_max + 1))
        yield random_instance(
            int(rng.integers(0, 2**63 - 1)), atoms=atoms, levels=n + 1, n=n, dim=dim
        ), n


def disconnected_chain(rng):
    sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    blocks, degrees = [], []
    for size in sizes:
        W = rng.uniform(0.2, 1.0, (size, size))
        W = np.triu(W, 1)
        W = W + W.T + np.diag(rng.uniform(0.5, 1.5, size))
        blocks.append(W)
        degrees.append(W.sum(axis=1))
    m = sum(sizes)
    Q = np.zeros((m, m))
    Q[: sizes[0], : sizes[0]] = blocks[0] / degrees[0][:, None]
    Q[sizes[0] :, sizes[0] :] = blocks[1] / degrees[1][:, None]
    pi = np.concatenate(
        [0.5 * degrees[0] / degrees[0].sum(), 0.5 * degrees[1] / degrees[1].sum()]
    )
    return ReversibleChain(Q, pi)


def test_criterion_1_decomposition_identity():
    start = time.perf_counter()
    for instance, n in instance_family(seed=1, count=500):
        assert decomposition_residual(instance.sequence, n) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(1, f"decomposition residual <= 1e-12 on 500 instances ({elapsed:.1f}s)")


def test_criterion_2_orthogonality_identity():
    checked = 0
    for instance, n in instance_family(seed=2, count=500):
        if n < 2:
            continue
        lhs, rhs = orthogonality_gap(instance.sequence, n)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)
        checked += 1
    assert checked >= 400
    announce(2, f"second-moment orthogonality identity on {checked} instances")


def test_criterion_3_filtration_inequalities():
    grid = {
        InequalityId.MAX_VS_ENDPOINT: (1.5, 2.0, 3.0),
        InequalityId.MAX_VS_PROJECTIONS: (1.5, 2.0),
        InequalityId.WEIGHTED_MAX_VS_ENDPOINT: (1.5, 2.0, 3.0),
        InequalityId.WEIGHTED_MAX_VS_PROJECTIONS: (1.5, 2.0),
        InequalityId.DYADIC_WEIGHTED_MAX: (1.5, 2.0, 3.0),
        InequalityId.SECOND_MOMENT_SERIES: (2.0,),
    }
    weights = WeightSequence.power(-0.5)
    start = time.perf_counter()
    total = 0
    for check, ps in grid.items():
        for p in ps:
            records = verify_batch(check, p=p, count=100, seed=3, weights=weights)
            assert all(r.passed for r in records), (check.value, p)
            total += len(records)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(3, f"{total} inequality checks, zero violations ({elapsed:.1f}s)")


def test_criterion_4_even_odd_split_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        chain, f = random_chain_instance(int(rng.integers(0, 2**63 - 1)), m_max=50)
        kind = rng.integers(0, 3)
        if kind == 0:
            w = WeightSequence.constant(float(rng.uniform(-2.0, 2.0)))
        elif kind == 1:
            w = WeightSequence.power(float(rng.uniform(-1.5, 0.5)))
        else:
            w = WeightSequence.explicit(rng.standard_normal(800).tolist())
        n = int(rng.integers(1, 101))
        assert even_odd_split_residual(chain, f, w, n) <= 1e-10
    announce(4, "even/odd power-split residual <= 1e-10 on 100 triples")


def test_criterion_5_condition_equivalence():
    rng = np.random.default_rng(5)
    for index in range(200):
        if index % 5 == 4:
            chain = disconnected_chain(rng)
            f = Observable(rng.standard_normal(chain.m))
            if index % 2 == 0:
                f = f.centered(chain)
        else:
            chain, f = random_chain_instance(
                int(rng.integers(0, 2**63 - 1)),
                m_max=30,
                centered=bool(index % 2 == 0),
            )
        assert check_conditions(chain, f).all_equivalent

    report = check_conditions(two_state(0.25, 0.25), Observable([1.0, -1.0]))
    assert report.c_sigma2 == pytest.approx(3.0, abs=1e-10)
    assert report.d_integral == pytest.approx(2.0, abs=1e-10)
    announce(5, "five-way equivalence on 200 pairs; two-state benchmark exact")


def test_criterion_6_power_tail_max():
    rng = np.random.default_rng(6)
    for _ in range(200):
        chain, f = random_chain_instance(int(rng.integers(0, 2**63 - 1)), m_max=50)
        n = int(rng.integers(1, 129))
        record = verify_markov_inequality(MarkovCheck.STEIN, chain, f, n)
        assert record.lhs <= record.rhs + 1e-12 * (1.0 + record.rhs)
    announce(6, "constant-free power-tail maximal bound on 200 instances")


def test_criterion_7_chain_maximal_inequalities():
    rng = np.random.default_rng(7)
    checks = (
        (MarkovCheck.WEIGHTED_POWER_MAX, WeightSequence.power(-0.5)),
        (MarkovCheck.WEIGHTED_POWER_MAX, WeightSequence.constant(1.0)),
        (MarkovCheck.UNIT_WEIGHT_POWER_MAX, None),
        (MarkovCheck.INV_SQRT_POWER_MAX, None),
    )
    for _ in range(100):
        chain, f = random_chain_instance(int(rng.integers(0, 2**63 - 1)), m_max=50)
        n = int(rng.integers(1, 129))
        for check, w in checks:
            record = verify_markov_inequality(check, chain, f, n, weights=w)
            assert record.passed, (check.value, record.ratio, record.constant)
    announce(7, "weighted power maxima vs traced constants on 100 chains")


def test_criterion_8_spectral_integrity():
    rng = np.random.default_rng(8)
    chains = [
        random_chain_instance(int(rng.integers(0, 2**63 - 1)), m_max=50)
        for _ in range(60)
    ]
    # include the sweep-budget stress size
    W = rng.uniform(0.05, 1.0, (200, 200))
    W = np.triu(W, 1)
    W = W + W.T + np.diag(rng.uniform(0.5, 1.5, 200) * 100.0)
    big = weighted_graph(W)
    chains.append((big, Observable(rng.standard_normal(200)).centered(big)))
    for chain, f in chains:
        sm = spectral_measure(chain, f)  # raises past the 100-sweep cap
        energy = float(chain.stationary @ (f.values ** 2).sum(axis=1))
        assert abs(sm.total_mass() - energy) <= 1e-9 * (1.0 + energy)
        powers = ChainPowers(chain, f)
        for k in range(21):
            gap = abs(sm.moment(k) - autocovariance(chain, f, k, powers))
            assert gap <= 1e-9 * (1.0 + energy)
    announce(8, f"Parseval and 20-step moment reconstruction on {len(chains)} chains")


def test_criterion_9_monte_carlo_vs_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    cases = []
    cases.append((two_state(0.25, 0.25), Observable([1.0, -1.0])))
    target = rng.uniform(0.3, 1.0, 3)
    chain3 = metropolis_chain(target, np.full((3, 3), 1.0 / 3.0))
    cases.append((chain3, Observable(rng.standard_normal(3)).centered(chain3)))
    for chain, f in cases:
        for w in (WeightSequence.constant(1.0), WeightSequence.power(-0.5)):
            for n in (3, 6):
                exact = enumerate_max_moment(chain, f, w, n)
                out = mc_max_moment(chain, f, w, n, master_seed=9, trials=10_000)
                assert abs(out.estimate - exact) <= 3.0 * out.standard_error, (
                    chain.m, n, out.estimate, exact, out.standard_error,
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(9, f"Monte Carlo within 3 SE of path enumeration ({elapsed:.1f}s)")


def test_criterion_10_convergence_diagnostic():
    chain = birth_death([0.3] * 9, [0.3] * 9)
    f = Observable(np.arange(10.0)).centered(chain)
    trials, top = 200, 2**15
    seeds = [derive_trial_seed(10, i) for i in range(trials)]
    states = sample_trajectories(chain, 2 * top, seeds)
    checkpoints = [2**k for k in range(3, 16)]

    paths = series_paths(chain, f, WeightSequence.power(-0.5), states)
    table = as_convergence_diagnostic(paths, checkpoints)
    assert table.consistent, table.q95[-3:]

    control_f = Observable(np.arange(10.0))  # unit-eigenvalue mass
    control = series_paths(chain, control_f, WeightSequence.constant(1.0), states)
    control_table = as_convergence_diagnostic(control, checkpoints)
    assert not control_table.consistent
    announce(10, "oscillation trend holds for decaying weights, fails for control")


def test_criterion_11_thread_determinism(tmp_path):
    texts = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"v{threads}.csv"
        mk = tmp_path / f"m{threads}.csv"
        osc = tmp_path / f"o{threads}.csv"
        chain_path = tmp_path / "chain.json"
        obs_path = tmp_path / "f.json"
        if threads == 1:
            assert run(["gen-chain", "--model", "two-state", "--p", "0.25",
                        "--q", "0.25", "-o", str(chain_path)]) == 0
            obs_path.write_text(json.dumps({"dim": 1, "values": [[1.0], [-1.0]]}))
        assert run(["verify", "--id", "max-vs-endpoint", "--p", "2",
                    "--instances", "25", "--seed", "11",
                    "--threads", str(threads), "-o", str(out)]) == 0
        assert run(["verify-markov", "--id", "stein", "--chains", "20",
                    "--seed", "11", "--threads", str(threads), "-o", str(mk)]) == 0
        assert run(["simulate", "--chain", str(chain_path),
                    "--observable", str(obs_path), "--weights", "power:-0.5",
                    "--n", "64", "--trials", "120", "--master-seed", "11",
                    "--threads", str(threads), "--osc-out", str(osc)]) == 0
        texts[threads] = out.read_bytes() + mk.read_bytes() + osc.read_bytes()
    assert texts[1] == texts[2] == texts[8]
    announce(11, "byte-identical CSVs across 1, 2 and 8 threads")
