"""``spectral_measure`` against chains whose spectra are known in closed form.

No eigensolver enters the oracles (Levin, Peres & Wilmer, *Markov Chains and
Mixing Times*, 2nd ed., 2017, §12.3-12.4):

- ``lazy_ring(m, l)``: λ_k = l + (1 − l)·cos(2πk/m), with mass |f̂_k|²/m²
  summed over k and m − k, where f̂ is the DFT of f;
- ``birth_death`` with every rate r: λ_k = 1 − 2r + 2r·cos(πk/m), with the
  DCT-II vectors cos(πk(x + 1/2)/m) as eigenvectors;
- ``two_state(p, q)``: mass (π·f)² at 1 and Var_π f at 1 − p − q.

Every eigenvalue is distinct in these grids apart from the ring's pairs k and
m − k, so the atom counts must match exactly.  Each chain runs with a random
f and with f centered.  Eigenvalues must agree to 1e-13, and masses to 1e-10
times the energy π·f².  Today the eigenvalues agree to 9.3e-15.  A mass
tolerance of 1e-12 × energy would fail on 7 of the 108 rings, for both f
(the worst, 9.0e-12, is ``lazy_ring(41, 0.9)``), and on the three paths of
24 states with f uncentered (1.14e-12); the two-state masses agree to 4e-16.
"""

import numpy as np
import pytest

from revmax.markov import Observable, birth_death, lazy_ring, spectral_measure, two_state


def ring_oracle(m, laziness, f):
    j = np.arange(m)
    power = np.abs(np.fft.fft(f)) ** 2 / m ** 2
    masses = np.bincount(np.minimum(j, m - j), weights=power)
    k = np.arange(masses.size)
    return laziness + (1 - laziness) * np.cos(2 * np.pi * k / m), masses


def path_oracle(m, rate, f):
    k = np.arange(m)
    basis = np.cos(np.pi * np.outer(k, k + 0.5) / m)
    masses = (basis @ f) ** 2 / (basis ** 2).sum(axis=1) / m
    return 1 - 2 * rate + 2 * rate * np.cos(np.pi * k / m), masses


def two_state_oracle(p, q, f):
    pi = np.array([q, p]) / (p + q)
    mean = pi @ f
    return np.array([1.0, 1 - p - q]), np.array([mean ** 2, pi @ f ** 2 - mean ** 2])


def assert_matches_oracle(chain, oracle):
    f = Observable(np.random.default_rng(5).standard_normal(chain.m))
    for g in (f, f.centered(chain)):
        sm = spectral_measure(chain, g)
        lambdas, masses = oracle(g.values[:, 0])
        energy = float(chain.stationary @ g.values[:, 0] ** 2)
        assert sm.lambdas.size == lambdas.size
        assert np.abs(sm.lambdas - lambdas).max() <= 1e-13
        assert np.abs(sm.masses - masses).max() <= 1e-10 * energy


RING_SIZES = [*range(2, 25), 26, 30, 39, 41]
PATH_SIZES = [*range(2, 17), 20, 24, 29]


@pytest.mark.parametrize("laziness", [0.0, 0.37, 0.5, 0.9])
@pytest.mark.parametrize("m", RING_SIZES)
def test_lazy_ring(m, laziness):
    assert_matches_oracle(lazy_ring(m, laziness), lambda f: ring_oracle(m, laziness, f))


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("m", PATH_SIZES)
def test_constant_rate_path(m, rate):
    chain = birth_death([rate] * (m - 1), [rate] * (m - 1))
    assert_matches_oracle(chain, lambda f: path_oracle(m, rate, f))


@pytest.mark.parametrize("p, q", [(0.25, 0.25), (0.1, 0.7), (1.0, 1.0), (0.9, 0.05),
                                  (0.5, 1.0), (0.01, 0.02)])
def test_two_state(p, q):
    assert_matches_oracle(two_state(p, q), lambda f: two_state_oracle(p, q, f))
