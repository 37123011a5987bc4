"""Hand-computed cases for the benchmark's oracles.

Run with ``python3 -m pytest perfbench/test_oracles.py``.
"""

import math

import numpy as np
import pytest

import oracles

# symmetric two-state chain p = q = 1/4 with f = (1, -1): one spectral atom
# at 1/2 of mass 1, so sigma^2 = (1 + 1/2) / (1 - 1/2) = 3 and the 1/(1-t)
# integral is 2
Q2 = np.array([[0.75, 0.25], [0.25, 0.75]])
PI2 = np.array([0.5, 0.5])
F2 = np.array([[1.0], [-1.0]])

# the four-atom filtration of demos/conditional_expectations.py
PROBS4 = np.full(4, 0.25)
LABELS4 = [np.array([0, 1, 2, 3]), np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0])]
X4 = np.array([1.0, 3.0, 5.0, 7.0])


def block_average(level):
    return oracles.block_average(LABELS4[level - 1], PROBS4, X4)


def test_block_averages_of_the_four_atom_filtration():
    np.testing.assert_allclose(block_average(1), [[1.0], [3.0], [5.0], [7.0]])
    np.testing.assert_allclose(block_average(2), [[2.0], [2.0], [6.0], [6.0]])
    np.testing.assert_allclose(block_average(3), [[4.0]] * 4)


def test_block_average_weights_atoms_by_probability():
    out = oracles.block_average([0, 0], [0.25, 0.75], [[4.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(out, [[1.0, 3.0], [1.0, 3.0]])


def test_filtration_lhs_by_hand():
    # S_1 = (1, 3, 5, 7), S_2 = S_1 + (1, 1, -1, -1) = (2, 4, 4, 6):
    # E max_k |S_k|^2 = (4 + 16 + 25 + 49) / 4
    terms = [X4[:, None], np.array([[1.0], [1.0], [-1.0], [-1.0]])]
    assert oracles.filtration_lhs("max-vs-endpoint", 2.0, PROBS4, LABELS4, terms,
                                  None) == pytest.approx(23.5, rel=1e-15)
    # one increment X - E_2 X = (-1, 1, -1, 1)
    assert oracles.filtration_lhs("smoothness", 1.5, PROBS4, LABELS4, [X4[:, None]],
                                  None) == pytest.approx(1.0, rel=1e-15)
    # s_1 E_1 X with a_1 = 2: E |2 X|^2 = 4 (1 + 9 + 25 + 49) / 4
    assert oracles.filtration_lhs("dyadic-weighted-max", 2.0, PROBS4, LABELS4,
                                  [X4[:, None]], [2.0]) == pytest.approx(84.0, rel=1e-15)


def test_two_state_poisson_route():
    d_integral, sigma2 = oracles.spectral_integrals(Q2, PI2, F2)
    assert d_integral == pytest.approx(2.0, rel=1e-12)
    assert sigma2 == pytest.approx(3.0, rel=1e-12)


def test_two_state_autocovariances_halve():
    acov = oracles.autocovariances(Q2, PI2, F2, 5)
    np.testing.assert_allclose(acov, [0.5 ** k for k in range(6)], rtol=1e-15)


def test_two_state_chain_maxima():
    # g_1 = Qf = (1/2, -1/2), g_2 = g_1 + Q^2 f = (3/4, -3/4)
    assert oracles.chain_check_lhs("unit-weight-power-max", Q2, PI2, F2, 2) == \
        pytest.approx(9 / 16, rel=1e-15)
    # Stein at n = 1 takes max(|Q^2 f|^2, |Q^3 f|^2) = 1/16
    assert oracles.chain_check_lhs("stein", Q2, PI2, F2, 1) == pytest.approx(1 / 16)
    assert oracles.chain_check_lhs("weighted-power-max", Q2, PI2, F2, 1, [1.0, 0.0]) == \
        pytest.approx(1 / 4)


def test_two_state_path_enumeration():
    # T_1 = +-1/2; T_2 adds +-1/4 with the same sign when the chain stays
    # (probability 3/4): E max |T_k|^2 = 3/4 * 9/16 + 1/4 * 1/4 = 31/64
    assert oracles.path_enumeration_max_moment(Q2, PI2, F2, [1.0]) == pytest.approx(0.25)
    assert oracles.path_enumeration_max_moment(Q2, PI2, F2, [1.0, 1.0]) == \
        pytest.approx(31 / 64, rel=1e-15)
    assert oracles.series_sup_bound(Q2, F2, [1.0, 1.0]) == pytest.approx(0.75)


def test_close():
    assert oracles.close(1.0, 1.0 + 1e-13, 1e-12)
    assert not oracles.close(1.0, 1.0 + 1e-11, 1e-12)
    assert oracles.close(1e-20, 0.0, 1e-9, scale=1.0)
    assert not oracles.close(math.inf, math.inf, 1e-9)
