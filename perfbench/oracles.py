"""Independent recomputations that the benchmark checks revmax outputs against.

Everything here works from plain arrays: atom probabilities and block
labels, kernel matrices and stationary laws, observable values.  Nothing
calls a revmax computation; callers may use revmax generators only to
rebuild the inputs a row names.  The formulas follow the definitions, not
the library's code paths: block averages go through an indicator matrix,
kernel images through repeated matrix products, the Poisson equation
through a least-squares solve, and the Monte Carlo target through full
path enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# --- filtrations ----------------------------------------------------------

def block_average(labels, probs, values) -> np.ndarray:
    """Probability-weighted block average of per-atom vectors.

    ``labels[a]`` is the block of atom ``a``; the result is constant on
    blocks.  Computed as M diag(1/P(B)) M^T diag(p) v with M the atom-by-block
    indicator matrix.
    """
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    blocks = np.unique(labels)
    indicator = (labels[:, None] == blocks[None, :]).astype(float)
    block_mass = indicator.T @ probs
    block_sums = indicator.T @ (probs[:, None] * values)
    return indicator @ (block_sums / block_mass[:, None])


def max_moment(probs, variables, p: float) -> float:
    """E max_k |V_k|^p for per-atom vector arrays V_k of equal shape."""
    norms = np.array([np.sqrt((np.asarray(v) ** 2).sum(axis=1)) for v in variables])
    return float(np.asarray(probs) @ (norms.max(axis=0) ** p))


def moment(probs, values, p: float) -> float:
    """E |V|^p for one per-atom vector array."""
    return max_moment(probs, [values], p)


def filtration_lhs(check: str, p: float, probs, labels, terms, weights) -> float:
    """Left side of a filtration inequality from raw instance data.

    ``labels[j - 1]`` are the level-j block labels (level 1 finest),
    ``terms[j - 1]`` the per-atom values of X_j, and ``weights[j - 1]`` the
    weight a_j (unused by the unweighted checks).
    """
    n = len(terms)
    if check in ("max-vs-endpoint", "max-vs-projections"):
        partial = np.cumsum(np.asarray(terms, dtype=float), axis=0)
        return max_moment(probs, partial, p)
    X = terms[0]
    conditioned = [block_average(labels[j], probs, X) for j in range(n)]
    if check == "smoothness":
        total = np.zeros_like(conditioned[0])
        for j in range(n):
            coarser = block_average(labels[j + 1], probs, X)
            total = total + (conditioned[j] - coarser)
        return moment(probs, total, p)
    a = np.asarray(weights[:n], dtype=float)
    if check == "dyadic-weighted-max":
        s = np.cumsum(a)
        return max_moment(probs, [s[k] * conditioned[k] for k in range(n)], p)
    partial = np.cumsum([a[k] * conditioned[k] for k in range(n)], axis=0)
    if check == "second-moment-series":
        p = 2.0
    return max_moment(probs, partial, p)


# --- chains -----------------------------------------------------------------

def pi_inner(pi, f, g) -> float:
    """<f, g>_pi summed over coordinates."""
    f = np.asarray(f, dtype=float).reshape(len(pi), -1)
    g = np.asarray(g, dtype=float).reshape(len(pi), -1)
    return float(np.asarray(pi) @ (f * g).sum(axis=1))


def kernel_images(Q, f, upto: int):
    """[f, Qf, Q^2 f, ..., Q^upto f] by repeated products."""
    out = [np.asarray(f, dtype=float)]
    for _ in range(upto):
        out.append(np.asarray(Q) @ out[-1])
    return out


def autocovariances(Q, pi, f, upto: int):
    """<f, Q^k f>_pi for k = 0..upto."""
    return [pi_inner(pi, f, image) for image in kernel_images(Q, f, upto)]


def poisson_solution(Q, f) -> np.ndarray:
    """A solution g of (I - Q) g = f by least squares (f must be centered)."""
    Q = np.asarray(Q, dtype=float)
    g, *_ = np.linalg.lstsq(np.eye(Q.shape[0]) - Q, np.asarray(f, dtype=float),
                            rcond=None)
    return g


def spectral_integrals(Q, pi, f):
    """(integral of 1/(1-t) dmu_f, asymptotic variance) for centered f.

    With g solving (I - Q) g = f, the first is <f, g>_pi and the second is
    2 <f, g>_pi - <f, f>_pi.
    """
    g = poisson_solution(Q, f)
    fg = pi_inner(pi, f, g)
    return fg, 2.0 * fg - pi_inner(pi, f, f)


def weighted_series_max(Q, pi, f, weights, n: int) -> float:
    """E_pi max_{k<=n} |sum_{j<=k} a_j Q^j f|^2 with ``weights[j - 1]`` = a_j."""
    images = kernel_images(Q, f, n)
    running = np.zeros_like(images[0])
    best = np.zeros(len(pi))
    for j in range(1, n + 1):
        running = running + weights[j - 1] * images[j]
        best = np.maximum(best, (running ** 2).reshape(len(pi), -1).sum(axis=1))
    return float(np.asarray(pi) @ best)


def chain_check_lhs(check: str, Q, pi, f, n: int, weights=None) -> float:
    """Left side of a chain maximal inequality from the kernel and observable."""
    f = np.asarray(f, dtype=float).reshape(len(pi), -1)
    unit = np.ones(2 * n)
    inv_sqrt = np.arange(1, 2 * n + 1, dtype=float) ** -0.5
    if check == "weighted-power-max":
        return weighted_series_max(Q, pi, f, weights, 2 * n)
    if check == "unit-weight-power-max":
        return weighted_series_max(Q, pi, f, unit, n)
    if check == "inv-sqrt-power-max":
        return weighted_series_max(Q, pi, f, inv_sqrt, n)
    if check == "sup-power-max":
        return weighted_series_max(Q, pi, f, inv_sqrt, 2 * n)
    if check == "paired-power-max":
        return weighted_series_max(Q, pi, f + np.asarray(Q) @ f, unit, 2 * n)
    if check == "stein":
        images = kernel_images(Q, f, 2 * n + 1)
        best = np.zeros(len(pi))
        for k in range(2, 2 * n + 2):
            best = np.maximum(best, (images[k] ** 2).sum(axis=1))
        return float(np.asarray(pi) @ best)
    raise ValueError(f"unknown chain check {check!r}")


def series_sup_bound(Q, f, weights) -> float:
    """sum_k |a_k| max_x |Q^k f(x)| over k = 1..len(weights).

    Every partial sum T_k of a stationary path is bounded by this number, so
    its square bounds E max_k |T_k|^2.
    """
    Q = np.asarray(Q, dtype=float)
    image = np.asarray(f, dtype=float).reshape(Q.shape[0], -1)
    total = 0.0
    for a in weights:
        image = Q @ image
        total += abs(a) * float(np.sqrt((image ** 2).sum(axis=1)).max())
    return total


def path_enumeration_max_moment(Q, pi, f, weights) -> float:
    """Exact E max_{k<=n} |T_k|^2, T_k = sum_{j<=k} a_j (Q^j f)(xi_j).

    Sums over every stationary path xi_0..xi_n; n = len(weights).
    """
    Q = np.asarray(Q, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = len(weights)
    images = kernel_images(Q, np.asarray(f, dtype=float).reshape(len(pi), -1), n)
    total = 0.0
    for path in itertools.product(range(len(pi)), repeat=n + 1):
        prob = pi[path[0]]
        for a, b in zip(path, path[1:]):
            prob *= Q[a, b]
        if prob == 0.0:
            continue
        running = np.zeros(images[0].shape[1])
        best = 0.0
        for j in range(1, n + 1):
            running = running + weights[j - 1] * images[j][path[j]]
            best = max(best, float((running ** 2).sum()))
        total += prob * best
    return total


def close(a: float, b: float, rel: float, scale: float | None = None) -> bool:
    """|a - b| <= rel * max(|a|, |b|, scale) with both finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    ref = max(abs(a), abs(b), 0.0 if scale is None else abs(scale))
    return abs(a - b) <= rel * ref
