"""Finite-state stationary reversible chains and their spectral analysis.

Reversibility (detailed balance) makes the kernel self-adjoint on the
stationary L2 space, so conjugating by the square root of the stationary
distribution yields a symmetric matrix.  Its eigendecomposition, computed by
a built-in cyclic Jacobi solver, gives the spectral measure of an observable:
atoms at the eigenvalues with masses equal to squared projections onto the
pi-orthonormal eigenvectors.  Everything downstream (autocovariances,
asymptotic variance, the boundedness equivalences, the chain maximal
inequalities) is evaluated exactly from the kernel and that measure.
"""

from __future__ import annotations

import enum
import functools
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .finite_prob import ValidationError, _dim, _left_sum, _numbers, _object
from .inequalities import (
    InequalityId, TracedConstant, VerificationRecord, _generator, make_record, traced_constant,
)
from .weights import WeightSequence, even_odd_stats

__all__ = [
    "ReversibleChain",
    "Observable",
    "SpectralMeasure",
    "ConditionReport",
    "EigensolverError",
    "ChainPowers",
    "MarkovCheck",
    "CHAIN_MODELS",
    "two_state",
    "birth_death",
    "lazy_ring",
    "weighted_graph",
    "metropolis_chain",
    "make_chain",
    "random_chain_instance",
    "apply_power",
    "autocovariance",
    "jacobi_eigendecomposition",
    "spectral_measure",
    "dl_integral",
    "variance_growth",
    "check_conditions",
    "weighted_series",
    "markov_traced_constant",
    "verify_markov_inequality",
    "verify_markov_batch",
    "inspect_growth_weights",
    "even_odd_split_residual",
    "load_chain",
    "dump_chain",
    "load_observable",
    "dump_observable",
]

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-10
STATIONARY_TOL = 1e-10
MASS_TOL = 1e-14
UNIT_EIGENVALUE_TOL = 1e-12
EIGENVALUE_CLAMP_TOL = 1e-10
ATOM_MERGE_TOL = 1e-10
# Jacobi stops once the off-diagonal norm is within this share of the
# input's norm, and gives up after this many sweeps.
JACOBI_REL_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
# The weightings the checks fix for themselves.  Each sequence keeps the
# values it has evaluated, so every chain of a process reads them from there.
UNIT_WEIGHTS = WeightSequence.constant(1.0)
INV_SQRT_WEIGHTS = WeightSequence.power(-0.5)
GROWTH_WEIGHTS = WeightSequence.power(0.5)


class EigensolverError(RuntimeError):
    """Jacobi hit its sweep cap, or the spectral masses missed the energy.

    ``residual`` and ``sweeps`` are the Jacobi solver's final off-diagonal
    norm and sweep count.
    """

    def __init__(self, residual: float, sweeps: int, message: str | None = None):
        super().__init__(
            message
            or f"Jacobi failed to converge in {sweeps} sweeps; "
            f"off-diagonal residual {residual:.3e}"
        )
        self.residual = residual
        self.sweeps = sweeps


class ReversibleChain:
    """Row-stochastic kernel with stationary law satisfying detailed balance.

    If ``stationary`` is omitted it is computed as the left unit eigenvector
    of the kernel; detailed balance is then validated against it, so
    non-reversible kernels are rejected either way.
    """

    def __init__(self, transition, stationary=None, states=None):
        Q = np.asarray(transition, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] < 1:
            raise ValidationError(f"kernel must be square, got shape {Q.shape}")
        m = Q.shape[0]
        if not np.all(np.isfinite(Q)):
            raise ValidationError("kernel entries must be finite")
        if np.any(Q < -ROW_SUM_TOL):
            i, j = np.unravel_index(int(np.argmin(Q)), Q.shape)
            raise ValidationError(f"kernel entry ({i},{j}) is negative: {float(Q[i, j])!r}")
        Q = np.clip(Q, 0.0, None)
        row_gap = np.abs(Q.sum(axis=1) - 1.0)
        if row_gap.max() > ROW_SUM_TOL:
            bad = int(np.argmax(row_gap))
            raise ValidationError(
                f"row {bad} sums to {float(Q[bad].sum())!r}, off by more than {ROW_SUM_TOL}"
            )
        if stationary is None:
            pi = _stationary_distribution(Q)
        else:
            pi = np.asarray(stationary, dtype=float)
            if pi.shape != (m,):
                raise ValidationError("stationary vector has wrong length")
            if not np.all(np.isfinite(pi)):
                raise ValidationError(f"stationary law pi must be finite, got {pi.tolist()}")
            if np.any(pi <= 0):
                raise ValidationError("stationary probabilities must be positive")
            with np.errstate(over="ignore"):
                total = pi.sum()
            if not np.isfinite(total):
                raise ValidationError("stationary law pi sums past double precision")
            pi = pi / total
        balance = np.abs(pi[:, None] * Q - (pi[:, None] * Q).T)
        if balance.max() > BALANCE_TOL:
            i, j = np.unravel_index(int(np.argmax(balance)), balance.shape)
            raise ValidationError(
                f"detailed balance fails at ({i},{j}): residual {balance[i, j]:.3e}"
            )
        if np.abs(pi @ Q - pi).max() > STATIONARY_TOL:
            raise ValidationError("supplied distribution is not stationary")
        Q.flags.writeable = False
        pi.flags.writeable = False
        self.transition = Q
        self.stationary = pi
        self.m = m
        self.states = tuple(range(m)) if states is None else tuple(states)
        if len(self.states) != m:
            raise ValidationError("state labels do not match kernel size")

    @functools.cached_property
    def connected(self) -> bool:
        """Whether every state is reachable from state 0."""
        return _is_connected(self.transition)

    def __repr__(self):  # pragma: no cover
        return f"ReversibleChain(m={self.m}, connected={self.connected})"


def _stationary_distribution(Q: np.ndarray) -> np.ndarray:
    m = Q.shape[0]
    system = np.vstack([Q.T - np.eye(m), np.ones((1, m))])
    target = np.zeros(m + 1)
    target[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, target, rcond=None)
    if np.any(pi <= 1e-15):
        raise ValidationError(
            "computed stationary distribution has a non-positive entry; "
            "supply one explicitly"
        )
    return pi / pi.sum()


def _is_connected(Q: np.ndarray) -> bool:
    m = Q.shape[0]
    seen = np.zeros(m, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(Q[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def two_state(p: float, q: float) -> ReversibleChain:
    """Two states with flip probabilities p and q."""
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ValidationError("flip probabilities must lie in (0, 1]")
    Q = np.array([[1 - p, p], [q, 1 - q]])
    pi = np.array([q, p]) / (p + q)
    return ReversibleChain(Q, pi)


def birth_death(up_rates, down_rates) -> ReversibleChain:
    """Nearest-neighbour chain on 0..m-1 with the given move probabilities.

    ``up_rates[i]`` is the probability of i -> i+1 and ``down_rates[i]`` of
    i+1 -> i; holding probabilities absorb the remainder.
    """
    up = np.asarray(up_rates, dtype=float)
    down = np.asarray(down_rates, dtype=float)
    if up.ndim != 1 or up.shape != down.shape or up.size < 1:
        raise ValidationError("up and down rates must be equal-length 1-d arrays")
    if np.any(up <= 0) or np.any(down <= 0):
        raise ValidationError("move probabilities must be positive")
    m = up.size + 1
    Q = np.zeros((m, m))
    below = np.arange(m - 1)
    Q[below, below + 1] = up
    Q[below + 1, below] = down
    holds = 1.0 - Q.sum(axis=1)
    if np.any(holds < -ROW_SUM_TOL):
        raise ValidationError("move probabilities exceed 1 in some row")
    Q[np.diag_indices(m)] = np.clip(holds, 0.0, None)
    pi = np.ones(m)
    # pi[i] * up[i] / down[i] in turn; a cumprod of up / down rounds otherwise
    for i in range(m - 1):
        pi[i + 1] = pi[i] * up[i] / down[i]
    return ReversibleChain(Q, pi / pi.sum())


def lazy_ring(m: int, laziness: float) -> ReversibleChain:
    """Symmetric walk on a cycle that stays put with the given probability."""
    if m < 2:
        raise ValidationError("ring needs at least 2 states")
    if not 0 <= laziness <= 1:
        raise ValidationError("laziness must lie in [0, 1]")
    Q = np.eye(m) * laziness
    hop = (1.0 - laziness) / 2.0
    rows = np.arange(m)
    # two statements, so that at m = 2 both hops add to the one neighbour
    Q[rows, (rows + 1) % m] += hop
    Q[rows, (rows - 1) % m] += hop
    return ReversibleChain(Q, np.full(m, 1.0 / m))


def weighted_graph(weight_matrix) -> ReversibleChain:
    """Random walk on a weighted graph: rows normalized, law by degree."""
    W = np.asarray(weight_matrix, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.size == 0:
        raise ValidationError("weight matrix must be square and non-empty")
    # finiteness first: inf - inf would warn before the refusal
    if not (np.isfinite(W).all() and np.abs(W - W.T).max() <= 1e-12):
        raise ValidationError("weight matrix must be finite and symmetric")
    if np.any(W < 0):
        raise ValidationError("weights must be non-negative")
    degrees = W.sum(axis=1)
    if np.any(degrees <= 0):
        bad = int(np.argmin(degrees))
        raise ValidationError(f"state {bad} has zero total weight")
    Q = W / degrees[:, None]
    return ReversibleChain(Q, degrees / degrees.sum())


def metropolis_chain(target, proposal) -> ReversibleChain:
    """Metropolis kernel for a target law under a symmetric proposal."""
    pi = np.asarray(target, dtype=float)
    S = np.asarray(proposal, dtype=float)
    if pi.ndim != 1 or not np.all((pi > 0) & np.isfinite(pi)):
        raise ValidationError("target law must be positive and finite")
    pi = pi / pi.sum()
    m = pi.size
    if S.shape != (m, m):
        raise ValidationError("proposal shape does not match the target")
    # finiteness first: inf - inf would warn before the refusal
    if not (np.isfinite(S).all() and np.abs(S - S.T).max() <= 1e-12):
        raise ValidationError("proposal must be finite and symmetric")
    if np.any(S < 0) or np.abs(S.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise ValidationError("proposal must be row-stochastic")
    Q = S * np.minimum(1.0, pi[None, :] / pi[:, None])
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, 1.0 - Q.sum(axis=1))
    return ReversibleChain(Q, pi)


CHAIN_MODELS = ("two-state", "birth-death", "lazy-ring", "weighted-graph", "metropolis")


def _random_graph(rng, m: int, low: float) -> ReversibleChain:
    """Walk on a random graph of m states: weights U(low, 1) off the diagonal, then
    U(0.5, 1.5) * max(m - 1, 1) / 2 on it, drawn in that order."""
    W = np.triu(rng.uniform(low, 1.0, (m, m)), 1)
    return weighted_graph(W + W.T + np.diag(rng.uniform(0.5, 1.5, m) * max(m - 1, 1) * 0.5))


def make_chain(model: str, params: dict, seed: int | None = None) -> ReversibleChain:
    """Dispatch on a model name; ``seed`` only matters for random weights."""
    if model == "two-state":
        return two_state(params["p"], params["q"])
    if model == "birth-death":
        return birth_death(params["up"], params["down"])
    if model == "lazy-ring":
        return lazy_ring(int(params["m"]), params["laziness"])
    if model == "weighted-graph":
        if "weights" in params:
            return weighted_graph(params["weights"])
        m = int(params["m"])
        if m < 1:
            raise ValidationError(f"weighted-graph needs m >= 1, got {m}")
        return _random_graph(_generator(seed), m, 0.0)
    if model == "metropolis":
        return metropolis_chain(params["target"], params["proposal"])
    raise ValidationError(f"unknown chain model {model!r}; choose from {CHAIN_MODELS}")


class Observable:
    """Per-state values in R^dim."""

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValidationError(f"observable values have bad shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("observable values must be finite")
        v = v.copy()
        v.flags.writeable = False
        self.values = v
        self.dim = int(v.shape[1])

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    def mean(self, chain: ReversibleChain) -> np.ndarray:
        return chain.stationary @ self.values

    def centered(self, chain: ReversibleChain) -> "Observable":
        return Observable(self.values - self.mean(chain)[None, :])


def _check_observable(chain: ReversibleChain, f: Observable):
    if f.m != chain.m:
        raise ValidationError(
            f"observable has {f.m} states, chain has {chain.m}"
        )


def coordinate_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(x * y).sum(axis=-1)``, bit for bit, without reducing a short axis.

    numpy adds fewer than 8 terms one after the other and more in pairwise
    blocks.  An axis that short is summed here as columns, which is much
    faster than numpy's reduction over it and adds in the same order.  ``y``
    may broadcast against ``x``.
    """
    if x.shape[-1] >= 8:
        return (x * y).sum(axis=-1)
    out = x[..., 0] * y[..., 0]
    for d in range(1, x.shape[-1]):
        out += x[..., d] * y[..., d]
    return out


def squared_norms(x: np.ndarray) -> np.ndarray:
    """``(x * x).sum(axis=-1)``, bit for bit: see :func:`coordinate_dots`."""
    return coordinate_dots(x, x)


# Entries of table rows squared at once by ChainPowers.second_moments (1 MB).
_SQUARE_CHUNK = 1 << 17
# Table rows computed between two searches for a repeated row.  Tables of at
# most this many rows are never searched.
_FIXED_CHUNK = 256


def power_rows(table: np.ndarray, powers):
    """Rows of a ``ChainPowers`` table holding Q^j f for the powers j: min(j, last)."""
    return np.minimum(powers, table.shape[0] - 1)


class ChainPowers:
    """The kernel powers Q^0 f, Q^1 f, ... of one observable as one table.

    The table is a read-only ``(rows, m, dim)`` array whose row j holds Q^j f
    up to its last row, which holds every higher power too: power j is read
    from row ``min(j, last)`` (see :func:`power_rows`).  The table stops
    growing at the first row that equals the row before it bit for bit.  That
    row is an exact fixed point: ``ndarray.dot`` gives the same bits for the
    same input, so the next row, and every one after it, would repeat it.
    For an aperiodic chain Q^j f converges geometrically to its mean and in
    floating point lands on such a row, often within a few hundred or a few
    thousand rows; a periodic chain never does, and its table holds every
    row asked for.  The search runs once per ``_FIXED_CHUNK`` rows computed,
    and only on tables longer than that, so short tables never pay for it.

    A request past the end of a table without a fixed point fills a new
    array of at least twice the rows and then swaps it in, so a table already
    handed out never changes.
    """

    def __init__(self, chain: ReversibleChain, f: Observable):
        _check_observable(chain, f)
        self.chain = chain
        self._table = f.values[None]
        self._fixed = False  # the last row is a fixed point

    def table(self, k: int) -> np.ndarray:
        """Read-only rows 0..min(k, last) of the table, shape (<= k + 1, m, dim)."""
        if k < 0:
            raise ValidationError("power must be >= 0")
        old = self._table
        if old.shape[0] <= k and not self._fixed:
            self._table = old = self._grown(max(k + 1, 2 * old.shape[0]))
        return old[: k + 1]

    def _grown(self, rows: int) -> np.ndarray:
        """The table extended to ``rows`` rows, or cut at its first fixed point."""
        old = self._table
        grown = (np.frombuffer(mmap.mmap(-1, rows * old[0].nbytes)).reshape(rows, *old.shape[1:])
                 if rows > _FIXED_CHUNK else np.empty((rows, *old.shape[1:])))
        grown[: old.shape[0]] = old
        # ndarray.dot gives matmul's bits with less overhead per call
        step = self.chain.transition.dot
        bits = grown.view(np.int64)
        start = old.shape[0]
        while start < rows:
            stop = min(rows, (start // _FIXED_CHUNK + 1) * _FIXED_CHUNK)
            for j in range(start, stop):
                step(grown[j - 1], out=grown[j])
            if stop > _FIXED_CHUNK:
                # the first search covers the rows no search has seen
                lo = start if start > _FIXED_CHUNK else 1
                same = (bits[lo:stop] == bits[lo - 1 : stop - 1]).all(axis=(1, 2))
                repeats = np.flatnonzero(same)
                if repeats.size:
                    # a view, not a copy: a searched table is mapped afresh, so
                    # rows never written take no memory whatever malloc holds,
                    # and a copy would free a large block mid-command
                    grown = grown[: lo + repeats[0]]
                    self._fixed = True
                    break
            start = stop
        grown.flags.writeable = False
        return grown

    def get(self, k: int) -> np.ndarray:
        """Per-state values of the k-fold kernel application (k = 0 gives f)."""
        table = self.table(k)
        return table[min(k, table.shape[0] - 1)]

    def images(self, lo: int, hi: int) -> np.ndarray:
        """Q^j f for j = lo..hi - 1, shape (hi - lo, m, dim).

        A read-only view of the table where it holds those rows; past its
        fixed point, a new array gathered from the rows ``min(j, last)``.
        """
        table = self.table(hi - 1)
        if hi <= table.shape[0]:
            return table[lo:hi]
        return table[power_rows(table, np.arange(lo, hi))]

    def second_moment(self, k: int) -> float:
        """Stationary second moment of the k-th power image."""
        v = self.get(k)
        return float(self.chain.stationary @ squared_norms(v))

    def second_moments(self, n: int) -> np.ndarray:
        """Read-only array of ``second_moment(k)`` for k = 0..n."""
        return self._stationary_dots(n, squared_norms)

    def autocovariances(self, n: int) -> np.ndarray:
        """Read-only array of ``autocovariance(k)`` for k = 0..n."""
        f = self._table[0]
        return self._stationary_dots(n, lambda rows: coordinate_dots(rows, f))

    def _stationary_dots(self, n: int, per_state) -> np.ndarray:
        """``stationary @ per_state(Q^k f)`` for k = 0..n, read-only.

        ``per_state`` maps a chunk of table rows to their per-state values,
        and each row keeps its own stationary dot product, so every entry
        equals the one-row computation.  Powers past the last row repeat its
        value, filled in place.
        """
        table = self.table(n)
        rows = table.shape[0]
        chunk = max(1, _SQUARE_CHUNK // table[0].size)
        dot = self.chain.stationary.dot
        out = np.empty(n + 1)
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            out[lo:hi] = np.fromiter(map(dot, per_state(table[lo:hi])), dtype=float,
                                     count=hi - lo)
        out[rows:] = out[rows - 1]
        out.flags.writeable = False
        return out


def apply_power(chain: ReversibleChain, f: Observable, k: int) -> Observable:
    """k-fold application of the kernel to an observable."""
    return Observable(ChainPowers(chain, f).get(k))


def autocovariance(
    chain: ReversibleChain, f: Observable, k: int, powers: ChainPowers | None = None
) -> float:
    """Stationary inner product of f with its k-step kernel image.

    Vector observables reduce by summing the per-coordinate values.
    """
    if powers is None:
        powers = ChainPowers(chain, f)
    image = powers.get(k)
    return float(chain.stationary @ coordinate_dots(f.values, image))


def _round_robin(n: int):
    """The ``(p, q)`` index arrays, ``p < q``, of each round of one Jacobi sweep.

    Circle method of a round-robin tournament: index 0 keeps its seat while
    the others move one seat per round.  For even n, each of the n - 1
    rounds pairs every index once, and together they pair every index with
    every other exactly once.  Odd n gets a dummy index n, and the pair
    holding it is dropped, so every round has n // 2 disjoint pairs.
    """
    m = n + n % 2
    seats = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        a, b = seats[: m // 2], seats[m // 2 :][::-1]
        p, q = np.minimum(a, b), np.maximum(a, b)
        keep = q < n
        rounds.append((p[keep], q[keep]))
        seats = np.concatenate((seats[:1], seats[-1:], seats[1:-1]))
    return rounds


def _round_layouts(n: int):
    """Column order of the working matrix in each round of ``_round_robin(n)``.

    Round r's pair k, ``p < q``, sits in columns (2k, 2k+1), p first.  For
    odd n the index the round leaves unpaired and the dummy index n take the
    last two columns.
    """
    h, m = n // 2, n + n % 2
    layouts = []
    for p, q in _round_robin(n):
        cols = np.empty(m, dtype=np.intp)
        cols[0 : 2 * h : 2], cols[1 : 2 * h : 2] = p, q
        if n % 2:
            # the unpaired index is what the pairs leave of 0 + 1 + ... + (n - 1)
            cols[-2:] = n * (n - 1) // 2 - cols[: 2 * h].sum(), n
        layouts.append(cols)
    return layouts


def jacobi_eigendecomposition(matrix):
    """Cyclic Jacobi diagonalization of a symmetric matrix, round-robin ordering.

    Each sweep is n - 1 rounds of the parallel ordering of Brent & Luk
    (SIAM J. Sci. Stat. Comput. 6(1), 1985; Golub & Van Loan, *Matrix
    Computations*, section 8.5): a round rotates n // 2 disjoint pairs at
    once, and a sweep rotates every pair ``p < q`` once.  Pairs whose entry
    is exactly zero are skipped and left bit for bit as they are.  Sweeps
    run until the off-diagonal Frobenius norm falls below ``JACOBI_REL_TOL``
    times the Frobenius norm of the input.

    The rounds run on a paired-column layout.  Between rounds the working
    matrix's rows and columns, and the eigenvector matrix's columns, are
    permuted so that each pair ``(p, q)`` of the round sits in adjacent
    columns, p first (``_round_layouts``; odd n gets a zero row and column
    for the dummy index).  Viewed as complex numbers x + iy, those columns
    rotate by (c, s) to (c x - s y, s x + c y) in one in-place multiply by
    c + is per round: on the matrix, again on its transposed copy, and on
    the eigenvectors.  The matrix is kept transposed, so each product
    multiplies the same operands in the same order as a rotation of the
    row pair (p, q).  A round works in buffers allocated once per call: one
    routine writes every pair's c + is into them, and the products skip the
    dead pairs through ``where=``.

    Returns ``(eigenvalues, eigenvectors, sweeps, residual)``: eigenvectors
    in columns, both unsorted, the number of sweeps run and the final
    off-diagonal norm.  Raises :class:`EigensolverError` past
    ``JACOBI_MAX_SWEEPS`` sweeps, and :class:`ValidationError` before any
    sweep on a matrix that is not square, not symmetric or not finite.
    """
    A = np.array(matrix, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValidationError("matrix must be square")
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        named = ", ".join(f"({i},{j})={A[i, j]}" for i, j in bad[:4].tolist())
        more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
        raise ValidationError(f"matrix has non-finite entries: {named}{more}")
    if n > 1 and np.abs(A - A.T).max() > 1e-10 * max(1.0, np.abs(A).max()):
        raise ValidationError("matrix is not symmetric")
    A = (A + A.T) / 2.0
    if n == 1:
        return A.diagonal().copy(), np.eye(1), 0, 0.0
    threshold = JACOBI_REL_TOL * np.linalg.norm(A)
    h, m = n // 2, n + n % 2
    layouts = _round_layouts(n)
    column_of = [np.argsort(cols) for cols in layouts]
    # moves[r][j]: the column of round r - 1 whose entries go to column j of round r
    moves = [column_of[r - 1][cols] for r, cols in enumerate(layouts)]
    # every sweep starts and ends in the last round's layout
    home = column_of[-1]

    # S[a, b] = A[i, j] for the indices i, j in columns b, a: the transpose of
    # the working matrix, which starts out symmetric.
    S = np.zeros((m, m))
    S[:n, :n] = A
    S = S[np.ix_(layouts[-1], layouts[-1])]
    T = np.empty_like(S)
    # V's columns are the eigenvectors, in the same column order as S.
    V = np.zeros((n, m))
    V[np.arange(n), home[:n]] = 1.0
    V2 = np.empty_like(V)
    # The off-diagonal entries in the row-major order of A, so that the
    # norm sums the same numbers in the same order whatever the layout.
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    off_diagonal = home[j] * m + home[i]
    # The flat positions of entries (2k, 2k+1) and (2k+1, 2k) of each pair k,
    # which a round's rotations zero, in S and T alike.
    k = np.arange(h)
    couplings = np.stack((2 * k * (m + 1) + 1, 2 * k * (m + 1) + m))

    # Per-round buffers, allocated once; every ufunc of a round writes into them.
    tau, two_apq, abs_tau, t = np.empty((4, h))
    negative, big, live_pairs = np.empty((3, h), dtype=bool)
    w = np.empty(h, dtype=complex)
    c, s = w.real, w.imag

    def rotations(app, aqq, apq, live):
        """Set w to c + is for the rotation of each live pair that zeroes apq.

        tau = (aqq - app) / (2 apq), t = sign(tau) / (|tau| + sqrt(1 + tau^2))
        with the sign of -0 taken as +, and t = 0.5 / tau past |tau| > 1e10,
        where tau^2 could overflow; c = 1 / sqrt(1 + t^2) and s = t c.  A dead
        pair keeps tau = aqq - app, so nothing divides by zero, and its w is
        never used.
        """
        np.multiply(apq, 2.0, out=two_apq)
        np.subtract(aqq, app, out=tau)
        np.divide(tau, two_apq, out=tau, where=live)
        np.abs(tau, out=abs_tau)
        largest = abs_tau.max()
        if largest > 1e10:
            np.greater(abs_tau, 1e10, out=big)
            abs_tau[big] = 0.0
        np.multiply(abs_tau, abs_tau, out=t)
        np.add(t, 1.0, out=t)
        np.sqrt(t, out=t)
        np.add(t, abs_tau, out=t)
        np.divide(1.0, t, out=t)
        np.negative(t, out=t, where=np.less(tau, 0.0, out=negative))
        if largest > 1e10:
            np.divide(0.5, tau, out=t, where=big)
            if largest == np.inf:
                # tau overflowed to -inf, so t is -0; s is taken as +0, the
                # sine that tau = +inf gives
                np.add(t, 0.0, out=t)
        np.multiply(t, t, out=abs_tau)
        np.add(abs_tau, 1.0, out=abs_tau)
        np.sqrt(abs_tau, out=abs_tau)
        np.divide(1.0, abs_tau, out=c)
        np.multiply(t, c, out=s)

    def pair_views(M):
        """M's complex column pairs, its entries (2k, 2k), (2k+1, 2k+1) and
        (2k+1, 2k) for each pair k as writable views, and M flat."""
        flat, step = M.reshape(-1), 2 * m + 2
        return (M.view(complex)[:, :h], flat[::step][:h], flat[m + 1 :: step][:h],
                flat[m::step][:h], flat)

    def off_norm() -> float:
        # summing the off-diagonal entries directly avoids the catastrophic
        # cancellation of the full-norm-minus-diagonal formula
        return float(np.linalg.norm(S.reshape(-1)[off_diagonal]))

    s_views, t_views = pair_views(S), pair_views(T)
    v_pairs, v2_pairs = V.view(complex)[:, :h], V2.view(complex)[:, :h]
    for sweep in range(JACOBI_MAX_SWEEPS):
        residual = off_norm()
        if residual <= threshold:
            # the transpose of a C-ordered array, so that products with it
            # make the same BLAS calls whatever the layout
            eigenvectors = V.T[home[:n]]
            return S.diagonal()[home[:n]], eigenvectors.T, sweep, residual
        for move in moves:
            S.take(move, 0, T, "clip")
            T.take(move, 1, S, "clip")
            V.take(move, 1, V2, "clip")
            V, V2, v_pairs, v2_pairs = V2, V, v2_pairs, v_pairs
            pairs, app, aqq, apq, _ = s_views  # S[2k+1, 2k] is A[p, q]
            # where=True is the plain multiply; a dead pair, whose entry is
            # exactly 0, keeps its bits: a product with 1 + 0j can flip the
            # sign of a zero
            if apq.all():
                live, zeroed = True, couplings
            else:
                live = np.not_equal(apq, 0.0, out=live_pairs)
                if not live.any():
                    continue
                zeroed = couplings[:, live]
            rotations(app, aqq, apq, live)
            # A <- J^T A J: rotate the row pairs of A, which are the column
            # pairs of S, then those of the transpose.
            np.multiply(pairs, w, out=pairs, where=live)
            np.copyto(T, S.T)
            S, T, s_views, t_views = T, S, t_views, s_views
            pairs, _, _, _, flat = s_views
            np.multiply(pairs, w, out=pairs, where=live)
            flat[zeroed] = 0.0
            np.multiply(v_pairs, w, out=v_pairs, where=live)
    raise EigensolverError(off_norm(), JACOBI_MAX_SWEEPS)


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (eigenvalue, mass) sorted by eigenvalue, largest first.

    ``sweeps`` and ``offdiag_residual`` are the Jacobi sweeps run and the
    final off-diagonal norm; ``parseval_defect`` is |total mass - energy|.
    """

    lambdas: np.ndarray
    masses: np.ndarray
    sweeps: int = 0
    offdiag_residual: float = 0.0
    parseval_defect: float = 0.0

    @property
    def atoms(self):
        return list(zip(self.lambdas.tolist(), self.masses.tolist()))

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def moment(self, k: int) -> float:
        """sum of mass * lambda^k; equals the k-step autocovariance."""
        return float((self.masses * self.lambdas ** k).sum())

    def unit_mass(self) -> float:
        """Mass sitting at eigenvalues within tolerance of 1."""
        at_one = self.lambdas >= 1.0 - UNIT_EIGENVALUE_TOL
        return float(self.masses[at_one].sum())

    def has_unit_mass(self) -> bool:
        return self.unit_mass() > MASS_TOL


def spectral_measure(chain: ReversibleChain, f: Observable) -> SpectralMeasure:
    """Spectral measure of an observable under the self-adjoint kernel.

    The kernel is conjugated by sqrt(stationary) into a symmetric matrix,
    diagonalized by the built-in Jacobi solver, and the masses are squared
    projections of f onto the back-transformed pi-orthonormal eigenvectors
    (summed over coordinates for vector observables).  Eigenvalues are
    clamped into [-1, 1] within a 1e-10 tolerance and near-duplicate atoms
    are merged.
    """
    _check_observable(chain, f)
    root = np.sqrt(chain.stationary)
    sym = root[:, None] * chain.transition / root[None, :]
    lambdas, vectors, sweeps, residual = jacobi_eigendecomposition(sym)
    if np.any(lambdas > 1.0 + EIGENVALUE_CLAMP_TOL) or np.any(
        lambdas < -1.0 - EIGENVALUE_CLAMP_TOL
    ):
        worst = float(np.abs(lambdas).max())
        raise ValidationError(
            f"eigenvalue magnitude {worst!r} exceeds 1 beyond tolerance"
        )
    lambdas = np.clip(lambdas, -1.0, 1.0)
    projections = vectors.T @ (root[:, None] * f.values)
    masses = squared_norms(projections)

    order = np.argsort(-lambdas)
    lambdas = lambdas[order]
    masses = masses[order]
    merged_l, merged_m = [], []
    # in turn: each atom may merge into the one the previous merges built
    for lam, mass in zip(lambdas, masses):
        if merged_l and merged_l[-1] - lam <= ATOM_MERGE_TOL:
            total = merged_m[-1] + mass
            if total > 0:
                merged_l[-1] = (merged_l[-1] * merged_m[-1] + lam * mass) / total
            merged_m[-1] = total
        else:
            merged_l.append(float(lam))
            merged_m.append(float(mass))
    lam_arr = np.asarray(merged_l)
    mass_arr = np.asarray(merged_m)
    energy = float(chain.stationary @ squared_norms(f.values))
    defect = abs(float(mass_arr.sum()) - energy)
    if defect > 1e-10 * max(1.0, energy):
        raise EigensolverError(
            residual,
            sweeps,
            f"spectral masses sum to {float(mass_arr.sum())!r} but the energy is "
            f"{energy!r}: Parseval defect {defect:.3e}",
        )
    lam_arr.flags.writeable = False
    mass_arr.flags.writeable = False
    return SpectralMeasure(
        lambdas=lam_arr,
        masses=mass_arr,
        sweeps=sweeps,
        offdiag_residual=residual,
        parseval_defect=defect,
    )


def dl_integral(sm: SpectralMeasure) -> float:
    """Integral of 1/(1 - t) against the measure; +inf on unit-eigenvalue mass.

    Atoms within 1e-12 of eigenvalue 1 force +inf when their mass exceeds
    1e-14 and are treated as numerical noise otherwise.
    """
    below = sm.lambdas < 1.0 - UNIT_EIGENVALUE_TOL
    if np.any(sm.masses[~below] > MASS_TOL):
        return math.inf
    return _left_sum(sm.masses[below] / (1.0 - sm.lambdas[below]))


def variance_growth(chain: ReversibleChain, f: Observable, n: int) -> float:
    """E S_n^2 / n for the stationary partial sums of f, from autocovariances."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    covs = ChainPowers(chain, f).autocovariances(n - 1)
    k = np.arange(1, n)
    # gamma_0 is never -0.0, so putting 0.0 in front of it changes nothing
    return _left_sum(np.concatenate((covs[:1], 2.0 * (n - k) / n * covs[1:])))


def _variance_kernel(lam: float, n: int) -> float:
    """Per-atom value of E S_n^2 / n: 1 + 2 sum_{k<n} (1 - k/n) lam^k."""
    if abs(1.0 - lam) < UNIT_EIGENVALUE_TOL:
        return float(n)
    geo = (lam - lam ** n) / (1.0 - lam)
    ramp = lam * (1.0 - n * lam ** (n - 1) + (n - 1) * lam ** n) / (1.0 - lam) ** 2
    return 1.0 + 2.0 * (geo - ramp / n)


def _partial_autocov_sum(sm: SpectralMeasure, n: int) -> float:
    """sum_{k<=n} autocovariance(k), evaluated per spectral atom."""
    total = 0.0
    # per atom: numpy's array power can differ from the scalar lam ** n in the last bit
    for lam, mass in zip(sm.lambdas, sm.masses):
        if abs(1.0 - lam) < UNIT_EIGENVALUE_TOL:
            total += mass * n
        else:
            total += mass * lam * (1.0 - lam ** n) / (1.0 - lam)
    return total


@dataclass(frozen=True)
class ConditionReport:
    """Diagnostics for the five equivalent boundedness conditions.

    The contract is that the five booleans agree, but they do not yet come
    from independent routes.  (a), (b) and (c) all share one predicate: no
    spectral mass at eigenvalue 1 (``SpectralMeasure.has_unit_mass``).  The
    partial autocovariance sums, the variance growth over the probe grid and
    the asymptotic variance are reported as figures but decide nothing.  (d)
    asks whether the 1/(1-t) integral is finite, which fails on the same
    unit-mass atoms, and (e) asks for no unit mass and a zero stationary mean.
    So (a), (b) and (c) cannot disagree with one another.  ``measure`` is the
    spectral measure all five were read from.
    """

    probe_grid: tuple
    a_partial_sums: tuple
    a_bounded: bool
    b_sup: float
    b_bounded: bool
    c_sigma2: float
    c_finite: bool
    d_integral: float
    d_finite: bool
    e_member: bool
    unit_mass: float
    measure: SpectralMeasure = field(compare=False)

    def booleans(self):
        return (
            self.a_bounded,
            self.b_bounded,
            self.c_finite,
            self.d_finite,
            self.e_member,
        )

    @property
    def all_equivalent(self) -> bool:
        return len(set(self.booleans())) == 1


def check_conditions(
    chain: ReversibleChain, f: Observable, probe_horizon: int = 64
) -> ConditionReport:
    """Evaluate the five boundedness conditions for a scalar observable."""
    _check_observable(chain, f)
    if f.dim != 1:
        raise ValidationError("condition checks take a scalar observable")
    if probe_horizon < 4:
        raise ValidationError("probe horizon must be >= 4")
    sm = spectral_measure(chain, f)
    has_unit = sm.has_unit_mass()

    grid = []
    n = 1
    while n <= probe_horizon:
        grid.append(n)
        n *= 2
    if grid[-1] != probe_horizon:
        grid.append(probe_horizon)

    partials = tuple(_partial_autocov_sum(sm, n) for n in grid)
    a_bounded = not has_unit

    # _variance_kernel per atom, for its scalar powers (see _partial_autocov_sum)
    growth = [
        _left_sum(np.array([m * _variance_kernel(l, n) for l, m in zip(sm.lambdas, sm.masses)]))
        for n in grid
    ]
    b_sup = max(growth)
    b_bounded = not has_unit

    if has_unit:
        sigma2 = math.inf
    else:
        below = sm.lambdas < 1.0 - UNIT_EIGENVALUE_TOL
        lam = sm.lambdas[below]
        sigma2 = _left_sum(sm.masses[below] * (1.0 + lam) / (1.0 - lam))
    c_finite = not has_unit

    d_value = dl_integral(sm)
    d_finite = math.isfinite(d_value)

    mean_sq = float((f.mean(chain) ** 2).sum())
    e_member = (not has_unit) and mean_sq <= 1e-12

    return ConditionReport(
        probe_grid=tuple(grid),
        a_partial_sums=partials,
        a_bounded=a_bounded,
        b_sup=float(b_sup),
        b_bounded=b_bounded,
        c_sigma2=float(sigma2),
        c_finite=c_finite,
        d_integral=float(d_value),
        d_finite=d_finite,
        e_member=e_member,
        unit_mass=sm.unit_mass(),
        measure=sm,
    )


def weighted_series(powers: ChainPowers, w: WeightSequence, n: int):
    """Cumulative sums g_k = sum_{j<=k} a_j Q^j f and their exact max moment.

    ``powers`` is the table of the chain Q and the observable f.
    Returns ``(partial, E_pi max_{k<=n} |g_k|^2)``, where ``partial`` is a
    read-only ``(n, m, dim)`` array with g_k in row k - 1, summed in index
    order.  The expectation is exact because each g_k is a deterministic
    function of the state.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    partial = w.eval_range(n)[1:, None, None] * powers.images(1, n + 1)
    np.cumsum(partial, axis=0, out=partial)
    partial.flags.writeable = False
    best = squared_norms(partial).max(axis=0)
    return partial, float(powers.chain.stationary @ best)


class MarkovCheck(str, enum.Enum):
    """The chain inequalities, each ``scalar_only`` or not, with its ``factor`` on
    ``base`` = 3(2C + 1), ``weighted`` if it reads weights, and ``derivation`` steps that
    format C, ``base``, ``factor``, ``unit`` (unit-weight-power-max's) and ``value``."""

    def __new__(cls, value: str, scalar_only: bool, factor: float | None, weighted: bool,
                derivation: tuple):
        member = str.__new__(cls, value)
        member._value_, member.scalar_only, member.factor = value, scalar_only, factor
        member.weighted, member.derivation = weighted, derivation
        return member

    WEIGHTED_POWER_MAX = "weighted-power-max", False, 1.0, True, (
        "split the doubled-horizon max into the even half, the leading odd"
        " term, and the shifted odd half: factor 3 on squares",
        "even and shifted odd halves each bounded by the second-moment"
        " series inequality: constant {C:g} apiece",
        "leading odd term is the first weight times the one-step image,"
        " absorbed by the first odd coefficient",
        "shifted odd coefficients dominated by the odd b coefficients for"
        " constant-sign or non-increasing-magnitude weights",
        "assembled: 3 * ({C:g} + 1 + {C:g}) = {value:g}",
    )
    UNIT_WEIGHT_POWER_MAX = "unit-weight-power-max", False, 16.0, False, (
        "unit weights give even/odd coefficients exactly {factor:g}k",
        "doubled-horizon reduction keeps the sum inside the stated range",
        "assembled: {base:g} * {factor:g} = {value:g}",
    )
    INV_SQRT_POWER_MAX = "inv-sqrt-power-max", False, 8.0, False, (
        "inverse square-root weights keep every even/odd coefficient <= {factor:g}",
        "assembled: {base:g} * {factor:g} = {value:g}",
    )
    PAIRED_POWER_MAX = "paired-power-max", True, 32.0, False, (
        "apply the unit-weight bound to f + Qf: constant {unit:g}",
        "self-adjointness converts paired second moments into signed"
        " autocovariance partial sums; the spectral algebra costs a"
        " factor 2 on the families generated here (positive-leaning"
        " spectra); adversarial near-unit cancellations are excluded",
        "assembled: 2 * {unit:g} = {value:g}",
    )
    STEIN = "stein", True, None, False, (  # constant 8 from Rota and Doob, not from C
        "with g = Qf, the powers Q^k f for k = 2..2n+1 are (Q^2)^i g at odd"
        " k = 2i + 1 and (Q^2)^i Qg at even k = 2i + 2",
        "Q^2 = Q*Q is a Markov operator, so by Rota (Bull. AMS 68, 1962) its"
        " powers are conditional expectations of a reverse martingale; Doob"
        " at p = 2 bounds E sup_i |(Q^2)^i h|^2 by 4 |h|^2, for h = g and"
        " for h = Qg",
        "Q is an L^2(pi) contraction: |Qg|^2 <= |g|^2 = <f, Q^2 f>_pi, the"
        " right side",
        "assembled: 4 + 4 = {value:g}",
    )
    SUP_POWER_MAX = "sup-power-max", True, 8.0, False, (
        "inverse square-root weighted max at doubled horizon, coefficients <= {factor:g}",
        "assembled: {base:g} * {factor:g} = {value:g}",
    )


def _require_weight_domain(check: MarkovCheck, w: WeightSequence | None, n: int):
    """Refuse weights a_1 .. a_8n, which horizon n reads, outside ``check``'s derivation.

    The weighted-power-max derivation dominates the shifted odd coefficients
    by the odd b coefficients only for weights of one sign or of
    non-increasing magnitude.  The default unit weights lie inside.
    """
    if not check.weighted or w is None:
        return
    a = w.eval_range(8 * n)[1:]
    if not ((a >= 0).all() or (a <= 0).all() or (np.diff(np.abs(a)) <= 0).all()):
        raise ValidationError(
            f"{check.value} needs weights of one sign or of non-increasing magnitude;"
            f" {w.describe()} is neither through a_{8 * n}"
        )


def markov_traced_constant(check: MarkovCheck) -> TracedConstant:
    """Committed constants for the chain inequalities (all at p = 2).

    Each but Stein's is assembled from the second-moment series constant C
    of the filtration checks, so the derivation text quotes C as computed.
    """
    check = MarkovCheck(check)
    series = traced_constant(InequalityId.SECOND_MOMENT_SERIES, 2.0).value
    base = 3.0 * (series + 1.0 + series)
    value = 8.0 if check.factor is None else base * check.factor
    facts = {"C": series, "base": base, "factor": check.factor, "value": value,
             "unit": base * MarkovCheck.UNIT_WEIGHT_POWER_MAX.factor}
    steps = tuple(step.format(**facts) for step in check.derivation)
    return TracedConstant(check=check.value, p=2.0, value=value, derivation=steps)


def verify_markov_inequality(
    check: MarkovCheck,
    chain: ReversibleChain,
    f: Observable,
    n: int,
    weights: WeightSequence | None = None,
) -> VerificationRecord:
    """Evaluate one chain inequality exactly and compare to its constant.

    ``weights`` only matters for the general weighted check and defaults to
    unit weights there; the other checks fix their own weighting.  The
    descriptor's ``seed`` is None: the chain came from no seed here.
    """
    check = MarkovCheck(check)
    _require_weight_domain(check, weights, n)
    return _markov_record(check, chain, f, n, weights, markov_traced_constant(check).value, None)


def _markov_record(check: MarkovCheck, chain: ReversibleChain, f: Observable, n: int,
                   weights: WeightSequence | None, constant: float, seed: int | None):
    """``verify_markov_inequality``'s record, judged against ``constant`` and carrying ``seed``."""
    powers = ChainPowers(chain, f)
    if n < 1:
        raise ValidationError("n must be >= 1")
    if check.scalar_only and f.dim != 1:
        raise ValidationError(f"{check.value} takes a scalar observable")
    descriptor = {"seed": seed, "atoms": chain.m, "n": n, "dim": f.dim}

    if check is MarkovCheck.WEIGHTED_POWER_MAX:
        w = weights if weights is not None else UNIT_WEIGHTS
        even, odd = even_odd_stats(w, n)
        b_star = np.maximum(even.b, odd.b)
        _, lhs = weighted_series(powers, w, 2 * n)
        rhs = _left_sum(b_star[1:] * powers.second_moments(n)[1:])
    elif check is MarkovCheck.UNIT_WEIGHT_POWER_MAX:
        _, lhs = weighted_series(powers, UNIT_WEIGHTS, n)
        rhs = _left_sum(np.arange(1, n + 1) * powers.second_moments(n)[1:])
    elif check in (MarkovCheck.INV_SQRT_POWER_MAX, MarkovCheck.SUP_POWER_MAX):
        horizon = 2 * n if check is MarkovCheck.SUP_POWER_MAX else n
        _, lhs = weighted_series(powers, INV_SQRT_WEIGHTS, horizon)
        rhs = _left_sum(powers.second_moments(n)[1:])
    elif check is MarkovCheck.PAIRED_POWER_MAX:
        # sizes the table through 2n before row 1 is read for f + Qf
        covs = powers.autocovariances(2 * n)
        paired = Observable(f.values + powers.get(1))
        _, lhs = weighted_series(ChainPowers(chain, paired), UNIT_WEIGHTS, 2 * n)
        rhs = abs(_left_sum(np.arange(1, 2 * n + 1) * covs[1:])) + covs[2]
    else:  # STEIN
        best = squared_norms(powers.images(2, 2 * n + 2)).max(axis=0)
        lhs = float(chain.stationary @ best)
        rhs = autocovariance(chain, f, 2, powers)

    return make_record(check.value, 2.0, descriptor, lhs, rhs, constant)


def verify_markov_batch(check: MarkovCheck, count: int, seed: int, weights: WeightSequence | None,
                        m_max: int, n_max: int):
    """Run one chain inequality over ``count`` chains of at most ``m_max`` states.

    The constant is read once, and weights outside the check's domain through
    a_8n_max are refused before any chain is drawn.  A master generator seeded
    with ``seed`` draws each chain's seed and then its horizon in 1..n_max,
    both kept in its record.
    """
    check = MarkovCheck(check)
    _require_weight_domain(check, weights, n_max)
    constant = markov_traced_constant(check).value
    master = _generator(seed)
    records = []
    for _ in range(count):
        chain_seed = int(master.integers(0, 2**63 - 1))
        chain, f = random_chain_instance(chain_seed, m_max=m_max)
        n = int(master.integers(1, n_max + 1))
        records.append(_markov_record(check, chain, f, n, weights, constant, chain_seed))
    return records


def inspect_growth_weights(chain: ReversibleChain, f: Observable, n: int):
    """Report-only variant with growing square-root weights a_j = j^(1/2).

    No pass/fail contract attaches to this weighting; it exists for
    inspection next to the decaying-weight check.
    """
    powers = ChainPowers(chain, f)
    _, lhs = weighted_series(powers, GROWTH_WEIGHTS, n)
    return lhs, _left_sum(powers.second_moments(n)[1:])


def even_odd_split_residual(
    chain: ReversibleChain, f: Observable, w: WeightSequence, n: int
) -> float:
    """Exactness of the even/odd power-split representation of the series.

    The left side cumulates a_j Q^j f directly to index 2n; the right side
    rebuilds it from the even images (j more applications on top of Q^j f)
    and the odd images (j + 1 applications on top of Q^j f), exercising the
    identity through an independent code path.  The residual is the largest
    per-state Euclidean gap and stays below 1e-10.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    powers = ChainPowers(chain, f)
    left = np.zeros_like(f.values)
    for j in range(1, 2 * n + 1):
        left = left + w.eval(j) * powers.get(j)

    right = np.zeros_like(f.values)
    for j in range(1, n + 1):
        image = powers.get(j).copy()
        for _ in range(j):
            image = chain.transition @ image
        right = right + w.eval(2 * j) * image
    for j in range(0, n):
        image = powers.get(j).copy()
        for _ in range(j + 1):
            image = chain.transition @ image
        right = right + w.eval(2 * j + 1) * image
    return float(np.linalg.norm(left - right, axis=1).max())


def random_chain_instance(seed: int, m_max: int = 50, dim: int = 1, centered: bool = True):
    """Random reversible chain plus observable, deterministic in the seed.

    Draws one of the generator models with moderate spectral gaps (lazy
    rings, birth-death, weighted graphs with self-weights, metropolis) and a
    standard-normal observable, centered under the stationary law by default.
    """
    rng = _generator(seed)
    model = rng.integers(0, 4)
    if model == 0:
        chain = _random_graph(rng, int(rng.integers(2, m_max + 1)), 0.05)
    elif model == 1:
        m = int(rng.integers(2, min(m_max, 20) + 1))
        up = rng.uniform(0.1, 0.35, m - 1)
        down = rng.uniform(0.1, 0.35, m - 1)
        chain = birth_death(up, down)
    elif model == 2:
        m = int(rng.integers(2, m_max + 1))
        chain = lazy_ring(m, float(rng.uniform(0.3, 0.9)))
    else:
        m = int(rng.integers(2, min(m_max, 30) + 1))
        target = rng.uniform(0.2, 1.0, m)
        S = np.full((m, m), 1.0 / m)
        chain = metropolis_chain(target, S)
    f = Observable(rng.standard_normal((chain.m, dim)))
    if centered:
        f = f.centered(chain)
    return chain, f


def load_chain(obj: dict) -> ReversibleChain:
    """Build a chain from the JSON schema {"states", "pi" (optional), "Q"}."""
    _object(obj, "chain", '{"states", "pi", "Q"}')
    if "Q" not in obj:
        raise ValidationError("missing field 'Q'")
    # an optional field that is present must be valid: null is not absent
    pi = _numbers(obj["pi"], "pi") if "pi" in obj else None
    states = obj.get("states")
    if "states" in obj and not isinstance(states, list):
        raise ValidationError("states must be a list of state labels")
    return ReversibleChain(_numbers(obj["Q"], "Q"), pi, states)


def dump_chain(chain: ReversibleChain) -> dict:
    return {
        "states": list(chain.states),
        "pi": chain.stationary.tolist(),
        "Q": chain.transition.tolist(),
    }


def load_observable(obj: dict) -> Observable:
    """Build an observable from the JSON schema {"dim", "values"}."""
    _object(obj, "observable", '{"dim", "values"}')
    if "values" not in obj:
        raise ValidationError("missing field 'values'")
    values = _numbers(obj["values"], "values")
    dim = _dim(obj)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[1] != dim:
        raise ValidationError(
            f"field 'values' has shape {values.shape}, expected (*, {dim})"
        )
    return Observable(values)


def dump_observable(f: Observable) -> dict:
    return {"dim": f.dim, "values": f.values.tolist()}
