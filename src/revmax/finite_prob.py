"""Exact probability on finite sample spaces with decreasing filtrations.

A filtration level is a partition of the atom set; later levels are coarser
(each block is a union of earlier blocks).  Conditional expectation at a
level is the probability-weighted block average, so every functional in this
module is computed by exact enumeration over atoms, never by sampling.

A filtration is one integer label matrix with a row per level and a column
per atom; ``DecreasingFiltration.from_blocks`` converts the block-list form
used by the problem JSON.  Levels are indexed from 1 (the finest partition)
through ``levels`` (the coarsest), matching the convention used throughout
the package.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

__all__ = [
    "ValidationError",
    "FiniteProbSpace",
    "DecreasingFiltration",
    "RandomVector",
    "AdaptedSequence",
    "cond_expect",
    "reverse_mart_diff",
    "adapted_partial_sums",
    "exact_max_moment",
    "decomposition_residual",
    "orthogonality_gap",
    "load_problem",
]

PROB_SUM_TOL = 1e-9


class ValidationError(ValueError):
    """An input violates a structural invariant of the model."""


class FiniteProbSpace:
    """Finite sample space with strictly positive atom probabilities.

    Probabilities must sum to 1 within ``1e-9`` and are then divided by their
    exact float sum.  Atoms with zero or negative probability are rejected
    rather than dropped: conditioning on a null block is ill-defined and the
    caller has to decide what to do about it.
    """

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("probs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probs must be finite")
        if np.any(p <= 0.0):
            bad = int(np.argmin(p))
            raise ValidationError(
                f"atom {bad} has non-positive probability {p[bad]!r}"
            )
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"probs sum to {total!r}; more than {PROB_SUM_TOL} away from 1"
            )
        p = p / total
        p.flags.writeable = False
        self.probs = p
        self.n_atoms = int(p.size)

    def expect(self, per_atom) -> float:
        """Exact expectation of a per-atom scalar array."""
        v = np.asarray(per_atom, dtype=float)
        if v.shape != (self.n_atoms,):
            raise ValidationError("per-atom array has wrong length")
        return float(self.probs @ v)

    def __repr__(self):  # pragma: no cover
        return f"FiniteProbSpace(n_atoms={self.n_atoms})"


class DecreasingFiltration:
    """Finest-first sequence of partitions, each coarsening the previous one.

    ``labels`` is a ``(levels, atoms)`` integer matrix whose row ``j-1`` gives
    each atom its block at level ``j``.  Level ``j`` uses every label in
    ``0..k_j-1``, and each of its blocks lies inside one level-``j+1`` block;
    equal consecutive levels are allowed.  Validation is eager: all downstream
    operations assume the coarsening invariant.
    """

    def __init__(self, space: FiniteProbSpace, labels):
        self.space = space
        n = space.n_atoms
        raw = np.asarray(labels)
        if raw.ndim != 2 or raw.shape[0] == 0 or raw.shape[1] != n:
            raise ValidationError(f"labels shape {raw.shape} is not (levels >= 1, {n})")
        if raw.dtype.kind not in "iu":
            raise ValidationError(f"labels must be integers, got {raw.dtype}")
        lab = raw.astype(np.int64)
        if lab.min() < 0 or lab.max() >= n:
            j, atom = np.argwhere((lab < 0) | (lab >= n))[0]
            raise ValidationError(
                f"level {j + 1} atom {atom} has label {lab[j, atom]} outside 0..{n - 1}"
            )
        # one bincount over all levels, each shifted past the labels before it
        n_blocks = lab.max(axis=1) + 1
        offsets = np.concatenate(([0], np.cumsum(n_blocks)[:-1]))
        flat = (lab + offsets[:, None]).ravel()
        counts = np.bincount(flat)
        if counts.min() == 0:
            label = int(np.argmin(counts))
            j = int(np.searchsorted(offsets, label, side="right"))
            raise ValidationError(
                f"level {j} does not use label {label - offsets[j - 1]}; "
                f"labels must run through 0..{n_blocks[j - 1] - 1}"
            )
        # first atom of each atom's block; a fine block must not straddle two
        # coarse blocks, so its atoms share the coarse label of its first atom
        first = np.full(counts.size, n)
        np.minimum.at(first, flat, np.tile(np.arange(n), lab.shape[0]))
        reps = first[flat].reshape(lab.shape)
        moved = np.take_along_axis(lab[1:], reps[:-1], axis=1) - lab[1:]
        if moved.any():
            j = int(np.argmax(moved.any(axis=1))) + 1
            raise ValidationError(
                f"level {j + 1} is not a coarsening of level {j}: level-{j} block "
                f"{lab[j - 1][moved[j - 1] != 0].min()} straddles two blocks"
            )
        for arr in (lab, reps, n_blocks):
            arr.flags.writeable = False
        self._labels, self._reps, self._n_blocks = lab, reps, n_blocks

    @classmethod
    def from_blocks(cls, space: FiniteProbSpace, partitions) -> "DecreasingFiltration":
        """Filtration from block lists: ``partitions[j-1]`` is level ``j``.

        Each level lists its blocks as sequences of atom indices; block ``b``
        gets label ``b``.  Every atom must lie in exactly one block.
        """
        n = space.n_atoms
        if not partitions:
            raise ValidationError("filtration needs at least one partition")
        labels = np.full((len(partitions), n), -1, dtype=np.int64)
        for j, (row, part) in enumerate(zip(labels, partitions), start=1):
            for b, block in enumerate(part):
                if len(block) == 0:
                    raise ValidationError(f"level {j} block {b} is empty")
                idx = np.asarray(block, dtype=np.int64)
                if idx.min() < 0 or idx.max() >= n:
                    raise ValidationError(
                        f"level {j} block {b} has atom index out of range"
                    )
                if np.any(row[idx] != -1):
                    raise ValidationError(
                        f"level {j} block {b} overlaps a previous block"
                    )
                row[idx] = b
            if np.any(row == -1):
                missing = int(np.argmax(row == -1))
                raise ValidationError(f"level {j} does not cover atom {missing}")
        return cls(space, labels)

    @property
    def levels(self) -> int:
        return self._labels.shape[0]

    def _row(self, level: int) -> int:
        if not 1 <= level <= self.levels:
            raise ValidationError(f"level {level} out of range 1..{self.levels}")
        return level - 1

    def labels(self, level: int) -> np.ndarray:
        """Block label of each atom at a level (levels are 1-based)."""
        return self._labels[self._row(level)]

    def n_blocks(self, level: int) -> int:
        return int(self._n_blocks[self._row(level)])

    def representatives(self, level: int) -> np.ndarray:
        """First atom of each atom's block at a level."""
        return self._reps[self._row(level)]


class RandomVector:
    """Euclidean-valued random variable: one vector in R^dim per atom."""

    def __init__(self, space: FiniteProbSpace, values):
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != space.n_atoms:
            raise ValidationError(
                f"values shape {v.shape} does not match {space.n_atoms} atoms"
            )
        if v.shape[1] < 1:
            raise ValidationError("dim must be positive")
        if not np.all(np.isfinite(v)):
            raise ValidationError("values must be finite")
        v = v.copy()
        v.flags.writeable = False
        self.space = space
        self.values = v
        self.dim = int(v.shape[1])

    def norms(self) -> np.ndarray:
        """Per-atom Euclidean norm."""
        return np.linalg.norm(self.values, axis=1)

    def moment(self, p: float) -> float:
        """E |X|^p by exact enumeration."""
        return self.space.expect(self.norms() ** p)

    def __add__(self, other: "RandomVector") -> "RandomVector":
        _check_compatible(self, other)
        return RandomVector(self.space, self.values + other.values)

    def __sub__(self, other: "RandomVector") -> "RandomVector":
        _check_compatible(self, other)
        return RandomVector(self.space, self.values - other.values)

    def scaled(self, c: float) -> "RandomVector":
        return RandomVector(self.space, c * self.values)


def _check_compatible(x: RandomVector, y: RandomVector):
    if x.space is not y.space:
        raise ValidationError("random vectors live on different spaces")
    if x.dim != y.dim:
        raise ValidationError(f"dimension mismatch: {x.dim} vs {y.dim}")


class AdaptedSequence:
    """Terms X_1..X_n with X_j exactly constant on the level-j blocks."""

    def __init__(self, filtration: DecreasingFiltration, terms):
        if not terms:
            raise ValidationError("adapted sequence needs at least one term")
        if len(terms) > filtration.levels:
            raise ValidationError(
                f"{len(terms)} terms but only {filtration.levels} levels"
            )
        dim = terms[0].dim
        for j, term in enumerate(terms, start=1):
            if term.space is not filtration.space:
                raise ValidationError(f"term {j} lives on a different space")
            if term.dim != dim:
                raise ValidationError(f"term {j} has dim {term.dim}, expected {dim}")
            reps = filtration.representatives(j)
            if not np.array_equal(term.values, term.values[reps]):
                raise ValidationError(
                    f"term {j} is not measurable at level {j}: "
                    "values differ inside a block"
                )
        self.filtration = filtration
        self.terms = tuple(terms)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def space(self) -> FiniteProbSpace:
        return self.filtration.space


def cond_expect(
    X: RandomVector, filtration: DecreasingFiltration, level: int
) -> RandomVector:
    """Conditional expectation of X given the partition at ``level``.

    On each block B the output equals sum_{w in B} P(w) X(w) / P(B); the
    result is exactly constant on blocks, hence measurable at that level.
    """
    if X.space is not filtration.space:
        raise ValidationError("random vector and filtration live on different spaces")
    labels = filtration.labels(level)
    k = filtration.n_blocks(level)
    p = X.space.probs
    block_prob = np.bincount(labels, weights=p)
    # one bincount for all coordinates: coordinate c uses the labels shifted by c*k
    shifted = labels[:, None] + k * np.arange(X.dim)
    sums = np.bincount(shifted.ravel(), weights=(p[:, None] * X.values).ravel())
    return RandomVector(X.space, (sums.reshape(X.dim, k) / block_prob).T[labels])


def reverse_mart_diff(
    X: RandomVector, filtration: DecreasingFiltration, level: int
) -> RandomVector:
    """Difference of conditional expectations between a level and the next.

    The result has conditional expectation zero given the coarser level, so
    its block sums over the level+1 partition vanish.
    """
    return cond_expect(X, filtration, level) - cond_expect(X, filtration, level + 1)


def adapted_partial_sums(seq: AdaptedSequence, n: int):
    """Partial sums S_k = X_1 + .. + X_k and their level-k conditional versions.

    Returns two lists of length n: ``[S_1..S_n]`` and ``[E_1 S_1 .. E_n S_n]``
    where ``E_k`` conditions at level k.
    """
    if not 1 <= n <= len(seq):
        raise ValidationError(f"n={n} exceeds sequence length {len(seq)}")
    partial = list(accumulate(seq.terms[:n]))
    conditioned = [cond_expect(s, seq.filtration, k) for k, s in enumerate(partial, 1)]
    return partial, conditioned


def exact_max_moment(variables, p: float) -> float:
    """E max_k |V_k|^p over a finite list of random vectors, exactly.

    The maximum runs over the supplied variables only; there is no implicit
    zero term.
    """
    if p < 1:
        raise ValidationError(f"p={p} must be at least 1")
    if not variables:
        raise ValidationError("need at least one variable")
    space = variables[0].space
    dim = variables[0].dim
    for v in variables:
        if v.space is not space or v.dim != dim:
            raise ValidationError("variables must share a space and dimension")
    norms = np.stack([v.norms() for v in variables])
    return space.expect(norms.max(axis=0) ** p)


def decomposition_residual(seq: AdaptedSequence, n: int) -> float:
    """Largest atom-wise error in the endpoint decomposition of S_n.

    S_n equals its level-n conditional version plus the reverse-martingale
    increments of the intermediate partial sums; the residual is the max
    Euclidean norm of the difference and stays below 1e-12 for every valid
    adapted sequence.
    """
    partial, conditioned = adapted_partial_sums(seq, n)
    recomposed = conditioned[n - 1].values.copy()
    for i in range(1, n):
        step = conditioned[i - 1] - cond_expect(partial[i - 1], seq.filtration, i + 1)
        recomposed += step.values
    gap = partial[n - 1].values - recomposed
    return float(np.linalg.norm(gap, axis=1).max())


def orthogonality_gap(seq: AdaptedSequence, n: int):
    """Second-moment identity for the summed reverse-martingale increments.

    Returns ``(lhs, rhs)`` where lhs is E |sum_i D_i|^2 with
    D_i = E_i S_i - E_{i+1} S_i, and rhs is the telescoping moment sum
    sum_i (E|E_i S_i|^2 - E|E_{i+1} S_i|^2).  Orthogonality of the D_i in
    Euclidean space makes the two sides agree to rounding error.
    """
    if n < 2:
        raise ValidationError("orthogonality gap needs n >= 2")
    if seq.filtration.levels < n + 1:
        raise ValidationError(
            f"filtration must extend to level {n + 1}; has {seq.filtration.levels}"
        )
    partial, conditioned = adapted_partial_sums(seq, n)
    total = np.zeros_like(partial[0].values)
    rhs = 0.0
    for i in range(1, n + 1):
        coarser = cond_expect(partial[i - 1], seq.filtration, i + 1)
        total += conditioned[i - 1].values - coarser.values
        rhs += conditioned[i - 1].moment(2.0) - coarser.moment(2.0)
    lhs = seq.space.expect((total ** 2).sum(axis=1))
    return float(lhs), float(rhs)


def load_problem(obj: dict):
    """Build (space, filtration, sequence-or-None) from the JSON problem schema.

    Expected keys: ``probs`` (list), ``partitions`` (list of partitions, each
    a list of blocks of 0-based atom indices), optional ``dim`` and ``terms``
    (per term, one vector per atom).  Error messages name the offending field.
    """
    if "probs" not in obj:
        raise ValidationError("missing field 'probs'")
    if "partitions" not in obj:
        raise ValidationError("missing field 'partitions'")
    space = FiniteProbSpace(obj["probs"])
    filtration = DecreasingFiltration.from_blocks(space, obj["partitions"])
    if "terms" not in obj or obj["terms"] is None:
        return space, filtration, None
    dim = int(obj.get("dim", 1))
    terms = []
    for j, raw in enumerate(obj["terms"], start=1):
        values = np.asarray(raw, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape != (space.n_atoms, dim):
            raise ValidationError(
                f"terms[{j - 1}] has shape {values.shape}, "
                f"expected ({space.n_atoms}, {dim})"
            )
        terms.append(RandomVector(space, values))
    return space, filtration, AdaptedSequence(filtration, terms)
