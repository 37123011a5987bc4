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

Conditional expectations are computed as one read-only ``(rows, atoms, dim)``
table whose row r is conditioned at its own level; ``cond_expect``,
``reverse_mart_diff`` and the partial-sum identities read one or more rows of
such a table.
"""

from __future__ import annotations

import json

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
                f"atom {bad} has non-positive probability {float(p[bad])!r}"
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

    Validation numbers the blocks of all levels one after the other and keeps
    that offset label matrix, from which ``labels`` subtracts a level's
    offset, with the probability of every block, summed once over its atoms
    in atom order; conditional tables read both.
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
        # level j's blocks are numbered from offsets[j - 1]; offsets[-1] counts them all
        n_blocks = lab.max(axis=1) + 1
        offsets = np.concatenate(([0], np.cumsum(n_blocks)))
        blocks = lab + offsets[:-1, None]
        flat = blocks.ravel()
        # every atom has positive probability, so only an unused label has mass 0.0
        mass = np.bincount(flat, weights=np.tile(space.probs, lab.shape[0]))
        if mass.min() == 0.0:
            label = int(np.argmin(mass))
            j = int(np.searchsorted(offsets, label, side="right"))
            raise ValidationError(
                f"level {j} does not use label {label - offsets[j - 1]}; "
                f"labels must run through 0..{n_blocks[j - 1] - 1}"
            )
        # first atom of each atom's block; a fine block must not straddle two
        # coarse blocks, so its atoms share the coarse label of its first atom
        first = np.full(mass.size, n)
        np.minimum.at(first, flat, np.tile(np.arange(n), lab.shape[0]))
        reps = first[flat].reshape(lab.shape)
        moved = np.take_along_axis(lab[1:], reps[:-1], axis=1) - lab[1:]
        if moved.any():
            j = int(np.argmax(moved.any(axis=1))) + 1
            raise ValidationError(
                f"level {j + 1} is not a coarsening of level {j}: level-{j} block "
                f"{lab[j - 1][moved[j - 1] != 0].min()} straddles two blocks"
            )
        for arr in (reps, n_blocks, offsets, blocks, mass):
            arr.flags.writeable = False
        self._reps, self._n_blocks, self._offsets, self._blocks, self._mass = (
            reps, n_blocks, offsets, blocks, mass)

    @classmethod
    def from_blocks(cls, space: FiniteProbSpace, partitions) -> "DecreasingFiltration":
        """Filtration from block lists: ``partitions[j-1]`` is level ``j``.

        Each level lists its blocks as sequences of atom indices; block ``b``
        gets label ``b``.  Every atom must lie in exactly one block.
        """
        n = space.n_atoms
        if not isinstance(partitions, (list, tuple)):
            raise ValidationError("partitions must be a list of levels")
        if not partitions:
            raise ValidationError("filtration needs at least one partition")
        labels = np.full((len(partitions), n), -1, dtype=np.int64)
        for j, (row, part) in enumerate(zip(labels, partitions), start=1):
            if not isinstance(part, (list, tuple)):
                raise ValidationError(f"level {j} must be a list of blocks")
            for b, block in enumerate(part):
                idx = np.asarray(block)
                if idx.shape == (0,):
                    raise ValidationError(f"level {j} block {b} is empty")
                if idx.ndim != 1 or idx.dtype.kind not in "iu":
                    raise ValidationError(f"level {j} block {b} is not a list of integer atoms")
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
        return self._blocks.shape[0]

    def _row(self, level: int) -> int:
        if not 1 <= level <= self.levels:
            raise ValidationError(f"level {level} out of range 1..{self.levels}")
        return level - 1

    def labels(self, level: int) -> np.ndarray:
        """Block label of each atom at a level (levels are 1-based), read-only."""
        row = self._row(level)
        labels = self._blocks[row] - self._offsets[row]
        labels.flags.writeable = False
        return labels

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
        return _norms(self.values)

    def moment(self, p: float) -> float:
        """E |X|^p by exact enumeration."""
        return self.space.expect(self.norms() ** p)


class AdaptedSequence:
    """Terms X_1..X_n with X_j exactly constant on the level-j blocks.

    ``values`` holds term j in row j-1 of one ``(n, atoms, dim)`` float array;
    a 2-D ``(n, atoms)`` array is read as dim 1.  The sequence keeps a
    read-only copy.
    """

    def __init__(self, filtration: DecreasingFiltration, values):
        v = np.array(values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None]
        atoms = filtration.space.n_atoms
        if v.ndim != 3 or v.shape[1] != atoms or v.shape[2] < 1:
            raise ValidationError(f"values shape {v.shape} is not (n, {atoms}, dim >= 1)")
        n = v.shape[0]
        if not 1 <= n <= filtration.levels:
            raise ValidationError(f"{n} terms; an adapted sequence needs 1..{filtration.levels}")
        finite = np.isfinite(v).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(f"term {int(np.argmin(finite)) + 1} has non-finite values")
        # term j must equal its values at the first atom of each level-j block
        reps = filtration._reps[:n, :, None]
        moved = (v != np.take_along_axis(v, reps, axis=1)).any(axis=(1, 2))
        if moved.any():
            j = int(np.argmax(moved)) + 1
            raise ValidationError(
                f"term {j} is not measurable at level {j}: "
                "values differ inside a block"
            )
        v.flags.writeable = False
        self.filtration = filtration
        self.values = v
        self.dim = v.shape[2]

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def space(self) -> FiniteProbSpace:
        return self.filtration.space

    @property
    def terms(self) -> tuple:
        """Each term as a ``RandomVector`` over its read-only row of ``values``."""
        return tuple(_view(self.space, row) for row in self.values)


def _view(space: FiniteProbSpace, values: np.ndarray) -> RandomVector:
    """A ``RandomVector`` over validated read-only values, without a copy."""
    X = RandomVector.__new__(RandomVector)
    X.space, X.values, X.dim = space, values, values.shape[1]
    return X


def _cond_table(
    filtration: DecreasingFiltration, values: np.ndarray, first_level: int = 1
) -> np.ndarray:
    """Row r of a ``(rows, atoms, dim)`` array conditioned at level ``first_level + r``.

    Returns a read-only array of the same shape.  The rows' levels take their
    block numbers and block probabilities from the filtration, and one
    bincount gives the block sums of every row and coordinate, coordinate c
    in the c-th run of as many bins as those levels have blocks.  Each bin
    adds its atoms in atom order, as the filtration's block probabilities
    do, so every value is bit-identical to the block average of that row
    alone.
    """
    rows, _, dim = values.shape
    last = first_level + rows - 1
    if first_level < 1 or last > filtration.levels:
        bad = first_level if first_level < 1 else max(first_level, filtration.levels + 1)
        raise ValidationError(f"level {bad} out of range 1..{filtration.levels}")
    start, stop = filtration._offsets[[first_level - 1, last]]
    blocks = filtration._blocks[first_level - 1 : last]
    bins = (blocks - start)[:, :, None] + (stop - start) * np.arange(dim)
    p = filtration.space.probs
    sums = np.bincount(bins.ravel(), weights=(p[:, None] * values).ravel())
    table = sums[bins] / filtration._mass[blocks][:, :, None]
    table.flags.writeable = False
    return table


def _left_sum(values: np.ndarray) -> float:
    """Sum of a 1-d array from left to right, one rounding per addition.

    ``np.add.accumulate`` over the values with 0.0 put in front adds them in
    that order, as a ``total += value`` loop from 0.0 does, so an all-zero
    sum is +0.0.  The builtin ``sum`` compensates additions of ``float``
    objects from Python 3.12 on, and ``np.sum`` adds in pairwise blocks, so
    either would give results that differ in the last bit.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


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


def _norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: one row of atom norms per variable.

    ``np.linalg.norm(values, axis=-1)`` of a real array is
    ``sqrt(add.reduce(values * values, axis=-1))``, so this gives its bits
    without the wrapper's checks and copies.
    """
    return np.sqrt(squared_norms(values))


def _moments(probs: np.ndarray, norms: np.ndarray, p: float) -> list:
    """E |V_r|^p for each row of a ``(rows, atoms)`` norm stack.

    One ``probs @`` dot product per row, as :meth:`RandomVector.moment` takes
    it; a single matrix-vector product could add in another order.
    """
    return [float(probs @ row) for row in norms ** p]


def _max_moment(probs: np.ndarray, norms: np.ndarray, p: float) -> float:
    """E max_r |V_r|^p over the rows of a ``(rows, atoms)`` norm stack."""
    return float(probs @ (norms.max(axis=0) ** p))


def _check_space(X: RandomVector, filtration: DecreasingFiltration):
    if X.space is not filtration.space:
        raise ValidationError("random vector and filtration live on different spaces")


def cond_expect(
    X: RandomVector, filtration: DecreasingFiltration, level: int
) -> RandomVector:
    """Conditional expectation of X given the partition at ``level``.

    On each block B the output equals sum_{w in B} P(w) X(w) / P(B); the
    result is exactly constant on blocks, hence measurable at that level.
    """
    _check_space(X, filtration)
    return RandomVector(X.space, _cond_table(filtration, X.values[None], level)[0])


def reverse_mart_diff(
    X: RandomVector, filtration: DecreasingFiltration, level: int
) -> RandomVector:
    """Difference of conditional expectations between a level and the next.

    The result has conditional expectation zero given the coarser level, so
    its block sums over the level+1 partition vanish.
    """
    _check_space(X, filtration)
    table = _cond_table(filtration, np.broadcast_to(X.values, (2, *X.values.shape)), level)
    return RandomVector(X.space, table[0] - table[1])


def _partial_sum_tables(seq: AdaptedSequence, n: int):
    """S_1..S_n as one ``(n, atoms, dim)`` array, and E_k S_k in row k-1 of a table."""
    if not 1 <= n <= len(seq):
        raise ValidationError(f"n={n} exceeds sequence length {len(seq)}")
    partial = np.cumsum(seq.values[:n], axis=0)
    return partial, _cond_table(seq.filtration, partial)


def adapted_partial_sums(seq: AdaptedSequence, n: int):
    """Partial sums S_k = X_1 + .. + X_k and their level-k conditional versions.

    Returns two lists of length n: ``[S_1..S_n]`` and ``[E_1 S_1 .. E_n S_n]``
    where ``E_k`` conditions at level k.
    """
    partial, conditioned = _partial_sum_tables(seq, n)
    return (
        [RandomVector(seq.space, s) for s in partial],
        [RandomVector(seq.space, c) for c in conditioned],
    )


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
    return _max_moment(space.probs, np.stack([v.norms() for v in variables]), p)


def decomposition_residual(seq: AdaptedSequence, n: int) -> float:
    """Largest atom-wise error in the endpoint decomposition of S_n.

    S_n equals its level-n conditional version plus the reverse-martingale
    increments of the intermediate partial sums; the residual is the max
    Euclidean norm of the difference and stays below 1e-12 for every valid
    adapted sequence.
    """
    partial, conditioned = _partial_sum_tables(seq, n)
    coarser = _cond_table(seq.filtration, partial[:-1], first_level=2)
    recomposed = conditioned[n - 1] + (conditioned[:-1] - coarser).sum(axis=0)
    gap = partial[n - 1] - recomposed
    return float(_norms(gap).max())


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
    partial, conditioned = _partial_sum_tables(seq, n)
    coarser = _cond_table(seq.filtration, partial, first_level=2)
    probs = seq.space.probs
    total = (conditioned - coarser).sum(axis=0)
    lhs = seq.space.expect((total ** 2).sum(axis=1))
    fine_moments = _moments(probs, _norms(conditioned), 2.0)
    coarse_moments = _moments(probs, _norms(coarser), 2.0)
    rhs = _left_sum(np.subtract(fine_moments, coarse_moments))
    return float(lhs), float(rhs)


def _load_json(path: str, what: str):
    """The JSON value in a file; an unreadable or malformed file names ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}")


def _numbers(raw, field: str) -> np.ndarray:
    """A (nested) JSON list of numbers as a float array; anything else names ``field``."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{field} must be a rectangular list of numbers")
    return arr.astype(float)


def _object(obj, what: str, fields: str):
    """Refuse a top-level JSON value that is not an object, naming the schema."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} JSON must be an object {fields}")


def _dim(obj: dict) -> int:
    """The optional JSON ``dim`` field: an integer >= 1, and 1 when absent."""
    dim = obj.get("dim", 1)
    if type(dim) is not int or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    return dim


def load_problem(obj: dict):
    """Build (space, filtration, sequence-or-None) from the JSON problem schema.

    Expected keys: ``probs`` (list), ``partitions`` (list of partitions, each
    a list of blocks of 0-based atom indices), optional ``dim`` and ``terms``
    (per term, one vector per atom).  Error messages name the offending field.
    """
    _object(obj, "problem", '{"probs", "partitions", "dim", "terms"}')
    if "probs" not in obj:
        raise ValidationError("missing field 'probs'")
    if "partitions" not in obj:
        raise ValidationError("missing field 'partitions'")
    space = FiniteProbSpace(_numbers(obj["probs"], "probs"))
    filtration = DecreasingFiltration.from_blocks(space, obj["partitions"])
    if obj.get("terms") is None:
        return space, filtration, None
    dim = _dim(obj)
    if not isinstance(obj["terms"], list):
        raise ValidationError("terms must be a list with one entry per term")
    values = np.empty((len(obj["terms"]), space.n_atoms, dim))
    for j, raw in enumerate(obj["terms"]):
        term = _numbers(raw, f"terms[{j}]")
        if term.ndim == 1:
            term = term[:, None]
        if term.shape != values.shape[1:]:
            raise ValidationError(
                f"terms[{j}] has shape {term.shape}, "
                f"expected ({space.n_atoms}, {dim})"
            )
        values[j] = term
    return space, filtration, AdaptedSequence(filtration, values)
