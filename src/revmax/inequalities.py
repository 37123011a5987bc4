"""Verification harness for the maximal inequalities on finite instances.

Each inequality is checked by computing both sides exactly (enumeration over
atoms) and comparing against a constant traced through its derivation.  The
constants are committed here, in code, before any instance is generated; a
fitted constant cannot fail, a traced one can, and a failure is the
interesting outcome.

Derivation ingredients (all classical):

* triangle factor ``2^(p-1)``: |a + b|^p <= 2^(p-1) (|a|^p + |b|^p);
* Doob factor ``(p/(p-1))^p``: the L_p maximal inequality for (reverse)
  martingales, applied to tail sums of the projection increments;
* smoothness factor ``D(p)``: E|sum M_i|^p <= D(p) sum E|M_i|^p for
  martingale differences in Euclidean space, with D(2) = 1 by orthogonality
  and D(p) = 2 for 1 <= p < 2 via the two-point inequality
  |x+y|^p + |x-y|^p <= 2|x|^p + 2|y|^p plus conditional Jensen.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .finite_prob import (
    AdaptedSequence,
    DecreasingFiltration,
    FiniteProbSpace,
    ValidationError,
    _cond_table,
    _left_sum,
    _max_moment,
    _moments,
    _norms,
    _partial_sum_tables,
)
from .weights import WeightSequence, coefficient_chunks, compute_stats

__all__ = [
    "InequalityId",
    "TracedConstant",
    "VerificationRecord",
    "Instance",
    "doob_factor",
    "triangle_factor",
    "smoothness_factor",
    "traced_constant",
    "random_instance",
    "verify",
    "verify_batch",
    "make_record",
    "series_criterion",
    "SeriesVerdict",
]

PASS_SLACK = 1e-12
DEGENERATE_LHS_TOL = 1e-12


class InequalityId(str, enum.Enum):
    """The filtration inequalities, each with its ``p_range`` and whether it is ``weighted``."""

    def __new__(cls, value: str, p_range: str, weighted: bool):
        member = str.__new__(cls, value)
        member._value_, member.p_range, member.weighted = value, p_range, weighted
        return member

    MAX_VS_ENDPOINT = "max-vs-endpoint", "1 < p < inf", False
    MAX_VS_PROJECTIONS = "max-vs-projections", "1 < p <= 2", False
    WEIGHTED_MAX_VS_ENDPOINT = "weighted-max-vs-endpoint", "1 < p < inf", True
    WEIGHTED_MAX_VS_PROJECTIONS = "weighted-max-vs-projections", "1 < p <= 2", True
    DYADIC_WEIGHTED_MAX = "dyadic-weighted-max", "1 < p < inf", True
    SECOND_MOMENT_SERIES = "second-moment-series", "p = 2", True
    SMOOTHNESS = "smoothness", "1 < p <= 2", False


@dataclass(frozen=True)
class TracedConstant:
    """A committed constant together with its derivation trace."""

    check: str
    p: float
    value: float
    derivation: tuple


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one inequality check on one instance."""

    check: str
    p: float
    descriptor: dict
    lhs: float
    rhs: float
    ratio: float
    constant: float
    passed: bool
    skipped: bool = False


def doob_factor(p: float) -> float:
    """L_p maximal-inequality constant (p/(p-1))^p; needs 1 < p < inf."""
    if not 1 < p < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"Doob factor needs 1 < p < inf, got {p}")
    return (p / (p - 1.0)) ** p


def triangle_factor(p: float) -> float:
    """Two-term convexity constant 2^(p-1); needs 1 <= p < inf."""
    if not 1 <= p < math.inf:
        raise ValidationError(f"triangle factor needs 1 <= p < inf, got {p}")
    return 2.0 ** (p - 1.0)


def smoothness_factor(p: float) -> float:
    """Martingale-difference moment constant for Euclidean values, 1 <= p <= 2."""
    if not 1 <= p <= 2:
        raise ValidationError(f"smoothness factor needs 1 <= p <= 2, got {p}")
    return 1.0 if p == 2 else 2.0


def traced_constant(check: InequalityId, p: float) -> TracedConstant:
    """The committed constant for an inequality at exponent p.

    Raises when p lies outside the inequality's ``p_range``; NaN and
    infinite exponents lie outside every range.
    """
    check = InequalityId(check)
    within = {"1 < p < inf": 1 < p < math.inf, "1 < p <= 2": 1 < p <= 2, "p = 2": p == 2}
    if not within[check.p_range]:
        raise ValidationError(f"{check.value} needs {check.p_range}, got {p}")
    if check in (InequalityId.MAX_VS_ENDPOINT, InequalityId.WEIGHTED_MAX_VS_ENDPOINT):
        q = doob_factor(p)
        try:
            value = triangle_factor(p) + 8.0 ** (p - 1.0) * (1.0 + q)
        except OverflowError:
            raise ValidationError(
                f"{check.value} constant overflows double precision at p={p}"
            ) from None
        steps = (
            f"split max|S| <= max|cond| + max|tail sums|: factor {triangle_factor(p):g}",
            f"tail sums via full-sum split then Doob: factor 2^(p-1)*(1+{q:g})",
            "endpoint decomposition |full sum| <= |S_n| + |cond endpoint|: factor 2^(p-1)",
            f"assembled coefficient max: 2^(p-1) + 8^(p-1)*(1+{q:g}) = {value:g}",
        )
    elif check in (InequalityId.MAX_VS_PROJECTIONS, InequalityId.WEIGHTED_MAX_VS_PROJECTIONS):
        q = doob_factor(p)
        d = smoothness_factor(p)
        value = 4.0 ** (p - 1.0) * (1.0 + q) * d
        steps = (
            f"split max|S| <= max|cond| + max|tail sums|: factor {triangle_factor(p):g}",
            f"tail sums via full-sum split then Doob: factor 2^(p-1)*(1+{q:g})",
            f"full sum by martingale-difference smoothness: factor D={d:g}",
            f"assembled coefficient max: 4^(p-1)*(1+{q:g})*{d:g} = {value:g}",
        )
    elif check is InequalityId.DYADIC_WEIGHTED_MAX:
        q = doob_factor(p)
        value = 2.0 * q
        steps = (
            f"Doob over each dyadic window of the conditional sequence: factor {q:g}",
            "window terms dominated by the k^-1 (s*_4k)^p sum: factor 2",
            f"assembled: 2*{q:g} = {value:g}",
        )
    elif check is InequalityId.SECOND_MOMENT_SERIES:
        q = doob_factor(2.0)
        split = triangle_factor(2.0)
        max_route = split * traced_constant(InequalityId.DYADIC_WEIGHTED_MAX, 2.0).value
        proj_route = traced_constant(InequalityId.MAX_VS_PROJECTIONS, 2.0).value
        value = max_route + proj_route
        steps = (
            f"projection-form bound at p=2: coefficients ({split:g}, {proj_route:g})",
            f"conditional-max term via the dyadic estimate: {split:g}*2*{q:g} = {max_route:g}",
            "orthogonality turns weighted projections into telescoping moment"
            " differences, each below its b coefficient: factor 1",
            f"assembled: {max_route:g} + {proj_route:g} = {value:g}",
        )
    else:  # SMOOTHNESS
        value = smoothness_factor(p)
        steps = (
            "p = 2: orthogonality of martingale differences, constant 1"
            if p == 2
            else "1 < p < 2: two-point inequality + conditional Jensen, constant 2",
        )
    return TracedConstant(check=check.value, p=p, value=value, derivation=steps)


@dataclass(frozen=True)
class Instance:
    """An adapted sequence and the seed that generated it."""

    sequence: AdaptedSequence
    seed: int
    filtration = property(lambda self: self.sequence.filtration)
    space = property(lambda self: self.sequence.space)

    def descriptor(self) -> dict:
        seq = self.sequence
        return {"seed": self.seed, "atoms": seq.space.n_atoms, "n": len(seq), "dim": seq.dim}


def _generator(seed: int | None) -> np.random.Generator:
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def random_instance(
    seed: int, atoms: int, levels: int, n: int, dim: int
) -> Instance:
    """Deterministic random instance: coarsening chain plus adapted sequence.

    Level 1 is the partition into singletons; every later level merges one
    randomly chosen pair of blocks, so level j has ``atoms - j + 1`` blocks
    and the shape is infeasible when ``levels > atoms``.  Term j takes one
    standard-normal draw per level-j block, which makes it measurable there
    by construction.  One PCG64 stream is read in a fixed order: the atom
    probabilities, then every level's merge pair as
    ``sorted(rng.choice(k, 2, replace=False))`` would draw it, then all term
    values in one call.
    """
    if atoms < 2:
        raise ValidationError("need at least 2 atoms")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if levels < n + 1:
        raise ValidationError(f"levels={levels} must be at least n + 1 = {n + 1}")
    if levels > atoms:
        raise ValidationError(
            f"infeasible shape: {levels} levels exceed the {atoms - 1} possible"
            f" pair merges from {atoms} singletons"
        )
    rng = _generator(seed)
    probs = rng.uniform(0.2, 1.0, atoms)
    space = FiniteProbSpace(probs / probs.sum())

    # merging blocks i < j keeps label i and shifts the labels above j down
    labels = np.empty((levels, atoms), dtype=np.int64)
    labels[0] = np.arange(atoms)
    for level, (i, j) in enumerate(_merge_pairs(rng, atoms, levels), start=1):
        relabel = np.arange(atoms - level + 1)
        relabel[j + 1:] -= 1
        relabel[j] = i
        np.take(relabel, labels[level - 1], out=labels[level])
    filtration = DecreasingFiltration(space, labels)

    # term j gathers its own run of k_j draws, k_j = atoms - j + 1 blocks;
    # consecutive standard_normal calls concatenate, so one call serves all
    blocks = atoms - np.arange(n)
    offsets = np.cumsum(blocks) - blocks
    draws = rng.standard_normal((int(blocks.sum()), dim))
    values = draws[labels[:n] + offsets[:, None]]
    return Instance(sequence=AdaptedSequence(filtration, values), seed=int(seed))


def _merge_pairs(rng: np.random.Generator, atoms: int, levels: int) -> list:
    """``sorted(rng.choice(k, 2, replace=False))`` for k = atoms down to
    atoms - levels + 2, from one ``rng.integers`` call.

    For two picks from k < 2^32, ``Generator.choice`` runs Floyd's sampling
    (Bentley & Floyd, CACM 30(9), 1987): a first pick on 0..k-2, a second on
    0..k-1 that becomes k - 1 if it repeats the first, and one 32-bit draw
    for the two-element shuffle, whose order sorting discards.  ``integers``
    over the bounds (k - 1, k, 2) makes the same draws, spare 32-bit half
    included, through the same bounded-integer routine: bound 1 (k = 2)
    reads nothing, and a draw on 0..1 never rejects, so it reads the one
    word the shuffle reads.
    """
    ks = np.arange(atoms, atoms - levels + 1, -1)
    bounds = np.full((levels - 1, 3), 2)
    bounds[:, 0] = ks - 1
    bounds[:, 1] = ks
    pairs = []
    for k, (first, second, _) in zip(ks.tolist(), rng.integers(0, bounds).tolist()):
        if second == first:
            second = k - 1
        pairs.append((first, second) if first < second else (second, first))
    return pairs


def verify(
    check: InequalityId,
    instance: Instance,
    n: int | None = None,
    p: float = 2.0,
    weights: WeightSequence | None = None,
) -> VerificationRecord:
    """Evaluate both sides of an inequality on an instance exactly.

    The weighted checks build their sequence as a_j E_j X from the first term
    of the instance; the unweighted ones use the instance's own adapted
    sequence.  The pass flag compares lhs against the traced constant times
    rhs, with lhs <= 1e-12 required when rhs degenerates to zero.
    """
    check = InequalityId(check)
    n = len(instance.sequence) if n is None else n
    if not 1 <= n <= len(instance.sequence):
        raise ValidationError(f"n={n} out of range for instance with n={len(instance.sequence)}")
    return _record(check, instance, n, p, weights, traced_constant(check, p).value)


def _record(check: InequalityId, instance: Instance, n: int, p: float,
            weights: WeightSequence | None, constant: float) -> VerificationRecord:
    """``verify``'s record on the first n terms, judged against ``constant``.

    A weighted check is its unweighted twin on the sequence a_j E_j X, whose
    partial sums S_k condition by the tower property to E_k S_k = s_k E_k X.
    """
    filtration = instance.filtration
    probs = instance.space.probs
    X = instance.sequence.values[0]

    if check.weighted:
        if weights is None:
            raise ValidationError(f"{check.value} needs a weight sequence")
        stats = compute_stats(weights, n)
        # row j-1 holds E_j X
        conditioned = _cond_table(filtration, np.broadcast_to(X, (n, *X.shape)))
        a = weights.eval_range(n)[1:, None, None]
        partial_norms = _norms(np.cumsum(a * conditioned, axis=0))
        cond_norms = _norms(stats.s[1 : n + 1, None, None] * conditioned)
    elif check is not InequalityId.SMOOTHNESS:
        partial, cond_sums = _partial_sum_tables(instance.sequence, n)
        partial_norms, cond_norms = _norms(partial), _norms(cond_sums)

    if check in (InequalityId.MAX_VS_ENDPOINT, InequalityId.WEIGHTED_MAX_VS_ENDPOINT):
        lhs = _max_moment(probs, partial_norms, p)
        rhs = _max_moment(probs, cond_norms, p) + _moments(probs, partial_norms[-1:], p)[0]
    elif check in (InequalityId.MAX_VS_PROJECTIONS, InequalityId.WEIGHTED_MAX_VS_PROJECTIONS):
        # the projections E_k S_k - E_{k+1} S_k for k < n
        if check.weighted:
            diffs = stats.s[1:n, None, None] * (conditioned[:-1] - conditioned[1:])
        else:
            diffs = cond_sums[:-1] - _cond_table(filtration, partial[:-1], first_level=2)
        lhs = _max_moment(probs, partial_norms, p)
        rhs = _left_sum(np.array([_max_moment(probs, cond_norms, p),
                                  *_moments(probs, _norms(diffs), p)]))
    elif check is InequalityId.DYADIC_WEIGHTED_MAX:
        lhs = _max_moment(probs, cond_norms, p)
        rhs = 0.0
        # per term: numpy's array power can differ from the scalar one in the last bit
        for k, moment in enumerate(_moments(probs, _norms(conditioned), p), 1):
            rhs += stats.s_star[4 * k] ** p / k * moment
    elif check is InequalityId.SECOND_MOMENT_SERIES:
        lhs = _max_moment(probs, partial_norms, 2.0)
        rhs = _left_sum(stats.b[1 : n + 1] * _moments(probs, _norms(conditioned), 2.0))
    else:  # SMOOTHNESS
        if filtration.levels < n + 1:
            raise ValidationError("smoothness check needs levels >= n + 1")
        conditioned = _cond_table(filtration, np.broadcast_to(X, (n + 1, *X.shape)))
        diffs = conditioned[:-1] - conditioned[1:]
        lhs = _moments(probs, _norms(np.cumsum(diffs, axis=0)[-1:]), p)[0]
        rhs = _left_sum(np.array(_moments(probs, _norms(diffs), p)))

    return make_record(check.value, p, instance.descriptor() | {"n": n}, lhs, rhs, constant)


def make_record(check: str, p: float, descriptor: dict, lhs: float, rhs: float,
                constant: float) -> VerificationRecord:
    """Record for lhs <= constant * rhs, judged with the pass slack ``PASS_SLACK``.

    A zero rhs needs lhs <= 1e-12 and marks the record skipped.  A record
    with a side that is not finite never passes.
    """
    bound = constant * rhs
    if rhs == 0.0:
        skipped = lhs <= DEGENERATE_LHS_TOL
        passed = skipped
        ratio = math.nan
    else:
        skipped = False
        passed = (math.isfinite(lhs) and math.isfinite(rhs)
                  and lhs <= bound + PASS_SLACK * (1.0 + abs(bound)))
        ratio = lhs / rhs
    return VerificationRecord(
        check=check,
        p=p,
        descriptor=descriptor,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        constant=float(constant),
        passed=bool(passed),
        skipped=bool(skipped),
    )


def sample_instance_shape(rng: np.random.Generator, atoms_max: int, n_max: int, dim_max: int):
    """Feasible (atoms, levels, n, dim) with levels = n + 1 <= atoms."""
    n_cap = min(n_max, atoms_max - 1)
    n = int(rng.integers(1, n_cap + 1))
    atoms = int(rng.integers(n + 1, atoms_max + 1))
    dim = int(rng.integers(1, dim_max + 1))
    return atoms, n + 1, n, dim


def verify_batch(
    check: InequalityId,
    p: float,
    count: int,
    seed: int,
    weights: WeightSequence | None = None,
    atoms_max: int = 64,
    n_max: int = 32,
    dim_max: int = 3,
):
    """Run one inequality over ``count`` freshly generated instances.

    Instance shapes and per-instance seeds are drawn from a master generator
    seeded with ``seed``; records come back in instance order, so the batch
    is reproducible and order-independent of any execution scheduling.  The
    constant is read once, before any instance is drawn.
    """
    check = InequalityId(check)
    constant = traced_constant(check, p).value
    if check.weighted and weights is None:
        weights = WeightSequence.constant(1.0)
    master = _generator(seed)
    records = []
    for _ in range(count):
        atoms, levels, n, dim = sample_instance_shape(master, atoms_max, n_max, dim_max)
        inst_seed = int(master.integers(0, 2**63 - 1))
        instance = random_instance(inst_seed, atoms, levels, n, dim)
        records.append(_record(check, instance, n, p, weights, constant))
    return records


# Second moments checked at a time by series_criterion.
_SERIES_CHUNK = 1 << 12


@dataclass(frozen=True)
class SeriesVerdict:
    """Partial value and convergence verdict for the weighted moment series."""

    partial: float
    verdict: str
    increments: tuple


def series_criterion(weights: WeightSequence, second_moments, horizon: int) -> SeriesVerdict:
    """Partial sums of sum_k b_k m_k and a convergence verdict.

    ``second_moments`` must be non-negative and non-increasing (the natural
    shape for conditional second moments along a decreasing filtration);
    increasing sequences are rejected.  The verdict compares the last two
    dyadic windows of partial-sum increments: geometric-type decay reads as
    convergent, flat increments as divergent, anything in between as
    inconclusive.  The moments are checked ``_SERIES_CHUNK`` at a time and
    the b_k arrive a chunk at a time from :func:`coefficient_chunks`, so
    beyond the moments nothing held grows with the horizon; every figure
    equals the one from ``compute_stats(weights, horizon).b`` bit for bit.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    m = np.asarray(second_moments, dtype=float)
    if m.ndim != 1 or m.size < horizon:
        raise ValidationError(
            f"need at least {horizon} second moments, got {m.size}"
        )
    for lo in range(0, m.size, _SERIES_CHUNK):
        if np.any(m[lo : lo + _SERIES_CHUNK] < 0):
            raise ValidationError("second moments must be non-negative")
    for lo in range(0, horizon - 1, _SERIES_CHUNK):
        window = m[lo : min(lo + _SERIES_CHUNK, horizon - 1) + 1]
        rises = np.diff(window) > 1e-12 * (1.0 + np.abs(window[:-1]))
        if rises.any():
            raise ValidationError(
                f"second moments increase at index {lo + int(np.argmax(rises)) + 1};"
                " conditional moments along a decreasing filtration cannot do that"
            )
    # the partial sums through k = horizon // 4, horizon // 2 and horizon,
    # added in order with the running sum carried across chunks
    marks, total, k0 = {}, -0.0, 1  # -0.0 + x is x, signed zeros included
    for terms in coefficient_chunks(weights, horizon):
        k1 = k0 + terms.size
        terms *= m[k0 - 1 : k1 - 1]
        terms[0] += total
        np.cumsum(terms, out=terms)
        total = terms[-1]
        for k in (horizon // 4, horizon // 2):
            if k0 <= k < k1:
                marks[k] = float(terms[k - k0])
        k0 = k1
    partial = float(total)

    if partial == 0.0:
        return SeriesVerdict(partial, "converges", ())
    if horizon < 8:
        return SeriesVerdict(partial, "inconclusive", ())
    last = partial - marks[horizon // 2]
    prev = marks[horizon // 2] - marks[horizon // 4]
    increments = (prev, last)
    if last <= 1e-14 * (1.0 + partial):
        verdict = "converges"
    elif prev > 0 and last >= 0.6 * prev:
        verdict = "diverges"
    elif prev > 0 and last <= 0.4 * prev:
        verdict = "converges"
    else:
        verdict = "inconclusive"
    return SeriesVerdict(partial, verdict, increments)
