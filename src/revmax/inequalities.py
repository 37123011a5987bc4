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
    _max_moment,
    _moments,
    _norms,
)
from .weights import WeightSequence, compute_stats

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
    """The verifiable inequalities over decreasing filtrations."""

    MAX_VS_ENDPOINT = "max-vs-endpoint"
    MAX_VS_PROJECTIONS = "max-vs-projections"
    WEIGHTED_MAX_VS_ENDPOINT = "weighted-max-vs-endpoint"
    WEIGHTED_MAX_VS_PROJECTIONS = "weighted-max-vs-projections"
    DYADIC_WEIGHTED_MAX = "dyadic-weighted-max"
    SECOND_MOMENT_SERIES = "second-moment-series"
    SMOOTHNESS = "smoothness"


_WEIGHTED_IDS = {
    InequalityId.WEIGHTED_MAX_VS_ENDPOINT,
    InequalityId.WEIGHTED_MAX_VS_PROJECTIONS,
    InequalityId.DYADIC_WEIGHTED_MAX,
    InequalityId.SECOND_MOMENT_SERIES,
}


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
    """L_p maximal-inequality constant (p/(p-1))^p; needs p > 1."""
    if p <= 1:
        raise ValidationError(f"Doob factor needs p > 1, got {p}")
    return (p / (p - 1.0)) ** p


def triangle_factor(p: float) -> float:
    """Two-term convexity constant 2^(p-1); needs p >= 1."""
    if p < 1:
        raise ValidationError(f"triangle factor needs p >= 1, got {p}")
    return 2.0 ** (p - 1.0)


def smoothness_factor(p: float) -> float:
    """Martingale-difference moment constant for Euclidean values, 1 <= p <= 2."""
    if not 1 <= p <= 2:
        raise ValidationError(f"smoothness factor needs 1 <= p <= 2, got {p}")
    return 1.0 if p == 2 else 2.0


def traced_constant(check: InequalityId, p: float) -> TracedConstant:
    """The committed constant for an inequality at exponent p.

    Raises when p lies outside the inequality's validity range.
    """
    check = InequalityId(check)
    if check in (InequalityId.MAX_VS_ENDPOINT, InequalityId.WEIGHTED_MAX_VS_ENDPOINT):
        if p <= 1:
            raise ValidationError(f"{check.value} needs p > 1")
        q = doob_factor(p)
        value = triangle_factor(p) + 8.0 ** (p - 1.0) * (1.0 + q)
        steps = (
            f"split max|S| <= max|cond| + max|tail sums|: factor {triangle_factor(p):g}",
            f"tail sums via full-sum split then Doob: factor 2^(p-1)*(1+{q:g})",
            "endpoint decomposition |full sum| <= |S_n| + |cond endpoint|: factor 2^(p-1)",
            f"assembled coefficient max: 2^(p-1) + 8^(p-1)*(1+{q:g}) = {value:g}",
        )
    elif check in (
        InequalityId.MAX_VS_PROJECTIONS,
        InequalityId.WEIGHTED_MAX_VS_PROJECTIONS,
    ):
        if not 1 < p <= 2:
            raise ValidationError(f"{check.value} needs 1 < p <= 2")
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
        if p <= 1:
            raise ValidationError(f"{check.value} needs p > 1")
        q = doob_factor(p)
        value = 2.0 * q
        steps = (
            f"Doob over each dyadic window of the conditional sequence: factor {q:g}",
            "window terms dominated by the k^-1 (s*_4k)^p sum: factor 2",
            f"assembled: 2*{q:g} = {value:g}",
        )
    elif check is InequalityId.SECOND_MOMENT_SERIES:
        if p != 2:
            raise ValidationError(f"{check.value} is a p = 2 statement")
        q = doob_factor(2.0)
        max_route = 2.0 * (2.0 * q)
        proj_route = 4.0 * (1.0 + q) * smoothness_factor(2.0)
        value = max_route + proj_route
        steps = (
            "projection-form bound at p=2: coefficients (2, 20)",
            f"conditional-max term via the dyadic estimate: 2*2*{q:g} = {max_route:g}",
            "orthogonality turns weighted projections into telescoping moment"
            " differences, each below its b coefficient: factor 1",
            f"assembled: {max_route:g} + {proj_route:g} = {value:g}",
        )
    elif check is InequalityId.SMOOTHNESS:
        if not 1 < p <= 2:
            raise ValidationError(f"{check.value} needs 1 < p <= 2")
        value = smoothness_factor(p)
        steps = (
            "p = 2: orthogonality of martingale differences, constant 1"
            if p == 2
            else "1 < p < 2: two-point inequality + conditional Jensen, constant 2",
        )
    else:  # pragma: no cover
        raise ValidationError(f"no constant for {check}")
    return TracedConstant(check=check.value, p=p, value=value, derivation=steps)


@dataclass(frozen=True)
class Instance:
    """An adapted sequence and the seed that generated it."""

    sequence: AdaptedSequence
    seed: int
    filtration = property(lambda self: self.sequence.filtration)
    space = property(lambda self: self.sequence.space)
    atoms = property(lambda self: self.space.n_atoms)
    levels = property(lambda self: self.filtration.levels)
    n = property(lambda self: len(self.sequence))
    dim = property(lambda self: self.sequence.dim)

    def descriptor(self) -> dict:
        return {"seed": self.seed, "atoms": self.atoms, "n": self.n, "dim": self.dim}


def random_instance(
    seed: int, atoms: int, levels: int, n: int, dim: int
) -> Instance:
    """Deterministic random instance: coarsening chain plus adapted sequence.

    Level 1 is the partition into singletons; every later level merges one
    randomly chosen pair of blocks, so level j has ``atoms - j + 1`` blocks
    and the shape is infeasible when ``levels > atoms``.  Term j takes one
    standard-normal draw per level-j block, which makes it measurable there
    by construction.
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
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.2, 1.0, atoms)
    space = FiniteProbSpace(probs / probs.sum())

    # merging blocks i < j keeps label i and shifts the labels above j down
    labels = np.tile(np.arange(atoms), (levels, 1))
    for level in range(1, levels):
        i, j = sorted(rng.choice(atoms - level + 1, size=2, replace=False))
        row = np.where(labels[level - 1] == j, i, labels[level - 1])
        labels[level] = row - (row > j)
    filtration = DecreasingFiltration(space, labels)

    values = np.empty((n, atoms, dim))
    for j, row in enumerate(values):
        draws = rng.standard_normal((filtration.n_blocks(j + 1), dim))
        np.take(draws, labels[j], axis=0, out=row)
    return Instance(sequence=AdaptedSequence(filtration, values), seed=int(seed))


def verify(
    check: InequalityId,
    instance: Instance,
    n: int | None = None,
    p: float = 2.0,
    weights: WeightSequence | None = None,
    tol_override: float | None = None,
) -> VerificationRecord:
    """Evaluate both sides of an inequality on an instance exactly.

    The weighted checks build their sequence as a_j E_j X from the first term
    of the instance; the unweighted ones use the instance's own adapted
    sequence.  The pass flag compares lhs against the traced constant times
    rhs, with lhs <= 1e-12 required when rhs degenerates to zero.
    """
    check = InequalityId(check)
    n = instance.n if n is None else n
    if not 1 <= n <= instance.n:
        raise ValidationError(f"n={n} out of range for instance with n={instance.n}")
    constant = traced_constant(check, p)
    filtration = instance.filtration
    probs = instance.space.probs
    X = instance.sequence.values[0]

    if check in _WEIGHTED_IDS:
        if weights is None:
            raise ValidationError(f"{check.value} needs a weight sequence")
        stats = compute_stats(weights, n)
        # row j-1 holds E_j X; the weighted sequence is a_j E_j X
        conditioned = _cond_table(filtration, np.broadcast_to(X, (n, *X.shape)))
        cond_norms = _norms(conditioned)
        partial_norms = _norms(
            np.cumsum(weights.eval_range(n)[1:, None, None] * conditioned, axis=0)
        )
        scaled_norms = _norms(stats.s[1 : n + 1, None, None] * conditioned)
        if check is InequalityId.WEIGHTED_MAX_VS_ENDPOINT:
            lhs = _max_moment(probs, partial_norms, p)
            rhs = (_max_moment(probs, scaled_norms, p)
                   + _moments(probs, partial_norms[-1:], p)[0])
        elif check is InequalityId.WEIGHTED_MAX_VS_PROJECTIONS:
            lhs = _max_moment(probs, partial_norms, p)
            rhs = _max_moment(probs, scaled_norms, p)
            diffs = stats.s[1:n, None, None] * (conditioned[:-1] - conditioned[1:])
            for moment in _moments(probs, _norms(diffs), p):
                rhs += moment
        elif check is InequalityId.DYADIC_WEIGHTED_MAX:
            lhs = _max_moment(probs, scaled_norms, p)
            rhs = 0.0
            for k, moment in enumerate(_moments(probs, cond_norms, p), 1):
                rhs += stats.s_star[4 * k] ** p / k * moment
        else:  # SECOND_MOMENT_SERIES
            lhs = _max_moment(probs, partial_norms, 2.0)
            rhs = 0.0
            for k, moment in enumerate(_moments(probs, cond_norms, 2.0), 1):
                rhs += stats.b[k] * moment
    elif check is InequalityId.SMOOTHNESS:
        if filtration.levels < n + 1:
            raise ValidationError("smoothness check needs levels >= n + 1")
        conditioned = _cond_table(filtration, np.broadcast_to(X, (n + 1, *X.shape)))
        diffs = conditioned[:-1] - conditioned[1:]
        lhs = _moments(probs, _norms(np.cumsum(diffs, axis=0)[-1:]), p)[0]
        rhs = sum(_moments(probs, _norms(diffs), p))
    else:
        partial = np.cumsum(instance.sequence.values[:n], axis=0)
        conditioned = _cond_table(filtration, partial)
        partial_norms = _norms(partial)
        lhs = _max_moment(probs, partial_norms, p)
        rhs = _max_moment(probs, _norms(conditioned), p)
        if check is InequalityId.MAX_VS_ENDPOINT:
            rhs += _moments(probs, partial_norms[-1:], p)[0]
        else:  # MAX_VS_PROJECTIONS: E_k S_k - E_{k+1} S_k for k < n
            coarser = _cond_table(filtration, partial[:-1], first_level=2)
            for moment in _moments(probs, _norms(conditioned[:-1] - coarser), p):
                rhs += moment

    return make_record(
        check.value, p, instance.descriptor() | {"horizon": n},
        lhs, rhs, constant.value, tol_override,
    )


def make_record(
    check: str,
    p: float,
    descriptor: dict,
    lhs: float,
    rhs: float,
    constant: float,
    tol_override: float | None = None,
) -> VerificationRecord:
    """Record for lhs <= constant * rhs, judged with the pass slack.

    A zero rhs needs lhs <= 1e-12 and marks the record skipped.
    """
    slack = PASS_SLACK if tol_override is None else tol_override
    bound = constant * rhs
    if rhs == 0.0:
        skipped = lhs <= DEGENERATE_LHS_TOL
        passed = skipped
        ratio = math.nan
    else:
        skipped = False
        passed = lhs <= bound + slack * (1.0 + abs(bound))
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


def sample_instance_shape(rng: np.random.Generator, atoms_max=64, n_max=32, dim_max=3):
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
    tol_override: float | None = None,
):
    """Run one inequality over ``count`` freshly generated instances.

    Instance shapes and per-instance seeds are drawn from a master generator
    seeded with ``seed``; records come back in instance order, so the batch
    is reproducible and order-independent of any execution scheduling.
    """
    check = InequalityId(check)
    if check in _WEIGHTED_IDS and weights is None:
        weights = WeightSequence.constant(1.0)
    master = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        atoms, levels, n, dim = sample_instance_shape(master, atoms_max, n_max, dim_max)
        inst_seed = int(master.integers(0, 2**63 - 1))
        instance = random_instance(inst_seed, atoms, levels, n, dim)
        records.append(
            verify(check, instance, n=n, p=p, weights=weights,
                   tol_override=tol_override)
        )
    return records


@dataclass(frozen=True)
class SeriesVerdict:
    """Partial value and convergence verdict for the weighted moment series."""

    partial: float
    verdict: str
    increments: tuple


def series_criterion(
    weights: WeightSequence,
    second_moments,
    horizon: int,
    tail_bound: float | None = None,
) -> SeriesVerdict:
    """Partial sums of sum_k b_k m_k and a convergence verdict.

    ``second_moments`` must be non-negative and non-increasing (the natural
    shape for conditional second moments along a decreasing filtration);
    increasing sequences are rejected.  A finite ``tail_bound`` on the missing
    tail certifies convergence outright.  Otherwise the verdict compares the
    last two dyadic windows of partial-sum increments: geometric-type decay
    reads as convergent, flat increments as divergent, anything in between as
    inconclusive.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    m = np.asarray(second_moments, dtype=float)
    if m.ndim != 1 or m.size < horizon:
        raise ValidationError(
            f"need at least {horizon} second moments, got {m.size}"
        )
    if np.any(m < 0):
        raise ValidationError("second moments must be non-negative")
    drops = np.diff(m[:horizon])
    if np.any(drops > 1e-12 * (1.0 + np.abs(m[: horizon - 1]))):
        k = int(np.argmax(drops > 1e-12 * (1.0 + np.abs(m[: horizon - 1]))))
        raise ValidationError(
            f"second moments increase at index {k + 1}; conditional moments"
            " along a decreasing filtration cannot do that"
        )
    stats = compute_stats(weights, horizon)
    terms = stats.b[1 : horizon + 1] * m[:horizon]
    partials = np.cumsum(terms)
    partial = float(partials[-1])

    if partial == 0.0:
        return SeriesVerdict(partial, "converges", ())
    if tail_bound is not None and math.isfinite(tail_bound):
        return SeriesVerdict(partial, "converges", ())
    if horizon < 8:
        return SeriesVerdict(partial, "inconclusive", ())
    last = partial - float(partials[horizon // 2 - 1])
    prev = float(partials[horizon // 2 - 1]) - float(partials[horizon // 4 - 1])
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
