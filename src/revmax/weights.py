"""Weight sequences and the partial-sum statistics the inequalities consume.

A weight sequence is evaluable at any index j >= 1; explicit lists refuse
evaluation past their recorded length.  The derived statistics deliberately
over-reach the requested horizon: the coefficient b_k reads running maxima of
partial sums through index 4k, so ``compute_stats(w, n)`` and
``coefficient_chunks(w, n)`` need w evaluable up to 4n, and
``even_odd_stats(w, n)`` needs it up to 8n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_prob import ValidationError, _load_json, _numbers

__all__ = [
    "WeightSequence",
    "WeightStats",
    "coefficient_chunks",
    "compute_stats",
    "even_odd_stats",
    "parse_weight_spec",
]


class WeightSequence:
    """Real weight sequence a_1, a_2, ... : one rule, its signs alternating or not.

    constant c       a_j = c
    power alpha      a_j = j ** alpha
    explicit list    a_j looked up (error past the end)
    alternating base a_j = (-1) ** (j - 1) * |base_j|

    Stored flat: the rule's ``kind`` and ``param``, whether it ``alternates``,
    and the spec :meth:`describe` returns.  Alternating twice changes no
    value, signed zeros included, so no sequence reads another.
    """

    def __init__(self, kind: str, param, alternates: bool, spec: str):
        self.kind, self.param, self.alternates, self._spec = kind, param, alternates, spec
        self._prefix = np.zeros(1)  # eval_range returns only read-only extensions of it

    @classmethod
    def constant(cls, value: float) -> "WeightSequence":
        value = float(value)
        if not np.isfinite(value):
            raise ValidationError("constant weight needs a finite value")
        return cls("constant", value, False, f"constant:{value:g}")

    @classmethod
    def power(cls, exponent: float) -> "WeightSequence":
        exponent = float(exponent)
        if not np.isfinite(exponent):
            raise ValidationError("power weight needs a finite exponent")
        return cls("power", exponent, False, f"power:{exponent:g}")

    @classmethod
    def explicit(cls, entries) -> "WeightSequence":
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 1 or entries.size == 0:
            raise ValidationError("explicit weights need a nonempty list")
        if not np.all(np.isfinite(entries)):
            raise ValidationError("explicit weights must be finite")
        return cls("explicit", entries, False, f"explicit:len{entries.size}")

    @classmethod
    def alternating(cls, base: "WeightSequence") -> "WeightSequence":
        if not isinstance(base, WeightSequence):
            raise ValidationError("alternating weights need a base sequence")
        return cls(base.kind, base.param, True, f"alternating:{base.describe()}")

    def eval(self, j: int) -> float:
        if j < 1:
            raise ValidationError(f"weight index {j} must be >= 1")
        if self.kind == "constant":
            value = self.param
        elif self.kind == "power":
            try:
                value = float(j) ** self.param
            except OverflowError:
                raise self._overflow(j) from None
        else:
            self._reach(j)
            value = float(self.param[j - 1])
        if self.alternates:
            return (1.0 if j % 2 == 1 else -1.0) * abs(value)
        return value

    def eval_range(self, upto: int) -> np.ndarray:
        """Read-only ``a`` with a[j] = a_j for j = 1..upto (a[0] unused, zero).

        Bit-identical to :meth:`eval` at every index.  The sequence keeps the
        values it has evaluated and extends them only to the index requested,
        so an explicit list still refuses an index past its end.  Powers go
        through Python's ``float ** float``, because numpy's vectorised power
        can differ from it in the last bit.  A power that overflows raises
        ``ValidationError`` naming the spec and the first such index.
        """
        if upto < 1:
            raise ValidationError("range must reach at least index 1")
        done = self._prefix.size - 1
        if upto > done:
            prefix = np.concatenate((self._prefix, self._values(done + 1, upto)))
            prefix.flags.writeable = False
            self._prefix = prefix
        return self._prefix[: upto + 1]

    def eval_chunk(self, lo: int, hi: int) -> np.ndarray:
        """Read-only a_lo .. a_hi, bit-identical to ``eval_range(hi)[lo:]``.

        A chunk the kept values cover is a view of them; any other is
        evaluated afresh and not kept, so reading a long sequence a chunk at
        a time holds one chunk, not the sequence.
        """
        if lo < 1 or hi < lo:
            raise ValidationError(f"weight chunk {lo}..{hi} must satisfy 1 <= lo <= hi")
        if hi < self._prefix.size:
            return self._prefix[lo : hi + 1]
        out = self._values(lo, hi)
        out.flags.writeable = False
        return out

    def _values(self, lo: int, hi: int) -> np.ndarray:
        """A new array of a_lo, .., a_hi."""
        count = hi - lo + 1
        if self.kind == "constant":
            out = np.full(count, self.param)
        elif self.kind == "power":
            e = self.param
            try:
                out = np.fromiter((float(j) ** e for j in range(lo, hi + 1)),
                                  dtype=float, count=count)
            except OverflowError:
                raise self._overflow(hi) from None
        else:
            self._reach(hi)
            out = self.param[lo - 1 : hi].copy()
        if self.alternates:
            out = np.abs(out)
            even = out[lo % 2 :: 2]  # the entries at even j
            np.negative(even, out=even)
        return out

    def _reach(self, j: int):
        """Refuse an explicit list's index j past its end."""
        if j > self.param.size:
            raise ValidationError(
                f"explicit weight list of length {self.param.size} "
                f"cannot be evaluated at index {j}"
            )

    def _overflow(self, upto: int) -> ValidationError:
        """The error naming the spec and the first j <= upto whose ``j ** exponent`` overflows."""
        for j in range(1, upto + 1):
            try:
                float(j) ** self.param
            except OverflowError:
                break
        return ValidationError(f"weight spec {self.describe()} overflows double precision"
                               f" at index {j}")

    def describe(self) -> str:
        return self._spec

    def __repr__(self):  # pragma: no cover
        return f"WeightSequence({self.describe()})"


@dataclass(frozen=True)
class WeightStats:
    """Partial-sum statistics of a weight sequence up to horizon n.

    All arrays are 1-based: entry k holds the order-k statistic, entry 0 is a
    zero pad (sums) or unused (coefficients).  Sums and running maxima extend
    to index 4n because b_k reads the running maximum at 4k.

    s[k]       a_1 + .. + a_k                      (k <= 4n)
    s_star[k]  max_{1<=j<=k} |s[j]|                (k <= 4n)
    b[k]       max(s_star[4k]^2 / k, s[k]^2 - s[k-1]^2)      (k <= n)
    """

    n: int
    s: np.ndarray
    s_star: np.ndarray
    b: np.ndarray


def _coefficients(stars: np.ndarray, sums: np.ndarray, k: np.ndarray) -> np.ndarray:
    """b_k = max(s_star[4k]^2 / k, s[k]^2 - s[k-1]^2) from s_star[4k], s[k-1 ..] and k."""
    return np.maximum(stars ** 2 / k, sums[1:] ** 2 - sums[:-1] ** 2)


def _stats(a: np.ndarray, n: int) -> WeightStats:
    """Statistics of the weights a[1..4n] (a[0] is ignored)."""
    s = np.zeros(4 * n + 1)
    s[1:] = np.cumsum(a[1 : 4 * n + 1])
    s_star = np.zeros_like(s)
    s_star[1:] = np.maximum.accumulate(np.abs(s[1:]))
    k = np.arange(1, n + 1)
    b = np.full(n + 1, np.nan)
    b[1:] = _coefficients(s_star[4 * k], s[: n + 1], k)
    for arr in (s, s_star, b):
        arr.flags.writeable = False
    return WeightStats(n=n, s=s, s_star=s_star, b=b)


# Coefficients b_k that coefficient_chunks computes at a time; each chunk
# reads four times as many weights (128 KB).
_COEFFICIENT_CHUNK = 1 << 12


def coefficient_chunks(w: WeightSequence, n: int):
    """Yield b_1 .. b_n of :func:`compute_stats` as consecutive new arrays, bit for bit.

    The chunk b_k0 .. b_k1-1 sums a_4k0-3 .. a_4k1-4, read through
    :meth:`WeightSequence.eval_chunk`, after the partial sum and with the
    running max of its magnitude carried from the chunk before, and sums
    a_k0 .. a_k1-1 a second time after s_k0-1, for s_k^2 - s_k-1^2.  Both
    sums add in index order, as ``np.cumsum`` does, so every coefficient
    rounds as in :func:`compute_stats`; a sequence that cannot reach index 4n
    raises its error before the first chunk.  What it holds does not grow
    with n.
    """
    if n < 1:
        raise ValidationError("horizon must be >= 1")
    w.eval(4 * n)
    size = min(n, _COEFFICIENT_CHUNK)
    # each buffer starts with the sum carried from the chunk before, at first
    # -0.0, which adds nothing to any x, signed zeros included
    far, near = np.full(4 * size + 1, -0.0), np.full(size + 1, -0.0)
    star = 0.0
    for k0 in range(1, n + 1, size):
        k1 = min(k0 + size, n + 1)
        sums, heads = far[: 4 * (k1 - k0) + 1], near[: k1 - k0 + 1]
        sums[1:] = w.eval_chunk(4 * k0 - 3, 4 * k1 - 4)
        heads[1:] = w.eval_chunk(k0, k1 - 1)
        np.cumsum(sums, out=sums)
        np.cumsum(heads, out=heads)
        far[0] = sums[-1]
        stars = np.abs(sums[1:], out=sums[1:])
        np.maximum.accumulate(stars, out=stars)
        np.maximum(stars, star, out=stars)
        b = _coefficients(stars[3::4], heads, np.arange(k0, k1))
        near[0], star = heads[-1], stars[-1]
        yield b


def compute_stats(w: WeightSequence, n: int) -> WeightStats:
    """All derived statistics for horizon n; needs a_j through index 4n."""
    if n < 1:
        raise ValidationError("horizon must be >= 1")
    return _stats(w.eval_range(4 * n), n)


def even_odd_stats(w: WeightSequence, n: int):
    """Statistics of the even terms a_2, a_4, .. and of the odd terms a_1, a_3, ..

    Returns ``(even, odd)``; each is :func:`compute_stats` of its subsequence,
    so together they need a_j through index 8n.
    """
    if n < 1:
        raise ValidationError("horizon must be >= 1")
    a = w.eval_range(8 * n)
    return _stats(np.r_[0.0, a[2::2]], n), _stats(np.r_[0.0, a[1::2]], n)


def parse_weight_spec(text: str) -> WeightSequence:
    """Parse the CLI mini-language for weight sequences.

    ``constant:1.0`` | ``power:-0.5`` | ``explicit:@weights.json`` |
    ``alternating:<spec>`` (sign flips applied to the nested spec).
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValidationError(f"weight spec {text!r} has no ':'")
    if head == "constant":
        return WeightSequence.constant(_parse_float(rest, text))
    if head == "power":
        return WeightSequence.power(_parse_float(rest, text))
    if head == "explicit":
        if not rest.startswith("@"):
            raise ValidationError(
                f"explicit weight spec must point at a JSON file: {text!r}"
            )
        entries = _load_json(rest[1:], "weight")
        return WeightSequence.explicit(_numbers(entries, f"weight file {rest[1:]!r}"))
    if head == "alternating":
        return WeightSequence.alternating(parse_weight_spec(rest))
    raise ValidationError(f"unknown weight kind in spec {text!r}")


def _parse_float(raw: str, full: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"bad number in weight spec {full!r}")
