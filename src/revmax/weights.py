"""Weight sequences and the partial-sum statistics the inequalities consume.

A weight sequence is evaluable at any index j >= 1; explicit lists refuse
evaluation past their recorded length.  The derived statistics deliberately
over-reach the requested horizon: the coefficient b_k reads running maxima of
partial sums through index 4k, so ``compute_stats(w, n)`` needs w evaluable
up to 4n, and ``even_odd_stats(w, n)`` needs it up to 8n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_prob import ValidationError, _load_json, _numbers

__all__ = [
    "WeightSequence",
    "WeightStats",
    "compute_stats",
    "even_odd_stats",
    "parse_weight_spec",
]


class WeightSequence:
    """Real weight sequence a_1, a_2, ... of one of four kinds.

    constant c       a_j = c
    power alpha      a_j = j ** alpha
    explicit list    a_j looked up (error past the end)
    alternating base a_j = (-1) ** (j - 1) * |base_j|
    """

    def __init__(self, kind, *, value=None, exponent=None, entries=None, base=None):
        self.kind = kind
        self.value = value
        self.exponent = exponent
        self.entries = None if entries is None else np.asarray(entries, dtype=float)
        self.base = base
        if kind == "constant":
            if value is None or not np.isfinite(value):
                raise ValidationError("constant weight needs a finite value")
        elif kind == "power":
            if exponent is None or not np.isfinite(exponent):
                raise ValidationError("power weight needs a finite exponent")
        elif kind == "explicit":
            if self.entries is None or self.entries.ndim != 1 or self.entries.size == 0:
                raise ValidationError("explicit weights need a nonempty list")
            if not np.all(np.isfinite(self.entries)):
                raise ValidationError("explicit weights must be finite")
        elif kind == "alternating":
            if not isinstance(base, WeightSequence):
                raise ValidationError("alternating weights need a base sequence")
        else:
            raise ValidationError(f"unknown weight kind {kind!r}")
        self._prefix = np.zeros(1)
        self._prefix.flags.writeable = False

    @classmethod
    def constant(cls, value: float) -> "WeightSequence":
        return cls("constant", value=float(value))

    @classmethod
    def power(cls, exponent: float) -> "WeightSequence":
        return cls("power", exponent=float(exponent))

    @classmethod
    def explicit(cls, entries) -> "WeightSequence":
        return cls("explicit", entries=entries)

    @classmethod
    def alternating(cls, base: "WeightSequence") -> "WeightSequence":
        return cls("alternating", base=base)

    def eval(self, j: int) -> float:
        if j < 1:
            raise ValidationError(f"weight index {j} must be >= 1")
        try:
            return self._eval(j)
        except OverflowError:
            raise self._overflow(j) from None

    def _eval(self, j: int) -> float:
        if self.kind == "constant":
            return float(self.value)
        if self.kind == "power":
            return float(j) ** self.exponent
        if self.kind == "explicit":
            if j > self.entries.size:
                raise ValidationError(
                    f"explicit weight list of length {self.entries.size} "
                    f"cannot be evaluated at index {j}"
                )
            return float(self.entries[j - 1])
        sign = 1.0 if j % 2 == 1 else -1.0
        return sign * abs(self.base._eval(j))

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
            try:
                tail = self._values(done + 1, upto)
            except OverflowError:
                raise self._overflow(upto) from None
            prefix = np.concatenate((self._prefix, tail))
            prefix.flags.writeable = False
            self._prefix = prefix
        return self._prefix[: upto + 1]

    def _values(self, lo: int, hi: int) -> np.ndarray:
        """A new array of a_lo, .., a_hi."""
        count = hi - lo + 1
        if self.kind == "constant":
            return np.full(count, self.value)
        if self.kind == "power":
            e = self.exponent
            return np.fromiter((float(j) ** e for j in range(lo, hi + 1)),
                               dtype=float, count=count)
        if self.kind == "explicit":
            if hi > self.entries.size:
                raise ValidationError(
                    f"explicit weight list of length {self.entries.size} "
                    f"cannot be evaluated at index {hi}"
                )
            return self.entries[lo - 1 : hi].copy()
        out = np.abs(self.base._values(lo, hi))
        even = out[lo % 2 :: 2]  # the entries at even j
        np.negative(even, out=even)
        return out

    def _overflow(self, upto: int) -> ValidationError:
        """The error for weights whose power ``j ** exponent`` overflows at a j <= upto.

        It names the whole spec, alternating signs included, and the first such j.
        """
        power = self
        while power.kind == "alternating":
            power = power.base
        for j in range(1, upto + 1):
            try:
                float(j) ** power.exponent
            except OverflowError:
                break
        return ValidationError(f"weight spec {self.describe()} overflows double precision"
                               f" at index {j}")

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.value:g}"
        if self.kind == "power":
            return f"power:{self.exponent:g}"
        if self.kind == "explicit":
            return f"explicit:len{self.entries.size}"
        return f"alternating:{self.base.describe()}"

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


def _stats(a: np.ndarray, n: int) -> WeightStats:
    """Statistics of the weights a[1..4n] (a[0] is ignored)."""
    s = np.zeros(4 * n + 1)
    s[1:] = np.cumsum(a[1 : 4 * n + 1])
    s_star = np.zeros_like(s)
    s_star[1:] = np.maximum.accumulate(np.abs(s[1:]))
    k = np.arange(1, n + 1)
    b = np.full(n + 1, np.nan)
    b[1:] = np.maximum(s_star[4 * k] ** 2 / k, s[k] ** 2 - s[k - 1] ** 2)
    for arr in (s, s_star, b):
        arr.flags.writeable = False
    return WeightStats(n=n, s=s, s_star=s_star, b=b)


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
