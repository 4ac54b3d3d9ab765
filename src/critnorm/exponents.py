"""Exact arithmetic on extended-rational norm exponents.

Norm orders here live in (0, +inf]; summing orders live in [1, +inf].  Every
exponent is carried as an :class:`ExtRational`, built by ``ExtRational(value)``
from an int, a Fraction, another ExtRational or a token string: an exact
rational (lowest terms) extended with a distinguished +infinity, whose one
token is ``inf``, as ``str`` prints it.  Reciprocal space is plain
:class:`~fractions.Fraction`, under the exact convention 1/inf = 0:
``reciprocal()``, ``tail_sum`` and ``criterion`` return Fractions.  All
bookkeeping, conjugation ``1/p* = 1 - 1/p``, reciprocal tail sums, the
inclusion shift between summing families, admissibility thresholds, happens
in this exact arithmetic.  Floating point appears only when a value
is explicitly converted at the numerical boundary (``float(...)``).

The central object is the critical exponent family on the l_m domain,
``critical_exponents(m, variant)``: s_1 = inf and, for k = 2..m, a strictly
decreasing run of rationals whose first finite entry is the arity m itself
(variant "derived").  The other variants exist so that the harness can
compare closed formulas that disagree by an index shift against each other
and against the hard floor m/(k-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "ExtRational",
    "INF",
    "ExponentVector",
    "InapplicableError",
    "ExponentInvariantError",
    "conjugate",
    "tail_sum",
    "criterion",
    "inclusion_exponents",
    "VARIANTS",
    "critical_exponents",
    "PowerOfTwo",
    "CONSTANT_CHOICES",
    "inequality_constant",
    "bilinear_admissibility",
]

ExtLike = Union["ExtRational", int, Fraction, str]


@functools.total_ordering
class ExtRational:
    """An exact rational number extended with +infinity.

    Finite values are stored as :class:`fractions.Fraction` (automatically in
    lowest terms with positive denominator); infinity is the unique value
    with ``is_inf``, spelled ``"inf"``.  The type is totally ordered with
    infinity on top, and has exact reciprocals, Fractions with
    ``reciprocal(inf) == 0``; sums of exponents are taken on them.
    Floats are rejected on input: exactness is the point.  A token with a
    zero denominator, such as ``"1/0"``, is a ValueError.
    """

    __slots__ = ("_frac",)

    def __init__(self, value: ExtLike):
        if isinstance(value, ExtRational):
            self._frac: Fraction | None = value._frac
        elif isinstance(value, bool):
            raise TypeError("bool is not an exponent")
        elif isinstance(value, (int, Fraction)):
            self._frac = Fraction(value)
        elif isinstance(value, str):
            tok = value.strip()
            if tok == "inf":
                self._frac = None
            else:
                try:
                    self._frac = Fraction(tok)
                except ZeroDivisionError:
                    raise ValueError(f"{value!r} has a zero denominator") from None
        elif isinstance(value, float):
            raise TypeError(
                "floats are inexact; pass an int, a Fraction or a 'num/den' string"
            )
        else:
            raise TypeError(f"cannot interpret {type(value).__name__} as an exponent")

    @property
    def is_inf(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinity has no finite value")
        return self._frac

    def reciprocal(self) -> Fraction:
        """Exact 1/x as a Fraction, with 1/inf = 0.  Zero has no reciprocal
        here (going back from reciprocal space is ``from_reciprocal``)."""
        if self._frac is None:
            return Fraction(0)
        if self._frac == 0:
            raise ZeroDivisionError("zero is not a norm order")
        return 1 / self._frac

    @classmethod
    def from_reciprocal(cls, recip: Fraction | int) -> "ExtRational":
        """Invert a reciprocal-space value; 0 maps to infinity."""
        recip = Fraction(recip)
        if recip < 0:
            raise ValueError(f"reciprocal {recip} is negative; no order matches it")
        if recip == 0:
            return INF
        return cls(1 / recip)

    @staticmethod
    def _key(value):
        """The comparison key of an exponent: its exact value, an int or
        Fraction as itself, math.inf for infinity.  None for anything else (a
        bool or a token string included), which compares as NotImplemented."""
        if isinstance(value, ExtRational):
            return math.inf if value._frac is None else value._frac
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return value
        return None

    def __eq__(self, other):
        o = self._key(other)
        return NotImplemented if o is None else self._key(self) == o

    def __hash__(self):
        return hash(self._frac) if self._frac is not None else hash(math.inf)

    def __lt__(self, other):
        o = self._key(other)
        return NotImplemented if o is None else self._key(self) < o

    def __float__(self):
        return math.inf if self._frac is None else float(self._frac)

    def __str__(self):
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self):
        return f"ExtRational('{self}')"


INF = ExtRational("inf")


class ExponentVector(tuple):
    """Ordered positive norm orders (s_1, ..., s_m); entries may be inf.

    Accepts any iterable of exact values or a comma-separated token string
    like ``"inf,3,12/5"``, which is its ``str``.  Entries must be positive;
    callers that need the summing range additionally check entries >= 1.
    """

    def __new__(cls, entries: Iterable[ExtLike] | str):
        if isinstance(entries, str):
            entries = [tok for tok in entries.split(",")]
        items = tuple(map(ExtRational, entries))
        if not items:
            raise ValueError("exponent vector needs at least one entry")
        for e in items:
            if e <= 0:
                raise ValueError(f"norm orders must be positive, got {e}")
        return super().__new__(cls, items)

    @classmethod
    def uniform(cls, order: ExtLike, m: int) -> "ExponentVector":
        return cls((ExtRational(order),) * m)

    def __str__(self):
        return ",".join(map(str, self))

    def __repr__(self):
        return f"ExponentVector('{self}')"


class InapplicableError(ValueError):
    """The inclusion-shift preconditions fail for the given (r, p, q)."""


class ExponentInvariantError(ValueError):
    """Exact exponent arithmetic broke an identity it guarantees for every
    valid input (an entry below 1 after a passed applicability check, or a
    derived critical family whose slot-2 order is not the arity).  This is a
    defect of the arithmetic, not of the input; no exponents are returned."""


def conjugate(p: ExtLike) -> ExtRational:
    """Conjugate order p* with 1/p + 1/p* = 1; conjugate(1) = inf, conjugate(inf) = 1."""
    p = ExtRational(p)
    if p < 1:
        raise ValueError(f"conjugation needs p >= 1, got {p}")
    return ExtRational.from_reciprocal(1 - p.reciprocal())


def tail_sum(p: Sequence[ExtLike], k: int) -> Fraction:
    """Exact reciprocal tail |1/p|_{>=k} = 1/p_k + ... + 1/p_m (k is 1-based)."""
    entries = tuple(map(ExtRational, p))
    if not 1 <= k <= len(entries):
        raise IndexError(f"k = {k} outside 1..{len(entries)}")
    return sum((e.reciprocal() for e in entries[k - 1:]), Fraction(0))


def _summing_vector(p, name: str) -> ExponentVector:
    v = p if isinstance(p, ExponentVector) else ExponentVector(p)
    for i, e in enumerate(v, start=1):
        if e < 1:
            raise ValueError(f"{name}[{i}] = {e} is < 1; summing orders live in [1, inf]")
    return v


def criterion(r: ExtLike, p: Sequence[ExtLike], q: Sequence[ExtLike]) -> Fraction:
    """Exact shift budget 1/r - |1/p| + |1/q| (any sign; finite)."""
    r = ExtRational(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    p = _summing_vector(p, "p")
    q = _summing_vector(q, "q")
    if len(p) != len(q):
        raise ValueError(f"length mismatch: p has {len(p)} entries, q has {len(q)}")
    return r.reciprocal() - tail_sum(p, 1) + tail_sum(q, 1)


def inclusion_exponents(r: ExtLike, p: Sequence[ExtLike], q: Sequence[ExtLike]) -> ExponentVector:
    """Shift a (r; p)-summing family onto q: 1/s_k = 1/r - |1/p|_{>=k} + |1/q|_{>=k}.

    Applicable in exactly two regimes: q_k >= p_k in every slot with a
    strictly positive budget, or q_1 > p_1 (the rest >=) with a nonnegative
    budget.  Anything else raises :class:`InapplicableError` naming the slot
    or the budget that failed.  The result satisfies the defining relation
    exactly; a zero reciprocal encodes an infinite order, and every finite
    entry comes out >= r >= 1.
    """
    crit = criterion(r, p, q)   # checks r, p and q
    p, q = ExponentVector(p), ExponentVector(q)
    # orders >= 1 compare in reverse on their exact reciprocals (1/inf = 0)
    inv_p, inv_q = [e.reciprocal() for e in p], [e.reciprocal() for e in q]
    for i in range(1, len(p)):
        if inv_q[i] > inv_p[i]:
            raise InapplicableError(f"q[{i + 1}] = {q[i]} < p[{i + 1}] = {p[i]}")
    if inv_q[0] > inv_p[0]:
        raise InapplicableError(f"q[1] = {q[0]} < p[1] = {p[0]}")
    if inv_q[0] == inv_p[0]:
        if crit <= 0:
            raise InapplicableError(
                f"budget 1/r - |1/p| + |1/q| = {crit} must be > 0 when q_1 = p_1"
            )
    elif crit < 0:
        raise InapplicableError(f"budget 1/r - |1/p| + |1/q| = {crit} is negative")
    # 1/s_k = 1/r + (|1/q|_{>=k} - |1/p|_{>=k}), the tails summed in one reverse pass
    inv = ExtRational(r).reciprocal()
    recips = []
    for ip, iq in zip(reversed(inv_p), reversed(inv_q)):
        inv += iq - ip
        recips.append(inv)
    entries = []
    for k, inv in enumerate(reversed(recips), start=1):
        if inv < 0:
            raise ExponentInvariantError(f"1/s_{k} = {inv} < 0 despite applicability")
        s_k = ExtRational.from_reciprocal(inv)
        if inv > 1:
            raise ExponentInvariantError(f"s_{k} = {s_k} < 1 despite applicability")
        entries.append(s_k)
    return ExponentVector(entries)


VARIANTS = ("derived", "printed", "corollary-printed", "corollary-derived", "lower-bound")


def critical_exponents(m: int, variant: str = "derived") -> ExponentVector:
    """Critical-case exponent family (s_1, ..., s_m) for arity-m forms on l_m.

    s_1 is always inf.  For k = 2..m the variants give:

    - ``derived``: s_k = 2m(m-1)/(k(m-2)+2), rebuilt here by running the
      inclusion shift on the one-slot-frozen pipeline and moving every slot
      index up by one.  This is the variant with s_2 = m for every m, the
      largest value the equality witnesses allow.
    - ``printed``: s_k = 2m(m-1)/(m+mk-2k), the same closed form under the
      unshifted index convention; for m > 2 its slot-2 entry drops below m.
    - ``corollary-printed`` / ``corollary-derived``: the weaker uniform-data
      family 2m/k and its shift-consistent counterpart 2m/(k-1).
    - ``lower-bound``: m/(k-1), the floor that any valid family dominates.

    The two conventions coincide at m = 2, where every variant except the
    corollary pair collapses to (inf, 2).
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValueError(f"arity m must be an integer >= 2, got {m!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if variant == "derived":
        base = m - 1
        tail = inclusion_exponents(
            2,
            ExponentVector.uniform(conjugate(2 * base), base),
            ExponentVector.uniform(conjugate(m), base),
        )
        s = ExponentVector((INF, *tail))
        if s[1] != m:
            raise ExponentInvariantError(f"derived slot-2 order {s[1]} must equal the arity {m}")
        return s
    if variant == "corollary-derived":
        return inclusion_exponents(
            2,
            ExponentVector.uniform(conjugate(2 * m), m),
            ExponentVector.uniform(conjugate(m), m),
        )
    if variant == "printed":
        tail = [Fraction(2 * m * (m - 1), m + m * k - 2 * k) for k in range(2, m + 1)]
    elif variant == "corollary-printed":
        tail = [Fraction(2 * m, k) for k in range(2, m + 1)]
    else:  # lower-bound
        tail = [Fraction(m, k - 1) for k in range(2, m + 1)]
    return ExponentVector((INF, *tail))


@dataclass(frozen=True)
class PowerOfTwo:
    """Exact power 2**exponent together with its floating value."""

    exponent: Fraction

    @property
    def value(self) -> float:
        """The float value; ValueError when it is past the float range."""
        try:
            return 2.0 ** float(self.exponent)
        except OverflowError:
            raise ValueError(f"2^({self.exponent}) is past the float range") from None

    def __str__(self):
        return f"2^({self.exponent})"


CONSTANT_CHOICES = ("abstract", "theorem")


def inequality_constant(m: int, choice: str = "abstract") -> PowerOfTwo:
    """Constant used when checking the main bound.

    ``"abstract"`` is the tight 2^((m-2)/2); ``"theorem"`` selects the more
    generous 2^((m-1)/2) for conservative comparisons.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValueError(f"arity m must be an integer >= 2, got {m!r}")
    if choice == "abstract":
        return PowerOfTwo(Fraction(m - 2, 2))
    if choice == "theorem":
        return PowerOfTwo(Fraction(m - 1, 2))
    raise ValueError(f"unknown constant choice {choice!r}; choose from {CONSTANT_CHOICES}")


@dataclass(frozen=True)
class BilinearAdmissibility:
    """Outcome of the subcritical bilinear exponent check: ``ok``, and one
    line per failed condition, quoting its threshold."""

    ok: bool
    failures: tuple[str, ...]


def bilinear_admissibility(p: ExtLike, q: ExtLike, a: ExtLike, b: ExtLike) -> BilinearAdmissibility:
    """Check the three stated subcritical bilinear conditions on (a, b) for l_p x l_q.

    For p, q in [2, inf] with 1/p + 1/q < 1 it checks the three conditions
    a >= q/(q-1), b >= pq/(pq-p-q) and 1/a + 1/b <= 3/2 - (1/p + 1/q) as
    stated.  No proof that they suffice is cited here; Osikiewicz & Tonge,
    Linear Algebra Appl. 331 (2001), is the source to check.
    Infinite endpoints follow from the same reciprocal arithmetic: q/(q-1)
    is conjugate(q) and pq/(pq-p-q) is 1/(1 - 1/p - 1/q).  The critical
    line 1/p + 1/q = 1 is out of scope and raises ValueError.
    """
    p, q, a, b = map(ExtRational, (p, q, a, b))
    if p < 2 or q < 2:
        raise ValueError(f"domain orders must lie in [2, inf], got p={p}, q={q}")
    gap = 1 - p.reciprocal() - q.reciprocal()
    if gap <= 0:
        raise ValueError(
            "1/p + 1/q >= 1 is the critical line; this predicate covers only the subcritical range"
        )
    for name, e in (("a", a), ("b", b)):
        if e <= 0:
            raise ValueError(f"{name} must be positive, got {e}")
    a_thr = conjugate(q)
    b_thr = ExtRational.from_reciprocal(gap)
    budget = Fraction(3, 2) - (p.reciprocal() + q.reciprocal())
    failures = []
    if a < a_thr:
        failures.append(f"a = {a} < q/(q-1) = {a_thr}")
    if b < b_thr:
        failures.append(f"b = {b} < pq/(pq-p-q) = {b_thr}")
    if a.reciprocal() + b.reciprocal() > budget:
        failures.append(
            f"1/a + 1/b = {a.reciprocal() + b.reciprocal()} > 3/2 - (1/p + 1/q) = {budget}"
        )
    return BilinearAdmissibility(not failures, tuple(failures))
