"""Scalar arithmetic for the two numeric modes.

Exact mode computes over the rationals (int, fractions.Fraction), extended
where needed by the quadratic field Q(sqrt 5); float mode uses IEEE doubles.
Every algorithm in the package is generic over these scalar types: as soon
as one float enters a computation the result degrades to float, otherwise
everything stays exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")

#: float-mode slack relative to the size of the values compared
FLOAT_TOLERANCE = 1e-9
#: float-mode slack for the rounding of a difference, relative to the
#: magnitude of the values it is read off: 256 machine epsilons
ROUNDING_TOLERANCE = 2.0 ** -44
#: a float entry at most this share of the largest entry it is read with
#: counts as zero: linalg's pivots and right-hand sides, polytope's slopes
#: and the coefficients that its elimination cancels
ZERO_SHARE = 1e-12


class QuadExt:
    """Number a + b*sqrt(5) with rational a, b.

    Closed under +, -, *, / and totally ordered via exact sign tests, so the
    rational solvers work unchanged over this field. The `quadext` helper
    collapses b == 0 to a plain Fraction; an instance built with b == 0
    (`quadext_diff_sign` builds such differences) hashes and tests as the
    rational a.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _lift(value):
        """Return (a, b) for an exact operand, or None for anything else."""
        if isinstance(value, QuadExt):
            return value.a, value.b
        if isinstance(value, (int, Fraction)):
            return Fraction(value), Fraction(0)
        return None

    def _sign(self):
        a, b = self.a, self.b
        if a >= 0 and b >= 0:
            return 1 if (a != 0 or b != 0) else 0
        if a <= 0 and b <= 0:
            return -1 if (a != 0 or b != 0) else 0
        # a and b have opposite signs; compare a^2 against 5 b^2
        lhs, rhs = a * a, 5 * b * b
        if a > 0:
            return 1 if lhs > rhs else -1 if lhs < rhs else 0
        return 1 if rhs > lhs else -1 if rhs < lhs else 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        pair = self._lift(other)
        if pair is None:
            return float(self) + other if isinstance(other, float) else NotImplemented
        return quadext(self.a + pair[0], self.b + pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._lift(other)
        if pair is None:
            return float(self) - other if isinstance(other, float) else NotImplemented
        return quadext(self.a - pair[0], self.b - pair[1])

    def __rsub__(self, other):
        pair = self._lift(other)
        if pair is None:
            return other - float(self) if isinstance(other, float) else NotImplemented
        return quadext(pair[0] - self.a, pair[1] - self.b)

    def __mul__(self, other):
        pair = self._lift(other)
        if pair is None:
            return float(self) * other if isinstance(other, float) else NotImplemented
        c, d = pair
        return quadext(self.a * c + 5 * self.b * d, self.a * d + self.b * c)

    __rmul__ = __mul__

    def _inverse(self):
        # 1/(a + b sqrt5) = (a - b sqrt5)/(a^2 - 5 b^2); the norm is nonzero
        # for any nonzero element because sqrt5 is irrational.
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        return quadext(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        pair = self._lift(other)
        if pair is None:
            return float(self) / other if isinstance(other, float) else NotImplemented
        c, d = pair
        if d == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return quadext(self.a / c, self.b / c)
        return self * QuadExt(c, d)._inverse()

    def __rtruediv__(self, other):
        pair = self._lift(other)
        if pair is None:
            return other / float(self) if isinstance(other, float) else NotImplemented
        return quadext(pair[0], pair[1]) * self._inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self._inverse() ** (-exponent)
        result, base = Fraction(1), self
        for _ in range(exponent):
            result = base * result
        return result

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if self._sign() >= 0 else -self

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other):
        pair = self._lift(other)
        if pair is None:
            if isinstance(other, float):
                mine = float(self)
                return -1 if mine < other else 1 if mine > other else 0
            return None
        return quadext_diff_sign(self, pair)

    def __eq__(self, other):
        pair = self._lift(other)
        if pair is None:
            return float(self) == other if isinstance(other, float) else NotImplemented
        return self.a == pair[0] and self.b == pair[1]

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, "sqrt5"))

    def __bool__(self):
        return bool(self.a or self.b)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(5.0)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self):
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt(5)"


def quadext_diff_sign(left: QuadExt, right_pair) -> int:
    """Exact sign of left - (a + b sqrt5)."""
    diff = QuadExt(left.a - right_pair[0], left.b - right_pair[1])
    return diff._sign()


def quadext(a, b=0):
    """Build a + b*sqrt(5), collapsing b == 0 to a plain Fraction."""
    b = Fraction(b)
    if b == 0:
        return Fraction(a)
    return QuadExt(a, b)


#: (sqrt(5) - 1) / 2, the positive root of t^2 + t - 1
PHI = quadext(Fraction(-1, 2), Fraction(1, 2))
SQRT5 = quadext(0, 1)


def is_exact_scalar(value) -> bool:
    return isinstance(value, (int, Fraction, QuadExt)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact_scalar(v) for v in values)


def rational_types(kinds) -> bool:
    """Whether every type in `kinds` is an exact rational: int or
    Fraction, with bool, an int subclass, counted as inexact."""
    return all(issubclass(t, (int, Fraction)) and not issubclass(t, bool)
               for t in kinds)


def quotient(num, den):
    """num / den: a Fraction when both are ints or Fractions, so a
    rational quotient stays exact, and plain division otherwise."""
    if rational_types({type(num), type(den)}):
        return Fraction(num, den)
    return num / den


def integer_row(row):
    """(integers, scale) for a row of ints and Fractions: the row times
    the lcm of its denominators, and that lcm."""
    scale = math.lcm(*{v.denominator for v in row})
    return [v.numerator * (scale // v.denominator) for v in row], scale


def auto_tolerance(exact: bool, size, magnitude=0):
    """0 on exact data. Else FLOAT_TOLERANCE times `size`, the size of the
    values compared, plus ROUNDING_TOLERANCE times `magnitude` when they
    are differences of values that large, for the rounding they carry."""
    if exact:
        return 0
    return FLOAT_TOLERANCE * abs(float(size)) + ROUNDING_TOLERANCE * abs(float(magnitude))


def power_of_two_ratio(a, b) -> float:
    """The power of two within a factor of two of |a / b|, 1 if a or b is
    0. Multiplying by it is exact, and it is the same for 2^k a and 2^k b."""
    if not (a and b):
        return 1.0
    return math.ldexp(1.0, math.frexp(a)[1] - math.frexp(b)[1])


def parse_scalar(raw):
    """Read a scalar from JSON data: int, float, or a 'p/q' string, q > 0."""
    if isinstance(raw, bool):
        raise ValueError(f"not a scalar: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"not a finite scalar: {raw!r}")
        return raw
    if isinstance(raw, str):
        text = raw.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
        raise ValueError(f"not a rational literal: {raw!r}")
    raise ValueError(f"not a scalar: {raw!r}")


def scalar_to_json(value):
    """Encode a scalar for JSON: exact rationals as 'p/q', floats as-is."""
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    raise ValueError(f"cannot serialize scalar of type {type(value).__name__}")


def scalar_text(value) -> str:
    """A scalar as a game file writes it (-1, 1/2, 0.25), for messages."""
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return str(scalar_to_json(value))
    return str(value)


def short_text(value) -> str:
    """Compact form: rationals as p/q, Q(sqrt 5) as a + b*sqrt(5), floats
    at 12 significant digits, with -0.0 as 0."""
    if isinstance(value, (int, Fraction, QuadExt)):
        return str(value)
    return f"{float(value) or 0.0:.12g}"


def vector_text(values) -> str:
    return "(" + ", ".join(short_text(v) for v in values) + ")"


def format_scalar(value) -> str:
    """`short_text`, followed by the decimal value of a rational that is
    not an integer and of a Q(sqrt 5) number."""
    if isinstance(value, QuadExt) or (isinstance(value, Fraction)
                                      and value.denominator != 1):
        return f"{value} ({float(value):.12g})"
    return short_text(value)
