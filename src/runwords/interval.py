"""Certified real enclosures with exact rational endpoints.

Endpoints are ``fractions.Fraction``, so every arithmetic operation is
exact and the enclosure property is preserved without rounding control:
the true value of any expression lies inside the computed interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

# Most attempts of a refine loop, each at twice the digits of the one before.
MAX_ROUNDS = 12


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(x: Rational) -> "Interval":
        x = Fraction(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= Fraction(x) <= self.hi

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other)

    def __add__(self, other) -> "Interval":
        other = self._coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Interval":
        other = self._coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        other = self._coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError(f"division by interval containing 0: {other}")
        return self * Interval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "Interval":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"only nonnegative integer powers, got {exponent!r}")
        if exponent == 0:
            return Interval.point(1)
        if exponent % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**exponent, self.hi**exponent)
        if self.hi <= 0:
            return Interval(self.hi**exponent, self.lo**exponent)
        return Interval(Fraction(0), max(self.lo**exponent, self.hi**exponent))

    def reciprocal(self) -> "Interval":
        return 1 / self

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def __str__(self) -> str:
        return f"[{float(self.lo)}, {float(self.hi)}]"


def round_fraction(x: Fraction, digits: int) -> str:
    """Decimal string of x with exactly `digits` places, round-half-even."""
    sign = "-" if x < 0 else ""
    scaled = abs(Fraction(x)) * 10**digits
    whole, frac = divmod(scaled.numerator, scaled.denominator)
    half = Fraction(frac, scaled.denominator)
    if half > Fraction(1, 2) or (half == Fraction(1, 2) and whole % 2 == 1):
        whole += 1
    int_part, dec_part = divmod(whole, 10**digits)
    if digits == 0:
        return f"{sign}{int_part}"
    return f"{sign}{int_part}.{dec_part:0{digits}d}"


def certified_decimal(enclosure: Interval, digits: int) -> str | None:
    """Decimal rendering valid for every point of the enclosure.

    Returns the string if both endpoints round to the same digits,
    otherwise None (caller should refine the enclosure and retry).
    """
    lo = round_fraction(enclosure.lo, digits)
    hi = round_fraction(enclosure.hi, digits)
    return lo if lo == hi else None


def _refine(attempt, work: int):
    """First result of ``attempt(work)`` that is not None, doubling ``work`` each round."""
    for _ in range(MAX_ROUNDS):
        result = attempt(work)
        if result is not None:
            return result
        work *= 2
    raise RuntimeError(f"no certified result after {MAX_ROUNDS} rounds of refinement")


def render_decimal(compute, digits: int) -> str:
    """Certified decimal of a refinable quantity.

    ``compute(work_digits)`` must return an enclosure of width below
    10^-work_digits.  If the enclosure straddles a rounding boundary the
    precision is escalated rather than printing an uncertain digit.
    """
    return _refine(lambda work: certified_decimal(compute(work), digits), digits + 2)
