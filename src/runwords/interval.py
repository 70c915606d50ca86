"""Certified real enclosures with exact rational endpoints.

An ``Interval`` is a record of two ``fractions.Fraction`` endpoints,
``lo`` and ``hi``, that enclose a real number.  ``numerics`` computes in
integer fixed point rounded outward and hands back dyadic endpoints of
about as many bits as the digits asked for (L_k's are exact rationals of
twice as many); checks compare endpoints exactly.  The one operation is
the exact reciprocal ``r / x`` for a rational ``r``, used by
``numerics.inverse_phi`` and the ``phi`` command.  This module also
renders enclosures as certified decimals, refining them until every point
rounds to the same digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Most attempts of render_decimal, each at twice the digits of the one before.
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

    def __rtruediv__(self, other) -> "Interval":
        """Enclosure of other / v over the points v of self, for a rational other."""
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"division by interval containing 0: {self}")
        a, b = Fraction(other) / self.lo, Fraction(other) / self.hi
        return Interval(min(a, b), max(a, b))

    def __str__(self) -> str:
        return f"[{float(self.lo)}, {float(self.hi)}]"


def round_fraction(x: Fraction | int, digits: int) -> str:
    """Decimal string of a rational x with exactly `digits` places, round-half-even.

    In integers: |x| 10^digits = whole + r / den is a tie when 2 r == den.
    """
    if type(digits) is not int or digits < 0:  # bool is refused too
        raise ValueError(f"need digits >= 0, got {digits!r}")
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    whole, r = divmod(abs(num) * 10**digits, den)
    if 2 * r > den or (2 * r == den and whole % 2 == 1):
        whole += 1
    text = _decimal(whole).rjust(digits + 1, "0")
    if digits == 0:
        return f"{sign}{text}"
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


# Digits converted at a time: Python refuses to convert an int of more
# than 4300 digits to a string by default.
_PIECE = 4000
_PIECE_SCALE = 10**_PIECE


def _decimal(n: int) -> str:
    """Decimal digits of n >= 0, converted in pieces of _PIECE digits."""
    pieces = []
    while n >= _PIECE_SCALE:
        n, low = divmod(n, _PIECE_SCALE)
        pieces.append(f"{low:0{_PIECE}d}")
    return str(n) + "".join(reversed(pieces))


def certified_decimal(enclosure: Interval, digits: int) -> str | None:
    """Decimal rendering valid for every point of the enclosure.

    Returns the string if both endpoints round to the same digits,
    otherwise None (caller should refine the enclosure and retry).
    """
    lo = round_fraction(enclosure.lo, digits)
    hi = round_fraction(enclosure.hi, digits)
    return lo if lo == hi else None


def render_decimal(compute, digits: int) -> str:
    """Certified decimal of a refinable quantity.

    ``compute(work_digits)`` must return an enclosure of width below
    10^-work_digits.  The library's one refine loop: where the enclosure
    straddles a rounding boundary, the work is doubled, up to MAX_ROUNDS
    times, rather than printing an uncertain digit.
    """
    work = digits + 2
    for _ in range(MAX_ROUNDS):
        decimal = certified_decimal(compute(work), digits)
        if decimal is not None:
            return decimal
        work *= 2
    raise RuntimeError(f"no certified result after {MAX_ROUNDS} rounds of refinement")
