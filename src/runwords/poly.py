"""Dense integer-coefficient polynomials and the ones the word counts need.

The one polynomial typed in is h_k = 1 + x + ... + x^(k-1), a run of
fewer than k 1s counted by its length.  Every other one is derived from
it: g_k = x h_k - 1, phi_k's polynomial x^k - h_k, and the numerators of
the word, 1s and bits generating functions.  Degrees stay small (a few
times k), so a plain coefficient list is fine.  Evaluation is one Horner
loop over whatever numbers it is given, and ``_enclose`` is its outward-
rounded integer fixed-point form at one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub


# ``type(...) is int`` refuses bool, which isinstance would let through.
def _check_k(k: int) -> None:
    if type(k) is not int or k < 2:
        raise ValueError(f"run length k must be an integer >= 2, got {k!r}")


def _check_n(n: int) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"word length n must be an integer >= 0, got {n!r}")


def max_ones(n: int, k: int) -> int:
    """Largest number of 1s a length-n word can carry without a run of k."""
    return n - n // k


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with integer coefficients; ``coeffs[i]`` is the x^i term.

    Normalized so the highest-degree coefficient is nonzero (the zero
    polynomial is the empty tuple).
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[i] - other[i] for i in range(n))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction and complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _enclose(self, x: int, s: int) -> tuple[int, int]:
        """Integers lo, hi with lo 2^-s <= p(x 2^-s) <= hi 2^-s, for x >= 0.

        Fixed-point Horner rounded outward: x >= 0 keeps the order of the
        accumulator's ends, so each product is rounded down for lo and up
        for hi.
        """
        lo = hi = 0
        for c in reversed(self.coeffs):
            c <<= s
            lo = (lo * x >> s) + c
            hi = c - (-hi * x >> s)
        return lo, hi


def _x_power(i: int) -> IntPoly:
    return IntPoly([0] * i + [1])


def _h(k: int) -> IntPoly:
    """h_k = 1 + x + ... + x^(k-1), the polynomial every other one derives from."""
    _check_k(k)
    return IntPoly([1] * k)


def fibonacci_poly(k: int) -> IntPoly:
    """g_k = x h_k - 1 = x^k + ... + x - 1; its smallest-modulus root is 1/phi_k."""
    return _x_power(1) * _h(k) - _x_power(0)


def reciprocal_fibonacci_poly(k: int) -> IntPoly:
    """x^k - h_k = x^k - x^(k-1) - ... - x - 1; its largest-modulus root is phi_k."""
    return _x_power(k) - _h(k)


def words_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the word counts, -h_k / g_k.

    A word is a sequence of blocks 1^i 0 (i < k) and a last run 1^i
    (i < k), so the series is h / (1 - x h) = -h / g.
    """
    return IntPoly(()) - _h(k), fibonacci_poly(k)


def _times_h(p: IntPoly, k: int) -> IntPoly:
    """p h_k in O(deg p + k) additions: k neighbours summed as a prefix-sum difference."""
    sums = list(accumulate(p.coeffs + (0,) * (k - 1), initial=0))
    return IntPoly(sums[1:k] + list(map(sub, sums[k:], sums)))


def _g_squared(k: int) -> IntPoly:
    """g_k^2 = x (g_k h_k) - g_k, the denominator of the 1s and bits series."""
    g = fibonacci_poly(k)
    return _x_power(1) * _times_h(g, k) - g


def pk_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the total 1s count, x h_k' / g_k^2.

    Marking each 1 by y turns -h/g into h(xy) / (1 - x h(xy)), whose
    derivative in y at y = 1 is x h' / (1 - x h)^2.
    """
    return _x_power(1) * _h(k).derivative(), _g_squared(k)


def tk_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the total bit count (n times the word count).

    Termwise x*d/dx of the word counts p/q = -h/g: x (p' q - p q') / q^2,
    whose numerator x (h g' - h' g) is x (h^2 + h'), since g = x h - 1
    has g' = h + x h'.  The library takes T_n as n * count_words(n); this
    series is ``verify``'s independent route to it.
    """
    square, slope = _times_h(_h(k), k), _h(k).derivative()
    return _x_power(1) * IntPoly(c + slope[i] for i, c in enumerate(square.coeffs)), _g_squared(k)
