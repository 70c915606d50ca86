"""Dense integer-coefficient polynomials and the specific ones we need.

Degrees stay small (a few times k), so a plain coefficient list is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[i] + other[i] for i in range(n))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[i] - other[i] for i in range(n))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self or not other:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, complex, Interval.

        A Fraction n/d is evaluated in integers, as d^degree p(n/d), and
        reduced once at the end.
        """
        if isinstance(x, Fraction):
            n, d = x.numerator, x.denominator
            acc, scale = 0, 1
            for c in reversed(self.coeffs):
                acc = acc * n + c * scale
                scale *= d
            return Fraction(acc, scale // d) if self.coeffs else Fraction(0)
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)


def fibonacci_poly(k: int) -> IntPoly:
    """x^k + x^(k-1) + ... + x - 1; its smallest-modulus root is 1/phi_k."""
    _check_k(k)
    return IntPoly([-1] + [1] * k)


def reciprocal_fibonacci_poly(k: int) -> IntPoly:
    """x^k - x^(k-1) - ... - x - 1; its largest-modulus root is phi_k."""
    _check_k(k)
    return IntPoly([-1] * k + [1])


def pk_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the total 1s count, as numerator/denominator.

    Numerator x * sum_{i=0}^{k-2} (i+1) x^i over the square of the
    run-constraint polynomial.
    """
    g = fibonacci_poly(k)
    numerator = IntPoly([0] + [i + 1 for i in range(k - 1)])
    return numerator, g * g


def tk_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the total bit count (n times the word count).

    The word counts have generating function -h/g with h = 1 + x + ...
    + x^(k-1) and g the run-constraint polynomial; termwise x*d/dx turns
    it into x * (h g' - h' g) over the same squared denominator.
    """
    g, h = fibonacci_poly(k), IntPoly([1] * k)
    return IntPoly([0, 1]) * (h * g.derivative() - h.derivative() * g), g * g
