"""Dense integer-coefficient polynomials and the specific ones we need.

Degrees stay small (at most 2k+1), so a plain coefficient list is fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_k


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
        """Horner evaluation; works for int, Fraction, complex, Interval."""
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

    Numerator x * (sum_{i=0}^{k-2} (2i+2) x^i
                   + sum_{i=k-1}^{2k-2} (2k-i-1) x^i)
    over the same squared denominator.
    """
    g = fibonacci_poly(k)
    inner = [2 * i + 2 for i in range(k - 1)]
    inner += [2 * k - i - 1 for i in range(k - 1, 2 * k - 1)]
    numerator = IntPoly([0] + inner)
    return numerator, g * g
