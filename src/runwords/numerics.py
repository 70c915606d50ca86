"""Certified numerics: the dominant root, root geometry, asymptotics.

The ground-truth root method is safeguarded Newton iteration on a
bracket certified by an exact sign change of the integer polynomial:
Newton steps from dyadic points propose narrower brackets, each kept
only if the polynomial changes sign across it, and bisection takes over
when a step fails.  Every enclosure is therefore certified.  Interval
evaluations round their inputs outward to the working precision, so
endpoint sizes stay proportional to the digits asked for.  The complex
root finder is numerical with residual-based error radii; it backs the
root-geometry checks, not the certified values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .interval import Interval, _refine
from .poly import (
    IntPoly, _check_k, _check_n, fibonacci_poly, pk_fraction, reciprocal_fibonacci_poly, tk_fraction,
)

GUARD_DIGITS = 10
# Bits kept beyond the working digits when an enclosure is rounded outward.
GUARD_BITS = 32
# Margin, in bits, between a Newton candidate bracket and the error
# estimate |p''/p'| (width/2)^2 of the step; a step that falls short
# anyway fails its certificate and the round bisects.
NEWTON_SLACK_BITS = 2
# Largest residual |p(z)| all_roots accepts, and its iteration cap.
RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 1000


class RootFindingError(RuntimeError):
    """Raised when the complex root iteration fails to converge."""


def _check_params(k: int, precision_digits: int) -> None:
    _check_k(k)
    if type(precision_digits) is not int or precision_digits < 1:  # bool is refused too
        raise ValueError(f"need precision_digits >= 1, got {precision_digits!r}")


def _log2_inverse(x: Fraction) -> int:
    """log2(1/x) for x > 0, to within one."""
    return x.denominator.bit_length() - x.numerator.bit_length()


def _work_bits(work: int) -> int:
    """Significant bits that carry `work` decimal digits, plus a guard."""
    return math.ceil(work * math.log2(10)) + GUARD_BITS


def bisect_root(poly: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> Interval:
    """Enclosure of the root of poly in [lo, hi] to width < tol.

    Requires a sign change poly(lo) < 0 < poly(hi), and keeps one at
    every step, checked by exact rational evaluation, so the bracket is a
    certified enclosure at all times.  Each round takes a Newton step
    from the bracket midpoint.  Newton about doubles the correct bits, so
    the candidate bracket is the step's result +- 2^-p, with p close to
    twice the bits of the current width, less the bits of |p''/p'| (but
    no more than tol needs), rounded outward to dyadic endpoints.  The
    candidate replaces the bracket only if it is at most half as wide and
    the polynomial changes sign across it; otherwise the round bisects at
    the midpoint instead.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not poly(lo) < 0 < poly(hi):
        raise ValueError(f"no sign change for coefficients {poly.coeffs} on [{lo}, {hi}]")
    slope = poly.derivative()
    bend = slope.derivative()
    while hi - lo >= tol:
        width = hi - lo
        mid = (lo + hi) / 2
        value = poly(mid)
        if value == 0:
            return Interval(mid, mid)
        derivative = slope(mid)
        if derivative != 0:
            curvature_bits = math.ceil(abs(bend(mid) / derivative)).bit_length()
            p = min(
                2 * _log2_inverse(width) - curvature_bits - NEWTON_SLACK_BITS,
                _log2_inverse(tol) + 3,
            )
            step = mid - value / derivative
            eps = Fraction(2) ** -p
            candidate = Interval(step - eps, step + eps).round_out(max(p, 1) + 2)
            a, b = max(lo, candidate.lo), min(hi, candidate.hi)
            if b - a < width / 2 and poly(a) < 0 < poly(b):
                lo, hi = a, b
                continue
        if value < 0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def phi(k: int, precision_digits: int = 15) -> Interval:
    """Generalized golden ratio: the unique root in (1, 2) of
    x^k - x^(k-1) - ... - x - 1, enclosed to width < 10^-precision_digits.

    The bracket [1, 2] is certified (values 1-k < 0 and 1 > 0) and the
    positive root is unique by Descartes' rule of signs.
    """
    _check_params(k, precision_digits)
    tol = Fraction(1, 10**precision_digits)
    return bisect_root(reciprocal_fibonacci_poly(k), Fraction(1), Fraction(2), tol)


def inverse_phi(k: int, precision_digits: int = 15) -> Interval:
    """Enclosure of 1/phi_k, the unique root of g_k in (0, 1).

    No refinement is needed: x -> 1/x maps an interval [lo, hi] inside
    [1, 2] of width w to one of width w / (lo * hi) <= w.
    """
    return 1 / phi(k, precision_digits)


def limit_value(k: int, precision_digits: int = 15) -> Interval:
    """Limiting expected bit value as word length grows.

    The ones and total-bits generating functions share the double pole
    1/phi_k and the denominator g_k^2, so the ratio of their leading
    coefficients is the ratio of their numerators at x = 1/phi_k.  The
    root enclosure is refined until the result is narrower than
    10^-precision_digits.
    """
    _check_params(k, precision_digits)
    ones, bits = pk_fraction(k)[0], tk_fraction(k)[0]
    tol = Fraction(1, 10**precision_digits)

    def attempt(work: int) -> Interval | None:
        x = inverse_phi(k, work).round_out(_work_bits(work))
        result = ones(x) / bits(x)
        return result if result.width < tol else None

    return _refine(attempt, precision_digits + GUARD_DIGITS)


def asymptotic_coefficient(k: int, target: str, n: int, precision_digits: int = 15) -> Interval:
    """Leading-term estimate of the n-th series coefficient.

    The dominant singularity 1/phi_k is a double pole of both series, so
    the coefficient grows like 2 n phi^(n+2) f(1/phi) / (g^2)''(1/phi),
    with (g^2)'' = 2 (g')^2 at the root of g.  Returned as an enclosure
    with relative width below 10^-precision_digits.
    """
    _check_params(k, precision_digits)
    if target not in ("P", "T"):
        raise ValueError(f"target must be 'P' or 'T', got {target!r}")
    _check_n(n)
    if n == 0:
        raise ValueError("leading term n * phi^n is meaningless at n=0")
    f = (pk_fraction if target == "P" else tk_fraction)(k)[0]
    g_prime = fibonacci_poly(k).derivative()
    rel_tol = Fraction(1, 10**precision_digits)

    def attempt(work: int) -> Interval | None:
        bits = _work_bits(work)
        root = phi(k, work)
        x = (1 / root).round_out(bits)
        slope = g_prime(x)  # g' > 0 on (0, 1), so slope * slope is the exact square
        value = (2 * n) * _power(root, n + 2, bits) * f(x) / (2 * slope * slope)
        return value if value.width < abs(value).lo * rel_tol else None

    return _refine(attempt, precision_digits + GUARD_DIGITS)


def _power(base: Interval, exponent: int, bits: int) -> Interval:
    """Enclosure of base ** exponent for base > 0, rounded outward to `bits` after every product.

    Square-and-multiply keeps every endpoint near `bits` significant
    bits, where the exact power would have exponent times as many.
    """
    result = Interval.point(1)
    for digit in bin(exponent)[2:]:
        result = (result * result).round_out(bits)
        if digit == "1":
            result = (result * base).round_out(bits)
    return result


@dataclass(frozen=True)
class ComplexRootSet:
    k: int
    roots: tuple[complex, ...]
    error_radii: tuple[float, ...]
    residuals: tuple[float, ...]


def all_roots(k: int) -> ComplexRootSet:
    """All complex roots of x^k - x^(k-1) - ... - x - 1.

    Durand-Kerner simultaneous iteration from k points on the circle
    |z| = 1.5 with a fixed rotation offset (deterministic).  Runs in
    40-digit arithmetic so residuals clear the tolerance even where
    float64 cancellation would floor out (|p| ~ 2^k near phi_k).  Fails
    loudly if residuals do not drop below RESIDUAL_TOL.
    """
    if not isinstance(k, int) or not 2 <= k <= 32:
        raise ValueError(f"need 2 <= k <= 32, got {k!r}")
    poly = reciprocal_fibonacci_poly(k)
    with mpmath.workdps(40):
        z = [
            mpmath.mpf("1.5") * mpmath.expjpi(mpmath.mpf(2 * j) / k + mpmath.mpf("0.5") / k)
            for j in range(k)
        ]
        tiny = mpmath.mpf(10) ** -35
        for _ in range(MAX_ITERATIONS):
            converged = True
            for j in range(k):
                denom = mpmath.mpc(1)
                for i in range(k):
                    if i != j:
                        denom *= z[j] - z[i]
                step = poly(z[j]) / denom
                z[j] -= step
                if abs(step) > tiny * max(1, abs(z[j])):
                    converged = False
            if converged:
                break
        residuals = [float(abs(poly(w))) for w in z]
        z = [complex(w) for w in z]
    if max(residuals) > RESIDUAL_TOL:
        raise RootFindingError(
            f"root iteration for k={k} stalled with max residual {max(residuals):.3e}"
        )
    deriv = poly.derivative()
    radii = []
    for w, res in zip(z, residuals):
        dp = abs(deriv(w))
        radii.append(k * res / dp if dp > 0 else float("inf"))
    order = sorted(range(k), key=lambda j: (z[j].real, z[j].imag))
    return ComplexRootSet(
        k=k,
        roots=tuple(z[j] for j in order),
        error_radii=tuple(radii[j] for j in order),
        residuals=tuple(residuals[j] for j in order),
    )
