"""Certified numerics: the dominant root, root geometry, asymptotics.

The ground-truth root method is safeguarded Newton iteration on a
bracket certified by a sign change of the integer polynomial: Newton
steps from dyadic points propose narrower brackets, each kept only if
the polynomial changes sign across it, and bisection takes over when a
step fails.  Every enclosure is therefore certified.  Values are
integer mantissas at a scale 2^-s: a sign is read from the outward-
rounded fixed-point Horner enclosure (``IntPoly._enclose``) a guard
above the bracket's scale, and from exact evaluation only when that
enclosure contains 0.  The limit and the asymptotic coefficient are
evaluated the same way, at the working precision plus a guard, so
mantissa sizes stay proportional to the digits asked for.  The complex
root finder is numerical with residual-based error radii; it backs the
root-geometry checks, not the certified values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .interval import Interval, _refine
from .poly import (
    IntPoly, _check_k, _check_n, fibonacci_poly, pk_fraction, reciprocal_fibonacci_poly, tk_fraction,
)

GUARD_DIGITS = 10
# Bits kept beyond the working precision in every fixed-point evaluation.
GUARD_BITS = 64
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


def _work_bits(work: int) -> int:
    """Bits after the binary point that carry `work` decimal digits, plus a guard."""
    return math.ceil(work * math.log2(10)) + GUARD_BITS


def _sign(poly: IntPoly, m: int, e: int, s: int) -> tuple[int, int]:
    """Sign of poly(m 2^-e), and the truncated fixed-point value at 2^-s (s >= e).

    The sign comes from the enclosure ``poly._enclose`` where it excludes
    0, and from exact evaluation otherwise; the value is 0 for m <= 0,
    outside the enclosure's domain.
    """
    lo = hi = 0
    if m > 0:
        x = m << (s - e)
        lo, hi = poly._enclose(x, x, s)
        if lo > 0 or hi < 0:
            return (1 if lo > 0 else -1), lo
    value = poly(Fraction(m, 1 << e))
    return (value > 0) - (value < 0), lo


def bisect_root(poly: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> Interval:
    """Enclosure of the root of poly in [lo, hi] to width < tol.

    Requires dyadic ends with poly(lo) < 0 < poly(hi), checked exactly,
    and keeps a sign change at every step, so the bracket is a certified
    enclosure at all times.  The bracket is a pair of integer mantissas
    at a scale 2^-e, and signs come from ``_sign``.  Each round takes a
    Newton step from the bracket midpoint, with value, slope and
    curvature in truncated fixed point.  Newton about doubles the
    correct bits, so the candidate bracket is the step's result +- 2^-p,
    with p close to twice the bits of the current width, less the bits
    of |p''/p'| (but no more than tol needs).  The candidate replaces the
    bracket only if it is at most half as wide and the polynomial changes
    sign across it; otherwise the round bisects at the midpoint instead.
    """
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(tol)
    if not poly(lo) < 0 < poly(hi):
        raise ValueError(f"no sign change for coefficients {poly.coeffs} on [{lo}, {hi}]")
    if any(d & (d - 1) for d in (lo.denominator, hi.denominator)):
        raise ValueError(f"need dyadic bracket ends, got [{lo}, {hi}]")
    e = max(lo.denominator, hi.denominator).bit_length() - 1
    a, b = int(lo * (1 << e)), int(hi * (1 << e))
    slope = poly.derivative()
    bend = slope.derivative()
    tol_bits = tol.denominator.bit_length() - tol.numerator.bit_length()
    while (b - a) * tol.denominator >= tol.numerator << e:
        a, b, e = a << 1, b << 1, e + 1
        mid = (a + b) >> 1
        width_bits = e - (b - a).bit_length()  # log2(1/width), to within one
        w = max(e, 2 * width_bits) + GUARD_BITS
        sign, value = _sign(poly, mid, e, w)
        if sign == 0:
            return Interval.point(Fraction(mid, 1 << e))
        # Slope and curvature need only about e bits; the value needs 2e.
        x = mid << GUARD_BITS
        derivative = slope._enclose(x, x, e + GUARD_BITS)[0] if mid > 0 else 0
        if derivative != 0:
            curvature = abs(bend._enclose(x, x, e + GUARD_BITS)[0])
            curvature_bits = (-(-curvature // abs(derivative))).bit_length()
            p = min(2 * width_bits - curvature_bits - NEWTON_SLACK_BITS, tol_bits + 3)
            q = max(p, e) + 2  # the step's two roundings stay below 2^-p / 2
            step = (mid << (q - e)) - (value << (q + e + GUARD_BITS - w)) // derivative
            a2 = max(a << (q - e), step - (1 << (q - p)))
            b2 = min(b << (q - e), step + (1 << (q - p)))
            if 0 < 2 * (b2 - a2) < (b - a) << (q - e) and (
                _sign(poly, a2, q, q + GUARD_BITS)[0] < 0 < _sign(poly, b2, q, q + GUARD_BITS)[0]
            ):
                a, b, e = a2, b2, q
                continue
        if sign < 0:
            a = mid
        else:
            b = mid
    return Interval(Fraction(a, 1 << e), Fraction(b, 1 << e))


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


# Fixed-point enclosures: pairs (lo, hi) of integers that stand for
# [lo 2^-s, hi 2^-s], each operation rounding lo down and hi up.

def _fixed(x: Interval, s: int) -> tuple[int, int]:
    return (x.lo.numerator << s) // x.lo.denominator, -((-x.hi.numerator << s) // x.hi.denominator)


def _interval(lo: int, hi: int, s: int) -> Interval:
    return Interval(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def _mul(x: tuple[int, int], y: tuple[int, int], s: int) -> tuple[int, int]:
    products = [a * b for a in x for b in y]
    return min(products) >> s, -(-max(products) >> s)


def _div(x: tuple[int, int], y: tuple[int, int], s: int) -> tuple[int, int]:
    """x / y for y > 0."""
    (xl, xh), (yl, yh) = x, y
    if yl <= 0:
        raise ZeroDivisionError("fixed-point divisor not known to be positive")
    return (xl << s) // (yh if xl >= 0 else yl), -((-xh << s) // (yl if xh >= 0 else yh))


def _power(base: tuple[int, int], exponent: int, s: int) -> tuple[int, int]:
    """Fixed-point enclosure of base ** exponent, by square-and-multiply."""
    result = (1 << s, 1 << s)
    for digit in bin(exponent)[2:]:
        result = _mul(result, result, s)
        if digit == "1":
            result = _mul(result, base, s)
    return result


def limit_value(k: int, precision_digits: int = 15) -> Interval:
    """Limiting expected bit value as word length grows.

    The ones and total-bits generating functions share the double pole
    1/phi_k and the denominator g_k^2, so the ratio of their leading
    coefficients is the ratio of their numerators at x = 1/phi_k, each
    evaluated in fixed point rounded outward.  The root enclosure is
    refined until the result is narrower than 10^-precision_digits.
    """
    _check_params(k, precision_digits)
    ones, bits = pk_fraction(k)[0], tk_fraction(k)[0]

    def attempt(work: int) -> Interval | None:
        s = _work_bits(work)
        x = _fixed(inverse_phi(k, work), s)
        lo, hi = _div(ones._enclose(*x, s), bits._enclose(*x, s), s)
        return _interval(lo, hi, s) if (hi - lo) * 10**precision_digits < 1 << s else None

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

    def attempt(work: int) -> Interval | None:
        s = _work_bits(work)
        root = _fixed(phi(k, work), s)
        x = _div((1 << s, 1 << s), root, s)
        slope = g_prime._enclose(*x, s)
        lo, hi = _div(_mul(_power(root, n + 2, s), f._enclose(*x, s), s), _mul(slope, slope, s), s)
        lo, hi = n * lo, n * hi
        return _interval(lo, hi, s) if (hi - lo) * 10**precision_digits < lo else None

    return _refine(attempt, precision_digits + GUARD_DIGITS)


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
    import mpmath  # the complex roots are its only use here, so CLI start-up skips it

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
