"""Certified numerics: the dominant root, root geometry, asymptotics.

The ground-truth root method is sign-change bisection with exact
rational evaluation, so every enclosure is certified.  The complex root
finder is numerical with residual-based error radii; it backs the
root-geometry checks, not the certified values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .core import _check_k, _check_n
from .interval import Interval, _refine
from .poly import IntPoly, fibonacci_poly, pk_fraction, reciprocal_fibonacci_poly, tk_fraction

GUARD_DIGITS = 10


class RootFindingError(RuntimeError):
    """Raised when the complex root iteration fails to converge."""


def _check_params(k: int, precision_digits: int) -> None:
    _check_k(k)
    if type(precision_digits) is not int or precision_digits < 1:  # bool is refused too
        raise ValueError(f"need precision_digits >= 1, got {precision_digits!r}")


def bisect_root(poly: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> Interval:
    """Enclosure of the root of poly in [lo, hi] to width < tol.

    Requires a sign change poly(lo) < 0 < poly(hi); every step evaluates
    the polynomial exactly at a rational midpoint, so the bracket is a
    certified enclosure at all times.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not poly(lo) < 0 < poly(hi):
        raise ValueError(f"no sign change for {poly} on [{lo}, {hi}]")
    while hi - lo >= tol:
        mid = (lo + hi) / 2
        value = poly(mid)
        if value == 0:
            return Interval(mid, mid)
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
    return phi(k, precision_digits).reciprocal()


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
        x = inverse_phi(k, work)
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
        root = phi(k, work)
        x = root.reciprocal()
        value = (2 * n) * root ** (n + 2) * f(x) / (2 * g_prime(x) ** 2)
        return value if value.width < abs(value).lo * rel_tol else None

    return _refine(attempt, precision_digits + GUARD_DIGITS)


@dataclass(frozen=True)
class ComplexRootSet:
    k: int
    roots: tuple[complex, ...]
    error_radii: tuple[float, ...]
    residuals: tuple[float, ...]


def all_roots(
    k: int,
    residual_tol: float = 1e-12,
    max_iterations: int = 1000,
) -> ComplexRootSet:
    """All complex roots of x^k - x^(k-1) - ... - x - 1.

    Durand-Kerner simultaneous iteration from k points on the circle
    |z| = 1.5 with a fixed rotation offset (deterministic).  Runs in
    40-digit arithmetic so residuals clear the tolerance even where
    float64 cancellation would floor out (|p| ~ 2^k near phi_k).  Fails
    loudly if residuals do not drop below residual_tol.
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
        for _ in range(max_iterations):
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
    if max(residuals) > residual_tol:
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
