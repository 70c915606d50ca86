"""Certified numerics: the dominant root, root geometry, asymptotics.

The ground-truth root method is Newton iteration certified once:
uncertified fixed-point Newton steps climb a precision ladder that
halves from the target width, starting in ``phi`` from a float64
estimate of phi_k, and the bracket of the target width about the last
iterate is returned only if the integer polynomial changes sign across
it; otherwise bisection of the given bracket takes over.  The float only
saves work and never decides a digit, and every enclosure is certified
by a sign change.  Values are integer mantissas at a scale 2^-s: a sign
is read from the outward-rounded fixed-point Horner enclosure
(``IntPoly._enclose``) a guard above the bracket's scale, and from exact
integer evaluation only when that enclosure contains 0.  The limit and
the asymptotic coefficient are rational functions of phi_k, evaluated
the same way in one pass on its enclosure at the working precision plus
a guard, so mantissa sizes stay proportional to the digits asked for.
The complex roots are certified too: closed-form float estimates (phi_k's
and the fixed points of a contraction), one integer fixed-point Newton
polish of each root on or above the real axis, evaluated exactly through
the trinomial (x - 1) p, the rest as their conjugates, then Smith's disks
about the polished doubles, computed exactly in Gaussian integers and
checked pairwise disjoint, so each disk holds exactly one root.  No step
uses mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .interval import Interval
from .poly import IntPoly, _check_k, _check_n, reciprocal_fibonacci_poly

GUARD_DIGITS = 10
# Bits kept beyond the working precision in every fixed-point evaluation.
GUARD_BITS = 64
# Bits that a float64 root estimate is trusted to hold (it holds about
# 50).  The Newton ladder stops halving at SEED_BITS // 2, and the
# certificate's grid 2^-t has t >= SEED_BITS + 2, so at a few digits the
# certified bracket still lies within the estimate +- 2^-SEED_BITS.
SEED_BITS = 44
# Largest k that all_roots takes: a fixed cap, not a time budget.
MAX_ROOTS_K = 64
# An imaginary part below this on a float root estimate is rounding
# noise on a real root: the polish starts such an estimate on the axis.
SETTLED = 2.0**-26
# Bits after the binary point of the polishing Newton step.
POLISH_BITS = 128


class RootFindingError(RuntimeError):
    """Raised when the root estimates are not conjugate pairs or their disks are not certified."""


def _check_params(k: int, precision_digits: int) -> None:
    _check_k(k)
    if type(precision_digits) is not int or precision_digits < 1:  # bool is refused too
        raise ValueError(f"need precision_digits >= 1, got {precision_digits!r}")


def _work_bits(work: int) -> int:
    """Bits after the binary point that carry `work` decimal digits, plus a guard."""
    return math.ceil(work * math.log2(10)) + GUARD_BITS


def _sign(poly: IntPoly, m: int, e: int, s: int) -> int:
    """Sign of poly(m 2^-e), read at the fixed-point scale 2^-s (s >= e).

    From the enclosure ``poly._enclose`` where m > 0 and it excludes 0,
    otherwise from the exact integer 2^(e d) poly(m 2^-e), d the degree.
    """
    if m > 0:
        lo, hi = poly._enclose(m << (s - e), s)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
    value = _gaussian(poly, m, 0, e)[0]
    return (value > 0) - (value < 0)


def bisect_root(
    poly: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction, guess: float | None = None
) -> Interval:
    """Enclosure of the root of poly in [lo, hi] to width < tol.

    Requires tol > 0 and dyadic ends with poly(lo) < 0 < poly(hi), checked
    exactly (in integers for int ends).  Newton steps from ``guess``, or
    from the midpoint without one, climb a ladder of precisions that
    halves from tol's bits (Brent's schedule): at rung p the iterate and
    its value carry p + GUARD_BITS bits and the slope half as many.  They
    certify nothing.  They stop where an iterate leaves [lo, hi] or the
    slope is not known positive, and an iterate whose value encloses to
    exactly [0, 0] is returned as a point.  The one certificate is
    [m - 1, m + 2] 2^-t about the last iterate x, m = floor(x 2^t), t three
    bits past tol, clipped to [lo, hi]: it is returned if ``_sign`` gives
    -1 at its low end and +1 at its high end.  Otherwise [lo, hi] is
    bisected, with a sign at every midpoint, until narrower than tol.
    """
    lo, hi, tol = (x if type(x) is int else Fraction(x) for x in (lo, hi, tol))
    if not tol > 0:
        raise ValueError(f"need tol > 0, got {tol}")
    if not poly(lo) < 0 < poly(hi):
        raise ValueError(f"no sign change for coefficients {poly.coeffs} on [{lo}, {hi}]")
    if any(d & (d - 1) for d in (lo.denominator, hi.denominator)):
        raise ValueError(f"need dyadic bracket ends, got [{lo}, {hi}]")
    (a, b), e = _dyadic([lo, hi])
    tol_bits = tol.denominator.bit_length() - tol.numerator.bit_length()
    t = max(tol_bits + 3, SEED_BITS + 2)  # 3 2^-t < tol
    rungs = [t + 1]
    while rungs[-1] > SEED_BITS // 2:
        rungs.append((rungs[-1] + 1) // 2)
    slope = poly.derivative()
    n, d = (Fraction(lo + hi) / 2 if guess is None else guess).as_integer_ratio()
    s = rungs[-2] + GUARD_BITS
    x = (n << s) // d  # the iterate x 2^-s
    for p in rungs[-2::-1]:  # ascending, less the lowest, which a float64 guess holds
        x, s = x << (p + GUARD_BITS - s), p + GUARD_BITS
        if not max(a, 0) << s <= x << e <= b << s:  # _enclose needs x >= 0
            break
        value = poly._enclose(x, s)
        if value == (0, 0):
            return _interval(x, x, s)
        derivative = slope._enclose(x >> (p - p // 2), p // 2 + GUARD_BITS)[0]
        if derivative <= 0:
            break
        x -= (value[0] << (p // 2 + GUARD_BITS)) // derivative
    q, m = max(t, e), (x << t) >> s
    a2, b2 = max((m - 1) << (q - t), a << (q - e)), min((m + 2) << (q - t), b << (q - e))
    w = q + GUARD_BITS
    if a2 < b2 and _sign(poly, a2, q, w) < 0 < _sign(poly, b2, q, w):
        return _interval(a2, b2, q)
    while (b - a) * tol.denominator >= tol.numerator << e:
        a, b, e = a << 1, b << 1, e + 1
        mid = (a + b) >> 1
        sign = _sign(poly, mid, e, e + GUARD_BITS)
        if sign == 0:
            return _interval(mid, mid, e)
        a, b = (mid, b) if sign < 0 else (a, mid)
    return _interval(a, b, e)


def _phi_float(k: int) -> float:
    """Float64 estimate of phi_k, by Newton from 2 on x^(k+1) - 2x^k + 1.

    That is (x - 1)(x^k - h_k(x)); divided by x^(k-1), the step is
    (x (x - 2) + x^(1-k)) / (k (x - 2) + x).  On [phi_k, 2] the
    polynomial is increasing (slope x^(k-1) D, D > 1/2 as in
    ``limit_value``) and convex, so the iterates fall to phi_k; the loop
    ends at the first step that does not lower x.  Nothing overflows:
    x^(1-k) underflows to 0 for large k, which leaves x = 2.0.
    """
    x = 2.0
    while True:
        y = x - (x * (x - 2) + x ** (1 - k)) / (k * (x - 2) + x)
        if not y < x:
            return x
        x = y


def phi(k: int, precision_digits: int = 15) -> Interval:
    """Generalized golden ratio: the unique root in (1, 2) of
    x^k - x^(k-1) - ... - x - 1, enclosed to width < 10^-precision_digits.

    The bracket [1, 2] is certified (values 1-k < 0 and 1 > 0) and the
    positive root is unique by Descartes' rule of signs.  The root
    finder's Newton steps start from ``_phi_float``'s estimate; its
    certificate, or bisection of [1, 2] where that fails, decides every
    digit.
    """
    _check_params(k, precision_digits)
    tol = Fraction(1, 10**precision_digits)
    return bisect_root(reciprocal_fibonacci_poly(k), 1, 2, tol, _phi_float(k))


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


def _limit(k: int, root: tuple[int, int], s: int) -> tuple[int, int]:
    """Fixed-point L_k = (k phi - 2k + 1) / ((k + 1) phi - 2k) for phi in ``root``."""
    (lo, hi), one = root, 1 << s
    return _div((k * lo - (2 * k - 1) * one, k * hi - (2 * k - 1) * one),
                ((k + 1) * lo - 2 * k * one, (k + 1) * hi - 2 * k * one), s)


def limit_value(k: int, precision_digits: int = 15) -> Interval:
    """Limiting expected bit value as word length grows.

    The 1s and bits series x h'/g^2 and x (h g' - h' g)/g^2 (h = h_k,
    g = g_k = x h - 1) share the double pole x = 1/phi_k, so the limit is
    their numerators' ratio x h'/g' there.  At the pole x h = 1 (g = 0)
    and x^k = 2 - phi, phi = phi_k, since phi^k (2 - phi) = 1 follows from
    (phi - 1)(phi^k - h(phi)) = phi^(k+1) - 2 phi^k + 1 = 0.  So with
    h = (1 - x^k)/(1 - x), x h' = phi (k phi - 2k + 1)/(phi - 1) and
    g' = h + x h' = phi ((k + 1) phi - 2k)/(phi - 1), and the limit is
    L_k = N/D, N = k phi - 2k + 1, D = (k + 1) phi - 2k = 2 - (k + 1)/phi^k
    > 1/2, as phi^k = h(phi) > k.  One fixed-point pass, rounded outward on
    phi_k's enclosure [a, b] of width w < 10^-work, is narrower than
    10^-precision_digits: L_k moves at (k - 1)/D^2 < 4(k - 1), and the
    interval quotient, blind to N and D moving together, has width
    (k w + (k + 1) w N(a)/D(b))/D(a) < (3k + 1) w, as N(a)/D(b) <= L_k < 1/2;
    roundings add under 10^-work, and 10^(work - precision_digits) > 10^10 k.
    """
    _check_params(k, precision_digits)
    work = precision_digits + GUARD_DIGITS + len(str(k))
    s = _work_bits(work)
    return _interval(*_limit(k, _fixed(phi(k, work), s), s), s)


def asymptotic_coefficient(k: int, target: str, n: int, precision_digits: int = 15) -> Interval:
    """Leading-term estimate of the n-th series coefficient.

    The dominant singularity 1/phi_k is a double pole of both series f/g^2,
    so the coefficient grows like n phi^(n+2) f(1/phi) / g'(1/phi)^2.  With
    ``limit_value``'s g', the bits' f = x h g' = g' gives n phi^(n+1) (phi - 1)
    / ((k + 1) phi - 2k) = n phi^(n+1) (1 - L_k), and the 1s' f = x h' = L_k g'
    that times L_k.  One fixed-point pass on phi_k's enclosure of width
    w < 10^-work is below 10^-precision_digits in relative width, as
    relative widths add: phi^(n+1) has (n + 1) w, 1 - L_k > 1/2 and L_k > 1/4
    under (18k + 6) w (``limit_value``), roundings far less; 10^10 k n <
    10^(work - precision_digits).
    """
    _check_params(k, precision_digits)
    if target not in ("P", "T"):
        raise ValueError(f"target must be 'P' or 'T', got {target!r}")
    _check_n(n)
    if n == 0:
        raise ValueError("leading term n * phi^n is meaningless at n=0")
    work = precision_digits + GUARD_DIGITS + len(str(k * n))
    s = _work_bits(work)
    root = _fixed(phi(k, work), s)
    limit = _limit(k, root, s)
    term = _mul(_power(root, n + 1, s), ((1 << s) - limit[1], (1 << s) - limit[0]), s)
    if target == "P":
        term = _mul(term, limit, s)
    return _interval(n * term[0], n * term[1], s)


@dataclass(frozen=True)
class ComplexRootSet:
    """The k roots of x^k - h_k, each the centre of a certified disk.

    ``error_radii[j]`` is a Smith radius rounded up to a double: the
    disks are pairwise disjoint, so each holds exactly one root.
    """

    k: int
    roots: tuple[complex, ...]
    error_radii: tuple[float, ...]


def _gaussian(poly: IntPoly, x: int, y: int, s: int) -> tuple[int, int]:
    """Real and imaginary parts of 2^(s d) p((x + iy) 2^-s), exactly, d the degree."""
    re = im = shift = 0
    for c in reversed(poly.coeffs):
        re, im = re * x - im * y + (c << shift), re * y + im * x
        shift += s
    return re, im


def _dyadic(values: list) -> tuple[list[int], int]:
    """Integers m_i and the least s with values[i] = m_i 2^-s exactly (values dyadic)."""
    ratios = [v.as_integer_ratio() for v in values]
    s = max(d.bit_length() for _, d in ratios) - 1
    return [n << (s - d.bit_length() + 1) for n, d in ratios], s


def _estimates(k: int) -> list[complex]:
    """Float64 estimates of phi_k and of the roots in the unit disk up to
    conjugation: for j = 1..k//2 the fixed point z_j of the map
    z -> w_j (2 - z)^(-1/k), w_j = exp(2 pi i j / k), principal power.

    A root z != 1 of (x - 1) p = x^(k+1) - 2x^k + 1 has z^k (2 - z) = 1.
    On |z| <= 1, |2 - z| >= 1, so the map takes the disk into itself with
    slope |2 - z|^(-1/k - 1) / k <= 1/k <= 1/2: a contraction, with one
    fixed point, a root as z_j^k (2 - z_j) = w_j^k = 1 and z_j != 1.
    Distinct j give distinct roots, as w_j = z_j (2 - z_j)^(1/k), so
    j = 1..k-1 and phi_k > 1 give all k, and j > k/2 the conjugates of
    j < k/2, as the map commutes with conjugation.  The distance to z_j is
    at most 2 from w_j and at least halves at each step, so 64 steps pass
    double precision; the loop stops at the first step that does not shrink.
    """
    estimates = [complex(_phi_float(k))]
    for j in range(1, k // 2 + 1):
        z = w = cmath.rect(1.0, 2 * math.pi * j / k)
        last = math.inf
        for _ in range(64):
            y = w * (2 - z) ** (-1 / k)
            step = abs(y - z)
            if not step < last:
                break
            z, last = y, step
        estimates.append(z)
    return estimates


def _gaussian_power(x: int, y: int, n: int) -> tuple[int, int]:
    """Real and imaginary parts of (x + iy)^n, by square-and-multiply."""
    re, im = 1, 0
    for digit in bin(n)[2:]:
        re, im = (re + im) * (re - im), 2 * re * im
        if digit == "1":
            re, im = re * x - im * y, re * y + im * x
    return re, im


def _trinomial(k: int, x: int, y: int, s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """2^(s k) p(z) and 2^(s (k-1)) p'(z) at z = (x + iy) 2^-s != 1, exactly:
    the Gaussian integers P and P' that ``_gaussian`` gives for p and p'.

    They come from T = x^(k+1) - 2x^k + 1 = (x - 1) p in O(log k) products:
    with Z = x + iy and u = 2^s, N = 2^(s(k+1)) T(z) = Z^(k+1) - 2u Z^k +
    u^(k+1) and D = 2^(sk) T'(z) = (k+1) Z^k - 2k u Z^(k-1), and N = (Z - u) P
    and D = P + (Z - u) P' divide exactly.  z = 1 is never reached: it is
    no root (p(1) = 1 - k), nor a root estimate or polished root.
    """
    u = 1 << s
    ar, ai = _gaussian_power(x, y, k - 1)
    br, bi = ar * x - ai * y, ar * y + ai * x  # Z^k
    nr = br * x - bi * y - (br << s + 1) + (1 << s * (k + 1))
    ni = br * y + bi * x - (bi << s + 1)
    dr, di = (k + 1) * br - 2 * k * (ar << s), (k + 1) * bi - 2 * k * (ai << s)
    c = x - u
    norm = c * c + y * y
    pr, pi = (nr * c + ni * y) // norm, (ni * c - nr * y) // norm
    er, ei = dr - pr, di - pi
    return (pr, pi), ((er * c + ei * y) // norm, (ei * c - er * y) // norm)


def _polish(k: int, z: complex) -> complex:
    """One Newton step on p from z, rounded to the nearest double.

    The value and slope at the double z are exact Gaussian integers
    (``_trinomial``) and the quotient is truncated at 2^-POLISH_BITS, so
    the step lands far closer to the root than a double can resolve.  An
    estimate within SETTLED of the real axis starts on it, and the real
    polynomial keeps it there.
    """
    (x, y), s = _dyadic([z.real, z.imag if abs(z.imag) > SETTLED else 0.0])
    (pr, pi), (dr, di) = _trinomial(k, x, y, s)
    # p / p' = (pr + i pi) / ((dr + i di) 2^s), at the scale 2^-f
    f = max(s, POLISH_BITS)
    norm = (dr * dr + di * di) << s
    step_re = ((pr * dr + pi * di) << f) // norm
    step_im = ((pi * dr - pr * di) << f) // norm
    return complex(((x << (f - s)) - step_re) / (1 << f), ((y << (f - s)) - step_im) / (1 << f))


def _round_up(num: int, den: int) -> float:
    """Least double r with r^2 >= num / den, or a double just above it."""
    t = max(0, (den.bit_length() - num.bit_length()) // 2 + 64)
    q = -(-(num << 2 * t) // den)
    root = math.isqrt(q)
    root += root * root < q  # root 2^-t >= sqrt(num / den)
    radius = root / (1 << t)
    n, d = radius.as_integer_ratio()
    return radius if n << t >= root * d else math.nextafter(radius, math.inf)


def _smith_radii(roots: list[complex], count: int) -> list[float]:
    """Smith's radii k |p(z_j) / prod_{i != j} (z_j - z_i)|, rounded up to
    doubles, for the first ``count`` of the k roots.

    For monic p of degree k, the disks about the z_j with these radii
    cover every root, and a connected union of m of them holds exactly
    m roots (B. T. Smith, J. ACM 17, 1970).  The roots are doubles, so
    each quotient is computed exactly in Gaussian integers at one scale,
    the product's squared modulus as the product of the factors' ones.
    """
    k = len(roots)
    parts, s = _dyadic([z.real for z in roots] + [z.imag for z in roots])
    points = list(zip(parts[:k], parts[k:]))
    radii = []
    for j, (x, y) in enumerate(points[:count]):
        (pr, pi), _ = _trinomial(k, x, y, s)
        norm = math.prod((x - u) ** 2 + (y - v) ** 2 for i, (u, v) in enumerate(points) if i != j)
        if norm == 0:
            raise RootFindingError(f"root disks for k={k} not certified: two centres coincide")
        # r^2 = k^2 |p|^2 / |prod|^2 = k^2 (pr^2 + pi^2) / (norm 2^(2s))
        radii.append(_round_up(k * k * (pr * pr + pi * pi), norm << 2 * s))
    return radii


def _check_disjoint(roots: list[complex], radii: list[float]) -> None:
    """Raise RootFindingError unless the disks are pairwise disjoint, checked exactly."""
    k = len(roots)
    parts, _ = _dyadic([z.real for z in roots] + [z.imag for z in roots] + radii)
    xs, ys, rs = parts[:k], parts[k:2 * k], parts[2 * k:]
    for j in range(k):
        for i in range(j):
            dx, dy, reach = xs[j] - xs[i], ys[j] - ys[i], rs[j] + rs[i]
            if not dx * dx + dy * dy > reach * reach:
                raise RootFindingError(f"root disks for k={k} not certified: disks overlap")


def all_roots(k: int) -> ComplexRootSet:
    """All complex roots of x^k - x^(k-1) - ... - x - 1, in certified disks.

    Closed-form float estimates of phi_k and of the roots up to their
    conjugates (``_estimates``), one Newton polish of each (``_polish``),
    and the conjugates of the polished roots off the real axis; then
    Smith's disks about these doubles (``_smith_radii``), checked
    pairwise disjoint exactly, so each disk holds exactly one root.  The
    polynomial is real and the centres are closed under conjugation, so
    a conjugate's radius is its mirror's, and a disk centred on the real
    axis holds a real root: its imaginary part is exactly 0.  Raises
    RootFindingError if a polished estimate lies below the axis, the
    estimates and their conjugates are not k, or a certificate fails.
    """
    if not isinstance(k, int) or not 2 <= k <= MAX_ROOTS_K:
        raise ValueError(f"need 2 <= k <= {MAX_ROOTS_K}, got {k!r}")
    z = [_polish(k, w) for w in _estimates(k)]
    mirrored = [j for j, w in enumerate(z) if w.imag > 0]
    if any(w.imag < 0 for w in z) or len(z) + len(mirrored) != k:
        raise RootFindingError(f"root estimates for k={k} are not conjugate pairs")
    z += [z[j].conjugate() for j in mirrored]
    radii = _smith_radii(z, k - len(mirrored))
    radii += [radii[j] for j in mirrored]
    _check_disjoint(z, radii)
    order = sorted(range(k), key=lambda j: (z[j].real, z[j].imag))
    return ComplexRootSet(
        k=k,
        roots=tuple(z[j] for j in order),
        error_radii=tuple(radii[j] for j in order),
    )
