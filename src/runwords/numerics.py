"""Certified numerics: the dominant root, root geometry, asymptotics.

The ground-truth root method is Newton iteration certified once:
uncertified fixed-point Newton steps climb a precision ladder that
halves from the target width, starting in ``phi`` from a float64
estimate of phi_k, and the bracket of the target width about the last
iterate is returned only if the integer polynomial changes sign across
it; otherwise bisection of [1, 2] takes over.  ``phi``'s polynomial is
the trinomial x^(k+1) - 2x^k + 1 = (x - 1)(x^k - h_k), each value in
O(log k) products.  The float only saves work and never decides a
digit, and every enclosure is certified by a sign change.  Values are
integer mantissas at a scale 2^-s: a sign is read from the midpoint-
radius fixed-point Horner enclosure (``IntPoly._enclose``) a guard above
the bracket's scale, and from the exact value, ``IntPoly.__call__``,
only when it contains 0.  The limit L_k rises with phi_k and is taken
exactly at its enclosure's two ends; the asymptotic coefficient is
evaluated in one fixed-point pass on both enclosures, so mantissa sizes
stay proportional to the digits asked for.
The complex roots are certified too: closed-form float estimates (phi_k's
and the fixed points of a contraction), one integer fixed-point Newton
polish of each root on or above the real axis, the rest as their
conjugates, then a Newton inclusion disk of radius k |p/p'| about each
polished double; p and p' are read exactly off the trinomial (x - 1) p
in Gaussian integer products alone, both times (z - 1)^2, which cancels
in p/p'.  The k disks each hold a root and are checked pairwise
disjoint, so each holds exactly one.  No step uses mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .interval import Interval
from .poly import IntPoly, _check_k, _check_n, _power, trinomial_poly

GUARD_DIGITS = 10
# Bits kept beyond the working precision in every fixed-point evaluation.
GUARD_BITS = 64
# Bits that a float64 root estimate is trusted to hold (it holds about
# 50).  The Newton ladder stops halving at SEED_BITS // 2, and the
# certificate's grid 2^-q has q >= SEED_BITS + 2, so at a few digits the
# certified bracket still lies within the estimate +- 2^-SEED_BITS.
SEED_BITS = 44
# Largest k that all_roots takes: a fixed cap, not a time budget.
MAX_ROOTS_K = 64
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
    """Sign of poly(m 2^-e), m >= 1, read at the fixed-point scale 2^-s (s >= e).

    From the enclosure ``poly._enclose`` where it excludes 0, otherwise
    from the exact value poly(m 2^-e), by ``IntPoly.__call__`` on a
    Fraction: Horner with a Fraction power across each long run of zeros.
    """
    lo, hi = poly._enclose(m << (s - e), s)
    if lo > 0 or hi < 0:
        return 1 if lo > 0 else -1
    value = poly(Fraction(m, 1 << e))
    return (value > 0) - (value < 0)


def bisect_root(poly: IntPoly, t: int, guess: float) -> Interval:
    """Enclosure of a root of poly in [1, 2] to width at most 2^-t.

    Requires poly(1) <= 0 < poly(2), checked exactly in integers: ``phi``'s
    trinomial vanishes at 1, and is below 0 just above it.  Newton
    steps from ``guess`` climb a ladder of precisions that halves from
    t (Brent's schedule): at rung p the iterate and its value carry
    p + GUARD_BITS bits and the slope half as many.  They certify
    nothing, and stop where an iterate leaves [1, 2] or the slope is not
    known positive.  The one certificate is [m - 1, m + 2] 2^-q about the
    last iterate x, m = floor(x 2^q), q = max(t + 2, SEED_BITS + 2) so
    that 3 2^-q < 2^-t, clipped to [1, 2]: it is returned if ``_sign``
    gives -1 at its low end and +1 at its high end.  Otherwise [1, 2] is
    bisected t times, with a sign at every midpoint; a dyadic root that a
    midpoint hits exactly stays at an end of the enclosure.
    """
    if not poly(1) <= 0 < poly(2):
        raise ValueError(f"no sign change for coefficients {poly.coeffs} on [1, 2]")
    q = max(t + 2, SEED_BITS + 2)
    rungs = [q + 1]
    while rungs[-1] > SEED_BITS // 2:
        rungs.append((rungs[-1] + 1) // 2)
    slope = poly._slope
    n, d = guess.as_integer_ratio()
    s = rungs[-2] + GUARD_BITS
    x = (n << s) // d  # the iterate x 2^-s
    for p in rungs[-2::-1]:  # ascending, less the lowest, which a float64 guess holds
        x, s = x << (p + GUARD_BITS - s), p + GUARD_BITS
        if not 1 << s <= x <= 2 << s:
            break
        value = poly._enclose(x, s)
        derivative = slope._enclose(x >> (p - p // 2), p // 2 + GUARD_BITS)[0]
        if derivative <= 0:
            break
        x -= (value[0] << (p // 2 + GUARD_BITS)) // derivative
    m = (x << q) >> s
    a, b = max(m - 1, 1 << q), min(m + 2, 2 << q)
    w = q + GUARD_BITS
    if a < b and _sign(poly, a, q, w) < 0 < _sign(poly, b, q, w):
        return _interval(a, b, q)
    a = 1  # the enclosure [a, a + 1] 2^-e
    for e in range(1, t + 1):
        a = 2 * a + (_sign(poly, 2 * a + 1, e, e + GUARD_BITS) < 0)
    return _interval(a, a + 1, t)


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

    The positive root is unique by Descartes' rule of signs, and lies in
    (1, 2) (values 1-k < 0 and 1 > 0).  ``bisect_root`` takes the
    trinomial T = (x - 1)(x^k - h_k) = x^k (x - 2) + 1, with T(1) = 0 and
    T(2) = 1: on (1, 2] it has the sign of x^k - h_k, that is of x - phi_k,
    so each enclosure that its signs certify holds phi_k, and none holds
    1, as T(3/2) = 1 - (3/2)^k / 2 < 0 puts phi_k above 3/2.  With t least
    such that 2^-t < 10^-precision_digits, ``bisect_root`` encloses phi_k
    to width 2^-t: its Newton steps start from ``_phi_float``'s estimate,
    and its certificate, or bisection of [1, 2] where that fails, decides
    every digit.  Where k - 1 >= t, it returns
    [2 - 2^-t, 2] and builds nothing: 2 - 2^(1-k) < phi_k < 2, as
    (x - 1) p = x^k (x - 2) + 1 is 1 - 2 (1 - 2^-k)^k < 0 at 2 - 2^(1-k) by
    Bernoulli (Dresden and Du, J. Integer Sequences 17, 2014).
    """
    _check_params(k, precision_digits)
    t = (10**precision_digits).bit_length()
    if k - 1 >= t:
        return _interval((2 << t) - 1, 2 << t, t)
    return bisect_root(trinomial_poly(k), t, _phi_float(k))


def inverse_phi(k: int, precision_digits: int = 15) -> Interval:
    """Enclosure of 1/phi_k, the unique root of g_k in (0, 1).

    No refinement is needed: x -> 1/x maps an interval [lo, hi] inside
    [1, 2] of width w to one of width w / (lo * hi) <= w.
    """
    return 1 / phi(k, precision_digits)


# Fixed-point enclosures: pairs (lo, hi) of integers that stand for
# [lo 2^-s, hi 2^-s], each operation rounding lo down and hi up.

def _fixed(lo: tuple[int, int], hi: tuple[int, int], s: int) -> tuple[int, int]:
    """[a/b, c/d] rounded outward to the scale 2^-s, for lo = (a, b), hi = (c, d), b, d > 0."""
    (a, b), (c, d) = lo, hi
    return (a << s) // b, -((-c << s) // d)


def _interval(lo: int, hi: int, s: int) -> Interval:
    return Interval(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def _mul(x: tuple[int, int], y: tuple[int, int], s: int) -> tuple[int, int]:
    """x y rounded outward, for ends >= 0, where the lower ends' product is the least
    of the four and the upper ends' the greatest.  Both of ``asymptotic_coefficient``'s
    uses are such: phi^(n+1) >= 1, 1 - L_k > 1/2 and L_k > 1/4."""
    return x[0] * y[0] >> s, -(-x[1] * y[1] >> s)


def _limit_ends(k: int, root: Interval) -> list[tuple[int, int]]:
    """L_k = (k phi - 2k + 1) / ((k + 1) phi - 2k) at each end n/d of ``root``,
    as the unreduced ratio (k n - (2k - 1) d, (k + 1) n - 2k d)."""
    ends = root.lo.as_integer_ratio(), root.hi.as_integer_ratio()
    return [(k * n - (2 * k - 1) * d, (k + 1) * n - 2 * k * d) for n, d in ends]


def _limit(k: int, root: Interval) -> Interval:
    """L_k at the two ends of ``root``, exactly: it rises with phi where
    (k + 1) phi > 2k, so these enclose it."""
    return Interval(*(Fraction(n, d) for n, d in _limit_ends(k, root)))


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
    > 1/2, as phi^k = h(phi) > k.  L_k rises with phi at (k - 1)/D^2, so its
    exact values at the ends of phi_k's enclosure [a, b] (``_limit``)
    enclose it.  With w = b - a < 10^-work, D(a) and D(b) are within
    (k + 1) w < 10^-9 of D(phi_k), so above 1/4, and the width
    (k - 1) w / (D(a) D(b)) is below 16 (k - 1) w < 10^-precision_digits,
    as 10^(work - precision_digits) > 10^10 k.
    """
    _check_params(k, precision_digits)
    return _limit(k, phi(k, precision_digits + GUARD_DIGITS + len(str(k))))


def asymptotic_coefficient(k: int, target: str, n: int, precision_digits: int = 15) -> Interval:
    """Leading-term estimate of the n-th series coefficient.

    The dominant singularity 1/phi_k is a double pole of both series f/g^2,
    so the coefficient grows like n phi^(n+2) f(1/phi) / g'(1/phi)^2.  With
    ``limit_value``'s g', the bits' f = x h g' = g' gives n phi^(n+1) (phi - 1)
    / ((k + 1) phi - 2k) = n phi^(n+1) (1 - L_k), and the 1s' f = x h' = L_k g'
    that times L_k.  One fixed-point pass on phi_k's enclosure of width
    w < 10^-work (phi^(n+1) as ``poly._power``'s ball about its midpoint),
    with L_k's exact enclosure rounded outward from its
    unreduced ratios (``_limit_ends``), is below 10^-precision_digits in
    relative width, as relative widths add: phi^(n+1) has (n + 1) w, and
    L_k's width is below 16 (k - 1) w
    (``limit_value``), so 1 - L_k > 1/2 and L_k > 1/4 have 96 (k - 1) w
    together, roundings far less; 10^10 k n < 10^(work - precision_digits).
    """
    _check_params(k, precision_digits)
    if target not in ("P", "T"):
        raise ValueError(f"target must be 'P' or 'T', got {target!r}")
    _check_n(n)
    if n == 0:
        raise ValueError("leading term n * phi^n is meaningless at n=0")
    work = precision_digits + GUARD_DIGITS + len(str(k * n))
    s = _work_bits(work)
    root = phi(k, work)
    limit = _fixed(*_limit_ends(k, root), s)
    lo, hi = _fixed(root.lo.as_integer_ratio(), root.hi.as_integer_ratio(), s)
    mid = lo + hi >> 1
    m, r = _power(mid, n + 1, s, hi - mid)
    term = _mul((m - r, m + r), ((1 << s) - limit[1], (1 << s) - limit[0]), s)
    if target == "P":
        term = _mul(term, limit, s)
    return _interval(n * term[0], n * term[1], s)


@dataclass(frozen=True)
class ComplexRootSet:
    """The k roots of x^k - h_k, each the centre of a certified disk.

    ``error_radii[j]`` is a Newton inclusion radius k |p/p'| rounded up
    to a double: each disk holds a root and the disks are pairwise
    disjoint, so each holds exactly one.
    """

    k: int
    roots: tuple[complex, ...]
    error_radii: tuple[float, ...]


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
    For even k, w_(k/2) = -1 exactly and 2 - z > 0 keep z_(k/2) real.
    """
    estimates = [complex(_phi_float(k))]
    for j in range(1, k // 2 + 1):
        z = w = cmath.rect(1.0, 2 * math.pi * j / k) if 2 * j < k else cmath.rect(-1.0, 0.0)
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
    """C^2 P and C^2 P' at z = (x + iy) 2^-s, exactly, as Gaussian integers:
    P = 2^(s k) p(z), P' = 2^(s (k-1)) p'(z), C = 2^s (z - 1).

    They come from T = x^(k+1) - 2x^k + 1 = (x - 1) p in O(log k) products,
    with no division: with Z = x + iy and u = 2^s, N = 2^(s(k+1)) T(z) =
    Z^(k+1) - 2u Z^k + u^(k+1) = C P and D = 2^(sk) T'(z) = (k+1) Z^k -
    2k u Z^(k-1) = P + C P', so N C = C^2 P and D C - N = C^2 P'.  The
    common factor C^2 cancels in p/p'; at z = 1 both are 0.
    """
    ar, ai = _gaussian_power(x, y, k - 1)
    br, bi = ar * x - ai * y, ar * y + ai * x  # Z^k
    nr = br * x - bi * y - (br << s + 1) + (1 << s * (k + 1))
    ni = br * y + bi * x - (bi << s + 1)
    dr, di = (k + 1) * br - 2 * k * (ar << s), (k + 1) * bi - 2 * k * (ai << s)
    c = x - (1 << s)
    return (nr * c - ni * y, nr * y + ni * c), (dr * c - di * y - nr, dr * y + di * c - ni)


def _polish(k: int, z: complex) -> complex:
    """One Newton step on p from z, rounded to the nearest double.

    The value and slope at the double z are exact Gaussian integers, both
    times C^2 (``_trinomial``), which cancels in the quotient; truncated at
    2^-POLISH_BITS, the step lands far closer to the root than a double can
    resolve.  An estimate on the real axis stays on it, as p is real.
    """
    (x, y), s = _dyadic([z.real, z.imag])
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


def _radius(k: int, z: complex) -> float:
    """k |p(z) / p'(z)|, rounded up to a double: some root lies within it.

    As p'/p = sum 1/(z - z_i) over the k roots, if each were farther than
    R from z then |p'/p| < k/R.  z is a double, so the quotient is exact
    in Gaussian integers (``_trinomial``) at z's own scale, top and bottom
    both times |C|^4.  z = 1, the root of T's factor z - 1, is refused on
    its own: there C = 0, and both reads are 0 whatever p'(1) is.
    """
    if z == 1:
        raise RootFindingError(
            f"root disks for k={k} not certified: z = 1 is the root of the trinomial's factor z - 1"
        )
    (x, y), s = _dyadic([z.real, z.imag])
    (pr, pi), (dr, di) = _trinomial(k, x, y, s)
    norm = dr * dr + di * di
    if norm == 0:
        raise RootFindingError(f"root disks for k={k} not certified: p' vanishes at {z}")
    # r^2 = k^2 |p|^2 / |p'|^2 = k^2 (pr^2 + pi^2) / (norm 2^(2s))
    return _round_up(k * k * (pr * pr + pi * pi), norm << 2 * s)


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
    Newton inclusion disks about these doubles (``_radius``), each
    holding a root, checked pairwise disjoint exactly, so each holds
    exactly one.  The polynomial is real, so a conjugate's radius is its
    mirror's, and a disk centred on the real axis holds a real root: its
    imaginary part is exactly 0.  Raises RootFindingError if a polished
    estimate lies below the axis, the estimates and their conjugates are
    not k, or a certificate fails.
    """
    if not isinstance(k, int) or not 2 <= k <= MAX_ROOTS_K:
        raise ValueError(f"need 2 <= k <= {MAX_ROOTS_K}, got {k!r}")
    z = [_polish(k, w) for w in _estimates(k)]
    mirrored = [j for j, w in enumerate(z) if w.imag > 0]
    if any(w.imag < 0 for w in z) or len(z) + len(mirrored) != k:
        raise RootFindingError(f"root estimates for k={k} are not conjugate pairs")
    radii = [_radius(k, w) for w in z]
    z += [z[j].conjugate() for j in mirrored]
    radii += [radii[j] for j in mirrored]
    _check_disjoint(z, radii)
    order = sorted(range(k), key=lambda j: (z[j].real, z[j].imag))
    return ComplexRootSet(
        k=k,
        roots=tuple(z[j] for j in order),
        error_radii=tuple(radii[j] for j in order),
    )
