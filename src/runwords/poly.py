"""Dense integer-coefficient polynomials and the ones the word counts need.

The one polynomial typed in is h_k = 1 + x + ... + x^(k-1), a run of
fewer than k 1s counted by its length.  Every other one is derived from
it: g_k = x h_k - 1, phi_k's trinomial (x - 1)(x^k - h_k), and the
numerators of the word, 1s and bits generating functions.  Degrees stay
small (a few times k), so a plain coefficient list is fine.  Evaluation
is one Horner loop over whatever numbers it is given, crossing each long
run of zero coefficients with one power of x, and ``_enclose`` is its
midpoint-radius integer fixed-point form at one point, on ``_power``'s
fixed-point powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    @cached_property
    def _slope(self) -> "IntPoly":
        """The derivative, kept like ``_runs`` for a polynomial whose roots are sought often."""
        return self.derivative()

    @cached_property
    def _runs(self) -> tuple[tuple[int, int], ...]:
        """Horner's steps (c, gap) from the top: add c, then multiply by x^gap.

        A step starts at each nonzero coefficient and at degree 0, and its
        gap runs down to the next one; the step of degree 0 (gap 0) only
        adds.  A step of gap g >= 2 takes bit_length(g) + popcount(g) - 1
        big products for x^g and its product, against g steps of dense
        Horner, so a gap of 4 or more is one power of x, and a shorter
        one, where the power saves no product, is stepped through as zero
        coefficients (gap 1).  Built at the first evaluation, not in
        __init__, as most polynomials are never evaluated.
        """
        coeffs, runs = self.coeffs, []
        top = len(coeffs) - 1
        for i in range(top - 1, -1, -1):
            if coeffs[i] or not i:
                gap = top - i if top - i >= 4 else 1
                runs += [(coeffs[top], gap)] + [(0, 1)] * (top - i - gap)
                top = i
        if coeffs:
            runs.append((coeffs[top], 0))
        return tuple(runs)

    def __call__(self, x):
        """Horner evaluation over ``_runs``; works for int, Fraction and complex."""
        acc = 0 * x
        for c, gap in self._runs:
            acc = (acc + c) * x**gap
        return acc

    def _enclose(self, x: int, s: int) -> tuple[int, int]:
        """Integers lo, hi with lo 2^-s <= p(x 2^-s) <= hi 2^-s, for x >= 0.

        Horner on a ball m +- r at the scale 2^-s, from 0 +- 0, over
        ``_runs``: add c, exactly, then multiply by the ball b +- rb of
        x^gap (x itself, exact, when gap = 1; else ``_power``), rounded by
        ``_power``'s rule.  As c b is exact at the scale, the one big
        product of a step is m b.
        """
        mask = (1 << s) - 1
        m = r = 0
        for c, gap in self._runs:
            if gap == 1:
                product = m * x
                r = (r * x + mask >> s) + (product & mask != 0)
                m = (product >> s) + c * x
            elif gap:
                b, rb = _power(x, gap, s)
                product = m * b
                r = (abs(m + (c << s)) * rb + r * (b + rb) + mask >> s) + (product & mask != 0)
                m = (product >> s) + c * b
            else:
                m += c << s
        return m - r, m + r


def _power(x: int, n: int, s: int, rx: int = 0) -> tuple[int, int]:
    """Ball m +- r at the scale 2^-s that holds X^n for every X in the
    ball (x +- rx) 2^-s, x >= 0, n >= 1.

    The product of balls a +- ra and b +- rb (midpoints and radii in units
    of 2^-s, b >= 0) holds every product of their points within
    e = |a| rb + ra (b + rb) of a b, in units of 2^-2s.  Its ball at the
    scale is floor(a b 2^-s) +- (ceil(e 2^-s) + d), where d = 1 if the
    shift drops nonzero bits of a b and 0 if it drops none: floor loses
    less than 1 unit, and nothing when exact.  So an exact x stays exact
    until a shift drops bits.  Square-and-multiply keeps its midpoint
    a >= 0, a floor of products of nonnegatives, and takes squares (b = a,
    e = ra (2a + ra)) and products with the base (e = a rx + ra (x + rx)).
    The radius grows about in step with X^n's relative width, n rx / x,
    plus about log2 n bits over the scale's resolution.
    """
    mask = (1 << s) - 1
    m, r = x, rx
    for bit in bin(n)[3:]:
        square = m * m
        r = ((2 * m + r) * r + mask >> s) + (square & mask != 0)
        m = square >> s
        if bit == "1":
            product = m * x
            r = (m * rx + r * (x + rx) + mask >> s) + (product & mask != 0)
            m = product >> s
    return m, r


def _x_power(i: int) -> IntPoly:
    return IntPoly([0] * i + [1])


def _h(k: int) -> IntPoly:
    """h_k = 1 + x + ... + x^(k-1), the polynomial every other one derives from."""
    _check_k(k)
    return IntPoly([1] * k)


# Each k's generating functions and trinomial are built once and shared, as
# IntPoly is frozen.
# The bound keeps a long-lived process that sweeps k from growing without limit,
# and holds a sweep of k = 2..40 (``limits --k-max 40``, the corollary check),
# which a bound below 39 would evict k by k before the next sweep reads it.
CACHED_KS = 64
# typed=True keys 2.0 and True apart from 2, so they still reach _check_k.
_built_once = lru_cache(maxsize=CACHED_KS, typed=True)


@_built_once
def fibonacci_poly(k: int) -> IntPoly:
    """g_k = x h_k - 1 = x^k + ... + x - 1; its smallest-modulus root is 1/phi_k."""
    return _x_power(1) * _h(k) - _x_power(0)


@_built_once
def trinomial_poly(k: int) -> IntPoly:
    """T_k = (x - 1)(x^k - h_k) = x^(k+1) - 2x^k + 1.

    On (1, 2] it has the sign of x^k - h_k, whose largest-modulus root is
    phi_k, so phi_k is its one root there.  A value takes O(log k)
    products, for the one power x^k, where x^k - h_k takes k.
    """
    p = [-c for c in _h(k).coeffs] + [1]  # x^k - h_k
    return IntPoly(map(sub, [0] + p, p + [0]))  # x p - p


@_built_once
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


@_built_once
def pk_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the total 1s count, x h_k' / g_k^2.

    Marking each 1 by y turns -h/g into h(xy) / (1 - x h(xy)), whose
    derivative in y at y = 1 is x h' / (1 - x h)^2.
    """
    return _x_power(1) * _h(k).derivative(), _g_squared(k)


@_built_once
def tk_fraction(k: int) -> tuple[IntPoly, IntPoly]:
    """Generating function of the total bit count (n times the word count).

    Termwise x*d/dx of the word counts p/q = -h/g: x (p' q - p q') / q^2,
    whose numerator x (h g' - h' g) is x (h^2 + h'), since g = x h - 1
    has g' = h + x h'.  The library takes T_n as n * count_words(n); this
    series is ``verify``'s independent route to it.
    """
    square, slope = _times_h(_h(k), k), _h(k).derivative()
    return _x_power(1) * IntPoly(c + slope[i] for i, c in enumerate(square.coeffs)), _g_squared(k)
