"""Exact enumeration of binary words with no run of k consecutive 1s.

Every count is a coefficient of a rational generating function from
``poly``, taken by ``series``: the words are -h_k/g_k, the k-step
Fibonacci numbers -x^(k-1)/g_k, the 1s and bits their derived series.
Everything is big-integer / exact-rational arithmetic, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .poly import (
    IntPoly, _bits_numerator, _check_k, _check_n, fibonacci_poly, pk_fraction, words_fraction,
)
from .series import _closed_form_rows, coefficient


@dataclass(frozen=True)
class OnesDistribution:
    """Counts of length-n avoiders by their number of 1s.

    ``counts[m]`` is the number of words of length ``n`` with no run of
    ``k`` consecutive 1s that contain exactly ``m`` 1s; the index runs
    from 0 to ``n - n // k``.
    """

    n: int
    k: int
    counts: tuple[int, ...]

    def __getitem__(self, m: int) -> int:
        if 0 <= m < len(self.counts):
            return self.counts[m]
        return 0

    @property
    def total_ones(self) -> int:
        return sum(m * c for m, c in enumerate(self.counts))


def kstep_fibonacci(n: int, k: int) -> int:
    """n-th k-step Fibonacci number (k=2 gives 0, 1, 1, 2, 3, 5, ...).

    Zero for n <= k-2, one at n = k-1, afterwards the sum of the
    previous k terms: the coefficients of -x^(k-1) / (x^k + ... + x - 1).
    """
    _check_n(n)
    _check_k(k)
    return coefficient(IntPoly([0] * (k - 1) + [-1]), fibonacci_poly(k), n)


def count_words(n: int, k: int) -> int:
    """Number of length-n binary words with no k consecutive 1s: [x^n] -h_k/g_k.

    Equals kstep_fibonacci(n + k, k), the paper's identity, which the
    ``count`` command checks by taking both coefficients.
    """
    _check_n(n)
    _check_k(k)
    return coefficient(*words_fraction(k), n)


def ones_distribution(n: int, k: int) -> OnesDistribution:
    """Distribution of the number of 1s over all length-n avoiders.

    Row n of the closed-form bivariate generating function, counting
    words by length and number of 1s.
    """
    _check_n(n)
    _check_k(k)
    counts = next(islice(_closed_form_rows(k), n, None))
    return OnesDistribution(n=n, k=k, counts=counts)


def popularity(n: int, k: int) -> int:
    """Total number of 1s over all length-n avoiders: [x^n] of ``pk_fraction``."""
    _check_n(n)
    _check_k(k)
    return coefficient(*pk_fraction(k), n)


def alpha(n: int, k: int) -> Fraction:
    """Expected value of a random bit in a random length-n avoider.

    Equals popularity / total bit count, the n-th coefficients of
    ``pk_fraction`` and ``tk_fraction``, always in lowest terms; the two
    share the denominator g_k^2, built once.  Undefined at n = 0 (0/0).
    """
    _check_k(k)
    _check_n(n)
    if n == 0:
        raise ValueError("expected bit value undefined at n=0; need n >= 1")
    ones, square = pk_fraction(k)
    return Fraction(coefficient(ones, square, n), coefficient(_bits_numerator(k), square, n))
