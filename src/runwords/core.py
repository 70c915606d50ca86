"""Exact enumeration of binary words with no run of k consecutive 1s.

Every count is a coefficient of a rational generating function from
``poly``, taken by ``series``: the words are -h_k/g_k, the k-step
Fibonacci numbers -x^(k-1)/g_k, the 1s its derived series; the bits
are n times the words.
The counts by number of 1s are coefficients of the powers h_k^J, read
along one anti-diagonal.  Everything is big-integer / exact-rational
arithmetic, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .poly import (
    IntPoly, _check_k, _check_n, fibonacci_poly, max_ones, pk_fraction, words_fraction,
)
from .series import coefficient

# ``ones_distribution`` keeps its row narrow while NARROW_RATIO * k < m.
# A narrow step costs about k backward steps in the interpreter, a
# full-row step about 2m big-integer additions in C; per step the two
# cost the same near m = 8k..13k (Python 3.11, 2-core Xeon, n = 2000 to
# 5000, k = 20 to 150), and whole walks moved less than their run-to-run
# spread for ratios from 8 to 16.
NARROW_RATIO = 12


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


def _run_length(n: int, k: int) -> int:
    """Check n and k; return min(k, n + 2), which counts the same length-n words as k.

    No length-n word has a run of more than n 1s, so every k > n gives the
    same counts; n + 2, not n + 1, keeps the result >= 2 at n = 0.
    """
    _check_n(n)
    _check_k(k)
    return min(k, n + 2)


def kstep_fibonacci(n: int, k: int) -> int:
    """n-th k-step Fibonacci number (k=2 gives 0, 1, 1, 2, 3, 5, ...).

    Zero for n <= k-2, one at n = k-1, afterwards the sum of the
    previous k terms: [x^n] -x^(k-1)/g_k, that is [x^i] -1/g_k with
    i = n - k + 1.  Terms of g_k above x^i cannot change that coefficient,
    so g is cut to degree min(k, max(i, 2)).
    """
    _check_n(n)
    _check_k(k)
    i = n - k + 1
    if i < 0:
        return 0
    return coefficient(IntPoly([-1]), fibonacci_poly(min(k, max(i, 2))), i)


def count_words(n: int, k: int) -> int:
    """Number of length-n binary words with no k consecutive 1s: [x^n] -h_k/g_k.

    Equals kstep_fibonacci(n + k, k), the paper's identity, which the
    ``count`` command checks by taking both coefficients.
    """
    return coefficient(*words_fraction(_run_length(n, k)), n)


def ones_distribution(n: int, k: int) -> OnesDistribution:
    """Distribution of the number of 1s over all length-n avoiders.

    A word with m 1s has n - m 0s and so J = n + 1 - m gaps, each holding
    fewer than k 1s: c(n, m) = p(J, m), where p(J, t) = [x^t] h_k^J.  The
    counts lie on the anti-diagonal J + m = n + 1 of these coefficients,
    walked from m = n - n // k down to 0 with exact integer steps:

    * Within one power, since h_k'/h_k = 1/(1 - x) - k x^(k-1)/(1 - x^k),
      P = h_k^J satisfies (1 - x)(1 - x^k) P' = J (1 - k x^(k-1) + (k-1) x^k) P,
      whose coefficient of x^t is
      (t+1) p_(t+1) = (t+J) p_t + (t-k+1-Jk) p_(t-k+1) + (J(k-1)-t+k) p_(t-k),
      with p = 0 outside 0..(k-1)J.  Solved for p_(t-k), it extends k + 1
      known terms down by one; below the top degree (k-1)J its divisor
      J(k-1) - t + k is at least 1, and the division is exact.
    * From one power to the next, row J + 1 is row J times h_k:
      p(J+1, t) = sum_{i<k} p(J, t-i), differences of prefix sums.

    The first row starts at its top degree (k-1)J, where p = 1 with zeros
    above, and the same recurrence takes it down to the first window.
    Each step reads c_m = p(J, m), extends row J down to m - 2k (k steps of
    the solved recurrence) and forms row J + 1 on [m-1-k, m-1]: O(k)
    big-integer operations.  Once m <= NARROW_RATIO * k, row J is kept
    down to 0 instead, and row J + 1 comes whole from C-level sums.  Any
    k > n is walked as n + 2; ``k`` of the result is the one given.
    """
    given, k = k, _run_length(n, k)
    top = max_ones(n, k)
    power = n + 1 - top
    lo = power * (k - 1)  # row[i] = p(power, lo + i)
    row = [1] + [0] * k
    counts = []
    for m in range(top, -1, -1):
        floor = m - 2 * k if NARROW_RATIO * k < m else 0
        if lo > floor:
            down, jk, base = row[::-1], power * k, power * (k - 1)
            for s in range(lo - 1, floor - 1, -1):  # t = s + k in the recurrence
                down.append((
                    (s + k + 1) * down[-k - 1] - (s + k + power) * down[-k] - (s + 1 - jk) * down[-1]
                ) // (base - s))
            row, lo = down[:floor - m - 2:-1], floor  # p(floor), ..., p(m)
        counts.append(row.pop())
        sums = list(accumulate(row, initial=0))
        row = (sums[1:k] if lo == 0 else []) + list(map(sub, sums[k:], sums))
        if lo:
            lo += k - 1
        power += 1
    return OnesDistribution(n=n, k=given, counts=tuple(reversed(counts)))


def popularity(n: int, k: int) -> int:
    """Total number of 1s over all length-n avoiders: [x^n] of ``pk_fraction``."""
    return coefficient(*pk_fraction(_run_length(n, k)), n)


def alpha(n: int, k: int) -> Fraction:
    """Expected value of a random bit in a random length-n avoider.

    Equals popularity / total bit count, always in lowest terms.  The
    total bit count is n count_words(n), n bits in each word: one
    coefficient of -h_k/g_k, not of the bits series over g_k^2.
    Undefined at n = 0 (0/0).
    """
    run = _run_length(n, k)
    if n == 0:
        raise ValueError("expected bit value undefined at n=0; need n >= 1")
    return Fraction(coefficient(*pk_fraction(run), n), n * coefficient(*words_fraction(run), n))
