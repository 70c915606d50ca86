"""Exact enumeration of binary words with no run of k consecutive 1s.

Everything here is big-integer / exact-rational arithmetic; no floats.
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
    def total(self) -> int:
        return sum(self.counts)

    @property
    def total_ones(self) -> int:
        return sum(m * c for m, c in enumerate(self.counts))


def kstep_fibonacci(n: int, k: int) -> int:
    """n-th k-step Fibonacci number (k=2 gives 0, 0, 1, 1, 2, 3, 5, ...).

    Zero for n <= k-2, one at n = k-1, afterwards the sum of the
    previous k terms.  Iterative with a sliding window.
    """
    _check_n(n)
    _check_k(k)
    if n <= k - 2:
        return 0
    window = [0] * (k - 1) + [1]  # f_{n-k+1} .. f_n, starting at n = k-1
    for _ in range(n - (k - 1)):
        window.append(sum(window))
        del window[0]
    return window[-1]


def count_words(n: int, k: int) -> int:
    """Number of length-n binary words with no k consecutive 1s."""
    _check_n(n)
    _check_k(k)
    return kstep_fibonacci(n + k, k)


def ones_distribution(n: int, k: int) -> OnesDistribution:
    """Distribution of the number of 1s over all length-n avoiders.

    Dynamic programming over the trailing-run length j in {0,...,k-1};
    each state carries a vector indexed by the ones count so far.
    """
    _check_n(n)
    _check_k(k)
    # state[j][m]: words counted so far ending in exactly j trailing 1s
    state = [[1]] + [[] for _ in range(k - 1)]
    for _ in range(n):
        appended_zero = [0] * max(len(s) for s in state)
        for s in state:
            for m, c in enumerate(s):
                appended_zero[m] += c
        new_state = [appended_zero]
        for j in range(k - 1):
            new_state.append([0] + state[j])  # append a 1: ones += 1
        state = new_state
    width = max_ones(n, k) + 1
    counts = [0] * width
    for s in state:
        for m, c in enumerate(s):
            counts[m] += c
    return OnesDistribution(n=n, k=k, counts=tuple(counts))


def popularity(n: int, k: int) -> int:
    """Total number of 1s over all length-n avoiders.

    Direct O(n*k) recurrence on per-state (word count, ones sum) pairs;
    cheaper than summing the full distribution.
    """
    _check_n(n)
    _check_k(k)
    counts = [1] + [0] * (k - 1)  # by trailing-run length
    sums = [0] * k
    for _ in range(n):
        c0 = sum(counts)
        s0 = sum(sums)
        new_counts = [c0] + counts[: k - 1]
        new_sums = [s0] + [sums[j] + counts[j] for j in range(k - 1)]
        counts, sums = new_counts, new_sums
    return sum(sums)


def alpha(n: int, k: int) -> Fraction:
    """Expected value of a random bit in a random length-n avoider.

    Equals popularity / (n * count), always in lowest terms.  Undefined
    at n = 0 (0/0).
    """
    _check_k(k)
    _check_n(n)
    if n == 0:
        raise ValueError("expected bit value undefined at n=0; need n >= 1")
    return Fraction(popularity(n, k), n * count_words(n, k))
