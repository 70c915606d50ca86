"""Brute-force ground truth by exhaustive enumeration of all 2^n words.

Deliberately independent of the recurrences in ``core``: each of the
2^n words is tested directly, all at once in bit planes (bit slicing,
Knuth TAOCP 4A, 7.1.3).  Plane j is a 2^n-bit integer whose bit i is
bit j of word i.  Word i has a run of k 1s exactly when, for some start
s, its bit is set in each of the planes s..s+k-1: the words with a run
are the OR over s of the AND of those k planes.  A bit-sliced binary
counter, fed one plane at a time, counts every word's 1s.  Planes are
streamed, so only the ANDs of the last k-1 and the counter stay alive.
Budgets are fixed constants so the oracle stays fast enough for CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import _check_k, _check_n, max_ones

ENUMERATE_MAX_N = 24
LIST_MAX_N = 16


@dataclass(frozen=True)
class OracleResult:
    n: int
    k: int
    word_count: int
    total_ones: int
    distribution: tuple[int, ...]


def _plane(j: int, size: int) -> int:
    """The size-bit plane of bit j: blocks of 2^j 0s then 2^j 1s, repeated."""
    width = 1 << j
    plane = ((1 << width) - 1) << width
    width <<= 1
    while width < size:
        plane |= plane << width
        width <<= 1
    return plane


def _scan(n: int, k: int) -> tuple[int, list[int]]:
    """The avoider plane of all 2^n words, and the planes of their 1s count.

    ``ends[r]`` marks the words whose bits j-r..j are all 1; counter
    plane b holds bit b of each word's number of 1s so far.
    """
    size = 1 << n
    ends = [0] * (min(k, n + 1) - 1)  # a run of more than n 1s never fits
    has_run = 0
    counter = [0] * n.bit_length()
    for j in range(n):
        bit = _plane(j, size)
        has_run |= ends[-1] & bit
        ends = [bit] + [e & bit for e in ends[:-1]]
        for b, plane in enumerate(counter):  # half adders; bit becomes the carry
            counter[b], bit = plane ^ bit, plane & bit
    return ((1 << size) - 1) ^ has_run, counter


def enumerate_words(n: int, k: int) -> OracleResult:
    """Scan all 2^n words, keep those with no run of k ones, tally 1s."""
    _check_n(n)
    _check_k(k)
    if n > ENUMERATE_MAX_N:
        raise ValueError(f"oracle budget exceeded: n={n} > {ENUMERATE_MAX_N} (2^n scan)")
    avoiders, counter = _scan(n, k)
    distribution = []
    for m in range(max_ones(n, k) + 1):
        words = avoiders
        for b, plane in enumerate(counter):
            words = words & plane if m >> b & 1 else words ^ (words & plane)
        distribution.append(words.bit_count())
    total_ones = sum(m * c for m, c in enumerate(distribution))
    return OracleResult(n, k, avoiders.bit_count(), total_ones, tuple(distribution))


def list_words(n: int, k: int) -> list[str]:
    """All length-n avoiders as 0/1 strings, lexicographically sorted."""
    _check_n(n)
    _check_k(k)
    if n > LIST_MAX_N:
        raise ValueError(f"oracle budget exceeded: n={n} > {LIST_MAX_N}")
    flags = format(_scan(n, k)[0], f"0{1 << n}b")[::-1]  # flags[i] == "1": word i avoids
    return [
        format(word, f"0{n}b") if n else "" for word, flag in enumerate(flags) if flag == "1"
    ]
