"""Brute-force ground truth by exhaustive enumeration of all 2^n words.

Deliberately independent of the recurrences in ``core``: every word is
tested by a direct bit scan.  Budgets are fixed constants so the oracle
stays fast enough for CI.
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


def _has_run(word: int, k: int) -> bool:
    """True iff the bit pattern contains k consecutive 1 bits."""
    for _ in range(k - 1):
        word &= word >> 1
    return word != 0


def enumerate_words(n: int, k: int) -> OracleResult:
    """Scan all 2^n words, keep those with no run of k ones, tally 1s."""
    _check_n(n)
    _check_k(k)
    if n > ENUMERATE_MAX_N:
        raise ValueError(
            f"oracle budget exceeded: n={n} > {ENUMERATE_MAX_N} (2^n scan)"
        )
    distribution = [0] * (max_ones(n, k) + 1)
    for word in range(1 << n):
        if not _has_run(word, k):
            distribution[word.bit_count()] += 1
    word_count = sum(distribution)
    total_ones = sum(m * c for m, c in enumerate(distribution))
    return OracleResult(
        n=n,
        k=k,
        word_count=word_count,
        total_ones=total_ones,
        distribution=tuple(distribution),
    )


def list_words(n: int, k: int) -> list[str]:
    """All length-n avoiders as 0/1 strings, lexicographically sorted."""
    _check_n(n)
    _check_k(k)
    if n > LIST_MAX_N:
        raise ValueError(f"oracle budget exceeded: n={n} > {LIST_MAX_N}")
    return [
        format(word, f"0{n}b") if n else ""
        for word in range(1 << n)
        if not _has_run(word, k)
    ]
