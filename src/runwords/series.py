"""Exact power-series coefficients of the rational generating functions.

Covers the univariate series (random access to one coefficient, and
prefixes) and the bivariate series counting words by length and number
of 1s, from its defining fixed-point equation and from its closed form.
The two bivariate tables cost O(n^2) cell additions up to row n; they
are the independent references for ``core.ones_distribution``, which
takes one row along an anti-diagonal of the powers of h_k instead.

Random access halves the denominator Q into V_1, V_2, ... (Bostan-Mori),
levels that depend on Q alone.  They are built once and kept on the
frozen Q, extended only when a larger n needs more, and live as long as
Q does: for ``poly``'s generating functions, as long as its cache of the
last ``CACHED_KS`` k holds them.  Level j has Q's degree, and its roots
are the 2^j-th powers of Q's, so the levels for n take about as many
bits as the n-th coefficient: 89 KiB after ``core.count_words(10**6, 2)``,
whose answer has 85 KiB.  They are stored as one tuple, replaced whole,
so threads that race repeat work but never misplace a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

from .poly import IntPoly, _check_k, max_ones


@dataclass(frozen=True)
class SeriesExpansion:
    coeffs: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


@dataclass(frozen=True)
class BivariateTruncation:
    """Table c[n][m] of avoider counts by length n and ones count m."""

    table: tuple[tuple[int, ...], ...]

    def __getitem__(self, nm: tuple[int, int]) -> int:
        n, m = nm
        row = self.table[n]
        return row[m] if 0 <= m < len(row) else 0


def _unit_constant_term(denominator: IntPoly) -> int:
    d0 = denominator[0]
    if d0 not in (1, -1):
        raise ValueError(f"denominator constant term must be +1 or -1, got {d0}")
    return d0


def expand(numerator: IntPoly, denominator: IntPoly, n_terms: int) -> SeriesExpansion:
    """First coefficients of numerator/denominator as a power series.

    Standard linear recurrence: with d0 = denominator constant term,
    d0 * c_n = numer_n - sum_{j>=1} denom_j * c_{n-j}, the sum running
    over the nonzero taps denom_j only.  Requires d0 in {1, -1} so every
    coefficient is an exact integer.
    """
    d0 = _unit_constant_term(denominator)
    taps = [(j, d) for j, d in enumerate(denominator.coeffs) if j and d]
    numer = numerator.coeffs
    coeffs: list[int] = []
    for n in range(n_terms + 1):
        acc = numer[n] if n < len(numer) else 0
        for j, d in taps:
            if j > n:
                break
            acc -= d * coeffs[n - j]
        coeffs.append(acc * d0)
    return SeriesExpansion(tuple(coeffs))


def _half_product(a: tuple[int, ...], q: tuple[int, ...], parity: int) -> IntPoly:
    """[x^(2t + parity)] a(x) q(-x) for t = 0, 1, ...: one parity of the product.

    For a_i only the q_j with j = i + parity (mod 2) land there, all of sign (-1)^j.
    """
    out = [0] * ((len(a) + len(q) - parity) // 2)
    for i, c in enumerate(a):
        start = (i + parity) % 2
        c = -c if start else c
        for j in range(start, len(q), 2):
            out[(i + j) // 2] += c * q[j]
    return IntPoly(out)


def _halvings(denominator: IntPoly, levels: int) -> tuple[IntPoly, ...]:
    """V_1, ..., V_levels or more, where V_0 = Q and V_(j+1)(x^2) = V_j(x) V_j(-x).

    Kept in the denominator's ``__dict__``, as a cached property would
    be, and extended from its last level.  A tuple built aside replaces
    the stored one whole, if it is longer.
    """
    chain = denominator.__dict__.get("_halvings", ())
    if len(chain) < levels:
        grown, v = list(chain), (chain[-1] if chain else denominator)
        while len(grown) < levels:
            v = _half_product(v.coeffs, v.coeffs, 0)
            grown.append(v)
        chain = tuple(grown)
        if levels > len(denominator.__dict__.get("_halvings", ())):
            denominator.__dict__["_halvings"] = chain
    return chain


def coefficient(numerator: IntPoly, denominator: IntPoly, n: int) -> int:
    """Coefficient of x^n in numerator/denominator, in O(log n) polynomial products.

    Bostan-Mori halving (SOSA 2021): with Q(x)Q(-x) = V(x^2) and
    P(x)Q(-x) = U_0(x^2) + x U_1(x^2), [x^n] P/Q = [x^(n//2)] U_(n%2)/V.
    V keeps Q's degree, as its top coefficient is +-q_d^2, so the number
    of halvings depends only on n and deg Q.  Once n <= deg Q the last
    terms come from ``expand``.  Same contract as ``expand``: the
    constant term of the denominator must be +1 or -1.

    The denominators V_1, V_2, ... depend on Q alone.  They are built
    once, kept on the frozen Q and extended only when a larger n needs
    more levels, so a call forms only the numerator halves U_(n%2).  They
    live as long as Q, and take about as many bits as the n-th
    coefficient (89 KiB for the 85 KiB of ``core.count_words(10**6, 2)``).
    Threads that race on one Q may build the same levels twice and store
    the shorter tuple last, but every tuple stored is a true prefix of
    the chain, so no level lands in the wrong place.
    """
    _unit_constant_term(denominator)
    # halvings while n > deg Q: the least j with n < (deg Q + 1) 2^j
    levels = (max(n, 0) // (denominator.degree + 1)).bit_length()
    p, q = numerator, denominator
    for v in _halvings(denominator, levels)[:levels]:
        p = _half_product(p.coeffs, q.coeffs, n % 2)
        q = v
        n //= 2
    return expand(p, q, n)[n]


def _trim(row: list[int]) -> list[int]:
    while row and row[-1] == 0:
        row.pop()
    return row


def expand_bivariate(k: int, max_n: int) -> BivariateTruncation:
    """Coefficients c[n][m] from the recursive word decomposition.

    Every avoider is either a run of fewer than k 1s, or such a run, a
    0, and a shorter avoider.  In series form F = A + B*F with
    A = sum_{i<k} x^i y^i and B = sum_{i<k} x^(i+1) y^i; since B has no
    constant term the fixed point determines each x-degree from the
    lower ones: c_n(y) = A_n(y) + sum_{i<k, i+1<=n} y^i * c_{n-i-1}(y).
    """
    _check_k(k)
    table: list[list[int]] = []
    for n in range(max_n + 1):
        row = [0] * (max_ones(n, k) + 1)
        if n < k:
            row[n] += 1  # the word 1^n
        for i in range(min(k, n)):
            prev = table[n - i - 1]
            for m, c in enumerate(prev):
                row[m + i] += c
        table.append(row)
    return BivariateTruncation(tuple(tuple(_trim(r)) for r in table))


def _closed_form_rows(k: int) -> Iterator[tuple[int, ...]]:
    """Rows c_0(y), c_1(y), ... of the closed-form rational expression.

    The closed form is y*(1 - (xy)^k) over y - x*y^2 - x*y + (xy)^(k+1);
    cancelling the common factor y gives numerator 1 - x^k y^k and
    denominator 1 - x - x*y + x^(k+1) y^k, whose constant term is 1, so
    the standard recurrence applies with coefficients that are integer
    polynomials in y:
        c_n = [n=0] - [n=k] y^k + (1 + y) c_{n-1} - y^k c_{n-k-1}.
    Only the last k + 1 rows are kept.
    """
    rows: list[list[int]] = []
    for n in count():
        prev = rows[-1] if rows else []
        row = [a + b for a, b in zip([0] + prev, prev + [0])]
        if n == 0:
            row[0] = 1
        if n == k:
            row[k] -= 1
        if n > k:
            # y^k c_{n-k-1} is exactly as long as (1 + y) c_{n-1}
            for m, c in enumerate(rows[0], k):
                row[m] -= c
        row = _trim(row)
        yield tuple(row)
        rows = rows[-k:] + [row]


def expand_bivariate_closed_form(k: int, max_n: int) -> BivariateTruncation:
    """Same table as ``expand_bivariate``, from the closed-form rational expression."""
    _check_k(k)
    return BivariateTruncation(tuple(islice(_closed_form_rows(k), max_n + 1)))
