"""Exact power-series coefficients of the rational generating functions.

Covers the univariate series (random access to one coefficient, and
prefixes) and the bivariate series counting words by length and number
of 1s, from its defining fixed-point equation and from its closed form.
The two bivariate tables cost O(n^2) cell additions up to row n; they
are the independent references for ``core.ones_distribution``, which
takes one row along an anti-diagonal of the powers of h_k instead.

Random access keeps on each frozen denominator Q its Bostan-Mori half
V, V(x^2) = Q(x) Q(-x), which depends on Q alone, built at its first use
and alive as long as Q.
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


def _halved(q: IntPoly) -> IntPoly:
    """V with V(x^2) = Q(x) Q(-x), kept in Q's ``__dict__`` as a cached property would be."""
    v = q.__dict__.get("_halved")
    if v is None:
        v = q.__dict__["_halved"] = _half_product(q.coeffs, q.coeffs, 0)
    return v


def coefficient(numerator: IntPoly, denominator: IntPoly, n: int) -> int:
    """Coefficient of x^n in numerator/denominator, in O(log n) polynomial products.

    Bostan-Mori halving (SOSA 2021): with Q(x)Q(-x) = V(x^2) and
    P(x)Q(-x) = U_0(x^2) + x U_1(x^2), [x^n] P/Q = [x^(n//2)] U_(n%2)/V.
    Each halving forms only the half U_(n%2) of the numerator's product,
    and V, which depends on Q alone, comes from ``_halved(Q)``.  Once
    n <= deg Q the last terms come from ``expand``.  Same contract as
    ``expand``: the constant term of the denominator must be +1 or -1.
    """
    if n < 0:
        raise ValueError(f"coefficient index n must be >= 0, got {n}")
    _unit_constant_term(denominator)
    p, q = numerator, denominator
    while n > q.degree:
        p, q, n = _half_product(p.coeffs, q.coeffs, n % 2), _halved(q), n // 2
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
