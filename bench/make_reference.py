"""Build reference.json, the stored answers of the benchmark's large requests.

Every value comes from a route independent of the code under test:

* word counts from c_n = 2 c_(n-1) - c_(n-k-1), not the k-term window sum;
* popularity from the generating function x * sum (i+1) x^i / g(x)^2 with
  g(x) = x^k + ... + x - 1, not the per-state recurrence;
* the ones distribution from the bivariate closed form
  c_n(y) = (1 + y) c_(n-1)(y) - y^k c_(n-k-1)(y), not the state DP;
* phi_k, 1/phi_k and the limiting bit value from ``mpmath.findroot``,
  not rational bisection; the limit is the ratio of the two numerators
  at the double pole 1/phi_k;
* the complex roots from ``mpmath.polyroots``.

Before writing, the script cross-checks each value once against the
library on the same inputs and against the brute-force oracle for
small n, and fails if any disagree.

Run from the repository root:  python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import count, islice
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import LADDERS, REFERENCE_PATH, int_digest, round_half_even, sha  # noqa: E402

# Extra decimals stored beyond the largest digit count requested, so the
# truncated expansion rounds correctly.
GUARD = 30


def word_counts(k: int):
    """Yield c_0, c_1, ...: avoiders of 1^k by length."""
    window: list[int] = []
    for n in count():
        if n < k:
            c = 2**n
        elif n == k:
            c = 2**k - 1
        else:
            c = 2 * window[-1] - window[0]
        window = (window + [c])[-(k + 1):]
        yield c


def popularities(k: int):
    """Yield p_0, p_1, ...: total 1s over avoiders, by length."""
    g = [-1] + [1] * k
    denominator = [0] * (2 * k + 1)
    for i, a in enumerate(g):
        for j, b in enumerate(g):
            denominator[i + j] += a * b
    numerator = [0] + [i + 1 for i in range(k - 1)]
    window: list[int] = []  # p_(n-1), p_(n-2), ..., newest first
    for n in count():
        acc = numerator[n] if n < len(numerator) else 0
        for j, p in enumerate(window, start=1):
            acc -= denominator[j] * p
        window = ([acc] + window)[: 2 * k]  # denominator[0] == 1
        yield acc


def nth(values, n: int) -> int:
    return next(islice(values, n, None))


def distribution_rows(n_max: int, k: int):
    """Yield (n, counts by number of 1s) for n = 0..n_max."""
    window: list[list[int]] = []
    for n in range(n_max + 1):
        row = [0] * (n + k + 1)
        if n == 0:
            row[0] = 1
        if n == k:
            row[k] -= 1
        if n >= 1:
            for m, c in enumerate(window[-1]):
                row[m] += c
                row[m + 1] += c
        if n >= k + 1:
            for m, c in enumerate(window[-k - 1]):
                row[m + k] -= c
        while row and row[-1] == 0:
            row.pop()
        window = (window + [row])[-(k + 1):]
        yield n, row


def round6(x: Fraction) -> str:
    q, r = divmod(x.numerator * 10**6, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    whole, frac = divmod(q, 10**6)
    return f"{whole}.{frac:06d}"


def decimal_text(x, places: int) -> str:
    scaled = int(mpmath.floor(x * mpmath.mpf(10) ** places))
    whole, frac = divmod(scaled, 10**places)
    return f"{whole}.{frac:0{places}d}"


def inverse_phi(k: int):
    # g is increasing and convex on (0, 1), so Newton from the right of
    # every root (all lie at or below 0.6181) converges monotonically.
    return mpmath.findroot(lambda x: sum(x**i for i in range(1, k + 1)) - 1, mpmath.mpf("0.62"))


def limit(k: int):
    x = inverse_phi(k)
    ones = x * sum((i + 1) * x**i for i in range(k - 1))
    bits = x * (sum((2 * i + 2) * x**i for i in range(k - 1))
                + sum((2 * k - i - 1) * x**i for i in range(k - 1, 2 * k - 1)))
    return ones / bits


def build() -> dict:
    from runwords import core, numerics, oracle, verify

    sys.set_int_max_str_digits(0)
    ref: dict = {"count": {}, "popularity": {}, "alpha": {}, "alpha_series": {},
                 "dist": {}, "table1": {}, "phi": {}, "inverse_phi": {}, "limit": {},
                 "roots": {}}
    ladders = LADDERS.values()

    # Small n: the independent routes agree with the oracle.
    for k in (2, 3, 4, 5):
        c = list(islice(word_counts(k), 17))
        p = list(islice(popularities(k), 17))
        rows = dict(distribution_rows(16, k))
        for n in range(17):
            truth = oracle.enumerate_words(n, k)
            assert (c[n], p[n]) == (truth.word_count, truth.total_ones), (n, k)
            assert tuple(rows[n]) == truth.distribution, (n, k)

    for k in sorted({k for lad in ladders for k in lad["point_k"]}):
        for n in sorted({n for lad in ladders for n in lad["point_n"]}):
            count = nth(word_counts(k), n)
            pop = nth(popularities(k), n)
            assert count == core.count_words(n, k) and pop == core.popularity(n, k), (n, k)
            alpha = Fraction(pop, n * count)
            key = f"{k}:{n}"
            ref["count"][key] = {"hex": int_digest(count), "dec": sha(str(count)),
                                 "digits": len(str(count))}
            ref["popularity"][key] = {"hex": int_digest(pop), "dec": sha(str(pop)),
                                      "digits": len(str(pop))}
            ref["alpha"][key] = {"hex": sha(f"{alpha.numerator:x}/{alpha.denominator:x}")}
            print("point", key, file=sys.stderr)

    for k, n_maxes in {lad["alpha_series"] for lad in ladders}:
        top = max(n_maxes)
        c = list(islice(word_counts(k), top + 1))
        p = list(islice(popularities(k), top + 1))
        with mpmath.workdps(60):
            limit6 = round_half_even(decimal_text(limit(k), 6 + GUARD), 6)
        for n_max in n_maxes:
            lines = ["k,n,alpha_num,alpha_den,alpha_decimal,limit_decimal"]
            for n in range(1, n_max + 1):
                a = Fraction(p[n], n * c[n])
                lines.append(f"{k},{n},{a.numerator},{a.denominator},{round6(a)},{limit6}")
            ref["alpha_series"][f"{k}:{n_max}"] = sha("\n".join(lines) + "\n")
            print("alpha-series", k, n_max, file=sys.stderr)

    for k, ns in {lad["dist"] for lad in ladders}:
        wanted = set(ns)
        for n, row in distribution_rows(max(ns), k):
            if n in wanted:
                assert list(core.ones_distribution(n, k).counts) == row, (n, k)
                doc = {"k": k, "n": n, "counts": row}
                ref["dist"][f"{k}:{n}"] = sha(json.dumps(doc, indent=2) + "\n")
        print("dist", k, ns, file=sys.stderr)

    for ks, n_maxes in {lad["table1"] for lad in ladders}:
        for k in ks:
            rows = dict(distribution_rows(max(n_maxes), k))
            for n_max in n_maxes:
                m_max = max(len(rows[n]) for n in range(1, n_max + 1)) - 1
                grid = [[rows[n][m] if m < len(rows[n]) else 0 for n in range(1, n_max + 1)]
                        for m in range(m_max + 1)]
                assert grid == verify.table1_cells(k, n_max), (k, n_max)
                doc = {"k": k, "n_max": n_max, "rows_by_m": grid}
                ref["table1"][f"{k}:{n_max}"] = sha(json.dumps(doc, indent=2) + "\n")

    phi_places = max(
        [d for lad in ladders for group in lad["phi_small"][1] for d in group]
        + [d for lad in ladders for d in lad["phi_block"][2]]
        + [d for lad in ladders for _, d in lad["phi_fixed"]]
    ) + GUARD
    phi_ks = ({k for lad in ladders for k in lad["phi_k"]}
              | {lad["phi_block"][0] for lad in ladders}
              | {k for lad in ladders for k, _ in lad["phi_fixed"]})
    with mpmath.workdps(phi_places + 20):
        for k in sorted(phi_ks):
            x = inverse_phi(k)
            ref["phi"][str(k)] = decimal_text(1 / x, phi_places)
            ref["inverse_phi"][str(k)] = decimal_text(x, phi_places)
            enclosure = numerics.phi(k, 60)
            assert abs(Fraction(ref["phi"][str(k)][:70]) - enclosure.mid) < Fraction(1, 10**58), k
            print("phi", k, file=sys.stderr)

    limit_places = max(d for lad in ladders for _, d in lad["limits"]) + GUARD
    k_top = max(k for lad in ladders for k, _ in lad["limits"])
    with mpmath.workdps(limit_places + 20):
        for k in range(2, k_top + 1):
            ref["limit"][str(k)] = decimal_text(limit(k), limit_places)
            enclosure = numerics.limit_value(k, 40)
            assert abs(Fraction(ref["limit"][str(k)][:50]) - enclosure.mid) < Fraction(1, 10**38), k

    with mpmath.workdps(50):
        for k in sorted({k for lad in ladders for k in lad["roots_k"]}):
            roots = mpmath.polyroots([1] + [-1] * k, maxsteps=200, extraprec=200)
            ref["roots"][str(k)] = [[mpmath.nstr(z.real, 25), mpmath.nstr(z.imag, 25)]
                                    for z in map(mpmath.mpc, roots)]
    return ref


def main() -> None:
    ref = build()
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
