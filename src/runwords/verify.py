"""Self-check harness: cross-checks every subsystem against the others.

``run_checks("quick")`` is a fast smoke test; ``run_checks("full")``
runs the complete acceptance battery.  Each check returns a named
pass/fail result so the CLI can emit a machine-readable report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import core, numerics, oracle, series
from .interval import Interval, render_decimal
from .poly import max_ones, pk_fraction, tk_fraction

# Reference triangle of avoider counts by (ones m, length n), n = 1..9.
# Rows are m = 0, 1, ...; missing trailing cells are zero.
TABLE1_K2 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5, 6, 7, 8, 9],
    [0, 0, 1, 3, 6, 10, 15, 21, 28],
    [0, 0, 0, 0, 1, 4, 10, 20, 35],
    [0, 0, 0, 0, 0, 0, 1, 5, 15],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]
TABLE1_K3 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5, 6, 7, 8, 9],
    [0, 1, 3, 6, 10, 15, 21, 28, 36],
    [0, 0, 0, 2, 7, 16, 30, 50, 77],
    [0, 0, 0, 0, 1, 6, 19, 45, 90],
    [0, 0, 0, 0, 0, 0, 3, 16, 51],
]

# Reference limits of the expected bit value, 15 decimals, k = 2..13.
TABLE2_LIMITS = {
    2: "0.276393202250021",
    3: "0.381580077680607",
    4: "0.433657112297348",
    5: "0.462073883180840",
    6: "0.478227505713290",
    7: "0.487545982771861",
    8: "0.492928265543398",
    9: "0.496019724266083",
    10: "0.497779940783496",
    11: "0.498772398758879",
    12: "0.499326557312936",
    13: "0.499633184444604",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, condition: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(condition), detail=detail)


def check_oracle_equivalence(n_max: int, ks: Iterable[int]) -> CheckResult:
    """Exact agreement of the recurrences with brute-force enumeration."""
    for k in ks:
        for n in range(n_max + 1):
            ref = oracle.enumerate_words(n, k)
            dist = core.ones_distribution(n, k)
            if (
                core.count_words(n, k) != ref.word_count
                or core.popularity(n, k) != ref.total_ones
                or dist.counts != ref.distribution
            ):
                return _check("oracle_equivalence", False, f"mismatch at n={n}, k={k}")
    return _check("oracle_equivalence", True, f"n<={n_max}, k in {sorted(ks)}")


def table1_cells(k: int, n_max: int) -> list[list[int]]:
    """Triangle of counts by ones m (rows) and length n = 1..n_max."""
    if type(n_max) is not int or n_max < 1:  # bool is refused too
        raise ValueError(f"need n_max >= 1, got {n_max!r}")
    table = series.expand_bivariate_closed_form(k, n_max)
    return [[table[n, m] for n in range(1, n_max + 1)] for m in range(max_ones(n_max, k) + 1)]


def check_table1() -> CheckResult:
    for k, reference in ((2, TABLE1_K2), (3, TABLE1_K3)):
        computed = table1_cells(k, 9)
        for m, row in enumerate(reference):
            if computed[m] != row:
                return _check("table1", False, f"k={k}, row m={m}: {computed[m]} != {row}")
    return _check("table1", True, "k=2 and k=3 triangles, n<=9")


def check_section1_constants() -> CheckResult:
    facts = (
        core.count_words(4, 2) == 8
        and core.count_words(4, 3) == 13
        and core.popularity(4, 2) == 10
        and core.popularity(4, 3) == 22
    )
    return _check("section1_constants", facts)


def check_table2() -> CheckResult:
    for k, expected in TABLE2_LIMITS.items():
        got = render_decimal(lambda work, k=k: numerics.limit_value(k, work), 15)
        if got != expected:
            return _check("table2", False, f"k={k}: {got} != {expected}")
    return _check("table2", True, "limits k=2..13 at 15 decimals")


def check_series_consistency(n_max: int, k_max: int) -> CheckResult:
    """Series prefixes vs. the fixed-point table (P_n = sum_m m*c[n][m],
    T_n = n*sum_m c[n][m]), and random access vs. prefixes."""
    for k in range(2, k_max + 1):
        pk = series.expand(*pk_fraction(k), n_max)
        tk = series.expand(*tk_fraction(k), n_max)
        table = series.expand_bivariate(k, n_max).table
        for n, row in enumerate(table):
            ones = sum(m * c for m, c in enumerate(row))
            if not pk[n] == ones == core.popularity(n, k):
                return _check("series_consistency", False, f"ones series k={k}, n={n}")
            if not tk[n] == n * sum(row) == n * core.count_words(n, k):
                return _check("series_consistency", False, f"bits series k={k}, n={n}")
    return _check("series_consistency", True, f"n<={n_max}, k<={k_max}")


def check_functional_equation(n_max: int, k_max: int) -> CheckResult:
    """Three independent routes to the counts by length and number of 1s.

    The bivariate table from its fixed-point equation must equal the one
    from its closed form, and each of its rows must equal
    ``core.ones_distribution``, which walks the coefficients of the powers
    h_k^J and builds neither table.
    """
    for k in range(2, k_max + 1):
        fixed_point = series.expand_bivariate(k, n_max)
        if series.expand_bivariate_closed_form(k, n_max) != fixed_point:
            return _check("functional_equation", False, f"k={k}")
        for n, row in enumerate(fixed_point.table):
            if core.ones_distribution(n, k).counts != row:
                return _check("functional_equation", False, f"table k={k}, n={n}")
    return _check("functional_equation", True, f"n<={n_max}, k<={k_max}")


def _inside_annulus(x: Fraction, y: Fraction, r: Fraction, k: int) -> bool:
    """Whether the disk |z - c| <= r, c = x + iy, lies in 3^(-1/k) < |z| < 1, exactly.

    That is r < |c|, (|c| + r)^2 < 1 and 9 (|c| - r)^(2k) > 1.  Over a
    common denominator d the disk is (u + iv, t) / d for integers u, v, t;
    with s = u^2 + v^2, d^j (|c| - r)^j = a + b sqrt(s) for integers a, b,
    and the sign of 9a - d^(2k) + 9b sqrt(s) follows from comparing squares.
    """
    d = math.lcm(x.denominator, y.denominator, r.denominator)
    u, v, t = (c.numerator * (d // c.denominator) for c in (x, y, r))
    s = u * u + v * v
    if not (t * t < s and t < d and s < (d - t) ** 2):
        return False
    a, b = 1, 0
    for _ in range(2 * k):  # (a + b sqrt(s)) (sqrt(s) - t)
        a, b = b * s - a * t, a - b * t
    a, b = 9 * a - d ** (2 * k), 9 * b
    return (a > 0 or b * b * s > a * a) and (b > 0 or a * a > b * b * s)


def check_root_structure() -> CheckResult:
    """Newton inclusion disks of the roots, exactly: pairwise disjoint, so
    each holds one root; the largest meets the certified phi_k enclosure,
    and every other one lies in the annulus 3^(-1/k) < |z| < 1."""
    k_max = 10
    for k in range(2, k_max + 1):
        roots = numerics.all_roots(k)
        disks = [
            (Fraction(z.real), Fraction(z.imag), Fraction(r))
            for z, r in zip(roots.roots, roots.error_radii)
        ]
        d = math.lcm(*(c.denominator for disk in disks for c in disk))
        scaled = [tuple(c.numerator * (d // c.denominator) for c in disk) for disk in disks]
        for i, (x, y, r) in enumerate(scaled):
            for u, v, t in scaled[:i]:
                if not (x - u) ** 2 + (y - v) ** 2 > (r + t) ** 2:
                    return _check("root_structure", False, f"k={k}: root disks overlap")
        dominant = max(disks, key=lambda disk: disk[0] ** 2 + disk[1] ** 2)
        x, y, r = dominant
        target = numerics.phi(k, 15)
        gap = max(target.lo - x, x - target.hi, 0)
        if not gap * gap + y * y <= r * r:
            return _check("root_structure", False, f"k={k}: dominant disk misses phi_{k}")
        for disk in disks:
            if disk is not dominant and not _inside_annulus(*disk, k):
                return _check("root_structure", False, f"k={k}: a disk leaves the annulus")
    return _check("root_structure", True, f"k=2..{k_max}")


def check_golden_ratio_case() -> CheckResult:
    """sqrt5 = 2 phi_2 - 1 = 5 - 10 L_2 inside both enclosures, by exact squares.

    The narrow widths keep each enclosure on the positive side of its square.
    """
    phi = numerics.phi(2, 17)
    low, high = 2 * phi.lo - 1, 2 * phi.hi - 1
    if not (low**2 <= 5 <= high**2 and phi.width < Fraction(1, 10**15)):
        return _check("golden_ratio_case", False, "phi(2) != (1+sqrt5)/2 at 15 decimals")
    limit = numerics.limit_value(2, 32)
    low, high = 5 - 10 * limit.hi, 5 - 10 * limit.lo
    if not (low**2 <= 5 <= high**2 and limit.width < Fraction(1, 10**30)):
        return _check("golden_ratio_case", False, "limit(2) != (5-sqrt5)/10 at 30 decimals")
    return _check("golden_ratio_case", True)


def _distance(x: Interval, y: Fraction) -> Interval:
    """Enclosure of |v - y| over the points v of x, for a rational y."""
    return Interval(max(x.lo - y, y - x.hi, 0), max(x.hi - y, y - x.lo))


def _ratio_gap(k: int, target: str, n: int) -> Interval:
    """Enclosure of |estimate(n)/exact(n) - 1|, that is |estimate - exact| / exact.

    For the total-bits series the estimate is exponentially accurate
    (the subdominant roots contribute n*r^n with |r| < 1 < phi), so the
    working precision must scale with n to resolve the gap at all.
    """
    exact = (
        core.popularity(n, k) if target == "P" else n * core.count_words(n, k)
    )
    digits = 30 + (n if target == "T" else 0)
    estimate = numerics.asymptotic_coefficient(k, target, n, digits)
    gap = _distance(estimate, exact)
    return Interval(gap.lo / exact, gap.hi / exact)


def check_asymptotic_transfer() -> CheckResult:
    for k in (2, 3):
        for target in ("P", "T"):
            gaps = [_ratio_gap(k, target, n) for n in (100, 200, 400, 800)]
            for earlier, later in zip(gaps, gaps[1:]):
                if not later.hi < earlier.lo:
                    return _check(
                        "asymptotic_transfer", False, f"k={k} {target}: not decreasing"
                    )
            if not gaps[-1].hi < 0.001:
                return _check(
                    "asymptotic_transfer",
                    False,
                    f"k={k} {target}: gap {float(gaps[-1].hi)} at n=800",
                )
    return _check("asymptotic_transfer", True, "k in {2,3}, both series")


def check_alpha_convergence() -> CheckResult:
    ns = (50, 100, 200, 400, 800, 1600)
    for k in (2, 3):
        limit = numerics.limit_value(k, 30)
        gaps = [_distance(limit, core.alpha(n, k)) for n in ns]
        for earlier, later in zip(gaps, gaps[1:]):
            if not later.hi < earlier.lo:
                return _check("alpha_convergence", False, f"k={k}: not decreasing")
        if not gaps[-1].hi < Fraction(2, 10000):
            return _check(
                "alpha_convergence", False, f"k={k}: gap {float(gaps[-1].hi)} at n=1600"
            )
    return _check("alpha_convergence", True, "k in {2,3}, n up to 1600")


def check_corollary() -> CheckResult:
    k_max = 40
    limits = [(k, numerics.limit_value(k, 15)) for k in range(2, k_max + 1)]
    for (_, earlier), (k, later) in zip(limits, limits[1:]):
        if not earlier.hi < later.lo:
            return _check("corollary", False, f"not increasing at k={k}")
    if not all(enc.hi < Fraction(1, 2) for _, enc in limits):
        return _check("corollary", False, "some limit >= 1/2")
    if not limits[-1][1].lo > Fraction(499999, 1000000):
        return _check("corollary", False, f"limit at k={k_max} too small")
    return _check("corollary", True, f"k=2..{k_max} strictly rising below 1/2")


# The largest precision an enclosure_soundness trial draws; the referee
# works at 2 * MAX_DIGITS + 10 digits, enough for every trial.
MAX_DIGITS = 30


def _float_newton(coeffs: list[int], x: float) -> float:
    """Plain-float Newton on the polynomial with these coefficients (highest
    degree first), from a start x above its root where it rises and is
    convex, so each step falls toward the root until rounding stops it."""
    for _ in range(100):
        value = slope = 0.0
        for c in coeffs:
            slope = slope * x + value
            value = value * x + c
        below = x - value / slope
        if not below < x:
            break
        x = below
    return x


def _referee_root(coeffs: list[int], lo: int, hi: int):
    """The root in (lo, hi) of ``mpmath.polyval(coeffs, z)``, at mpmath's working precision.

    Seeded by ``_float_newton`` from hi; raises RuntimeError if ``findroot``
    does not converge or lands outside.
    """
    import mpmath  # the independent referee, loaded only by the checks that use it

    seed = _float_newton(coeffs, float(hi))
    try:
        root = mpmath.findroot(
            lambda z: mpmath.polyval(coeffs, z), (seed, math.nextafter(seed, math.inf)),
            solver="secant", verify=True,
        )
    except ValueError as exc:
        raise RuntimeError(f"mpmath referee: no root of {coeffs} found near {seed}") from exc
    if not lo < root < hi:
        raise RuntimeError(f"mpmath referee: root {root} of {coeffs} outside ({lo}, {hi})")
    return root


def _mpmath_references(k: int) -> dict[str, Fraction]:
    """phi_k, 1/phi_k and the limit, from mpmath alone at 2*MAX_DIGITS + 10 digits.

    The roots are those of the defining polynomials written out here and
    evaluated by ``mpmath.polyval`` (Horner's rule): each is seeded by
    plain-float Newton on the same coefficient list from the bracket's top
    end, then taken by ``mpmath.findroot``'s secant from the seed and the
    next double above it, and accepted only inside (1, 2) for phi_k and
    (0, 1) for 1/phi_k, else RuntimeError.  The limit is its closed form at
    x = 1/phi_k, so nothing is shared with the production path.
    """
    import mpmath

    with mpmath.workdps(2 * MAX_DIGITS + 10):
        phi = _referee_root([1] + [-1] * k, 1, 2)
        x = _referee_root([1] * k + [-1], 0, 1)
        limit = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
            k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
        )
    references = {}
    for name, value in (("phi", phi), ("inverse_phi", x), ("limit_value", limit)):
        mantissa, exponent = value.man_exp
        references[name] = mantissa * Fraction(2) ** exponent
    return references


def check_enclosure_soundness() -> CheckResult:
    """Randomized enclosures at two precisions, against each other and against mpmath.

    A trial at ``digits`` compares both enclosures with an mpmath value
    computed at 2*MAX_DIGITS + 10 >= 2*digits + 10 digits, which may
    therefore sit outside an enclosure by no more than 10^-(2*digits + 5).
    The references are computed once per k in each call, never kept
    between calls.
    """
    import random

    trials = 100
    rng = random.Random(20240826)
    references: dict[int, dict[str, Fraction]] = {}
    for _ in range(trials):
        k = rng.randint(2, 20)
        digits = rng.randint(3, MAX_DIGITS)
        compute = rng.choice([numerics.phi, numerics.inverse_phi, numerics.limit_value])
        coarse = compute(k, digits)
        fine = compute(k, 2 * digits)
        widened = Interval(coarse.lo - coarse.width, coarse.hi + coarse.width)
        if k not in references:
            references[k] = _mpmath_references(k)
        reference = references[k][compute.__name__]
        slack = Fraction(1, 10 ** (2 * digits + 5))
        if fine not in widened or not all(
            enc.lo - slack <= reference <= enc.hi + slack for enc in (coarse, fine)
        ):
            return _check(
                "enclosure_soundness",
                False,
                f"{compute.__name__}(k={k}, digits={digits}) inconsistent",
            )
    return _check("enclosure_soundness", True, f"{trials} randomized queries")


QUICK_CHECKS: list[Callable[[], CheckResult]] = [
    lambda: check_oracle_equivalence(14, (2, 3)),
    check_table1,
    check_section1_constants,
    check_table2,
    lambda: check_series_consistency(50, 4),
    lambda: check_functional_equation(20, 4),
]

FULL_CHECKS: list[Callable[[], CheckResult]] = [
    lambda: check_oracle_equivalence(18, (2, 3, 4, 5)),
    check_table1,
    check_section1_constants,
    check_table2,
    lambda: check_series_consistency(100, 6),
    lambda: check_functional_equation(30, 6),
    check_root_structure,
    check_golden_ratio_case,
    check_asymptotic_transfer,
    check_alpha_convergence,
    check_corollary,
    check_enclosure_soundness,
]


def run_checks(level: str) -> list[CheckResult]:
    if level == "quick":
        checks = QUICK_CHECKS
    elif level == "full":
        checks = FULL_CHECKS
    else:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return [check() for check in checks]
