"""Self-check harness: cross-checks every subsystem against the others.

``run_checks("quick")`` is a fast smoke test; ``run_checks("full")``
runs the complete acceptance battery.  Each check returns a named
pass/fail result so the CLI can emit a machine-readable report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import core, numerics, oracle, series
from .interval import Interval, render_decimal
from .poly import pk_fraction, tk_fraction

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


def table1_cells(k: int, n_max: int = 9) -> list[list[int]]:
    """Triangle of counts by ones m (rows) and length n = 1..n_max."""
    columns = [core.ones_distribution(n, k) for n in range(1, n_max + 1)]
    m_max = max(core.max_ones(n, k) for n in range(1, n_max + 1))
    return [[col[m] for col in columns] for m in range(m_max + 1)]


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
    """Series coefficients vs. the exact recurrences."""
    for k in range(2, k_max + 1):
        pk = series.expand(*pk_fraction(k), n_max)
        tk = series.expand(*tk_fraction(k), n_max)
        for n in range(n_max + 1):
            if pk[n] != core.popularity(n, k):
                return _check("series_consistency", False, f"ones series k={k}, n={n}")
            if tk[n] != n * core.count_words(n, k):
                return _check("series_consistency", False, f"bits series k={k}, n={n}")
    return _check("series_consistency", True, f"n<={n_max}, k<={k_max}")


def check_functional_equation(n_max: int, k_max: int) -> CheckResult:
    for k in range(2, k_max + 1):
        if not series.check_functional_equation(k, n_max):
            return _check("functional_equation", False, f"k={k}")
        closed = series.expand_bivariate_closed_form(k, n_max)
        for n in range(n_max + 1):
            dist = core.ones_distribution(n, k).counts
            padded = closed.table[n] + (0,) * (len(dist) - len(closed.table[n]))
            if padded != dist:
                return _check("functional_equation", False, f"table k={k}, n={n}")
    return _check("functional_equation", True, f"n<={n_max}, k<={k_max}")


def check_root_structure(k_max: int = 10) -> CheckResult:
    for k in range(2, k_max + 1):
        roots = numerics.all_roots(k)
        moduli = [abs(r) for r in roots.roots]
        dominant = max(moduli)
        target = float(numerics.phi(k, 12).mid)
        if abs(dominant - target) > 1e-9:
            return _check("root_structure", False, f"k={k}: dominant {dominant} vs {target}")
        inner = 3.0 ** (-1.0 / k)
        for mod in moduli:
            if mod == dominant:
                continue
            if not (inner - 1e-9 < mod < 1 + 1e-9):
                return _check("root_structure", False, f"k={k}: |r|={mod} outside annulus")
    return _check("root_structure", True, f"k=2..{k_max}")


def sqrt5_enclosure(digits: int = 40) -> Interval:
    """Independent oracle for sqrt(5): integer square root at scale."""
    import math

    scale = 10**digits
    s = math.isqrt(5 * scale * scale)
    return Interval(Fraction(s, scale), Fraction(s + 1, scale))


def check_golden_ratio_case() -> CheckResult:
    sqrt5 = sqrt5_enclosure()
    golden = (1 + sqrt5) / 2
    gap = abs(numerics.phi(2, 17) - golden)
    if not gap.hi < Fraction(1, 10**15):
        return _check("golden_ratio_case", False, "phi(2) != (1+sqrt5)/2 at 15 decimals")
    closed_form = (5 - sqrt5) / 10
    gap = abs(numerics.limit_value(2, 32) - closed_form)
    if not gap.hi < Fraction(1, 10**30):
        return _check("golden_ratio_case", False, "limit(2) != (5-sqrt5)/10 at 30 decimals")
    return _check("golden_ratio_case", True)


def _ratio_gap(k: int, target: str, n: int) -> Interval:
    """Enclosure of |estimate(n)/exact(n) - 1|.

    For the total-bits series the estimate is exponentially accurate
    (the subdominant roots contribute n*r^n with |r| < 1 < phi), so the
    working precision must scale with n to resolve the gap at all.
    """
    exact = (
        core.popularity(n, k) if target == "P" else n * core.count_words(n, k)
    )
    digits = 30 + (n if target == "T" else 0)
    estimate = numerics.asymptotic_coefficient(k, target, n, digits)
    return abs(estimate / exact - 1)


def check_asymptotic_transfer(threshold: float = 0.001) -> CheckResult:
    for k in (2, 3):
        for target in ("P", "T"):
            gaps = [_ratio_gap(k, target, n) for n in (100, 200, 400, 800)]
            for earlier, later in zip(gaps, gaps[1:]):
                if not later.hi < earlier.lo:
                    return _check(
                        "asymptotic_transfer", False, f"k={k} {target}: not decreasing"
                    )
            if not gaps[-1].hi < threshold:
                return _check(
                    "asymptotic_transfer",
                    False,
                    f"k={k} {target}: gap {float(gaps[-1].hi)} at n=800",
                )
    return _check("asymptotic_transfer", True, "k in {2,3}, both series")


def check_alpha_convergence(threshold: Fraction = Fraction(2, 10000)) -> CheckResult:
    ns = (50, 100, 200, 400, 800, 1600)
    for k in (2, 3):
        limit = numerics.limit_value(k, 30)
        gaps = [abs(Interval.point(core.alpha(n, k)) - limit) for n in ns]
        for earlier, later in zip(gaps, gaps[1:]):
            if not later.hi < earlier.lo:
                return _check("alpha_convergence", False, f"k={k}: not decreasing")
        if not gaps[-1].hi < threshold:
            return _check(
                "alpha_convergence", False, f"k={k}: gap {float(gaps[-1].hi)} at n=1600"
            )
    return _check("alpha_convergence", True, "k in {2,3}, n up to 1600")


def check_corollary(k_max: int = 40) -> CheckResult:
    limits = [(k, numerics.limit_value(k, 15)) for k in range(2, k_max + 1)]
    for (_, earlier), (k, later) in zip(limits, limits[1:]):
        if not earlier.hi < later.lo:
            return _check("corollary", False, f"not increasing at k={k}")
    if not all(enc.hi < Fraction(1, 2) for _, enc in limits):
        return _check("corollary", False, "some limit >= 1/2")
    if not limits[-1][1].lo > Fraction(499999, 1000000):
        return _check("corollary", False, f"limit at k={k_max} too small")
    return _check("corollary", True, f"k=2..{k_max} strictly rising below 1/2")


def check_enclosure_soundness(trials: int = 100, seed: int = 20240826) -> CheckResult:
    import random

    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(2, 20)
        digits = rng.randint(3, 30)
        compute = rng.choice([numerics.phi, numerics.inverse_phi, numerics.limit_value])
        coarse = compute(k, digits)
        fine = compute(k, 2 * digits)
        widened = Interval(coarse.lo - coarse.width, coarse.hi + coarse.width)
        if fine not in widened:
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
