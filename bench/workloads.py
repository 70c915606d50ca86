"""Seeded request lists for the benchmark workloads, and their answer checks.

A workload is a fixed ladder of request rungs.  The seed picks, inside
each rung, the word length ``n`` or the digit count from a short list of
offsets, the ``k`` of the cheap rungs, and the order of the requests.
Rungs whose cost grows steeply with ``k`` or with the digit count keep a
fixed size, so a pass costs about the same on every seed, and the
requests that sit at the median and the 90th percentile of a pass are
the same rungs on every seed.

Every answer is checked against a reference that the timed call did not
produce: the brute-force oracle (``n <= 18``), the ``verify`` tables, or
``reference.json``, which ``make_reference.py`` builds by independent
routes (other recurrences, generating functions, ``mpmath``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Python refuses to turn an int of more than 4300 decimal digits into a
# string.  The CLI hits that limit on large point queries and exits 2;
# such a request counts as failed, of the known-defect kind.
INT_STR_DIGITS_LIMIT = 4300
KNOWN_DEFECT_MESSAGE = "Exceeds the limit"

# Ladders.  "full" is the benchmark; "smoke" is the smallest size, used by
# the harness test.  Every size listed here has an entry in reference.json.
LADDERS = {
    "full": {
        "point_k": (2,),
        "point_n": (100_000, 100_007, 100_014, 100_021),
        "count_words_block": 7,
        "alpha_block": 2,
        "alpha_series": (3, (2000, 2003, 2006, 2009)),
        "dist": (2, (2000, 2001, 2002, 2003)),
        "table1": ((2, 3, 4), (30, 33, 36, 39)),
        "small_k": (2, 3, 4, 5, 6),
        "small_n": (10, 12, 14, 16, 18),
        "phi_k": (2, 3, 5, 8),
        "phi_small": (3, ((15, 16, 17, 18), (30, 32, 34, 36), (50, 52, 54, 56))),
        "phi_block": (3, 3, (300, 302, 304, 306)),
        "phi_fixed": ((5, 300), (8, 300), (2, 2000)),
        "limits": ((40, 15), (40, 50), (13, 200)),
        "roots_k": (24, 28, 32),
        "battery": "full",
    },
    "smoke": {
        "point_k": (2, 3),
        "point_n": (25_000,),
        "count_words_block": 1,
        "alpha_block": 1,
        "alpha_series": (3, (150,)),
        "dist": (2, (150,)),
        "table1": ((2, 3, 4), (30,)),
        "small_k": (2, 3),
        "small_n": (10, 12),
        "phi_k": (2, 3, 5, 8),
        "phi_small": (2, ((15, 16), (50, 52))),
        "phi_block": (3, 1, (100, 102)),
        "phi_fixed": ((5, 100),),
        "limits": ((8, 15),),
        "roots_k": (16,),
        "battery": "quick",
    },
}

FULL_CHECK_NAMES = (
    "oracle_equivalence", "table1", "section1_constants", "table2",
    "series_consistency", "functional_equation", "root_structure",
    "golden_ratio_case", "asymptotic_transfer", "alpha_convergence",
    "corollary", "enclosure_soundness",
)
QUICK_CHECK_NAMES = FULL_CHECK_NAMES[:6]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def int_digest(value: int) -> str:
    """Digest of an int through hex, which has no string-conversion limit."""
    return sha(format(value, "x"))


def round_half_even(decimal_text: str, digits: int) -> str:
    """Round a long decimal expansion to `digits` places, half to even.

    The expansion is truncated, so refuse a cut that lands within the
    truncation error of a rounding boundary.
    """
    tail = decimal_text.split(".")[1][digits:]
    rest = set(tail[1:])
    if len(tail) < 10 or (tail[0] == "4" and rest == {"9"}) or (tail[0] == "5" and rest == {"0"}):
        raise ValueError(f"reference cannot be rounded at {digits} digits")
    with localcontext() as ctx:
        ctx.prec = len(decimal_text) + 10
        value = Decimal(decimal_text).quantize(Decimal(1).scaleb(-digits), ROUND_HALF_EVEN)
    return f"{value:.{digits}f}"


@dataclass
class Outcome:
    """What one request returned: exit code and streams, or a value."""

    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: BaseException | None = None


@dataclass
class Request:
    """One request: a CLI argv or a library call, and its answer check.

    ``check`` returns None for a correct answer or a failure reason.
    ``big_decimal`` marks CLI requests whose answer has more than
    INT_STR_DIGITS_LIMIT digits, the only ones that may fail by the
    known defect.
    """

    rung: str
    check: Callable[[Outcome], str | None]
    argv: list[str] | None = None
    func: str | None = None
    args: tuple = ()
    big_decimal: bool = False

    def describe(self) -> str:
        if self.argv is not None:
            return "runwords " + " ".join(self.argv)
        return f"core.{self.func}{self.args}"


def classify(request: Request, outcome: Outcome) -> tuple[str, str]:
    """("ok" | "known_defect" | "failed", detail) for one outcome."""
    if outcome.error is not None:
        return "failed", f"uncaught {type(outcome.error).__name__}: {outcome.error}"
    reason = request.check(outcome)
    if reason is None:
        return "ok", ""
    if (
        request.big_decimal
        and outcome.rc == 2
        and KNOWN_DEFECT_MESSAGE in outcome.stderr
    ):
        return "known_defect", outcome.stderr.strip().splitlines()[-1][:120]
    return "failed", reason


# ----------------------------------------------------------------- checks

def _expect_rc0(outcome: Outcome) -> str | None:
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"
    return None


def _check_digest(digest: str) -> Callable[[Outcome], str | None]:
    def check(outcome: Outcome) -> str | None:
        return _expect_rc0(outcome) or (
            None if sha(outcome.stdout) == digest else "output digest mismatch"
        )
    return check


def _check_text(text: str) -> Callable[[Outcome], str | None]:
    def check(outcome: Outcome) -> str | None:
        return _expect_rc0(outcome) or (
            None if outcome.stdout == text else f"expected {text[:80]!r}"
        )
    return check


_INT = re.compile(r"= (\d+)")


def _check_cli_count(entry: dict, k: int, n: int) -> Callable[[Outcome], str | None]:
    # Digits are compared by digest: turning them back into an int would
    # need the string-conversion limit lifted in the timed process.
    def check(outcome: Outcome) -> str | None:
        bad = _expect_rc0(outcome)
        if bad:
            return bad
        numbers = _INT.findall(outcome.stdout)
        if [sha(x) for x in numbers] != [entry["dec"], entry["dec"]]:
            return f"count k={k} n={n} digest mismatch"
        return None if "[identity ok]" in outcome.stdout else "identity not ok"
    return check


def _check_cli_popularity(entry: dict) -> Callable[[Outcome], str | None]:
    def check(outcome: Outcome) -> str | None:
        return _expect_rc0(outcome) or (
            None if sha(outcome.stdout.strip()) == entry["dec"] else "popularity digest mismatch"
        )
    return check


def _check_value(digest: str) -> Callable[[Outcome], str | None]:
    def check(outcome: Outcome) -> str | None:
        value = outcome.value
        if isinstance(value, Fraction):
            got = sha(f"{value.numerator:x}/{value.denominator:x}")
        else:
            got = int_digest(value)
        return None if got == digest else "value digest mismatch"
    return check


def _check_roots(reference: list[list[str]]) -> Callable[[Outcome], str | None]:
    expected = [complex(float(re_), float(im)) for re_, im in reference]

    def check(outcome: Outcome) -> str | None:
        bad = _expect_rc0(outcome)
        if bad:
            return bad
        lines = outcome.stdout.strip().splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} roots, expected {len(expected)}"
        matched = set()
        for line in lines:
            fields = line.split()
            got = complex(float(fields[0]), float(fields[1].rstrip("i")))
            radius = float(fields[3].split("<=")[1].rstrip(")"))
            nearest = min(range(len(expected)), key=lambda j: abs(got - expected[j]))
            if abs(got - expected[nearest]) > 1e-12 or not radius < 1e-9:
                return f"root {got} is not a reference root"
            matched.add(nearest)
        return None if len(matched) == len(expected) else "roots repeat"
    return check


def _check_battery(names: tuple[str, ...]) -> Callable[[Outcome], str | None]:
    expected = [f"PASS  {name}" for name in names] + ["all checks passed"]

    def check(outcome: Outcome) -> str | None:
        bad = _expect_rc0(outcome)
        if bad:
            return bad
        got = [line.split("  (")[0] for line in outcome.stdout.strip().splitlines()]
        return None if got == expected else f"battery report differs: {got}"
    return check


# --------------------------------------------------------------- workloads

def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _pick(rng: random.Random, options):
    return options[rng.randrange(len(options))]


def counts_requests(rng: random.Random, size: str, ref: dict, oracle) -> list[Request]:
    """Exact-integer queries: point queries at large n, and prefix sweeps."""
    ladder = LADDERS[size]
    requests = []
    for k in ladder["point_k"]:
        for kind in ("count", "popularity"):
            n = _pick(rng, ladder["point_n"])
            entry = ref[kind][f"{k}:{n}"]
            check = (_check_cli_count(entry, k, n) if kind == "count"
                     else _check_cli_popularity(entry))
            requests.append(Request(
                f"cli.{kind}.k{k}", check, argv=[kind, "--k", str(k), "--n", str(n)],
                big_decimal=entry["digits"] > INT_STR_DIGITS_LIMIT,
            ))
        # A block of like requests sits at the median of a pass, so the
        # pass's p50 is the middle of several samples, not one request.
        funcs = ["count_words"] * ladder["count_words_block"] + ["popularity"]
        for func in funcs:
            n = _pick(rng, ladder["point_n"])
            digest = ref["count" if func == "count_words" else "popularity"][f"{k}:{n}"]["hex"]
            requests.append(Request(f"lib.{func}.k{k}", _check_value(digest), func=func, args=(n, k)))
    # Two like requests are the second and third largest of a pass, so its
    # 90th percentile is one of them rather than a mix with the largest.
    k = ladder["point_k"][0]
    for _ in range(ladder["alpha_block"]):
        n = _pick(rng, ladder["point_n"])
        requests.append(Request(f"lib.alpha.k{k}", _check_value(ref["alpha"][f"{k}:{n}"]["hex"]),
                                func="alpha", args=(n, k)))

    # Small queries, checked against the brute-force oracle.  They also set
    # the request count to 19, so the median of a pass is the middle of the
    # count_words block and the 90th percentile is the 18th of 19 latencies.
    for kind in ("count", "popularity", "dist", "count"):
        k, n = _pick(rng, ladder["small_k"]), _pick(rng, ladder["small_n"])
        truth = oracle.enumerate_words(n, k)
        if kind == "count":
            text = (f"|B_{n}(1^{k})| = {truth.word_count}\n"
                    f"kstep_fibonacci({n + k}, {k}) = {truth.word_count}  [identity ok]\n")
        elif kind == "popularity":
            text = f"{truth.total_ones}\n"
        else:
            text = "".join(f"m={m:>3}  {c}\n" for m, c in enumerate(truth.distribution))
        requests.append(Request(f"cli.{kind}.small", _check_text(text),
                                argv=[kind, "--k", str(k), "--n", str(n)]))

    k, choices = ladder["alpha_series"]
    n = _pick(rng, choices)
    requests.append(Request(
        "cli.alpha-series", _check_digest(ref["alpha_series"][f"{k}:{n}"]),
        argv=["alpha-series", "--k", str(k), "--n-max", str(n), "--format", "csv"],
    ))
    k, choices = ladder["dist"]
    n = _pick(rng, choices)
    requests.append(Request(
        "cli.dist", _check_digest(ref["dist"][f"{k}:{n}"]),
        argv=["dist", "--k", str(k), "--n", str(n), "--format", "json"],
    ))
    ks, choices = ladder["table1"]
    k, n = _pick(rng, ks), _pick(rng, choices)
    requests.append(Request(
        "cli.table1", _check_digest(ref["table1"][f"{k}:{n}"]),
        argv=["table1", "--k", str(k), "--n-max", str(n), "--format", "json"],
    ))
    return requests


def _phi_request(ref: dict, k: int, digits: int, rung: str) -> Request:
    text = (f"phi_{k} = {round_half_even(ref['phi'][str(k)], digits)}\n"
            f"1/phi_{k} = {round_half_even(ref['inverse_phi'][str(k)], digits)}\n")
    return Request(rung, _check_text(text),
                   argv=["phi", "--k", str(k), "--digits", str(digits)])


def certify_requests(rng: random.Random, size: str, ref: dict, table2: dict) -> list[Request]:
    """Certified reals across a digit ladder."""
    ladder = LADDERS[size]
    requests = []
    per_group, groups = ladder["phi_small"]
    for i, choices in enumerate(groups):
        for _ in range(per_group):
            k = _pick(rng, ladder["phi_k"])
            requests.append(_phi_request(ref, k, _pick(rng, choices), f"phi.small{i}"))
    # Like requests at the median of a pass, as in counts.
    k, size_of_block, choices = ladder["phi_block"]
    for _ in range(size_of_block):
        requests.append(_phi_request(ref, k, _pick(rng, choices), f"phi.block.k{k}"))
    for k, digits in ladder["phi_fixed"]:
        requests.append(_phi_request(ref, k, digits, f"phi.d{digits}.k{k}"))
    for k_max, digits in ladder["limits"]:
        lines = []
        for k in range(2, k_max + 1):
            value = round_half_even(ref["limit"][str(k)], digits)
            # The paper's 15-digit table is the reference where it applies.
            if digits == 15 and k in table2 and table2[k] != value:
                raise ValueError(f"reference limit k={k} disagrees with TABLE2_LIMITS")
            lines.append(f"{k:>3}  {value}")
        requests.append(Request(
            f"limits.k{k_max}.d{digits}", _check_text("\n".join(lines) + "\n"),
            argv=["limits", "--k-max", str(k_max), "--digits", str(digits)],
        ))
    for k in ladder["roots_k"]:
        requests.append(Request(f"roots.k{k}", _check_roots(ref["roots"][str(k)]),
                                argv=["roots", "--k", str(k)]))
    return requests


def battery_requests(size: str) -> list[Request]:
    """The self-check battery, as one request."""
    level = LADDERS[size]["battery"]
    names = FULL_CHECK_NAMES if level == "full" else QUICK_CHECK_NAMES
    return [Request(f"verify.{level}", _check_battery(names), argv=["verify", level])]


WORKLOADS = ("counts", "certify", "battery")


def build_requests(workload: str, seed: int, size: str, runwords) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ref = load_reference()
    if workload == "counts":
        requests = counts_requests(rng, size, ref, runwords.oracle)
    elif workload == "certify":
        requests = certify_requests(rng, size, ref, runwords.verify.TABLE2_LIMITS)
    elif workload == "battery":
        requests = battery_requests(size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests
