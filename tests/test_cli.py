import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import inf
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runwords import cli, core, interval, numerics, oracle
from runwords.cli import _csv_field, main
from runwords.verify import TABLE1_K2, TABLE1_K3, TABLE2_LIMITS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "4")
    assert code == 0
    assert "= 8" in out and "identity ok" in out
    code, out, _ = run(capsys, "count", "--k", "3", "--n", "4")
    assert "= 13" in out
    code, out, _ = run(capsys, "count", "--k", "5", "--n", "0")
    assert "= 1" in out


def test_count_exits_1_when_the_identity_fails(capsys, monkeypatch):
    kstep_fibonacci = core.kstep_fibonacci
    monkeypatch.setattr(core, "kstep_fibonacci", lambda n, k: kstep_fibonacci(n, k) + 1)
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "4")
    assert code == 1
    assert "[identity FAILED]" in out


def test_count_at_a_run_length_far_beyond_the_word(capsys):
    # any k > n counts all 2^n words; neither coefficient may build O(k) polynomials
    code, out, _ = run(capsys, "count", "--k", str(10**12), "--n", "10")
    assert code == 0
    assert out.count("= 1024") == 2 and "[identity ok]" in out


def test_list_at_a_run_length_far_beyond_the_word(capsys):
    # the oracle keeps at most n + 1 planes, not k
    code, out, _ = run(capsys, "list", "--k", str(10**12), "--n", "3")
    assert code == 0
    assert out.splitlines() == [format(w, "03b") for w in range(8)]


def test_count_json_roundtrip(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "40", "--format", "json")
    doc = json.loads(out)
    assert doc == json.loads(json.dumps(doc))
    assert doc["count"] == doc["kstep_fibonacci"]
    assert doc["identity_ok"] is True


def _parse_table1_plain(text):
    lines = text.strip().splitlines()
    ns = [int(x) for x in lines[0].split()[1:]]
    grid = {}
    for line in lines[1:]:
        m = int(line.split()[0])
        grid[m] = dict(zip(ns, _cells(lines[0], line)))
    return grid


def _cells(header_line, line):
    # cells are right-justified, so column ends align with header ends
    tokens = header_line.split()
    prev_end = header_line.index(tokens[0]) + len(tokens[0])
    for token in tokens[1:]:
        end = header_line.index(token, prev_end) + len(token)
        cell = line[prev_end:end].strip() if prev_end < len(line) else ""
        yield int(cell) if cell else 0
        prev_end = end


@pytest.mark.parametrize("k, reference", [(2, TABLE1_K2), (3, TABLE1_K3)])
def test_table1_matches_reference(capsys, k, reference):
    code, out, _ = run(capsys, "table1", "--k", str(k), "--n-max", "9")
    assert code == 0
    grid = _parse_table1_plain(out)
    for m, row in enumerate(reference):
        for i, expected in enumerate(row):
            assert grid[m][i + 1] == expected, (k, m, i + 1)


def test_table1_single_column(capsys):
    code, out, _ = run(capsys, "table1", "--k", "2", "--n-max", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["rows_by_m"] == [[1], [1]]


def test_limits_reproduces_reference(capsys):
    code, out, _ = run(
        capsys, "limits", "--k-min", "2", "--k-max", "13", "--digits", "15",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert {row["k"]: row["limit"] for row in rows} == TABLE2_LIMITS


def test_limits_low_digits(capsys):
    code, out, _ = run(
        capsys, "limits", "--k-min", "2", "--k-max", "2", "--digits", "3"
    )
    assert out.split()[-1] == "0.276"


def test_alpha_series_csv_schema(capsys):
    code, out, _ = run(
        capsys, "alpha-series", "--k", "3", "--n-max", "4", "--format", "csv"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,alpha_num,alpha_den,alpha_decimal,limit_decimal"
    last = lines[-1].split(",")
    assert last[:4] == ["3", "4", "11", "26"]  # 22/52 reduced
    assert last[4] == "0.423077"


def test_alpha_series_trivial_start(capsys):
    code, out, _ = run(
        capsys, "alpha-series", "--k", "2", "--n-max", "1", "--format", "json"
    )
    row = json.loads(out)[0]
    assert row["alpha_num"] == 1 and row["alpha_den"] == 2
    assert row["alpha_decimal"].startswith("0.5000")


@pytest.mark.parametrize("n_max", [1, 5, 30])
def test_alpha_series_beyond_the_word_lengths_takes_the_series_of_n_max_plus_2(capsys, n_max):
    # any k > n_max counts the same words of length <= n_max; only the
    # k column and the limit keep the k given
    def rows(k):
        code, out, _ = run(capsys, "alpha-series", "--k", str(k), "--n-max", str(n_max),
                           "--digits", "20", "--format", "json")
        assert code == 0
        return json.loads(out)

    def alphas(rows):
        return [(r["alpha_num"], r["alpha_den"], r["alpha_decimal"]) for r in rows]

    reference = rows(n_max + 2)
    assert [Fraction(r["alpha_num"], r["alpha_den"]) for r in reference] == [
        core.alpha(n, n_max + 2) for n in range(1, n_max + 1)
    ]
    for k in (n_max + 3, n_max + 40, 10**12, 10**23):
        got = rows(k)
        assert alphas(got) == alphas(reference), k
        assert all(r["k"] == k for r in got)
        _, limit, _ = run(capsys, "limits", "--k-min", str(k), "--k-max", str(k), "--digits", "20")
        assert {r["limit_decimal"] for r in got} == {limit.split()[1]}


# sha256 of stdout, trailing newline included, as printed by the
# Fraction-based series code of commit 9a819bf.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--k", "3", "--n-max", "2000", "--format", "csv"),
         "ec8018d13a2ee267f2ab9a1725b2a0e20d595a8df0063e6f55616d5bdc1b1e64"),
        (("--k", "7", "--n-max", "500", "--digits", "40", "--format", "json"),
         "bebceafb81c218cd4ffac8954cca8bd6626974b90cee6894dcd4f5f5663bbfda"),
    ],
    ids=["k3-csv", "k7-json"],
)
def test_alpha_series_output_is_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, "alpha-series", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, trailing newline included, as printed at commit
# 4490545, where every command built its plain text whatever the format.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("dist", "--k", "2", "--n", "2000", "--format", "json"),
         "4aa9b94dd04bb0b252e4ecc53e973491fa82d1714f5f606d7a17c68752fabca0"),
        (("dist", "--k", "3", "--n", "300"),
         "c62ad4db5d5a720f91246631bc299cb6a68533664ea31468891fcd6d6cdd4a31"),
        (("table1", "--k", "3", "--n-max", "20", "--format", "csv"),
         "9ca6d806db3cbf27f05669994bdcb7f54336cb5db4525adfc6871f556d7b54b5"),
        (("table1", "--k", "4", "--n-max", "39"),
         "e8fde2c1275c28f5f3519f68d933a6745474968f12e206b8e1c6f0137af029e1"),
    ],
    ids=["dist-json", "dist-plain", "table1-csv", "table1-plain"],
)
def test_dist_and_table1_output_is_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, trailing newline included, as printed at commit
# 054568e, where each disk's radius was Smith's.
@pytest.mark.parametrize(
    "k, fmt, digest",
    [
        ("3", "plain", "662e11fddb532092db90bd20a03de9ba17b1a4574387439e467b94b4ecb962ed"),
        ("3", "csv", "bc58086db7933ee6b80126a8c4aab8c174da48ed7ecef5a6037fa25bbebf0f43"),
        ("3", "json", "a83cc5f7c23cc870d48fdd46812718a5cd8e5cacd64135e6bfb55a1ea1d26c34"),
        ("24", "plain", "d90e968bed4cebabd42d92f4ece44b7334c24e79069280129e0a09e1420ffd06"),
        ("24", "csv", "3fd41206b2762640a00893b755650e98b823b2abe2f04b916427b9921933825c"),
        ("24", "json", "5862aab429c0e0a41bfa91c0971cd902aabe2018db2e5fd4bf2e2a4cfd468999"),
        ("53", "plain", "36de85dc88e355a8682a9ed4f0f7339c3812a4b6fd81ed06bc76148b586e414f"),
        ("53", "csv", "d73f4cd7635254f5fd26a2e664a005159a758d5c6796664544d800a2fc881dfa"),
        ("53", "json", "380c56ceb2a07833a7cc7c7448572ad65abe3760e55b2a9c491d88570d74997e"),
        ("64", "plain", "0d385dce499abda05c9d675899be6de76768cb32f74afebd61b81155d747bbef"),
        ("64", "csv", "21a7e741011df32b39baacbf63e0208e4fcb5a9c1f410580a77d8b1507176035"),
        ("64", "json", "a5f19e516887e23297d55aaf71bfff217c3120895673dd4eb4b2d0bebf629f05"),
    ],
    ids=["k3-plain", "k3-csv", "k3-json", "k24-plain", "k24-csv", "k24-json",
         "k53-plain", "k53-csv", "k53-json", "k64-plain", "k64-csv", "k64-json"],
)
def test_roots_output_is_byte_identical(capsys, k, fmt, digest):
    code, out, _ = run(capsys, "roots", "--k", k, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, trailing newline included: 3176 digits, both sides
# of the identity read from g_3's one stored chain of halvings.  The
# no-mpmath CI job checks the same digest.
COUNT_K3_N12000_SHA256 = "cb9793650f6f897fbe1facb0ec008b5de8c4e5631f56d65d823d703b394cb060"


def test_count_output_is_byte_identical(capsys):
    code, out, _ = run(capsys, "count", "--k", "3", "--n", "12000")
    assert code == 0
    assert "[identity ok]" in out and len(out.split()[2]) == 3176
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_K3_N12000_SHA256


def test_phi(capsys):
    code, out, _ = run(capsys, "phi", "--k", "2", "--digits", "15")
    assert "1.618033988749895" in out
    assert "0.618033988749895" in out
    code, out, _ = run(capsys, "phi", "--k", "2", "--digits", "0")
    assert code == 0
    assert out.splitlines()[0] == "phi_2 = 2"


def _half_even(value, digits: int) -> str:
    """mpmath value rounded half-to-even to `digits` places, from 20 more."""
    text = mpmath.nstr(value, digits + 20, min_fixed=-inf, max_fixed=inf, strip_zeros=False)
    with localcontext() as ctx:
        ctx.prec = digits + 40
        return str(Decimal(text).quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN))


def test_certified_digits_match_mpmath(capsys):
    code, out, _ = run(capsys, "phi", "--k", "2", "--digits", "3000")
    assert code == 0
    with mpmath.workdps(3040):
        golden = (1 + mpmath.sqrt(5)) / 2
        expected = [
            f"phi_2 = {_half_even(golden, 3000)}",
            f"1/phi_2 = {_half_even(1 / golden, 3000)}",
        ]
    assert out.splitlines() == expected

    code, out, _ = run(capsys, "limits", "--k-max", "40", "--digits", "50")
    assert code == 0
    expected = []
    with mpmath.workdps(90):
        for k in range(2, 41):
            x = mpmath.findroot(
                lambda z: sum(z**i for i in range(1, k + 1)) - 1, (0, 1), solver="anderson"
            )
            limit = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
                k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
            )
            expected.append(f"{k:>3}  {_half_even(limit, 50)}")
    assert out.splitlines() == expected


def test_phi_beyond_the_int_to_str_digit_limit(capsys):
    # Python refuses int-to-str conversions over 4300 digits by default.
    digits = 5000
    code, out, _ = run(capsys, "phi", "--k", "2", "--digits", str(digits))
    assert code == 0
    # floor(phi 10^(digits+1)) from isqrt; phi is irrational, so no tie
    scale = 10 ** (digits + 1)
    floor = (scale + math.isqrt(5 * scale * scale)) // 2
    nearest = floor // 10 + (floor % 10 >= 5)
    lines = out.splitlines()
    assert [line.split(" = ")[0] for line in lines] == ["phi_2", "1/phi_2"]
    for line, whole in zip(lines, (1, 0)):  # 1/phi = phi - 1
        integer_part, decimals = line.split(" = ")[1].split(".")
        assert len(decimals) == digits and int(integer_part) == whole
        assert _int_from_digits(integer_part + decimals) == nearest - (1 - whole) * 10**digits


def _int_from_digits(text: str) -> int:
    """int(text) in pieces below the int-from-str digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        piece = text[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_import_leaves_mpmath_out():
    # mpmath is only the checks' referee; the CLI must start without
    # loading it.
    src = Path(numerics.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, runwords.cli; print('mpmath' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _run_without_mpmath(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter where mpmath cannot be imported."""
    src = Path(numerics.__file__).resolve().parents[1]
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from runwords.cli import main\n"
        f"sys.exit(main({list(argv)!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )


def test_roots_run_without_mpmath():
    # The root path is float iteration, integer polish and exact disks:
    # with mpmath made unimportable, roots --k 32 still succeeds.
    done = _run_without_mpmath("roots", "--k", "32")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 32


def test_verify_full_without_mpmath_is_a_one_line_internal_failure():
    # verify full takes mpmath as its independent referee: without it the
    # battery cannot run, which is exit 3, not a verification failure.
    done = _run_without_mpmath("verify", "full")
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "mpmath" in done.stderr


def test_popularity(capsys):
    code, out, _ = run(capsys, "popularity", "--k", "2", "--n", "4")
    assert out.strip() == "10"


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "--k", "2", "--n", "4", "--format", "json")
    assert json.loads(out)["counts"] == [1, 4, 3]


def test_list(capsys):
    code, out, _ = run(capsys, "list", "--k", "3", "--n", "4")
    words = out.strip().splitlines()
    assert len(words) == 13
    assert words[0] == "0000" and words[-1] == "1101"


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "--k", "2", "--format", "json")
    rows = json.loads(out)
    moduli = sorted(float(row["modulus"]) for row in rows)
    assert abs(moduli[1] - 1.618033988749895) < 1e-9


def test_roots_error_radius_is_rounded_up(capsys):
    # The printed bound is the certified radius rounded up, never down,
    # where rounding to nearest would print a smaller one.
    rounded_up = 0
    for k in (3, 17, 32):
        code, out, _ = run(capsys, "roots", "--k", str(k), "--format", "json")
        radii = numerics.all_roots(k).error_radii
        printed = [row["error_radius"] for row in json.loads(out)]
        assert code == 0 and len(printed) == k
        assert all(Fraction(text) >= Fraction(r) for text, r in zip(printed, radii))
        rounded_up += sum(text != f"{r:.3g}" for text, r in zip(printed, radii))
    assert rounded_up > 0


@pytest.mark.parametrize(
    "radius, printed",
    [
        (0.0, "0"),
        (1.0, "1"),
        (0.1, "0.101"),  # the double is 0.1000000000000000055...
        (2.0**-50, "8.89e-16"),
        (1.2345e-15, "1.24e-15"),
        (9.991e-14, "1e-13"),
        (123456.0, "1.24e+05"),
        (5e-324, "9.88e-324"),  # 4.95e-324 has no double: the next one up is 2^-1073
    ],
)
def test_bound_rounds_up_at_three_digits(radius, printed):
    assert cli._bound(radius) == printed
    assert Fraction(printed) >= Fraction(radius)


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True))
@example(5e-324)
@example(2.2250738585072014e-308)  # the least normal double
def test_bound_is_at_least_the_radius(radius):
    assert Decimal(cli._bound(radius)) >= Decimal(radius)


def test_determinism(capsys):
    first = run(capsys, "limits", "--k-max", "5", "--format", "csv")
    second = run(capsys, "limits", "--k-max", "5", "--format", "csv")
    assert first == second


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "count", "--k", "2", "--n", "4", "--format", "csv", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text().startswith("k,n,count")


def test_unwritable_out_is_a_one_line_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "count", "--k", "2", "--n", "4", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--k", "1", "--n", "4")
    assert code == 2
    assert "error" in err


def test_refinement_without_a_result_is_an_internal_failure(capsys, monkeypatch):
    monkeypatch.setattr(interval, "MAX_ROUNDS", 0)
    code, out, err = run(capsys, "phi", "--k", "2")
    assert code == 3 and out == ""
    assert err == "error: no certified result after 0 rounds of refinement\n"


PHI_3_AT_15_DIGITS = "phi_3 = 1.839286755214161\n1/phi_3 = 0.543689012692076\n"


def _counting_phi(monkeypatch) -> list:
    calls = []
    phi = numerics.phi
    monkeypatch.setattr(numerics, "phi", lambda k, work: calls.append(work) or phi(k, work))
    return calls


def test_phi_finds_one_root_per_working_precision(capsys, monkeypatch):
    calls = _counting_phi(monkeypatch)
    code, out, _ = run(capsys, "phi", "--k", "3", "--digits", "15")
    assert code == 0
    assert out == PHI_3_AT_15_DIGITS
    assert calls == [17]


def test_refinement_without_a_result_still_fails_with_one_root_per_precision(
    capsys, monkeypatch
):
    calls = _counting_phi(monkeypatch)
    monkeypatch.setattr(interval, "MAX_ROUNDS", 0)
    code, out, err = run(capsys, "phi", "--k", "3", "--digits", "15")
    assert code == 3 and out == ""
    assert err == "error: no certified result after 0 rounds of refinement\n"
    assert calls == []


@pytest.mark.parametrize("digits", [0, 1, 15, 50, 300])
@pytest.mark.parametrize("k", [2, 3, 8, 40, 64, 300])
def test_phi_output_is_that_of_phi_and_inverse_phi(capsys, k, digits):
    decimal = interval.render_decimal(lambda work: numerics.phi(k, work), digits)
    inverse = interval.render_decimal(lambda work: numerics.inverse_phi(k, work), digits)
    code, out, _ = run(capsys, "phi", "--k", str(k), "--digits", str(digits))
    assert code == 0
    assert out == f"phi_{k} = {decimal}\n1/phi_{k} = {inverse}\n"


def test_the_reused_parser_survives_rejected_arguments(capsys):
    for argv in (["phi"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
    code, out, _ = run(capsys, "phi", "--k", "3", "--digits", "15")
    assert code == 0
    assert out == PHI_3_AT_15_DIGITS


def test_commands_are_dispatched_at_call_time(capsys, monkeypatch):
    assert run(capsys, "phi", "--k", "2", "--digits", "3")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_phi", lambda args: seen.append(args.k) or 0)
    code, out, _ = run(capsys, "phi", "--k", "5", "--digits", "3")
    assert code == 0 and out == ""
    assert seen == [5]


K = (("--k",), "k", int, True, None, None)
N = (("--n",), "n", int, True, None, None)
FORMAT = (("--format",), "format", None, False, "plain", ("plain", "csv", "json"))
OUT = (("--out",), "out", None, False, None, None)
# Each subcommand's help and its actions after -h, as
# (option strings, dest, type, required, default, choices).
GRAMMAR = {
    "count": ("number of length-n avoiders", [K, N, FORMAT, OUT]),
    "table1": ("triangle of counts by number of 1s", [
        K,
        (("--n-max",), "n_max", int, False, 9, None),
        FORMAT, OUT,
    ]),
    "limits": ("limit of the expected bit value per k", [
        (("--k-min",), "k_min", int, False, 2, None),
        (("--k-max",), "k_max", int, False, 13, None),
        (("--digits",), "digits", int, False, 15, None),
        FORMAT, OUT,
    ]),
    "alpha-series": ("expected bit value for n = 1..n_max", [
        K,
        (("--n-max",), "n_max", int, False, 50, None),
        (("--digits",), "digits", int, False, 6, None),
        FORMAT, OUT,
    ]),
    "phi": ("generalized golden ratio", [
        K,
        (("--digits",), "digits", int, False, 15, None),
        FORMAT, OUT,
    ]),
    "roots": ("all complex roots of the k-step polynomial", [K, FORMAT, OUT]),
    "dist": ("distribution of the number of 1s", [K, N, FORMAT, OUT]),
    "popularity": ("total 1s over all avoiders", [K, N, FORMAT, OUT]),
    "list": ("list all avoiders (n <= 16)", [K, N, FORMAT, OUT]),
    "verify": ("run the self-check battery", [
        FORMAT, OUT,
        ((), "level", None, True, None, ("quick", "full")),
    ]),
}


def test_the_grammar_is_the_documented_one():
    # structure, not help text, which differs across Python versions
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert subparsers.dest == "command" and subparsers.required
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    grammar = {
        name: (helps[name], [
            (tuple(a.option_strings), a.dest, a.type, a.required, a.default, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        for name, sub in subparsers.choices.items()
    }
    assert grammar == GRAMMAR
    assert list(grammar) == list(GRAMMAR)


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    for argv in (
        ["count", "--k", "2", "--n", "4"],
        ["phi", "--k", "2", "--digits", "3"],
        ["alpha-series", "--k", "2", "--n-max", "3"],
        ["table1", "--k", "2", "--n-max", "3"],
        ["count", "--k", "3", "--n", "4"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert len(builds) == 1


def test_root_iteration_failure_is_an_internal_failure(capsys, monkeypatch):
    def all_roots(k):
        raise numerics.RootFindingError(f"root estimates for k={k} are not conjugate pairs")

    monkeypatch.setattr(numerics, "all_roots", all_roots)
    code, out, err = run(capsys, "roots", "--k", "5")
    assert code == 3 and out == ""
    assert err == "error: root estimates for k=5 are not conjugate pairs\n"


def test_running_out_of_memory_is_a_one_line_internal_failure(capsys, monkeypatch):
    def phi(k, precision_digits):
        raise MemoryError

    monkeypatch.setattr(numerics, "phi", phi)
    code, out, err = run(capsys, "phi", "--k", "2")
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


HUGE_K = "100000000000000000000000"  # 10^23: no polynomial of degree k can even be indexed


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["phi", "--k", HUGE_K, "--digits", "5"],
         f"phi_{HUGE_K} = 2.00000\n1/phi_{HUGE_K} = 0.50000\n"),
        (["limits", "--k-min", HUGE_K, "--k-max", HUGE_K], f"{HUGE_K}  0.500000000000000\n"),
        (["alpha-series", "--k", HUGE_K, "--n-max", "5"],
         "".join(f"n={n:>5}  alpha=1/2 = 0.500000  (limit 0.500000)\n" for n in range(1, 6))),
    ],
    ids=["phi", "limits", "alpha-series"],
)
def test_a_huge_k_takes_the_closed_form(capsys, argv, expected):
    # 2 - 2^(1-k) < phi_k < 2 decides phi_k's digits with no polynomial
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("k", [14000, 10**12, 10**23])
def test_limit_at_a_large_k_rounds_to_0_digits(capsys, k):
    # phi_k's enclosure [2 - 2^-t, 2] takes L_k exactly to [L(2 - 2^-t), 1/2],
    # whose upper end is the tie 1/2 itself and rounds to even: 0
    code, out, err = run(capsys, "limits", "--k-min", str(k), "--k-max", str(k), "--digits", "0")
    assert (code, out, err) == (0, f"{k:>3}  0\n", "")
    code, out, err = run(capsys, "alpha-series", "--k", str(k), "--n-max", "3", "--digits", "0")
    rows = out.splitlines()
    assert (code, err, len(rows)) == (0, "", 3)
    assert all(row.endswith("(limit 0)") for row in rows)


def test_phi_at_a_large_k_still_keeps_the_tie_at_0_digits(capsys):
    # 1/phi_k's enclosure [1/2, 1/(2 - 2^-t)] keeps the tie 1/2 inside at
    # every working precision: showing phi_k < 2 takes ends of k bits
    code, out, err = run(capsys, "phi", "--k", "14000", "--digits", "0")
    assert (code, out) == (3, "")
    assert err == "error: no certified result after 12 rounds of refinement\n"


def test_a_size_beyond_the_index_range_is_a_one_line_internal_failure(capsys):
    # the counts of dist by number of 1s are a list of n - n // k + 1 entries
    code, out, err = run(capsys, "dist", "--k", str(10**20), "--n", str(10**20))
    assert code == 3 and out == ""
    assert err.startswith("error: too large to compute: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["phi", "--k", "2", "--digits", "-1"], "--digits", "-1"),
        (["alpha-series", "--k", "2", "--n-max", "3", "--digits", "-1"], "--digits", "-1"),
        (["alpha-series", "--k", "2", "--n-max", "0", "--format", "csv"], "--n-max", "0"),
        (["table1", "--k", "2", "--n-max", "0"], "--n-max", "0"),
        (["limits", "--k-max", "3", "--digits", "-2"], "--digits", "-2"),
    ],
)
def test_bad_option_value_is_a_one_line_usage_error(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and flag in err and f"got {value}\n" in err


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(check["passed"] for check in doc["checks"])


def test_verify_quick_csv_quotes_details_with_commas(capsys):
    # Details such as "n<=14, k in [2, 3]" hold commas: a csv reader must
    # still see three fields per row, with the detail that json prints.
    _, out, _ = run(capsys, "verify", "quick", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    _, out, _ = run(capsys, "verify", "quick", "--format", "json")
    checks = json.loads(out)["checks"]
    assert [row["detail"] for row in rows] == [check["detail"] for check in checks]
    assert any("," in check["detail"] for check in checks)
    assert all(None not in row for row in rows)  # no field beyond the header


@given(st.lists(st.text(), min_size=2, max_size=4))
def test_csv_fields_read_back_as_written(values):
    line = ",".join(map(_csv_field, values))
    assert next(csv.reader(io.StringIO(line + "\n"))) == values


# Edge values of the grammar fuzz test, by option dest: the bounds of each
# check, the caps MAX_ROOTS_K and the oracle's n, and sizes past the
# machine's index range.  --digits and --n stay small: a large one runs
# long, which is no traceback.
FUZZ_VALUES = {
    "k": [-1, 0, 1, 2, 3, 64, 65, 2**31, 2**63, 10**23],
    "n": [0, 1, oracle.LIST_MAX_N, oracle.ENUMERATE_MAX_N, oracle.ENUMERATE_MAX_N + 1, 300],
    "digits": [0, 1, 50],
    "n_max": [0, 1, 200],
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _draw_argv(data, name: str, sub: argparse.ArgumentParser, directory: str) -> list[str]:
    argv = [name]
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction) or action.dest == "k_max":
            continue
        if action.dest == "k_min":
            k_min = data.draw(st.sampled_from(FUZZ_VALUES["k"] + [None]))
            if k_min is not None:
                argv += ["--k-min", str(k_min)]
            # --k-max within one of --k-min: a wide range of huge k never ends
            k_max = action.default if k_min is None else k_min
            argv += ["--k-max", str(k_max + data.draw(st.sampled_from([-1, 0, 1])))]
            continue
        if not action.required and not data.draw(st.booleans()):
            continue
        if action.dest == "out":
            file = data.draw(st.sampled_from(["out.txt", "missing/out.txt"]))
            value = os.path.join(directory, file)
        elif action.choices is not None:
            value = data.draw(st.sampled_from(sorted(action.choices)))
        else:
            value = data.draw(st.sampled_from(FUZZ_VALUES[action.dest]))
        argv += [*action.option_strings[:1], str(value)]
    return argv


@settings(derandomize=True, deadline=10_000, max_examples=250)
@given(st.data())
def test_no_argv_of_the_grammar_escapes_main(data):
    commands = _subcommands()
    name = data.draw(st.sampled_from(sorted(set(commands) - {"verify"})))
    if data.draw(st.integers(0, 39)) == 20:  # rarely: verify full takes about 0.2 s
        name = "verify"
    with tempfile.TemporaryDirectory() as directory:
        argv = _draw_argv(data, name, commands[name], directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
                assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in stderr.getvalue(), argv
