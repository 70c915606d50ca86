import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import inf
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from runwords import cli, core, interval, numerics
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


HUGE_K = "100000000000000000000000"  # 10^23: phi_k's polynomial cannot even be indexed


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--k", HUGE_K, "--digits", "5"],
        ["limits", "--k-min", HUGE_K, "--k-max", HUGE_K],
        ["alpha-series", "--k", HUGE_K, "--n-max", "5"],
    ],
    ids=["phi", "limits", "alpha-series"],
)
def test_a_size_beyond_the_index_range_is_a_one_line_internal_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
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
