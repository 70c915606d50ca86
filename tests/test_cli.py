import json

import pytest

from runwords.cli import main
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


def test_phi(capsys):
    code, out, _ = run(capsys, "phi", "--k", "2", "--digits", "15")
    assert "1.618033988749895" in out
    assert "0.618033988749895" in out
    code, out, _ = run(capsys, "phi", "--k", "2", "--digits", "0")
    assert code == 0
    assert out.splitlines()[0] == "phi_2 = 2"


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


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--k", "1", "--n", "4")
    assert code == 2
    assert "error" in err


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
