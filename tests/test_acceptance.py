"""Acceptance battery: one test per exit criterion, with a printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.

Each test runs one entry of ``verify.FULL_CHECKS``, so the battery and
its arguments are defined once, where ``runwords verify full`` reads them.
"""

import time

from runwords import verify

# Wall-time budget in seconds, by check name.
BUDGET_SECONDS = {"oracle_equivalence": 60, "table2": 30}


def _run(criterion: int) -> None:
    start = time.monotonic()
    result = verify.FULL_CHECKS[criterion - 1]()
    elapsed = time.monotonic() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {criterion:02d} {result.name}  [{elapsed:.1f}s]  {result.detail}")
    assert result.passed, result.detail
    budget = BUDGET_SECONDS.get(result.name)
    assert budget is None or elapsed < budget, f"{result.name} took {elapsed:.1f}s"


def test_battery_has_twelve_criteria():
    assert len(verify.FULL_CHECKS) == 12


def test_criterion_01_oracle_equivalence():
    _run(1)


def test_criterion_02_ones_triangle_reproduction():
    _run(2)


def test_criterion_03_length4_constants():
    _run(3)


def test_criterion_04_limit_table_reproduction():
    _run(4)


def test_criterion_05_series_consistency():
    _run(5)


def test_criterion_06_bivariate_consistency():
    _run(6)


def test_criterion_07_root_structure():
    _run(7)


def test_criterion_08_golden_ratio_case():
    _run(8)


def test_criterion_09_asymptotic_transfer():
    _run(9)


def test_criterion_10_alpha_convergence():
    _run(10)


def test_criterion_11_limit_rises_to_half():
    _run(11)


def test_criterion_12_enclosure_soundness():
    _run(12)
