from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from runwords import numerics, verify
from runwords.interval import Interval


def test_table1_cells_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="n_max"):
        verify.table1_cells(2, 0)


def test_enclosure_soundness_catches_a_self_consistent_wrong_value(monkeypatch):
    # A point enclosure agrees with itself at every precision, so only the
    # independent mpmath reference can tell that it is wrong.
    def phi(k, precision_digits=15):
        return Interval(Fraction(3, 2), Fraction(3, 2))

    monkeypatch.setattr(numerics, "phi", phi)
    result = verify.check_enclosure_soundness()
    assert not result.passed
    assert "phi(" in result.detail


@pytest.mark.parametrize(
    "name, args, shift, detail",
    [
        ("phi", (2, 17), Fraction(1, 10**16), "phi(2) != (1+sqrt5)/2 at 15 decimals"),
        ("limit_value", (2, 32), Fraction(1, 10**31), "limit(2) != (5-sqrt5)/10 at 30 decimals"),
    ],
    ids=["phi", "limit"],
)
def test_golden_ratio_case_requires_the_closed_form_inside(monkeypatch, name, args, shift, detail):
    # Shifted by a tenth of the tolerance of a distance test, the
    # enclosure stays within 10^-15 (10^-30) of the closed form but no
    # longer contains it.
    compute = getattr(numerics, name)

    def shifted(*call):
        enc = compute(*call)
        return Interval(enc.lo + shift, enc.hi + shift) if call == args else enc

    monkeypatch.setattr(numerics, name, shifted)
    result = verify.check_golden_ratio_case()
    assert not result.passed
    assert result.detail == detail


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@given(rationals, rationals, rationals, st.fractions(min_value=0, max_value=1, max_denominator=100))
@example(Fraction(0), Fraction(2), Fraction(1), Fraction(1, 2))
def test_distance_encloses_every_point_and_attains_both_ends(a, b, y, t):
    x = Interval(min(a, b), max(a, b))
    gap = verify._distance(x, y)
    assert abs(x.lo + t * x.width - y) in gap
    nearest = min(max(y, x.lo), x.hi)  # the point of x closest to y
    assert gap.lo == abs(nearest - y)
    assert gap.hi in (abs(x.lo - y), abs(x.hi - y))


@pytest.mark.parametrize("shift", [1e-6, 1e-6j])
def test_root_structure_catches_a_shifted_root_set(monkeypatch, shift):
    # Every disk moved by the same amount: still pairwise disjoint, but the
    # dominant disk no longer meets the certified phi_k enclosure.
    all_roots = numerics.all_roots

    def shifted(k):
        roots = all_roots(k)
        return numerics.ComplexRootSet(
            k=k, roots=tuple(z + shift for z in roots.roots), error_radii=roots.error_radii
        )

    monkeypatch.setattr(numerics, "all_roots", shifted)
    result = verify.check_root_structure()
    assert not result.passed
    assert result.detail == "k=2: dominant disk misses phi_2"


def test_root_structure_catches_overlapping_disks(monkeypatch):
    all_roots = numerics.all_roots

    def widened(k):
        roots = all_roots(k)
        return numerics.ComplexRootSet(k=k, roots=roots.roots, error_radii=(2.0,) * k)

    monkeypatch.setattr(numerics, "all_roots", widened)
    result = verify.check_root_structure()
    assert not result.passed
    assert result.detail == "k=2: root disks overlap"


def test_annulus_test_is_exact():
    # 3^(-1/2) = 0.57735...: the disk about 0.59 of radius 0.01 clears it,
    # the one about 0.58 does not; the unit circle bounds from outside.
    inside = verify._inside_annulus
    assert inside(Fraction(59, 100), Fraction(0), Fraction(1, 100), 2)
    assert not inside(Fraction(58, 100), Fraction(0), Fraction(1, 100), 2)
    assert not inside(Fraction(98, 100), Fraction(0), Fraction(2, 100), 2)
    assert inside(Fraction(0), Fraction(97, 100), Fraction(2, 100), 2)
    assert not inside(Fraction(0), Fraction(1, 100), Fraction(2, 100), 2)
