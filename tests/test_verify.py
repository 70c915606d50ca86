from fractions import Fraction

import pytest

from runwords import numerics, verify
from runwords.interval import Interval


def test_table1_cells_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="n_max"):
        verify.table1_cells(2, 0)


def test_enclosure_soundness_catches_a_self_consistent_wrong_value(monkeypatch):
    # A point enclosure agrees with itself at every precision, so only the
    # independent mpmath reference can tell that it is wrong.
    def phi(k, precision_digits=15):
        return Interval.point(Fraction(3, 2))

    monkeypatch.setattr(numerics, "phi", phi)
    result = verify.check_enclosure_soundness()
    assert not result.passed
    assert "phi(" in result.detail


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
