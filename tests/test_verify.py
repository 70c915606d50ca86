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
