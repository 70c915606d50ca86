from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from runwords.interval import (
    Interval,
    certified_decimal,
    render_decimal,
    round_fraction,
)


class TestIntervalArithmetic:
    def test_construction(self):
        iv = Interval(Fraction(1, 3), Fraction(1, 2))
        assert iv.width == Fraction(1, 6)
        assert Fraction(2, 5) in iv
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_point(self):
        p = Interval.point(Fraction(3, 7))
        assert p.width == 0
        assert p.mid == Fraction(3, 7)

    def test_add_sub(self):
        a = Interval(1, 2)
        b = Interval(10, 20)
        assert (a + b) == Interval(11, 22)
        assert (b - a) == Interval(8, 19)
        assert (1 + a) == Interval(2, 3)
        assert (5 - a) == Interval(3, 4)

    def test_mul_sign_cases(self):
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)
        assert Interval(-2, -1) * Interval(-3, 5) == Interval(-10, 6)
        assert 3 * Interval(1, 2) == Interval(3, 6)

    def test_division(self):
        assert Interval(1, 2) / Interval(4, 8) == Interval(Fraction(1, 8), Fraction(1, 2))
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)
        assert 1 / Interval(2, 4) == Interval(Fraction(1, 4), Fraction(1, 2))

    def test_power(self):
        assert Interval(-2, 3) ** 2 == Interval(0, 9)
        assert Interval(-2, -1) ** 2 == Interval(1, 4)
        assert Interval(-2, 3) ** 3 == Interval(-8, 27)
        assert Interval(2, 3) ** 0 == Interval.point(1)
        with pytest.raises(ValueError):
            Interval(1, 2) ** -1

    def test_abs(self):
        assert abs(Interval(-3, 2)) == Interval(0, 3)
        assert abs(Interval(-3, -2)) == Interval(2, 3)
        assert abs(Interval(2, 3)) == Interval(2, 3)

    def test_containment_preserved_by_ops(self):
        # any point of the operands maps into the result interval
        a = Interval(Fraction(1, 3), Fraction(2, 3))
        b = Interval(Fraction(-1, 2), Fraction(1, 4))
        for x in (a.lo, a.mid, a.hi):
            for y in (b.lo, b.mid, b.hi):
                assert x + y in a + b
                assert x * y in a * b
                assert x - y in a - b
                assert x**5 in a**5


class TestDecimalRendering:
    def test_round_half_even(self):
        assert round_fraction(Fraction(1, 8), 2) == "0.12"  # 0.125 -> even
        assert round_fraction(Fraction(3, 8), 2) == "0.38"  # 0.375 -> even
        assert round_fraction(Fraction(1, 4), 1) == "0.2"
        assert round_fraction(Fraction(-1, 8), 2) == "-0.12"
        assert round_fraction(Fraction(7, 1), 0) == "7"
        assert round_fraction(Fraction(999, 1000), 2) == "1.00"

    def test_certified_decimal(self):
        tight = Interval(Fraction(123456, 10**6), Fraction(123457, 10**6))
        assert certified_decimal(tight, 3) == "0.123"
        straddling = Interval(Fraction(1249, 10**4), Fraction(1251, 10**4))
        assert certified_decimal(straddling, 2) is None

    def test_render_decimal_escalates(self):
        # enclosure of 1/3 that tightens as more digits are requested
        def compute(digits):
            scale = 10**digits
            return Interval(Fraction(scale // 3, scale), Fraction(scale // 3 + 1, scale))

        assert render_decimal(compute, 10) == "0.3333333333"

    def test_render_decimal_gives_up(self):
        with pytest.raises(RuntimeError):
            render_decimal(lambda digits: Interval(0, 1), 2)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


@st.composite
def intervals_with_point(draw):
    """An interval and a rational point inside it."""
    a, b = draw(rationals), draw(rationals)
    lo, hi = min(a, b), max(a, b)
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    return Interval(lo, hi), lo + t * (hi - lo)


@st.composite
def rationals_and_places(draw):
    """A rational and a number of places; half the rationals are exact ties."""
    digits = draw(st.integers(min_value=0, max_value=30))
    ties = st.integers(min_value=-(10**9), max_value=10**9).map(
        lambda m: Fraction(2 * m + 1, 2 * 10**digits)
    )
    return draw(st.one_of(rationals, ties)), digits


class TestProperties:
    @given(rationals_and_places())
    def test_round_fraction_matches_decimal_half_even(self, x_and_digits):
        x, digits = x_and_digits
        # 100 significant digits leave the division error far below the
        # 1/denominator distance of any non-tie from a rounding boundary
        with localcontext() as ctx:
            ctx.prec = 100
            exact = Decimal(x.numerator) / Decimal(x.denominator)
            expected = exact.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
        assert round_fraction(x, digits) == format(expected, "f")

    @given(
        rationals,
        st.fractions(min_value=0, max_value=Fraction(1, 10**3), max_denominator=10**8),
        st.integers(min_value=0, max_value=8),
    )
    def test_certified_decimal_is_the_rounding_of_every_point(self, lo, width, digits):
        enclosure = Interval(lo, lo + width)
        rendered = certified_decimal(enclosure, digits)
        if rendered is not None:
            for x in (enclosure.lo, enclosure.mid, enclosure.hi):
                assert round_fraction(x, digits) == rendered

    @given(intervals_with_point(), intervals_with_point())
    def test_operations_enclose_pointwise_results(self, a_and_x, b_and_y):
        (a, x), (b, y) = a_and_x, b_and_y
        assert x + y in a + b
        assert x - y in a - b
        assert x * y in a * b
        if 0 not in b:
            assert x / y in a / b
