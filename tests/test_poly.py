from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from runwords.poly import (
    IntPoly,
    _g_squared,
    fibonacci_poly,
    pk_fraction,
    reciprocal_fibonacci_poly,
    tk_fraction,
    words_fraction,
)


def test_normalization_strips_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly([0, 1]).degree == 1


def test_arithmetic():
    p = IntPoly([1, 1])  # 1 + x
    q = IntPoly([-1, 1])  # -1 + x
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p - q).coeffs == (2,)
    assert (p * IntPoly([])).coeffs == ()
    assert (IntPoly([]) * p).coeffs == (IntPoly([]) * IntPoly([])).coeffs == ()


def test_evaluation_types():
    p = IntPoly([-1, 0, 1])  # x^2 - 1
    assert p(3) == 8
    assert p(Fraction(1, 2)) == Fraction(-3, 4)
    assert p(1j) == -2


@given(
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=12),
    st.fractions(min_value=-100, max_value=100, max_denominator=10**12),
)
def test_fraction_evaluation_matches_term_sum(coeffs, x):
    assert IntPoly(coeffs)(x) == sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


@st.composite
def dyadic_enclosure_inputs(draw):
    """A polynomial, a scale s and a mantissa 0 <= x <= 2^(s+1)."""
    coeffs = draw(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=61))
    s = draw(st.integers(min_value=1, max_value=200))
    return IntPoly(coeffs), s, draw(st.integers(min_value=0, max_value=2 << s))


@given(dyadic_enclosure_inputs())
def test_fixed_point_enclosure_contains_exact_value(inputs):
    p, s, x = inputs
    lo, hi = p._enclose(x, s)
    exact = p(Fraction(x, 1 << s))
    assert Fraction(lo, 1 << s) <= exact <= Fraction(hi, 1 << s)
    if lo > 0 or hi < 0:  # a conclusive sign is the exact sign
        assert (exact > 0) == (lo > 0)


def test_derivative():
    p = IntPoly([5, 3, 0, 2])  # 5 + 3x + 2x^3
    assert p.derivative().coeffs == (3, 0, 6)
    assert IntPoly([7]).derivative().coeffs == ()


def test_fibonacci_polys():
    assert fibonacci_poly(2).coeffs == (-1, 1, 1)
    assert fibonacci_poly(3).coeffs == (-1, 1, 1, 1)
    assert reciprocal_fibonacci_poly(3).coeffs == (-1, -1, -1, 1)
    with pytest.raises(ValueError):
        fibonacci_poly(1)
    with pytest.raises(ValueError):
        reciprocal_fibonacci_poly(0)


def test_reciprocal_relation():
    # r is a root of the reciprocal polynomial iff 1/r is a root of g_k
    for k in (2, 3, 4):
        g = fibonacci_poly(k)
        r = reciprocal_fibonacci_poly(k)
        x = Fraction(7, 5)
        assert r(x) == -(x**k) * g(1 / x)


def test_words_fraction():
    num, den = words_fraction(3)
    assert num.coeffs == (-1, -1, -1)  # -(1 + x + x^2)
    assert den == fibonacci_poly(3)


def test_pk_fraction():
    num, den = pk_fraction(2)
    assert num.coeffs == (0, 1)  # x
    assert den == fibonacci_poly(2) * fibonacci_poly(2)
    num, _ = pk_fraction(3)
    assert num.coeffs == (0, 1, 2)  # x + 2x^2
    num, _ = pk_fraction(4)
    assert num.coeffs == (0, 1, 2, 3)


@pytest.mark.parametrize("k", [*range(2, 65), 1000])
def test_g_squared_is_the_square_of_g(k):
    assert _g_squared(k) == fibonacci_poly(k) * fibonacci_poly(k)


@pytest.mark.parametrize("k", [*range(2, 65), 1000])
def test_tk_numerator_is_the_schoolbook_derivative(k):
    # x (p' q - p q') for the word counts p/q, by schoolbook products
    p, q = words_fraction(k)
    assert tk_fraction(k)[0] == IntPoly([0, 1]) * (p.derivative() * q - p * q.derivative())


def test_tk_fraction():
    num, den = tk_fraction(2)
    assert num.coeffs == (0, 2, 2, 1)  # 2x + 2x^2 + x^3
    assert den == fibonacci_poly(2) * fibonacci_poly(2)
    num, _ = tk_fraction(3)
    # x * (2 + 4x + 3x^2 + 2x^3 + x^4) -- weights 2i+2 then 2k-i-1
    assert num.coeffs == (0, 2, 4, 3, 2, 1)
