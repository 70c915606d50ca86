from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from runwords.poly import (
    CACHED_KS,
    IntPoly,
    _g_squared,
    _power,
    fibonacci_poly,
    pk_fraction,
    tk_fraction,
    trinomial_poly,
    words_fraction,
)


def _phi_poly(k: int) -> IntPoly:
    """x^k - h_k = x^k - x^(k-1) - ... - x - 1, typed in here."""
    return IntPoly([-1] * k + [1])


def _plain_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


coefficient = st.integers(min_value=-(2**40), max_value=2**40)


@st.composite
def sparse_polys(draw):
    """Dense, or a few terms at degrees up to 60: runs of zeros of every
    length, some ending at degree 0."""
    if draw(st.booleans()):
        return IntPoly(draw(st.lists(coefficient, max_size=61)))
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=60), coefficient, max_size=5))
    return IntPoly([terms.get(i, 0) for i in range(max(terms, default=-1) + 1)])


@st.composite
def dyadic_enclosure_inputs(draw):
    """A polynomial, a scale s and a mantissa 0 <= x <= 2^(s+1)."""
    s = draw(st.integers(min_value=1, max_value=200))
    return draw(sparse_polys()), s, draw(st.integers(min_value=0, max_value=2 << s))


def _holds(p: IntPoly, x: int, s: int) -> bool:
    lo, hi = p._enclose(x, s)
    return Fraction(lo, 1 << s) <= p(Fraction(x, 1 << s)) <= Fraction(hi, 1 << s)


@given(dyadic_enclosure_inputs())
def test_fixed_point_enclosure_contains_exact_value(inputs):
    p, s, x = inputs
    lo, hi = p._enclose(x, s)
    exact = p(Fraction(x, 1 << s))
    assert exact == _plain_horner(p.coeffs, Fraction(x, 1 << s))
    assert Fraction(lo, 1 << s) <= exact <= Fraction(hi, 1 << s)
    if lo > 0 or hi < 0:  # a conclusive sign is the exact sign
        assert (exact > 0) == (lo > 0)


@pytest.mark.parametrize("s", range(1, 9))
def test_enclosure_holds_at_every_small_point(s):
    # every x 2^-s in [0, 2], where shifts drop few bits: a radius that
    # skips the 1 for a dropped nonzero bit misses the exact value here
    polys = [IntPoly([0] * n + [1]) for n in range(1, 12)]
    polys += [IntPoly([1] + [0] * n + [-2, 1]) for n in range(1, 10)]  # trinomials
    polys += [IntPoly([0] * n + [-3, 2]) for n in range(1, 10)]  # a zero run down to degree 0
    polys += [IntPoly([5, 0, 0, 0, 0, -7, 3]), IntPoly([-1, -1, -1, 1])]
    for p in polys:
        for x in range((2 << s) + 1):
            assert _holds(p, x, s), (p.coeffs, x, s)


def test_an_exact_point_gets_a_zero_radius():
    # x 2^-s = 3/2 and the powers of it that _power forms, up to
    # 3^6 / 2^6, fit the scale 2^-6 exactly, so no shift drops a bit and
    # the ball is a point
    p = IntPoly([1, 0, 0, 0, 0, 0, 2])  # 2x^6 + 1
    assert p._runs == ((2, 6), (1, 0))
    assert p._enclose(3 << 5, 6) == (2 * 729 + 64, 2 * 729 + 64)


def test_runs_cross_zero_runs_of_four_or_more_with_one_power():
    assert IntPoly([1, 0, -2, 1])._runs == ((1, 1), (-2, 1), (0, 1), (1, 0))
    assert IntPoly([5, 3, 2])._runs == ((2, 1), (3, 1), (5, 0))
    assert trinomial_poly(3)._runs == ((1, 1), (-2, 1), (0, 1), (0, 1), (1, 0))
    assert trinomial_poly(4)._runs == ((1, 1), (-2, 4), (1, 0))
    assert trinomial_poly(8).derivative()._runs == ((9, 1), (-16, 7), (0, 0))
    assert IntPoly([0, 0, 0, 0, 0, 0, 7])._runs == ((7, 6), (0, 0))
    assert IntPoly([0, 0, 7])._runs == ((7, 1), (0, 1), (0, 0))
    assert IntPoly([3])._runs == ((3, 0),)
    assert IntPoly([])._runs == ()


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**202),
    st.integers(min_value=0, max_value=2**40),
    st.fractions(min_value=-1, max_value=1),
)
def test_power_ball_holds_every_power_of_the_base_ball(s, n, x, rx, t):
    # every X in (x +- rx) 2^-s, 0 <= x <= 2^(s+1): both ends and a point between
    x %= (2 << s) + 1
    m, r = _power(x, n, s, rx)
    assert m >= 0 <= r
    for point in (x - rx, x + rx, x + t * rx):
        power = (Fraction(point) / (1 << s)) ** n
        assert Fraction(m - r, 1 << s) <= power <= Fraction(m + r, 1 << s), point


@given(
    sparse_polys(),
    st.fractions(min_value=-3, max_value=3, max_denominator=2**40),
)
def test_call_is_plain_horner(p, x):
    assert p(x) == _plain_horner(p.coeffs, x)


def test_derivative():
    p = IntPoly([5, 3, 0, 2])  # 5 + 3x + 2x^3
    assert p.derivative().coeffs == (3, 0, 6)
    assert IntPoly([7]).derivative().coeffs == ()


def test_fibonacci_polys():
    assert fibonacci_poly(2).coeffs == (-1, 1, 1)
    assert fibonacci_poly(3).coeffs == (-1, 1, 1, 1)
    assert trinomial_poly(3).coeffs == (1, 0, 0, -2, 1)
    with pytest.raises(ValueError):
        fibonacci_poly(1)
    with pytest.raises(ValueError):
        trinomial_poly(0)


@pytest.mark.parametrize("k", [*range(2, 65), 1000])
def test_trinomial_is_x_minus_1_times_the_dense_poly(k):
    t = trinomial_poly(k)
    assert t == IntPoly([-1, 1]) * _phi_poly(k)
    assert t.coeffs == (1,) + (0,) * (k - 1) + (-2, 1)


def test_reciprocal_relation():
    # r is a root of the reciprocal polynomial iff 1/r is a root of g_k
    for k in (2, 3, 4):
        g = fibonacci_poly(k)
        r = _phi_poly(k)
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


CACHED_BUILDERS = [fibonacci_poly, words_fraction, pk_fraction, tk_fraction]


@pytest.mark.parametrize("builder", CACHED_BUILDERS, ids=lambda f: f.__name__)
def test_a_cached_builder_returns_one_shared_fresh_build(builder):
    for k in range(2, 41):
        first = builder(k)
        assert first == builder.__wrapped__(k)
        assert builder(k) is first


@pytest.mark.parametrize("builder", CACHED_BUILDERS, ids=lambda f: f.__name__)
def test_the_cache_keys_float_and_bool_apart_from_int(builder):
    # 2.0 equals 2 and hashes alike, and True is an int; a cached k = 2 answers neither
    builder(2)
    for k in (2.0, True):
        with pytest.raises(ValueError):
            builder(k)


@pytest.mark.parametrize("builder", CACHED_BUILDERS, ids=lambda f: f.__name__)
def test_the_cache_is_bounded(builder):
    assert builder.cache_info().maxsize == CACHED_KS == 32


def test_tk_fraction():
    num, den = tk_fraction(2)
    assert num.coeffs == (0, 2, 2, 1)  # 2x + 2x^2 + x^3
    assert den == fibonacci_poly(2) * fibonacci_poly(2)
    num, _ = tk_fraction(3)
    # x * (2 + 4x + 3x^2 + 2x^3 + x^4) -- weights 2i+2 then 2k-i-1
    assert num.coeffs == (0, 2, 4, 3, 2, 1)
