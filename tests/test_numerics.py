import cmath
import hashlib
import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from runwords import core, numerics
from runwords.interval import Interval, render_decimal
from runwords.poly import IntPoly, _power, fibonacci_poly
from runwords.verify import _distance


def _phi_poly(k: int) -> IntPoly:
    """x^k - h_k = x^k - x^(k-1) - ... - x - 1, phi_k's dense polynomial, typed in here."""
    return IntPoly([-1] * k + [1])


class TestPhi:
    def test_golden_ratio(self):
        enc = numerics.phi(2, 20)
        # 2 phi_2 - 1 = sqrt5, by exact squares
        assert (2 * enc.lo - 1) ** 2 <= 5 <= (2 * enc.hi - 1) ** 2
        assert enc.width < Fraction(1, 10**20)

    def test_defining_property(self):
        for k in (2, 3, 5, 8):
            enc = numerics.phi(k, 20)
            poly = _phi_poly(k)
            assert poly(enc.lo) < 0 < poly(enc.hi)

    def test_large_k_approaches_two(self):
        enc = numerics.phi(30, 15)
        assert Fraction(1999, 1000) < enc.lo and enc.hi < 2

    def test_strictly_increasing_in_k(self):
        values = [numerics.phi(k, 20) for k in range(2, 31)]
        for earlier, later in zip(values, values[1:]):
            assert earlier.hi < later.lo
            assert 1 < earlier.lo and later.hi < 2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            numerics.phi(1, 10)
        with pytest.raises(ValueError):
            numerics.phi(2, 0)

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=500))
    def test_width_and_mpmath_root(self, k, digits):
        enc = numerics.phi(k, digits)
        assert enc.width < Fraction(1, 10**digits)
        with mpmath.workdps(digits + 20):
            root = mpmath.findroot(
                lambda z: z**k - sum(z**i for i in range(k)), (1, 2), solver="anderson"
            )
            mantissa, exponent = root.man_exp
        # the mpmath root is itself good to about 10^-(digits + 18)
        slack = Fraction(1, 10 ** (digits + 15))
        assert enc.lo - slack <= mantissa * Fraction(2) ** exponent <= enc.hi + slack


def _exact_sign(poly: IntPoly, x: Fraction) -> int:
    """Sign of poly(x) for x = n / d, from the integer d^deg poly(x), by Horner."""
    n, d = x.numerator, x.denominator
    value, scale = 0, 1
    for c in reversed(poly.coeffs):
        value, scale = value * n + c * scale, scale * d
    return (value > 0) - (value < 0)


def _gaussian(poly: IntPoly, x: int, y: int, s: int) -> tuple[int, int]:
    """Real and imaginary parts of 2^(s d) poly((x + iy) 2^-s) by Horner, d the degree."""
    re = im = shift = 0
    for c in reversed(poly.coeffs):
        re, im = re * x - im * y + (c << shift), re * y + im * x
        shift += s
    return re, im


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The Gaussian product of a and b."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _least_double_at_or_above_sqrt(x: Fraction) -> float:
    """The least double r with r^2 >= x >= 0, by bisection on the bit
    patterns of the doubles from 0.0 up to inf, which order them."""
    lo, hi = 0, 0x7FF0000000000000

    def double(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    while lo < hi:
        mid = (lo + hi) // 2
        if Fraction(double(mid)) ** 2 >= x:
            hi = mid
        else:
            lo = mid + 1
    return double(lo)


def _tol_bits(digits: int) -> int:
    """The least t with 2^-t < 10^-digits."""
    return (10**digits).bit_length()


def _grid_cell(root: Interval, t: int) -> Interval:
    """The cell [a, a + 1] 2^-t with a = floor(x 2^t) for every x in ``root``."""
    a = math.floor(root.lo * 2**t)
    assert a == math.floor(root.hi * 2**t)
    return Interval(Fraction(a, 1 << t), Fraction(a + 1, 1 << t))


# 8 (2x - 3)^3 + 3: -5 at 1, 11 at 2, and flat at 3/2
FLAT_AT_THREE_HALVES = IntPoly([-213, 432, -288, 64])


class TestBisectRoot:
    def test_bisects_where_newton_leaves_the_bracket(self):
        # From 3/2 + 2^-30 the Newton step lands near -1.8e16, far below
        # the bracket, so the round must bisect: to the cell of width
        # exactly 2^-t, where the certificate's is 3 2^-(t + 2).
        poly, t, guess = FLAT_AT_THREE_HALVES, 200, Fraction(3, 2) + Fraction(1, 2**30)
        assert guess - poly(guess) / poly.derivative()(guess) < -(10**16)
        enc = numerics.bisect_root(poly, t, float(guess))
        assert enc.width == Fraction(1, 1 << t)
        assert poly(enc.lo) < 0 < poly(enc.hi)
        assert (2 * enc.lo - 3) ** 3 < Fraction(-3, 8) < (2 * enc.hi - 3) ** 3

    def test_newton_takes_no_enclosure_below_zero(self, monkeypatch):
        # The Newton step that leaves [1, 2] is the last one: every point
        # that the fixed-point enclosure sees (it needs x >= 0) is in [1, 2].
        points = []
        enclose = IntPoly._enclose
        monkeypatch.setattr(
            IntPoly, "_enclose",
            lambda p, x, s: points.append(Fraction(x, 1 << s)) or enclose(p, x, s),
        )
        enc = numerics.bisect_root(FLAT_AT_THREE_HALVES, 100, 1.5 + 2**-30)
        assert points and all(1 <= x <= 2 for x in points)
        assert enc.width <= Fraction(1, 1 << 100)

    def test_refuses_a_bracket_without_sign_change(self):
        with pytest.raises(ValueError):
            numerics.bisect_root(fibonacci_poly(3), 10, 1.5)

    def test_phi_checks_its_bracket_in_integers(self, monkeypatch):
        points = []
        evaluate = IntPoly.__call__
        monkeypatch.setattr(IntPoly, "__call__", lambda p, x: points.append(x) or evaluate(p, x))
        numerics.phi(40, 30)
        assert points == [1, 2] and all(type(x) is int for x in points)

    @pytest.mark.parametrize("digits", [1, 5, 6, 7, 15, 50, 300])
    def test_phi_takes_the_seeded_bracket(self, monkeypatch, digits):
        # the root-finder cells: k - 1 < t, below the closed form
        signs = []
        sign = numerics._sign
        monkeypatch.setattr(
            numerics, "_sign",
            lambda p, m, e, s: signs.append((Fraction(m, 1 << e), sign(p, m, e, s)))
            or sign(p, m, e, s),
        )
        for k in [k for k in [*range(2, 65), 200, 1000] if k - 1 < _tol_bits(digits)]:
            signs.clear()
            guess = Fraction(numerics._phi_float(k))
            half = Fraction(1, 1 << numerics.SEED_BITS)
            lo, hi = max(1, guess - half), min(2, guess + half)
            enc = numerics.phi(k, digits)
            # the certificate's two signs are the only ones, so nothing was
            # bisected, and it lies inside the seed's [lo, hi]
            assert signs == [(enc.lo, -1), (enc.hi, 1)], k
            assert all(lo <= x <= hi for x, _ in signs), k
            assert lo <= enc.lo <= enc.hi <= hi
            assert enc.width < Fraction(1, 10**digits)
            poly = _phi_poly(k)
            assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi), k

    @pytest.mark.parametrize("digits", [1, 2, 5, 15, 30, 50, 100, 300, 1000])
    def test_phi_on_the_trinomial_is_the_dense_enclosure(self, digits):
        # phi's enclosure, from (x - 1)(x^k - h_k), is the one bisect_root
        # gives on x^k - h_k itself with the same t and float guess, at
        # every root-finder cell (k - 1 < t)
        t = _tol_bits(digits)
        for k in [k for k in [*range(2, 70), 100, 200, 300, 1000, 3000] if k - 1 < t]:
            dense = numerics.bisect_root(_phi_poly(k), t, numerics._phi_float(k))
            assert numerics.phi(k, digits) == dense, k

    @pytest.mark.parametrize("digits", [1, 5, 6, 7, 15, 50, 300])
    def test_phi_beyond_the_bits_of_tol_is_the_closed_form(self, monkeypatch, digits):
        # the closed-form cells: k - 1 >= t gives [2 - 2^-t, 2], with no
        # polynomial built and no sign taken
        t = _tol_bits(digits)
        ks = [k for k in [*range(2, 65), 200, 1000] if k - 1 >= t]
        monkeypatch.setattr(numerics, "_sign", None)
        monkeypatch.setattr(numerics, "trinomial_poly", None)
        encs = {k: numerics.phi(k, digits) for k in [*ks, 10**12, 10**23]}
        monkeypatch.undo()
        for k, enc in encs.items():
            assert enc == Interval(2 - Fraction(1, 1 << t), Fraction(2)), k
            assert enc.width < Fraction(1, 10**digits)
        for k in ks:
            poly = _phi_poly(k)
            assert _exact_sign(poly, encs[k].lo) < 0 < _exact_sign(poly, encs[k].hi), k

    @pytest.mark.parametrize("digits", [1, 2, 5, 15, 50, 100])
    def test_phi_either_side_of_the_closed_form(self, digits):
        # k = t is the last root-finder cell and k = t + 1 the first closed
        # form: there 2 - 2^-t = 2 - 2^(1-k), the Dresden-Du bound itself
        t = _tol_bits(digits)
        for k in range(max(2, t - 2), t + 3):
            enc = numerics.phi(k, digits)
            assert enc.width < Fraction(1, 10**digits), k
            poly = _phi_poly(k)
            assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi), k
            assert (enc.hi == 2) == (k - 1 >= t), k

    def test_the_dresden_du_bound(self):
        # 2 - 2^(1-k) < phi_k < 2: with x = 2 - 2^(1-k), the trinomial
        # (x - 1) p = x^k (x - 2) + 1 is 1 - 2 (1 - 2^-k)^k, below 0
        for k in [*range(2, 200), 500, 1000, 2000]:
            assert 2 * (2**k - 1) ** k > 2 ** (k * k), k
        for k in range(2, 65):
            poly = _phi_poly(k)
            assert _exact_sign(poly, 2 - Fraction(2, 1 << k)) < 0 < _exact_sign(poly, Fraction(2))

    @pytest.mark.parametrize(
        "k, digits", [(2, 3002), (8, 3002), (40, 3002), (40, 5002), (300, 1002)]
    )
    def test_newton_steps_climb_a_ladder_to_tol(self, monkeypatch, k, digits):
        # The Newton steps take no sign: the only two are the certificate's,
        # at tol's bits, however the doubling from the seed's 2^-44 lines up
        # with tol.
        scales = []
        sign = numerics._sign
        monkeypatch.setattr(
            numerics, "_sign", lambda p, m, e, s: scales.append(e) or sign(p, m, e, s)
        )
        numerics.phi(k, digits)
        tol_bits = (10**digits).bit_length() - 1
        assert max(scales) >= tol_bits
        assert all(e <= tol_bits // 2 + 40 or e >= tol_bits for e in scales)
        assert len(scales) == 2

    @pytest.mark.parametrize(
        "k, guess",
        [
            (5, 2.5),  # outside [1, 2], above
            (5, 0.5),  # outside [1, 2], below
            (5, numerics._phi_float(5) + 2.0**-10),
            (5, numerics._phi_float(5) - 2.0**-10),
            (5, 1.0),  # at a bracket end, and wrong
            (5, 2.0),
            (40, 1.0),
        ],
    )
    def test_a_wrong_guess_leaves_the_unseeded_enclosure(self, k, guess):
        # the certificate fails, and bisection of [1, 2], which no guess
        # steers, gives the cell of phi_k
        t = _tol_bits(60)
        enc = numerics.bisect_root(_phi_poly(k), t, guess)
        assert enc == _grid_cell(numerics.phi(k, 80), t)

    def test_a_certificate_in_the_wrong_order_is_not_taken(self):
        # -(3x - 4)(x - 3) is below 0 near 3.5 and above 0 at 2: the
        # candidate's ends, clipped to [1, 2], have the right signs but the
        # wrong order, so [1, 2] is bisected about the root 4/3.
        t = _tol_bits(60)
        enc = numerics.bisect_root(IntPoly([-12, 13, -3]), t, 3.5)
        assert enc == _grid_cell(Interval(Fraction(4, 3), Fraction(4, 3)), t)

    def test_the_fallback_is_the_cell_of_the_root(self):
        # Bisection's enclosure is exactly [a, a + 1] 2^-t, a = floor(phi_k 2^t).
        t = 100
        for k in range(2, 30):
            cell = _grid_cell(numerics.phi(k, 60), t)
            poly = _phi_poly(k)
            for guess in (0.5, 1.0, 2.5, 3.0):
                assert numerics.bisect_root(poly, t, guess) == cell, (k, guess)

    @pytest.mark.parametrize("k", [53, 300])
    def test_a_guess_at_a_bracket_end_can_be_right(self, k):
        # phi_k is within 2^(1-k) of 2, so [2 - 2^-44, 2] holds it.
        assert numerics._phi_float(k) == 2.0
        poly, t = _phi_poly(k), _tol_bits(300)
        enc = numerics.bisect_root(poly, t, 2.0)
        assert 2 - Fraction(1, 1 << numerics.SEED_BITS) <= enc.lo
        assert enc.width <= Fraction(1, 1 << t)
        assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi)

    def test_float_estimate_ends_finite(self):
        for k in [*range(2, 300), 10**3, 10**4, 10**5, 2**20 - 1, 10**6]:
            x = numerics._phi_float(k)
            assert math.isfinite(x) and 1.5 <= x <= 2, k

    def test_an_exact_dyadic_root_lies_in_the_enclosure(self):
        # 2x - 3 vanishes at 3/2: Newton lands on it from 1 and stays there,
        # and the certificate about it holds.
        poly, t = IntPoly([-3, 2]), _tol_bits(20)
        for guess in (1.0, 1.5, 1.75):
            enc = numerics.bisect_root(poly, t, guess)
            assert Fraction(3, 2) in enc and enc.width <= Fraction(1, 1 << t), guess

    def test_an_exact_root_at_a_midpoint_stays_the_high_end(self):
        # From 0.5 Newton leaves [1, 2], so [1, 2] is bisected: its first
        # midpoint is the root 3/2 of 2x - 3, which stays the high end of
        # every cell.
        poly, t = IntPoly([-3, 2]), _tol_bits(20)
        enc = numerics.bisect_root(poly, t, 0.5)
        assert enc == Interval(Fraction(3, 2) - Fraction(1, 1 << t), Fraction(3, 2))

    def test_the_certificate_reaches_two_grid_points_above_the_iterate(self, monkeypatch):
        # (3 - x)(2^56 x - R) rises and is concave on [1, 2]; its root
        # r = 5/4 + 2^-56 lies just above 5/4 on the grid 2^-46 that
        # t = 40 certifies on.  Newton from below a concave rise stays
        # below r, here by about 2^-51 from a guess 2^-13 low, so the last
        # iterate x has m = floor(x 2^46) one below 5/4 2^46: (m + 1) 2^-46
        # is 5/4, below r, and only the certificate's reach to m + 2 holds r.
        R = 5 * 2**54 + 1
        poly = IntPoly([-3 * R, 3 * 2**56 + R, -(2**56)])
        signs = []
        sign = numerics._sign
        monkeypatch.setattr(
            numerics, "_sign", lambda p, m, e, s: signs.append(m) or sign(p, m, e, s)
        )
        enc = numerics.bisect_root(poly, 40, 1.25 - 2**-13)
        assert len(signs) == 2  # the certificate held: nothing was bisected
        assert Fraction(R, 2**56) in enc and enc.width <= Fraction(1, 1 << 40)
        assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi)

    def test_exact_evaluation_decides_where_the_enclosure_cannot(self, monkeypatch):
        # (3x - 4)^41 near 4/3 is far below the rounding error of
        # fixed-point Horner on its coefficients, up to 3^41 times
        # binomials, so the certificates fall back to the exact integer
        # evaluation.
        poly = IntPoly([1])
        for _ in range(41):
            poly = poly * IntPoly([-4, 3])
        assert (poly(1), poly(2)) == (-1, 2**41)
        points = []
        evaluate = IntPoly.__call__
        monkeypatch.setattr(IntPoly, "__call__", lambda p, x: points.append(x) or evaluate(p, x))
        t = _tol_bits(30)
        enc = numerics.bisect_root(poly, t, 1.3)
        monkeypatch.undo()
        # beyond the two bracket checks, exact values decided signs
        assert points[:2] == [1, 2] and len(points) > 2
        assert enc.width <= Fraction(1, 1 << t)
        assert poly(enc.lo) < 0 < poly(enc.hi)
        assert Fraction(4, 3) in enc

    @given(
        st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=61),
        st.integers(min_value=1, max_value=2**61),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=100),
    )
    def test_sign_is_the_exact_sign(self, coeffs, m, e, extra):
        poly = IntPoly(coeffs)
        value = poly(Fraction(m, 1 << e))
        assert numerics._sign(poly, m, e, e + extra) == (value > 0) - (value < 0)


endpoint_pairs = st.lists(
    st.integers(min_value=-(2**70), max_value=2**70), min_size=2, max_size=2
).map(sorted)


class TestFixedPoint:
    @given(st.integers(min_value=0, max_value=100), endpoint_pairs, endpoint_pairs)
    def test_operations_round_outward(self, s, x, y):
        def contains(pair, value):
            return Fraction(pair[0], 1 << s) <= value <= Fraction(pair[1], 1 << s)

        points = [Fraction(a, 1 << s) for a in x], [Fraction(b, 1 << s) for b in y]
        product = numerics._mul(x, y, s)
        assert all(contains(product, a * b) for a in points[0] for b in points[1])
        if x[1] >= 0:
            m, r = _power(x[1], 5, s)
            assert contains((m - r, m + r), points[0][1] ** 5)


class TestReferee:
    def test_high_degree_and_many_digits_against_mpmath(self):
        with mpmath.workdps(1020):
            root = mpmath.findroot(
                lambda z: z**200 - sum(z**i for i in range(200)), (1.5, 2), solver="anderson"
            )
            phi_ref = _fraction(root)
        slack = Fraction(1, 10**1015)
        enc = numerics.phi(200, 1000)
        assert enc.width < Fraction(1, 10**1000)
        assert enc.lo - slack <= phi_ref <= enc.hi + slack
        with mpmath.workdps(2020):
            x = mpmath.findroot(
                lambda z: sum(z**i for i in range(1, 14)) - 1, (0, 1), solver="anderson"
            )
            k = 13
            closed = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
                k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
            )
            limit_ref = _fraction(closed)
        slack = Fraction(1, 10**2015)
        enc = numerics.limit_value(13, 2000)
        assert enc.width < Fraction(1, 10**2000)
        assert enc.lo - slack <= limit_ref <= enc.hi + slack


def _fraction(value) -> Fraction:
    mantissa, exponent = value.man_exp
    return mantissa * Fraction(2) ** exponent


class TestInversePhi:
    def test_golden_case(self):
        enc = numerics.inverse_phi(2, 20)
        # 2 / phi_2 + 1 = sqrt5, by exact squares
        assert (2 * enc.lo + 1) ** 2 <= 5 <= (2 * enc.hi + 1) ** 2

    def test_root_of_constraint_poly(self):
        for k in range(2, 14):
            enc = numerics.inverse_phi(k, 20)
            poly = fibonacci_poly(k)
            assert poly(enc.lo) < 0 < poly(enc.hi)
            assert 0 < enc.lo and enc.hi < 1

    def test_k3_independent_bisection(self):
        # plain bisection on x^3 + x^2 + x - 1, independent of numerics
        def g(x):
            return x**3 + x**2 + x - 1

        lo, hi = Fraction(0), Fraction(1)
        while hi - lo >= Fraction(1, 10**20):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        enc = numerics.inverse_phi(3, 20)
        assert lo <= enc.hi and enc.lo <= hi  # the two enclosures overlap
        # 0.5436890...
        assert Fraction(54368, 10**5) < lo
        assert hi < Fraction(54369, 10**5)


def _count_phi_calls(monkeypatch) -> list:
    """Record each call of numerics.phi made through the module."""
    calls = []
    phi = numerics.phi
    monkeypatch.setattr(numerics, "phi", lambda *args: calls.append(args) or phi(*args))
    return calls


class TestLimitValue:
    def test_k2_closed_form(self):
        # 5 - 10 L_2 = sqrt5, by exact squares
        enc = numerics.limit_value(2, 32)
        assert (5 - 10 * enc.hi) ** 2 <= 5 <= (5 - 10 * enc.lo) ** 2
        assert enc.width < Fraction(1, 10**30)

    def test_matches_closed_form_in_mpmath(self):
        # Independent of the production path: phi_k from mpmath.findroot at
        # twice the digits, and the limit in closed form at x = 1/phi_k.
        digits = 30
        with mpmath.workdps(2 * digits):
            for k in [*range(2, 41), 64, 200]:
                root = mpmath.findroot(
                    lambda z: z**k - sum(z**i for i in range(k)), (1, 2), solver="anderson"
                )
                x = 1 / root
                closed = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
                    k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
                )
                assert Fraction(mpmath.nstr(closed, 2 * digits)) in numerics.limit_value(k, digits)

    def test_width_contract(self, monkeypatch):
        # met in one pass: one enclosure of phi_k per call
        calls = _count_phi_calls(monkeypatch)
        for k in [*range(2, 65), 200, 1000]:
            for digits in (1, 2, 5, 15, 20):
                assert numerics.limit_value(k, digits).width < Fraction(1, 10**digits)
        assert len(calls) == 5 * 65

    def test_guard_digits_keep_rendering_to_one_pass(self):
        # Without GUARD_DIGITS the enclosure is still narrow enough, but
        # L_2 at 10 digits and L_32 at 25 straddle a rounding boundary.
        for k in range(2, 41):
            for digits in range(1, 31):
                works = []
                render_decimal(lambda w: works.append(w) or numerics.limit_value(k, w), digits)
                assert works == [digits + 2], (k, digits)

    def test_below_half_and_rising(self):
        limits = [numerics.limit_value(k) for k in range(2, 13)]
        for earlier, later in zip(limits, limits[1:]):
            assert earlier.hi < later.lo
        assert all(enc.hi < Fraction(1, 2) for enc in limits)

    @given(st.data())
    def test_limit_is_exact_at_both_ends(self, data):
        # dyadic a < b in (2 - 2/(k + 1), 2], where (k + 1) x - 2k > 0
        k, e = data.draw(st.integers(2, 64)), data.draw(st.integers(8, 200))
        top = 2 << e
        m = data.draw(st.integers(top * k // (k + 1) + 1, top - 1))
        a, b = Fraction(m, 1 << e), Fraction(data.draw(st.integers(m + 1, top)), 1 << e)
        enc = numerics._limit(k, Interval(a, b))
        assert enc.lo == (k * a - 2 * k + 1) / ((k + 1) * a - 2 * k)
        assert enc.hi == (k * b - 2 * k + 1) / ((k + 1) * b - 2 * k)
        assert enc.lo < enc.hi

    def test_limit_at_a_huge_k_ends_at_the_tie(self):
        # phi's closed-form enclosure [2 - 2^-t, 2] ends where L = 1/2 exactly
        k, a = 10**23, 2 - Fraction(1, 2**100)  # (k + 1) 2^-100 < 10^-7 keeps D > 0
        enc = numerics._limit(k, Interval(a, 2))
        assert enc.hi == Fraction(1, 2)
        assert enc.lo == (k * a - 2 * k + 1) / ((k + 1) * a - 2 * k) < Fraction(1, 2)


class TestAsymptoticCoefficient:
    @pytest.mark.parametrize("n", [1, 100, 800])
    def test_fixed_limit_is_the_rounded_exact_limit(self, n):
        # L_k's fixed-point ends, from the unreduced ratios, are those of
        # its reduced Fractions, and so is each coefficient built on them
        for k in range(2, 41):
            work = 15 + numerics.GUARD_DIGITS + len(str(k * n))
            s, root = numerics._work_bits(work), numerics.phi(k, work)
            exact = numerics._limit(k, root)
            limit = numerics._fixed(exact.lo.as_integer_ratio(), exact.hi.as_integer_ratio(), s)
            assert numerics._fixed(*numerics._limit_ends(k, root), s) == limit, k
            lo, hi = numerics._fixed(root.lo.as_integer_ratio(), root.hi.as_integer_ratio(), s)
            mid = lo + hi >> 1
            m, r = _power(mid, n + 1, s, hi - mid)
            bits = numerics._mul((m - r, m + r), ((1 << s) - limit[1], (1 << s) - limit[0]), s)
            for target, term in (("T", bits), ("P", numerics._mul(bits, limit, s))):
                expected = numerics._interval(n * term[0], n * term[1], s)
                assert numerics.asymptotic_coefficient(k, target, n) == expected, (k, target)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            numerics.asymptotic_coefficient(2, "P", 0)
        with pytest.raises(ValueError):
            numerics.asymptotic_coefficient(2, "X", 10)

    def test_relative_width_contract(self, monkeypatch):
        # met in one pass: one enclosure of phi_k per call
        calls = _count_phi_calls(monkeypatch)
        cases = [(k, n, target, digits) for k in (2, 3, 8, 40) for n in (1, 2, 10, 999, 10**5)
                 for target in "PT" for digits in (1, 15, 100)]
        for k, n, target, digits in cases:
            enc = numerics.asymptotic_coefficient(k, target, n, digits)
            assert enc.width * 10**digits < enc.lo, (k, n, target, digits)
        assert len(calls) == len(cases)

    def test_ratio_approaches_one(self):
        est = numerics.asymptotic_coefficient(2, "P", 1000, 20)
        exact = core.popularity(1000, 2)
        assert Fraction(99, 100) * exact < est.lo and est.hi < Fraction(101, 100) * exact

    def test_bits_target(self):
        est = numerics.asymptotic_coefficient(3, "T", 1000, 20)
        exact = 1000 * core.count_words(1000, 3)
        assert Fraction(99, 100) * exact < est.lo and est.hi < Fraction(101, 100) * exact

    def test_bits_coefficient_rounds_to_the_count(self):
        # Binet's rounding (Dresden and Du, J. Integer Sequences 17, 2014):
        # the number W of n-bit words with no run of k ones is the integer
        # nearest (phi - 1) phi^(n+1) / ((k + 1) phi - 2k), the bits'
        # coefficient over n, far beyond the oracle's n <= 24
        cells = [(n, k) for k in (2, 3, 5, 8, 20) for n in range(1, 301)]
        for n, k in cells + [(10**4, 2), (10**4, 40)]:
            count = core.count_words(n, k)
            enc = numerics.asymptotic_coefficient(k, "T", n, len(str(count)) + 5)
            assert count - Fraction(1, 2) < enc.lo / n and enc.hi / n < count + Fraction(1, 2)

    def test_matches_double_pole_transfer_in_mpmath(self):
        # n phi^(n+2) f(1/phi) / g'(1/phi)^2, with the numerators f of the 1s
        # and bits series and g' written out here at x = 1/phi and phi from
        # mpmath.findroot: nothing is shared with the closed forms in phi_k.
        digits = 40
        with mpmath.workdps(2 * digits):
            for k in range(2, 9):
                phi = mpmath.findroot(
                    lambda z: z**k - sum(z**i for i in range(k)), (1, 2), solver="anderson"
                )
                x = 1 / phi
                h = sum(x**i for i in range(k))
                dh = sum(i * x ** (i - 1) for i in range(1, k))
                g, dg = x * h - 1, h + x * dh
                numerators = {"P": x * dh, "T": x * (h * dg - dh * g)}
                for n in (50, 400):
                    for target, f in numerators.items():
                        expected = _fraction(n * phi ** (n + 2) * f / dg**2)
                        enc = numerics.asymptotic_coefficient(k, target, n, digits)
                        slack = expected / 10 ** (2 * digits - 10)
                        assert enc.lo - slack <= expected <= enc.hi + slack, (k, target, n)


class TestAllRoots:
    def test_k2_explicit(self):
        roots = numerics.all_roots(2)
        assert len(roots.roots) == 2
        moduli = sorted(abs(z) for z in roots.roots)
        golden = 1.6180339887498949
        assert abs(moduli[1] - golden) < 1e-12
        assert abs(moduli[0] - 1 / golden) < 1e-12

    def test_disks_certified(self):
        for k in (2, 5, 10, 20, 32, 64):
            roots = numerics.all_roots(k)
            assert len(roots.roots) == k
            assert max(roots.error_radii) < 1e-13
            for j, i in combinations(range(k), 2):
                distance = Fraction(roots.roots[j].real - roots.roots[i].real) ** 2 + Fraction(
                    roots.roots[j].imag - roots.roots[i].imag
                ) ** 2
                assert distance > (Fraction(roots.error_radii[j]) + Fraction(roots.error_radii[i])) ** 2

    def test_radii_are_newton_radii_rounded_up(self):
        # the radius k |p(z) / p'(z)|, squared, in Gaussian rationals written
        # out here: each radius is at least it, and above it by no more
        # than the last bits of a double.
        for k in (3, 8, 17, 53, 64):
            roots = numerics.all_roots(k)
            poly = _phi_poly(k)
            for z, r in zip(roots.roots, roots.error_radii):
                x, y = Fraction(z.real), Fraction(z.imag)
                (vr, vi), (sr, si) = (_horner(q, x, y) for q in (poly, poly.derivative()))
                exact = k * k * (vr * vr + vi * vi) / (sr * sr + si * si)
                radius = Fraction(r) ** 2
                assert exact <= radius <= exact * (1 + Fraction(1, 2**50))

    @settings(derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**2000),
        st.integers(min_value=1, max_value=2**2300),
        st.integers(min_value=1, max_value=2**80),
    )
    @example(0, 1, 1)
    @example(4, 1, 3)  # r^2 = 4 exactly
    @example(4 * 2**200 + 1, 2**200, 1)  # just above 2^2, so r = 2 + 2^-51
    @example(1, 2**2200, 1)  # below the least subnormal
    def test_round_up_is_the_least_double_or_the_next(self, num, den, m):
        # also with num and den scaled by one square, as _radius scales them
        exact = Fraction(num, den)
        least = _least_double_at_or_above_sqrt(exact)
        for r in (numerics._round_up(num, den), numerics._round_up(num * m * m, den * m * m)):
            assert Fraction(r) ** 2 >= exact
            assert r in (least, math.nextafter(least, math.inf))

    @settings(derandomize=True, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    def test_some_root_lies_within_the_radius(self, k, x, y):
        z = complex(x, y)
        # _radius refuses z = 1, where _trinomial's slope is 0, and
        # p_2'(1/2) = 0 is the one dyadic zero of p' for k <= 12
        assume(abs(z) <= 3 and z != 1 and (k, z) != (2, 0.5))
        r = Fraction(numerics._radius(k, z)) ** 2
        x, y = Fraction(x), Fraction(y)
        assert any((u - x) ** 2 + (v - y) ** 2 <= r for u, v in _mpmath_roots(k))

    def test_a_vanishing_slope_is_refused(self):
        # p_2' = 2x - 1 vanishes at the double 0.5
        with pytest.raises(numerics.RootFindingError, match="p' vanishes at"):
            numerics._radius(2, 0.5)

    def test_the_root_of_the_trinomials_factor_is_refused(self):
        # at z = 1 the common factor (z - 1)^2 zeroes both reads, though
        # p'(1) = k - k(k-1)/2 is 0 only at k = 3
        for k in (2, 3, 64):
            with pytest.raises(numerics.RootFindingError, match="trinomial's factor z - 1"):
                numerics._radius(k, 1.0)

    def test_real_roots_lie_on_the_axis(self):
        # phi_k, and for even k one negative root (Descartes' rule of signs)
        for k in range(2, 13):
            real = [z for z in numerics.all_roots(k).roots if z.imag == 0]
            assert len(real) == (2 if k % 2 == 0 else 1)
            assert all(math.copysign(1, z.imag) == 1 for z in real)  # 0, never -0

    def test_touching_disks_are_not_disjoint(self):
        with pytest.raises(numerics.RootFindingError, match="overlap"):
            numerics._check_disjoint([0j, 1 + 0j], [0.5, 0.5])
        numerics._check_disjoint([0j, 1 + 0j], [0.5, math.nextafter(0.5, 0)])
        # equal centres touch even at radius 0
        for radius in (0.0, 2.0**-60):
            with pytest.raises(numerics.RootFindingError, match="overlap"):
                numerics._check_disjoint([0.5 + 0.5j, 0.5 + 0.5j], [radius, radius])

    def test_estimates_off_the_roots_are_refused(self, monkeypatch):
        # a circle rotated off the axes is not closed under conjugation
        rotated = [1.5 * cmath.exp(1j * math.pi * (2 * j + 0.5) / 5) for j in range(5)]
        monkeypatch.setattr(numerics, "_estimates", lambda k: rotated)
        with pytest.raises(numerics.RootFindingError, match="not conjugate pairs"):
            numerics.all_roots(5)
        # the upper half of a circle that is: the disks certify nothing
        circle = [1.5 * cmath.exp(2j * math.pi * j / 5) for j in range(3)]
        monkeypatch.setattr(numerics, "_estimates", lambda k: circle)
        with pytest.raises(numerics.RootFindingError, match="overlap"):
            numerics.all_roots(5)

    def test_every_k_certifies_to_a_few_ulps(self):
        for k in range(2, numerics.MAX_ROOTS_K + 1):
            assert max(numerics.all_roots(k).error_radii) < 1e-13

    def test_dominant_root_is_the_double_nearest_phi(self):
        # float of a Fraction rounds correctly; at k = 53, phi_k lies 6.5e-31
        # below the midpoint 2 - 2^-53, so its double is 1.9999999999999998
        for k in range(2, numerics.MAX_ROOTS_K + 1):
            enclosure = numerics.phi(k, 40)
            nearest = float(enclosure.lo)
            assert float(enclosure.hi) == nearest
            assert max(numerics.all_roots(k).roots, key=abs) == complex(nearest, 0)

    def test_real_estimates_are_exactly_real(self):
        # phi_k's and, for even k, the last estimate lie on the axis; every
        # other one lies far off it, so no imaginary part is rounding noise
        for k in range(2, numerics.MAX_ROOTS_K + 1):
            phi, *inner = numerics._estimates(k)
            if k % 2 == 0:
                assert inner.pop().imag == 0.0  # from w_(k/2) = -1
            assert phi.imag == 0.0
            assert all(abs(z.imag) >= 0.048 for z in inner)

    def test_the_estimate_loop_stops_before_its_cap(self, monkeypatch):
        steps = []

        class Start(complex):
            """w_j, by which each step of the loop multiplies once."""

            def __mul__(self, other):
                steps[-1] += 1
                return complex(self) * other

        def rect(r, angle):
            steps.append(0)
            return Start(cmath.rect(r, angle))

        monkeypatch.setattr(numerics, "cmath", SimpleNamespace(rect=rect))
        for k in range(2, numerics.MAX_ROOTS_K + 1):
            steps.clear()
            numerics._estimates(k)
            assert len(steps) == k // 2 and max(steps) < 64

    @settings(derandomize=True)
    @given(
        st.integers(min_value=2, max_value=numerics.MAX_ROOTS_K),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.integers(min_value=0, max_value=60),
    )
    def test_trinomial_gives_the_horner_value_and_slope(self, k, x, y, s):
        # both times C^2, C = 2^s (z - 1), so z = 1 gives 0 and 0
        c = x - (1 << s), y
        c2 = _times(c, c)
        poly = _phi_poly(k)
        expected = [_times(c2, _gaussian(q, x, y, s)) for q in (poly, poly.derivative())]
        assert list(numerics._trinomial(k, x, y, s)) == expected

    def test_every_double_is_pinned(self):
        # sha256 of every root and radius, as float.hex, for k = 2..64, as
        # computed at commit 0f3ac15, where _trinomial divided by z - 1
        lines = []
        for k in range(2, numerics.MAX_ROOTS_K + 1):
            roots = numerics.all_roots(k)
            for z, r in zip(roots.roots, roots.error_radii):
                lines.append(f"{k} {z.real.hex()} {z.imag.hex()} {r.hex()}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "dfae688e24fddba03fd0176aba26b919ccdc229ba8d3838d7b3a8fc79a362927"

    def test_dominant_root_matches_bisection(self):
        for k in range(2, 11):
            dominant = max(abs(z) for z in numerics.all_roots(k).roots)
            assert abs(dominant - float(numerics.phi(k, 15).mid)) < 1e-9

    def test_annulus_bound(self):
        for k in range(2, 11):
            roots = numerics.all_roots(k)
            moduli = sorted(abs(z) for z in roots.roots)
            inner = 3.0 ** (-1.0 / k)
            for mod in moduli[:-1]:
                assert inner - 1e-9 < mod < 1 + 1e-9

    def test_deterministic(self):
        a = numerics.all_roots(7)
        b = numerics.all_roots(7)
        assert a.roots == b.roots

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            numerics.all_roots(65)
        with pytest.raises(ValueError):
            numerics.all_roots(1)


def _horner(poly: IntPoly, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts of poly(x + iy), in rationals."""
    re = im = Fraction(0)
    for c in reversed(poly.coeffs):
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


@lru_cache(maxsize=None)
def _mpmath_roots(k: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The roots from mpmath.polyroots at 50 digits, as exact rationals."""
    with mpmath.workdps(50):
        roots = map(mpmath.mpc, mpmath.polyroots([1] + [-1] * k, maxsteps=100, extraprec=50))
        return tuple((_exact(z.real), _exact(z.imag)) for z in roots)


def _exact(value) -> Fraction:
    sign, mantissa, exponent, _ = value._mpf_
    return (-1) ** sign * int(mantissa) * Fraction(2) ** exponent


class TestRootReferee:
    """The certified roots against mpmath.polyroots, used only as a referee."""

    @pytest.mark.parametrize("k", [*range(2, 33), 48, 64])
    def test_each_mpmath_root_in_exactly_one_disk(self, k):
        roots = numerics.all_roots(k)
        disks = [
            (Fraction(z.real), Fraction(z.imag), Fraction(r))
            for z, r in zip(roots.roots, roots.error_radii)
        ]
        for x, y in _mpmath_roots(k):
            inside = [(x - u) ** 2 + (y - v) ** 2 <= r * r for u, v, r in disks]
            assert inside.count(True) == 1

    @pytest.mark.parametrize("k", [*range(2, 33), 48, 53, 64])
    def test_printed_columns_are_mpmaths_rounded_doubles(self, k):
        # the roots are mpmath's rounded to the nearest doubles (float of a
        # Fraction rounds correctly), so `roots` prints mpmath's columns
        ours = sorted((z.real, z.imag) for z in numerics.all_roots(k).roots)
        theirs = sorted(
            # a root is real when mpmath's imaginary part is below its accuracy
            (float(x), 0.0 if abs(y) < Fraction(1, 10**40) else float(y))
            for x, y in _mpmath_roots(k)
        )
        assert ours == theirs


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a mod b over Q, coefficient lists lowest first, b's last nonzero."""
    a = list(a)
    while len(a) >= len(b):
        q, shift = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd_degree(p: IntPoly, q: IntPoly) -> int:
    """Degree of gcd(p, q) over Q, by Euclid's remainder sequence."""
    a, b = list(map(Fraction, p.coeffs)), list(map(Fraction, q.coeffs))
    while b:
        a, b = b, _remainder(a, b)
    return len(a) - 1


class TestCoprimalitySpotCheck:
    def test_numerators_share_no_root_with_denominator(self):
        # relative primality, exactly: gcd(num, g_k^2) is a constant
        from runwords.poly import pk_fraction, tk_fraction

        for k in range(2, 13):
            for num, den in (pk_fraction(k), tk_fraction(k)):
                assert _gcd_degree(num, den) == 0


class TestEnclosureSoundness:
    def test_refinement_is_nested(self):
        for k in (2, 7, 19):
            coarse = numerics.phi(k, 8)
            fine = numerics.phi(k, 16)
            assert fine in coarse

    def test_alpha_converges_to_limit(self):
        for k in (2, 3):
            limit = numerics.limit_value(k, 25)
            gaps = [_distance(limit, core.alpha(n, k)) for n in (50, 100, 200, 400)]
            for earlier, later in zip(gaps, gaps[1:]):
                assert later.hi < earlier.lo
