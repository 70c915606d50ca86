import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from runwords import core, numerics
from runwords.interval import Interval, render_decimal
from runwords.poly import IntPoly, fibonacci_poly, reciprocal_fibonacci_poly
from runwords.verify import _distance


class TestPhi:
    def test_golden_ratio(self):
        enc = numerics.phi(2, 20)
        # 2 phi_2 - 1 = sqrt5, by exact squares
        assert (2 * enc.lo - 1) ** 2 <= 5 <= (2 * enc.hi - 1) ** 2
        assert enc.width < Fraction(1, 10**20)

    def test_defining_property(self):
        for k in (2, 3, 5, 8):
            enc = numerics.phi(k, 20)
            poly = reciprocal_fibonacci_poly(k)
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


class TestBisectRoot:
    def test_bisects_where_newton_leaves_the_bracket(self):
        # x^9 - 2 is flat at the midpoint 1/2 of [-1, 2]: the Newton step
        # from there lands far beyond the bracket, so the round must bisect.
        poly = IntPoly([-2] + [0] * 8 + [1])
        lo, hi, tol = Fraction(-1), Fraction(2), Fraction(1, 10**60)
        mid = (lo + hi) / 2
        assert mid - poly(mid) / poly.derivative()(mid) > hi
        enc = numerics.bisect_root(poly, lo, hi, tol)
        assert enc.width < tol
        assert poly(enc.lo) < 0 < poly(enc.hi)
        assert enc.lo**9 < 2 < enc.hi**9

    def test_newton_takes_no_enclosure_below_zero(self, monkeypatch):
        # x^3 - 2 on [-4, 2] starts Newton at the midpoint -1, where the
        # fixed-point enclosure does not hold (it needs x >= 0): the steps
        # stop there, and bisection finds the root.
        points = []
        enclose = IntPoly._enclose
        monkeypatch.setattr(
            IntPoly, "_enclose", lambda p, x, s: points.append(x) or enclose(p, x, s)
        )
        poly, tol = IntPoly([-2, 0, 0, 1]), Fraction(1, 10**30)
        enc = numerics.bisect_root(poly, -4, 2, tol)
        assert points and min(points) >= 0
        assert enc.width < tol and enc.lo**3 < 2 < enc.hi**3

    def test_refuses_a_bracket_without_sign_change(self):
        with pytest.raises(ValueError):
            numerics.bisect_root(fibonacci_poly(3), Fraction(1), Fraction(2), Fraction(1, 10))

    def test_refuses_a_bracket_end_that_is_not_dyadic(self):
        with pytest.raises(ValueError, match="dyadic"):
            numerics.bisect_root(IntPoly([-3, 2]), Fraction(1, 3), Fraction(2), Fraction(1, 10))

    def test_int_fraction_and_float_ends_give_one_enclosure(self):
        poly, tol = reciprocal_fibonacci_poly(5), Fraction(1, 10**40)
        ends = [(1, 2), (Fraction(1), Fraction(2)), (1.0, 2.0)]
        encs = [numerics.bisect_root(poly, lo, hi, tol) for lo, hi in ends]
        assert encs[0] == encs[1] == encs[2]
        assert numerics.bisect_root(poly, 1.75, 2.0, tol) == numerics.bisect_root(
            poly, Fraction(7, 4), 2, tol
        )

    def test_phi_checks_its_bracket_in_integers(self, monkeypatch):
        points = []
        evaluate = IntPoly.__call__
        monkeypatch.setattr(IntPoly, "__call__", lambda p, x: points.append(x) or evaluate(p, x))
        numerics.phi(40, 30)
        assert points == [1, 2] and all(type(x) is int for x in points)

    @pytest.mark.parametrize("tol", [Fraction(0), 0, Fraction(-1, 10), -1.0])
    def test_refuses_a_tolerance_that_is_not_positive(self, tol):
        # With tol <= 0 the loop test never fails: it would bisect forever.
        with pytest.raises(ValueError, match="tol"):
            numerics.bisect_root(reciprocal_fibonacci_poly(3), 1, 2, tol)

    @pytest.mark.parametrize("digits", [1, 5, 6, 7, 15, 50, 300])
    def test_phi_takes_the_seeded_bracket(self, monkeypatch, digits):
        signs = []
        sign = numerics._sign
        monkeypatch.setattr(
            numerics, "_sign",
            lambda p, m, e, s: signs.append((Fraction(m, 1 << e), sign(p, m, e, s)))
            or sign(p, m, e, s),
        )
        for k in [*range(2, 65), 200, 1000]:
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
            poly = reciprocal_fibonacci_poly(k)
            assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi), k

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
        "poly, lo, guess",
        [
            (reciprocal_fibonacci_poly(5), 1, 2.5),  # outside [lo, hi], above
            (reciprocal_fibonacci_poly(5), 1, 0.5),  # outside [lo, hi], below
            (reciprocal_fibonacci_poly(5), 1, numerics._phi_float(5) + 2.0**-10),
            (reciprocal_fibonacci_poly(5), 1, numerics._phi_float(5) - 2.0**-10),
            (reciprocal_fibonacci_poly(5), 1, 1.0),  # at a bracket end, and wrong
            (reciprocal_fibonacci_poly(5), 1, 2.0),
            (reciprocal_fibonacci_poly(40), 1, 1.0),
            # -(3x - 2)(x - 3) is below 0 near 3.5 and above 0 at 2: the
            # candidate's ends have the right signs but the wrong order
            (IntPoly([-6, 11, -3]), 0, 3.5),
        ],
    )
    def test_a_wrong_guess_leaves_the_unseeded_enclosure(self, poly, lo, guess):
        tol = Fraction(1, 10**60)
        enc = numerics.bisect_root(poly, lo, 2, tol, guess)
        assert enc == numerics.bisect_root(poly, lo, 2, tol)
        assert enc.width < tol
        assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi)

    @pytest.mark.parametrize("k", [53, 300])
    def test_a_guess_at_a_bracket_end_can_be_right(self, k):
        # phi_k is within 2^(1-k) of 2, so [2 - 2^-44, 2] holds it.
        assert numerics._phi_float(k) == 2.0
        poly, tol = reciprocal_fibonacci_poly(k), Fraction(1, 10**300)
        enc = numerics.bisect_root(poly, 1, 2, tol, 2.0)
        assert 2 - Fraction(1, 1 << numerics.SEED_BITS) <= enc.lo
        assert enc.width < tol
        assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi)

    def test_float_estimate_ends_finite(self):
        for k in [*range(2, 300), 10**3, 10**4, 10**5, 2**20 - 1, 10**6]:
            x = numerics._phi_float(k)
            assert math.isfinite(x) and 1.5 <= x <= 2, k

    def test_exact_root_at_a_midpoint_is_returned_as_a_point(self):
        # 2x - 3 vanishes at the first midpoint: the fixed-point enclosure
        # there is [0, 0], and exact evaluation finds the zero.
        enc = numerics.bisect_root(IntPoly([-3, 2]), 1, 2, Fraction(1, 10**20))
        assert enc == Interval(Fraction(3, 2), Fraction(3, 2))

    def test_a_guess_on_an_exact_root_is_returned_as_a_point(self):
        enc = numerics.bisect_root(IntPoly([-3, 2]), 1, 2, Fraction(1, 10**20), 1.5)
        assert enc == Interval(Fraction(3, 2), Fraction(3, 2))

    def test_the_certificate_reaches_two_grid_points_above_the_iterate(self, monkeypatch):
        # (2 - x)(2^56 x - R) rises and is concave on [1, 3/2]; its root
        # r = 5/4 + 2^-56 lies just above 5/4 on the grid 2^-46 that
        # tol = 10^-12 certifies on.  Newton from below a concave rise stays
        # below r, here by about 2^-51 from a guess 2^-13 low, so the last
        # iterate x has m = floor(x 2^46) one below 5/4 2^46: (m + 1) 2^-46
        # is 5/4, below r, and only the certificate's reach to m + 2 holds r.
        R = 5 * 2**54 + 1
        poly = IntPoly([-2 * R, 2**57 + R, -(2**56)])
        signs = []
        sign = numerics._sign
        monkeypatch.setattr(
            numerics, "_sign", lambda p, m, e, s: signs.append(m) or sign(p, m, e, s)
        )
        tol = Fraction(1, 10**12)
        enc = numerics.bisect_root(poly, 1, Fraction(3, 2), tol, 1.25 - 2**-13)
        assert len(signs) == 2  # the certificate held: nothing was bisected
        assert Fraction(R, 2**56) in enc and enc.width < tol
        assert _exact_sign(poly, enc.lo) < 0 < _exact_sign(poly, enc.hi)

    def test_exact_evaluation_decides_where_the_enclosure_cannot(self, monkeypatch):
        # (3x - 4)(x - 1)^40 near 4/3 is about 3^-40 times the distance to
        # the root, far below the rounding error of fixed-point Horner on
        # its binomial coefficients, so the certificates fall back to the
        # exact integer evaluation.
        poly = IntPoly([-4, 3])
        for _ in range(40):
            poly = poly * IntPoly([-1, 1])
        exact_calls = []
        evaluate = numerics._gaussian
        monkeypatch.setattr(
            numerics, "_gaussian", lambda *args: exact_calls.append(args) or evaluate(*args)
        )
        tol = Fraction(1, 10**30)
        enc = numerics.bisect_root(poly, Fraction(5, 4), Fraction(2), tol)
        assert exact_calls
        monkeypatch.undo()
        assert enc.width < tol
        assert poly(enc.lo) < 0 < poly(enc.hi)
        assert Fraction(4, 3) in enc

    @given(
        st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=61),
        st.integers(min_value=-(2**60), max_value=2**61),
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
        product, power = numerics._mul(x, y, s), numerics._power((x[1], x[1]), 5, s)
        assert all(contains(product, a * b) for a in points[0] for b in points[1])
        if x[1] >= 0:
            assert contains(power, points[0][1] ** 5)
        if y[0] > 0:
            quotient = numerics._div(x, y, s)
            assert all(contains(quotient, a / b) for a in points[0] for b in points[1])


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


class TestAsymptoticCoefficient:
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

    def test_radii_are_smith_radii_rounded_up(self):
        # Smith's radius k |p(z_j) / prod_{i != j} (z_j - z_i)|, squared, in
        # Gaussian rationals written out here: each radius is at least it,
        # and above it by no more than the last bits of a double.
        for k in (3, 8, 17):
            roots = numerics.all_roots(k)
            points = [(Fraction(z.real), Fraction(z.imag)) for z in roots.roots]
            for j, (x, y) in enumerate(points):
                value = (Fraction(0), Fraction(0))
                for c in reversed(reciprocal_fibonacci_poly(k).coeffs):
                    value = (value[0] * x - value[1] * y + c, value[0] * y + value[1] * x)
                product = (Fraction(1), Fraction(0))
                for u, v in points[:j] + points[j + 1:]:
                    a, b = x - u, y - v
                    product = (product[0] * a - product[1] * b, product[0] * b + product[1] * a)
                exact = k * k * (value[0] ** 2 + value[1] ** 2) / (product[0] ** 2 + product[1] ** 2)
                radius = Fraction(roots.error_radii[j]) ** 2
                assert exact <= radius <= exact * (1 + Fraction(1, 2**50))

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

    @given(
        st.integers(min_value=2, max_value=numerics.MAX_ROOTS_K),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.integers(min_value=0, max_value=60),
    )
    def test_trinomial_gives_the_horner_value_and_slope(self, k, x, y, s):
        assume((x, y) != (1 << s, 0))  # z = 1
        poly = reciprocal_fibonacci_poly(k)
        expected = numerics._gaussian(poly, x, y, s), numerics._gaussian(poly.derivative(), x, y, s)
        assert numerics._trinomial(k, x, y, s) == expected

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


class TestCoprimalitySpotCheck:
    def test_numerators_share_no_root_with_denominator(self):
        # operationalizes relative primality: the root sets stay apart
        from runwords.poly import pk_fraction, tk_fraction

        for k in range(2, 13):
            g_roots = [1 / z for z in numerics.all_roots(k).roots]  # roots of g_k
            for num in (pk_fraction(k)[0], tk_fraction(k)[0]):
                for root in g_roots:
                    assert abs(num(root)) > 1e-6


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
