from fractions import Fraction

import mpmath
import pytest

from runwords import core, numerics
from runwords.interval import Interval
from runwords.poly import fibonacci_poly, reciprocal_fibonacci_poly
from runwords.verify import sqrt5_enclosure

GOLDEN = (1 + sqrt5_enclosure()) / 2  # width ~1e-40


class TestPhi:
    def test_golden_ratio(self):
        enc = numerics.phi(2, 20)
        assert 0 in enc - GOLDEN  # the two enclosures overlap
        assert enc.width < Fraction(1, 10**20)

    def test_defining_property(self):
        for k in (2, 3, 5, 8):
            enc = numerics.phi(k, 20)
            assert 0 in reciprocal_fibonacci_poly(k)(enc)

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


class TestInversePhi:
    def test_golden_case(self):
        enc = numerics.inverse_phi(2, 20)
        assert 0 in enc - GOLDEN.reciprocal()

    def test_root_of_constraint_poly(self):
        for k in range(2, 14):
            enc = numerics.inverse_phi(k, 20)
            assert 0 in fibonacci_poly(k)(enc)
            assert 0 < enc.lo and enc.hi < 1

    def test_k3_independent_bisection(self):
        from runwords.numerics import bisect_root

        direct = bisect_root(
            fibonacci_poly(3), Fraction(0), Fraction(1), Fraction(1, 10**20)
        )
        assert 0 in direct - numerics.inverse_phi(3, 20)
        # 0.5436890...
        assert Fraction(54368, 10**5) < direct.lo
        assert direct.hi < Fraction(54369, 10**5)


class TestLimitValue:
    def test_k2_closed_form(self):
        closed = (5 - sqrt5_enclosure()) / 10
        enc = numerics.limit_value(2, 32)
        assert abs(enc - closed).hi < Fraction(1, 10**30)

    def test_matches_closed_form_in_mpmath(self):
        # Independent of the production path: phi_k from mpmath.findroot at
        # twice the digits, and the limit in closed form at x = 1/phi_k.
        digits = 30
        with mpmath.workdps(2 * digits):
            for k in range(2, 41):
                root = mpmath.findroot(
                    lambda z: z**k - sum(z**i for i in range(k)), (1, 2), solver="anderson"
                )
                x = 1 / root
                closed = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
                    k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
                )
                assert Fraction(mpmath.nstr(closed, 2 * digits)) in numerics.limit_value(k, digits)

    def test_width_contract(self):
        for k in (2, 5, 13):
            assert numerics.limit_value(k, 20).width < Fraction(1, 10**20)

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

    def test_ratio_approaches_one(self):
        est = numerics.asymptotic_coefficient(2, "P", 1000, 20)
        exact = core.popularity(1000, 2)
        ratio = est / exact
        assert abs(ratio - 1).hi < Fraction(1, 100)

    def test_bits_target(self):
        est = numerics.asymptotic_coefficient(3, "T", 1000, 20)
        exact = 1000 * core.count_words(1000, 3)
        assert abs(est / exact - 1).hi < Fraction(1, 100)


class TestAllRoots:
    def test_k2_explicit(self):
        roots = numerics.all_roots(2)
        assert len(roots.roots) == 2
        moduli = sorted(abs(z) for z in roots.roots)
        golden = 1.6180339887498949
        assert abs(moduli[1] - golden) < 1e-12
        assert abs(moduli[0] - 1 / golden) < 1e-12

    def test_residuals_certified(self):
        for k in (2, 5, 10, 20, 32):
            roots = numerics.all_roots(k)
            assert len(roots.roots) == k
            assert max(roots.residuals) < 1e-12

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
            numerics.all_roots(33)
        with pytest.raises(ValueError):
            numerics.all_roots(1)


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
            gaps = [
                abs(Interval.point(core.alpha(n, k)) - limit)
                for n in (50, 100, 200, 400)
            ]
            for earlier, later in zip(gaps, gaps[1:]):
                assert later.hi < earlier.lo
