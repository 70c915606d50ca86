import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runwords import core
from runwords.poly import IntPoly, fibonacci_poly, max_ones, pk_fraction, tk_fraction
from runwords.series import (
    coefficient,
    expand,
    expand_bivariate,
    expand_bivariate_closed_form,
)
from runwords.verify import TABLE1_K2, TABLE1_K3


class TestExpand:
    def test_geometric(self):
        s = expand(IntPoly([0, 1]), IntPoly([1, -1]), 3)
        assert s.coeffs == (0, 1, 1, 1)

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            expand(IntPoly([1]), IntPoly([2, 1]), 5)
        with pytest.raises(ValueError, match="constant term"):
            expand(IntPoly([1]), IntPoly([0, 1]), 5)

    def test_convolution_identity(self):
        num, den = tk_fraction(3)
        s = expand(num, den, 60)
        for n in range(61):
            conv = sum(den[j] * s[n - j] for j in range(min(n, den.degree) + 1))
            assert conv == num[n]

    def test_ones_series_values(self):
        assert expand(*pk_fraction(2), 4)[4] == 10
        assert expand(*pk_fraction(3), 4)[4] == 22

    def test_bits_series_values(self):
        assert expand(*tk_fraction(2), 4)[4] == 4 * 8
        assert expand(*tk_fraction(3), 4)[4] == 4 * 13

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_against_recurrences(self, k):
        pk = expand(*pk_fraction(k), 100)
        tk = expand(*tk_fraction(k), 100)
        for n in range(101):
            assert pk[n] == core.popularity(n, k)
            assert tk[n] == n * core.count_words(n, k)


small_ints = st.integers(min_value=-50, max_value=50)
sparse_ints = st.one_of(st.just(0), small_ints)


class TestExpandByConvolution:
    """expand's prefix times the denominator gives back the numerator.

    An independent check of ``expand``: sum_j q_j s_(n-j) = p_n for every
    n up to the prefix length, with no second series routine involved.
    """

    @given(
        numerator=st.lists(small_ints, max_size=16),
        constant=st.sampled_from((1, -1)),
        tail=st.lists(sparse_ints, max_size=12),
        n_terms=st.integers(min_value=0, max_value=60),
    )
    @example(numerator=[3, 0, -2], constant=-1, tail=[0, 0, 5, 0, -1], n_terms=30)
    @example(numerator=[0] * 9 + [1], constant=1, tail=[0, 0, 0, 1], n_terms=20)
    def test_prefix_times_denominator_is_the_numerator(self, numerator, constant, tail, n_terms):
        p, q = IntPoly(numerator), IntPoly([constant] + tail)
        s = expand(p, q, n_terms)
        assert len(s.coeffs) == n_terms + 1
        for n in range(n_terms + 1):
            assert sum(q[j] * s[n - j] for j in range(min(n, q.degree) + 1)) == p[n]


# Degrees 3 (g_3), 4 and 5 (with zero interior terms) and 6 (g_3^2).
ODD_AND_EVEN_DENOMINATORS = [
    fibonacci_poly(3), IntPoly([1, 0, -3, 0, 2]), IntPoly([-1, 0, 0, 4, 0, 1]),
    fibonacci_poly(3) * fibonacci_poly(3),
]


class TestCoefficient:
    @pytest.mark.parametrize("q", ODD_AND_EVEN_DENOMINATORS)
    def test_at_and_just_past_the_denominator_degree(self, q):
        p = IntPoly([2, -1, 0, 3])
        s = expand(p, q, q.degree + 2)
        for n in (q.degree, q.degree + 1, q.degree + 2):
            assert coefficient(p, q, n) == s[n], (q, n)

    @pytest.mark.parametrize("q", ODD_AND_EVEN_DENOMINATORS)
    def test_numerator_longer_than_the_denominator(self, q):
        p = IntPoly([1, -2, 3, 0, 5, -1, 0, 0, 7, 2, -4, 1])
        s = expand(p, q, 40)
        for n in range(41):
            assert coefficient(p, q, n) == s[n], (q, n)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_kstep_fibonacci_numerator_with_leading_zeros(self, k):
        fib = [0] * (k - 1) + [1]
        while len(fib) < 4 * k + 40:
            fib.append(sum(fib[-k:]))
        p = IntPoly([0] * (k - 1) + [-1])
        for n, expected in enumerate(fib):
            assert coefficient(p, fibonacci_poly(k), n) == expected, (k, n)

    @given(
        numerator=st.lists(small_ints, max_size=16),
        constant=st.sampled_from((1, -1)),
        tail=st.lists(small_ints, max_size=12),
        n=st.integers(min_value=0, max_value=200),
    )
    def test_matches_expand(self, numerator, constant, tail, n):
        p, q = IntPoly(numerator), IntPoly([constant] + tail)
        assert coefficient(p, q, n) == expand(p, q, n)[n]

    def test_requires_unit_constant_term(self):
        for denominator in (IntPoly([2, 1]), IntPoly([0, 1])):
            with pytest.raises(ValueError) as refused:
                coefficient(IntPoly([1]), denominator, 50)
            with pytest.raises(ValueError) as expand_refused:
                expand(IntPoly([1]), denominator, 50)
            assert str(refused.value) == str(expand_refused.value)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_refuses_a_negative_n(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 0, got {n}$"):
            coefficient(IntPoly([1]), IntPoly([1, -1]), n)


def _halvings_needed(q, n):
    """How many halvings ``coefficient`` takes at n: it halves while n > deg Q."""
    levels = 0
    while n > q.degree:
        n //= 2
        levels += 1
    return levels


def _chain_by_products(q, levels):
    """V_1, V_2, ...: the even coefficients of V(x) V(-x), from IntPoly's product."""
    chain = []
    for _ in range(levels):
        q = IntPoly((q * IntPoly((-c if i % 2 else c) for i, c in enumerate(q.coeffs))).coeffs[::2])
        chain.append(q)
    return tuple(chain)


def _stored(q):
    """The halvings kept so far, V_1 on Q, V_2 on V_1, ...: the links ``_halved`` stores."""
    chain = []
    while "_halved" in q.__dict__:
        q = q.__dict__["_halved"]
        chain.append(q)
    return tuple(chain)


class TestStoredHalvings:
    """The denominators V_j are built once per denominator and kept on it."""

    @settings(derandomize=True, deadline=None)
    @given(
        numerator=st.lists(small_ints, max_size=16),
        constant=st.sampled_from((1, -1)),
        tail=st.lists(sparse_ints, max_size=8),
        offsets=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=4),
        rng=st.randoms(use_true_random=False),
    )
    @example(numerator=[1], constant=1, tail=[], offsets=[0], rng=random.Random(1))
    @example(numerator=[0, 3, -1], constant=-1, tail=[0, 0, 2], offsets=[7], rng=random.Random(2))
    def test_every_order_of_queries_matches_expand(self, numerator, constant, tail, offsets, rng):
        # one fresh denominator for all the queries, asked in shuffled order:
        # below deg Q, on each side of every level-count boundary (d+1) 2^j,
        # and far past the levels that the earlier queries built
        p, q = IntPoly(numerator), IntPoly([constant] + tail)
        width = q.degree + 1
        ns = list(range(width)) + [width * 2**j + e for j in range(7) for e in (-1, 0)]
        ns += [width * 2**9 + o for o in offsets]
        rng.shuffle(ns)
        s = expand(p, q, max(ns))
        for n in ns:
            assert coefficient(p, q, n) == s[n], (q, n)

    @pytest.mark.parametrize("q", ODD_AND_EVEN_DENOMINATORS + [IntPoly([-1])])
    def test_the_stored_levels_are_the_ones_the_largest_n_needed(self, q):
        q = IntPoly(q.coeffs)  # fresh: the cached g_3 may hold levels already
        reference = _chain_by_products(q, 12)
        p, largest = IntPoly([1, 2]), 0
        for n in (0, q.degree, 40, 7, q.degree + 1, 300, 41, 299, 2000, 5):
            coefficient(p, q, n)
            largest = max(largest, n)
            assert _stored(q) == reference[: _halvings_needed(q, largest)], (q, n)

    def test_a_denominator_dies_with_its_last_reference(self):
        # the levels hold no reference back to their denominator, so plain
        # reference counting frees it, with the cycle collector switched off
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            q = IntPoly([1, -1, -1, -1])
            coefficient(IntPoly([1]), q, 5000)
            assert _stored(q)
            dead = weakref.ref(q)
            del q
            assert dead() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_four_threads_on_one_fresh_denominator(self):
        # Racing threads may each build the levels they need and store them,
        # one thread's V_1 replacing another's; every stored link must still
        # be the halving of the polynomial it is kept on, and every answer
        # right.  A short switch interval makes the threads interleave.
        p, ns = IntPoly([3, -1, 2]), (90, 1500, 400, 6000)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                q = IntPoly([1, -1, 0, -2])
                expected = expand(p, q, max(ns))
                got, start = {}, threading.Barrier(len(ns))

                def query(n, q=q, start=start, got=got):
                    start.wait(timeout=30)
                    got[n] = coefficient(p, q, n)

                threads = [threading.Thread(target=query, args=(n,)) for n in ns]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == {n: expected[n] for n in ns}
                stored = _stored(q)
                assert stored
                for before, v in zip((q,) + stored, stored):
                    assert (v,) == _chain_by_products(before, 1)
                reference = _chain_by_products(q, _halvings_needed(q, max(ns)))
                coefficient(p, q, max(ns))
                assert _stored(q) == reference
        finally:
            sys.setswitchinterval(switch)


class TestBivariate:
    def test_table_cells(self):
        t2 = expand_bivariate(2, 9)
        assert t2[4, 2] == 3
        assert t2[9, 5] == 1
        t3 = expand_bivariate(3, 9)
        assert t3[7, 5] == 3
        assert t3[4, 3] == 2

    def test_constant_column(self):
        t = expand_bivariate(4, 20)
        assert all(t[n, 0] == 1 for n in range(21))

    def test_matches_reference_triangles(self):
        for k, reference in ((2, TABLE1_K2), (3, TABLE1_K3)):
            t = expand_bivariate(k, 9)
            for m, row in enumerate(reference):
                for i, expected in enumerate(row):
                    assert t[i + 1, m] == expected, (k, m, i + 1)

    def test_matches_distribution_dp(self):
        for k in (2, 3, 4):
            t = expand_bivariate(k, 15)
            for n in range(16):
                dist = core.ones_distribution(n, k)
                assert all(t[n, m] == c for m, c in enumerate(dist.counts))

    def test_index_bound(self):
        t = expand_bivariate(3, 12)
        for n in range(13):
            assert len(t.table[n]) <= max_ones(n, 3) + 1


class TestFunctionalEquation:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_closed_form_matches_fixed_point(self, k):
        assert expand_bivariate_closed_form(k, 30) == expand_bivariate(k, 30)

    def test_trivial_constant_term(self):
        assert expand_bivariate_closed_form(2, 0) == expand_bivariate(2, 0)

    def test_closed_form_cells(self):
        t = expand_bivariate_closed_form(2, 9)
        assert t[4, 2] == 3
        assert t[0, 0] == 1


class TestDerivativeIdentities:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bits_series_is_x_ddx_of_counts(self, k):
        # coefficients of F(x, 1) are the word counts; termwise x*d/dx
        # multiplies the n-th one by n, which must give the bits series
        tk = expand(*tk_fraction(k), 60)
        counts = [core.count_words(n, k) for n in range(61)]
        assert all(tk[n] == n * counts[n] for n in range(61))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ones_series_is_dy_at_one(self, k):
        # d/dy at y=1 turns the bivariate table into sum_m m * a_{n,m}
        pk = expand(*pk_fraction(k), 40)
        t = expand_bivariate(k, 40)
        for n in range(41):
            assert pk[n] == sum(m * c for m, c in enumerate(t.table[n]))
