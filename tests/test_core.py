from fractions import Fraction
from itertools import count, islice
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runwords import core, numerics, oracle, series
from runwords.poly import fibonacci_poly, max_ones, pk_fraction, tk_fraction


class TestKStepFibonacci:
    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (0, 2, 0),
            (1, 2, 1),
            (6, 2, 8),
            (1, 3, 0),
            (2, 3, 1),
            (7, 3, 13),
        ],
    )
    def test_values(self, n, k, expected):
        assert core.kstep_fibonacci(n, k) == expected

    def test_k2_is_fibonacci(self):
        # 0, 1, 1, 2, 3, 5, 8, 13, ...
        seq = [core.kstep_fibonacci(n, 2) for n in range(10)]
        assert seq == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_recurrence_holds(self):
        for k in (2, 3, 4, 5):
            for n in range(k, 40):
                assert core.kstep_fibonacci(n, k) == sum(
                    core.kstep_fibonacci(n - i, k) for i in range(1, k + 1)
                )

    @pytest.mark.parametrize("k", range(2, 14))
    def test_matches_the_sum_of_the_previous_k(self, k):
        # covers i = n - k + 1 < 0, i = 0, 1 and g_k cut below degree k
        seq = [0] * (k - 1) + [1]
        while len(seq) <= 4 * k + 4:
            seq.append(sum(seq[-k:]))
        assert [core.kstep_fibonacci(n, k) for n in range(4 * k + 5)] == seq

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            core.kstep_fibonacci(5, 1)
        with pytest.raises(ValueError):
            core.kstep_fibonacci(-1, 2)


class TestCountWords:
    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (4, 2, 8),
            (4, 3, 13),
            (0, 5, 1),
            # frozen from the brute-force oracle
            (20, 4, 547337),
        ],
    )
    def test_values(self, n, k, expected):
        assert core.count_words(n, k) == expected

    def test_large_n_against_fibonacci_loop(self):
        a, b = 0, 1  # F_0, F_1
        for _ in range(20002):
            a, b = b, a + b
        assert core.count_words(20000, 2) == a  # F_20002

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=0, max_value=3000), k=st.integers(min_value=2, max_value=12))
    def test_kstep_fibonacci_identity(self, n, k):
        # two different generating functions: -h_k/g_k and -x^(k-1)/g_k
        assert core.count_words(n, k) == core.kstep_fibonacci(n + k, k)

    def test_monotone_in_k_capped_by_powers_of_two(self):
        for n in range(0, 15):
            for k in (2, 3, 4, 5):
                c1 = core.count_words(n, k)
                c2 = core.count_words(n, k + 1)
                assert c1 <= c2 <= 2**n
                assert (c2 == 2**n) == (n < k + 1)
                assert (c1 == 2**n) == (n < k)


@pytest.mark.parametrize("n", range(7))
def test_run_lengths_beyond_the_word_count_every_word(n):
    # a length-n word has no run of more than n 1s; k = n + 1 is still < 2 at n = 0
    for k in (n + 1, n + 2, n + 3, 10**12):
        if k < 2:
            continue
        assert core.count_words(n, k) == 2**n
        assert core.kstep_fibonacci(n + k, k) == 2**n
        assert core.popularity(n, k) == n * 2**n // 2
        if n:
            assert core.alpha(n, k) == Fraction(1, 2)
        dist = core.ones_distribution(n, k)
        assert dist.counts == tuple(comb(n, m) for m in range(n + 1))
        assert dist.k == k


class TestOnesDistribution:
    def test_table_values(self):
        assert core.ones_distribution(4, 2).counts == (1, 4, 3)
        assert core.ones_distribution(5, 3).counts == (1, 5, 10, 7, 1)
        assert core.ones_distribution(0, 2).counts == (1,)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_words_of_length_zero_and_one(self, k):
        assert core.ones_distribution(0, k).counts == (1,)
        assert core.ones_distribution(1, k).counts == (1, 1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_rows_either_side_of_the_narrow_ratio(self, k, offset):
        # the first step walks narrow when NARROW_RATIO * k < top, full-row otherwise
        top = core.NARROW_RATIO * k + offset
        n = next(n for n in count() if max_ones(n, k) >= top)
        assert core.ones_distribution(n, k).counts == series.expand_bivariate(k, n).table[n]

    def test_row_zero_and_one(self):
        for k in (2, 3, 4):
            for n in range(1, 12):
                dist = core.ones_distribution(n, k)
                assert dist.counts[0] == 1
                assert dist.counts[1] == n

    def test_sums(self):
        for k in (2, 3, 4, 5):
            for n in range(0, 16):
                dist = core.ones_distribution(n, k)
                assert len(dist.counts) == max_ones(n, k) + 1
                assert sum(dist.counts) == core.count_words(n, k)
                assert sum(m * c for m, c in enumerate(dist.counts)) == core.popularity(n, k)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=0, max_value=80), k=st.integers(min_value=2, max_value=12))
    @example(n=12, k=12)
    @example(n=11, k=12)
    @example(n=3, k=12)
    def test_walk_matches_the_fixed_point_table(self, n, k):
        assert core.ones_distribution(n, k).counts == series.expand_bivariate(k, n).table[n]

    @pytest.mark.parametrize(
        "n, k",
        [(2000, 2), (2001, 2), (2002, 2), (2003, 2), (3000, 3), (5000, 2), (2000, 40), (300, 1000)],
    )
    def test_large_rows_sum_to_the_coefficients(self, n, k):
        dist = core.ones_distribution(n, k)
        assert sum(dist.counts) == core.count_words(n, k)
        assert sum(m * c for m, c in enumerate(dist.counts)) == core.popularity(n, k)

    @pytest.mark.parametrize("k", [2, 3, 8, 40, 2001])
    def test_large_rows_match_the_closed_form_table(self, k):
        row = next(islice(series._closed_form_rows(k), 2000, None))
        assert core.ones_distribution(2000, k).counts == row


class TestPopularity:
    @pytest.mark.parametrize(
        "n, k, expected", [(4, 2, 10), (4, 3, 22), (1, 2, 1), (0, 2, 0)]
    )
    def test_values(self, n, k, expected):
        assert core.popularity(n, k) == expected

    def test_agrees_with_distribution_route(self):
        for k in (2, 3, 4, 5):
            for n in range(0, 25):
                counts = core.ones_distribution(n, k).counts
                assert core.popularity(n, k) == sum(m * c for m, c in enumerate(counts))


class TestAlpha:
    def test_values(self):
        assert core.alpha(4, 2) == Fraction(5, 16)
        assert core.alpha(1, 2) == Fraction(1, 2)
        # frozen from the brute-force oracle at n=12
        assert core.alpha(12, 2) == Fraction(109, 377)

    def test_undefined_at_zero(self):
        with pytest.raises(ValueError, match="undefined"):
            core.alpha(0, 2)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_the_quotient_of_the_ones_and_bits_series(self, k):
        pk = series.expand(*pk_fraction(k), 200)
        tk = series.expand(*tk_fraction(k), 200)
        for n in range(1, 201):
            assert core.alpha(n, k) == Fraction(pk[n], tk[n]), n

    def test_total_bits_match_the_bits_series_far_out(self):
        n = 10**4
        bits = series.coefficient(*tk_fraction(3), n)
        assert core.alpha(n, 3) == Fraction(core.popularity(n, 3), bits)

    def test_range(self):
        for k in (2, 3, 4):
            assert core.alpha(1, k) == Fraction(1, 2)
            for n in range(1, 40):
                assert Fraction(0) < core.alpha(n, k) <= Fraction(1, 2)


@pytest.mark.parametrize(
    "func, args",
    [
        (core.kstep_fibonacci, (True, 2)),
        (core.count_words, (True, 2)),
        (core.ones_distribution, (True, 2)),
        (core.alpha, (True, 2)),
        (fibonacci_poly, (True,)),
        (numerics.phi, (2, True)),
        (numerics.limit_value, (2, True)),
        (numerics.asymptotic_coefficient, (2, "P", True)),
    ],
)
def test_bool_is_refused_as_an_integer_argument(func, args):
    # bool is an int subclass, so a plain isinstance check would read True as 1
    with pytest.raises(ValueError):
        func(*args)


def test_matches_oracle_small():
    for k in (2, 3, 4):
        for n in range(0, 13):
            ref = oracle.enumerate_words(n, k)
            assert core.count_words(n, k) == ref.word_count
            assert core.popularity(n, k) == ref.total_ones
            assert core.ones_distribution(n, k).counts == ref.distribution


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=16), k=st.integers(min_value=2, max_value=8))
def test_coefficient_extraction_matches_oracle(n, k):
    ref = oracle.enumerate_words(n, k)
    assert core.count_words(n, k) == ref.word_count
    assert core.kstep_fibonacci(n + k, k) == ref.word_count
    assert core.popularity(n, k) == ref.total_ones
    assert core.ones_distribution(n, k).counts == ref.distribution
    if n:
        assert core.alpha(n, k) == Fraction(ref.total_ones, n * ref.word_count)
