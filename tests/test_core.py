from fractions import Fraction

import pytest

from runwords import core, numerics, oracle
from runwords.poly import fibonacci_poly


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

    def test_monotone_in_k_capped_by_powers_of_two(self):
        for n in range(0, 15):
            for k in (2, 3, 4, 5):
                c1 = core.count_words(n, k)
                c2 = core.count_words(n, k + 1)
                assert c1 <= c2 <= 2**n
                assert (c2 == 2**n) == (n < k + 1)
                assert (c1 == 2**n) == (n < k)


class TestOnesDistribution:
    def test_table_values(self):
        assert core.ones_distribution(4, 2).counts == (1, 4, 3)
        assert core.ones_distribution(5, 3).counts == (1, 5, 10, 7, 1)
        assert core.ones_distribution(0, 2).counts == (1,)

    def test_row_zero_and_one(self):
        for k in (2, 3, 4):
            for n in range(1, 12):
                dist = core.ones_distribution(n, k)
                assert dist[0] == 1
                assert dist[1] == n

    def test_out_of_range_is_zero(self):
        dist = core.ones_distribution(4, 2)
        assert dist[3] == 0
        assert dist[100] == 0

    def test_sums(self):
        for k in (2, 3, 4, 5):
            for n in range(0, 16):
                dist = core.ones_distribution(n, k)
                assert len(dist.counts) == core.max_ones(n, k) + 1
                assert dist.total == core.count_words(n, k)
                assert dist.total_ones == core.popularity(n, k)


class TestPopularity:
    @pytest.mark.parametrize(
        "n, k, expected", [(4, 2, 10), (4, 3, 22), (1, 2, 1), (0, 2, 0)]
    )
    def test_values(self, n, k, expected):
        assert core.popularity(n, k) == expected

    def test_agrees_with_distribution_route(self):
        for k in (2, 3, 4, 5):
            for n in range(0, 25):
                assert core.popularity(n, k) == core.ones_distribution(n, k).total_ones


class TestAlpha:
    def test_values(self):
        assert core.alpha(4, 2) == Fraction(5, 16)
        assert core.alpha(1, 2) == Fraction(1, 2)
        # frozen from the brute-force oracle at n=12
        assert core.alpha(12, 2) == Fraction(109, 377)

    def test_undefined_at_zero(self):
        with pytest.raises(ValueError, match="undefined"):
            core.alpha(0, 2)

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
