import pytest

from runwords import core, oracle

B4_NO_11 = ["0000", "0001", "0010", "0100", "0101", "1000", "1001", "1010"]
B4_NO_111 = [
    "0000", "0001", "0010", "0011", "0100", "0101", "0110",
    "1000", "1001", "1010", "1011", "1100", "1101",
]


def test_enumerate_known_values():
    r = oracle.enumerate_words(4, 2)
    assert r.word_count == 8
    assert r.total_ones == 10
    r = oracle.enumerate_words(4, 3)
    assert r.word_count == 13
    assert r.total_ones == 22


def test_enumerate_empty_word():
    r = oracle.enumerate_words(0, 2)
    assert r.word_count == 1
    assert r.total_ones == 0
    assert r.distribution == (1,)


def test_enumerate_internal_consistency():
    for k in (2, 3):
        for n in range(0, 12):
            r = oracle.enumerate_words(n, k)
            assert r.word_count == sum(r.distribution)
            assert r.total_ones == sum(m * c for m, c in enumerate(r.distribution))


def test_list_words_known_sets():
    assert oracle.list_words(4, 2) == B4_NO_11
    assert oracle.list_words(4, 3) == B4_NO_111
    assert oracle.list_words(1, 2) == ["0", "1"]
    assert oracle.list_words(3, 3) == ["000", "001", "010", "011", "100", "101", "110"]


def test_list_words_sorted_and_counted():
    for k in (2, 3, 4):
        for n in range(0, 10):
            words = oracle.list_words(n, k)
            assert words == sorted(words)
            assert len(words) == oracle.enumerate_words(n, k).word_count
            assert all("1" * k not in w for w in words)


def _all_words(n):
    """Every length-n word as a 0/1 string, one integer at a time."""
    return [format(w, f"0{n}b") if n else "" for w in range(1 << n)]


@pytest.mark.parametrize("n", range(15))
def test_enumerate_matches_naive_string_scan(n):
    words = _all_words(n)
    for k in range(2, n + 3):
        avoiders = [w for w in words if "1" * k not in w]
        distribution = [0] * (n + 1)
        for w in avoiders:
            distribution[w.count("1")] += 1
        r = oracle.enumerate_words(n, k)
        assert r.word_count == len(avoiders)
        assert r.total_ones == sum(w.count("1") for w in avoiders)
        assert list(r.distribution) + [0] * (n + 1 - len(r.distribution)) == distribution
        if n <= 12:
            assert oracle.list_words(n, k) == avoiders


def test_enumerate_reaches_its_budget():
    n = oracle.ENUMERATE_MAX_N
    r = oracle.enumerate_words(n, 2)
    assert r.word_count == core.count_words(n, 2)
    assert r.total_ones == core.popularity(n, 2)
    assert r.distribution == core.ones_distribution(n, 2).counts


def test_budgets_enforced():
    with pytest.raises(ValueError, match="budget"):
        oracle.enumerate_words(25, 2)
    with pytest.raises(ValueError, match="budget"):
        oracle.list_words(17, 2)


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        oracle.enumerate_words(4, 1)
    with pytest.raises(ValueError):
        oracle.list_words(-1, 2)


@pytest.mark.parametrize("n", range(15))
def test_runs_longer_than_the_word_keep_n_planes(n):
    # k = 10^12 would need 10^12 planes if every run length had its own
    far = oracle.enumerate_words(n, 10**12)
    near = oracle.enumerate_words(n, max(n + 1, 2))
    assert (far.word_count, far.total_ones, far.distribution) == (
        near.word_count, near.total_ones, near.distribution
    )
    assert far.word_count == 2**n
    assert oracle.list_words(n, 10**12) == _all_words(n)
