"""The exhaustive oracle: enumeration, brute-force maxima, periodic maxima."""

import random

import pytest

from germpack import (
    LESS,
    DistanceSet,
    IntPolynomial,
    RationalSet,
    brute_best,
    brute_best_periodic,
    enumerate_avoiding,
    is_avoiding,
    poly_germ_compare,
)

D35 = DistanceSet.of(3, 5)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestEnumerate:
    def test_distance_one(self):
        assert list(enumerate_avoiding(DistanceSet.of(1), 2)) == ["00", "01", "10"]

    def test_empty_distances(self):
        assert list(enumerate_avoiding(DistanceSet(), 2)) == ["00", "01", "10", "11"]

    def test_one_two(self):
        assert list(enumerate_avoiding(DistanceSet.of(1, 2), 3)) == [
            "000", "001", "010", "100",
        ]

    def test_lexicographic_and_complete(self):
        rng = random.Random(51)
        for _ in range(30):
            d = DistanceSet(tuple(rng.sample(range(1, 6), rng.randrange(1, 4))))
            n = rng.randrange(0, 9)
            got = list(enumerate_avoiding(d, n))
            assert got == sorted(got)
            assert len(got) == len(set(got))
            assert all(is_avoiding(s, d) for s in got)
            # complete: count equals a direct filter of all strings
            want = sum(
                1
                for mask in range(1 << n)
                if is_avoiding(format(mask, f"0{n}b") if n else "", d)
            )
            assert len(got) == want

    def test_counts_match_classics(self):
        for n in range(0, 12):
            assert len(list(enumerate_avoiding(DistanceSet(), n))) == 2 ** n
            assert len(list(enumerate_avoiding(DistanceSet.of(1), n))) == fib(n + 2)

    def test_cap_and_override(self):
        with pytest.raises(ValueError):
            list(enumerate_avoiding(DistanceSet.of(1, 2, 3), 33))


class TestBruteBest:
    def test_known_values(self):
        assert brute_best(D35, 8) == "10101010"
        assert brute_best(D35, 6) == "111000"
        assert brute_best(DistanceSet.of(2, 3, 7), 10) == "1100011000"

    def test_zero_length(self):
        # as best_string refuses it, with the same message
        with pytest.raises(ValueError, match="length must be a positive integer, got 0"):
            brute_best(D35, 0)

    def test_prefix_monotone_germ(self):
        rng = random.Random(52)
        for _ in range(20):
            d = DistanceSet(tuple(rng.sample(range(1, 6), rng.randrange(1, 4))))
            for n in range(1, 10):
                longer = IntPolynomial.from_bits(brute_best(d, n + 1))
                padded = IntPolynomial.from_bits(brute_best(d, n) + "0")
                assert poly_germ_compare(longer, padded) != LESS


class TestBruteBestPeriodic:
    def test_distance_one_gives_evens(self):
        assert brute_best_periodic(DistanceSet.of(1), 4) == RationalSet("", "10")

    def test_three_five_gives_evens(self):
        assert brute_best_periodic(D35, 8) == RationalSet("", "10")

    def test_full_blocks_give_multiples(self):
        for k in (2, 3, 4):
            d = DistanceSet.of(*range(1, k))
            want = RationalSet.arithmetic(0, k)
            assert brute_best_periodic(d, 2 * k) == want

    def test_always_avoiding(self):
        rng = random.Random(53)
        for _ in range(10):
            d = DistanceSet(tuple(rng.sample(range(1, 7), rng.randrange(1, 4))))
            best = brute_best_periodic(d, 6)
            assert is_avoiding(best, d)

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            brute_best_periodic(D35, 0)
        with pytest.raises(ValueError):
            brute_best_periodic(D35, 25)
