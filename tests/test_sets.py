"""Rational sets: canonical forms, avoidance, greedy, valuation, ordering."""

import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from germpack import (
    EQUAL,
    GREATER,
    LESS,
    DistanceSet,
    IntPolynomial,
    RationalGF,
    RationalSet,
    Valuation,
    generating_function,
    germ_compare,
    germ_gap,
    greedy_avoiding,
    is_avoiding,
    laurent_prefix,
    poly_germ_compare,
    set_compare,
    shift,
    valuation,
)
from germpack import block_encode, brute_best_periodic, enumerate_avoiding, germs, sets
from germpack.local import LineKernel
from helpers import (
    add,
    all_distance_sets,
    canonical_bit_by_bit,
    cross_numerator,
    gap_by_cross_numerator,
    germ_arith_pair,
    numerator_by_convolution,
    pairs_clash,
    random_bits,
    random_rational_set,
    random_set_pair,
    sign_by_evaluation,
    string_greedy,
)

D35 = DistanceSet.of(3, 5)


class TestDistanceSet:
    def test_sorted_and_deduplicated(self):
        assert DistanceSet((5, 3, 3)).distances == (3, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceSet((0, 2))
        with pytest.raises(ValueError):
            DistanceSet((-1,))

    def test_rejects_non_integers_before_sorting(self):
        # entries sorted() cannot order must still get the entry check's ValueError
        for entries in ((1, "a"), (1, None), (1, 2.0), (1, True), (1, [2]), ("a", 2, None)):
            with pytest.raises(ValueError, match="positive integers"):
                DistanceSet(entries)

    def test_empty_is_legal(self):
        empty = DistanceSet()
        assert empty.norm == 0 and not empty

    def test_membership(self):
        # `in` comes from iteration
        assert 3 in D35 and 5 in D35
        assert 4 not in D35 and 0 not in D35 and "3" not in D35
        assert 1 not in DistanceSet()

    def test_text_round_trip(self):
        assert DistanceSet.from_text("5,3").to_text() == "3,5"
        assert DistanceSet.from_text("") == DistanceSet()
        with pytest.raises(ValueError):
            DistanceSet.from_text("3,x")


class TestWindowModel:
    def test_grow_sets_the_shadow_bit_of_each_distance(self):
        # a 1 forbids the position d ahead, which is bit d - 1 of the shadow
        for distances in all_distance_sets(9) + [DistanceSet(), DistanceSet.of(1, 100)]:
            assert distances._windows.grow == sum(1 << (d - 1) for d in distances)

    def test_a_dense_distance_set_is_modelled_in_linear_time(self):
        # 500,000 distances: a sum of their shifted bits is quadratic and
        # took seconds; one string of digits read as one int takes a blink
        distances = DistanceSet(tuple(range(1, 500_001)))
        start = time.perf_counter()
        model = sets._WindowModel(distances)
        assert time.perf_counter() - start < 1
        assert model.grow == (1 << 500_000) - 1 and model.most == 1

    def test_the_cap_message_elides_a_long_distance_list(self):
        # eight distances or fewer are named in full, as before; past that
        # the first two and the largest, and how many there are
        message = "need up to 4 line-DP shadows of {} bits at length 2, over the cap"
        for count, named in ((8, "{1,2,3,4,5,6,7,8}"), (9, "{1,2,...,9} (9 in all)")):
            distances = DistanceSet(tuple(range(1, count + 1)))
            with pytest.raises(ValueError) as refused:
                distances._windows.refuse(2, 2)
            want = f"distances {named} {message.format(count)}"
            assert str(refused.value).startswith(want)
        dense = DistanceSet(tuple(range(1, 500_001)))
        with pytest.raises(ValueError) as refused:
            LineKernel(dense).entry(2)
        assert str(refused.value) == (
            "distances {1,2,...,500000} (500000 in all) need up to 4 line-DP shadows "
            "of 500000 bits at length 2, over the cap of 1048576 shadow bits"
        )

    def test_the_cap_message_names_a_huge_number_by_its_bit_length(self):
        # up to 64 bits a number is written in full, as before; past that by
        # its bit length, so 10**4000 takes 19 characters, not 4,001
        for n, named in ((2**64 - 1, "18446744073709551615"), (2**64, "<65-bit number>")):
            with pytest.raises(ValueError) as refused:
                DistanceSet.of(3, n)._windows
            assert str(refused.value) == (
                f"distances {{3,{named}}} need up to 2 line-DP shadows of {named} bits "
                "at length 1, over the cap of 1048576 shadow bits"
            )
        many = DistanceSet((10**4000, *range(1, 10)))
        with pytest.raises(ValueError) as refused:
            many._windows
        assert str(refused.value).startswith(
            "distances {1,2,...,<13288-bit number>} (10 in all) need up to 2 line-DP "
            "shadows of <13288-bit number> bits at length 1"
        )


class TestNormalize:
    def test_primitive_reduction(self):
        assert RationalSet("", "1010") == RationalSet("", "10")

    def test_preperiod_absorption(self):
        assert RationalSet("1", "01") == RationalSet("", "10")

    def test_finite_set_already_canonical(self):
        s = RationalSet("111", "0")
        assert (s.preperiod, s.repetend) == ("111", "0")

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            s = random_rational_set(rng)
            again = RationalSet(s.preperiod, s.repetend)
            assert again == s

    def test_equivalent_encodings_collapse(self):
        rng = random.Random(4)
        for _ in range(200):
            s = random_rational_set(rng)
            pre, rep = s.preperiod, s.repetend
            absorbed = RationalSet(pre + rep[0], rep[1:] + rep[:1])
            extended = RationalSet(pre + rep, rep)
            powered = RationalSet(pre, rep * 3)
            assert absorbed == s
            assert extended == s
            assert powered == s

    def test_matches_the_bit_by_bit_strip(self):
        # preperiods whose last bits repeat the repetend backwards after a
        # random head, for up to 30 periods, and in one draw in 100 for up to
        # 20,000 bits; repetends of 1 to 12 bits, often not primitive
        rng = random.Random(5)
        stripped = 0
        for draw in range(3000):
            rep = random_bits(rng, rng.randrange(1, 13))
            if rng.random() < 0.3:
                rep *= rng.randrange(2, 4)
            turns = rng.randrange(len(rep))
            periods = 20_000 // len(rep) if draw % 100 == 0 else rng.randrange(30)
            tail = (rep[turns:] + rep[:turns]) * periods
            pre = random_bits(rng, rng.randrange(8)) + tail[: rng.randrange(len(tail) + 1)]
            s = RationalSet(pre, rep)
            assert (s.preperiod, s.repetend) == canonical_bit_by_bit(pre, rep), (pre, rep)
            stripped += len(pre) - len(s.preperiod) > 2 * len(rep)
        assert stripped > 500

    def test_rejects_empty_repetend(self):
        with pytest.raises(ValueError):
            RationalSet("1", "")

    def test_membership_and_bits(self):
        s = RationalSet("1100", "001")
        want = "110000100100100"
        assert s.bits(len(want)) == want
        assert [n for n in range(15) if n in s] == [n for n, b in enumerate(want) if b == "1"]

    def test_constructors(self):
        assert RationalSet.empty().is_empty
        assert RationalSet.naturals() == RationalSet("", "1")
        assert RationalSet.from_finite([2, 0]) == RationalSet("101", "0")
        assert RationalSet.from_finite([]) == RationalSet.empty()
        assert RationalSet.arithmetic(1, 2) == RationalSet("", "01")

    @pytest.mark.parametrize(
        "elements, bad",
        # a negative index used to write from the end, or past it; True was read as 1
        [([-2, 3], "-2"), ([-5, 3], "-5"), ([True, 3], "True"), ([1, True], "True"),
         ([2.0], "2.0"), (["3"], "'3'")],
    )
    def test_from_finite_refuses_non_naturals(self, elements, bad):
        message = f"set element must be a non-negative integer, got {bad}"
        with pytest.raises(ValueError, match=message):
            RationalSet.from_finite(elements)

    @pytest.mark.parametrize(
        "first, step, message",
        # arithmetic(-1, 2) used to give the evens, and 2.0 a TypeError
        [(-1, 2, "first must be a non-negative integer, got -1"),
         (True, 2, "first must be a non-negative integer, got True"),
         (1.0, 2, "first must be a non-negative integer, got 1.0"),
         (0, 2.0, "step must be a positive integer, got 2.0"),
         (0, True, "step must be a positive integer, got True"),
         (0, 0, "step must be a positive integer, got 0")],
    )
    def test_arithmetic_refuses_non_integers(self, first, step, message):
        with pytest.raises(ValueError, match=message):
            RationalSet.arithmetic(first, step)

    @pytest.mark.parametrize("preperiod, repetend", [(["1"], "0"), ("1", ["0"]), (b"1", "0")])
    def test_bits_must_be_a_str(self, preperiod, repetend):
        # a list of "0"/"1" used to construct, then fail hash() and is_avoiding
        with pytest.raises(ValueError, match="must be a string of 0s and 1s"):
            RationalSet(preperiod, repetend)

    @pytest.mark.parametrize("preperiod, repetend", [("012", "0"), ("1", "10\n"), ("", "2"), ("1x1", "0")])
    def test_bits_must_be_zeros_and_ones(self, preperiod, repetend):
        with pytest.raises(ValueError, match="must be a string of 0s and 1s"):
            RationalSet(preperiod, repetend)

    @pytest.mark.parametrize("count, bad", [(-1, "-1"), (True, "True"), (2.0, "2.0"), ("2", "'2'")])
    def test_bits_and_elements_refuse_non_naturals(self, count, bad):
        # bits(-1) used to return "10", a slice from the end, and
        # elements(-1) to yield 0; the check is made at the call
        s = RationalSet("101", "0")
        message = f"count must be a non-negative integer, got {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            s.bits(count)
        with pytest.raises(ValueError, match=re.escape(message)):
            s.elements(count)
        assert s.bits(0) == "" and list(s.elements(0)) == []
        assert s.bits(5) == "10100" and list(s.elements(5)) == [0, 2]


class TestGeneratingFunction:
    def test_evens(self):
        f = generating_function(RationalSet("", "10"))
        assert f.numerator == IntPolynomial((1,)) and f.period == 2

    def test_arithmetic_progression(self):
        for a, d in [(0, 2), (1, 2), (2, 3), (4, 5)]:
            f = generating_function(RationalSet.arithmetic(a, d))
            want = RationalGF(IntPolynomial((0,) * a + (1,)), d)
            assert germ_compare(f, want) == EQUAL

    def test_finite_set_reduces_to_polynomial(self):
        f = generating_function(RationalSet("0111", "0"))
        # the function is exactly the polynomial q + q^2 + q^3, written
        # over 1 - q as (q + q^2 + q^3)(1 - q) = q - q^4
        want = RationalGF(IntPolynomial((0, 1, 0, 0, -1)), 1)
        assert germ_compare(f, want) == EQUAL
        assert f.numerator == want.numerator

    def test_numerator_matches_plain_convolution(self):
        # pre(q)(1 - q^d) + q^len(pre) rep(q) over 1200 seeded sets, each
        # compared with the one before it through its cross numerator
        rng = random.Random(26)
        shapes = Counter()
        previous = None
        for trial in range(1200):
            pre = random_bits(rng, rng.randrange(0, 13))
            if trial % 5 == 0:
                rep = "0" * rng.randrange(1, 4)
            else:
                rep = random_bits(rng, rng.randrange(1, 9))
            s = RationalSet(pre, rep)
            shapes["empty preperiod"] += not s.preperiod
            shapes["all-zero repetend"] += s.repetend == "0"
            shapes["preperiod longer than repetend"] += len(s.preperiod) > len(s.repetend)
            f = generating_function(s)
            assert f.period == len(s.repetend)
            assert f.numerator == IntPolynomial(numerator_by_convolution(s)), s
            if previous is not None:
                g = generating_function(previous)
                assert germ_compare(f, g) == sign_by_evaluation(cross_numerator(f, g)), (s, previous)
            previous = s
        assert len(shapes) == 3 and min(shapes.values()) >= 100, shapes


class TestIsAvoiding:
    def test_alternating_avoids_three_five(self):
        assert is_avoiding("10101010", D35)

    def test_repeated_run_violates(self):
        assert not is_avoiding("111000111000", D35)

    def test_naturals_fail_for_distance_one(self):
        assert not is_avoiding(RationalSet.naturals(), DistanceSet.of(1))

    def test_empty_distances_forbid_nothing(self):
        assert is_avoiding(RationalSet.naturals(), DistanceSet())

    def test_rejects_non_bit_strings(self):
        for bits in ("10x", "1_0", " 10", "012", "10\n"):
            with pytest.raises(ValueError):
                is_avoiding(bits, D35)

    @pytest.mark.parametrize("subject", [["1", "0"], ("1", "0"), 5, None])
    def test_rejects_non_strings(self, subject):
        with pytest.raises(ValueError, match="indicator string must be a string of 0s and 1s"):
            is_avoiding(subject, D35)

    def test_rational_window_matches_pair_checking(self):
        rng = random.Random(5)
        for _ in range(300):
            s = random_rational_set(rng)
            d = DistanceSet(tuple(rng.sample(range(1, 9), rng.randrange(1, 4))))
            span = 4 * (len(s.preperiod) + len(s.repetend) + d.norm)
            assert is_avoiding(s, d) == (not pairs_clash(s.bits(span), d))
            bits = random_bits(rng, rng.randrange(0, 24), rng.choice((0.2, 0.5)))
            assert is_avoiding(bits, d) == (not pairs_clash(bits, d))

    def test_periodic_check_matches_a_long_window(self):
        # every D inside {1..7}; periods below and past the norm, empty
        # preperiods and all-zero repetends among the seeded draws
        rng = random.Random(23)
        for d in all_distance_sets(7):
            draws = [("", "0"), ("", "1"), ("1", "0" * d.norm)]
            for _ in range(12):
                pre = random_bits(rng, rng.choice((0, rng.randrange(1, 12))), 0.3)
                draws.append((pre, random_bits(rng, rng.randrange(1, 13), rng.choice((0.0, 0.3)))))
            for pre, rep in draws:
                window = pre + rep * (d.norm + 3)
                got = sets._avoids_forever(
                    sets._to_mask(pre), len(pre), sets._to_mask(rep), len(rep), d)
                assert got == (not pairs_clash(window, d)), (d, pre, rep)

    def test_a_million_bit_repetend_in_linear_time(self):
        # the repeats are built by doubling shifts; a product with the
        # repunit (2**(p*k) - 1) // (2**p - 1) divides in quadratic time
        d = DistanceSet.of(3, 7)
        lone = RationalSet("", "1" + "0" * 999_999)
        junction = RationalSet("", "1" + "0" * 999_996 + "100")  # 999,997 + 3 = 1,000,000
        began = time.perf_counter()
        assert is_avoiding(lone, d) and not is_avoiding(junction, d)
        assert time.perf_counter() - began < 1.0


class TestGreedy:
    def test_three_five(self):
        bits, detected = greedy_avoiding(D35, 24)
        assert bits == "111000001110000011100000"
        assert detected == RationalSet("", "11100000")

    def test_two_three_five(self):
        _, detected = greedy_avoiding(DistanceSet.of(2, 3, 5), 21)
        assert detected == RationalSet("", "1100000")

    def test_one_two(self):
        _, detected = greedy_avoiding(DistanceSet.of(1, 2), 9)
        assert detected == RationalSet("", "100")

    def test_prefix_stability(self):
        d = DistanceSet.of(2, 4, 7)
        previous = ""
        for horizon in range(1, 40):
            bits, _ = greedy_avoiding(d, horizon)
            assert bits.startswith(previous)
            previous = bits

    def test_detected_set_continues_the_string(self):
        for dset in [(3, 5), (2, 4, 7), (1, 3, 4), (4, 7, 11)]:
            d = DistanceSet.of(*dset)
            bits, detected = greedy_avoiding(d, 64)
            assert detected is not None
            assert detected.bits(64) == bits
            assert is_avoiding(detected, d)

    def test_no_detection_when_horizon_too_short(self):
        _, detected = greedy_avoiding(D35, 3)
        assert detected is None

    def test_detects_the_period_when_a_shadow_recurs(self):
        # the shadow after the eighth bit is the empty one of step 0; the
        # window of the last 5 bits first recurs only at step 13
        assert greedy_avoiding(D35, 8) == ("11100000", RationalSet("", "11100000"))

    def test_matches_the_string_window_greedy(self):
        # every D inside {1..9} with at most 3 distances, at horizons on both
        # sides of its norm and of its first detection: the same bits, the
        # same set wherever the window walk detects one, and any earlier
        # detection by shadow continues the bits and avoids D
        cases = [d for d in all_distance_sets(9) if len(d) <= 3]
        assert len(cases) == 129
        for distances in cases:
            for horizon in (1, 2, 3, 5, 8, 9, 10, 17, 31, 64):
                bits, detected = greedy_avoiding(distances, horizon)
                want_bits, want_detected = string_greedy(distances, horizon)
                assert bits == want_bits, (distances, horizon)
                if want_detected is not None:
                    assert detected == want_detected, (distances, horizon)
                elif detected is not None:
                    assert detected.bits(horizon) == bits, (distances, horizon)
                    assert is_avoiding(detected, distances), (distances, horizon)

    def test_no_distances(self):
        assert greedy_avoiding(DistanceSet(), 4) == ("1111", RationalSet.naturals())

    def test_refuses_norms_the_line_dp_refuses(self):
        # one shadow of 2**19 + 1 bits would pass MAX_WINDOW_BITS at its first
        # step; a lone distance walks its residue classes, so the set that
        # shows it has gcd 1
        norm = (sets.MAX_WINDOW_BITS >> 1) + 1
        wide = DistanceSet.of(1, norm)
        with pytest.raises(ValueError, match=re.escape(f"distances {{1,{norm}}} need up to 2 line-DP shadows ")):
            greedy_avoiding(wide, 1)
        # 2**19 fits one shadow; under {1, 2**19} the second, recorded at
        # step 1, is where the line DP refuses too, with the same message
        pair = DistanceSet.of(1, norm - 1)
        with pytest.raises(ValueError) as line_dp:
            LineKernel(pair).entry(3)
        with pytest.raises(ValueError, match=re.escape(str(line_dp.value))):
            greedy_avoiding(pair, 3)
        # {2**19} alone: greedy, like the line DP, walks its residue classes,
        # 2**19 walks of {1}, and answers
        lone = DistanceSet.of(norm - 1)
        assert greedy_avoiding(lone, 3) == ("111", None)
        assert LineKernel(lone).entry(3) == (0b111, 3, 3)

    def test_a_lone_huge_distance_is_walked_on_its_residue_classes(self):
        # {100000}: 100000 walks of {1}, where D's own shadows passed the
        # cap at step 6
        bits, detected = greedy_avoiding(DistanceSet.of(100_000), 200_000)
        assert bits == "1" * 100_000 + "0" * 100_000
        assert detected == RationalSet("", bits)


COUNT_CALLS = {
    "greedy horizon": lambda n: greedy_avoiding(D35, n),
    "shift offset": lambda n: shift(RationalSet("", "10"), n),
    "block length": lambda n: block_encode("10", n),
    "block count": lambda n: block_encode("10", 2, count=n),
    "enumeration length": lambda n: list(enumerate_avoiding(D35, n)),
    "max period": lambda n: brute_best_periodic(D35, n),
}


@pytest.mark.parametrize(
    "call, junk",
    [
        pytest.param(call, junk, id=f"{name}-{junk}")
        for name, call in COUNT_CALLS.items()
        for junk in (1.5, True, "3", None, -1)
        if not (name == "block count" and junk is None)  # None asks for the default count
    ],
)
def test_counts_must_be_ints_in_range(call, junk):
    with pytest.raises(ValueError, match="must be a (positive|non-negative) integer, got"):
        call(junk)


class TestShift:
    def test_evens_to_odds(self):
        assert shift(RationalSet("", "10"), 1) == RationalSet("", "01")

    def test_zero_is_identity(self):
        rng = random.Random(6)
        for _ in range(100):
            s = random_rational_set(rng)
            assert shift(s, 0) == s

    def test_valuation_drops_by_density(self):
        evens = RationalSet("", "10")
        assert (valuation(evens).density, valuation(evens).a0) == (Fraction(1, 2), Fraction(1, 4))
        odds = shift(evens, 1)
        assert (valuation(odds).density, valuation(odds).a0) == (Fraction(1, 2), Fraction(-1, 4))

    def test_strictly_decreases_nonempty_sets(self):
        rng = random.Random(11)
        for _ in range(200):
            s = random_rational_set(rng)
            if s.is_empty:
                continue
            assert set_compare(s, shift(s, 1)) == GREATER


class TestValuation:
    def test_arithmetic_progressions(self):
        for a, d in [(0, 2), (1, 2), (0, 3), (2, 3), (3, 7)]:
            v = valuation(RationalSet.arithmetic(a, d))
            assert v.density == Fraction(1, d)
            assert v.a0 == Fraction(d - 1 - 2 * a, 2 * d)

    def test_same_size_finite_sets(self):
        a = RationalSet.from_finite([3, 6, 9, 12, 15, 18])
        b = RationalSet.from_finite([1, 3, 6, 9, 15, 18])
        assert valuation(a) == valuation(b) == valuation(RationalSet.from_finite(range(6)))
        assert valuation(a).a0 == 6

    def test_empty_set(self):
        v = valuation(RationalSet.empty())
        assert (v.density, v.a0) == (0, 0)

    def test_classification_holds_on_random_sets(self):
        rng = random.Random(12)
        for _ in range(1000):
            v = valuation(random_rational_set(rng))  # construction enforces the shape
            assert v.classify() in ("finite", "cofinite", "fractional")

    def test_impossible_pairs_rejected(self):
        with pytest.raises(ValueError):
            Valuation(Fraction(0), Fraction(1, 2))   # finite sets have integer size
        with pytest.raises(ValueError):
            Valuation(Fraction(2), Fraction(0))      # density beyond 1
        with pytest.raises(ValueError):
            Valuation(Fraction(1), Fraction(1))      # cofinite excess must be <= 0

    def test_lexicographic_order(self):
        assert valuation(RationalSet("", "10")) > valuation(RationalSet("", "01"))
        assert valuation(RationalSet("", "100")) < valuation(RationalSet("", "10"))

    @pytest.mark.parametrize("density, a0", [
        (0.5, 0.25), (True, 0), (0, False), ("1/2", "3"), (Fraction(1, 2), 0.25), (None, 0),
    ])
    def test_refuses_all_but_ints_and_fractions(self, density, a0):
        # Fraction() used to take floats, bools and strs (a float is
        # inexact, a bool is no number here, a str was parsed); None was a TypeError
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            Valuation(density, a0)

    def test_ints_are_kept_as_fractions(self):
        v = Valuation(0, 3)
        assert v == Valuation(Fraction(0), Fraction(3)) and v.classify() == "finite"
        assert type(v.density) is type(v.a0) is Fraction
        assert Valuation(1, -2).classify() == "cofinite"
        with pytest.raises(ValueError, match="impossible valuation pair"):
            Valuation(1, 2)


class TestSetCompare:
    def test_evens_beat_odds(self):
        assert set_compare(RationalSet("", "10"), RationalSet("", "01")) == GREATER

    def test_odds_beat_greedy_set(self):
        assert set_compare(RationalSet("", "01"), RationalSet("", "11100000")) == GREATER

    def test_equal_through_noncanonical_encoding(self):
        s = RationalSet("110", "100")
        assert set_compare(s, RationalSet("110100", "100100")) == EQUAL

    def test_refines_density(self):
        rng = random.Random(13)
        for _ in range(300):
            a, b = random_rational_set(rng), random_rational_set(rng)
            if set_compare(a, b) == GREATER:
                assert valuation(a).density >= valuation(b).density


class TestClosedForms:
    """valuation and set_compare read density and constant term off the strings."""

    def test_match_the_cross_numerator_route(self):
        rng = random.Random(20261019)
        ties = 0
        for _ in range(2500):
            a, b = random_set_pair(rng)
            fa, fb = generating_function(a), generating_function(b)
            sign = sign_by_evaluation(cross_numerator(fa, fb))
            assert set_compare(a, b) == sign and set_compare(b, a) == -sign
            assert (sign == EQUAL) == (a == b)
            gap = gap_by_cross_numerator(fa, fb)
            assert germ_gap(fa, fb) == gap
            ties += gap is None or gap[0] > 0
            for s, f in ((a, fa), (b, fb)):
                prefix = laurent_prefix(f, 2)
                assert valuation(s) == Valuation(prefix.density, prefix.a0)
        assert ties > 1000  # pairs tied at both closed-form orders reach the fallback

    def test_germ_arith_shaped_pairs_match_the_cross_numerator_route(self):
        rng = random.Random(20261021)
        orders = Counter()
        for la in range(1, 17):
            for lb in range(1, 17):
                for tie in (None, -1, 0):
                    a, b = germ_arith_pair(rng, la, lb, tie)
                    fa, fb = generating_function(a), generating_function(b)
                    gap = gap_by_cross_numerator(fa, fb)
                    assert germ_gap(fa, fb) == gap
                    sign = 0 if gap is None else (1 if gap[1] > 0 else -1)
                    assert set_compare(a, b) == germ_compare(fa, fb) == sign
                    assert set_compare(b, a) == germ_compare(fb, fa) == -sign
                    if tie is not None:
                        assert gap is None or gap[0] > tie
                    orders[tie, None if gap is None else min(gap[0], 1)] += 1
        # every route is taken: each closed-form order, and the t-series past them
        assert orders[None, -1] > 200 and orders[-1, 0] > 200 and orders[0, 1] > 150

    def test_orders_build_no_fraction(self, monkeypatch):
        rng = random.Random(31)
        pairs = [germ_arith_pair(rng, la, lb, tie)
                 for la, lb in ((1, 1), (3, 5), (7, 2), (16, 16)) for tie in (None, -1, 0)]
        pairs.append((RationalSet.from_text("1001|0"), RationalSet.from_text("0110|0")))
        gaps = [gap_by_cross_numerator(generating_function(a), generating_function(b))
                for a, b in pairs]
        values = [Valuation(*laurent_prefix(generating_function(s), 2).coefficients)
                  for pair in pairs for s in pair]

        class FractionBuilt(Exception):
            pass

        def refuse(*args):
            raise FractionBuilt(args)

        monkeypatch.setattr(germs, "Fraction", refuse)
        monkeypatch.setattr(sets, "Fraction", refuse)
        for (a, b), gap in zip(pairs, gaps):
            fa, fb = generating_function(a), generating_function(b)
            sign = 0 if gap is None else (1 if gap[1] > 0 else -1)
            assert set_compare(a, b) == germ_compare(fa, fb) == sign
            pa, pb = IntPolynomial.from_bits(a.preperiod), IntPolynomial.from_bits(b.preperiod)
            difference = add(pa.coeffs, [-c for c in pb.coeffs])
            assert poly_germ_compare(pa, pb) == sign_by_evaluation(difference)
        with pytest.raises(FractionBuilt):  # the patch reaches what does build one
            germ_gap(*map(generating_function, pairs[-1]))
        monkeypatch.undo()
        for (a, b), gap in zip(pairs, gaps):
            found = germ_gap(generating_function(a), generating_function(b))
            assert found == gap and (found is None or type(found[1]) is Fraction)
        found = [valuation(s) for pair in pairs for s in pair]
        assert found == values and all(type(v.density) is type(v.a0) is Fraction for v in found)

    def test_generating_functions_only_on_a_tie(self, monkeypatch):
        calls = Counter()
        real_cross, real_gf = germs._cross_numerator, sets.generating_function

        def cross(f, g):
            calls["cross"] += 1
            return real_cross(f, g)

        def gf(s):
            calls["gf"] += 1
            return real_gf(s)

        monkeypatch.setattr(germs, "_cross_numerator", cross)
        monkeypatch.setattr(sets, "generating_function", gf)
        text = RationalSet.from_text
        assert set_compare(text("|100"), text("0|01")) == LESS      # density gap
        assert set_compare(text("|10"), text("0|10")) == GREATER    # constant-term gap
        for s in map(text, ("|100", "0|01", "1001|0", "110|100")):
            valuation(s)
        assert not calls
        assert set_compare(text("1001|0"), text("0110|0")) == GREATER
        assert set_compare(text("110|100"), text("110100|100100")) == EQUAL
        assert calls == {"cross": 2, "gf": 4}

    def test_moment_triples_match_the_numerator(self):
        # a set's (N(1), N'(1), d) read off its strings, and the triple its
        # generating function carries, against the numerator summed afresh
        rng = random.Random(32)
        cases = [random_rational_set(rng, 12, 9) for _ in range(600)]
        cases += [s for la in range(1, 17) for lb in range(1, 17) for tie in (None, -1, 0)
                  for s in germ_arith_pair(rng, la, lb, tie)]
        for s in cases:
            f = generating_function(s)
            want = (*germs._sums(f.numerator.coeffs), len(s.repetend))
            assert s._moments == f._moments == want, s
            assert RationalGF(f.numerator, f.period)._moments == want  # summed by the GF itself

    def test_moments_are_summed_once_per_set(self, monkeypatch):
        # a germ_arith operation: both orders, both valuations and the gap of
        # the generating functions read the triples the first compare summed
        calls = Counter()
        real = germs._sums

        def counted(c):
            calls["sums"] += 1
            return real(c)

        monkeypatch.setattr(germs, "_sums", counted)
        monkeypatch.setattr(sets, "_sums", counted)
        a, b = germ_arith_pair(random.Random(33), 5, 7)
        order = set_compare(a, b)
        assert calls["sums"] == 2
        assert set_compare(b, a) == -order
        valuation(a), valuation(b)
        gap = germ_gap(generating_function(a), generating_function(b))
        assert gap is not None and calls["sums"] == 2

    def test_equality_hash_and_repr_ignore_the_moments(self):
        for text in ("|10", "0110|0", "1|011", "01|1"):
            warm, cold = RationalSet.from_text(text), RationalSet.from_text(text)
            f = generating_function(warm)  # fills warm's triple and hands it to f
            g = RationalGF(f.numerator, f.period)
            assert "_moments" in vars(warm) and "_moments" not in vars(cold)
            assert "_moments" in vars(f) and "_moments" not in vars(g)
            for x, y in ((warm, cold), (f, g)):
                assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
