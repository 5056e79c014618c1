"""Exact germ arithmetic: signs near 1-, comparisons, Laurent expansions."""

import random
import re
import time
from fractions import Fraction

import pytest

from germpack import (
    EQUAL,
    GREATER,
    LESS,
    IntPolynomial,
    RationalGF,
    germ_compare,
    germ_gap,
    laurent_prefix,
    one_minus_power,
    poly_germ_compare,
    poly_sign_near_one,
)
from germpack import germs, sets
from helpers import (
    add,
    convolve,
    cross_numerator,
    gap_by_cross_numerator,
    laurent_by_binomials,
    random_gf,
    random_bits,
    random_gf_pair,
    sign_by_evaluation,
)


def gf(coeffs, period):
    return RationalGF(IntPolynomial(coeffs), period)


class TestPolySignNearOne:
    def test_one_minus_q_positive(self):
        assert poly_sign_near_one(IntPolynomial((1, -1))) == 1

    def test_zero_polynomial(self):
        assert poly_sign_near_one(IntPolynomial(())) == 0

    def test_negated_square(self):
        # -(1-q)^2
        assert poly_sign_near_one(IntPolynomial((-1, 2, -1))) == -1

    def test_matches_exact_evaluation_on_random_polynomials(self):
        rng = random.Random(20240801)
        for _ in range(1000):
            degree = rng.randrange(0, 17)
            coeffs = tuple(rng.randint(-9, 9) for _ in range(degree + 1))
            assert poly_sign_near_one(IntPolynomial(coeffs)) == sign_by_evaluation(coeffs)


class TestPolyGermCompare:
    def test_run_beats_spread(self):
        p = IntPolynomial.from_bits("111000")
        r = IntPolynomial.from_bits("101010")
        assert poly_germ_compare(p, r) == GREATER

    def test_equal(self):
        p = IntPolynomial((1, 1))
        assert poly_germ_compare(p, p) == EQUAL

    def test_count_decides_first(self):
        # {0,6} has the same size as {1,2} but loses on position sum
        assert poly_germ_compare(
            IntPolynomial.from_bits("1000001"), IntPolynomial.from_bits("0110000")
        ) == LESS

    def test_matches_the_lowest_t_term(self):
        # orders 0 and 1 come from closed forms; a tie of both expands
        rng = random.Random(20261021)
        ties = 0
        for trial in range(900):
            length = 240 if trial % 3 == 0 else rng.randrange(20)
            if trial % 2:
                p = tuple(rng.randint(-3, 3) for _ in range(length))
            else:
                p = tuple(map(int, random_bits(rng, length)))
            kind = trial % 5
            if kind < 2:
                # c*q^a*(1-q)^k, k >= 2, moves neither N(1) nor N'(1)
                nudge = (0,) * rng.randrange(length + 1) + (rng.choice((-1, 1)),)
                for _ in range(rng.randrange(2, 5)):
                    nudge = convolve(nudge, (1, -1))
                r = add(p, nudge)
            elif kind == 2 and length >= 4:
                # 1001 and 0110 at the same place: the same count and position sum
                i = rng.randrange(length - 3)
                r = p[:i] + (p[i] - 1, p[i + 1] + 1, p[i + 2] + 1, p[i + 3] - 1) + p[i + 4:]
            else:
                r = tuple(rng.randint(-3, 3) for _ in range(rng.randrange(length + 2)))
            term = germs._lowest_t_term(add(p, [-c for c in r]))
            sign = 0 if term is None else (1 if term[1] > 0 else -1)
            pp, rr = IntPolynomial(p), IntPolynomial(r)
            assert poly_germ_compare(pp, rr) == sign and poly_germ_compare(rr, pp) == -sign
            moment = [sum(i * c for i, c in enumerate(x)) for x in (p, r)]
            ties += pp != rr and sum(p) == sum(r) and moment[0] == moment[1]
        assert ties > 300


class TestGermCompare:
    def test_evens_beat_odds(self):
        evens = gf((1,), 2)
        odds = gf((0, 1), 2)
        assert germ_compare(evens, odds) == GREATER

    def test_multiples_of_three_beat_shifted(self):
        assert germ_compare(gf((1,), 3), gf((0, 0, 1), 3)) == GREATER

    def test_reflexive(self):
        f = gf((1, 0, 1), 4)
        assert germ_compare(f, f) == EQUAL

    def test_semantic_equality_across_representations(self):
        # 1/(1-q) equals (1+q)/(1-q^2)
        assert germ_compare(gf((1,), 1), gf((1, 1), 2)) == EQUAL

    def test_total_and_antisymmetric(self):
        rng = random.Random(7)
        for _ in range(300):
            f, g = random_gf(rng), random_gf(rng)
            c = germ_compare(f, g)
            assert c in (LESS, EQUAL, GREATER)
            assert germ_compare(g, f) == -c

    def test_transitive(self):
        rng = random.Random(8)
        for _ in range(300):
            f, g, h = (random_gf(rng) for _ in range(3))
            if germ_compare(f, g) != LESS and germ_compare(g, h) != LESS:
                assert germ_compare(f, h) != LESS

    def test_agrees_with_leading_laurent_gap(self):
        rng = random.Random(9)
        for _ in range(300):
            f, g = random_gf(rng), random_gf(rng)
            c = germ_compare(f, g)
            gap = germ_gap(f, g)
            if c == EQUAL:
                assert gap is None
            else:
                order, value = gap
                assert order >= -1
                assert (value > 0) == (c == GREATER)


class TestLaurentPrefix:
    def test_arithmetic_progression(self):
        # {a, a+d, ...} has density 1/d and constant term (d-1-2a)/(2d)
        for d in range(1, 11):
            for a in range(d):
                prefix = laurent_prefix(gf((0,) * a + (1,), d), 2)
                assert prefix.density == Fraction(1, d)
                assert prefix.a0 == Fraction(d - 1 - 2 * a, 2 * d)

    def test_finite_set(self):
        # {1,2,3}: numerator (q+q^2+q^3)(1-q) = q - q^4, period 1
        prefix = laurent_prefix(gf((0, 1, 0, 0, -1), 1), 3)
        assert prefix.density == 0
        assert prefix.a0 == 3

    def test_all_naturals_is_exactly_one_over_t(self):
        prefix = laurent_prefix(gf((1,), 1), 4)
        assert prefix.coefficients == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def test_matches_division_of_binomial_expansions(self):
        rng = random.Random(10)
        for _ in range(300):
            f = random_gf(rng, max_degree=8, max_period=9)
            count = len(f.numerator.coeffs) - 1 + rng.randrange(2, 6)
            prefix = laurent_prefix(f, count)
            assert prefix.coefficients == laurent_by_binomials(f, count)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            laurent_prefix(gf((1,), 1), 0)

    @pytest.mark.parametrize("count", [True, False, 2.5, 2.0, "2", None])
    def test_count_must_be_an_int(self, count):
        # True used to give a one-term prefix, 2.5 islice's "Stop argument" error
        with pytest.raises(ValueError, match="count must be a positive integer"):
            laurent_prefix(gf((1,), 1), count)


class TestOneMinusPower:
    @pytest.mark.parametrize("d", [0, -2, True, False, 2.5, 3.0, "3", None])
    def test_power_must_be_a_positive_int(self, d):
        # True used to give 1 - q, 2.5 and "3" a TypeError
        with pytest.raises(ValueError, match="power must be a positive integer"):
            one_minus_power(d)


class TestPositiveIntegerRule:
    # one rule, `germs._check_natural`, checks every positive-int argument
    # here, in the words each hand-written check used
    @pytest.mark.parametrize("call,message", [
        (lambda: one_minus_power(0), "power must be a positive integer, got 0"),
        (lambda: RationalGF(IntPolynomial((1,)), True), "period must be a positive integer, got True"),
        (lambda: laurent_prefix(gf((1,), 1), 2.5), "count must be a positive integer, got 2.5"),
    ], ids=["power", "period", "count"])
    def test_messages_are_unchanged(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_sets_reads_the_same_rule(self):
        assert sets._check_natural is germs._check_natural


class TestGermGap:
    def test_grandi_gap(self):
        assert germ_gap(gf((1,), 2), gf((0, 1), 2)) == (0, Fraction(1, 2))

    def test_callet_gap(self):
        assert germ_gap(gf((1,), 3), gf((0, 0, 1), 3)) == (0, Fraction(2, 3))

    def test_density_gap_sits_at_order_minus_one(self):
        assert germ_gap(gf((1,), 2), gf((1,), 3)) == (-1, Fraction(1, 6))

    def test_no_gap_for_equal_germs(self):
        assert germ_gap(gf((1,), 1), gf((1, 1), 2)) is None

    def test_is_the_first_difference_of_the_laurent_prefixes(self):
        rng = random.Random(11)
        cubes = (1, 0, 0, 1, 0, 0, 1, 0, 0, 1)  # 1 + q^3 + q^6 + q^9
        for trial in range(400):
            f = random_gf(rng)
            if trial % 2 == 0:
                # the same germ over a period four times as long, plus a term
                # c*q^a*(1-q)^k that moves it only from order k - 1 on
                f = gf(f.numerator.coeffs, 3)
                nudge = (0,) * rng.randrange(12) + (rng.randint(-1, 1),)
                for _ in range(rng.randrange(4)):
                    nudge = convolve(nudge, (1, -1))
                g = gf(add(convolve(f.numerator.coeffs, cubes), nudge), 12)
            else:
                g = random_gf(rng)
            # the gap's order is at most the cross numerator's degree minus 2
            degree_f, degree_g = len(f.numerator.coeffs) - 1, len(g.numerator.coeffs) - 1
            count = max(degree_f + g.period, degree_g + f.period) + 2
            pf, pg = laurent_prefix(f, count), laurent_prefix(g, count)
            first = next(
                ((j - 1, a - b) for j, (a, b) in enumerate(zip(pf.coefficients, pg.coefficients))
                 if a != b),
                None,
            )
            assert germ_gap(f, g) == first


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()

    def test_from_bits(self):
        assert IntPolynomial.from_bits("0110").coeffs == (0, 1, 1)
        assert IntPolynomial.from_bits([1, 0, 1]).coeffs == (1, 0, 1)
        assert IntPolynomial.from_bits(["0", "1", "1", "0"]).coeffs == (0, 1, 1)
        assert IntPolynomial.from_bits(iter((0, 1, "1"))).coeffs == (0, 1, 1)
        assert IntPolynomial.from_bits("").coeffs == IntPolynomial.from_bits("000").coeffs == ()

    def test_a_bytes_object_is_taken_as_its_ints(self):
        assert IntPolynomial(bytes((0, 1, 2, 0))).coeffs == (0, 1, 2)

    def test_a_hundred_thousand_bits_in_linear_time(self):
        rng = random.Random(100_000)
        bits = random_bits(rng, 100_000) + "1"
        listed = list(map(int, bits))
        began = time.perf_counter()
        from_str, from_list = IntPolynomial.from_bits(bits), IntPolynomial.from_bits(listed)
        assert time.perf_counter() - began < 1.0
        assert from_str.coeffs == from_list.coeffs == tuple(listed)

    def test_many_trailing_zeros_strip_in_linear_time(self):
        # stripped by popping from a list; a tuple sliced once per zero
        # took seconds at 40,000 zeros
        began = time.perf_counter()
        assert IntPolynomial.from_bits("0110" + "0" * 200_000).coeffs == (0, 1, 1)
        assert time.perf_counter() - began < 1.0

    @pytest.mark.parametrize("coeffs", [(0.5, 1), (0.9,), (1, 2.0), (True,), ("1",), (None,)])
    def test_coefficients_must_be_ints(self, coeffs):
        # nothing is converted: int() would truncate (0.9,) to the zero
        # polynomial, whose germ it is not
        with pytest.raises(ValueError, match="coefficients must be ints"):
            IntPolynomial(coeffs)

    @pytest.mark.parametrize("bits", [
        "12", "1x1", "1 0", [1, 2], [1.0, 0], [True, False], [[1]],
        "012", "0110\n", [True], ["0", 2], b"01", 5,
    ])
    def test_bits_must_be_zeros_and_ones(self, bits):
        message = f"bits must be 0/1 or '0'/'1', got {bits!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IntPolynomial.from_bits(bits)


class TestRationalGF:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            RationalGF(IntPolynomial((1,)), 0)

    @pytest.mark.parametrize("period", [True, False, 2.0, "3", None, [2]])
    def test_period_must_be_an_int(self, period):
        # True used to be read as period 1; the closed forms divide by it
        with pytest.raises(ValueError, match="period must be a positive integer"):
            RationalGF(IntPolynomial((1,)), period)

    def test_rewriting_the_denominator_preserves_the_germ(self):
        # (1 + q^2)/(1 - q^3) times (1 + q^3 + q^6 + q^9)/(1 + q^3 + q^6 + q^9)
        f = gf((1, 0, 1), 3)
        g = gf(convolve(f.numerator.coeffs, (1, 0, 0, 1, 0, 0, 1, 0, 0, 1)), 12)
        assert germ_compare(f, g) == EQUAL
        assert germ_gap(f, g) is None


class TestDeferredNumerator:
    """A set's GF holds its bits and moments, and builds its numerator when read."""

    def test_the_period_is_still_checked(self):
        with pytest.raises(ValueError, match="period must be a positive integer, got 0"):
            RationalGF._deferred("1", "", (1, 0, 0))

    def test_the_numerator_is_built_once_and_stored(self):
        f = RationalGF._deferred("0110", "011", (2, 5, 3))
        assert "numerator" not in vars(f) and f.period == 3
        assert f.numerator == IntPolynomial((0, 1, 1, 0, -1, 0, 1))
        assert vars(f)["numerator"] is f.numerator
        assert f == gf((0, 1, 1, 0, -1, 0, 1), 3)

    def test_a_misspelt_name_still_raises(self):
        f = sets.generating_function(sets.RationalSet.from_text("1|01"))
        message = "'RationalGF' object has no attribute 'numertor'"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            f.numertor
        assert "numerator" not in vars(f)

    def test_protocol_probes_build_nothing(self):
        # copy and pickle ask for these on the instance; only numerator builds
        f = sets.generating_function(sets.RationalSet.from_text("1|01"))
        for name in ("__setstate__", "__deepcopy__", "__copy__", "_bits_", "coeffs"):
            assert getattr(f, name, None) is None
        assert not hasattr(f, "numerator_") and "numerator" not in vars(f)
        shell = RationalGF.__new__(RationalGF)  # unpickling's blank instance holds no bits
        with pytest.raises(AttributeError, match="no attribute 'numerator'"):
            shell.numerator


class TestClosedFormShortcut:
    """Orders -1 and 0 come from closed forms; the cross numerator only on a tie of both."""

    def test_matches_the_cross_numerator_route(self):
        rng = random.Random(20261018)
        ties = 0
        for _ in range(3000):
            f, g = random_gf_pair(rng)
            sign = sign_by_evaluation(cross_numerator(f, g))
            gap = gap_by_cross_numerator(f, g)
            assert germ_compare(f, g) == sign and germ_compare(g, f) == -sign
            assert germ_gap(f, g) == gap
            assert germ_gap(g, f) == (None if gap is None else (gap[0], -gap[1]))
            ties += gap is None or gap[0] > 0
        assert ties > 1000  # equal germs and nudges past order 0 reach the fallback

    def test_cross_numerator_only_on_a_tie(self, monkeypatch):
        calls = []
        real = germs._cross_numerator
        monkeypatch.setattr(germs, "_cross_numerator", lambda f, g: calls.append(1) or real(f, g))
        density_gap = (gf((1,), 3), gf((0, 1), 2))   # |100 against 0|01
        a0_gap = (gf((1,), 2), gf((0, 1), 2))        # |10 against 0|10
        assert germ_compare(*density_gap) == LESS and germ_gap(*a0_gap) == (0, Fraction(1, 2))
        assert not calls
        tied = (gf((1, -1, 0, 1, -1), 1), gf((0, 1, 0, -1), 1))  # 1001|0 against 0110|0
        assert germ_compare(*tied) == GREATER and germ_gap(*tied) == (2, Fraction(2))
        assert len(calls) == 2
