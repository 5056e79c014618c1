"""Block coding, circular words, and their germ order."""

import random

import pytest

from germpack import (
    EQUAL,
    GREATER,
    LESS,
    CircularWord,
    DistanceSet,
    IntPolynomial,
    Letter,
    RationalSet,
    block_encode,
    circular_compare,
    circular_decompose,
    default_block_length,
    generating_function,
    germ_compare,
    is_legal,
    is_successor,
)
from helpers import add, random_bits, random_circular_word

D35 = DistanceSet.of(3, 5)


class TestLetter:
    def test_consonant_vowel_split(self):
        assert Letter("10").is_consonant
        assert Letter("01").is_vowel

    def test_validation(self):
        with pytest.raises(ValueError):
            Letter("")
        with pytest.raises(ValueError):
            Letter("10x")


class TestBlockEncode:
    def test_evens_alternate(self):
        letters = block_encode(RationalSet("", "10"), 2)
        assert [l.bits for l in letters] == ["10", "01", "10"]

    def test_periodic_string_window(self):
        letters = block_encode("11100000", 3)
        assert [l.bits for l in letters] == [
            "111", "110", "100", "000", "000", "000", "001", "011", "111",
        ]

    def test_all_zero_source_gives_constant_vowel(self):
        for m in (1, 3, 5):
            letters = block_encode(RationalSet.empty(), m, count=6)
            assert all(l.bits == "0" * m for l in letters)

    def test_successor_chain(self):
        rng = random.Random(21)
        for _ in range(100):
            bits = random_bits(rng, rng.randrange(4, 12))
            m = rng.randrange(1, 5)
            letters = block_encode(bits, m, count=10)
            assert all(is_successor(a, b) for a, b in zip(letters, letters[1:]))

    def test_first_bits_reconstruct_the_source(self):
        rng = random.Random(22)
        for _ in range(100):
            s = RationalSet(random_bits(rng, 3), random_bits(rng, 4) or "0")
            count = 16
            letters = block_encode(s, 4, count=count)
            assert "".join(l.bits[0] for l in letters) == s.bits(count)

    def test_short_finite_input_rejected(self):
        with pytest.raises(ValueError):
            block_encode("10", 3)


class TestLegality:
    def test_spread_letter_is_legal(self):
        assert is_legal(Letter("101010"), D35)

    def test_distance_three_violates(self):
        assert not is_legal(Letter("100100"), D35)

    def test_all_zero_is_legal(self):
        assert is_legal(Letter("000000"), D35)

    def test_short_blocks_unsupported(self):
        assert default_block_length(D35) == 6
        with pytest.raises(ValueError):
            is_legal(Letter("10101"), D35)


class TestSuccessor:
    def test_overlap(self):
        assert is_successor(Letter("10"), Letter("01"))

    def test_mismatch(self):
        assert not is_successor(Letter("10"), Letter("11"))

    def test_constant_self_successor(self):
        assert is_successor(Letter("00"), Letter("00"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_successor(Letter("10"), Letter("100"))


class TestCircularWord:
    def test_junction_counted_once(self):
        c = CircularWord.from_bits("100", 2)
        assert c.length == 3
        assert c.first == c.last == Letter("10")

    def test_must_close(self):
        with pytest.raises(ValueError):
            CircularWord((Letter("10"), Letter("01")))

    @pytest.mark.parametrize("letters", [(), (Letter("10"),)])
    def test_needs_two_stored_letters(self, letters):
        with pytest.raises(ValueError, match="^circular word needs at least two stored letters$"):
            CircularWord(letters)

    def test_chain_must_hold(self):
        with pytest.raises(ValueError):
            CircularWord((Letter("10"), Letter("11"), Letter("10")))

    def test_concat_definition(self):
        # one-bit blocks make every pair of letters chainable
        alpha, beta, gamma = Letter("0"), Letter("1"), Letter("0")
        c = CircularWord((alpha, beta, alpha))
        d = CircularWord((alpha, gamma, alpha))
        joined = c.concat(d)
        assert joined.letters == (alpha, beta, alpha, gamma, alpha)
        assert joined.length == 4

    def test_self_concat_length(self):
        c = CircularWord((Letter("0"), Letter("1"), Letter("0")))
        assert c.concat(c).length == 4

    def test_concat_associative(self):
        rng = random.Random(23)
        for _ in range(100):
            anchor = random_bits(rng, 2)
            a, b, c = (random_circular_word(rng, anchor) for _ in range(3))
            assert a.concat(b).concat(c) == a.concat(b.concat(c))

    def test_junction_mismatch_rejected(self):
        c = CircularWord.from_bits("10", 2)
        d = CircularWord.from_bits("01", 2)
        with pytest.raises(ValueError):
            c.concat(d)


class TestCircularGerm:
    def test_period_two_matches_evens(self):
        c = CircularWord.from_bits("10", 2)
        assert c.consonant_pattern() == (1, 0)
        assert germ_compare(c.germ(), generating_function(RationalSet("", "10"))) == EQUAL

    def test_period_three(self):
        c = CircularWord.from_bits("100", 3)
        assert germ_compare(c.germ(), generating_function(RationalSet("", "100"))) == EQUAL

    def test_repetition_fixes_the_germ(self):
        rng = random.Random(24)
        for _ in range(200):
            c = random_circular_word(rng, random_bits(rng, 2))
            assert circular_compare(c, c.concat(c)) == EQUAL

    def test_concat_numerator_identity(self):
        # germ numerator of c:d is P_c + q^len(c) * P_d
        rng = random.Random(25)
        for _ in range(200):
            anchor = random_bits(rng, 2)
            c, d = random_circular_word(rng, anchor), random_circular_word(rng, anchor)
            joined = c.concat(d).germ()
            shifted_d = (0,) * c.length + d.germ().numerator.coeffs
            want = IntPolynomial(add(c.germ().numerator.coeffs, shifted_d))
            assert joined.numerator == want
            assert joined.period == c.length + d.length


class TestCircularCompare:
    def test_denser_word_wins(self):
        assert circular_compare(
            CircularWord.from_bits("10", 2), CircularWord.from_bits("100", 2)
        ) == GREATER

    def test_order_of_concatenation_matters(self):
        a = CircularWord.from_bits("100", 2)
        b = CircularWord.from_bits("10", 2)
        assert circular_compare(a.concat(b), b.concat(a)) == LESS

    def test_reflexive(self):
        c = CircularWord.from_bits("1000", 2)
        assert circular_compare(c, c) == EQUAL


class TestExchangeChain:
    def test_exchange_chain(self):
        # c <= c' implies c <= c:c' <= c':c <= c', strict throughout when c < c'
        rng = random.Random(26)
        for _ in range(500):
            anchor = random_bits(rng, rng.randrange(1, 4))
            c = random_circular_word(rng, anchor)
            d = random_circular_word(rng, anchor)
            if circular_compare(c, d) == GREATER:
                c, d = d, c
            strict = circular_compare(c, d) == LESS
            chain = [c, c.concat(d), d.concat(c), d]
            for x, y in zip(chain, chain[1:]):
                order = circular_compare(x, y)
                assert order != GREATER
                if strict:
                    assert order == LESS


class TestDecompose:
    def test_textbook_split(self):
        alpha, beta = Letter("0"), Letter("1")
        stream = (alpha, beta, alpha, alpha, alpha)  # a b a | a | a
        prefix, words = circular_decompose(stream, anchor=alpha)
        assert prefix == ()
        assert [w.letters for w in words] == [
            (alpha, beta, alpha), (alpha, alpha), (alpha, alpha),
        ]

    def test_prefix_preserved(self):
        alpha, beta = Letter("0"), Letter("1")
        stream = (beta, alpha, beta, alpha, beta, alpha)
        prefix, words = circular_decompose(stream, anchor=alpha)
        assert prefix == (beta,)
        assert all(w.letters == (alpha, beta, alpha) for w in words)

    def test_winner_window_splits_into_period_two_words(self):
        letters = block_encode(RationalSet("", "10"), 6, count=13)
        prefix, words = circular_decompose(letters, anchor=Letter("101010"))
        assert prefix == ()
        assert all(w.length == 2 and w.consonant_pattern() == (1, 0) for w in words)

    def test_default_anchor_prefers_earliest_recurring_letter(self):
        alpha, beta = Letter("0"), Letter("1")
        prefix, words = circular_decompose((alpha, beta, beta, alpha))
        assert prefix == ()
        assert len(words) == 1 and words[0].first == alpha

    @pytest.mark.parametrize("stream", ["", "0", "01"])
    def test_a_stream_where_no_letter_recurs_is_rejected(self, stream):
        with pytest.raises(ValueError, match="^no letter recurs in the window$"):
            circular_decompose(Letter(bit) for bit in stream)

    def test_rare_anchor_rejected(self):
        alpha, beta = Letter("0"), Letter("1")
        with pytest.raises(ValueError):
            circular_decompose((alpha, beta), anchor=alpha)

    def test_decomposition_of_certified_winners_is_germ_decreasing(self):
        from germpack import find_winner

        for dset in [(3, 5), (1, 3, 6, 8), (1, 2), (2, 4, 7), (2, 4, 13)]:
            distances = DistanceSet.of(*dset)
            winner = find_winner(distances).certificate.winner
            m = default_block_length(distances)
            span = len(winner.preperiod) + 4 * len(winner.repetend) + m
            letters = block_encode(winner, m, count=span)
            _, words = circular_decompose(letters)
            for a, b in zip(words, words[1:]):
                assert circular_compare(a, b) != LESS
