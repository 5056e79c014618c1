"""Local patch rewriting: best fillings, monotone sweeps, fixpoints."""

import random

import pytest

from germpack import (
    GREATER,
    LESS,
    DistanceSet,
    IntPolynomial,
    PatchContext,
    RationalSet,
    best_patch,
    find_winner,
    greedy_avoiding,
    improve_at,
    is_avoiding,
    poly_germ_compare,
    sweep_to_fixpoint,
    winner_windows_consistent,
)
from germpack import local
from germpack.local import germ_greater
from helpers import brute_patch, random_avoiding, random_bits

D35 = DistanceSet.of(3, 5)


def germ_cmp(a, b):
    return poly_germ_compare(IntPolynomial.from_bits(a), IntPolynomial.from_bits(b))


class TestGermGreater:
    def test_tie_break_matches_polynomial_comparison(self):
        # only entries equal on count and position sum reach the polynomial path
        rng = random.Random(40)
        checked = 0
        for length in range(4, 17):
            groups = {}
            for _ in range(400):
                mask = rng.getrandbits(length)
                ones = bin(mask).count("1")
                possum = sum(i for i in range(length) if mask >> i & 1)
                groups.setdefault((ones, possum), set()).add(mask)
            for (ones, possum), masks in groups.items():
                masks = sorted(masks)
                for x in masks:
                    for y in masks[:8]:
                        order = poly_germ_compare(
                            IntPolynomial.from_bits(format(x, f"0{length}b")[::-1]),
                            IntPolynomial.from_bits(format(y, f"0{length}b")[::-1]),
                        )
                        got = germ_greater((x, ones, possum), (y, ones, possum))
                        assert got == (order == GREATER)
                        checked += x != y
        assert checked > 1000


class TestPatchContext:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PatchContext("00", "0", 3)

    def test_patch_length_positive(self):
        with pytest.raises(ValueError):
            PatchContext("00", "00", 0)


class TestBestPatch:
    def test_zero_context(self):
        assert best_patch(PatchContext("00000", "00000", 5), D35) == "11100"

    def test_alternating_context(self):
        assert best_patch(PatchContext("10101", "10101", 5), D35) == "01010"

    def test_empty_distances_fill_with_ones(self):
        assert best_patch(PatchContext("", "", 4), DistanceSet()) == "1111"

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(150):
            d = DistanceSet(tuple(rng.sample(range(1, 5), rng.randrange(1, 3))))
            length = rng.randrange(d.norm, d.norm + 4) or 1
            left = random_bits(rng, d.norm)
            right = random_bits(rng, d.norm)
            got = best_patch(PatchContext(left, right, length), d)
            assert got == brute_patch(left, right, length, d)

    def test_context_width_checked(self):
        with pytest.raises(ValueError):
            best_patch(PatchContext("0000", "0000", 5), D35)

    def test_patch_shorter_than_norm_rejected(self):
        with pytest.raises(ValueError):
            best_patch(PatchContext("00000", "00000", 4), D35)


class TestImproveAt:
    def test_alternating_string_is_interior_maximal(self):
        odds = "01" * 10
        assert improve_at(odds, 6, 5, D35) == odds

    def test_zero_string_gains(self):
        zeros = "0" * 20
        out = improve_at(zeros, 6, 5, D35)
        assert out == "0" * 6 + "11100" + "0" * 9
        assert germ_cmp(out, zeros) == GREATER

    def test_empty_distances_pack_ones(self):
        out = improve_at("0" * 10, 3, 4, DistanceSet())
        assert out == "0001111000"

    def test_monotone_avoiding_idempotent(self):
        rng = random.Random(42)
        for _ in range(200):
            d = DistanceSet(tuple(rng.sample(range(1, 6), rng.randrange(1, 4))))
            w = random_avoiding(rng, d, 24)
            length = rng.randrange(d.norm, d.norm + 3) or 1
            t = rng.randrange(d.norm, 24 - length - d.norm + 1)
            out = improve_at(w, t, length, d)
            assert germ_cmp(out, w) != LESS
            assert is_avoiding(out, d)
            assert improve_at(out, t, length, d) == out
            if out != w:
                assert germ_cmp(out, w) == GREATER

    def test_position_range_enforced(self):
        w = "0" * 20
        with pytest.raises(ValueError):
            improve_at(w, 4, 5, D35)  # inside the left margin
        with pytest.raises(ValueError):
            improve_at(w, 11, 5, D35)  # right context would overflow

    def test_input_must_avoid(self):
        with pytest.raises(ValueError):
            improve_at("1100100000000000", 6, 5, D35)

    def test_edge_variant_reaches_early_bits(self):
        zeros = "0" * 16
        out = improve_at(zeros, 0, 5, D35, allow_edge=True)
        assert out.startswith("11100")
        assert is_avoiding(out, D35)
        # zero-padding the missing context is exactly "nothing to the left"
        assert germ_cmp(out, zeros) == GREATER


class TestSweep:
    def test_greedy_seed_never_loses(self):
        seed, _ = greedy_avoiding(D35, 24)
        fixed = sweep_to_fixpoint(seed, 6, D35)
        assert germ_cmp(fixed, seed) != LESS
        assert is_avoiding(fixed, D35)

    def test_interior_maximal_string_unchanged(self):
        odds = "01" * 12
        assert sweep_to_fixpoint(odds, 5, D35) == odds

    def test_empty_distances_fill_interior(self):
        out = sweep_to_fixpoint("0" * 8, 2, DistanceSet())
        assert out == "1" * 8

    def test_fixpoint_is_verified_maximal(self):
        rng = random.Random(43)
        for dset in [(3, 5), (2, 4, 7)]:
            d = DistanceSet.of(*dset)
            for _ in range(20):
                w = random_avoiding(rng, d, 40)
                fixed = sweep_to_fixpoint(w, d.norm, d)
                assert germ_cmp(fixed, w) != LESS
                for t in range(d.norm, 40 - 2 * d.norm + 1):
                    assert improve_at(fixed, t, d.norm, d) == fixed

    def test_each_change_strictly_improves(self):
        rng = random.Random(44)
        d = DistanceSet.of(2, 4, 7)
        w = random_avoiding(rng, d, 48)
        current = w
        changes = 0
        changed = True
        while changed:
            changed = False
            for t in range(d.norm, len(w) - 2 * d.norm + 1):
                nxt = improve_at(current, t, d.norm, d)
                if nxt != current:
                    assert germ_cmp(nxt, current) == GREATER
                    current = nxt
                    changes += 1
                    changed = True
        assert current == sweep_to_fixpoint(w, d.norm, d)
        assert changes <= 3 * len(w)

    def test_a_rewrite_that_lowers_the_germ_is_refused(self, monkeypatch):
        calls = []

        def alternating(context, distances):
            calls.append(context)
            if len(calls) > 10_000:
                raise RuntimeError("sweep never stopped")
            return "10000" if len(calls) % 2 else "01000"

        monkeypatch.setattr(local, "best_patch", alternating)
        with pytest.raises(AssertionError, match="did not raise the germ"):
            sweep_to_fixpoint("0" * 20, 5, D35, positions=[6])
        assert len(calls) == 2

    def test_a_rewrite_that_clashes_with_its_context_is_refused(self, monkeypatch):
        # a 1 at position 7 sits 3 before the right context's 1 at position 10
        monkeypatch.setattr(local, "best_patch", lambda context, distances: "00100")
        with pytest.raises(AssertionError, match="broke avoidance"):
            sweep_to_fixpoint("0" * 10 + "1" + "0" * 9, 5, D35, positions=[5])

    def test_custom_schedule(self):
        out = sweep_to_fixpoint("0" * 20, 5, D35, positions=[6])
        assert out == improve_at("0" * 20, 6, 5, D35)


class TestWinnerConsistency:
    def test_certified_winners_hold_their_patches(self):
        for dset in [(3, 5), (1, 3, 6, 8), (1, 2), (2, 4, 7), (2, 4, 13)]:
            d = DistanceSet.of(*dset)
            winner = find_winner(d).certificate.winner
            assert winner_windows_consistent(winner, d, d.norm)

    def test_improvable_set_fails_the_check(self):
        # the empty set leaves every window improvable
        assert not winner_windows_consistent(RationalSet.empty(), D35, 6)
