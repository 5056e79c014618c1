"""Local patch rewriting: best fillings, monotone sweeps, fixpoints."""

import itertools
import random
import re
import time
from collections import Counter
from math import gcd

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
from germpack.germs import _t_series
from germpack.local import LineKernel, _entry, germ_greater
from germpack.oracle import brute_best, enumerate_avoiding
from germpack.sets import _to_bits, _to_mask
from helpers import (
    all_distance_sets,
    brute_patch,
    brute_refill,
    brute_sweep,
    brute_windows_consistent,
    kernel_states,
    pairs_clash,
    random_avoiding,
    random_bits,
    reference_sweep,
    unpruned_best,
)

D1, D23, D35 = DistanceSet.of(1), DistanceSet.of(2, 3), DistanceSet.of(3, 5)


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


def seeded(distances, length, arrivals):
    """A kernel of `distances` past `length` positions whose live entries are
    `arrivals`, (shadow, entry) pairs in the order a step visits them."""
    kernel = LineKernel(distances)
    kernel.bests = [(0, 0, 0)] * (length + 1)
    kernel.layer[kernel.ids[0]] = None
    kernel.live = [kernel._id(shadow) for shadow, _ in arrivals]
    for i, (_, entry) in zip(kernel.live, arrivals):
        kernel.layer[i] = entry
    return kernel


def kernel_keeps(first, second, length):
    """The entries a LineKernel step keeps of two of `length` positions, in
    both arrival orders: the best, once each ends in a new 1 (under {2,3}
    the 1s of shadows 0 and 2 lead apart), and the one that two 0s merge into
    (under {1} a 0 shifts shadows 0 and 1 both to shadow 0)."""
    kept, bit = [], 1 << length
    for a, b in ((first, second), (second, first)):
        best = seeded(D23, length, [(0, a), (2, b)]).entry(length + 1)
        kept.append((best[0] & ~bit, best[1] - 1, best[2] - length))
        kernel = seeded(D1, length, [(0, a), (1, b)])
        kernel.entry(length + 1)
        kept.append(kernel_states(kernel)[0])
    return kept


def t_key(mask, length):
    """The t-coefficients of the mask's indicator polynomial up to t**length,
    by `germs._t_series`: equal-length masks compare as their germs."""
    coeffs = [mask >> i & 1 for i in range(length)]
    return tuple(itertools.islice(itertools.chain(_t_series(coeffs), itertools.repeat(0)), length + 1))


class TestKernelComparison:
    def test_kernel_decides_as_germ_greater(self):
        # pairs drawn at random differ mostly in count; pairs of one count and
        # pairs tied on count and position sum exercise the later steps
        rng = random.Random(41)
        kinds = {"random": 0, "same count": 0, "tied": 0}
        for length in range(1, 15):
            groups = {}
            for _ in range(200):
                mask = rng.getrandbits(length)
                entry = _entry(mask)
                groups.setdefault(entry[1:], set()).add(entry)
                groups.setdefault(entry[1], set()).add(entry)
            draws = [_entry(rng.getrandbits(length)) for _ in range(100)]
            pairs = [("random", x, y) for x, y in zip(draws[::2], draws[1::2]) if x != y]
            for key, entries in groups.items():
                kind = "same count" if isinstance(key, int) else "tied"
                entries = sorted(entries)
                pairs += [(kind, x, y) for x in entries[:6] for y in entries[:6] if x != y]
            for kind, x, y in pairs:
                order = germ_cmp(_to_bits(x[0], length), _to_bits(y[0], length))
                assert (order == GREATER) == germ_greater(x, y) != germ_greater(y, x)
                want = x if order == GREATER else y
                assert kernel_keeps(x, y, length) == [want] * 4, (x, y)
                kinds[kind] += 1
        assert min(kinds.values()) > 500, kinds

    def test_every_tied_pair_up_to_twelve_bits(self):
        # every pair of distinct masks of one length tied on count and
        # position sum, where germ_greater reads the later t-orders off the
        # differing bits; the reference compares whole t-series.  The kernel
        # steps on every pair up to 10 bits (6,941; the 76,381 of 11 and 12
        # bits would take seconds), where each tie goes to germ_greater
        pairs = kept = 0
        for length in range(1, 13):
            classes = {}
            for mask in range(1 << length):
                entry = _entry(mask)
                classes.setdefault(entry[1:], []).append(entry)
            for entries in classes.values():
                keys = {entry: t_key(entry[0], length) for entry in entries}
                for x, y in itertools.combinations(entries, 2):
                    want = x if keys[x] > keys[y] else y
                    assert germ_greater(x, y) == (want is x) != germ_greater(y, x), (x, y)
                    if length <= 10:
                        assert kernel_keeps(x, y, length) == [want] * 4, (x, y)
                        kept += 1
                    pairs += 1
        assert pairs == 83322 and kept == 6941


# {10,11,12} has the most windows per shadow of the census sets (2,048 to
# 243); {5,11,12} ran the most kernel steps of a census round keyed by window
CENSUS_SHAPES = [
    DistanceSet.of(*d)
    for d in ((12,), (11, 12), (7, 9, 12), (1, 12), (5, 11, 12), (10, 11, 12))
]


class TestShadowKeys:
    @pytest.mark.parametrize(
        "distances", all_distance_sets(7) + CENSUS_SHAPES, ids=lambda d: d.to_text()
    )
    def test_every_key_is_the_shadow_of_its_entry(self, distances):
        # bit j of the key is set iff position length + j lies a forbidden
        # distance after a 1 of the entry: OR_d (mask << d) >> length
        norm = distances.norm
        kernel = LineKernel(distances)
        for length in range(1, 4 * norm + 1):
            kernel.entry(length)
            for key, (mask, _, _) in kernel_states(kernel).items():
                ones = [p for p in range(length) if mask >> p & 1]
                want = sum({1 << (p + d - length) for p in ones for d in distances
                            if p + d >= length})
                assert key == want, (length, _to_bits(mask, length))


class TestSiblingCut:
    """A new 1 that loses to its clashing sibling's 0 is dropped, exactly."""

    @pytest.mark.parametrize(
        "distances", all_distance_sets(7) + CENSUS_SHAPES, ids=lambda d: d.to_text()
    )
    def test_best_matches_the_dp_that_keeps_every_window(self, distances):
        # both callers of the one step loop: the kernel, and at lengths 1 to
        # 2 norm + 1 a patch after an all-zero left context, as the two-block
        # challenger runs it (its blocks may be shorter than the norm)
        norm = distances.norm
        rng = random.Random(distances.to_text())
        rights = range(1 << norm) if norm <= 6 else [rng.getrandbits(norm) for _ in range(64)]
        kernel = LineKernel(distances)
        for length in range(1, 4 * norm + 1):
            assert kernel.entry(length) == unpruned_best(distances, length, 0, 0), length
            if length <= 2 * norm + 1:
                run = local._patch_run(distances, length)
                for right in rights:
                    want = unpruned_best(distances, length, 0, right)
                    assert run(0, right) == want, (length, right)

    @pytest.mark.parametrize(
        "dset, length, windows",
        # without the cut: 4,096, 4,096, 730, 220 and 199 shadows; keyed by
        # the window of the last norm bits instead, 4,096, 4,096, 3,072, 672
        # and 199 windows, and 1, 1, 13, 524 and 130 with the cut from step norm
        [((12,), 24, 1), ((12,), 48, 1), ((11, 12), 48, 12), ((7, 9, 12), 48, 157),
         ((4, 7, 11), 132, 130)],
    )
    def test_window_counts(self, dset, length, windows):
        kernel = LineKernel(DistanceSet.of(*dset))
        kernel.entry(length)
        assert len(kernel_states(kernel)) == windows


CENSUS = [
    DistanceSet(dset) for size in (1, 2, 3) for dset in itertools.combinations(range(1, 13), size)
]


class TestCompiledKernel:
    """`LineKernel` steps a shadow automaton it compiles for itself; `_run_line`
    on the same model, a step at a time, keeps the same entry for every
    shadow and so the same best at every length."""

    @pytest.mark.parametrize("norm", range(1, 13))
    def test_every_step_matches_the_line_loop(self, norm):
        # every D inside {1..9} and every census set of this norm, lengths 0
        # to 4 norm + 1; a D with g = gcd(D) > 1 steps D/g's kernel
        cases = {d for d in all_distance_sets(min(norm, 9)) + CENSUS if d.norm == norm}
        for distances in sorted(cases, key=lambda d: d.distances):
            kernel = LineKernel(distances)
            stepping = kernel.classes or kernel
            model, states = stepping.model, {0: (0, 0, 0)}
            for n in range(4 * norm + 2):
                if n:
                    states = local._run_line(model, states, n - 1, (model.grow,))
                best = None
                for entry in states.values():
                    if best is None or germ_greater(entry, best):
                        best = entry
                assert stepping.entry(n) == best, (distances, n)
                assert kernel_states(stepping) == states, (distances, n)
                # an even shadow's sibling gets its id when the shadow compiles
                for shadow, step in zip(stepping.shadows, stepping.succ):
                    if step is not None and not shadow & 1:
                        assert step[2] == stepping.ids.get(shadow | 1), (distances, n, shadow)
            assert len(stepping.bests) == 4 * norm + 2


class TestPatchRun:
    """`local._patch_run`: the kernel's shadows bounded by both contexts,
    merged once they agree on every position left in the patch."""

    @pytest.mark.parametrize("distances", all_distance_sets(6), ids=lambda d: d.to_text())
    def test_matches_the_dp_that_keeps_every_window(self, distances):
        # pairs that cast one start shadow share one filling, the premise of
        # the run's memo; an all-zero left context with every length from 1
        # is how the two-block challenger calls the run
        norm = distances.norm
        contexts = list(enumerate_avoiding(distances, norm))
        shared = 0
        for length in range(1, 2 * norm + 2):
            run, by_shadow = local._patch_run(distances, length), {}
            for left in contexts if length >= norm else ["0" * norm]:
                for right in contexts:
                    want = unpruned_best(distances, length, _to_mask(left), _to_mask(right))
                    shadow = start_shadow(distances, left, right, length)
                    shared += shadow in by_shadow
                    assert by_shadow.setdefault(shadow, want) == want, (length, left, right)
                    assert run(_to_mask(left), _to_mask(right)) == want, (length, left, right)
        assert shared > 0

    def test_free_positions_that_avoid_are_the_best_filling(self):
        # every D inside {1..9} with at most three distances, patch lengths
        # norm - 2 to norm + 3 (a two-block challenger asks lengths below the
        # norm, after an all-zero left context) and random contexts: a run
        # equals a plain _run_line from its start shadow, which masks every
        # step, and up to 12 bits the best of every filling
        rng = random.Random(52)
        fast = Counter()
        for size in (1, 2, 3):
            for dset in itertools.combinations(range(1, 10), size):
                d = DistanceSet(dset)
                norm, model = d.norm, d._windows
                for length in range(max(norm - 2, 1), norm + 4):
                    run, whole = local._patch_run(d, length), (1 << length) - 1
                    every = range(1 << length) if length <= 12 else ()
                    fillings = [m for m in every if not any(m & m >> k for k in dset)]
                    for left in (0, rng.getrandbits(norm), rng.getrandbits(norm)):
                        right = rng.getrandbits(norm)
                        start = start_shadow(d, _to_bits(left, norm), _to_bits(right, norm), length)
                        grown = (model.grow & model.live(length - pos - 1) for pos in range(length))
                        want = local._run_line(model, {start: (0, 0, 0)}, 0, grown)
                        assert run(left, right) == want[0], (dset, length, left, right)
                        fast[not pairs_clash(_to_bits(whole ^ start, length), d)] += 1
                        if fillings:
                            assert want[0] == best_filling(fillings, d, length, left, right)
        assert fast[True] > 1000 and fast[False] > 500

    def test_patch_runs_pick_the_best_of_every_filling(self):
        # a patch of length norm between every pair of avoiding contexts,
        # against every avoiding string that holds them
        for distances in all_distance_sets(6):
            norm = distances.norm
            best = {}
            for s in enumerate_avoiding(distances, 3 * norm):
                key = (_to_mask(s[:norm]), _to_mask(s[2 * norm:]))
                entry = _entry(_to_mask(s[norm: 2 * norm]))
                if key not in best or germ_greater(entry, best[key]):
                    best[key] = entry
            run = local._patch_run(distances, norm)
            assert {key: run(*key) for key in best} == best, distances

    def test_live_bits_match_their_definition(self):
        # shadow bit j is position j ahead: live iff some avoiding filling of
        # the next r positions holds a 1 there (a lone 1 always avoids)
        for distances in all_distance_sets(6):
            norm, model = distances.norm, distances._windows
            for remaining in range(2 * norm + 2):
                want = 0
                for filling in enumerate_avoiding(distances, remaining):
                    want |= _to_mask(filling) & ((1 << norm) - 1)
                assert model.live(remaining) == want, (distances, remaining)

    def test_sweeps_and_rewrites_match_the_string_reference(self):
        # patches up to 2 norm + 1 long, where bits stay live past the first
        # step and windows merge late
        rng = random.Random(49)
        changed = 0
        for distances in rng.sample(all_distance_sets(6), 20):
            norm = distances.norm
            for length in range(norm, min(2 * norm + 1, 10) + 1):
                w = random_avoiding(rng, distances, rng.randrange(30, 61))
                expected = brute_sweep(w, length, distances)
                assert sweep_to_fixpoint(w, length, distances) == expected, (w, length)
                changed += expected != w
                for t in range(norm, len(w) - length - norm + 1):
                    want = brute_refill(w, t, length, distances)
                    assert improve_at(w, t, length, distances) == want, (w, length, t)
        assert changed > 20

    def test_a_lone_distance_patch_holds_one_window(self):
        # {12} over 12 positions: a 1 of the patch shadows only the position
        # 12 on, past the patch, so the bit it sets is dead as it is written
        # and both choices lead to one shadow; a model capped at one never
        # refuses
        rng = random.Random(48)
        distances = DistanceSet.of(12)
        distances._windows.most = 1
        run = local._patch_run(distances, 12)
        rights = [0, (1 << 12) - 1] + [rng.getrandbits(12) for _ in range(2)]
        for left in range(1 << 12):
            for right in rights:
                mask = run(left, right)[0]
                assert mask == ~(right | left) & 0xFFF, (left, right)


class TestResidueClasses:
    """D with g = gcd(D) > 1 is solved on D/g: its germ-best strings are D/g's,
    interleaved over the residue classes mod g (`local._interleave`)."""

    SCALED = [
        DistanceSet(dset)
        for size in (1, 2, 3)
        for dset in itertools.combinations(range(1, 13), size)
        if gcd(*dset) > 1
    ]

    @staticmethod
    def _unreduced(distances, top):
        # `_run_line` stepped from shadow 0 on D's own model, as the kernel
        # stepped before the reduction
        model, states, bests = distances._windows, {0: (0, 0, 0)}, [(0, 0, 0)]
        for n in range(1, top + 1):
            states = local._run_line(model, states, n - 1, (model.grow,))
            best = None
            for entry in states.values():
                if best is None or germ_greater(entry, best):
                    best = entry
            bests.append(best)
        return bests

    @pytest.mark.parametrize("distances", SCALED, ids=lambda d: d.to_text())
    def test_matches_the_unreduced_run(self, distances):
        top = 4 * distances.norm + 1
        want = self._unreduced(distances, top)
        for n in range(1, min(top, 14) + 1):
            assert _to_bits(want[n][0], n) == brute_best(distances, n), n
            assert _entry(want[n][0]) == want[n], n
        kernel = LineKernel(distances)
        assert kernel.classes is not None
        assert [kernel.entry(n) for n in range(top + 1)] == want  # ascending
        lengths = list(range(top + 1))
        random.Random(top).shuffle(lengths)
        kernel = LineKernel(distances)
        for n in lengths:
            assert kernel.entry(n) == want[n], n
        assert len(kernel.bests) == top + 1
        for n in range(1, top + 1):
            assert local._best_entry(distances, n) == want[n], n

    def test_cap_errors_name_the_callers_distances(self):
        # {2,80} runs {1,40}, whose shadows pass the cap; the error names
        # the distances the caller gave
        scaled = DistanceSet.of(2, 80)
        assert scaled._classes[1] == DistanceSet.of(1, 40)
        with pytest.raises(ValueError, match=re.escape("distances {2,80} need up to ")):
            LineKernel(scaled).entry(80)
        with pytest.raises(ValueError, match=re.escape("distances {2,80} need up to ")):
            local._best_entry(scaled, 160)
        with pytest.raises(ValueError, match=re.escape("distances {1,40} need up to ")):
            local._best_entry(DistanceSet.of(1, 40), 80)


class TestPatchContext:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PatchContext("00", "0", 3)

    def test_patch_length_positive(self):
        with pytest.raises(ValueError):
            PatchContext("00", "00", 0)

    @pytest.mark.parametrize("length", [0, -1, True, 5.0, "5", None])
    def test_patch_length_must_be_a_positive_int(self, length):
        with pytest.raises(ValueError, match="patch length must be a positive integer, got"):
            PatchContext("00000", "00000", length)

    @pytest.mark.parametrize("left, right", [(list("00000"), "00000"), ("00000", 0)])
    def test_contexts_must_be_strs(self, left, right):
        with pytest.raises(ValueError, match="context must be a string of 0s and 1s"):
            PatchContext(left, right, 5)


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
        with pytest.raises(ValueError, match="out of range"):
            improve_at(w, 6, 10**12, D35)  # before any int of 10**12 bits is built

    def test_input_must_avoid(self):
        with pytest.raises(ValueError):
            improve_at("1100100000000000", 6, 5, D35)

    @pytest.mark.parametrize("position", [True, 6.0, "6", None, -1])
    def test_position_must_be_an_int(self, position):
        # position=True used to rewrite at 1
        with pytest.raises(ValueError, match="position must be a non-negative integer, got"):
            improve_at("0" * 20, position, 5, DistanceSet.of(1))

    @pytest.mark.parametrize("length", [True, 5.0, "5"])
    def test_patch_length_must_be_an_int(self, length):
        with pytest.raises(ValueError, match="patch length must be a positive integer, got"):
            improve_at("0" * 20, 6, length, D35)

    def test_a_lone_large_distance_fills_its_patch(self):
        # bits of {40} die as the patch writes them, so the run holds one
        # shadow; the unbounded kernel would hold 2**k after k steps
        out = improve_at("0" * 120, 40, 40, DistanceSet.of(40))
        assert out == "0" * 40 + "1" * 40 + "0" * 40

    def test_a_patch_whose_bits_stay_live_meets_the_cap(self):
        # over 80 positions, every bit of {40} stays live for 40 steps, but
        # gcd 40 divides 80, so the patch is 40 class patches of 2 bits under
        # {1}; {39,40} has gcd 1 and keeps its 40-bit shadows, and {38,40}
        # runs as {19,20}, whose shadows also pass the cap, under D's name
        d40 = DistanceSet.of(40)
        assert improve_at("0" * 160, 40, 80, d40) == "0" * 40 + "1" * 40 + "0" * 80
        assert winner_windows_consistent(RationalSet("", "1" * 40 + "0" * 40), d40, 80)
        for d, shadows in (((39, 40), "35982 line-DP shadows of 40 bits at length 18"),
                           ((38, 40), "63144 line-DP shadows of 20 bits at length 19")):
            message = (
                f"distances {{{d[0]},{d[1]}}} need up to {shadows}, "
                "over the cap of 1048576 shadow bits"
            )
            distances = DistanceSet(d)
            with pytest.raises(ValueError, match=re.escape(message)):
                improve_at("0" * 160, 40, 80, distances)
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep_to_fixpoint("0" * 160, 80, distances)
            with pytest.raises(ValueError, match=re.escape(message)):
                winner_windows_consistent(RationalSet.empty(), distances, 80)


def best_filling(fillings, distances, length, left, right):
    """The germ-best of `fillings`, patch masks, that meets no 1 of the left
    and right contexts (norm-bit masks) at a forbidden distance."""
    norm = distances.norm
    patch, best = ((1 << length) - 1) << norm, None
    for mask in fillings:
        line = left | mask << norm | right << (norm + length)
        if any(line & line >> d & (patch | patch >> d) for d in distances):
            continue  # a pair i, i + d of 1s, one of them in the patch
        entry = _entry(mask)
        if best is None or germ_greater(entry, best):
            best = entry
    return best


def lying_run(filling, calls):
    """A stand-in for `local._patch_run` whose every run ends in `filling`;
    `calls` gets one entry per run."""

    def make(distances, length):
        def run(left, right):
            calls.append(left)
            if len(calls) > 10_000:
                raise RuntimeError("sweep never stopped")
            return _entry(_to_mask(filling))

        return run

    return make


def start_shadow(distances, left, right, length):
    """The patch positions a forbidden distance from a 1 of the left or the
    right context, bit strings of norm bits, as a mask: bit p is position p."""
    norm = distances.norm
    ones = {i - norm for i, bit in enumerate(left) if bit == "1"}
    ones |= {length + j for j, bit in enumerate(right) if bit == "1"}
    shadowed = {p for p in range(length) for d in distances if p - d in ones or p + d in ones}
    return sum(1 << p for p in shadowed)


def swept_strings(bits, length, distances):
    """The (string, patch length, distances) sweeps `sweep_to_fixpoint` makes
    of `bits`: each residue class string mod g = gcd(D) under D/g with patch
    length L/g when g > 1 divides L and the string holds a D position, else
    `bits` itself under D."""
    g, reduced = distances._classes
    if length % g or len(bits) < length + 2 * distances.norm:
        g, reduced = 1, distances
    return [(bits[r::g], length // g, reduced) for r in range(g)]


def counting_line(starts):
    """`local._run_line`, recording the shadows every run starts from in `starts`."""
    real = local._run_line

    def run_line(model, states, start, grown_bits):
        starts.extend(states)
        return real(model, states, start, grown_bits)

    return run_line


def counting_run(calls):
    """`local._patch_run`, recording the (left, right) contexts of every run
    in `calls` as bit strings."""
    real = local._patch_run

    def make(distances, length):
        inner = real(distances, length)

        def run(left, right):
            norm = distances.norm
            calls.append((_to_bits(left, norm), _to_bits(right, norm)))
            return inner(left, right)

        return run

    return make


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
        # positions 5 and 6 share the all-zero contexts; the filling 01000 is
        # what the patch at 5 already holds, and moves the 1 of the patch at
        # 6 (10000) later
        calls = []
        monkeypatch.setattr(local, "_patch_run", lying_run("01000", calls))
        with pytest.raises(AssertionError, match="did not raise the germ"):
            sweep_to_fixpoint("000000" + "10000" + "0" * 9, 5, D35)
        assert len(calls) == 1

    def test_a_rewrite_that_clashes_with_its_context_is_refused(self, monkeypatch):
        # at position 5, the first the sweep visits, a 1 at position 7 sits 3
        # before the right context's 1 at position 10
        monkeypatch.setattr(local, "_patch_run", lying_run("00100", []))
        with pytest.raises(AssertionError, match="broke avoidance"):
            sweep_to_fixpoint("0" * 10 + "1" + "0" * 9, 5, D35)

    def test_the_rise_check_decides_as_germ_greater(self):
        # every pair of distinct masks of up to 10 bits with one count, the
        # ones whose counts tie; where their position sums tie too, the
        # check falls back on germ_greater
        by_count, entries = {}, {}
        for mask in range(1 << 10):
            by_count.setdefault(mask.bit_count(), []).append(mask)
            entries[mask] = _entry(mask)

        def rises(old, new):
            try:
                local._check_rewrite(old, new, 0)
            except AssertionError:
                return False
            return True

        ties = 0
        for masks in by_count.values():
            for x, y in itertools.combinations(masks, 2):
                want = germ_greater(entries[y], entries[x])
                assert rises(x, y) == want != rises(y, x), (x, y)
                ties += entries[x][2] == entries[y][2]
        assert ties > 1000

    def test_input_must_avoid(self):
        # 1 and 4 lie 3 apart
        with pytest.raises(ValueError, match="^input string must avoid the distances$"):
            sweep_to_fixpoint("0100100000" * 2, 5, D35)

    def test_patch_length_checked_before_any_rewrite(self):
        # a string too short for any rewrite still gets its patch length checked
        for bits in ("0000", "0" * 20):
            for ell in (0, -2, 2):
                with pytest.raises(ValueError, match="patch length must"):
                    sweep_to_fixpoint(bits, ell, D35)

    def test_a_pass_is_linear_in_the_string(self):
        # a pass slides the window of the patch and its contexts along the
        # string: 320,000 bits of {3,5}'s winner, a fixpoint, took 0.34 s on
        # a 2-vCPU VM, where a pass that shifted the whole string's mask at
        # each position took 17.2 s
        bits = "10" * 160_000
        began = time.perf_counter()
        assert sweep_to_fixpoint(bits, 5, D35) == bits
        assert time.perf_counter() - began < 2.0

    @pytest.mark.parametrize("length", [True, 5.0, "5", None])
    def test_patch_length_must_be_an_int(self, length):
        # True used to die in a format specifier, 5.0 with a TypeError
        with pytest.raises(ValueError, match="patch length must be a positive integer, got"):
            sweep_to_fixpoint("0" * 20, length, DistanceSet.of(1))


# perfbench's LOCAL_SWEEP_SETS with norm <= 8
SWEEP_SHAPES = (
    (1,), (1, 2), (1, 2, 3), (1, 2, 4), (1, 3), (1, 3, 5), (2,), (2, 4), (2, 4, 6),
    (2, 4, 7), (2, 5), (2, 5, 8), (3,), (3, 6), (3, 7), (4,), (4, 8), (5,), (6,),
    (7,), (8,),
)


class TestSweepMemo:
    def test_matches_the_reference_sweep(self):
        rng = random.Random(45)
        changed = 0
        for shape in SWEEP_SHAPES:
            d = DistanceSet(shape)
            for _ in range(4):
                w = random_avoiding(rng, d, rng.randrange(60, 121))
                length = d.norm + rng.randrange(3)
                expected = reference_sweep(w, length, d)[0]
                assert sweep_to_fixpoint(w, length, d) == expected
                changed += expected != w
        assert changed > 2 * len(SWEEP_SHAPES)

    def test_each_context_reaches_the_kernel_once(self, monkeypatch):
        # on a class path, once across all the classes, which share a memo
        rng = random.Random(46)
        classes = 0
        for shape in SWEEP_SHAPES:
            d = DistanceSet(shape)
            w = random_avoiding(rng, d, rng.randrange(60, 121))
            expected = reference_sweep(w, d.norm, d)[0]
            sweeps = swept_strings(w, d.norm, d)
            contexts = set().union(*(reference_sweep(*sweep)[1] for sweep in sweeps))
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(local, "_patch_run", counting_run(calls))
                assert sweep_to_fixpoint(w, d.norm, d) == expected
            assert len(calls) == len(set(calls)) == len(contexts)
            assert set(calls) == contexts
            classes += len(sweeps) > 1
        assert classes == 11

    def test_each_start_shadow_reaches_the_kernel_once(self, monkeypatch):
        # a start shadow whose free positions clash is run once, across all
        # the classes on a class path, and one whose free positions avoid is
        # filled by them and never run; {5,10} on zeros: at ell 11, on D, 29
        # context pairs cast 25 start shadows, and the free positions of 10
        # of them clash; at ell 10, on the five classes under {1,2} with
        # patch length 2, 5 context pairs cast 4 shadows, and 1 clashes
        rng = random.Random(50)
        zeros = "0" * 60
        cases = [(DistanceSet.of(5, 10), zeros, 11), (DistanceSet.of(5, 10), zeros, 10)]
        for shape in SWEEP_SHAPES:
            d = DistanceSet(shape)
            w = random_avoiding(rng, d, rng.randrange(60, 121))
            cases.append((d, w, d.norm + rng.randrange(3)))
        sizes = []
        for d, w, length in cases:
            expected = reference_sweep(w, length, d)[0]
            sweeps = swept_strings(w, length, d)
            contexts = set().union(*(reference_sweep(*sweep)[1] for sweep in sweeps))
            _, ell, dd = sweeps[0]
            shadows = {start_shadow(dd, left, right, ell) for left, right in contexts}
            whole = (1 << ell) - 1
            clashing = {s for s in shadows if pairs_clash(_to_bits(whole ^ s, ell), dd)}
            starts = []
            with monkeypatch.context() as patch:
                patch.setattr(local, "_run_line", counting_line(starts))
                assert sweep_to_fixpoint(w, length, d) == expected
            assert len(starts) == len(set(starts))
            assert set(starts) == clashing
            sizes.append((len(contexts), len(shadows), len(clashing)))
        assert sizes[:2] == [(29, 25, 10), (5, 4, 1)]
        assert all(shadows > clashing for _, shadows, clashing in sizes)

    def test_winner_check_computes_each_context_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(local, "_patch_run", counting_run(calls))
        d = DistanceSet.of(3, 5)
        assert winner_windows_consistent(RationalSet("", "10"), d, d.norm)
        # the period-2 winner shows only two context pairs
        assert sorted(calls) == [("01010", "01010"), ("10101", "10101")]


def sweep_outcome(sweep, *args):
    """What `sweep(*args)` returns, or the type and message of its ValueError."""
    try:
        return sweep(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestClassSweep:
    """`sweep_to_fixpoint`, which sweeps the residue classes mod g = gcd(D) on
    D/g when g divides the patch length, against `helpers.reference_sweep`,
    which fills every patch with `best_patch` on D's own shadows, after the
    same checks: the same strings and the same errors."""

    SCALED = [
        DistanceSet(dset)
        for size in (1, 2, 3)
        for dset in itertools.combinations(range(1, 16), size)
        if gcd(*dset) > 1
    ]

    @staticmethod
    def _on_d(bits, length, distances):
        if not is_avoiding(bits, distances):
            raise ValueError("input string must avoid the distances")
        if length < distances.norm:
            raise ValueError("patch length must be at least the largest distance")
        return reference_sweep(bits, length, distances)[0]

    @pytest.mark.parametrize("distances", SCALED, ids=lambda d: d.to_text())
    def test_matches_the_sweep_on_d(self, distances):
        rng = random.Random(distances.to_text())
        g, norm = distances._classes[0], distances.norm
        seen = Counter()
        # norm, norm + g and 2·norm sweep the classes, norm + 1 stays on D,
        # and norm - 1 is refused
        for length in (norm, norm + g, 2 * norm, norm + 1, norm - 1):
            sizes = {0, 5, 2 * norm + length - 1, 2 * norm + length, 97, 240, 241}
            strings = [random_avoiding(rng, distances, size) for size in sorted(sizes)]
            clash = ["0"] * (2 * norm + length)
            clash[0] = clash[distances.distances[0]] = "1"
            strings += ["".join(clash), "01" * norm + "2"]
            errors = 0
            for bits in strings:
                want = sweep_outcome(self._on_d, bits, length, distances)
                assert sweep_outcome(sweep_to_fixpoint, bits, length, distances) == want
                if isinstance(want, tuple):
                    errors += 1
                else:
                    classes = not length % g and len(bits) >= length + 2 * norm
                    seen[classes, want != bits] += 1
            assert errors == (len(strings) if length < norm else 2)
        assert seen[True, True] and seen[False, True]

    def test_a_class_sweep_fits_under_the_cap_where_d_does_not(self):
        # {40} at patch length 80 runs 40 classes of 2-bit patches under
        # {1}, for all three patch functions, where D's own patch run
        # passes the cap
        d40 = DistanceSet.of(40)
        fixed = "0" * 40 + "1" * 40 + "0" * 80
        assert sweep_to_fixpoint("0" * 160, 80, d40) == fixed
        assert improve_at("0" * 160, 40, 80, d40) == fixed
        assert winner_windows_consistent(RationalSet("", "1" * 40 + "0" * 40), d40, 80)
        with pytest.raises(ValueError, match="over the cap"):
            self._on_d("0" * 160, 80, d40)


ACCEPTANCE_WINNER_SETS = ((3, 5), (1, 3, 6, 8), (1, 2), (2, 4, 7), (2, 4, 13))


class TestAgainstTheBruteSweep:
    """The mask sweep against a string sweep that fills each patch by trying
    every filling (`helpers.brute_sweep`), never running the kernel."""

    def test_sweeps_and_single_rewrites_match(self):
        rng = random.Random(47)
        changed = 0
        for shape in SWEEP_SHAPES:
            d = DistanceSet(shape)
            for length in range(d.norm, d.norm + 3):
                w = random_avoiding(rng, d, rng.randrange(60, 121))
                expected = brute_sweep(w, length, d)
                assert sweep_to_fixpoint(w, length, d) == expected, (shape, length, w)
                changed += expected != w
                for t in range(d.norm, len(w) - length - d.norm + 1):
                    want = brute_refill(w, t, length, d)
                    assert improve_at(w, t, length, d) == want, (shape, length, w, t)
        assert changed > 2 * len(SWEEP_SHAPES)

    @pytest.mark.parametrize("dset", ACCEPTANCE_WINNER_SETS, ids=str)
    def test_winner_checks_match(self, dset):
        d = DistanceSet(dset)
        winner = find_winner(d).certificate.winner
        seen = set()
        for length in range(d.norm, d.norm + 3):
            for s in (winner, RationalSet.empty()):
                want = brute_windows_consistent(s, d, length)
                assert winner_windows_consistent(s, d, length) == want, (s, length)
                seen.add(want)
        assert seen == {True, False}


class TestWinnerConsistency:
    def test_certified_winners_hold_their_patches(self):
        for dset in [(3, 5), (1, 3, 6, 8), (1, 2), (2, 4, 7), (2, 4, 13)]:
            d = DistanceSet.of(*dset)
            winner = find_winner(d).certificate.winner
            assert winner_windows_consistent(winner, d, d.norm)

    def test_improvable_set_fails_the_check(self):
        # the empty set leaves every window improvable
        assert not winner_windows_consistent(RationalSet.empty(), D35, 6)

    def test_an_inconsistent_set_stops_at_its_first_rewrite(self, monkeypatch):
        # the first change decides, so it is checked and the sweep stops;
        # a sweep of this set to a fixpoint makes 23 checked rewrites
        calls, real = [], local._check_rewrite
        monkeypatch.setattr(local, "_check_rewrite", lambda *args: calls.append(args) or real(*args))
        assert not winner_windows_consistent(RationalSet("", "0" * 60 + "1"), DistanceSet.of(3, 6, 10), 10)
        assert len(calls) == 1

    def test_a_set_that_does_not_avoid_fails_the_check(self):
        # 0 and 1 lie 1 apart, before the first patch at 2, which every
        # window check used to pass
        assert not winner_windows_consistent(RationalSet("1", "100"), DistanceSet.of(1, 2), 2)
