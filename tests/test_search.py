"""Winner search: dynamic programs, repeatable windows, symmetry, certificates."""

import itertools
import json
import random
import sys
import threading
import time
import warnings
from collections import Counter

import pytest

from germpack import (
    GREATER,
    LESS,
    REPEATABLE_WINDOW,
    SYMMETRIC_OFFSET,
    TWO_BLOCK_INDUCTION,
    Certificate,
    DistanceSet,
    IntPolynomial,
    RationalSet,
    SearchBudget,
    best_string,
    brute_best,
    brute_best_periodic,
    certify_two_block,
    enumerate_avoiding,
    find_repeatable_winner,
    find_winner,
    is_avoiding,
    is_repeatable,
    poly_germ_compare,
    set_compare,
    symmetric_winner,
    symmetry_offset,
    valuation,
)
from germpack import local, search, sets
from germpack.local import LineKernel
from germpack.search import _two_block_challenger
from germpack.sets import _to_bits, _to_mask
from helpers import (
    all_distance_sets,
    brute_two_block,
    cantor_gordon_density,
    counted_line_work,
    karp_density,
    kernel_states,
    random_avoiding,
    random_bits,
)

D35 = DistanceSet.of(3, 5)

# known germ-maximal avoiding strings, (distances, length) -> string
CATALOG = {
    ((3, 5), 6): "111000",
    ((3, 5), 8): "10101010",
    ((1, 3, 4), 7): "1010000",
    ((2, 3, 5), 7): "1100000",
    ((2, 3, 6), 9): "110001000",
    ((2, 3, 7), 10): "1100011000",
    ((3, 4, 7), 10): "1110000000",
    ((1, 2, 6), 7): "1001000",
    ((1, 2, 9), 10): "1001001000",
}


class TestBestString:
    @pytest.mark.parametrize("key,want", sorted(CATALOG.items()))
    def test_catalog(self, key, want):
        dset, length = key
        assert best_string(DistanceSet.of(*dset), length) == want

    def test_empty_distances_give_all_ones(self):
        assert best_string(DistanceSet(), 5) == "11111"

    def test_agrees_with_oracle_on_small_cases(self):
        for distances in all_distance_sets(4):
            for length in range(1, 11):
                assert best_string(distances, length) == brute_best(distances, length)

    def test_agrees_with_oracle_at_length_twenty(self):
        # lengths 19..20 for every distance set inside {1..6}; the acceptance
        # suite covers all lengths up to 18
        for distances in all_distance_sets(6):
            for length in (19, 20):
                assert best_string(distances, length) == brute_best(distances, length)

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            best_string(D35, 0)

    def test_length_must_be_an_int(self):
        best_string(D35, 2)  # a bests table keyed by length now holds 2
        for length in (True, False, 2.0, "2", None):
            with pytest.raises(ValueError, match="length must be a positive integer"):
                best_string(D35, length)

    def test_lengths_past_the_kept_masks(self):
        # search and verify ask for no length past MAX_EVIDENCE_BITS, but a
        # public best_string may; it reads a bounded patch run, and a kernel
        # asked for one length records every length up to it
        distances = DistanceSet.of(2, 4, 7)
        for length in (12, 3, 9, 15, 11, 1, 14):
            assert best_string(distances, length) == brute_best(distances, length)
            kernel = LineKernel(distances)
            assert _to_bits(kernel.entry(length)[0], length) == brute_best(distances, length)
            assert len(kernel.bests) == length + 1
            assert all(isinstance(entry[0], int) for entry in kernel.bests)
        past = search.MAX_EVIDENCE_BITS + 5
        kernel = LineKernel(distances)
        assert best_string(distances, past) == _to_bits(kernel.entry(past)[0], past)

    def test_lengths_past_the_string_cap_are_refused(self):
        # a run costs time quadratic in its length; the cap is twice the
        # longest string search and verify ask for
        cap = search.MAX_STRING_BITS
        assert cap == 2 * search.MAX_EVIDENCE_BITS == 8192
        assert best_string(D35, cap) == "10" * (cap // 2)
        for length, named in ((cap + 1, "8193"), (10**7, "10000000"), (10**100, "<333-bit number>")):
            with pytest.raises(ValueError, match=f"^length {named} is over the cap of 8192$"):
                best_string(D35, length)

    def test_threads_share_one_growing_run(self):
        # the search keeps no run between calls, so each best_string call
        # reads a bounded patch run of its own and threads share none; any
        # state shared by accident would hand some length the best string of
        # another
        distances = DistanceSet.of(3, 7, 12)
        lengths = range(1, 61)
        want = {n: best_string(distances, n) for n in lengths}
        start = threading.Barrier(6)
        got, errors = [], []

        def ask(stride):
            # a negative stride asks in descending order
            try:
                start.wait(timeout=60)
                got.extend((n, best_string(distances, n)) for n in lengths[::stride])
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            strides = (1, -2, 3, -1, 2, -3)
            threads = [threading.Thread(target=ask, args=(stride,)) for stride in strides]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(got) == 2 * (60 + 30 + 20) and all(want[n] == bits for n, bits in got)


class TestLazyRun:
    """A run gives each length its germ-best string in any ask order."""

    @staticmethod
    def _orders(distances, top):
        lengths = list(range(1, top + 1))
        pair_sums = sorted(s for s in search._pair_sums(distances) if distances.norm < s <= top)
        doubled = [n for size in range(1, top // 2 + 1) for n in (size, 2 * size)]
        return {
            "ascending": lengths,
            "descending": lengths[::-1],
            # find_repeatable_winner's order, then the lengths it never asks
            "pair sums first": pair_sums + [n for n in lengths if n not in pair_sums],
            # find_winner's two-block order, then the odd lengths past top / 2
            "size then double": doubled + [n for n in lengths if n not in doubled],
        }

    def test_every_ask_order_gives_the_best_string(self, monkeypatch):
        built = []

        class CountedKernel(LineKernel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(search, "LineKernel", CountedKernel)
        census = [DistanceSet.of(*d) for d in ((12,), (5, 12), (1, 7, 12), (4, 9, 12))]
        top = 60
        for distances in all_distance_sets(6) + census:
            kernel = LineKernel(distances)  # asked in ascending order, from scratch
            fresh = [None] + [_to_bits(kernel.entry(n)[0], n) for n in range(1, top + 1)]
            brute = {n: brute_best(distances, n) for n in range(1, 15)}
            assert all(fresh[n] == bits for n, bits in brute.items())
            for name, order in self._orders(distances, top).items():
                built.clear()
                kernel = search.LineKernel(distances)
                for n in order:
                    assert _to_bits(kernel.entry(n)[0], n) == fresh[n], (distances, name, n)
                # one kernel, nothing rebuilt, every length recorded once
                assert len(built) == 1 and len(kernel.bests) == top + 1


class TestPrefixExtension:
    def test_greater_prefix_stays_greater(self):
        # germ order on equal-length strings survives any common extension
        rng = random.Random(31)
        for _ in range(500):
            n = rng.randrange(1, 20)
            a, b = random_bits(rng, n), random_bits(rng, n)
            x = random_bits(rng, rng.randrange(0, 12))
            before = poly_germ_compare(IntPolynomial.from_bits(a), IntPolynomial.from_bits(b))
            after = poly_germ_compare(
                IntPolynomial.from_bits(a + x), IntPolynomial.from_bits(b + x)
            )
            assert before == after


class TestRepeatable:
    def test_alternating_window_repeats(self):
        assert is_repeatable("10101010", D35)

    def test_run_window_does_not(self):
        assert not is_repeatable("111000", D35)

    def test_single_one_per_period(self):
        assert is_repeatable("100", DistanceSet.of(1, 2))

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            is_repeatable("10101", D35)

    @pytest.mark.parametrize("window", [list("10101010"), 10101010])
    def test_window_must_be_a_str(self, window):
        with pytest.raises(ValueError, match="window must be a string of 0s and 1s"):
            is_repeatable(window, D35)


class TestFindRepeatableWinner:
    def test_three_five(self):
        cert = find_repeatable_winner(D35, 8)
        assert cert is not None and cert.kind == REPEATABLE_WINDOW
        assert cert.evidence == {"window_length": 8, "window": "10101010"}
        assert cert.winner == RationalSet("", "10")

    def test_two_three_six(self):
        cert = find_repeatable_winner(DistanceSet.of(2, 3, 6), 9)
        assert cert is not None
        assert cert.winner == RationalSet("", "110001000")

    def test_absent_for_nonperiodic_winner(self):
        assert find_repeatable_winner(DistanceSet.of(2, 4, 7), 12) is None

    def test_window_bound_validated(self):
        with pytest.raises(ValueError):
            find_repeatable_winner(D35, 5)


class TestSymmetry:
    def test_offset_examples(self):
        assert symmetry_offset(DistanceSet.of(1, 3, 6, 8)) == 9
        assert symmetry_offset(DistanceSet.of(1, 2, 5)) is None
        assert symmetry_offset(DistanceSet.of(2, 4, 7)) is None
        for k in (2, 3, 5, 8):
            assert symmetry_offset(DistanceSet.of(*range(1, k))) == k

    def test_offset_is_norm_plus_smallest_or_none(self):
        # d -> k - d maps the smallest distance to the largest, so no other k
        # can work; compared with the scan over every k up to 2 * norm
        for distances in all_distance_sets(9):
            norm = distances.norm
            scan = [
                k for k in range(norm + 1, 2 * norm + 1)
                if search._is_symmetry_offset(distances, k)
            ]
            assert symmetry_offset(distances) == (scan[0] if scan else None)
            assert len(scan) <= 1

    def test_offset_test_matches_its_definition(self):
        # k - d in D for every d, tested as the sorted distances paired with
        # their reversal, in time linear in the number of distances
        for distances in all_distance_sets(9):
            for k in range(1, 2 * distances.norm + 1):
                want = k > distances.norm and all((k - d) in distances.distances for d in distances)
                assert search._is_symmetry_offset(distances, k) == want, (distances, k)
        assert symmetry_offset(DistanceSet(tuple(range(1, 20001)))) == 20001

    def test_offset_checks_one_candidate(self, monkeypatch):
        # a lone huge distance must not be scanned k by k up to twice its size
        checked = []
        is_offset = search._is_symmetry_offset

        def counted(distances, k):
            checked.append(k)
            if len(checked) > 3:
                raise AssertionError("symmetry_offset tried more than three offsets")
            return is_offset(distances, k)

        monkeypatch.setattr(search, "_is_symmetry_offset", counted)
        assert symmetry_offset(DistanceSet.of(10**9)) == 2 * 10**9
        assert symmetry_offset(DistanceSet.of(3, 5, 10**9)) is None
        assert len(checked) == 2

    def test_offset_needs_nonempty_distances(self):
        with pytest.raises(ValueError):
            symmetry_offset(DistanceSet())

    def test_circulant_winner(self):
        cert = symmetric_winner(DistanceSet.of(1, 3, 6, 8))
        assert cert is not None and cert.kind == SYMMETRIC_OFFSET
        assert cert.evidence["offset"] == 9
        assert cert.winner == RationalSet("", "101010000")
        # residues 0, 2, 4 mod 9
        assert sorted(cert.winner.elements(18)) == [0, 2, 4, 9, 11, 13]

    def test_full_block_winner(self):
        cert = symmetric_winner(DistanceSet.of(1, 2))
        assert cert is not None
        assert cert.winner == RationalSet("", "100")

    def test_absent_without_offset(self):
        assert symmetric_winner(DistanceSet.of(2, 4, 7)) is None

    def test_offset_past_the_evidence_cap_is_refused(self):
        # the bounded run would fill a window of any offset, but verify
        # refuses one over MAX_EVIDENCE_BITS, so the search must not emit it
        cap = search.MAX_EVIDENCE_BITS
        cert = symmetric_winner(DistanceSet.of(1, cap - 1))
        assert cert.evidence["offset"] == cap and cert.verify()
        for distances in (DistanceSet.of(1, cap), DistanceSet.of(1, 5000)):
            offset = distances.norm + 1
            with pytest.raises(ValueError, match=f"^{offset} bits of evidence are over the cap"):
                find_winner(distances)
            evidence = {"offset": offset, "window": "0" * offset}
            cert = Certificate(SYMMETRIC_OFFSET, distances, RationalSet("", "0"), evidence)
            with pytest.raises(ValueError, match=f"^{offset} bits of evidence are over the cap"):
                cert.verify()
        with pytest.raises(ValueError, match=r"^<13288-bit number> bits of evidence"):
            symmetric_winner(DistanceSet.of(1, 10**4000))


class TestTwoBlock:
    def test_certifies_2_4_7(self):
        cert = certify_two_block(DistanceSet.of(2, 4, 7), "110000", "100100")
        assert cert is not None and cert.kind == TWO_BLOCK_INDUCTION
        assert cert.winner == RationalSet("110000", "100100")
        assert cert.winner == RationalSet("1100", "001")  # canonical form

    def test_certifies_2_4_13(self):
        cert = certify_two_block(DistanceSet.of(2, 4, 13), "110000" * 2, "100100" * 2)
        assert cert is not None
        assert cert.winner == RationalSet("110000" * 2, "100100" * 2)

    def test_degenerate_periodic_blocks(self):
        cert = certify_two_block(D35, "10101010", "10101010")
        assert cert is not None
        assert cert.winner == RationalSet("", "10")

    def test_wrong_blocks_fail_quietly(self):
        assert certify_two_block(DistanceSet.of(2, 4, 7), "110000", "000000") is None
        assert certify_two_block(DistanceSet.of(2, 4, 7), "100100", "100100") is None

    def test_malformed_blocks_raise(self):
        with pytest.raises(ValueError):
            certify_two_block(D35, "10101010", "1010")
        with pytest.raises(ValueError):
            certify_two_block(D35, "", "")
        with pytest.raises(ValueError):
            certify_two_block(D35, "10010000", "10101010")  # left block clashes

    def test_blocks_past_the_evidence_cap_are_refused(self):
        # verify refuses evidence over MAX_EVIDENCE_BITS, so no certificate
        # may hold a block pair it could not check
        cap = search.MAX_EVIDENCE_BITS // 2
        block = "0" * (cap + 1)
        with pytest.raises(ValueError, match=f"blocks of {cap + 1} bits are over the cap of {cap}"):
            certify_two_block(D35, block, block)
        assert certify_two_block(D35, block[:cap], block[:cap]) is None  # checked, and loses

    @pytest.mark.parametrize("size", [1000, 2048])
    def test_blocks_up_to_the_cap_are_walked_without_recursion(self, size):
        # the challenger enumeration walks one position per stack entry, not
        # one nested generator per bit: 996 bits or more used to raise
        # RecursionError under the default limit
        block = "10" * (size // 2)
        cert = certify_two_block(D35, block, block)
        assert cert is not None and cert.winner == RationalSet("", "10")
        again = Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
        assert again.verify()

    def test_repeated_block_of_a_huge_norm_is_checked_in_linear_work(self):
        # A B B ... avoids {2**18} only if no 1 lies 2**18 after another: 2**18
        # copies of B are built, once and not by a quadratic sum of shifts
        doc = {
            "kind": TWO_BLOCK_INDUCTION,
            "distances": [262144],
            "winner": {"preperiod": "", "repetend": "1"},
            "evidence": {"block_a": "1", "block_b": "1"},
        }
        start = time.perf_counter()
        assert not Certificate.from_json_dict(doc).verify()
        assert time.perf_counter() - start < 1


def _germ_greater(a, b):
    return poly_germ_compare(IntPolynomial.from_bits(a), IntPolynomial.from_bits(b)) == GREATER


def _is_challenger(distances, block_b, pair):
    first, second = pair
    return (
        len(first) == len(second) == len(block_b)
        and is_avoiding(first + second, distances)
        and _germ_greater(second, block_b)
        and _germ_greater(first + second, block_b + block_b)
    )


# The benchmark's two-block cases: every TwoBlockInduction winner with at
# most four distances and norm <= 12 under the default budget, plus {2,4,5}
# at block 21 and {2,4,6,7} at block 32.
TWO_BLOCK_POOL = (
    ((2, 4, 7), None), ((3, 6, 11), None), ((3, 7, 12), None),
    ((4, 6, 11), None), ((1, 5, 8, 11), None), ((2, 4, 6, 9), None),
    ((2, 4, 7, 10), None), ((3, 4, 6, 10), None), ((4, 5, 8, 11), None),
    ((2, 4, 5), 21), ((2, 4, 6, 7), 32),
)


def _challenger_free(distances, block_b):
    """The branch and bound and the oracle's exhaustive pairing agree."""
    size = len(block_b)
    fast = _two_block_challenger(LineKernel(distances), _to_mask(block_b), size)
    slow = brute_two_block(distances, block_b)
    assert (fast is None) == (slow is None), (distances, block_b)
    if fast is not None:
        assert _is_challenger(distances, block_b, [_to_bits(mask, size) for mask in fast])
    return fast is None


def _agree_with_oracle(distances, block_a, block_b):
    """certify_two_block's verdict matches the oracle's; True if certified.

    The challenger searches are compared whenever the candidate set avoids
    the distances, the only case in which certify_two_block runs one.
    """
    certified = certify_two_block(distances, block_a, block_b) is not None
    if not is_avoiding(RationalSet(block_a, block_b), distances):
        assert not certified
        return False
    assert certified == _challenger_free(distances, block_b), (distances, block_b)
    return certified


class TestTwoBlockBranchAndBound:
    def test_max_ones_matches_enumeration(self):
        for distances in all_distance_sets(5):
            kernel = LineKernel(distances)
            entries = [kernel.entry(n) for n in range(11)]
            for length in range(11):
                want = max(s.count("1") for s in enumerate_avoiding(distances, length))
                assert entries[length][1] == want

    def test_rich_strings_match_enumeration(self):
        # seeded B of 1-11 bits that are not germ-best, so the walk over R
        # runs: it finds a challenger iff the oracle's pairing does, and any
        # pair it returns is one (`_challenger_free`)
        rng = random.Random(17)
        walks = found = 0
        for distances in all_distance_sets(5):
            for _ in range(3):
                size = rng.randrange(1, 12)
                block_b = random_avoiding(rng, distances, size)
                if block_b != best_string(distances, size):
                    walks += 1
                    found += not _challenger_free(distances, block_b)
        assert 0 < found < walks

    def test_agrees_with_oracle_on_small_distance_sets(self):
        # every D inside {1..6}, every block from norm to min(2 norm, 12)
        # whose doubled best string extends the single one
        cases = certified = 0
        for distances in all_distance_sets(6):
            norm = distances.norm
            for size in range(norm, min(2 * norm, 12) + 1):
                block_a = best_string(distances, size)
                doubled = best_string(distances, 2 * size)
                if doubled[:size] != block_a:
                    continue
                cases += 1
                _challenger_free(distances, doubled[size:])
                certified += _agree_with_oracle(distances, block_a, doubled[size:])
        assert (cases, certified) == (378, 71)

    @pytest.mark.parametrize("dset,max_block", TWO_BLOCK_POOL)
    def test_agrees_with_oracle_on_the_pairs_search_tries(self, dset, max_block):
        # the block pairs find_winner tries, in its order, up to the one it certifies
        distances = DistanceSet.of(*dset)
        result = find_winner(distances, SearchBudget(max_block=max_block))
        assert result.certificate.kind == TWO_BLOCK_INDUCTION
        certified_size = len(result.certificate.evidence["block_a"])
        for size in range(1, certified_size + 1):
            block_a = best_string(distances, size)
            doubled = best_string(distances, 2 * size)
            if doubled[:size] == block_a:
                certified = _agree_with_oracle(distances, block_a, doubled[size:])
                assert certified == (size == certified_size)

    def test_agrees_with_oracle_below_norm(self):
        # every D inside {1..7}, every block shorter than norm: the challenger
        # search for the second half of the doubled best string, and the
        # verdict wherever the first half is the single best string
        cases = certified = 0
        for distances in all_distance_sets(7):
            for size in range(1, distances.norm):
                block_a = best_string(distances, size)
                doubled = best_string(distances, 2 * size)
                _challenger_free(distances, doubled[size:])
                if doubled[:size] == block_a:
                    cases += 1
                    certified += _agree_with_oracle(distances, block_a, doubled[size:])
        assert (cases, certified) == (617, 43)

    def test_finds_a_challenger_for_a_weak_second_block(self):
        # any R holding a 1 beats an all-zero B, and so does QR beat BB
        distances = DistanceSet.of(2, 4, 7)
        pair = _two_block_challenger(LineKernel(distances), 0, 6)
        assert pair is not None
        assert _is_challenger(distances, "000000", [_to_bits(mask, 6) for mask in pair])


class TestHardTwoBlockCases:
    # {4,7,11} and {4,7,10,11} share the winner (1101001001000)(001)...; their
    # blocks are longer than the oracle's enumeration cap
    @pytest.mark.parametrize(
        "dset,budget,size",
        [
            ((4, 7, 11), SearchBudget(max_window=132, max_block=44), 36),
            ((4, 7, 10, 11), SearchBudget(max_block=33), 33),
        ],
    )
    def test_certifies_and_verifies_without_warnings(self, dset, budget, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = find_winner(DistanceSet.of(*dset), budget)
            cert = result.certificate
            assert cert is not None and cert.kind == TWO_BLOCK_INDUCTION
            assert cert.winner == RationalSet("1101001001000", "001")
            assert len(cert.evidence["block_a"]) == len(cert.evidence["block_b"]) == size
            again = Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
            assert again.verify()


class TestOneLengthRun:
    """A call that asks one length reads it off a run bounded at both ends."""

    def test_matches_the_lazy_run_at_every_length(self):
        # the bounded run masks the bits no 1 can still meet, so its shadows
        # merge; the entry it leaves is the kernel's, mask, count and
        # position sum alike
        for distances in all_distance_sets(9):
            if len(distances) > 3:
                continue
            kernel = LineKernel(distances)
            for n in range(1, 4 * distances.norm + 2):
                assert local._patch_run(distances, n)(0, 0) == kernel.entry(n), (distances, n)

    def test_a_long_ask_lists_only_its_masked_tail(self, monkeypatch):
        # only the last norm steps mask their grown bits; the steps before
        # repeat `grow`, so a 5,000-bit string lists no 5,000 masks, and a
        # patch run asked for more start shadows lists its tail once
        calls = []
        live = sets._WindowModel.live

        def counted(self, remaining):
            calls.append(remaining)
            return live(self, remaining)

        monkeypatch.setattr(sets._WindowModel, "live", counted)
        distances = DistanceSet.of(3, 5)
        kernel = LineKernel(distances)
        assert best_string(distances, 5000) == _to_bits(kernel.entry(5000)[0], 5000)
        assert calls == [4, 3, 2, 1, 0]
        calls.clear()
        run = local._patch_run(distances, 8)
        entries = {run(left, 0) for left in range(32)}
        assert len(entries) > 2 and calls == [4, 3, 2, 1, 0]

    @staticmethod
    def _built_runs(monkeypatch):
        built = []

        class CountedKernel(LineKernel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(search, "LineKernel", CountedKernel)
        return built

    def test_no_window_verify_builds_a_lazy_run(self, monkeypatch):
        built = self._built_runs(monkeypatch)
        verified = 0
        for size in (1, 2, 3):
            for dset in itertools.combinations(range(1, 13), size):
                cert = find_winner(DistanceSet(dset)).certificate
                if cert is None or cert.kind == TWO_BLOCK_INDUCTION:
                    continue
                again = Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
                built.clear()
                assert again.verify() and not built, dset
                verified += 1
        assert verified == 263  # 108 SymmetricOffset and 155 RepeatableWindow

    @pytest.mark.parametrize("dset,max_block", TWO_BLOCK_POOL)
    def test_a_two_block_verify_never_starts_the_catch_up_kernel(
        self, monkeypatch, dset, max_block
    ):
        # one kernel steps to 2|B| and records every length on the way, so
        # the challenger's bound reads lengths 1..|B| off it
        cert = find_winner(DistanceSet(dset), SearchBudget(max_block=max_block)).certificate
        assert cert.kind == TWO_BLOCK_INDUCTION
        built = self._built_runs(monkeypatch)
        assert cert.verify()
        size = len(cert.evidence["block_a"])
        assert len(built) == 1 and len(built[0].bests) == 2 * size + 1


class TestFindWinner:
    def test_three_five_gives_evens(self):
        result = find_winner(D35)
        assert result.found
        assert result.certificate.winner == RationalSet("", "10")

    def test_two_four_seven_needs_two_blocks(self):
        result = find_winner(DistanceSet.of(2, 4, 7))
        assert result.certificate.kind == TWO_BLOCK_INDUCTION
        assert result.certificate.winner == RationalSet("110000", "100100")

    def test_window_budget_at_or_below_the_norm_skips_the_window_scan(self):
        # SearchBudget accepts any max_window from 1; with no window length
        # to scan the search records the empty range and goes on to the two
        # blocks
        distances = DistanceSet.of(2, 4, 7)
        for max_window in (1, 7):
            result = find_winner(distances, SearchBudget(max_window=max_window))
            assert result.certificate.winner == RationalSet("1100", "001")
            assert result.attempts == (
                "no symmetry offset in (7, 9]",
                f"no repeatable germ-maximal window for lengths 8..{max_window}",
            )

    def test_repeated_calls_do_the_same_line_work(self, monkeypatch):
        # each call builds its own line run and keeps none: the second of two
        # identical searches, or verifies, makes every state-step the first
        # made, in patch runs (`_run_line`) and in the kernel's own loop
        # (`LineKernel._step`), where a run kept between calls would start
        # it warm
        counted = counted_line_work(monkeypatch)

        def work(call):
            before = counted.total()
            call()
            return counted.total() - before

        budget = SearchBudget(max_window=48, max_block=14)
        for dset in ((3, 5), (2, 3, 6), (2, 4, 7), (2, 4, 6, 7), (1, 5, 6)):
            distances = DistanceSet.of(*dset)
            searches = [work(lambda: find_winner(distances, budget)) for _ in range(2)]
            assert searches[0] == searches[1] > 0, dset
            cert = find_winner(distances, budget).certificate
            if cert is not None:
                verifies = [work(cert.verify) for _ in range(2)]
                assert verifies[0] == verifies[1] > 0, dset

    def test_census_line_work_is_pinned(self, monkeypatch):
        # one cold census pass: every D with 1-3 distances and norm <= 12
        # searched under the default budget, then each certificate verified
        # after a JSON round trip.  tests/data/outputs.json pins the outputs;
        # this pins the work, which a lost cut or merge raises without
        # changing any output (without both sibling cuts the pass makes
        # 453,692).  A change that alters the work on purpose sets the new
        # counts here and gives the old and new ones in CHANGES.md
        counted = counted_line_work(monkeypatch)
        search_work, verify_work = Counter(), Counter()
        for size in (1, 2, 3):
            for dset in itertools.combinations(range(1, 13), size):
                before = counted.copy()
                cert = find_winner(DistanceSet(dset)).certificate
                search_work.update(counted - before)
                if cert is not None:
                    again = Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
                    before = counted.copy()
                    assert again.verify(), dset
                    verify_work.update(counted - before)
        assert search_work == {"kernel": 209_217, "patch": 21_113}
        assert verify_work == {"kernel": 4_048, "patch": 85_568}
        assert counted.total() == 319_946

    def test_empty_distances_give_naturals(self):
        result = find_winner(DistanceSet())
        assert result.certificate.winner == RationalSet.naturals()

    def test_inconclusive_is_reported_not_invented(self):
        result = find_winner(DistanceSet.of(4, 7, 11), SearchBudget(max_window=20, max_block=12))
        assert result.certificate is None
        assert len(result.attempts) == 3

    def test_budget_bounds_are_positive_integers(self):
        for bad in (0, -3, True, 2.5, "4"):
            with pytest.raises(ValueError, match="positive integer"):
                SearchBudget(max_window=bad)
            with pytest.raises(ValueError, match="positive integer"):
                SearchBudget(max_block=bad)
        budget = SearchBudget(max_window=1, max_block=1)
        assert budget.window_bound(D35) == budget.block_bound(D35) == 1
        assert SearchBudget().window_bound(D35) == 20
        assert SearchBudget().block_bound(D35) == 10

    def test_budget_bounds_stay_within_the_evidence_cap(self):
        # verify refuses windows, and block pairs, longer than the cap, so
        # the search must not be allowed to emit them
        cap = search.MAX_EVIDENCE_BITS
        budget = SearchBudget(max_window=cap, max_block=cap // 2)
        assert budget.window_bound(D35) == cap and budget.block_bound(D35) == cap // 2
        with pytest.raises(ValueError, match="max_window must be a positive integer <= 4096"):
            SearchBudget(max_window=cap + 1)
        with pytest.raises(ValueError, match="max_block must be a positive integer <= 2048"):
            SearchBudget(max_block=cap // 2 + 1)
        assert find_repeatable_winner(D35, cap).winner == RationalSet("", "10")
        with pytest.raises(ValueError, match=r"\(5, 4096\]"):
            find_repeatable_winner(D35, cap + 1)
        with pytest.raises(ValueError, match=r"\(5, 4096\]"):
            find_repeatable_winner(D35, 5)

    def test_default_bounds_stay_within_the_evidence_cap(self):
        # the kernel that steps is that of D/g, g = gcd(D) (D's own when g
        # is 1).  At length n <= its norm it holds at least n + 1 shadows (no
        # 1, or a last 1 at each of the n positions, which sets its own top
        # bit; checked below for small norms), and it refuses a step once
        # twice its shadows times its norm pass MAX_WINDOW_BITS; so no D/g of
        # norm `refused` or more gets past length `refused`.  For g = 1 the
        # defaults (windows up to 4 norm, block pairs up to 2 * 2 norm) stay
        # within 4 (refused - 1) below it; a scaled set may ask past the
        # evidence cap, which the search refuses (the next test)
        for distances in all_distance_sets(8):
            kernel = LineKernel(distances)
            stepping = kernel.classes or kernel
            g = distances.norm // stepping.distances.norm
            for n in range(1, stepping.distances.norm + 1):
                kernel.entry(g * n)
                assert len(kernel_states(stepping)) >= n + 1, (distances, n)
        cap = sets.MAX_WINDOW_BITS
        refused = next(n for n in range(17, cap) if 2 * (n + 1) * n > cap)
        assert max(refused, 4 * (refused - 1)) <= search.MAX_EVIDENCE_BITS
        # the fewest a norm can have: D = {1..norm} allows one 1 per window
        kernel = LineKernel(DistanceSet(tuple(range(1, refused + 1))))
        kernel.entry(refused)
        with pytest.raises(ValueError, match="over the cap"):
            kernel.entry(refused + 1)

    def test_scaled_sets_certify_or_refuse(self):
        # g·D for D within {1..4}: the search runs D/g's kernel, so no
        # shadow cap stops it; a default bound past the evidence cap, or a
        # walk past its cap, is a ValueError, and any certificate verifies
        refused = 0
        for g in (*range(2, 1501, 53), 10, 100, 200, 700, 1000, 1500):
            for distances in all_distance_sets(4):
                scaled = DistanceSet(tuple(g * d for d in distances))
                try:
                    cert = find_winner(scaled).certificate
                except ValueError:
                    refused += 1
                    continue
                assert cert is not None and cert.verify(), scaled
        assert refused

    def test_strategies_name_the_same_winner(self):
        # any two certificates for one distance set must agree on the set
        for dset in [(3, 5), (1, 2), (1, 3, 6, 8)]:
            distances = DistanceSet.of(*dset)
            winners = set()
            cert = symmetric_winner(distances)
            if cert:
                winners.add(cert.winner)
            cert = find_repeatable_winner(distances, 4 * distances.norm)
            if cert:
                winners.add(cert.winner)
            size = len(cert.evidence["window"])
            doubled = best_string(distances, 2 * size)
            if doubled[:size] == cert.evidence["window"]:
                two = certify_two_block(distances, doubled[:size], doubled[size:])
                if two:
                    winners.add(two.winner)
            assert len(winners) == 1


class TestWinnerIntegration:
    def test_small_distance_sets_certify_and_dominate_periodic_rivals(self):
        # every D inside {1..5} certifies once the window budget is raised,
        # and each winner dominates every periodic avoiding set of period <= 8
        budget = SearchBudget(max_window=48)
        for distances in all_distance_sets(5):
            result = find_winner(distances, budget)
            assert result.certificate is not None, distances
            assert result.certificate.verify()
            rival = brute_best_periodic(distances, 8)
            assert set_compare(result.certificate.winner, rival) != LESS

    def test_certifying_window_can_sit_past_the_pair_sums(self):
        # for {2,4,5} no window up to 20 repeats (pair sums stop at 10), yet
        # the window of length 21 is (100)^7 and certifies the multiples of 3
        distances = DistanceSet.of(2, 4, 5)
        assert find_repeatable_winner(distances, 20) is None
        cert = find_repeatable_winner(distances, 21)
        assert cert is not None
        assert cert.evidence == {"window_length": 21, "window": "100" * 7}
        assert cert.winner == RationalSet("", "100")

    def test_resistant_set_stays_inconclusive(self):
        # {1,5,6}: best windows front-load and never repeat; the two-block
        # facts fail for every block split, so the honest answer is "unknown"
        result = find_winner(
            DistanceSet.of(1, 5, 6), SearchBudget(max_window=48, max_block=14)
        )
        assert result.certificate is None
        assert len(result.attempts) == 3

    def test_two_distance_winners_have_the_cantor_gordon_density(self):
        # every D = {a, b} with b <= 12 certifies under the default budget,
        # and its winner has the density Cantor and Gordon proved maximal
        cases = [DistanceSet.of(a, b) for b in range(2, 13) for a in range(1, b)]
        assert len(cases) == 66
        for distances in cases:
            cert = find_winner(distances).certificate
            assert cert is not None, distances
            want = cantor_gordon_density(*distances)
            assert valuation(cert.winner).density == want, distances

    def test_winners_have_the_karp_maximum_mean_cycle_density(self):
        # every D inside {1..9} with at most three distances: the densest
        # avoiding set's density is the heaviest mean cycle of the shadow
        # graph, found without germ arithmetic; three sets stay undecided
        # under the larger budget, and none may fail
        undecided = []
        for distances in all_distance_sets(9):
            if len(distances) > 3:
                continue
            norm = distances.norm
            budget = SearchBudget(max_window=24 * norm, max_block=4 * norm)
            cert = find_winner(distances, budget).certificate
            if cert is None:
                undecided.append(distances.distances)
                continue
            assert valuation(cert.winner).density == karp_density(distances), distances
        assert sorted(undecided) == [(1, 5, 8), (5, 6, 9), (5, 8, 9)]


class TestCertificate:
    def _all_certificates(self):
        return [
            find_winner(DistanceSet.of(*d)).certificate
            for d in [(3, 5), (1, 3, 6, 8), (1, 2), (2, 4, 7), (2, 4, 13)]
        ]

    def test_verify_from_evidence_alone(self):
        for cert in self._all_certificates():
            assert cert.verify()

    def test_json_round_trip(self):
        for cert in self._all_certificates():
            data = json.loads(json.dumps(cert.to_json_dict()))
            again = Certificate.from_json_dict(data)
            assert again.kind == cert.kind
            assert again.winner == cert.winner
            assert again.distances == cert.distances
            assert again.verify()

    def test_tampered_certificates_fail(self):
        cert = find_winner(D35).certificate
        data = cert.to_json_dict()

        wrong_winner = dict(data, winner={"preperiod": "", "repetend": "01"})
        assert not Certificate.from_json_dict(wrong_winner).verify()

        wrong_window = dict(data, evidence={"offset": 8, "window": "10101000"})
        assert not Certificate.from_json_dict(wrong_window).verify()

        wrong_kind = dict(data, kind=TWO_BLOCK_INDUCTION, evidence={"block_a": "111000", "block_b": "000000"})
        assert not Certificate.from_json_dict(wrong_kind).verify()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Certificate("Handwave", D35, RationalSet("", "10"), {})

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            Certificate.from_json_dict({"kind": REPEATABLE_WINDOW})
