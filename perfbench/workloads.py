"""The benchmark workloads: seeded inputs, one operation each, and its checks.

A workload is a stream of rounds, each a list of operation inputs; a timed
run goes through as many whole rounds as fit in its time.  What a round holds
does not depend on the seed (the seed sets the order and draws the random
bits), so every seed asks for the same kind of work.  Each operation returns
an `Outcome`; `ok` is False when the output disagrees with the recorded
reference or breaks an invariant.

The library is called through its module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from germpack import germs, local, search, sets

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# The two-block pool: every TwoBlockInduction case with at most four
# distances and norm <= 12 found with the default budget, plus the two that
# need a larger block budget and certify in about a second.  {4,7,10,11}
# (block 33) and {4,7,11} (block 36) run the same code path but take 24 s and
# 130 s per operation, too long to repeat within a run.
TWO_BLOCK_POOL = (
    ((2, 4, 7), None),
    ((3, 6, 11), None),
    ((3, 7, 12), None),
    ((4, 6, 11), None),
    ((1, 5, 8, 11), None),
    ((2, 4, 6, 9), None),
    ((2, 4, 7, 10), None),
    ((3, 4, 6, 10), None),
    ((4, 5, 8, 11), None),
    ((2, 4, 5), 21),
    ((2, 4, 6, 7), 32),
)


@dataclass(frozen=True)
class Outcome:
    verify_s: float | None  # time of the operation's own re-check, if it has one
    certified: bool  # the output came with a proof that checked out
    ok: bool  # the output matches the reference and its invariants


def census_sets() -> list:
    """Every distance set with one to three distances and norm <= 12 (298)."""
    return [
        sets.DistanceSet(combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(range(1, 13), size)
    ]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def cache_clearers() -> list:
    """cache_clear of every memoized germpack function, so a call starts cold."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "germpack":
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def avoids(bits: str, distances) -> bool:
    """Avoidance check on an int mask, independent of the library's."""
    mask = int(bits[::-1], 2) if bits else 0
    return all(mask & (mask >> d) == 0 for d in distances)


class _Winners:
    """Search for a winner, then verify its certificate as `germpack certify` would.

    The certificate goes through a JSON round trip, and every memoized
    function starts cold both for the search and for the verify, as two
    fresh `germpack winner` / `germpack certify` processes would.
    """

    def __init__(self, cases, expected):
        self.cases = cases  # (DistanceSet, SearchBudget) in seeded order
        self.expected = expected  # distances text -> [kind, winner text or None]
        self.clearers = cache_clearers()

    def rounds(self):
        """The same cases every round: they are all the inputs there are."""
        while True:
            yield self.cases

    def _start_cold(self) -> None:
        for clear in self.clearers:
            clear()

    def run(self, case) -> Outcome:
        distances, budget = case
        self._start_cold()
        result = search.find_winner(distances, budget)
        kind, winner = self.expected[distances.to_text()]
        if result.certificate is None:
            return Outcome(None, False, kind == "inconclusive")
        document = json.loads(json.dumps(result.certificate.to_json_dict()))
        certificate = search.Certificate.from_json_dict(document)
        self._start_cold()
        start = time.perf_counter()
        valid = certificate.verify()
        verify_s = time.perf_counter() - start
        ok = valid and certificate.kind == kind and certificate.winner.to_text() == winner
        return Outcome(verify_s, valid, ok)


class Census(_Winners):
    name = "census"
    # Around p95 the slowest cases lie ~10% apart, so timing noise moves
    # that rank from one case to the next; p90 falls among closer ones.
    tail_percentile = 90

    def __init__(self, seed: int, reference: dict):
        cases = [(d, search.SearchBudget()) for d in census_sets()]
        random.Random(seed).shuffle(cases)
        super().__init__(cases, reference["census"])


class TwoBlock(_Winners):
    name = "two_block"
    # Eleven cases repeated: p86 is the middle of the second-slowest case's
    # samples, not a boundary between two cases.
    tail_percentile = 86

    def __init__(self, seed: int, reference: dict):
        cases = [
            (sets.DistanceSet(d), search.SearchBudget(max_block=block))
            for d, block in TWO_BLOCK_POOL
        ]
        random.Random(seed).shuffle(cases)
        super().__init__(cases, reference["two_block"])


# The local-sweep sets: for each norm n in 1..12, {n}, {n//2, n} and
# {n//3, 2n//3, n} where those are distinct.  Fixed rather than drawn per
# seed: a sweep's cost grows steeply with the norm and differs threefold
# between sets of one norm, so a per-seed draw would change the work a run
# measures.
LOCAL_SWEEP_SETS = tuple(
    sorted({
        tuple(sorted(set(shape)))
        for n in range(1, 13)
        for shape in ((n,), (n // 2, n), (n // 3, 2 * n // 3, n))
        if 0 not in shape
    })
)


class LocalSweep:
    """Patch sweeps over random avoiding strings, as `germpack improve` runs them.

    A round holds one sweep for each set in LOCAL_SWEEP_SETS, with the patch
    length equal to the norm.  The seed draws the 240-bit strings and the
    order, new ones every round: a sweep's cost depends on its string, and
    fresh strings average that out over a run instead of fixing it per seed.
    """

    name = "local_sweep"
    tail_percentile = 85
    length = 240

    def __init__(self, seed: int, reference: dict):
        self.rng = random.Random(seed)
        self.distance_sets = [sets.DistanceSet(combo) for combo in LOCAL_SWEEP_SETS]
        self.first = self._round()

    def rounds(self):
        yield self.first
        while True:
            yield self._round()

    def _round(self) -> list:
        items = [(d, self._random_avoiding(d)) for d in self.distance_sets]
        self.rng.shuffle(items)
        return items

    def _random_avoiding(self, distances) -> str:
        bits: list[str] = []
        for pos in range(self.length):
            legal = all(d > pos or bits[pos - d] == "0" for d in distances)
            bits.append("1" if legal and self.rng.random() < 0.5 else "0")
        return "".join(bits)

    def run(self, item) -> Outcome:
        distances, bits = item
        swept = local.sweep_to_fixpoint(bits, distances.norm, distances)
        start = time.perf_counter()
        again = local.sweep_to_fixpoint(swept, distances.norm, distances)
        verify_s = time.perf_counter() - start
        fixpoint = again == swept
        order = germs.poly_germ_compare(
            germs.IntPolynomial.from_bits(swept), germs.IntPolynomial.from_bits(bits)
        )
        ok = fixpoint and avoids(swept, distances) and order >= 0
        return Outcome(verify_s, fixpoint, ok)


def _sign(value) -> int:
    return (value > 0) - (value < 0)


class GermArith:
    """Germ order on pairs of eventually periodic sets, through RationalGF.

    A round holds one pair for each pair of repetend lengths (la, lb) in
    1..16, 256 in all, with preperiods of (la + lb) % 17 and (la * lb) % 17
    bits, so the lengths, which set a pair's cost, are the same every round;
    the seed draws the bits and the order, new ones every round.  The
    operation is `set_compare(a, b)`; its re-check compares the other way,
    takes both valuations and the `germ_gap` of the pair, and must agree
    with it.
    """

    name = "germ_arith"
    tail_percentile = 95
    max_length = 16

    def __init__(self, seed: int, reference: dict):
        self.rng = random.Random(seed)
        self.first = self._round()

    def rounds(self):
        yield self.first
        while True:
            yield self._round()

    def _bits(self, length: int) -> str:
        return "".join(self.rng.choice("01") for _ in range(length))

    def _set(self, preperiod_length: int, repetend_length: int):
        """A set whose canonical form keeps exactly the lengths asked for.

        The repetend is drawn until it is primitive, and the preperiod ends
        in the bit the repetend does not end in, so canonicalization cannot
        shorten either: the cost stays set by the lengths, not by the draw.
        """
        while True:
            repetend = self._bits(repetend_length)
            if sets.RationalSet("", repetend).repetend == repetend:
                break
        preperiod = self._bits(preperiod_length)
        if preperiod:
            preperiod = preperiod[:-1] + ("0" if repetend[-1] == "1" else "1")
        made = sets.RationalSet(preperiod, repetend)
        assert (made.preperiod, made.repetend) == (preperiod, repetend)
        return made

    def _round(self) -> list:
        lengths = range(1, self.max_length + 1)
        items = [
            (self._set((la + lb) % 17, la), self._set((la * lb) % 17, lb))
            for la in lengths
            for lb in lengths
        ]
        self.rng.shuffle(items)
        return items

    def run(self, item) -> Outcome:
        a, b = item
        order = sets.set_compare(a, b)
        start = time.perf_counter()
        backwards = sets.set_compare(b, a)
        valuations = (sets.valuation(a), sets.valuation(b))
        gap = germs.germ_gap(sets.generating_function(a), sets.generating_function(b))
        verify_s = time.perf_counter() - start
        agrees = (
            backwards == -order
            and (gap is None) == (order == 0) == (a == b)
            and (gap is None or _sign(gap[1]) == order)
            and (valuations[0] == valuations[1] or (valuations[0] > valuations[1]) == (order > 0))
        )
        return Outcome(verify_s, agrees, agrees)


WORKLOADS = {w.name: w for w in (Census, TwoBlock, LocalSweep, GermArith)}
