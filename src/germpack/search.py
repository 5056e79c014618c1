"""Search for and certification of germ-maximal avoiding sets.

Three certification strategies, in the order a search tries them:

* SymmetricOffset: if some k past the largest distance has d forbidden
  exactly when k-d is forbidden, every avoiding window of length k repeats
  safely, so the best length-k window repeated forever wins.
* RepeatableWindow: if the germ-maximal avoiding window of any length m past
  the largest distance stays avoiding when doubled, its infinite repetition
  wins (it beats any challenger window by window).
* TwoBlockInduction: blocks A and B of a common length such that A and AB are
  germ-maximal for their lengths and every avoiding QR has R below B or QR
  below BB.  Splitting any challenger into blocks and spans then shows A
  followed by B forever dominates it, which certifies eventually periodic
  winners that are not periodic from the start.

All certificates re-verify from their recorded evidence alone, without
trusting the search that produced them.

The germ-maximal avoiding string of a given length is computed by a dynamic
program along the line whose state is the trailing window of bits under the
largest distance: a new 1 can only clash inside that window, and whichever
prefix is germ-greater stays germ-greater under any common extension.  A
staged variant over whole blocks (DpTable / dp_step) is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .germs import EQUAL, GREATER, IntPolynomial, poly_germ_compare
from .local import PatchContext, best_patch
from .oracle import brute_two_block
from .sets import DistanceSet, RationalSet, _check_bits, is_avoiding

REPEATABLE_WINDOW = "RepeatableWindow"
SYMMETRIC_OFFSET = "SymmetricOffset"
TWO_BLOCK_INDUCTION = "TwoBlockInduction"

CERTIFICATE_KINDS = (REPEATABLE_WINDOW, SYMMETRIC_OFFSET, TWO_BLOCK_INDUCTION)


# ---------------------------------------------------------------------------
# germ-maximal strings


def _entry_greater(a, b) -> bool:
    """Germ order on equal-length (bits, ones, position-sum) entries.

    The first two t-coefficients of the difference are the count gap and the
    negated position-sum gap, so those decide almost every comparison; full
    polynomial comparison settles the rest.
    """
    if a[1] != b[1]:
        return a[1] > b[1]
    if a[2] != b[2]:
        return a[2] < b[2]
    order = poly_germ_compare(
        IntPolynomial.from_bits(a[0]), IntPolynomial.from_bits(b[0])
    )
    if order == EQUAL and a[0] != b[0]:
        raise AssertionError("distinct strings never tie")
    return order == GREATER


def _entry(bits: str) -> tuple[str, int, int]:
    """The (bits, ones, position-sum) entry `_entry_greater` compares."""
    return bits, bits.count("1"), sum(i for i, bit in enumerate(bits) if bit == "1")


class _LineDp:
    """Incremental best-avoiding-prefix table keyed by the trailing window."""

    def __init__(self, distances: DistanceSet):
        self.distances = tuple(distances)
        self.norm = distances.norm
        self.length = 0
        self.states: dict[str, tuple[str, int, int]] = {"": ("", 0, 0)}

    def step(self) -> None:
        pos = self.length
        norm = self.norm
        new: dict[str, tuple[str, int, int]] = {}

        def offer(state, entry):
            cur = new.get(state)
            if cur is None or _entry_greater(entry, cur):
                new[state] = entry

        for suffix, (bits, ones, possum) in self.states.items():
            grown = suffix + "0"
            offer(grown[-norm:] if norm else "", (bits + "0", ones, possum))
            if all(d > len(suffix) or suffix[-d] == "0" for d in self.distances):
                grown = suffix + "1"
                offer(grown[-norm:] if norm else "", (bits + "1", ones + 1, possum + pos))
        self.states = new
        self.length += 1

    def best(self) -> str:
        entries = iter(self.states.values())
        best = next(entries)
        for entry in entries:
            if _entry_greater(entry, best):
                best = entry
        return best[0]


@lru_cache(maxsize=None)
def _best_string_cached(distances: DistanceSet, length: int) -> str:
    runner = _LineDp(distances)
    for _ in range(length):
        runner.step()
    return runner.best()


def best_string(distances: DistanceSet, length: int) -> str:
    """The germ-maximal avoiding string of the given length.

    Unique: distinct equal-length strings have distinct indicator
    polynomials, so the germ order never ties.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return _best_string_cached(distances, length)


@dataclass(frozen=True, eq=False)
class DpTable:
    """Stage k of the block dynamic program.

    For every avoiding block of the chosen length, `entries` holds the
    germ-maximal avoiding string of length stage*block_length that ends in
    that block; blocks that no string can reach are absent.
    """

    distances: DistanceSet
    block_length: int
    stage: int
    entries: dict[str, str]

    def best(self) -> str:
        """Germ-maximal string over all tracked suffixes."""
        best = None
        best_poly = None
        for candidate in self.entries.values():
            poly = IntPolynomial.from_bits(candidate)
            if best is None or poly_germ_compare(poly, best_poly) == GREATER:
                best, best_poly = candidate, poly
        if best is None:
            raise ValueError("empty table")
        return best


def _avoiding_blocks(distances: DistanceSet, length: int) -> list[str]:
    """All avoiding strings of the given length (iterative backtracking)."""
    dists = tuple(distances)
    out = []
    stack = [""]
    while stack:
        s = stack.pop()
        if len(s) == length:
            out.append(s)
            continue
        pos = len(s)
        if all(d > pos or s[pos - d] == "0" for d in dists):
            stack.append(s + "1")
        stack.append(s + "0")
    return out


def dp_start(distances: DistanceSet, block_length: int) -> DpTable:
    """Stage 1: every avoiding block is its own best string."""
    if block_length <= distances.norm:
        raise ValueError("block length must exceed the largest distance")
    return DpTable(
        distances,
        block_length,
        1,
        {block: block for block in _avoiding_blocks(distances, block_length)},
    )


def dp_step(table: DpTable) -> DpTable:
    """Advance one stage: extend every tracked string by every fitting block.

    A concatenation is accepted when its final two blocks are avoiding,
    which is where any new violation must sit since the block length exceeds
    every forbidden distance.
    """
    distances = table.distances
    m = table.block_length
    new: dict[str, str] = {}
    for suffix in table.entries:
        best = None
        best_poly = None
        for prev, bits in table.entries.items():
            if not is_avoiding(prev + suffix, distances):
                continue
            candidate = bits + suffix
            poly = IntPolynomial.from_bits(candidate)
            if best is None or poly_germ_compare(poly, best_poly) == GREATER:
                best, best_poly = candidate, poly
        if best is not None:
            new[suffix] = best
    return DpTable(distances, m, table.stage + 1, new)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True, eq=False)
class Certificate:
    """Machine-checkable evidence that `winner` is the winner for `distances`.

    The evidence is enough to re-run the certifying checks from scratch;
    verify() does exactly that and never trusts the original search.
    """

    kind: str
    distances: DistanceSet
    winner: RationalSet
    evidence: dict

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def verify(self) -> bool:
        """Replay the checks; False for failed checks and malformed evidence."""
        if self.kind == REPEATABLE_WINDOW:
            return self._verify_window(check_offset=None)
        if self.kind == SYMMETRIC_OFFSET:
            offset = self.evidence.get("offset")
            if not _is_int(offset):
                return False
            return self._verify_window(check_offset=offset)
        block_a = self.evidence.get("block_a")
        block_b = self.evidence.get("block_b")
        if not isinstance(block_a, str) or not isinstance(block_b, str):
            return False
        try:
            cert = certify_two_block(self.distances, block_a, block_b)
        except ValueError:  # blocks that are not equal-length avoiding bit strings
            return False
        return cert is not None and cert.winner == self.winner

    def _verify_window(self, check_offset):
        window = self.evidence.get("window", "")
        if not isinstance(window, str):
            return False
        length = self.evidence.get("window_length", len(window))
        d = self.distances
        if not _is_int(length) or not window or len(window) != length or length <= d.norm:
            return False
        if check_offset is not None:
            if check_offset != length or not _is_symmetry_offset(d, check_offset):
                return False
        if window != best_string(d, length):
            return False
        if not is_repeatable(window, d):
            return False
        return self.winner == RationalSet("", window)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "distances": list(self.distances),
            "winner": {
                "preperiod": self.winner.preperiod,
                "repetend": self.winner.repetend,
            },
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> Certificate:
        try:
            winner = data["winner"]
            return cls(
                data["kind"],
                DistanceSet(tuple(data["distances"])),
                RationalSet(winner["preperiod"], winner["repetend"]),
                dict(data["evidence"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_repeatable(window: str, distances: DistanceSet) -> bool:
    """True iff the window stays avoiding when doubled (hence when repeated).

    Only defined for windows longer than the largest distance, where a
    violation in the infinite repetition crosses at most one junction and so
    already shows up in the doubled window.
    """
    if len(window) <= distances.norm:
        raise ValueError("window must be longer than the largest distance")
    return is_avoiding(window + window, distances)


def _pair_sums(distances: DistanceSet) -> set[int]:
    return {a + b for a in distances for b in distances}


def find_repeatable_winner(
    distances: DistanceSet, max_window: int | None = None
) -> Certificate | None:
    """Scan window lengths for a repeatable germ-maximal window.

    Pairwise sums of distances are tried first (they cover every worked
    case we know), then the remaining lengths in increasing order.  Any hit
    certifies the winner outright.
    """
    norm = distances.norm
    if max_window is None:
        max_window = max(4 * norm, 1)
    if max_window <= norm:
        raise ValueError("max window must exceed the largest distance")

    runner = _LineDp(distances)
    bests: dict[int, str] = {}
    for m in range(1, max_window + 1):
        runner.step()
        if m > norm:
            bests[m] = runner.best()

    preferred = sorted(s for s in _pair_sums(distances) if norm < s <= max_window)
    skip = set(preferred)
    rest = [m for m in range(norm + 1, max_window + 1) if m not in skip]
    for m in preferred + rest:
        window = bests[m]
        if is_repeatable(window, distances):
            return Certificate(
                REPEATABLE_WINDOW,
                distances,
                RationalSet("", window),
                {"window_length": m, "window": window},
            )
    return None


def _is_symmetry_offset(distances: DistanceSet, k: int) -> bool:
    return k > distances.norm and all((k - d) in distances for d in distances)


def symmetry_offset(distances: DistanceSet) -> int | None:
    """Smallest k past the largest distance with d forbidden iff k-d forbidden.

    Any such k maps the smallest distance to a forbidden k-min, so the scan
    stops at norm + min(distances).
    """
    if not distances:
        raise ValueError("symmetry offset needs a nonempty distance set")
    norm = distances.norm
    smallest = distances.distances[0]
    for k in range(norm + 1, norm + smallest + 1):
        if _is_symmetry_offset(distances, k):
            return k
    return None


def symmetric_winner(distances: DistanceSet) -> Certificate | None:
    """Winner certificate for distance sets with a symmetry offset.

    With offset k every avoiding window of length k is repeatable, so the
    best one wins; repeatability is verified anyway rather than assumed.
    """
    offset = symmetry_offset(distances)
    if offset is None:
        return None
    window = best_string(distances, offset)
    if not is_repeatable(window, distances):
        raise AssertionError("symmetric window failed the repeatability check")
    return Certificate(
        SYMMETRIC_OFFSET,
        distances,
        RationalSet("", window),
        {"offset": offset, "window": window},
    )


def certify_two_block(
    distances: DistanceSet, block_a: str, block_b: str
) -> Certificate | None:
    """Try to certify block_a followed by block_b forever as the winner.

    Checks, all exact:

    * the candidate set itself avoids the distances;
    * block_a and block_a+block_b are the germ-maximal avoiding strings of
      their lengths;
    * every avoiding QR split into halves has R at most block_b, or the
      whole QR at most block_b doubled (`_two_block_challenger`).

    Splitting an arbitrary challenger into blocks, those facts yield a
    partition of its positions into one- and two-block spans on which the
    candidate never loses, and the finitely many per-span differences share
    a neighborhood of 1 where none is negative.  Returns None when any check
    fails; raises only on malformed inputs.
    """
    _check_bits(block_a, "block_a")
    _check_bits(block_b, "block_b")
    if not block_a or len(block_a) != len(block_b):
        raise ValueError("blocks must be nonempty and of equal length")
    if not is_avoiding(block_a, distances) or not is_avoiding(block_b, distances):
        raise ValueError("blocks must themselves avoid the distances")

    winner = RationalSet(block_a, block_b)
    if not is_avoiding(winner, distances):
        return None
    size = len(block_a)
    if block_a != best_string(distances, size):
        return None
    if block_a + block_b != best_string(distances, 2 * size):
        return None
    if _two_block_challenger(distances, block_b) is not None:
        return None
    return Certificate(
        TWO_BLOCK_INDUCTION,
        distances,
        winner,
        {"block_a": block_a, "block_b": block_b},
    )


def _two_block_challenger(distances: DistanceSet, block_b: str):
    """An avoiding QR with R germ-greater than B and QR than BB, or None.

    Branch and bound over R.  For a fixed R, QR - Q'R = Q - Q' as
    polynomials, so only the germ-best Q that fits before R can beat BB; with
    blocks at least norm long, Q meets R only through R's first norm bits,
    and that Q is the best patch between an all-zero left context and
    R[:norm].  R > B needs at least as many 1s as B (the count is the
    leading t-coefficient), so a prefix of R is cut once even the fullest
    avoiding tail cannot reach that count.  Blocks shorter than norm are
    left to the oracle's exhaustive pairing.
    """
    size = len(block_b)
    norm = distances.norm
    if size < norm:
        return brute_two_block(distances, block_b, force=True)
    b_entry = _entry(block_b)
    bb_entry = _entry(block_b + block_b)
    fillings: dict[str, str] = {}
    for second in _avoiding_with_ones(distances, size, b_entry[1]):
        if not _entry_greater(_entry(second), b_entry):
            continue
        head = second[:norm]
        first = fillings.get(head)
        if first is None:
            context = PatchContext("0" * norm, head, size)
            first = fillings[head] = best_patch(context, distances)
        if _entry_greater(_entry(first + second), bb_entry):
            return first, second
    return None


def _max_ones(distances: DistanceSet, length: int) -> list[int]:
    """The most 1s an avoiding string of each length 0..length can hold.

    The line DP over trailing windows (int masks, bit k is the bit k+1 back)
    keeping only the count, so it needs no germ comparison.
    """
    full = (1 << distances.norm) - 1
    clash = sum(1 << (d - 1) for d in distances)
    states = {0: 0}
    out = [0]
    for _ in range(length):
        new: dict[int, int] = {}
        for window, ones in states.items():
            zero = (window << 1) & full
            if new.get(zero, -1) < ones:
                new[zero] = ones
            if not window & clash:
                one = ((window << 1) | 1) & full
                if new.get(one, -1) < ones + 1:
                    new[one] = ones + 1
        states = new
        out.append(max(states.values()))
    return out


def _avoiding_with_ones(distances: DistanceSet, length: int, need: int):
    """Every avoiding string of the given length with at least `need` 1s.

    Depth first, 1 before 0; a prefix is cut as soon as even the fullest
    avoiding tail of the remaining length cannot bring it up to `need`.
    """
    dists = tuple(distances)
    room = _max_ones(distances, length)
    prefix: list[str] = []

    def extend(ones):
        pos = len(prefix)
        if ones + room[length - pos] < need:
            return
        if pos == length:
            yield "".join(prefix)
            return
        if all(d > pos or prefix[pos - d] == "0" for d in dists):
            prefix.append("1")
            yield from extend(ones + 1)
            prefix.pop()
        prefix.append("0")
        yield from extend(ones)
        prefix.pop()

    yield from extend(0)


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the winner search; None picks defaults from the distances."""

    max_window: int | None = None
    max_block: int | None = None

    def window_bound(self, distances: DistanceSet) -> int:
        return self.max_window if self.max_window else max(4 * distances.norm, 1)

    def block_bound(self, distances: DistanceSet) -> int:
        return self.max_block if self.max_block else max(2 * distances.norm, 1)


@dataclass(frozen=True)
class SearchResult:
    certificate: Certificate | None
    attempts: tuple[str, ...] = field(default_factory=tuple)

    @property
    def found(self) -> bool:
        return self.certificate is not None


def find_winner(distances: DistanceSet, budget: SearchBudget | None = None) -> SearchResult:
    """Run the certification strategies in order and report the outcome.

    An empty result is only ever "nothing certified within budget": whether
    a winner exists at all for every distance set is open, so absence of a
    certificate is not evidence of absence of a winner.
    """
    budget = budget or SearchBudget()
    attempts: list[str] = []

    if distances:
        cert = symmetric_winner(distances)
        if cert:
            return SearchResult(cert, tuple(attempts))
        attempts.append(
            "no symmetry offset in "
            f"({distances.norm}, {distances.norm + distances.distances[0]}]"
        )

    max_window = budget.window_bound(distances)
    cert = find_repeatable_winner(distances, max_window)
    if cert:
        return SearchResult(cert, tuple(attempts))
    attempts.append(
        f"no repeatable germ-maximal window for lengths "
        f"{distances.norm + 1}..{max_window}"
    )

    max_block = budget.block_bound(distances)
    for size in range(1, max_block + 1):
        block_a = best_string(distances, size)
        doubled = best_string(distances, 2 * size)
        if doubled[:size] != block_a:
            continue
        cert = certify_two_block(distances, block_a, doubled[size:])
        if cert:
            return SearchResult(cert, tuple(attempts))
    attempts.append(f"two-block induction failed for block lengths 1..{max_block}")
    return SearchResult(None, tuple(attempts))
