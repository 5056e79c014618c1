"""Search for and certification of germ-maximal avoiding sets.

Three certification strategies, in the order a search tries them:

* SymmetricOffset: if some k past the largest distance has d forbidden
  exactly when k-d is, every avoiding window of length k repeats safely,
  so the best length-k window repeated forever wins.
* RepeatableWindow: the germ-maximal avoiding window of some length past
  the largest distance stays avoiding when doubled; its repetition wins.
* TwoBlockInduction: blocks A and B of a common length such that A and AB
  are germ-maximal for their lengths and every avoiding QR has R below B
  or QR below BB; then A followed by B forever wins (`certify_two_block`).

All certificates re-verify from their recorded evidence alone.

Germ-best strings are int masks read off line-DP runs that each public
call builds for itself, so the module keeps nothing between calls.  A call
that asks many lengths (`find_winner`, `find_repeatable_winner`,
`certify_two_block`, a TwoBlockInduction verify) reads one
`local.LineKernel`; one that asks one length (`best_string`,
`symmetric_winner`, a window certificate's verify) reads
`local._best_entry`; a two-block challenger's Q is a `local._patch_run`
after an all-zero left context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .local import LineKernel, _best_entry, _entry, _patch_run, germ_greater
from .sets import (
    DistanceSet,
    RationalSet,
    _avoids_forever,
    _brief,
    _check_bits,
    _check_natural,
    _mask_avoids,
    _to_bits,
    _to_mask,
)

REPEATABLE_WINDOW = "RepeatableWindow"
SYMMETRIC_OFFSET = "SymmetricOffset"
TWO_BLOCK_INDUCTION = "TwoBlockInduction"

CERTIFICATE_KINDS = (REPEATABLE_WINDOW, SYMMETRIC_OFFSET, TWO_BLOCK_INDUCTION)


# ---------------------------------------------------------------------------
# germ-maximal strings


# The most evidence bits (a window, or a block pair) a certificate may hold:
# the kernel run to length n costs time quadratic in n.  Search and verify ask
# for no longer germ-best string.
MAX_EVIDENCE_BITS = 1 << 12

# The most nodes a two-block challenger walk may pop, which only the block
# length bounds otherwise.  The largest walk a search is known to make pops
# 12,436,671 ({2,10,12}, 92-bit blocks, `max_block = 96`).
MAX_CHALLENGER_NODES = 1 << 24

# The longest string `best_string` returns: each step of a run carries masks
# as long as the string so far, so a run costs time quadratic in its length.
# Twice the longest string that search and verify ask for.
MAX_STRING_BITS = 2 * MAX_EVIDENCE_BITS


def best_string(distances: DistanceSet, length: int) -> str:
    """The germ-maximal avoiding string of the given length.

    Unique: distinct equal-length strings have distinct indicator
    polynomials, so the germ order never ties.  Raises ValueError past
    MAX_STRING_BITS.
    """
    if _check_natural(length, "length") > MAX_STRING_BITS:
        raise ValueError(f"length {_brief(length)} is over the cap of {MAX_STRING_BITS}")
    return _to_bits(_best_entry(distances, length)[0], length)


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
        """Replay the checks; False on failure or malformed evidence, ValueError past a cap."""
        bits = sum(len(value) for value in self.evidence.values() if isinstance(value, str))
        if bits > MAX_EVIDENCE_BITS:
            raise ValueError(f"{bits} bits of evidence are over the cap of {MAX_EVIDENCE_BITS}")
        if self.kind == REPEATABLE_WINDOW:
            return self._verify_window(check_offset=None)
        if self.kind == SYMMETRIC_OFFSET:
            offset = self.evidence.get("offset")
            if not _is_int(offset):
                return False
            return self._verify_window(check_offset=offset)
        block_a = self.evidence.get("block_a")
        block_b = self.evidence.get("block_b")
        try:  # _check_bits refuses a block that is not a str
            masks = _check_blocks(self.distances, block_a, block_b)
        except ValueError:
            return False
        cert = _two_block(LineKernel(self.distances), *masks, len(block_a))
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
        best = _repeating_best(d, _best_entry(d, length)[0], length)
        return window == best and self.winner == RationalSet("", window)

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
            winner, evidence = data["winner"], data["evidence"]
            if not isinstance(evidence, dict):
                raise TypeError(f"evidence must be a JSON object, got {evidence!r:.40}")
            return cls(
                data["kind"],
                DistanceSet(tuple(data["distances"])),
                RationalSet(winner["preperiod"], winner["repetend"]),
                dict(evidence),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_repeatable(window: str, distances: DistanceSet) -> bool:
    """True iff the window stays avoiding when repeated forever.

    Only defined for windows longer than the largest distance, where a
    violation in the infinite repetition crosses at most one junction and so
    already shows up in the doubled window (`sets._avoids_forever`).
    """
    if len(_check_bits(window, "window")) <= distances.norm:
        raise ValueError("window must be longer than the largest distance")
    return _repeating_best(distances, _to_mask(window), len(window)) is not None


def _repeating_best(distances: DistanceSet, mask: int, length: int) -> str | None:
    """The germ-best window `mask` of the length as bits if it stays avoiding
    when repeated, else None."""
    return _to_bits(mask, length) if _avoids_forever(0, 0, mask, length, distances) else None


def _pair_sums(distances: DistanceSet) -> set[int]:
    return {a + b for a in distances for b in distances}


def find_repeatable_winner(distances: DistanceSet, max_window: int) -> Certificate | None:
    """Scan window lengths for a repeatable germ-maximal window.

    Pairwise sums of distances are tried first (they cover every worked
    case we know), then the remaining lengths in increasing order.  Any hit
    certifies the winner outright.
    """
    return _repeatable_winner(LineKernel(distances), max_window)


def _repeatable_winner(kernel: LineKernel, max_window: int) -> Certificate | None:
    distances, norm = kernel.distances, kernel.distances.norm
    if not norm < max_window <= MAX_EVIDENCE_BITS:
        raise ValueError(f"max window must be in (norm, cap] = ({norm}, {MAX_EVIDENCE_BITS}]")

    preferred = sorted(s for s in _pair_sums(distances) if norm < s <= max_window)
    skip = set(preferred)
    rest = [m for m in range(norm + 1, max_window + 1) if m not in skip]
    for m in preferred + rest:
        window = _repeating_best(distances, kernel.entry(m)[0], m)
        if window is not None:
            return Certificate(
                REPEATABLE_WINDOW,
                distances,
                RationalSet("", window),
                {"window_length": m, "window": window},
            )
    return None


def _is_symmetry_offset(distances: DistanceSet, k: int) -> bool:
    # d -> k-d maps the distances onto themselves only by reversing their order
    d = distances.distances
    return k > distances.norm and all(x + y == k for x, y in zip(d, reversed(d)))


def symmetry_offset(distances: DistanceSet) -> int | None:
    """The k past the largest distance with d forbidden iff k-d forbidden, or None.

    Such a k is norm + min(distances) or nothing: d -> k-d reverses the
    distances, so it maps the smallest to the largest.
    """
    if not distances:
        raise ValueError("symmetry offset needs a nonempty distance set")
    k = distances.norm + distances.distances[0]
    return k if _is_symmetry_offset(distances, k) else None


def symmetric_winner(distances: DistanceSet) -> Certificate | None:
    """Winner certificate for distance sets with a symmetry offset.

    With offset k every avoiding window of length k is repeatable, so the
    best one wins; repeatability is verified anyway rather than assumed.
    Raises ValueError for an offset past MAX_EVIDENCE_BITS.
    """
    offset = symmetry_offset(distances)
    if offset is None:
        return None
    if offset > MAX_EVIDENCE_BITS:  # verify would refuse the window
        raise ValueError(
            f"{_brief(offset)} bits of evidence are over the cap of {MAX_EVIDENCE_BITS}")
    window = _repeating_best(distances, _best_entry(distances, offset)[0], offset)
    if window is None:
        raise AssertionError("symmetric window failed the repeatability check")
    return Certificate(
        SYMMETRIC_OFFSET,
        distances,
        RationalSet("", window),
        {"offset": offset, "window": window},
    )


def certify_two_block(distances: DistanceSet, block_a: str, block_b: str) -> Certificate | None:
    """Try to certify block_a followed by block_b forever as the winner.

    Checks, all exact (`_two_block`):

    * block_a and block_a+block_b are the germ-maximal avoiding strings of
      their lengths (first: the line kernel refuses a norm over its cap
      before the next check builds a window of norm bits);
    * the candidate set itself avoids the distances;
    * every avoiding QR split into halves has R at most block_b, or the
      whole QR at most block_b doubled (`_two_block_challenger`).

    Splitting an arbitrary challenger into blocks, those facts yield a
    partition of its positions into one- and two-block spans on which the
    candidate never loses, and the finitely many per-span differences share
    a neighborhood of 1 where none is negative.  Returns None when any check
    fails; raises on malformed inputs, on blocks past MAX_EVIDENCE_BITS // 2
    (verify refuses them), on distance sets over the kernel's cap and on a
    challenger walk past MAX_CHALLENGER_NODES.
    """
    masks = _check_blocks(distances, block_a, block_b)
    return _two_block(LineKernel(distances), *masks, len(block_a))


def _check_blocks(distances: DistanceSet, block_a: str, block_b: str) -> tuple[int, int]:
    """The blocks' masks; ValueError unless equal-length avoiding bit strings within the cap."""
    _check_bits(block_a, "block_a")
    _check_bits(block_b, "block_b")
    if not block_a or len(block_a) != len(block_b):
        raise ValueError("blocks must be nonempty and of equal length")
    cap = MAX_EVIDENCE_BITS // 2  # verify's cap on a block pair
    if len(block_a) > cap:
        raise ValueError(f"blocks of {len(block_a)} bits are over the cap of {cap}")
    a, b = _to_mask(block_a), _to_mask(block_b)
    if not _mask_avoids(a, distances) or not _mask_avoids(b, distances):
        raise ValueError("blocks must themselves avoid the distances")
    return a, b


def _two_block(kernel: LineKernel, a: int, b: int, size: int) -> Certificate | None:
    """`certify_two_block` on the kernel and the masks of two avoiding blocks of `size` bits."""
    if a != kernel.entry(size)[0] or a | b << size != kernel.entry(2 * size)[0]:
        return None
    distances = kernel.distances
    if not _avoids_forever(a, size, b, size, distances) or _two_block_challenger(kernel, b, size):
        return None
    block_a, block_b = _to_bits(a, size), _to_bits(b, size)
    evidence = {"block_a": block_a, "block_b": block_b}
    winner = RationalSet(block_a, block_b)
    return Certificate(TWO_BLOCK_INDUCTION, distances, winner, evidence)


def _two_block_challenger(kernel: LineKernel, b: int, size: int):
    """An avoiding QR with R germ-greater than B and QR than BB, as the
    masks (Q, R), or None; B is the mask b of `size` bits.

    Branch and bound over R, depth first, 1 before 0, carrying the shadow of
    `sets._WindowModel` on an explicit stack, so any length within the cap
    walks.  R > B needs at least as many 1s as B (the count is the leading
    t-coefficient), and the germ-best string of each length has the most
    1s, so a prefix of R is cut once even the germ-best tail of the
    remaining length cannot bring it up to that count.  No R beats a
    germ-best B, so then no R is walked at all.  For a fixed R, QR - Q'R =
    Q - Q' as polynomials, so only the germ-best Q that fits before R can
    beat BB.  Q meets R only through R[:norm] (all of R when the blocks are
    shorter than norm), so Q is the best filling of a patch of |B|
    positions between an all-zero left context and that head
    (`local._patch_run`).  Raises ValueError past MAX_CHALLENGER_NODES pops.
    """
    if b == kernel.entry(size)[0]:
        return None
    b_entry, bb_entry = _entry(b), _entry(b | b << size)
    need = b_entry[1]
    most = [kernel.entry(n)[1] for n in range(size + 1)]
    grow, head, fill = kernel.model.grow, (1 << kernel.distances.norm) - 1, None
    stack = [(0, 0, 0, 0, 0)]  # position, shadow, mask, ones, position-sum
    pop, push = stack.pop, stack.append
    for _ in range(MAX_CHALLENGER_NODES):
        if not stack:
            return None
        pos, shadow, mask, ones, possum = pop()
        if ones + most[size - pos] < need:
            continue
        if pos < size:
            push((pos + 1, shadow >> 1, mask, ones, possum))  # popped after the 1's walk
            if not shadow & 1:
                push((pos + 1, shadow >> 1 | grow, mask | 1 << pos, ones + 1, possum + pos))
        elif germ_greater((mask, ones, possum), b_entry):
            fill = fill or _patch_run(kernel.distances, size)
            first = fill(0, mask & head)[0]
            if germ_greater(_entry(first | mask << size), bb_entry):
                return first, mask
    if stack:
        cap = MAX_CHALLENGER_NODES
        raise ValueError(f"the two-block challenger walk is over the cap of {cap} nodes")
    return None


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the winner search, positive ints within MAX_EVIDENCE_BITS; None for defaults."""

    max_window: int | None = None
    max_block: int | None = None

    def __post_init__(self):
        cap = MAX_EVIDENCE_BITS  # a window, or a block pair of two blocks
        for name, limit in (("max_window", cap), ("max_block", cap // 2)):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and 1 <= value <= limit):
                raise ValueError(f"{name} must be a positive integer <= {limit}, got {value!r}")

    def window_bound(self, distances: DistanceSet) -> int:
        return self.max_window if self.max_window is not None else max(4 * distances.norm, 1)

    def block_bound(self, distances: DistanceSet) -> int:
        return self.max_block if self.max_block is not None else max(2 * distances.norm, 1)


@dataclass(frozen=True)
class SearchResult:
    certificate: Certificate | None
    attempts: tuple[str, ...] = field(default_factory=tuple)

    @property
    def found(self) -> bool:
        return self.certificate is not None


def find_winner(distances: DistanceSet, budget: SearchBudget | None = None) -> SearchResult:
    """Run the certification strategies in order and report the outcome.

    Every finite D has a unique, eventually periodic germ-maximum (by
    Blackwell's 1962 theorem on the decision process over windows, not by
    the paper), so an empty result means only that the bounded strategies
    did not certify it.
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
    kernel = LineKernel(distances)  # shared by the window scan and the two blocks
    cert = max_window > distances.norm and _repeatable_winner(kernel, max_window)
    if cert:
        return SearchResult(cert, tuple(attempts))
    attempts.append(  # an empty range when max_window is at or below the norm
        f"no repeatable germ-maximal window for lengths "
        f"{distances.norm + 1}..{max_window}"
    )

    max_block = budget.block_bound(distances)
    for size in range(1, max_block + 1):
        doubled = kernel.entry(2 * size)[0]
        cert = _two_block(kernel, doubled & ((1 << size) - 1), doubled >> size, size)
        if cert:
            return SearchResult(cert, tuple(attempts))
    attempts.append(f"two-block induction failed for block lengths 1..{max_block}")
    return SearchResult(None, tuple(attempts))
