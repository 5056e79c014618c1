"""Local germ improvement of avoiding strings.

Between two fixed boundary contexts of width norm (the largest forbidden
distance) there is a unique germ-maximal filling of any patch length at
least norm; rewriting a patch to that filling never decreases the germ of
the whole string and keeps it avoiding, because bits further than norm from
the patch cannot clash with it.  Sweeping the rewrite over all positions
terminates (every change is a strict, exact germ increase over finitely
many strings, which the sweep checks at each change) in a string no single
patch rewrite can improve.

Fixpoints of the sweep are not known to be winners, but certified winners
are fixpoints: every interior window of a winner must already contain the
best filling for its contexts, which `winner_windows_consistent` checks.

The best filling comes from `LineKernel`, the one germ-best-string dynamic
program in the library: `search` reads its germ-best strings of every
length and its two-block challengers off the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .germs import EQUAL, GREATER, _sign_near_one
from .sets import DistanceSet, RationalSet, _check_bits, _to_bits, _to_mask, is_avoiding

# The most trailing-window states a line DP may hold.  Norms up to 12 need
# at most 2**12; a distance set that would need more (a lone large distance
# forbids almost nothing) is refused rather than left to exhaust memory.
MAX_STATES = 1 << 16


def germ_greater(a, b) -> bool:
    """Germ order on equal-length (mask, ones, position-sum) entries.

    Bit i of the mask is position i.  The first two t-coefficients of the
    difference are the count gap and the negated position-sum gap, so those
    decide almost every comparison; full polynomial comparison settles the
    rest.
    """
    if a[1] != b[1]:
        return a[1] > b[1]
    if a[2] != b[2]:
        return a[2] < b[2]
    x, y = a[0], b[0]
    order = _sign_near_one(
        [(x >> i & 1) - (y >> i & 1) for i in range(max(x.bit_length(), y.bit_length()))]
    )
    if order == EQUAL and x != y:
        raise AssertionError("distinct strings never tie")
    return order == GREATER


class LineKernel:
    """The germ-best avoiding filling of every trailing window, grown bit by bit.

    The state is the window of the last norm bits (bit i is the bit norm - i
    back, so the newest bit is the top one): a new 1 can only clash inside
    it, and whichever of two equal-length fillings is germ-greater stays so
    under any common extension, so one entry (mask, ones, position-sum) per
    window suffices.  `left` is the context before position 0, bit i being
    the bit norm - i back; violations inside it are not the filling's
    business.
    """

    def __init__(self, distances: DistanceSet, left: int = 0):
        self.distances = distances
        self.length = 0
        self.states = {left: (0, 0, 0)}

    def advance(self, steps: int) -> LineKernel:
        """Append `steps` positions; raises ValueError past MAX_STATES states."""
        norm = self.distances.norm
        top = 1 << (norm - 1) if norm else 0  # where the new bit lands
        clash = sum(1 << (norm - d) for d in self.distances)  # what a new 1 must not meet
        for _ in range(steps):
            pos = self.length
            new: dict[int, tuple[int, int, int]] = {}

            def offer(window, entry):
                cur = new.get(window)
                if cur is None or germ_greater(entry, cur):
                    new[window] = entry

            for window, entry in self.states.items():
                offer(window >> 1, entry)
                if not window & clash:
                    mask, ones, possum = entry
                    offer((window >> 1) | top, (mask | 1 << pos, ones + 1, possum + pos))
            if len(new) > MAX_STATES:
                raise ValueError(
                    f"distances {{{self.distances.to_text()}}} need {len(new)} line-DP "
                    f"states at length {pos + 1}, over the cap of {MAX_STATES}"
                )
            self.states = new
            self.length += 1
        return self

    def best(self, right: int = 0) -> tuple[int, int, int]:
        """The germ-best entry whose last window fits before `right`.

        Bit j of `right` is position length + j; the all-zero filling always
        fits when the window holds no context bits.
        """
        norm = self.distances.norm
        blocked = 0
        for d in self.distances:
            blocked |= (right << norm) >> d
        blocked &= (1 << norm) - 1
        best = None
        for window, entry in self.states.items():
            if not window & blocked and (best is None or germ_greater(entry, best)):
                best = entry
        if best is None:
            raise AssertionError("no feasible filling, yet all-zero is always feasible")
        return best


@dataclass(frozen=True)
class PatchContext:
    """Fixed left/right boundary bits around a rewritable gap."""

    left: str
    right: str
    patch_length: int

    def __post_init__(self):
        _check_bits(self.left, "left context")
        _check_bits(self.right, "right context")
        if len(self.left) != len(self.right):
            raise ValueError("left and right contexts must have equal width")
        if self.patch_length < 1:
            raise ValueError("patch length must be >= 1")


def best_patch(context: PatchContext, distances: DistanceSet) -> str:
    """The unique germ-maximal filling of the gap that keeps it avoiding.

    The line kernel run across the patch from the left context, keeping
    only final windows that do not clash with the right context.
    Violations wholly inside a fixed context are not the patch's business
    and are ignored, so the all-zero filling is always feasible and a best
    filling always exists.
    """
    norm = distances.norm
    if len(context.left) != norm:
        raise ValueError(f"context width {len(context.left)} != largest distance {norm}")
    length = context.patch_length
    if length < norm:
        raise ValueError("patch length must be at least the largest distance")
    kernel = LineKernel(distances, _to_mask(context.left)).advance(length)
    return _to_bits(kernel.best(_to_mask(context.right))[0], length)


def improve_at(
    bits: str,
    position: int,
    patch_length: int,
    distances: DistanceSet,
    allow_edge: bool = False,
) -> str:
    """Rewrite the patch at `position` to the best filling for its contexts.

    The result's germ is at least the input's, strictly greater when the
    patch changes, and the result is still avoiding.  Positions too close to
    the ends to carry full contexts are rejected; with allow_edge, positions
    under norm use the short left context padded with zeros (padding adds no
    constraints, so this matches simply having less string to the left).
    """
    if not is_avoiding(bits, distances):  # also rejects non-bit strings
        raise ValueError("input string must avoid the distances")
    norm = distances.norm
    lo = 0 if allow_edge else norm
    if position < lo or position + patch_length + norm > len(bits):
        raise ValueError(f"position {position} out of range for patch rewriting")
    return _improve_unchecked(bits, position, patch_length, distances)


def _improve_unchecked(bits, position, patch_length, distances):
    norm = distances.norm
    left = bits[max(0, position - norm): position].rjust(norm, "0")
    right = bits[position + patch_length: position + patch_length + norm]
    patch = best_patch(PatchContext(left, right, patch_length), distances)
    return bits[:position] + patch + bits[position + patch_length:]


def sweep_to_fixpoint(
    bits: str,
    patch_length: int,
    distances: DistanceSet,
    positions=None,
    allow_edge: bool = False,
) -> str:
    """Apply patch rewrites until a full pass changes nothing.

    The default schedule is a round-robin over every position with full
    contexts (plus the zero-padded early positions with allow_edge).  The
    result is patch-maximal: no single rewrite at any scheduled position can
    improve it, and its germ dominates the input's.
    """
    if not is_avoiding(bits, distances):  # also rejects non-bit strings
        raise ValueError("input string must avoid the distances")
    norm = distances.norm
    if positions is None:
        lo = 0 if allow_edge else norm
        positions = range(lo, len(bits) - patch_length - norm + 1)
    schedule = list(positions)
    current = bits
    changed = True
    while changed:
        changed = False
        for position in schedule:
            replaced = _improve_unchecked(current, position, patch_length, distances)
            if replaced != current:
                _check_rewrite(current, replaced, position, patch_length, distances)
                current = replaced
                changed = True
    return current


def _check_rewrite(old, new, position, patch_length, distances):
    """Raise unless the rewrite raised the germ and kept the string avoiding.

    The strict rise is what ends the sweep.  Only pairs within norm of the
    patch can clash, so the patch and its contexts suffice.
    """
    end, norm = position + patch_length, distances.norm
    rise = [int(b) - int(a) for a, b in zip(old[position:end], new[position:end])]
    if _sign_near_one(rise) != GREATER:
        raise AssertionError(f"patch rewrite at {position} did not raise the germ")
    if not is_avoiding(new[max(0, position - norm): end + norm], distances):
        raise AssertionError(f"patch rewrite at {position} broke avoidance")


def winner_windows_consistent(
    winner: RationalSet, distances: DistanceSet, patch_length: int
) -> bool:
    """Every interior window of the winner already holds its best filling.

    Checked for every patch position across the preperiod and one full
    period, which by periodicity covers all positions.
    """
    norm = distances.norm
    pre, rep = len(winner.preperiod), len(winner.repetend)
    span = pre + 2 * rep + patch_length + 2 * norm
    window = winner.bits(span)
    for position in range(norm, pre + rep + norm + 1):
        patched = _improve_unchecked(window, position, patch_length, distances)
        if patched != window:
            return False
    return True
